import json
import subprocess
import sys
from pathlib import Path

import pytest

from lsi_lab import cli

TWO_POINT = '{"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]}'
UNIFORM = '{"pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [1.0]}]}'
CLOUD_2D = json.dumps({
    "dimension": 2,
    "atoms": [{"point": [1.0, 0.0], "w": 0.5}, {"point": [-1.0, 0.0], "w": 0.5}],
})
SINGLE_ATOM_2D = json.dumps({"atoms": [{"point": [0.0, 0.0], "w": 1.0}]})


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def two_point_file(tmp_path):
    p = tmp_path / "two_point.json"
    p.write_text(TWO_POINT)
    return str(p)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_json_contract(two_point_file, capsys):
    code, out, err = run_cli(["estimate", "--measure", two_point_file, "--delta", "1.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["c_lower"] <= payload["c_upper"]
    assert payload["D0"] > 0 and payload["D1"] > 0


def test_estimate_csv_row(two_point_file, capsys):
    code, out, _ = run_cli(["estimate", "--measure", two_point_file, "--delta", "1.0",
                            "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "delta,D0,D1,x_star_0,x_star_1,c_lower,c_upper"
    assert len(lines) == 2
    vals = [float(v) for v in lines[1].split(",")]
    assert len(vals) == 7 and vals[0] == 1.0


def test_estimate_zero_delta_exit_2(two_point_file, capsys):
    code, _, err = run_cli(["estimate", "--measure", two_point_file, "--delta", "0"], capsys)
    assert code == 2
    assert "delta must be positive" in err


def test_estimate_missing_file_exit_1(capsys):
    code, _, err = run_cli(["estimate", "--measure", "/nonexistent/m.json", "--delta", "1"], capsys)
    assert code == 1


def test_estimate_bad_json_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{nope")
    code, _, _ = run_cli(["estimate", "--measure", str(p), "--delta", "1"], capsys)
    assert code == 2


def test_estimate_output_file_atomic(two_point_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(["estimate", "--measure", two_point_file, "--delta", "1.0",
                          "--out", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out_path.read_text())["delta"] == 1.0
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


def test_estimate_overflow_exit_2_names_side_and_delta(two_point_file, capsys):
    # exp(gap^2 / 8 delta) leaves the float range for the two-point measure here
    code, out, err = run_cli(["estimate", "--measure", two_point_file, "--delta", "0.0005"],
                             capsys)
    assert code == 2
    assert out == ""
    assert "error: D0 = exp(" in err
    assert "exceeds the float range at delta=0.0005" in err


def test_estimate_c_upper_overflow_exit_2(two_point_file, tmp_path, capsys):
    # D0 and D1 are finite at this delta, 468 (D0 + D1) is not
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(["estimate", "--measure", two_point_file, "--delta", "0.0007",
                              "--out", str(out_path)], capsys)
    assert code == 2
    assert "error: c_upper = exp(" in err
    assert "exceeds the float range at delta=0.0007" in err
    assert "Infinity" not in out + err
    assert not out_path.exists()
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


def test_estimate_byte_stable(two_point_file, capsys):
    _, out1, _ = run_cli(["estimate", "--measure", two_point_file, "--delta", "0.5"], capsys)
    _, out2, _ = run_cli(["estimate", "--measure", two_point_file, "--delta", "0.5"], capsys)
    assert out1 == out2


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_two_point_summary(two_point_file, capsys):
    code, out, _ = run_cli(["scan", "--measure", two_point_file,
                            "--deltas", "0.1,0.05,0.025"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("delta,D0,D1")
    assert len(lines) == 5  # header + 3 rows + summary
    summary = lines[-1]
    assert summary.startswith("# slope=")
    slope = float(summary.split("slope=")[1].split()[0])
    assert slope >= 0.45


def test_scan_single_delta_exit_2(two_point_file, capsys):
    code, _, err = run_cli(["scan", "--measure", two_point_file, "--deltas", "0.1"], capsys)
    assert code == 2
    assert "need >= 2 deltas" in err


def test_scan_gapless_exit_2(tmp_path, capsys):
    p = tmp_path / "uniform.json"
    p.write_text(UNIFORM)
    code, _, err = run_cli(["scan", "--measure", str(p), "--deltas", "0.1,0.05"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# rmt
# ---------------------------------------------------------------------------

def rmt_config(tmp_path, **overrides):
    cfg = {"law": "gaussian", "f": "identity", "n": [15, 25], "eps": [0.3, 0.5],
           "trials": 60, "seed": 42, "delta": {"mode": "none"}}
    cfg.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return str(p)


def test_rmt_report_cells(tmp_path, capsys):
    code, out, _ = run_cli(["rmt", "--config", rmt_config(tmp_path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["cells"]) == 4
    for cell in payload["cells"]:
        assert cell["envelope_ok"]


def test_rmt_threads_byte_identical(tmp_path, capsys):
    cfg = rmt_config(tmp_path)
    _, out1, _ = run_cli(["rmt", "--config", cfg, "--threads", "1"], capsys)
    _, out8, _ = run_cli(["rmt", "--config", cfg, "--threads", "8"], capsys)
    assert out1 == out8


def test_rmt_threads_default_read_per_call(tmp_path, capsys, monkeypatch):
    cfg = rmt_config(tmp_path)
    _, out1, _ = run_cli(["rmt", "--config", cfg, "--threads", "1"], capsys)
    monkeypatch.setenv("LSI_LAB_THREADS", "2")
    assert run_cli(["rmt", "--config", cfg], capsys)[1] == out1
    monkeypatch.setenv("LSI_LAB_THREADS", "0")
    code, out, err = run_cli(["rmt", "--config", cfg], capsys)
    assert code == 2 and out == "" and "--threads must be >= 1" in err


def test_rmt_unknown_law_exit_2(tmp_path, capsys):
    code, _, _ = run_cli(["rmt", "--config", rmt_config(tmp_path, law="levy")], capsys)
    assert code == 2


def test_rmt_csv_format(tmp_path, capsys):
    code, out, _ = run_cli(["rmt", "--config", rmt_config(tmp_path), "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,eps,trials,freq,stderr,bound,term1,term3,delta,c_upper"
    assert len(lines) == 5


# ---------------------------------------------------------------------------
# bakry
# ---------------------------------------------------------------------------

def test_bakry_single_atom(tmp_path, capsys):
    p = tmp_path / "atom.json"
    p.write_text(SINGLE_ATOM_2D)
    code, out, _ = run_cli(["bakry", "--measure", str(p), "--delta", "1.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["c_candidate"] == pytest.approx(1.0, rel=1e-12)


def test_bakry_nonpositive_delta_exit_2(tmp_path, capsys):
    p = tmp_path / "atom.json"
    p.write_text(SINGLE_ATOM_2D)
    code, _, _ = run_cli(["bakry", "--measure", str(p), "--delta", "-1.0"], capsys)
    assert code == 2


@pytest.mark.parametrize("flag,value", [("--grid", "-1"), ("--grid", "0"), ("--random", "-5")])
def test_bakry_bad_probe_count_exit_2(tmp_path, capsys, flag, value):
    p = tmp_path / "cloud.json"
    p.write_text(CLOUD_2D)
    code, _, err = run_cli(["bakry", "--measure", str(p), "--delta", "4.4", flag, value], capsys)
    assert code == 2
    assert "grid >= 1 and random >= 0" in err


def test_bakry_oversized_probe_grid_exit_2(tmp_path, capsys):
    p = tmp_path / "cloud12.json"
    p.write_text(json.dumps({"atoms": [{"point": [1.0] + [0.0] * 11, "w": 0.5},
                                       {"point": [-1.0] + [0.0] * 11, "w": 0.5}]}))
    code, _, err = run_cli(["bakry", "--measure", str(p), "--delta", "4.4", "--grid", "7"],
                           capsys)
    assert code == 2
    assert "exceeds the limit" in err


def test_bakry_two_atom_threshold(tmp_path, capsys):
    p = tmp_path / "cloud.json"
    p.write_text(CLOUD_2D)
    code, out, _ = run_cli(["bakry", "--measure", str(p), "--delta", "4.4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["threshold_ok"] is True
    assert payload["min_eig"] >= 0.0206611570 - 1e-9


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def test_asymptotics_csv(two_point_file, capsys):
    code, out, _ = run_cli(["asymptotics", "--measure", two_point_file, "--delta", "1.0",
                            "--xs=-50,-100", "--side", "left", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,ratio_lemma1,ratio_lemma2,ratio_lemma3,side"
    row = lines[1].split(",")
    assert abs(float(row[1]) - 1.0) <= 0.05


def test_asymptotics_inside_support_exit_2(two_point_file, capsys):
    code, _, _ = run_cli(["asymptotics", "--measure", two_point_file, "--delta", "1.0",
                          "--xs", "0.0", "--side", "left"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# declared entry point
# ---------------------------------------------------------------------------

def test_console_script_runs(two_point_file, source_env):
    # Run the target that pyproject.toml declares for `lsi`, the way an
    # installed console script does, so no install step is needed.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["lsi"]
    module, func = target.split(":")
    launcher = (f"import sys; sys.argv[0] = 'lsi'; "
                f"from {module} import {func}; sys.exit({func}())")
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "estimate", "--measure", two_point_file,
         "--delta", "1.0", "--format", "csv"],
        capture_output=True, text=True, env=source_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("delta,D0,D1")


def test_cli_module_runs_without_runtime_warning(source_env):
    proc = subprocess.run([sys.executable, "-m", "lsi_lab.cli"],
                          capture_output=True, text=True, env=source_env)
    assert proc.returncode == 2, proc.stderr
    assert "usage: lsi" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
