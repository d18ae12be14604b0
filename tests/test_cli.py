import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lsi_lab import bg, cli, highdim, mollify, rmt
from lsi_lab.measure import build_measure

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


def assert_input_error(argv, tmp_path, capsys, message):
    """The invocation exits 2 with one ``error:`` line naming ``message``, and
    leaves neither output nor an ``--out`` file (nor its temporary sibling)."""
    before = set(tmp_path.iterdir())
    code, out, err = run_cli(argv + ["--out", str(tmp_path / "out.json")], capsys)
    assert code == 2 and out == "" and set(tmp_path.iterdir()) == before
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert err.count("\n") == 1


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


_PIECE = {"lo": 0.0, "hi": 1.0, "coeffs": [1.0]}


@pytest.mark.parametrize("spec, message", [
    ({"atoms": [{"x": "abc", "w": 1.0}]}, "atom x must be a finite number, got 'abc'"),
    ({"atoms": [{"x": 0.0}]}, "missing atom keys: ['w']"),
    ({"atoms": [1]}, "atom must be a mapping, got 1"),
    ({"atoms": 5}, "atoms must be a list, got 5"),
    ({"atoms": [{"x": 0.0, "w": "1.0"}]}, "atom w must be a finite number, got '1.0'"),
    ({"atoms": [{"x": True, "w": 1.0}]}, "atom x must be a finite number, got True"),
    ({"pieces": [{"lo": 0.0, "hi": 1.0}]}, "missing piece keys: ['coeffs']"),
    ({"pieces": [{**_PIECE, "coeffs": 1.0}]}, "piece coeffs must be a list, got 1.0"),
    ({"pieces": [{**_PIECE, "coeffs": ["1"]}]}, "piece coefficient must be a finite number"),
    ({"pieces": [{**_PIECE, "coeffs": [True]}]}, "piece coefficient must be a finite number"),
    ({"pieces": [{**_PIECE, "lo": False}]}, "piece lo must be a finite number, got False"),
    ({"pieces": [{**_PIECE, "hi": None}]}, "piece hi must be a finite number, got None"),
    ([1], "measure spec must be a mapping, got [1]"),
])
def test_estimate_malformed_measure_exit_2(tmp_path, capsys, spec, message):
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(spec))
    assert_input_error(["estimate", "--measure", str(path), "--delta", "1.0"],
                       tmp_path, capsys, message)


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


@pytest.mark.parametrize("at,delta,value", [(1e300, "1", "0.0"), (1e160, "1", "inf")])
def test_estimate_zero_or_infinite_bracket_exit_2(tmp_path, capsys, at, delta, value):
    # log p leaves the float range across the search window, so D0 is not a
    # positive finite number: a typed error naming it as a float, not a bracket
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"atoms": [{"x": -at, "w": 0.5}, {"x": at, "w": 0.5}]}))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert_input_error(["estimate", "--measure", str(path), "--delta", delta], out_dir, capsys,
                       f"error: D0 = {value} is not a positive finite number"
                       f" at delta={float(delta)!r}")


@pytest.mark.parametrize("delta", ["1e-310", "5e-324"])
@pytest.mark.parametrize("argv", [
    ["estimate", "--delta", "{delta}"],
    ["scan", "--deltas", "1,{delta}"],
    ["asymptotics", "--delta", "{delta}", "--xs=-5", "--side", "left"],
], ids=["estimate", "scan", "asymptotics"])
def test_subnormal_delta_exit_2(two_point_file, tmp_path, capsys, argv, delta):
    # below the smallest normal double delta keeps too few digits, and the
    # two sides of a bracket drift apart: refused before any bracket is run
    argv = [a.format(delta=delta) for a in argv]
    assert_input_error(argv[:1] + ["--measure", two_point_file] + argv[1:], tmp_path, capsys,
                       f"delta must be positive, finite and >= 2**-1022, got {float(delta)!r}")


def test_estimate_byte_stable(two_point_file, capsys):
    _, out1, _ = run_cli(["estimate", "--measure", two_point_file, "--delta", "0.5"], capsys)
    _, out2, _ = run_cli(["estimate", "--measure", two_point_file, "--delta", "0.5"], capsys)
    assert out1 == out2


POINT_MASS_ATOM = {"x": 0.0, "w": 1.0}


@pytest.mark.parametrize("spec", [
    {"atoms": [POINT_MASS_ATOM, {"x": 1e6, "w": 0.0}]},
    {"atoms": [POINT_MASS_ATOM, {"x": 1e300, "w": 0.0}]},
    {"atoms": [POINT_MASS_ATOM], "pieces": [{"lo": 1e6, "hi": 2e6, "coeffs": [0.0]}]},
], ids=["atom_1e6", "atom_1e300", "piece_1e6"])
def test_estimate_ignores_terms_without_mass(tmp_path, capsys, spec):
    # a term of mass 0 must not widen the support, and so the scan window
    outs = []
    for name, s in (("alone", {"atoms": [POINT_MASS_ATOM]}), ("with_zero_mass", spec)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(s))
        code, out, err = run_cli(["estimate", "--measure", str(path), "--delta", "1"], capsys)
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[1] == outs[0]


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


@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_rmt_threads_env_not_an_integer_exit_2(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("LSI_LAB_THREADS", value)
    code, out, err = run_cli(["rmt", "--config", rmt_config(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert f"LSI_LAB_THREADS must be an integer, got {value!r}" in err


def test_rmt_threads_default_is_the_usable_cpu_count(tmp_path, capsys, monkeypatch):
    seen = []

    def experiment(config, workers=None):
        seen.append(workers)
        return _concentration_experiment(config)

    monkeypatch.setattr(rmt, "concentration_experiment", experiment)
    monkeypatch.delenv("LSI_LAB_THREADS", raising=False)
    cfg = rmt_config(tmp_path)
    want = []
    if hasattr(os, "sched_getaffinity"):
        # the affinity mask wins over the machine's CPU count
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert run_cli(["rmt", "--config", cfg], capsys)[0] == 0
        want.append(3)
        monkeypatch.delattr(os, "sched_getaffinity")
    for count, workers in ((7, 7), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert run_cli(["rmt", "--config", cfg], capsys)[0] == 0
        want.append(workers)
    assert seen == want


@pytest.mark.skipif(rmt._SET_BLAS_THREADS is None,
                    reason="numpy's BLAS has no openblas_set_num_threads_local")
def test_rmt_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, source_env):
    # At n = 300 a multi-threaded OpenBLAS eigvalsh rounds differently from
    # a one-threaded one, so term3_gap and term3_stderr would move with the
    # host's core count.  Runs wherever the setter exists (numpy's OpenBLAS
    # wheels from 0.3.27 on).
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"law": "two_point", "f": "arctan", "n": [300],
                                  "eps": [0.3], "trials": 10, "seed": 11,
                                  "delta": {"mode": "fixed", "value": 0.25}}))
    outputs = []
    for blas_threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-m", "lsi_lab", "rmt", "--config", str(config)],
                              capture_output=True, env={**source_env,
                                                        "OPENBLAS_NUM_THREADS": blas_threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_rmt_unknown_law_exit_2(tmp_path, capsys):
    code, _, _ = run_cli(["rmt", "--config", rmt_config(tmp_path, law="levy")], capsys)
    assert code == 2


_REPEATED_X = {"kind": "piecewise_linear", "knots": [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}
_DECREASING_X = {"kind": "piecewise_linear", "knots": [[1.0, 0.0], [0.0, 1.0]]}


@pytest.mark.parametrize("drop, change, message", [
    ("law", {}, "missing config keys: ['law']"),
    ("f", {}, "missing config keys: ['f']"),
    ("n", {}, "missing config keys: ['n']"),
    ("eps", {}, "missing config keys: ['eps']"),
    (None, {"delta": "none"}, "delta must be a mapping, got 'none'"),
    (None, {"f": _REPEATED_X}, "piecewise_linear knot x values must increase"),
    (None, {"f": _DECREASING_X}, "piecewise_linear knot x values must increase"),
    (None, {"n": 20}, "n must be a list, got 20"),
    (None, {"trials": "abc"}, "trials must be an integer, got 'abc'"),
    (None, {"delta": {"mode": "fixed", "value": -0.5}}, "fixed delta must be finite and >= 0"),
    (None, {"law": {"kind": "uniform", "a": "x"}, "delta": {"mode": "fixed", "value": 0.1}},
     "uniform law a must be a finite number, got 'x'"),
    (None, {"law": {"kind": "two_point", "weight_a": 1.5},
            "delta": {"mode": "fixed", "value": 0.1}},
     "two_point law needs 0 <= weight_a <= 1, got 1.5"),
    (None, {"n": [20.7]}, "n entry must be an integer, got 20.7"),
    (None, {"seed": 1.5}, "seed must be an integer, got 1.5"),
    (None, {"trials": 2.5}, "trials must be an integer, got 2.5"),
    (None, {"seed": -1}, "seed must be >= 0, got -1"),
    (None, {"law": {"kind": "atom_mixture", "measure": {"atoms": [{"x": 0.0}]}},
            "delta": {"mode": "fixed", "value": 0.1}}, "missing atom keys: ['w']"),
    (None, {"eps": [0.5, math.inf]}, "eps values must be positive and finite, got (0.5, inf)"),
    (None, {"law": {"kind": "two_point"},
            "delta": {"mode": "schedule", "table": [[0.25, math.nan], [0.5, 2.0]]}},
     "c_table c values must be finite, got [(0.25, nan), (0.5, 2.0)]"),
    (None, {"delta": {"value": 0.3}}, "unknown none delta keys: ['value']"),
    (None, {"delta": {"mode": "none", "value": 0.3, "table": [[0.5, 2.0]]}},
     "unknown none delta keys: ['table', 'value']"),
    (None, {"delta": {"mode": "fixed", "value": 0.3, "table": [[0.5, 2.0]]}},
     "unknown fixed delta keys: ['table']"),
    (None, {"delta": {"mode": "schedule", "value": 0.3, "table": [[0.5, 2.0]]}},
     "unknown schedule delta keys: ['value']"),
    # the plan is checked before any trial runs, also when there are none
    (None, {"law": "uniform", "trials": 0},
     "law 'uniform' has no LSI constant; use a delta mode"),
    (None, {"law": "two_point", "trials": 0, "delta": {"mode": "schedule", "table": []}},
     "c_table needs positive finite deltas"),
    (None, {"law": "two_point", "n": [60, 4],
            "delta": {"mode": "schedule", "table": [[0.5, 20.0]]}},
     "no tabulated delta has c(delta) <= 4"),
    # the mollified exponential has no LSI constant for a schedule to give
    (None, {"law": "exponential", "f": "arctan", "n": [10], "eps": [0.5], "trials": 20,
            "seed": 1, "delta": {"mode": "schedule", "table": [[0.5, 3.0]]}},
     "law 'exponential' has no closed-form LSI constant and is not compactly supported"),
    # no LSI constant of the mollified law lies below the bracket's lower bound
    (None, {"law": "two_point", "f": "arctan", "n": [10], "eps": [0.5], "trials": 20,
            "seed": 1, "delta": {"mode": "schedule", "table": [[0.5, 0.01]]}},
     "delta schedule row delta=0.5 has c=0.01, below the bracket's c_lower=0.0206"),
])
def test_rmt_malformed_config_exit_2(tmp_path, capsys, drop, change, message):
    path = Path(rmt_config(tmp_path, **change))
    path.write_text(json.dumps({k: v for k, v in json.loads(path.read_text()).items()
                                if k != drop}))
    assert_input_error(["rmt", "--config", str(path)], tmp_path, capsys, message)


def test_rmt_csv_format(tmp_path, capsys):
    code, out, _ = run_cli(["rmt", "--config", rmt_config(tmp_path), "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,eps,trials,freq,stderr,bound,term1,term3,delta,c_used"
    assert len(lines) == 5
    # the last column is the constant used: a schedule's table value, which
    # need not be the bracket's c_upper at that delta
    scheduled = rmt_config(tmp_path, law="two_point", f="arctan", n=[10], eps=[0.5],
                           trials=20, seed=1, delta={"mode": "schedule", "table": [[0.5, 3.0]]})
    code, out, _ = run_cli(["rmt", "--config", scheduled, "--format", "csv"], capsys)
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.split(",")[-2:] == ["delta", "c_used"] and row.split(",")[-2:] == ["0.5", "3"]


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
    for delta in ("-1.0", "inf"):
        code, _, err = run_cli(["bakry", "--measure", str(p), "--delta", delta], capsys)
        assert code == 2
        assert "delta must be positive and finite" in err


def _atom(point, w=1.0):
    return {"point": point, "w": w}


@pytest.mark.parametrize("cloud, message", [
    ({"atoms": [_atom([0.0, "a"])]}, "atom point coordinate must be a finite number, got 'a'"),
    ({"atoms": [{"point": [0.0, 0.0]}]}, "missing atom keys: ['w']"),
    ({"atoms": [_atom([0.0, 0.0], 0.5), _atom([1.0], 0.5)]},
     "atom point must be a list of 2 entries, got [1.0]"),
    ({"dimension": "x", "atoms": [_atom([0.0, 0.0])]}, "dimension must be an integer, got 'x'"),
    ({"dimension": 2.5, "atoms": [_atom([0.0, 0.0])]}, "dimension must be an integer, got 2.5"),
    ({"dimension": True, "atoms": [_atom([0.0])]}, "dimension must be an integer, got True"),
    ({"dimension": 3, "atoms": [_atom([0.0, 0.0])]},
     "atom point must be a list of 3 entries, got [0.0, 0.0]"),
    ({"center": "x", "atoms": [_atom([0.0, 0.0])]}, "center must be a list of 2 entries, got 'x'"),
    ({"center": [0.0, "0"], "atoms": [_atom([0.0, 0.0])]},
     "center coordinate must be a finite number, got '0'"),
    ({"radius": "1", "atoms": [_atom([0.0, 0.0])]}, "radius must be a finite number, got '1'"),
    ({"atoms": [_atom(5)]}, "atom point must be a list, got 5"),
    ({"atoms": [_atom([])]}, "points need at least one coordinate"),
    ({"dimension": 0, "atoms": [_atom([])]}, "points need at least one coordinate"),
    ({"atoms": [_atom([0.0, 0.0], True)]}, "atom w must be a finite number, got True"),
    ({"atoms": [1]}, "atom must be a mapping, got 1"),
    ({"atoms": {"point": [0.0]}}, "atoms must be a list, got {'point': [0.0]}"),
    ([1], "measure must be a mapping, got [1]"),
    ({"center": [math.nan, 0.0], "atoms": [_atom([0.0, 0.0])]},
     "center must be finite, got [nan, 0.0]"),
    ({"radius": math.inf, "atoms": [_atom([0.0, 0.0])]}, "radius must be finite, got inf"),
])
def test_bakry_malformed_cloud_exit_2(tmp_path, capsys, cloud, message):
    path = tmp_path / "cloud.json"
    path.write_text(json.dumps(cloud))
    assert_input_error(["bakry", "--measure", str(path), "--delta", "1.0"],
                       tmp_path, capsys, message)


@pytest.mark.parametrize("flag,value", [("--grid", "-1"), ("--grid", "0"), ("--random", "-5")])
def test_bakry_bad_probe_count_exit_2(tmp_path, capsys, flag, value):
    p = tmp_path / "cloud.json"
    p.write_text(CLOUD_2D)
    code, _, err = run_cli(["bakry", "--measure", str(p), "--delta", "4.4", flag, value], capsys)
    assert code == 2
    assert "grid >= 1 and random >= 0" in err


def test_bakry_negative_seed_exit_2(tmp_path, capsys):
    p = tmp_path / "cloud.json"
    p.write_text(CLOUD_2D)
    code, out, err = run_cli(["bakry", "--measure", str(p), "--delta", "4.4", "--seed", "-1"],
                             capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "probe seed must be >= 0, got -1" in err


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


@pytest.mark.parametrize("delta, stage", [("1e-154", "analytic floor"),
                                          ("1e-160", "Hessian"), ("1e-300", "Hessian")])
def test_bakry_out_of_float_range_names_the_stage(tmp_path, capsys, delta, stage):
    p = tmp_path / "cloud.json"
    p.write_text(CLOUD_2D)
    out = tmp_path / "cert.json"
    code, stdout, err = run_cli(["bakry", "--measure", str(p), "--delta", delta, "--grid", "3",
                                 "--random", "0"], capsys)
    assert code != 0 and stdout == ""
    assert err.startswith(f"error: {stage} ") and f"at delta={delta}" in err
    assert run_cli(["bakry", "--measure", str(p), "--delta", delta, "--grid", "3",
                    "--random", "0", "--out", str(out)], capsys)[0] == code
    assert not out.exists()


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


def test_asymptotics_takes_the_median_once(tmp_path, capsys, monkeypatch):
    spec = {"atoms": [{"x": -1.0, "w": 0.25}],
            "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.0, 1.5]}]}
    p = tmp_path / "atom_degree1.json"
    p.write_text(json.dumps(spec))
    d = mollify.MollifiedDensity(build_measure(spec), 0.5)
    # the bytes of a median per probe point, which asymptotic_ratios takes when given none
    want = cli._dump_json([mollify.asymptotic_ratios(d, x, "left")
                           for x in (-50.0, -100.0, -200.0)])
    calls = []
    inner = mollify.median

    def counted(density):
        calls.append(density)
        return inner(density)
    monkeypatch.setattr(mollify, "median", counted)
    code, out, _ = run_cli(["asymptotics", "--measure", str(p), "--delta", "0.5",
                            "--xs=-50,-100,-200", "--side", "left"], capsys)
    assert (code, out, len(calls)) == (0, want, 1)


def test_asymptotics_inside_support_exit_2(two_point_file, capsys):
    code, _, _ = run_cli(["asymptotics", "--measure", two_point_file, "--delta", "1.0",
                          "--xs", "0.0", "--side", "left"], capsys)
    assert code == 2


@pytest.mark.parametrize("x", ["-1e160", "-1e200", "-inf", "nan"])
def test_asymptotics_out_of_float_range_exit_2_in_bounded_time(two_point_file, source_env, x):
    # (x - t)^2 overflows at -1e160 and -1e200, so log p(x) is -inf there: a
    # typed error, not an unbounded integral of 1/p out to x
    proc = subprocess.run(
        [sys.executable, "-m", "lsi_lab", "asymptotics", "--measure", two_point_file,
         "--delta", "1", f"--xs={x}", "--side", "left"],
        capture_output=True, text=True, env=source_env, timeout=20)
    assert proc.returncode == 2 and proc.stdout == ""
    value = float(x)
    want = (f"log p(x) = -inf leaves the float range at x={value!r}" if math.isfinite(value)
            else f"probe point x must be finite, got {value!r}")
    assert proc.stderr.startswith(f"error: {want}"), proc.stderr


@pytest.mark.parametrize("a,delta", [(1.0, "1e-308"), (1.0, "1e-310"), (1e160, "1"), (1e300, "1")])
def test_estimate_out_of_float_range_prints_only_its_error_line(tmp_path, source_env, a, delta):
    # log p leaves the float range in the window: numpy's overflow and invalid
    # warnings stay out of stderr, and the bracket's check still raises
    measure_file = tmp_path / "atoms.json"
    measure_file.write_text(json.dumps({"atoms": [{"x": -a, "w": 0.5}, {"x": a, "w": 0.5}]}))
    proc = subprocess.run(
        [sys.executable, "-m", "lsi_lab", "estimate", "--measure", str(measure_file),
         "--delta", delta], capture_output=True, text=True, env=source_env, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr


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


# ---------------------------------------------------------------------------
# frozen output bytes: fixed reports through every subcommand and format
# ---------------------------------------------------------------------------

THIRD = 1.0 / 3.0


def _bg_report(delta):
    return bg.BGReport(delta=delta, D0=THIRD, D1=0.1, x_star_0=-1.25, x_star_1=2.0 / 3.0,
                       c_lower=THIRD / 150.0, c_upper=468.0 * THIRD,
                       tail_limit_estimate=delta / 2.0, search_window=(-7.5, 1e20),
                       quadrature_tol=1e-10, search_tol=1e-10, median=-0.0,
                       d0_from_tail=False, d1_from_tail=True)


def _blowup_scan(measure, deltas):
    return bg.BlowupScan(deltas=tuple(deltas), log_D_totals=(THIRD, 2.0 / 3.0),
                         fitted_slope_vs_inv_delta=0.1, theoretical_exponent=0.5,
                         gap=(-1.0, 1.0), reports=(_bg_report(deltas[0]),))


def _asymptotic_ratios(density, x, side, m=None):
    return mollify.AsymptoticReport(x=x, ratio_lemma1=THIRD, ratio_lemma2=1.0 + 2.0 ** -52,
                                    ratio_lemma3=1e-300, side=side)


def _concentration_experiment(config, workers=1):
    cell = rmt.Cell(n=20, eps=0.3, trials=7, empirical_freq=THIRD, mc_stderr=0.1,
                    guionnet_bound=2.0, term1_bound=0.0, term1_freq=1.0 / 7.0,
                    term2_bound=1e-17, term3_gap=2.0 / 3.0, term3_stderr=0.0,
                    term3_bound=0.5, term3_indicator=1.0, envelope_ok=True,
                    delta_used=0.25, c_used=468.0 * THIRD, f_lip=1.0)
    return rmt.ConcentrationReport("two_point", "arctan", 1.0, 7, 42, (cell,))


def _bakry_emery_certificate(cloud, delta, spec=None):
    return highdim.HessianCertificate(
        delta=delta, R=1.0, n=2, min_eig=-THIRD,
        min_eig_location=(0.0, -2.0 / 3.0), c_candidate=None, threshold_ok=False,
        perturbation_bound=40.0, analytic_floor=-1580.0, probes_evaluated=249)


FROZEN_ARGV = {
    "estimate": ["--measure", "{two_point}", "--delta", "0.5"],
    "scan": ["--measure", "{two_point}", "--deltas", "0.1,0.05"],
    "asymptotics": ["--measure", "{two_point}", "--delta", "1", "--xs=-50,-100",
                    "--side", "left"],
    "rmt": ["--config", "{config}"],
    "bakry": ["--measure", "{cloud}", "--delta", "0.05"],
}

FROZEN_OUTPUT = {
    ("asymptotics", "json"): """\
[
  {
    "ratio_lemma1": 0.3333333333333333,
    "ratio_lemma2": 1.0000000000000002,
    "ratio_lemma3": 1e-300,
    "side": "left",
    "x": -50.0
  },
  {
    "ratio_lemma1": 0.3333333333333333,
    "ratio_lemma2": 1.0000000000000002,
    "ratio_lemma3": 1e-300,
    "side": "left",
    "x": -100.0
  }
]
""",
    ("asymptotics", "csv"): """\
x,ratio_lemma1,ratio_lemma2,ratio_lemma3,side
-50,0.33333333333333331,1.0000000000000002,1e-300,left
-100,0.33333333333333331,1.0000000000000002,1e-300,left
""",
    ("bakry", "json"): """\
{
  "R": 1.0,
  "analytic_floor": -1580.0,
  "c_candidate": null,
  "delta": 0.05,
  "min_eig": -0.3333333333333333,
  "min_eig_location": [
    0.0,
    -0.6666666666666666
  ],
  "n": 2,
  "perturbation_bound": 40.0,
  "probes_evaluated": 249,
  "threshold_ok": false
}
""",
    ("bakry", "csv"): """\
delta,R,n,min_eig,c_candidate,threshold_ok,perturbation_bound,probes_evaluated
0.050000000000000003,1,2,-0.33333333333333331,,False,40,249
""",
    ("estimate", "json"): """\
{
  "D0": 0.3333333333333333,
  "D1": 0.1,
  "c_lower": 0.0022222222222222222,
  "c_upper": 156.0,
  "d0_from_tail": false,
  "d1_from_tail": true,
  "delta": 0.5,
  "median": -0.0,
  "quadrature_tol": 1e-10,
  "search_tol": 1e-10,
  "search_window": [
    -7.5,
    1e+20
  ],
  "tail_limit_estimate": 0.25,
  "x_star_0": -1.25,
  "x_star_1": 0.6666666666666666
}
""",
    ("estimate", "csv"): """\
delta,D0,D1,x_star_0,x_star_1,c_lower,c_upper
0.5,0.33333333333333331,0.10000000000000001,-1.25,0.66666666666666663,0.0022222222222222222,156
""",
    ("rmt", "json"): """\
{
  "cells": [
    {
      "c_used": 156.0,
      "delta_used": 0.25,
      "empirical_freq": 0.3333333333333333,
      "envelope_ok": true,
      "eps": 0.3,
      "f_lip": 1.0,
      "guionnet_bound": 2.0,
      "mc_stderr": 0.1,
      "n": 20,
      "term1_bound": 0.0,
      "term1_freq": 0.14285714285714285,
      "term2_bound": 1e-17,
      "term3_bound": 0.5,
      "term3_gap": 0.6666666666666666,
      "term3_indicator": 1.0,
      "term3_stderr": 0.0,
      "trials": 7
    }
  ],
  "f": "arctan",
  "f_lip": 1.0,
  "law": "two_point",
  "seed": 42,
  "trials": 7
}
""",
    ("rmt", "csv"): """\
n,eps,trials,freq,stderr,bound,term1,term3,delta,c_used
20,0.29999999999999999,7,0.33333333333333331,0.10000000000000001,2,0,0.66666666666666663,0.25,156
""",
    ("scan", "json"): """\
{
  "deltas": [
    0.1,
    0.05
  ],
  "fitted_slope_vs_inv_delta": 0.1,
  "gap": [
    -1.0,
    1.0
  ],
  "log_D_totals": [
    0.3333333333333333,
    0.6666666666666666
  ],
  "reports": [
    {
      "D0": 0.3333333333333333,
      "D1": 0.1,
      "c_lower": 0.0022222222222222222,
      "c_upper": 156.0,
      "d0_from_tail": false,
      "d1_from_tail": true,
      "delta": 0.1,
      "median": -0.0,
      "quadrature_tol": 1e-10,
      "search_tol": 1e-10,
      "search_window": [
        -7.5,
        1e+20
      ],
      "tail_limit_estimate": 0.05,
      "x_star_0": -1.25,
      "x_star_1": 0.6666666666666666
    }
  ],
  "theoretical_exponent": 0.5
}
""",
    ("scan", "csv"): """\
delta,D0,D1,x_star_0,x_star_1,c_lower,c_upper
0.10000000000000001,0.33333333333333331,0.10000000000000001,-1.25,0.66666666666666663,0.0022222222222222222,156
# slope=0.10000000000000001 theoretical_exponent=0.5 gap=-1,1
""",
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", sorted(FROZEN_ARGV))
def test_output_bytes_are_frozen(command, fmt, two_point_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bg, "compute_bg", lambda d: _bg_report(d.delta))
    monkeypatch.setattr(bg, "blowup_scan", _blowup_scan)
    monkeypatch.setattr(mollify, "asymptotic_ratios", _asymptotic_ratios)
    monkeypatch.setattr(rmt, "concentration_experiment", _concentration_experiment)
    monkeypatch.setattr(highdim, "bakry_emery_certificate", _bakry_emery_certificate)
    cloud = tmp_path / "cloud.json"
    cloud.write_text(CLOUD_2D)
    paths = {"two_point": two_point_file, "cloud": str(cloud),
             "config": rmt_config(tmp_path)}
    argv = [command] + [a.format(**paths) for a in FROZEN_ARGV[command]] + ["--format", fmt]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out == FROZEN_OUTPUT[command, fmt]


# ---------------------------------------------------------------------------
# imports
# ---------------------------------------------------------------------------

_BLOCKED_SCIPY_CHECK = """
import json, sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())
from lsi_lab import cli

for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
"""


def test_every_command_runs_with_scipy_blocked(tmp_path, source_env):
    # the package needs numpy alone: erfcx, log Phi and the normal quantile
    # that rmt's Gaussian draws go through are mollify's own
    atoms, pieces, cloud = (tmp_path / f for f in ("atoms.json", "pieces.json", "cloud.json"))
    atoms.write_text(TWO_POINT)
    pieces.write_text(json.dumps({"pieces": [{"lo": -1.0, "hi": -0.5, "coeffs": [1.0]},
                                             {"lo": 0.5, "hi": 1.0, "coeffs": [1.0]}]}))
    cloud.write_text(CLOUD_2D)
    out = ["--out", str(tmp_path / "out")]
    runs = [[command, "--measure", str(measure), *args, *out]
            for measure in (atoms, pieces)
            for command, args in (("estimate", ["--delta", "0.5"]),
                                  ("scan", ["--deltas", "0.5,0.25"]),
                                  ("asymptotics", ["--delta", "0.5", "--xs=-20", "--side", "left"]))]
    runs.append(["bakry", "--measure", str(cloud), "--delta", "1.0", *out])
    fixed = {"mode": "fixed", "value": 0.5}
    for f in ("identity", "arctan"):
        config = tmp_path / f"{f}.json"
        config.write_text(json.dumps({"law": "gaussian", "f": f, "n": [5, 8], "eps": [0.5],
                                      "trials": 6, "seed": 3, "delta": fixed}))
        runs.append(["rmt", "--config", str(config), "--threads", "2", *out])
    proc = subprocess.run([sys.executable, "-c", _BLOCKED_SCIPY_CHECK, json.dumps(runs)],
                          capture_output=True, text=True, env=source_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
