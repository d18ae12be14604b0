"""Tests of the benchmark itself, on tiny job lists.

Run from the repository root:  python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

run.import_package()

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REAL_JOBS = workloads.jobs


def tiny_jobs(workdir: Path, seed: int = 0) -> list:
    """One cheap job per subcommand family: tail quotients, rmt on two threads, bakry."""
    workdir.mkdir(parents=True, exist_ok=True)
    full = REAL_JOBS("bracket-atoms", seed, workdir)
    asym = next(j for j in full if j.subcommand == "asymptotics")
    config = workloads._write(workdir / "rmt.json", {
        "law": "two_point", "f": "arctan", "n": [12], "eps": [0.3, 0.5], "trials": 40,
        "seed": 3, "delta": {"mode": "schedule", "table": workloads.TWO_POINT_C_TABLE}})
    cloud = workloads._write(workdir / "cloud.json", {
        "atoms": [{"point": [1.0, 0.0], "w": 0.5}, {"point": [-1.0, 0.0], "w": 0.5}]})
    return [
        asym,
        workloads.Job("rmt", ["rmt", "--config", config, "--threads", "2"],
                      workloads._json_check(lambda g: workloads.check_rmt_terms(g, 0.25))),
        workloads.Job("bakry", ["bakry", "--measure", cloud, "--delta", "4.4",
                                "--grid", "10", "--random", "400"],
                      workloads._json_check(lambda g: workloads.check_bakry(g, 500, None))),
    ]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "jobs", lambda w, s, d, **kw: tiny_jobs(d, s))
    monkeypatch.setattr(run, "fresh_setup_seconds", lambda w, s: 0.25)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    return tmp_path


def _run(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_every_end_to_end_metric_prints_with_its_unit(tiny, capsys):
    lines, result = _run(capsys, "--workload", "spectra", "--seconds", "0.01", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * run.MIN_PASSES
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
    assert printed == dict(declared, failed_frac="1")


def test_every_per_layer_metric_prints_with_its_unit(tiny, capsys):
    lines, result = _run(capsys, "--workload", "spectra", "--seconds", "0.01", "--trace", "1")
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
    assert printed == declared
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["cli.main.calls"] == 3
    assert m["rmt.spectrum.work_n3"] == m["rmt.spectrum.calls"] * 12 ** 3
    assert m["highdim.probes"] == 500
    assert m["quadrature.panels"] > m["quadrature.log_adaptive_quad.calls"] > 0
    assert (tiny / ".bench_out" / "spans-spectra.npz").is_file()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    def files(seed, name):
        d = tmp_path / name
        workloads.jobs(workload, seed, d)
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    assert files(0, "a") == files(0, "b")
    assert files(5, "c") == files(5, "d")
    assert files(5, "c") != files(0, "a")


def test_wrong_reference_counts_as_failed_without_crashing(tmp_path):
    ref = workloads.load_reference()
    ref["two_point_asymptotics"][0][2] *= 1.01
    jobs = [j for j in workloads.jobs("bracket-atoms", 0, tmp_path, reference=ref)
            if j.subcommand == "asymptotics"]
    jobs.append(workloads.Job("bad", ["estimate", "--measure", str(tmp_path / "none.json"),
                                      "--delta", "1"], lambda text: []))
    jobs.append(workloads.Job("bad_argv", ["estimate", "--no-such-flag"], lambda text: []))
    p = run.run_pass(run.import_package().main, jobs, tmp_path, lambda line: None)
    assert p["failed"] == 3
    reasons = [r.reason for r in p["results"]]
    assert "ratio_lemma3" in reasons[0] and "recorded" in reasons[0]
    assert reasons[1] == "exit code 1"
    assert reasons[2].startswith("raised SystemExit")


def test_reflected_seed_keeps_checks_passing(tmp_path):
    seed = next(s for s in range(1, 50) if workloads.seed_inputs(s).sign < 0)
    jobs = [j for j in workloads.jobs("bracket-atoms", seed, tmp_path)
            if j.subcommand == "asymptotics"]
    assert "right" in jobs[0].argv
    p = run.run_pass(run.import_package().main, jobs, tmp_path, lambda line: None)
    assert p["failed"] == 0, p["results"][0].reason


def test_tracer_rebinds_reimported_names_and_restores_them():
    import lsi_lab.bg as bg
    import lsi_lab.mollify as mollify
    import lsi_lab.rmt as rmt

    originals = {(m, a): getattr(m, a) for m, a in (
        (bg, "tail_mass"), (bg, "log_density"), (bg, "median"), (bg, "reciprocal_integral"),
        (bg, "log_adaptive_quad"), (mollify, "log_adaptive_quad"), (rmt, "spectrum"))}
    tracer = tracing.Tracer()
    bound = tracer.install()
    try:
        for (m, a), fn in originals.items():
            assert f"{m.__name__}.{a}" in bound
            assert getattr(m, a) is not fn and getattr(m, a).__wrapped__ is fn
    finally:
        tracer.uninstall()
    assert all(getattr(m, a) is fn for (m, a), fn in originals.items())


def test_layer_spans_account_for_each_traced_job(tmp_path):
    main = run.import_package().main
    jobs = tiny_jobs(tmp_path / "in")
    p, spans, _ = run.traced_pass(main, jobs, tmp_path, lambda line: None)
    assert p["failed"] == 0
    selfs = tracing.self_times(spans)
    assert min(selfs.values()) >= -1e-9
    roots = [s for s in spans if s.name == "cli.main"]
    assert len(roots) == len(jobs)
    for r, root in zip(p["results"], roots):
        # the root's own self time is untraced code (argument parsing, JSON,
        # anything no layer span covers), so it is left out of the layers' share
        inside = [s for s in spans if root.start <= s.start <= root.end and s.sid != root.sid]
        accounted = sum(selfs[s.sid] for s in inside)
        assert accounted >= 0.9 * r.wall, (r.job.name, accounted, r.wall)
    # worker-thread spans of the --threads 2 job hang under the experiment span
    exp = next(s for s in spans if s.name == "rmt.concentration_experiment")
    workers = {s.thread for s in spans if s.parent == exp.sid}
    assert workers - {exp.thread}, "no span recorded on a worker thread"


def test_covered_merges_overlapping_children():
    assert tracing._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 5.5) == pytest.approx(3.5)


def test_refuses_to_run_without_package_source(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "spectra", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_probe_samples_inside_a_job_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe() as p:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
        spent = p.spent_inside
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # EDGE_REPS probes before and after, and about one per PERIOD_S inside
    assert len(p.samples) >= 2 * speed.EDGE_REPS + 0.3 / speed.PERIOD_S / 2
    assert 0 < spent < 0.3 and p.scale() > 0
    with speed.Probe(inside=False) as q:
        time.sleep(0.2)
    assert len(q.samples) == 2 * speed.EDGE_REPS and q.spent_inside == 0.0


def test_threaded_job_is_probed_only_around_it(tmp_path, monkeypatch):
    made = []

    class Recording(speed.Probe):
        def __init__(self, inside=True):
            super().__init__(inside)
            made.append(self)

    monkeypatch.setattr(speed, "Probe", Recording)
    jobs = tiny_jobs(tmp_path / "in")
    p = run.run_pass(run.import_package().main, jobs, tmp_path, lambda line: None, probe=True)
    assert p["failed"] == 0
    assert [j.threads for j in jobs] == [1, 2, 1]
    assert [q.inside for q in made] == [True, False, True]
    assert len(made[1].samples) == 2 * speed.EDGE_REPS
    assert all(r.scale > 0 for r in p["results"])
