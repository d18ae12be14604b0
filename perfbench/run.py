"""lsi-lab benchmark: named workloads of real ``lsi`` invocations, in process.

Run from the repository root:

    python3 perfbench/run.py --workload bracket-atoms --seed 0 --seconds 24 --trace 0

Each job calls ``lsi_lab.cli.main(argv)`` with ``--out`` into a scratch
directory, so the CLI layer is on the measured path and the console
script need not be installed; the package is imported from ``src/``.
Load is a closed loop: one process runs one job at a time.

``--trace 0`` sets up ``SETUPS`` times (see ``setup``), first in this
process and then in fresh interpreters, and runs passes over the job list
until the next pass would end after ``--seconds`` (set-ups included),
never fewer than ``MIN_PASSES``.  It reports:

    norm_wall_s  wall time of one pass, in quiet-host seconds          s
    norm_cpu_s   user+sys CPU of one pass, all threads, quiet-host s   s
    peak_rss_mb  peak resident set of this process                     MB
    setup_s      median of the set-ups, in quiet-host seconds          s
    failed_frac  failed jobs / attempted jobs                          1

The host's speed swings by up to 2x in phases longer than a run, so raw
job and set-up times are rescaled by a host-speed probe timed around and
inside each job (see ``speed.py``).  A pass's cost is the sum over jobs of each
job's mean rescaled time across passes.  Raw wall and CPU times of
every job and pass are printed too.

``--trace 1`` sets up once, runs one untraced pass and one traced pass
(neither probed) and reports per-layer numbers from spans recorded
around the calls into each module (see ``tracing.py``), plus the tracing
overhead.  Spans are written to ``.bench_out/spans-<workload>.npz``.

Every job's output is checked (``workloads.py``); a failed check counts
against ``failed_frac`` and never stops the run.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# every job's time is a mean of at least this many samples
MIN_PASSES = 2
SETUPS = 3
ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LSI_LAB_THREADS")

END_TO_END_UNITS = {"norm_wall_s": "s", "norm_cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER_UNITS = {
    "cli.main.calls": "count", "cli.self_s": "s", "cli.bytes_out": "B",
    "measure.build_measure.calls": "count", "measure.self_s": "s",
    "quadrature.log_adaptive_quad.calls": "count", "quadrature.self_s": "s",
    "quadrature.integrand_s": "s", "quadrature.panels": "count",
    "quadrature.nodes": "count", "quadrature.panels_per_call": "1",
    "mollify.self_s": "s",
    "mollify.log_density.calls": "count", "mollify.log_density.points": "count",
    "mollify.log_density.self_s": "s", "mollify.log_density.total_s": "s",
    "mollify.tail_mass.calls": "count", "mollify.tail_mass.self_s": "s",
    "mollify.tail_mass.total_s": "s",
    "mollify.median.self_s": "s",
    "mollify.reciprocal_integral.calls": "count", "mollify.reciprocal_integral.self_s": "s",
    "mollify.log_density_ratio_grad.self_s": "s",
    "bg.compute_bg.calls": "count", "bg.self_s": "s", "bg.blowup_scan.self_s": "s",
    "rmt.self_s": "s",
    "rmt.sample_wigner.calls": "count", "rmt.sample_wigner.self_s": "s",
    "rmt.mollify_ensemble.self_s": "s",
    "rmt.spectrum.calls": "count", "rmt.spectrum.self_s": "s", "rmt.spectrum.work_n3": "count",
    "rmt.empirical_law_integral.self_s": "s", "rmt.concentration_experiment.self_s": "s",
    "rmt.busy_over_wall": "1",
    "highdim.self_s": "s",
    "highdim.hessian_neg_log_p.calls": "count", "highdim.hessian_neg_log_p.self_s": "s",
    "highdim.bakry_emery_certificate.self_s": "s", "highdim.probes": "count",
    "trace.spans": "count", "trace.wall_s": "s", "trace.overhead_frac": "1",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package source, bad arguments)."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def import_package():
    """Import ``lsi_lab`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "lsi_lab" / "__init__.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import lsi_lab
    from lsi_lab import cli

    if Path(lsi_lab.__file__).resolve().parent != (SRC / "lsi_lab").resolve():
        raise BenchError(f"lsi_lab imported from {lsi_lab.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# jobs and passes
# ---------------------------------------------------------------------------

class JobResult(NamedTuple):
    job: workloads.Job
    ok: bool
    wall: float
    cpu: float
    nbytes: int
    reason: str
    # raw seconds -> quiet-host seconds (see speed.py); 1.0 when not probed
    scale: float = 1.0
    # seconds spent in the probes, before, inside and after the job
    probe_s: float = 0.0


def run_job(main, job, outdir: Path, probe: bool = False) -> JobResult:
    """Run one job and check its output.  Never raises: a crash is a failed job.

    With ``probe``, ``wall`` and ``cpu`` leave out the probes' own time and
    ``scale`` is the host-speed factor measured around and inside the job.
    """
    out = outdir / f"{job.name}.out"
    if out.exists():
        out.unlink()
    probes = speed.Probe(inside=job.threads <= 1) if probe else contextlib.nullcontext()
    with probes:
        c0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            code = main(job.argv + ["--out", str(out)])
        except (Exception, SystemExit) as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        c1 = resource.getrusage(resource.RUSAGE_SELF)
        spent = probes.spent_inside if probe else 0.0
    cpu = (c1.ru_utime - c0.ru_utime) + (c1.ru_stime - c0.ru_stime) - spent
    wall -= spent
    scale, probe_s = (probes.scale(), sum(probes.samples)) if probe else (1.0, 0.0)
    if code != 0:
        reason = code if isinstance(code, str) else f"exit code {code}"
        return JobResult(job, False, wall, cpu, 0, reason, scale, probe_s)
    try:
        text = out.read_text()
        problems = job.check(text)
    except (Exception, SystemExit) as exc:
        return JobResult(job, False, wall, cpu, 0,
                         f"check raised {type(exc).__name__}: {exc}", scale, probe_s)
    return JobResult(job, not problems, wall, cpu, len(text), "; ".join(problems[:5]),
                     scale, probe_s)


def run_pass(main, jobs, outdir: Path, log, probe: bool = False) -> dict:
    """One pass over the job list, one job at a time."""
    results = []
    for job in jobs:
        r = run_job(main, job, outdir, probe)
        results.append(r)
        log(f"job {job.name} {'ok' if r.ok else 'FAILED'} {r.wall:.3f} s cpu {r.cpu:.3f} s"
            + (f" scale {r.scale:.3f}" if probe else "")
            + (f" -- {r.reason}" if r.reason else ""))
    return {"wall": sum(r.wall for r in results), "cpu": sum(r.cpu for r in results),
            "results": results, "failed": sum(not r.ok for r in results)}


def pass_estimate(passes: list[dict], field: str) -> float:
    """One pass's cost in quiet-host seconds.

    The sum over jobs of each job's mean rescaled time across passes.  A
    mean, not a median or a quantile, because its expectation does not
    depend on how many passes fit in ``--seconds``, so a faster commit,
    which fits more, is not favoured by the statistic.
    """
    per_job = zip(*(p["results"] for p in passes))
    return sum(statistics.fmean(getattr(r, field) * r.scale for r in samples)
               for samples in per_job)


def setup(workload: str, seed: int, workdir: Path, threads: int):
    """Import the package, write the seed's inputs, run one warm-up job per subcommand.

    Returns (cli.main, jobs, seconds).  The seconds are quiet-host seconds:
    the warm-ups are probed (the import cannot be, as the probe needs
    numpy), and their host-speed factor, weighted by their wall time,
    rescales the whole set-up, probes left out.
    """
    t0 = time.perf_counter()
    cli = import_package()
    jobs = workloads.jobs(workload, seed, workdir / "in", threads=threads)
    warm = []
    for job in workloads.warmup_jobs(workload, workdir / "warm"):
        r = run_job(cli.main, job, workdir / "warm", probe=True)
        if not r.ok:
            raise BenchError(f"warm-up {job.name} failed: {r.reason}")
        warm.append(r)
    raw = time.perf_counter() - t0 - sum(r.probe_s for r in warm)
    scale = sum(r.wall * r.scale for r in warm) / sum(r.wall for r in warm)
    return cli.main, jobs, raw * scale


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Time one set-up in a new interpreter, so the import is cold again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"set-up subprocess failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "lsi_lab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment() -> dict:
    import platform

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        **{k: os.environ.get(k) for k in ENV_VARS},
    }


# ---------------------------------------------------------------------------
# per-layer numbers
# ---------------------------------------------------------------------------

def layer_metrics(rows: dict, spans: list, job_walls: dict) -> dict[str, float]:
    """Per-layer numbers for one traced pass, from ``tracing.by_name`` rows."""
    def get(name, key):
        return rows.get(name, {}).get(key, 0)

    def module_self(prefix, exclude=()):
        return sum(r["self_s"] for n, r in rows.items()
                   if n.startswith(prefix + ".") and n not in exclude)

    INTEGRAND, QUAD = tracing.INTEGRAND, tracing.QUAD
    quad_calls = get(QUAD, "calls")
    rmt_wall = sum(w for sub, w in job_walls.items() if sub == "rmt")
    m = {
        "cli.main.calls": get("cli.main", "calls"),
        "cli.self_s": get("cli.main", "self_s"),
        "measure.build_measure.calls": get("measure.build_measure", "calls"),
        "measure.self_s": module_self("measure"),
        "quadrature.log_adaptive_quad.calls": quad_calls,
        "quadrature.self_s": module_self("quadrature", exclude=(INTEGRAND,)),
        "quadrature.integrand_s": get(INTEGRAND, "self_s"),
        "quadrature.panels": get(INTEGRAND, "calls"),
        "quadrature.nodes": get(INTEGRAND, "count"),
        "quadrature.panels_per_call": get(INTEGRAND, "calls") / quad_calls if quad_calls else 0.0,
        "mollify.self_s": module_self("mollify"),
        "mollify.log_density.points": get("mollify.log_density", "count"),
        "bg.self_s": module_self("bg"),
        "rmt.self_s": module_self("rmt"),
        "rmt.spectrum.work_n3": get("rmt.spectrum", "count"),
        "rmt.busy_over_wall": module_self("rmt") / rmt_wall if rmt_wall else 0.0,
        "highdim.self_s": module_self("highdim"),
        "highdim.probes": get("highdim.bakry_emery_certificate", "count"),
        "trace.spans": len(spans),
    }
    for name in PER_LAYER_UNITS:
        if name in m:
            continue
        base, _, key = name.rpartition(".")
        m[name] = rows[base][key] if base in rows else 0
    return m


def write_spans(spans: list, workload: str) -> Path:
    import numpy as np

    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    names = sorted({s.name for s in spans})
    tids = sorted({s.thread for s in spans})
    ni = {n: i for i, n in enumerate(names)}
    ti = {t: i for i, t in enumerate(tids)}
    path = outdir / f"spans-{workload}.npz"
    np.savez(path,
             id=np.array([s.sid for s in spans], dtype=np.int64),
             parent=np.array([s.parent for s in spans], dtype=np.int64),
             name=np.array([ni[s.name] for s in spans], dtype=np.int16),
             thread=np.array([ti[s.thread] for s in spans], dtype=np.int16),
             start=np.array([s.start for s in spans]),
             end=np.array([s.end for s in spans]),
             count=np.array([s.count for s in spans], dtype=np.int64),
             names=np.array(names))
    return path


def traced_pass(main, jobs, outdir: Path, log):
    """One pass with every traced function rebound; returns (pass, spans, job walls)."""
    tracer = tracing.Tracer()
    bound = tracer.install()
    log("traced bindings: " + " ".join(bound))
    traced_main = tracer.wrap("cli.main", main)
    try:
        p = run_pass(traced_main, jobs, outdir, log)
    finally:
        tracer.uninstall()
    job_walls: dict[str, float] = {}
    for r in p["results"]:
        job_walls[r.job.subcommand] = job_walls.get(r.job.subcommand, 0.0) + r.wall
    return p, tracer.spans, job_walls


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def measure(args, workdir: Path, log) -> dict:
    threads = min(2, nproc())
    deadline = time.perf_counter() + args.seconds
    main, jobs, first_setup = setup(args.workload, args.seed, workdir, threads)
    log("env " + json.dumps(environment(), sort_keys=True))
    log(f"workload {args.workload} seed {args.seed} reflect {workloads.seed_inputs(args.seed).sign < 0}"
        f" jobs {len(jobs)} threads {threads}")
    outdir = workdir / "out"
    outdir.mkdir()
    attempted = failed = 0
    metrics: dict[str, float] = {}
    units: dict[str, str] = {}

    if args.trace == 0:
        setups = [first_setup] + [fresh_setup_seconds(args.workload, args.seed)
                                  for _ in range(SETUPS - 1)]
        passes: list[dict] = []
        while len(passes) < MIN_PASSES or (
                time.perf_counter() + max(p["wall"] for p in passes) < deadline):
            passes.append(run_pass(main, jobs, outdir, log, probe=True))
        log("setup runs, quiet-host s: " + " ".join(f"{s:.4f}" for s in setups))
        log("pass raw wall s: " + " ".join(f"{p['wall']:.4f}" for p in passes))
        log("pass raw cpu s: " + " ".join(f"{p['cpu']:.4f}" for p in passes))
        attempted = len(jobs) * len(passes)
        failed = sum(p["failed"] for p in passes)
        metrics = {
            "norm_wall_s": pass_estimate(passes, "wall"),
            "norm_cpu_s": pass_estimate(passes, "cpu"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END_UNITS
        human = dict(metrics, failed_frac=failed / attempted)
        human_units = dict(units, failed_frac="1")
    else:
        plain = run_pass(main, jobs, outdir, log)
        traced, spans, job_walls = traced_pass(main, jobs, outdir, log)
        attempted = 2 * len(jobs)
        failed = plain["failed"] + traced["failed"]
        rows = tracing.by_name(spans)
        metrics = layer_metrics(rows, spans, job_walls)
        metrics["cli.bytes_out"] = sum(r.nbytes for r in traced["results"])
        metrics["trace.wall_s"] = traced["wall"]
        metrics["trace.overhead_frac"] = (traced["wall"] - plain["wall"]) / plain["wall"]
        log(f"spans written to {write_spans(spans, args.workload)}")
        units = PER_LAYER_UNITS
        human, human_units = metrics, units

    for name, unit in human_units.items():
        log(f"metric {name} {human[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=str(scratch)))
    try:
        if args.setup_only:
            _, _, seconds = setup(args.workload, args.seed, workdir, min(2, nproc()))
            print(json.dumps({"setup_s": seconds}))
            return 0
        result = measure(args, workdir, lambda line: print(line, flush=True))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


class Terminated(BaseException):
    """SIGTERM: unwind, so the scratch directory goes and a set-up child is killed."""


def _terminate(signum, frame):
    raise Terminated


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(143)
