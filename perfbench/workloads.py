"""Benchmark inputs, job lists and per-job correctness checks.

Every input is derived from the benchmark seed with the standard
library's ``random`` and written as JSON, so one seed gives byte-identical
files on any machine.  Seed 0 is the default: it gives the canonical
inputs (the acceptance-test Philox seeds 42 and 7, unreflected bracket
inputs).  Any other seed draws fresh Philox seeds for the ``rmt``
configs, a fresh atom cloud and probe seed for ``bakry``, and a coin that
reflects every bracket input, t -> -t.  Reflection maps the expected
values exactly (D0 and D1 swap, x* and the median change sign, tail
quotients on the left become those on the right) and asks the program
for the same work, so the seed changes inputs without moving timings.
Rmt and bakry jobs are checked against the acceptance criteria on every
seed and against the recorded values on seed 0 only.

A shift t -> t + s or a scale t -> lam t would not keep the work fixed
at this commit: a shift turns the degree-1 piece's density into a
cancelling difference c0 + c1 t (coefficients are absolute), which made
``lsi estimate`` several times slower or kept it from finishing, and
the spline surrogate's grid step min(sqrt(delta), delta) / 10 is not
scale-covariant, so a scale changes the number of log p evaluations.

Tolerances are those the test suite uses for the same quantity:
D0/D1 relative 1e-4 and x* absolute 1e-3 (oracle corpus), tail quotients
within 0.05 of 1 at x=-50 and 0.025 at x=-100 (criterion 2), blow-up
slope >= 0.9 gap^2/8 (criterion 3), envelope / term-1 / term-3 checks
(criteria 7 and 8), min_eig >= analytic floor - 1e-9 (criterion 9).
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

WORKLOADS = ("bracket-atoms", "bracket-pieces", "spectra")

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# c(delta) rows for the scheduled rmt job: D0 + D1 of the two-point law
# from compute_bg at delta = 1, 0.5, 0.25.  A fixed table means the job
# makes no bg call; D0 + D1 (rather than c_upper = 468 (D0 + D1)) keeps
# n = 50 feasible.
TWO_POINT_C_TABLE = [[1.0, 4.027193634296965],
                     [0.5, 3.09836082891257],
                     [0.25, 3.3951885224718805]]


@dataclass
class SeedInputs:
    sign: float
    rmt_seeds: tuple[int, int]
    probe_seed: int
    cloud: list[list[float]]
    cloud_weights: list[float]


def seed_inputs(seed: int) -> SeedInputs:
    if seed == 0:
        rng = random.Random(0)
        sign, rmt_seeds, probe_seed = 1.0, (42, 7), 0
    else:
        rng = random.Random(seed)
        sign = rng.choice((1.0, -1.0))
        rmt_seeds = (rng.randrange(1, 2 ** 31), rng.randrange(1, 2 ** 31))
        probe_seed = rng.randrange(0, 2 ** 31)
    cloud = []
    while len(cloud) < 16:
        p = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        if sum(v * v for v in p) <= 1.0:
            cloud.append(p)
    raw = [rng.uniform(0.5, 1.5) for _ in cloud]
    total = math.fsum(raw)
    return SeedInputs(sign, rmt_seeds, probe_seed, cloud, [w / total for w in raw])


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

@dataclass
class Job:
    """One ``lsi`` invocation; ``check(output) -> list of problems``."""

    name: str
    argv: list[str]
    check: Callable[[str], list[str]] = field(repr=False)
    subcommand: str = ""
    threads: int = 1

    def __post_init__(self):
        self.subcommand = self.argv[0]
        if "--threads" in self.argv:
            self.threads = int(self.argv[self.argv.index("--threads") + 1])


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")
    return str(path)


def _rel(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * abs(want)


def _fmt(v: float) -> str:
    return repr(float(v))


def _atoms(sign: float, atoms) -> list[dict]:
    return [{"x": sign * x, "w": w} for x, w in atoms]


def _piece(sign: float, lo: float, hi: float, coeffs: list[float]) -> dict:
    """The piece sum c_k t^k on [lo, hi], reflected when sign is -1."""
    if sign > 0:
        return {"lo": lo, "hi": hi, "coeffs": coeffs}
    return {"lo": -hi, "hi": -lo, "coeffs": [c * (-1) ** k for k, c in enumerate(coeffs)]}


def _reflected(ref: dict, sign: float) -> dict:
    """Seed-0 bracket values mapped through t -> sign t."""
    if sign > 0:
        return ref
    return {"D0": ref["D1"], "D1": ref["D0"], "x_star_0": -ref["x_star_1"],
            "x_star_1": -ref["x_star_0"], "median": -ref["median"]}


def check_bracket(ref: dict, sign: float, got: dict) -> list[str]:
    """D0/D1 relative 1e-4, x* absolute 1e-3, median, c bracket consistency."""
    problems = []
    want = _reflected(ref, sign)
    for key in ("D0", "D1"):
        if not _rel(got[key], want[key], 1e-4):
            problems.append(f"{key}={got[key]!r} vs {want[key]!r}")
    for key in ("x_star_0", "x_star_1", "median"):
        if not abs(got[key] - want[key]) <= 1e-3:
            problems.append(f"{key}={got[key]!r} vs {want[key]!r}")
    total = got["D0"] + got["D1"]
    if not (_rel(got["c_lower"], total / 150.0, 1e-15)
            and _rel(got["c_upper"], 468.0 * total, 1e-15)):
        problems.append("c bracket inconsistent with D0 + D1")
    return problems


def check_scan(ref: dict, sign: float, got: dict) -> list[str]:
    """Per-delta brackets, log totals abs 1e-4, slope >= 0.9 gap^2/8 and abs 1e-6."""
    problems = []
    for i, (r, g) in enumerate(zip(ref["reports"], got["reports"])):
        problems += [f"reports[{i}] {p}" for p in check_bracket(r, sign, g)]
    if len(got["reports"]) != len(ref["reports"]):
        problems.append("report count differs")
    for want, have in zip(ref["log_D_totals"], got["log_D_totals"]):
        if not abs(have - want) <= 1e-4:
            problems.append(f"log_D_total {have!r} vs {want!r}")
    slope, exponent = got["fitted_slope_vs_inv_delta"], got["theoretical_exponent"]
    if not _rel(exponent, ref["theoretical_exponent"], 1e-12):
        problems.append(f"theoretical exponent {exponent!r}")
    if not slope >= 0.9 * exponent:
        problems.append(f"slope {slope!r} below 0.9 * {exponent!r}")
    if not abs(slope - ref["fitted_slope_vs_inv_delta"]) <= 1e-6:
        problems.append(f"slope {slope!r} vs {ref['fitted_slope_vs_inv_delta']!r}")
    return problems


def check_asymptotics(ref: list, xs: list[float], limits: list[float],
                      got: list) -> list[str]:
    """Tail quotients (reflection-invariant): within `limit` of 1, 1e-6 of the record."""
    problems = []
    if len(got) != len(xs):
        return [f"expected {len(xs)} rows, got {len(got)}"]
    for x, lim, want, row in zip(xs, limits, ref, got):
        for k, w in zip(("ratio_lemma1", "ratio_lemma2", "ratio_lemma3"), want):
            r = row[k]
            if not abs(r - 1.0) <= lim:
                problems.append(f"x={x}: {k}={r!r} not within {lim} of 1")
            if not _rel(r, w, 1e-6):
                problems.append(f"x={x}: {k}={r!r} vs recorded {w!r}")
    return problems


def check_rmt_envelope(got: dict) -> list[str]:
    """Criterion 7: freq <= Guionnet bound + 5 stderr, nonincreasing in n; envelope."""
    problems = []
    by_eps: dict = {}
    for c in got["cells"]:
        if not c["envelope_ok"]:
            problems.append(f"n={c['n']} eps={c['eps']}: envelope violated")
        if not c["empirical_freq"] <= c["guionnet_bound"] + 5.0 * c["mc_stderr"]:
            problems.append(f"n={c['n']} eps={c['eps']}: freq above Guionnet bound")
        by_eps.setdefault(c["eps"], []).append((c["n"], c["empirical_freq"]))
    for eps, rows in by_eps.items():
        freqs = [f for _, f in sorted(rows)]
        if any(b > a for a, b in zip(freqs[:-1], freqs[1:])):
            problems.append(f"eps={eps}: frequency increases with n: {freqs}")
    return problems


def check_rmt_terms(got: dict, delta: float) -> list[str]:
    """Criterion 8: scheduled delta used, term-1 and term-3 inside their bounds."""
    problems = []
    for c in got["cells"]:
        if c["delta_used"] != delta:
            problems.append(f"delta_used {c['delta_used']!r} != {delta!r}")
        t1 = min(1.0, 9.0 * c["f_lip"] ** 2 * c["delta_used"] / c["eps"] ** 2)
        if not c["term1_freq"] <= t1:
            problems.append(f"eps={c['eps']}: term-1 frequency above its bound")
        if not c["term3_gap"] <= c["f_lip"] * math.sqrt(c["delta_used"]) + 3.0 * c["term3_stderr"]:
            problems.append(f"eps={c['eps']}: term-3 gap above its bound")
        if not c["envelope_ok"]:
            problems.append(f"eps={c['eps']}: envelope violated")
    return problems


def check_cells(ref: list, got: dict) -> list[str]:
    """Seed 0 only: every cell equals the recorded one (floats to 1e-9 relative)."""
    problems = []
    if len(ref) != len(got["cells"]):
        return ["cell count differs from the record"]
    for want, have in zip(ref, got["cells"]):
        for k, w in want.items():
            h = have.get(k)
            same = (_rel(h, w, 1e-9) if isinstance(w, float) and isinstance(h, float)
                    else h == w)
            if not same:
                problems.append(f"cell n={want['n']} eps={want['eps']}: {k}={h!r} vs {w!r}")
    return problems


def check_bakry(got: dict, probes: int, ref: dict | None) -> list[str]:
    """Criterion 9 above threshold, probe count, and the seed-0 record."""
    problems = []
    if not got["threshold_ok"]:
        problems.append("delta not above 2 R^2 n")
    if not got["min_eig"] >= got["analytic_floor"] - 1e-9:
        problems.append(f"min_eig {got['min_eig']!r} below floor {got['analytic_floor']!r}")
    if got["probes_evaluated"] != probes:
        problems.append(f"probes_evaluated {got['probes_evaluated']} != {probes}")
    if got["c_candidate"] is None or not _rel(got["c_candidate"], 1.0 / got["min_eig"], 1e-12):
        problems.append("c_candidate is not 1/min_eig")
    if ref is not None:
        for k in ("min_eig", "R", "analytic_floor"):
            if not _rel(got[k], ref[k], 1e-9):
                problems.append(f"{k}={got[k]!r} vs recorded {ref[k]!r}")
    return problems


def _json_check(fn: Callable[[dict], list[str]]) -> Callable[[str], list[str]]:
    def check(text: str) -> list[str]:
        return fn(json.loads(text))
    return check


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def jobs(workload: str, seed: int, workdir: Path, reference: dict | None = None,
         threads: int = 2) -> list[Job]:
    """Write the seed's input files into ``workdir``; return the job list.

    ``reference`` maps job name to its seed-0 values (default: the
    recorded ``reference.json``).  ``threads`` is the worker count of the
    threaded rmt job, at most min(2, nproc).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    ref = load_reference() if reference is None else reference
    inp = seed_inputs(seed)
    sign = inp.sign
    side = "left" if sign > 0 else "right"
    workdir.mkdir(parents=True, exist_ok=True)
    out: list[Job] = []

    def estimate(name, spec, delta):
        path = _write(workdir / f"{name}.json", spec)
        out.append(Job(name, ["estimate", "--measure", path, "--delta", _fmt(delta)],
                       _json_check(lambda g: check_bracket(ref[name], sign, g))))
        return path

    def asymptotics(name, path, delta, xs, limits):
        mapped = ",".join(_fmt(sign * x) for x in xs)
        out.append(Job(name, ["asymptotics", "--measure", path, "--delta",
                              _fmt(delta), f"--xs={mapped}", "--side", side],
                       _json_check(lambda g: check_asymptotics(ref[name], xs, limits, g))))

    if workload == "bracket-atoms":
        two_point = _atoms(sign, [(-1.0, 0.5), (1.0, 0.5)])
        path = estimate("two_point_estimate", {"atoms": two_point}, 1.0)
        deltas = ",".join(_fmt(d) for d in (0.1, 0.05, 0.025))
        out.append(Job("two_point_scan", ["scan", "--measure", path, "--deltas", deltas,
                                          "--format", "json"],
                       _json_check(lambda g: check_scan(ref["two_point_scan"], sign, g))))
        asymptotics("two_point_asymptotics", path, 1.0, [-50.0, -100.0], [0.05, 0.025])
    elif workload == "bracket-pieces":
        path = estimate("uniform_estimate",
                        {"pieces": [_piece(sign, 0.0, 1.0, [1.0])]}, 1.0)
        estimate("atom_linear_estimate",
                 {"atoms": _atoms(sign, [(-1.0, 0.25)]),
                  "pieces": [_piece(sign, 0.0, 1.0, [0.0, 1.5])]}, 0.5)
        asymptotics("uniform_asymptotics", path, 1.0, [-50.0], [0.05])
    else:
        gauss = _write(workdir / "gaussian_rmt.json", {
            "law": "gaussian", "f": "identity", "n": [20, 50, 100], "eps": [0.3, 0.5],
            "trials": 2000, "seed": inp.rmt_seeds[0], "delta": {"mode": "none"}})
        scheduled = _write(workdir / "two_point_rmt.json", {
            "law": "two_point", "f": "arctan", "n": [50], "eps": [0.3, 0.5],
            "trials": 500, "seed": inp.rmt_seeds[1],
            "delta": {"mode": "schedule", "table": TWO_POINT_C_TABLE}})
        radius = max(math.dist(p, _center(inp)) for p in inp.cloud)
        delta = 1.25 * 2.0 * radius * radius * 3
        cloud = _write(workdir / "cloud.json", {
            "dimension": 3,
            "atoms": [{"point": p, "w": w} for p, w in zip(inp.cloud, inp.cloud_weights)]})

        def gauss_check(g):
            problems = check_rmt_envelope(g)
            if any(c["c_used"] != 1.0 for c in g["cells"]):
                problems.append("c_used != 1 for the standard Gaussian law")
            if seed == 0:
                problems += check_cells(ref["gaussian_rmt"]["cells"], g)
            return problems

        def scheduled_check(g):
            problems = check_rmt_terms(g, 0.25)
            if seed == 0:
                problems += check_cells(ref["two_point_rmt"]["cells"], g)
            return problems

        out.append(Job("gaussian_rmt", ["rmt", "--config", gauss, "--threads", "1"],
                       _json_check(gauss_check)))
        out.append(Job("two_point_rmt", ["rmt", "--config", scheduled,
                                         "--threads", str(threads)],
                       _json_check(scheduled_check)))
        out.append(Job("cloud_bakry", ["bakry", "--measure", cloud, "--delta", _fmt(delta),
                                       "--grid", "15", "--random", "1000",
                                       "--seed", str(inp.probe_seed)],
                       _json_check(lambda g: check_bakry(
                           g, 15 ** 3 + 1000, ref["cloud_bakry"] if seed == 0 else None))))
    return out


def _center(inp: SeedInputs) -> list[float]:
    return [math.fsum(w * p[i] for p, w in zip(inp.cloud, inp.cloud_weights))
            for i in range(3)]


def warmup_jobs(workload: str, workdir: Path) -> list[Job]:
    """One small job per subcommand the workload uses (checked for exit code only)."""
    workdir.mkdir(parents=True, exist_ok=True)
    ok = lambda text: []
    point = _write(workdir / "warm_point.json", {"atoms": [{"x": 0.0, "w": 1.0}]})
    if workload == "bracket-atoms":
        two_point = _write(workdir / "warm_two_point.json",
                           {"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]})
        # no separate scan warm-up: a scan is a loop of the estimate's
        # compute_bg, and its smallest valid call costs two brackets
        return [Job("warm_estimate", ["estimate", "--measure", point, "--delta", "1"], ok),
                Job("warm_asymptotics", ["asymptotics", "--measure", two_point, "--delta",
                                         "1", "--xs=-50", "--side", "left"], ok)]
    if workload == "bracket-pieces":
        uniform = _write(workdir / "warm_uniform.json",
                         {"pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [1.0]}]})
        return [Job("warm_estimate", ["estimate", "--measure", point, "--delta", "1"], ok),
                Job("warm_asymptotics", ["asymptotics", "--measure", uniform, "--delta",
                                         "1", "--xs=-50", "--side", "left"], ok)]
    config = _write(workdir / "warm_rmt.json", {
        "law": "gaussian", "f": "identity", "n": [10], "eps": [0.5],
        "trials": 20, "seed": 1})
    cloud = _write(workdir / "warm_cloud.json",
                   {"atoms": [{"point": [1.0, 0.0, 0.0], "w": 0.5},
                              {"point": [-1.0, 0.0, 0.0], "w": 0.5}]})
    return [Job("warm_rmt", ["rmt", "--config", config, "--threads", "1"], ok),
            Job("warm_bakry", ["bakry", "--measure", cloud, "--delta", "8",
                               "--grid", "3", "--random", "10"], ok)]
