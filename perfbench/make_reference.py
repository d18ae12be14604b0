"""Record the seed-0 reference values the benchmark checks job outputs against.

Run from the repository root:

    python3 perfbench/make_reference.py

It runs every seed-0 job once through ``lsi_lab.cli.main``, checks the
bracket values against the brute-force ``MollifiedOracle`` of
``tests/oracles.py`` (dense grid, cumulative trapezoid) at the oracle
corpus tolerances, D0/D1 relative 1e-4 and x* absolute 1e-3, and only
then writes ``perfbench/reference.json``.  On any mismatch it exits 1
and leaves the old file in place.  The oracle covers atoms and constant
pieces only; the atom plus degree-1 piece of ``atom_linear_estimate``
has no oracle and rests on the record alone.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BRACKET_KEYS = ("D0", "D1", "x_star_0", "x_star_1", "median")

# job name -> (atoms, constant pieces, deltas) for the oracle
ORACLE_CASES = {
    "two_point_estimate": ([(-1.0, 0.5), (1.0, 0.5)], [], [1.0]),
    "two_point_scan": ([(-1.0, 0.5), (1.0, 0.5)], [], [0.1, 0.05, 0.025]),
    "uniform_estimate": ([], [(0.0, 1.0, 1.0)], [1.0]),
}


def record(job, text: str):
    got = json.loads(text)
    if job.subcommand == "estimate":
        return {k: got[k] for k in BRACKET_KEYS}
    if job.subcommand == "scan":
        return {"reports": [{k: r[k] for k in BRACKET_KEYS} for r in got["reports"]],
                "log_D_totals": got["log_D_totals"],
                "fitted_slope_vs_inv_delta": got["fitted_slope_vs_inv_delta"],
                "theoretical_exponent": got["theoretical_exponent"]}
    if job.subcommand == "asymptotics":
        return [[r["ratio_lemma1"], r["ratio_lemma2"], r["ratio_lemma3"]] for r in got]
    if job.subcommand == "rmt":
        return {"cells": got["cells"]}
    return {k: got[k] for k in ("min_eig", "R", "analytic_floor")}


def oracle_check(reference: dict) -> list[str]:
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import MollifiedOracle

    lines = []
    for name, (atoms, pieces, deltas) in ORACLE_CASES.items():
        ref = reference[name]
        reports = ref["reports"] if "reports" in ref else [ref]
        for delta, rep in zip(deltas, reports):
            d0, d1, x0, x1 = MollifiedOracle(atoms, pieces, delta).bg_totals()
            errs = (abs(rep["D0"] / d0 - 1.0), abs(rep["D1"] / d1 - 1.0),
                    abs(rep["x_star_0"] - x0), abs(rep["x_star_1"] - x1))
            ok = errs[0] <= 1e-4 and errs[1] <= 1e-4 and errs[2] <= 1e-3 and errs[3] <= 1e-3
            lines.append(f"{'ok' if ok else 'MISMATCH'} {name} delta={delta}: "
                         f"D0 rel {errs[0]:.2e}, D1 rel {errs[1]:.2e}, "
                         f"x*0 abs {errs[2]:.2e}, x*1 abs {errs[3]:.2e}")
    lines.append("no oracle: atom_linear_estimate (degree-1 piece)")
    return lines


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from lsi_lab import cli

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=str(scratch)))
    reference: dict = {}
    try:
        for workload in workloads.WORKLOADS:
            for job in workloads.jobs(workload, 0, work / workload, reference={}):
                out = work / f"{job.name}.out"
                code = cli.main(job.argv + ["--out", str(out)])
                if code != 0:
                    print(f"{job.name}: exit code {code}", file=sys.stderr)
                    return 1
                reference[job.name] = record(job, out.read_text())
                print(f"recorded {job.name}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = oracle_check(reference)
    print("\n".join(lines))
    if any(line.startswith("MISMATCH") for line in lines):
        print("oracle mismatch: reference.json not written", file=sys.stderr)
        return 1
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
