"""Command line front end.

One binary, five subcommands:

    lsi estimate    --measure m.json --delta 1.0        bracket for one measure
    lsi scan        --measure m.json --deltas 0.1,0.05  blow-up scan over deltas
    lsi rmt         --config c.json [--threads N]       concentration experiment
    lsi bakry       --measure cloud.json --delta 4.4    curvature certificate
    lsi asymptotics --measure m.json --delta 1 --xs -50,-100  tail quotients

Exit codes: 0 success, 1 I/O failure, 2 validation failure.  Output files
are written to a temporary sibling and renamed, so a nonzero exit never
leaves a partial file.  Identical invocations produce byte-identical
output.  `rmt --threads N` splits each batch's chunks of trials across N
threads; it never changes the bytes, only wall time.  Those threads are
the only parallelism: each eigen-decomposition runs on one BLAS thread.

Every report is a dataclass, written to JSON by field name with nested
reports included (``_dump_json``), and to CSV as the fields named in one
column tuple per subcommand, in one row format (``_csv``).  Only rmt's
CSV header labels its columns with names of their own.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

from . import bg, highdim, mollify, rmt
from .errors import ValidationError
from .measure import build_measure

def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _csv(names, reports, header=None) -> str:
    """A header (``names`` joined, unless given), then the fields ``names`` of each
    report: empty for None, 17 significant digits for a float, else its text."""
    def cell(v):
        return "" if v is None else _fmt(v) if isinstance(v, float) else str(v)
    rows = [",".join(cell(getattr(r, k)) for k in names) for r in reports]
    return "\n".join([header or ",".join(names)] + rows) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lsi")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="json"):
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=fmt_default)

    p = sub.add_parser("estimate", help="log-Sobolev bracket for a mollified measure")
    p.add_argument("--measure", required=True)
    p.add_argument("--delta", type=float, required=True)
    common(p)

    p = sub.add_parser("scan", help="blow-up scan over a decreasing delta grid")
    p.add_argument("--measure", required=True)
    p.add_argument("--deltas", required=True, help="comma separated, decreasing")
    common(p, fmt_default="csv")

    p = sub.add_parser("rmt", help="random-matrix concentration experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int,
                   help="threads that split each batch's chunks of trials, the only"
                        " parallelism (BLAS runs on one thread; never changes the"
                        " output); default $LSI_LAB_THREADS, else the usable CPU count")
    common(p)

    p = sub.add_parser("bakry", help="probe-based curvature certificate")
    p.add_argument("--measure", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--grid", type=int, default=7, help="grid points per axis")
    p.add_argument("--random", type=int, default=200, help="random probe count")
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("asymptotics", help="tail quotients on an x grid")
    p.add_argument("--measure", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--xs", required=True,
                   help="comma separated probe points (use --xs=-50,-100 for negatives)")
    p.add_argument("--side", choices=("left", "right"), required=True)
    common(p)

    return parser


def _read_json(path: str):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse float list {text!r}") from exc


def _dump_json(obj) -> str:
    """Reports (dataclasses, nested ones too) are written by field name."""
    return json.dumps(obj, sort_keys=True, indent=2, default=dataclasses.asdict) + "\n"


# the CSV columns of each subcommand, as report field names
_BG_COLUMNS = ("delta", "D0", "D1", "x_star_0", "x_star_1", "c_lower", "c_upper")
_RMT_COLUMNS = ("n", "eps", "trials", "empirical_freq", "mc_stderr", "guionnet_bound",
                "term1_bound", "term3_gap", "delta_used", "c_used")
_RMT_HEADER = "n,eps,trials,freq,stderr,bound,term1,term3,delta,c_used"
_BAKRY_COLUMNS = ("delta", "R", "n", "min_eig", "c_candidate", "threshold_ok",
                  "perturbation_bound", "probes_evaluated")
_ASYMPTOTICS_COLUMNS = ("x", "ratio_lemma1", "ratio_lemma2", "ratio_lemma3", "side")


def _cmd_estimate(args) -> str:
    measure = build_measure(_read_json(args.measure))
    density = mollify.MollifiedDensity(measure, args.delta)
    report = bg.compute_bg(density)
    if args.format == "csv":
        return _csv(_BG_COLUMNS, [report])
    return _dump_json(report)


def _cmd_scan(args) -> str:
    measure = build_measure(_read_json(args.measure))
    deltas = _parse_floats(args.deltas)
    if len(deltas) < 2:
        raise ValidationError("need >= 2 deltas for slope")
    scan = bg.blowup_scan(measure, deltas)
    if args.format == "json":
        return _dump_json(scan)
    return _csv(_BG_COLUMNS, scan.reports) + (
        f"# slope={_fmt(scan.fitted_slope_vs_inv_delta)}"
        f" theoretical_exponent={_fmt(scan.theoretical_exponent)}"
        f" gap={_fmt(scan.gap[0])},{_fmt(scan.gap[1])}\n"
    )


def _cmd_rmt(args) -> str:
    threads = args.threads
    if threads is None:
        env = os.environ.get("LSI_LAB_THREADS")
        if env is None:
            threads = rmt.usable_cpus()
        else:
            try:
                threads = int(env)
            except ValueError:
                raise ValidationError(f"LSI_LAB_THREADS must be an integer, got {env!r}") from None
    if threads < 1:
        raise ValidationError("--threads must be >= 1")
    config = rmt.config_from_dict(_read_json(args.config))
    report = rmt.concentration_experiment(config, workers=threads)
    if args.format == "csv":
        return _csv(_RMT_COLUMNS, report.cells, header=_RMT_HEADER)
    return _dump_json(report)


def _cmd_bakry(args) -> str:
    cloud = highdim.measure_nd_from_dict(_read_json(args.measure))
    spec = highdim.ProbeSpec(grid_points_per_axis=args.grid,
                             random_points=args.random, seed=args.seed)
    cert = highdim.bakry_emery_certificate(cloud, args.delta, spec)
    if args.format == "csv":
        return _csv(_BAKRY_COLUMNS, [cert])
    return _dump_json(cert)


def _cmd_asymptotics(args) -> str:
    measure = build_measure(_read_json(args.measure))
    density = mollify.MollifiedDensity(measure, args.delta)
    xs = _parse_floats(args.xs)
    if not xs:
        raise ValidationError("need at least one probe point")
    m = mollify.median(density)  # once per command, not once per probe point
    reports = [mollify.asymptotic_ratios(density, x, args.side, m) for x in xs]
    if args.format == "csv":
        return _csv(_ASYMPTOTICS_COLUMNS, reports)
    return _dump_json(reports)


_COMMANDS = {
    "estimate": _cmd_estimate,
    "scan": _cmd_scan,
    "rmt": _cmd_rmt,
    "bakry": _cmd_bakry,
    "asymptotics": _cmd_asymptotics,
}


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    target = Path(out)
    fd, tmp = tempfile.mkstemp(dir=str(target.parent) or ".",
                               prefix=target.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# built once: five subparsers cost about as much as a short job's arithmetic
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        text = _COMMANDS[args.command](args)
        _emit(text, args.out)
    except (ValidationError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
