"""Spans recorded around calls into ``lsi_lab``, from outside the package.

The tracer rebinds each traced public function at every ``lsi_lab``
module attribute that holds it.  Python resolves a global name at call
time, so a function re-imported by name elsewhere (``bg.tail_mass``,
``mollify.log_adaptive_quad``, ``cli.build_measure``, ...) is only seen
through that module's own attribute; scanning every loaded ``lsi_lab``
module for the original object catches all of them.

Each call becomes one ``Span``.  Every thread keeps its own span stack; a span opened on a
thread with an empty stack (a ``--threads`` worker) takes as parent the
innermost span open on the thread that installed the tracer.  Spans are
held in memory until the run ends.  A span's self time is its duration
minus the part of its interval that its children cover, so children
running in parallel on worker threads are not counted twice.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
from array import array
from time import perf_counter
from collections import defaultdict
from typing import NamedTuple

# (module, function, per-call count) for every traced public function.
# The count is work done inside the span: points evaluated, Sigma n^3 of
# eigen-decompositions, probes.
TRACED = (
    ("measure", "build_measure", None),
    ("mollify", "log_density", lambda a, k, r: _size(a[1] if len(a) > 1 else k["x"])),
    ("mollify", "tail_mass", None),
    ("mollify", "median", None),
    ("mollify", "reciprocal_integral", None),
    ("mollify", "log_density_ratio_grad", None),
    ("mollify", "asymptotic_ratios", None),
    ("bg", "compute_bg", None),
    ("bg", "blowup_scan", None),
    ("rmt", "concentration_experiment", None),
    ("rmt", "sample_wigner", None),
    ("rmt", "mollify_ensemble", None),
    ("rmt", "spectrum", lambda a, k, r: (a[0] if a else k["a"]).n ** 3),
    ("rmt", "empirical_law_integral", None),
    ("highdim", "bakry_emery_certificate", lambda a, k, r: r.probes_evaluated),
    ("highdim", "hessian_neg_log_p", None),
)

QUAD = "quadrature.log_adaptive_quad"
INTEGRAND = "quadrature.integrand"


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    thread: int
    start: float
    end: float
    count: int


def _size(x) -> int:
    try:
        return len(x)
    except TypeError:
        return 1


class _ThreadLog:
    """One thread's open-span stack and its finished spans, column-wise.

    Columns are ``array`` objects: appending to them allocates nothing the
    garbage collector tracks, so a long traced run does not slow down as
    spans accumulate.
    """

    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[int] = []
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("h")
        self.t0 = array("d")
        self.t1 = array("d")
        self.count = array("q")


class Tracer:
    """Collects spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._home: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog(threading.get_ident())
            self._logs.append(log)
            return log

    def _index(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, name: str, fn, count=None):
        """``fn`` with each call recorded as a span named ``name``.

        ``count(args, kwargs, result)`` gives the span's work count.
        """
        return functools.wraps(fn)(self._traced(self._index(name), fn, count))

    def _traced(self, idx: int, fn, count):
        ids, home, thread_log = self._ids, self._home, self._log

        def traced(*args, **kwargs):
            log = thread_log()
            stack = log.stack
            parent = stack[-1] if stack else (home[-1] if home else 0)
            sid = next(ids)
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                log.sid.append(sid)
                log.parent.append(parent)
                log.name.append(idx)
                log.t0.append(t0)
                log.t1.append(t1)
                log.count.append(count(args, kwargs, result)
                                 if count is not None and result is not None else 0)
        return traced

    def wrap_quadrature(self, fn):
        """log_adaptive_quad, with its integrand callback traced as child spans."""
        idx = self._index(INTEGRAND)
        nodes = lambda a, k, r: _size(a[0])
        quad = self.wrap(QUAD, fn)

        @functools.wraps(fn)
        def traced(log_f, *args, **kwargs):
            return quad(self._traced(idx, log_f, nodes), *args, **kwargs)
        return traced

    @property
    def spans(self) -> list[Span]:
        """Every finished span, by start time."""
        out = []
        for log in self._logs:
            out.extend(map(Span._make, zip(
                log.sid, log.parent, (self.names[i] for i in log.name),
                itertools.repeat(log.tid), log.t0, log.t1, log.count)))
        out.sort(key=lambda s: s.start)
        return out

    # -- installation -----------------------------------------------------

    def install(self) -> list[str]:
        """Rebind every traced function in every loaded lsi_lab module.

        Returns the ``module.attribute`` bindings that were replaced.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._home[:] = []
        self._log().stack = self._home
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lsi_lab" or n.startswith("lsi_lab."))]
        targets = [self.wrap(f"{mod}.{fn}", getattr(sys.modules[f"lsi_lab.{mod}"], fn), count)
                   for mod, fn, count in TRACED]
        targets.append(self.wrap_quadrature(sys.modules["lsi_lab.quadrature"].log_adaptive_quad))
        bound = []
        for wrapper in targets:
            original = wrapper.__wrapped__
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
                        bound.append(f"{module.__name__}.{attr}")
        return bound

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# reduction of spans to per-layer numbers
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    kids: dict[int, list] = defaultdict(list)
    for s in spans:
        kids[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        ch = kids.get(s.sid)
        out[s.sid] = (s.end - s.start) - (_covered(ch, s.start, s.end) if ch else 0.0)
    return out


def by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time, summed count, summed duration."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "count": 0, "total_s": 0.0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["self_s"] += selfs[s.sid]
        row["count"] += s.count
        row["total_s"] += s.end - s.start
    return dict(out)
