"""Adaptive Gauss-Kronrod 7/15 quadrature, in linear and in log space.

Each panel is evaluated once, at the 15 Kronrod nodes, which contain the
7 Gauss-Legendre nodes.  The same 15 values give two estimates, the
15-point Kronrod value (K15, exact for polynomials of degree 22) and the
7-point Gauss value (G7, degree 13), and the panel is accepted with its
K15 value when the two agree; otherwise it is bisected (QUADPACK's qk15
pair, Piessens et al., *QUADPACK*, Springer 1983).  The disagreement
estimates the G7 error, which for smooth integrands is far larger than
K15's, so it is a conservative check on the value kept.

There is one log-space engine, ``log_cell_integrals``: it computes
``log(integral of exp(log_f))`` over many cells at once, with each
panel's maximum factored out before exponentiating, so integrands whose
logarithm spans thousands of units (reciprocal mollified densities grow
like exp((x-a)^2 / 2 delta)) never overflow.  Each refinement level is
one ``log_f`` call over the live panels of every cell; the integrand
bounds its own temporaries (``mollify`` evaluates in fixed blocks).
``log_adaptive_quad`` is its one-cell case and ``log_integrals_to`` its
cumulative form, all at ``LOG_REL_TOL``.  ``adaptive_quad`` integrates
signed integrands in linear space with the same panel rule.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# QUADPACK's qk15 tables: the positive Kronrod nodes, decreasing, then the
# K15 weights and the G7 weights of the Gauss nodes among them, centre last
_KRONROD_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245])
_K15_HALF = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_G7_HALF = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
# the 15 nodes on [-1, 1] in increasing order; the 7 Gauss nodes are the
# odd-indexed ones
_K15_NODES = np.concatenate([-_KRONROD_HALF, [0.0], _KRONROD_HALF[::-1]])
_K15_WEIGHTS = np.concatenate([_K15_HALF, _K15_HALF[-2::-1]])
_G7_WEIGHTS = np.concatenate([_G7_HALF, _G7_HALF[-2::-1]])

NEG_INF = float("-inf")

LOG_REL_TOL = 1e-10  # K15-G7 agreement (in log) of a log-space panel; every caller's tolerance

# panels this far (in log) below the largest one of their integral cannot
# move the total at double precision; they are accepted without refinement
_FLOOR_GAP = 46.0
# bisections after which a panel is accepted as it stands
_MAX_DEPTH = 60
# relative agreement at which adaptive_quad accepts a panel
_LINEAR_REL_TOL = 1e-12


def _k15_g7(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """K15 and G7 sums over the last axis of node values on [-1, 1]."""
    return vals @ _K15_WEIGHTS, vals[..., 1::2] @ _G7_WEIGHTS


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """Integral of ``f`` over ``[lo, hi]`` by adaptive panel bisection.

    ``f`` must accept a 1-D ndarray of abscissae.  A panel is accepted
    with its K15 value when K15 and G7 agree to ``_LINEAR_REL_TOL``
    relative, or after ``_MAX_DEPTH`` bisections.
    """
    if lo == hi:
        return 0.0
    if lo > hi:
        return -adaptive_quad(f, hi, lo)
    total = 0.0
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        kronrod, gauss = _k15_g7(np.asarray(f(mid + half * _K15_NODES), dtype=float))
        if (depth >= _MAX_DEPTH
                or abs(kronrod - gauss) <= _LINEAR_REL_TOL * max(abs(kronrod), 1e-300)):
            total += half * float(kronrod)
        else:
            stack.append((a, mid, depth + 1))
            stack.append((mid, b, depth + 1))
    return total


def log_adaptive_quad(
    log_f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    seed_points: Sequence[float] | None = None,
) -> float:
    """``log(integral of exp(log_f))`` over ``[lo, hi]``, never overflowing.

    The one-cell case of ``log_cell_integrals``.  A log-space discrepancy
    of ``LOG_REL_TOL`` between a panel's K15 and G7 estimates is (to first
    order) a relative error of ``LOG_REL_TOL`` on the G7 value, and K15 is
    the more accurate of the two.  ``seed_points`` force an initial
    partition; they guard against the classic
    adaptive-quadrature failure where a spike narrower than the first
    panel's node spacing goes unseen.
    """
    if lo > hi:
        raise ValueError("log_adaptive_quad requires lo <= hi")
    return float(log_cell_integrals(log_f, [lo, hi], seed_points)[0])


def _log_panels(log_f: Callable[[np.ndarray], np.ndarray], a: np.ndarray,
                b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log of each panel's K15 and G7 estimates from one ``log_f`` call at the
    Kronrod nodes, maximum factored out; ``+inf`` for a panel with a node
    where ``log_f`` is ``+inf``."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _K15_NODES
    vals = np.asarray(log_f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    m = vals.max(axis=1)
    live = (m > NEG_INF) & (half > 0.0)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        kronrod, gauss = _k15_g7(np.exp(vals - shift[:, None]))
        kronrod = shift + np.log(half * kronrod)
        gauss = shift + np.log(half * gauss)
    return np.where(live, kronrod, NEG_INF), np.where(live, gauss, NEG_INF)


def log_cell_integrals(
    log_f: Callable[[np.ndarray], np.ndarray],
    edges: Sequence[float],
    seed_points: Sequence[float] | None = None,
) -> np.ndarray:
    """``log(integral of exp(log_f))`` over every cell ``[edges[i], edges[i+1]]``.

    All live panels of a refinement level, over every cell, are evaluated
    with one ``log_f`` call at their Kronrod nodes.  A panel is accepted
    with its K15 value when its K15 and G7 estimates agree to ``LOG_REL_TOL``
    (in log), and otherwise bisected, at most ``_MAX_DEPTH`` times; a panel
    more than ``_FLOOR_GAP`` below the largest of its cell is accepted as it
    stands.  Cells containing a ``seed_point`` are split there first.  A
    panel whose width is within a few ulps of its midpoint is accepted as it
    stands, so the work stays bounded far from the origin, where float
    spacing limits what bisection can resolve.  ``edges`` must be
    nondecreasing; an empty cell gives ``-inf``, and a cell with a node
    where ``log_f`` is ``+inf`` gives ``+inf``.
    """
    edges = np.asarray(edges, dtype=float)
    seeds = np.asarray(seed_points if seed_points is not None else [], dtype=float)
    n = len(edges) - 1
    cuts = np.unique(np.concatenate([edges, seeds[(seeds > edges[0]) & (seeds < edges[-1])]]))
    if cuts.size == 1:  # every cell is empty
        return np.full(n, NEG_INF)
    a, b = cuts[:-1], cuts[1:]
    cell = np.minimum(np.searchsorted(edges, a, side="right") - 1, n - 1)
    best = np.full(n, NEG_INF)
    done_cell, done_val = [], []
    depth = 0
    while a.size:
        kronrod, gauss = _log_panels(log_f, a, b)
        np.maximum.at(best, cell, kronrod)
        mid = 0.5 * (a + b)
        # a panel a few ulps wide cannot be bisected any further, and one far
        # below the best of its cell cannot move the total (a +inf panel
        # makes its cell +inf, and passes this test too)
        with np.errstate(invalid="ignore"):
            done = ((abs(kronrod - gauss) <= LOG_REL_TOL) | (depth >= _MAX_DEPTH)
                    | (b - a <= 4.0 * np.spacing(np.abs(mid)))
                    | (kronrod <= best[cell] - _FLOOR_GAP))
        done_cell.append(cell[done])
        done_val.append(kronrod[done])
        split = ~done
        a = np.concatenate([a[split], mid[split]])
        b = np.concatenate([mid[split], b[split]])
        cell = np.concatenate([cell[split], cell[split]])
        depth += 1
    cells = np.concatenate(done_cell)
    vals = np.concatenate(done_val)
    top = np.full(n, NEG_INF)
    np.maximum.at(top, cells, vals)
    finite = np.isfinite(top)
    shift = np.where(finite, top, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        total = shift + np.log(np.bincount(cells, weights=np.exp(vals - shift[cells]),
                                           minlength=n))
    return np.where(finite, total, top)


def log_integrals_to(log_f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray, end: float,
                     seed_points: Sequence[float] | None = None) -> np.ndarray:
    """``log(integral of exp(log_f))`` from each point of the 1-D ``xs``, all at
    or left of ``end``, to ``end``: one ``log_cell_integrals`` call over the
    cells between the sorted points, summed back toward ``end``."""
    order = np.argsort(xs, kind="stable")
    cells = log_cell_integrals(log_f, np.append(xs[order], end), seed_points)
    out = np.empty_like(xs)
    out[order] = np.logaddexp.accumulate(cells[::-1])[::-1]
    return out


def geometric_seeds(start: float, scale: float, stop: float) -> list[float]:
    """Cuts start +- scale 2^k, k = 0, 1, ..., toward ``stop``, steps shorter
    than ``|stop - start|``, to pre-split an integral whose mass sits in a
    boundary layer of width ``scale`` at ``start`` (1/p far from the
    support, a decaying tail, ...); a cut rounded onto an end is a no-op."""
    sign, pts, step = (1.0 if stop > start else -1.0), [], scale
    while 0.0 < step < abs(stop - start):
        pts.append(start + sign * step)
        step *= 2.0
    return pts
