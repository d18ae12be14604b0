"""Adaptive Gauss-Legendre quadrature, in linear and in log space.

Panels use a 15-point Gauss-Legendre rule and are bisected until the
whole-panel estimate agrees with the sum of its two half-panel estimates
(a Richardson-style error check; the rule's order is high enough that
agreement of the two levels certifies convergence for analytic
integrands).

There is one log-space engine, ``log_cell_integrals``: it computes
``log(integral of exp(log_f))`` over many cells at once, with each
panel's maximum factored out before exponentiating, so integrands whose
logarithm spans thousands of units (reciprocal mollified densities grow
like exp((x-a)^2 / 2 delta)) never overflow.  ``log_adaptive_quad`` is
its one-cell case.  ``adaptive_quad`` integrates signed integrands in
linear space.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

NEG_INF = float("-inf")

# panels this far (in log) below the largest one of their integral cannot
# move the total at double precision; they are accepted without refinement
_FLOOR_GAP = 46.0
# bisections after which a panel is accepted as it stands
_MAX_DEPTH = 60
# cells per batch in log_cell_integrals
_CHUNK_CELLS = 256
# relative agreement at which adaptive_quad accepts a panel
_LINEAR_REL_TOL = 1e-12


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(f(mid + half * _GL_NODES), dtype=float)
    return half * float(np.dot(_GL_WEIGHTS, vals))


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """Integral of ``f`` over ``[lo, hi]`` by adaptive panel bisection.

    ``f`` must accept a 1-D ndarray of abscissae.
    """
    if lo == hi:
        return 0.0
    if lo > hi:
        return -adaptive_quad(f, hi, lo)
    total = 0.0
    stack = [(lo, hi, _panel(f, lo, hi), 0)]
    while stack:
        a, b, whole, depth = stack.pop()
        mid = 0.5 * (a + b)
        left = _panel(f, a, mid)
        right = _panel(f, mid, b)
        refined = left + right
        if (depth >= _MAX_DEPTH
                or abs(refined - whole) <= _LINEAR_REL_TOL * max(abs(refined), 1e-300)):
            total += refined
        else:
            stack.append((a, mid, left, depth + 1))
            stack.append((mid, b, right, depth + 1))
    return total


def log_adaptive_quad(
    log_f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float = 1e-10,
    seed_points: Sequence[float] | None = None,
) -> float:
    """``log(integral of exp(log_f))`` over ``[lo, hi]``, never overflowing.

    The one-cell case of ``log_cell_integrals``.  A log-space discrepancy
    of ``rel_tol`` between refinement levels is (to first order) a
    relative error of ``rel_tol`` on the integral.  ``seed_points`` force
    an initial partition; they guard against the classic
    adaptive-quadrature failure where a spike narrower than the first
    panel's node spacing goes unseen.
    """
    if lo > hi:
        raise ValueError("log_adaptive_quad requires lo <= hi")
    return float(log_cell_integrals(log_f, [lo, hi], rel_tol, seed_points)[0])


def _log_panels(log_f: Callable[[np.ndarray], np.ndarray], a: np.ndarray,
                b: np.ndarray) -> np.ndarray:
    """Log of each panel's Gauss-Legendre estimate, maximum factored out, in one
    call; ``+inf`` for a panel with a node where ``log_f`` is ``+inf``."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    nodes = mid[:, None] + half[:, None] * _GL_NODES
    vals = np.asarray(log_f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    m = vals.max(axis=1)
    live = (m > NEG_INF) & (half > 0.0)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        out = shift + np.log(half * (np.exp(vals - shift[:, None]) @ _GL_WEIGHTS))
    return np.where(live, out, NEG_INF)


def _log_cells_chunk(log_f, edges: np.ndarray, seeds: np.ndarray,
                     rel_tol: float) -> np.ndarray:
    n = len(edges) - 1
    cuts = np.unique(np.concatenate([edges, seeds[(seeds > edges[0]) & (seeds < edges[-1])]]))
    if cuts.size == 1:  # every cell of the chunk is empty
        return np.full(n, NEG_INF)
    a, b = cuts[:-1], cuts[1:]
    cell = np.minimum(np.searchsorted(edges, a, side="right") - 1, n - 1)
    whole = _log_panels(log_f, a, b)
    best = np.full(n, NEG_INF)
    np.maximum.at(best, cell, whole)
    done_cell, done_val = [], []
    depth = 0
    while a.size:
        low = whole <= best[cell] - _FLOOR_GAP
        done_cell.append(cell[low])
        done_val.append(whole[low])
        keep = ~low
        a, b, cell, whole = a[keep], b[keep], cell[keep], whole[keep]
        mid = 0.5 * (a + b)
        halves = _log_panels(log_f, np.concatenate([a, mid]), np.concatenate([mid, b]))
        left, right = halves[:a.size], halves[a.size:]
        refined = np.logaddexp(left, right)
        np.maximum.at(best, cell, refined)
        # a panel a few ulps wide cannot be bisected any further
        with np.errstate(invalid="ignore"):
            done = ((abs(refined - whole) <= rel_tol) | (depth >= _MAX_DEPTH)
                    | (b - a <= 4.0 * np.spacing(np.abs(mid))))
        done_cell.append(cell[done])
        done_val.append(refined[done])
        split = ~done & (refined > NEG_INF)
        a = np.concatenate([a[split], mid[split]])
        b = np.concatenate([mid[split], b[split]])
        cell = np.concatenate([cell[split], cell[split]])
        whole = np.concatenate([left[split], right[split]])
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


def log_cell_integrals(
    log_f: Callable[[np.ndarray], np.ndarray],
    edges: Sequence[float],
    rel_tol: float = 1e-10,
    seed_points: Sequence[float] | None = None,
) -> np.ndarray:
    """``log(integral of exp(log_f))`` over every cell ``[edges[i], edges[i+1]]``.

    All live panels of a refinement level are evaluated with one
    ``log_f`` call, and panels whose whole and half-panel estimates
    disagree by more than ``rel_tol`` (in log) are bisected, at most
    ``_MAX_DEPTH`` times; a panel more than ``_FLOOR_GAP`` below the
    largest of its cell is accepted as it stands.  Cells containing a
    ``seed_point`` are split there first.  A panel whose width is within a few ulps of its
    midpoint is accepted as it stands, so the work stays bounded far from
    the origin, where float spacing limits what bisection can resolve.
    Cells are processed ``_CHUNK_CELLS`` at a time, which keeps peak
    memory flat.  ``edges`` must be nondecreasing; an empty cell gives
    ``-inf``, and a cell with a node where ``log_f`` is ``+inf`` gives ``+inf``.
    """
    edges = np.asarray(edges, dtype=float)
    seeds = np.asarray(seed_points if seed_points is not None else [], dtype=float)
    n = len(edges) - 1
    out = np.empty(max(n, 0))
    for start in range(0, n, _CHUNK_CELLS):
        stop = min(start + _CHUNK_CELLS, n)
        out[start:stop] = _log_cells_chunk(log_f, edges[start:stop + 1], seeds, rel_tol)
    return out


def geometric_seeds(center: float, scale: float, lo: float, hi: float) -> list[float]:
    """Partition points clustering geometrically around ``center``.

    Used to pre-split integrals whose mass sits in a boundary layer of
    width ``scale`` around ``center`` (peaks of 1/p, Gaussian kernels far
    from the support, ...).
    """
    if not (lo <= hi) or scale <= 0.0:
        return []
    pts: list[float] = []
    span = hi - lo
    step = scale
    while step < span:
        for p in (center - step, center + step):
            if lo < p < hi:
                pts.append(p)
        step *= 2.0
    if lo < center < hi:
        pts.append(center)
    return pts
