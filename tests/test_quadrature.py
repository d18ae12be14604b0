import math

import numpy as np
import pytest
from scipy.special import logsumexp

from lsi_lab import quadrature
from lsi_lab.measure import two_point
from lsi_lab.mollify import MollifiedDensity, log_density
from lsi_lab.quadrature import NEG_INF, log_adaptive_quad, log_cell_integrals


def neg_log_two_point(t, delta=0.05):
    # -log p of the two-point measure at +-1: 1/p peaks sharply at the gap midpoint 0
    t = np.asarray(t, dtype=float)
    log_p = (np.logaddexp(-(t - 1.0) ** 2 / (2.0 * delta), -(t + 1.0) ** 2 / (2.0 * delta))
             + math.log(0.5) - 0.5 * math.log(2.0 * math.pi * delta))
    return -log_p


# ---------------------------------------------------------------------------
# frozen reference: the scalar depth-first log-space rule that
# log_adaptive_quad ran before it became the one-cell log_cell_integrals
# ---------------------------------------------------------------------------

_FROZEN_NODES, _FROZEN_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _frozen_panel_log(log_f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(log_f(mid + half * _FROZEN_NODES), dtype=float)
    m = float(np.max(vals))
    if m == NEG_INF or half == 0.0:
        return NEG_INF
    return m + math.log(half * float(np.dot(_FROZEN_WEIGHTS, np.exp(vals - m))))


def _frozen_log_quad(log_f, lo, hi, rel_tol=1e-10, seed_points=None):
    if lo == hi:
        return NEG_INF
    cuts = [lo, hi]
    if seed_points is not None:
        cuts.extend(p for p in seed_points if lo < p < hi)
    cuts = sorted(set(cuts))
    parts = []
    stack = [(a, b, _frozen_panel_log(log_f, a, b), 0) for a, b in zip(cuts[:-1], cuts[1:])]
    best = max(w for _, _, w, _ in stack)
    while stack:
        a, b, whole, depth = stack.pop()
        if whole <= best - 46.0:
            if whole > NEG_INF:
                parts.append(float(whole))
            continue
        mid = 0.5 * (a + b)
        left = _frozen_panel_log(log_f, a, mid)
        right = _frozen_panel_log(log_f, mid, b)
        refined = np.logaddexp(left, right)
        if refined == NEG_INF:
            continue
        best = max(best, float(refined))
        if depth >= 60 or (whole > NEG_INF and abs(refined - whole) <= rel_tol):
            parts.append(float(refined))
        else:
            stack.append((a, mid, left, depth + 1))
            stack.append((mid, b, right, depth + 1))
    return float(logsumexp(parts)) if parts else NEG_INF


def test_cells_match_the_per_cell_adaptive_rule():
    # panels are visited breadth-first instead of depth-first and summed in
    # another order, so agreement is to a few rel_tol, not bitwise
    edges = np.linspace(-3.0, 3.0, 601)
    got = log_cell_integrals(neg_log_two_point, edges, rel_tol=1e-10, seed_points=[0.0])
    want = [_frozen_log_quad(neg_log_two_point, a, b, rel_tol=1e-10,
                             seed_points=[0.0] if a < 0.0 < b else None)
            for a, b in zip(edges[:-1], edges[1:])]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("lo, hi, seeds", [(-3.0, 0.0, [0.0]), (-0.9, 0.9, None)])
def test_one_cell_matches_the_frozen_scalar_rule(lo, hi, seeds):
    # reciprocal integrals of the two-point density: from -3 to the gap
    # midpoint 0, and across the gap, where only refinement finds the peak
    # of 1/p at 0 (a depth cap of one bisection misses it by 4e-8)
    got = log_adaptive_quad(neg_log_two_point, lo, hi, rel_tol=1e-10, seed_points=seeds)
    want = _frozen_log_quad(neg_log_two_point, lo, hi, rel_tol=1e-10, seed_points=seeds)
    assert got == pytest.approx(want, abs=1e-9)


def test_reversed_interval_is_rejected():
    with pytest.raises(ValueError):
        log_adaptive_quad(neg_log_two_point, 0.0, -1.0)


def test_seed_point_splits_its_cell():
    # a cell straddling the gap midpoint integrates to the sum of its halves
    whole = log_cell_integrals(neg_log_two_point, [-0.3, 0.2], seed_points=[0.0])[0]
    halves = log_cell_integrals(neg_log_two_point, [-0.3, 0.0, 0.2])
    assert whole == pytest.approx(float(np.logaddexp(*halves)), abs=1e-9)


def test_gaussian_cells_sum_to_one():
    log_phi = lambda t: -0.5 * np.asarray(t) ** 2 - 0.5 * math.log(2.0 * math.pi)
    cells = log_cell_integrals(log_phi, np.linspace(-40.0, 40.0, 1001))
    assert float(np.logaddexp.reduce(cells)) == pytest.approx(0.0, abs=1e-12)


def test_empty_and_zero_cells_are_minus_inf():
    out = log_cell_integrals(lambda t: np.where(np.asarray(t) > 1.0, 0.0, NEG_INF),
                             [0.0, 0.5, 0.5, 2.0])
    assert out[0] == NEG_INF and out[1] == NEG_INF
    assert out[2] == pytest.approx(0.0, abs=1e-12)    # log of the length 1 of [1, 2]
    # a chunk whose cells are all empty: the whole call, and the trailing chunk
    log_phi = lambda t: -0.5 * np.asarray(t) ** 2
    assert log_cell_integrals(log_phi, [1.0, 1.0])[0] == NEG_INF
    assert log_adaptive_quad(log_phi, 1.0, 1.0) == NEG_INF
    tail = log_cell_integrals(log_phi, np.r_[np.linspace(0.0, 1.0, quadrature._CHUNK_CELLS + 1), 1.0])
    assert tail.size == quadrature._CHUNK_CELLS + 1
    assert tail[-1] == NEG_INF and np.all(np.isfinite(tail[:-1]))


def test_one_call_per_level_per_chunk():
    sizes = []

    def log_f(t):
        sizes.append(np.size(t))
        return -0.5 * np.asarray(t) ** 2

    n = 2 * quadrature._CHUNK_CELLS
    log_cell_integrals(log_f, np.linspace(-1.0, 1.0, n + 1))
    # a smooth integrand on narrow cells converges at the first bisection:
    # per chunk, one call for the whole panels and one for their halves
    assert sizes == [15 * quadrature._CHUNK_CELLS, 30 * quadrature._CHUNK_CELLS] * 2


def test_unresolvable_integrand_stops_at_float_spacing():
    # a log-integrand that no bisection can resolve: far from the origin the
    # panels stop splitting once a few ulps wide, instead of at _MAX_DEPTH
    calls = []

    def log_f(t):
        calls.append(1)
        return 5.0 * np.sin(np.asarray(t) * 1e11)

    lo = 1e6
    out = log_cell_integrals(log_f, [lo, lo + 1e-8])
    assert np.isfinite(out[0])
    assert len(calls) <= 8


def test_plus_inf_integrand_gives_plus_inf_in_bounded_work():
    # -log p of the two-point measure is +inf on every node here, since
    # (x - t)^2 overflows: the cell is +inf at once, not dropped as a nan
    d = MollifiedDensity(two_point(), 1.0)
    calls = []

    def neg_log_p(t):
        calls.append(np.size(t))
        with np.errstate(over="ignore"):
            return -log_density(d, t)

    assert log_cell_integrals(neg_log_p, [-1e160, -1e159])[0] == np.inf
    assert sum(calls) == 15  # the whole panel, accepted without a bisection
    # a cell where only some nodes overflow, next to a finite one
    out = log_cell_integrals(neg_log_p, [-1e160, -1e153, -1e152])
    assert out[0] == np.inf and np.isfinite(out[1])
