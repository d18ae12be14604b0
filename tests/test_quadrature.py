import math

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp

from lsi_lab import quadrature
from lsi_lab.measure import two_point
from lsi_lab.mollify import MollifiedDensity, log_density
from lsi_lab.quadrature import LOG_REL_TOL, NEG_INF, log_adaptive_quad, log_cell_integrals


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
    # another order, so agreement is to a few LOG_REL_TOL, not bitwise
    edges = np.linspace(-3.0, 3.0, 601)
    got = log_cell_integrals(neg_log_two_point, edges, seed_points=[0.0])
    want = [_frozen_log_quad(neg_log_two_point, a, b, rel_tol=LOG_REL_TOL,
                             seed_points=[0.0] if a < 0.0 < b else None)
            for a, b in zip(edges[:-1], edges[1:])]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("lo, hi, seeds", [(-3.0, 0.0, [0.0]), (-0.9, 0.9, None)])
def test_one_cell_matches_the_frozen_scalar_rule(lo, hi, seeds):
    # reciprocal integrals of the two-point density: from -3 to the gap
    # midpoint 0, and across the gap, where only refinement finds the peak
    # of 1/p at 0 (a depth cap of one bisection misses it by 4e-8)
    got = log_adaptive_quad(neg_log_two_point, lo, hi, seed_points=seeds)
    want = _frozen_log_quad(neg_log_two_point, lo, hi, rel_tol=LOG_REL_TOL, seed_points=seeds)
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
    # a call whose cells are all empty, and an empty cell trailing live ones
    log_phi = lambda t: -0.5 * np.asarray(t) ** 2
    assert log_cell_integrals(log_phi, [1.0, 1.0])[0] == NEG_INF
    assert log_adaptive_quad(log_phi, 1.0, 1.0) == NEG_INF
    tail = log_cell_integrals(log_phi, np.r_[np.linspace(0.0, 1.0, 257), 1.0])
    assert tail.size == 257
    assert tail[-1] == NEG_INF and np.all(np.isfinite(tail[:-1]))


def test_one_call_per_level_over_all_cells():
    sizes = []
    n = 512
    edges = np.linspace(-1.0, 1.0, n + 1)
    kink = 0.5 * (edges[100] + edges[101])

    def log_f(t):
        sizes.append(np.size(t))
        return -0.5 * np.asarray(t) ** 2

    log_cell_integrals(log_f, edges)
    # a smooth integrand on narrow cells passes the K15/G7 check at once:
    # one call for the Kronrod nodes of every cell
    assert sizes == [15 * n]

    # a kink at the midpoint of cell 100 fails the check on that cell alone;
    # its two halves are smooth, so it costs one more call of 30 nodes, and
    # the other cells are not evaluated again
    sizes.clear()
    log_cell_integrals(lambda t: log_f(t) - 10.0 * np.abs(np.asarray(t) - kink), edges)
    assert sizes == [15 * n, 30]


def test_kronrod_and_gauss_tables_integrate_monomials():
    # K15 is exact up to degree 22 and G7 up to degree 13; beyond that only
    # the odd powers, by symmetry
    for k in range(26):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        kronrod, gauss = quadrature._k15_g7(quadrature._K15_NODES ** k)
        assert (abs(kronrod - exact) <= 1e-15) == (k <= 22 or k % 2 == 1), k
        assert (abs(gauss - exact) <= 1e-15) == (k <= 13 or k % 2 == 1), k


def test_gauss_nodes_are_the_odd_kronrod_nodes():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(quadrature._K15_NODES[1::2], nodes, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(quadrature._G7_WEIGHTS, weights, rtol=0.0, atol=1e-15)
    assert np.all(np.diff(quadrature._K15_NODES) > 0.0)
    assert quadrature._K15_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-15)
    assert quadrature._G7_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-15)


def _mp_log_reciprocal_two_point(delta, lo, hi, breaks):
    # log of the integral of 1/p for the two-point measure at +-1, to 40 digits
    with mpmath.workdps(40):
        d = mpmath.mpf(delta)
        half_c = 0.5 / mpmath.sqrt(2 * mpmath.pi * d)
        f = lambda t: 1 / (half_c * (mpmath.exp(-(t - 1) ** 2 / (2 * d))
                                     + mpmath.exp(-(t + 1) ** 2 / (2 * d))))
        return mpmath.log(mpmath.quad(f, sorted({lo, hi, *breaks})))


@pytest.mark.parametrize("delta, lo, hi, seeds", [
    (0.05, -1.0, 1.0, [0.0]),     # across the gap, where 1/p peaks at 0
    (0.01, -1.0, 1.0, [0.0]),
    (1.0, -100.0, 0.0, None),     # far out to the median, log 1/p near 4900
])
def test_reciprocal_integrals_meet_their_tolerance(delta, lo, hi, seeds):
    # mpmath's partition clusters where 1/p has its mass: around the peak
    # at 0 across the gap, and near the lower end far out
    if seeds:
        breaks = [s * k * delta for k in (0.25, 0.5, 1, 2, 4, 8, 16, 32) if k * delta < 1
                  for s in (-1, 1)] + [0.0]
    else:
        breaks = [lo + s for s in (1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0)]
    want = _mp_log_reciprocal_two_point(delta, lo, hi, breaks)
    got = log_adaptive_quad(lambda t: neg_log_two_point(t, delta), lo, hi, seed_points=seeds)
    assert abs(got - float(want)) <= LOG_REL_TOL


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
