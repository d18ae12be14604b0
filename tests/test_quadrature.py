import math

import numpy as np
import pytest

from lsi_lab import quadrature
from lsi_lab.quadrature import NEG_INF, log_adaptive_quad, log_cell_integrals


def neg_log_two_point(t, delta=0.05):
    # -log p of the two-point measure at +-1: 1/p peaks sharply at the gap midpoint 0
    t = np.asarray(t, dtype=float)
    log_p = (np.logaddexp(-(t - 1.0) ** 2 / (2.0 * delta), -(t + 1.0) ** 2 / (2.0 * delta))
             + math.log(0.5) - 0.5 * math.log(2.0 * math.pi * delta))
    return -log_p


def test_cells_match_the_per_cell_adaptive_rule():
    # the loop over log_adaptive_quad is the reference; summation order
    # differs, so agreement is to a few rel_tol, not bitwise
    edges = np.linspace(-3.0, 3.0, 601)
    got = log_cell_integrals(neg_log_two_point, edges, rel_tol=1e-10, seed_points=[0.0])
    want = [log_adaptive_quad(neg_log_two_point, a, b, rel_tol=1e-10,
                              seed_points=[0.0] if a < 0.0 < b else None)
            for a, b in zip(edges[:-1], edges[1:])]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


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
    # panels stop splitting once a few ulps wide, instead of at max_depth
    calls = []

    def log_f(t):
        calls.append(1)
        return 5.0 * np.sin(np.asarray(t) * 1e11)

    lo = 1e6
    out = log_cell_integrals(log_f, [lo, lo + 1e-8])
    assert np.isfinite(out[0])
    assert len(calls) <= 8
