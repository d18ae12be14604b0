import itertools
import math
import warnings

import numpy as np
import pytest

from lsi_lab import errors, highdim
from lsi_lab.bg import compute_bg
from lsi_lab.highdim import (
    ProbeSpec,
    bakry_emery_certificate,
    build_measure_nd,
    gross_compose,
    hessian_neg_log_p,
    log_density_nd,
    measure_nd_from_dict,
    threshold_check,
)
from lsi_lab.measure import point_mass, two_point
from lsi_lab.mollify import MollifiedDensity, log_density
from oracles import cloud_hessian, cloud_log_weights


def two_atoms_2d():
    return build_measure_nd([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])


def five_atom_cloud_3d():
    rng = np.random.default_rng(21)
    pts = rng.uniform(-1.0, 1.0, size=(5, 3))
    w = rng.uniform(0.5, 1.5, size=5)
    return build_measure_nd(pts, w / w.sum())


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_defaults_center_and_radius():
    m = two_atoms_2d()
    assert np.allclose(m.center, [0.0, 0.0])
    assert m.radius == pytest.approx(1.0)
    assert m.dimension == 2


def test_build_rejects_bad_weights():
    with pytest.raises(errors.ValidationError):
        build_measure_nd([[0.0]], [0.5])
    with pytest.raises(errors.ValidationError):
        build_measure_nd([[0.0], [1.0]], [-0.2, 1.2])


def test_build_rejects_atom_outside_ball():
    with pytest.raises(errors.ValidationError):
        build_measure_nd([[0.0, 0.0], [3.0, 0.0]], [0.5, 0.5],
                         center=[0.0, 0.0], radius=1.0)


def test_measure_nd_from_dict():
    m = measure_nd_from_dict({
        "dimension": 2,
        "atoms": [{"point": [1.0, 0.0], "w": 0.5}, {"point": [-1.0, 0.0], "w": 0.5}],
    })
    assert m.dimension == 2
    with pytest.raises(errors.ValidationError):
        measure_nd_from_dict({"atoms": [{"point": [0.0], "w": 1.0}], "shape": "x"})


def test_measure_nd_from_dict_reads_numpy_scalars_and_whole_dimensions():
    m = measure_nd_from_dict({
        "dimension": 2.0, "center": [np.int64(0), 0.0], "radius": np.float32(2.0),
        "atoms": [{"point": [np.float64(1.0), 0], "w": 0.5}, {"point": [-1, 0], "w": 0.5}]})
    assert (m.dimension, m.radius) == (2, 2.0)
    assert m.points.tolist() == [[1.0, 0.0], [-1.0, 0.0]]


# ---------------------------------------------------------------------------
# log density
# ---------------------------------------------------------------------------

def test_single_atom_log_density():
    m = build_measure_nd([[0.0, 0.0]], [1.0])
    assert log_density_nd(m, 1.0, [0.0, 0.0]) == pytest.approx(-math.log(2 * math.pi), abs=1e-14)


def test_dimension_one_matches_mollify():
    m1 = build_measure_nd([[0.4]], [1.0])
    d = MollifiedDensity(point_mass(0.4), 0.7)
    for x in (-2.0, 0.0, 3.5):
        assert log_density_nd(m1, 0.7, [x]) == pytest.approx(log_density(d, x), abs=1e-12)


def test_four_atom_square_against_sorted_sum():
    pts = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
    w = [0.25] * 4
    m = build_measure_nd(pts, w)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.uniform(-3, 3, size=2)
        # independent re-implementation: sorted summation of exact terms
        terms = sorted(
            0.25 * math.exp(-float(np.sum((x - np.array(p)) ** 2)) / 2.0)
            for p in pts
        )
        expected = math.log(math.fsum(terms)) - math.log(2 * math.pi)
        assert log_density_nd(m, 1.0, x) == pytest.approx(expected, abs=1e-12)


def test_log_density_requires_positive_delta():
    with pytest.raises(errors.NonPositiveDelta):
        log_density_nd(two_atoms_2d(), 0.0, [0.0, 0.0])


# ---------------------------------------------------------------------------
# hessian
# ---------------------------------------------------------------------------

def test_single_atom_hessian_exact():
    m = build_measure_nd([[0.3, -0.7, 0.1]], [1.0])
    for delta in (0.2, 1.0, 5.0):
        h = hessian_neg_log_p(m, delta, [2.0, 0.0, -1.0])
        assert np.allclose(h, np.eye(3) / delta, atol=1e-15)


def test_two_atom_hessian_at_midpoint():
    h = hessian_neg_log_p(two_atoms_2d(), 1.0, [0.0, 0.0])
    assert np.allclose(h, np.diag([0.0, 1.0]), atol=1e-14)


def test_hessian_finite_far_from_the_cloud():
    m = five_atom_cloud_3d()
    x = m.center + 1e3 * m.radius * np.array([1.0, 0.0, 0.0])
    assert np.all(cloud_log_weights(m.points, m.weights, 0.8, x) < -1e5)
    h = hessian_neg_log_p(m, 0.8, x)
    assert np.all(np.isfinite(h))
    assert np.isfinite(log_density_nd(m, 0.8, x))


def test_log_density_where_every_distance_overflows():
    with np.errstate(over="ignore"):
        assert log_density_nd(two_atoms_2d(), 1.0, [1e200, 0.0]) == -math.inf


@pytest.mark.parametrize("x", [[1e308, 0.0], [-1e308, 0.0], [1e308, 1e308], [1e300, 0.0]])
def test_hessian_where_the_tilt_overflows(x):
    # u.z_k / delta overflows at the first three points; |u|^2 at all four.
    # The tilted measure sits on the nearest atom, so the covariance is 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = hessian_neg_log_p(two_atoms_2d(), 0.5, x)
        assert log_density_nd(two_atoms_2d(), 0.5, x) == -math.inf
    assert np.array_equal(h, np.eye(2) / 0.5)


def test_every_log_weight_underflowing_tilts_onto_the_nearest_atom():
    # with an off-centre ball u.z_k / delta is -inf for both atoms at the
    # far point: log p is -inf and the tilt sits on the atom at [1, 0]
    m = build_measure_nd([[1.0, 0.0], [2.0, 0.0]], [0.5, 0.5], center=[0.0, 0.0], radius=2.0)
    far = [-1e308, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert log_density_nd(m, 0.5, far) == -math.inf
        assert np.array_equal(hessian_neg_log_p(m, 0.5, far), np.eye(2) / 0.5)
        ordinary = np.array([[0.3, -0.2], [1.5, 1.0], [-4.0, 2.0]])
        w, log_sums = highdim._tilted(m, 0.5, np.insert(ordinary, 1, far, axis=0))
        alone_w, alone_log_sums = highdim._tilted(m, 0.5, ordinary)
    assert np.array_equal(w[1], [1.0, 0.0]) and log_sums[1] == -math.inf
    assert w[[0, 2, 3]].tobytes() == alone_w.tobytes()
    assert log_sums[[0, 2, 3]].tobytes() == alone_log_sums.tobytes()


def test_zero_weight_atom_is_ignored():
    pts = [[1.0, 0.0], [-1.0, 0.5], [0.2, -0.3]]
    with_zero = build_measure_nd(pts, [0.4, 0.6, 0.0], center=[0.0, 0.0], radius=2.0)
    without = build_measure_nd(pts[:2], [0.4, 0.6], center=[0.0, 0.0], radius=2.0)
    for x in ([0.0, 0.0], [0.7, -1.1], [-3.0, 2.0]):
        assert np.array_equal(hessian_neg_log_p(with_zero, 0.6, x),
                              hessian_neg_log_p(without, 0.6, x))
        assert log_density_nd(with_zero, 0.6, x) == log_density_nd(without, 0.6, x)


def test_max_shift_agrees_with_scipy_logsumexp():
    from scipy.special import logsumexp

    rng = np.random.default_rng(12)
    for _ in range(50):
        k, n = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        w = rng.uniform(0.1, 1.0, size=k)
        m = build_measure_nd(rng.uniform(-1.0, 1.0, size=(k, n)), w / w.sum())
        delta = float(rng.uniform(0.05, 3.0))
        x = m.center + rng.uniform(-2.0, 2.0, size=n)
        logw = cloud_log_weights(m.points, m.weights, delta, x)
        tilt = np.exp(logw - logsumexp(logw))
        centered = m.points - tilt @ m.points
        cov = (centered * tilt[:, None]).T @ centered
        want = np.eye(n) / delta - cov / (delta * delta)
        got = hessian_neg_log_p(m, delta, x)
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))
        norm_const = 0.5 * n * math.log(2.0 * math.pi * delta)
        want_log = float(logsumexp(logw)) - norm_const
        assert abs(log_density_nd(m, delta, x) - want_log) <= 1e-13 * max(1.0, abs(want_log))


def test_hessian_symmetric_exactly():
    m = five_atom_cloud_3d()
    rng = np.random.default_rng(10)
    for _ in range(10):
        h = hessian_neg_log_p(m, 0.8, rng.uniform(-2, 2, size=3))
        assert np.array_equal(h, h.T)


def _fd_hessian(m, delta, x, h=1e-4):
    n = m.dimension
    out = np.empty((n, n))
    f = lambda p: log_density_nd(m, delta, p)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        out[i, i] = -(f(x + ei) - 2 * f(x) + f(x - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            val = -(f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)) / (4 * h * h)
            out[i, j] = out[j, i] = val
    return out


def test_hessian_matches_finite_differences():
    m = five_atom_cloud_3d()
    rng = np.random.default_rng(12)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=3)
        exact = hessian_neg_log_p(m, 1.0, x)
        approx = _fd_hessian(m, 1.0, x)
        assert np.max(np.abs(exact - approx)) <= 1e-5


def test_two_atom_fd_agreement_at_spec_delta():
    m = two_atoms_2d()
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = rng.uniform(-2.5, 2.5, size=2)
        exact = hessian_neg_log_p(m, 4.4, x)
        approx = _fd_hessian(m, 4.4, x)
        assert np.max(np.abs(exact - approx)) <= 1e-5


def test_identity_limit_bound():
    # || delta Hess(-log p) - I ||_max <= 2 R^2 / delta over probes
    for m in (two_atoms_2d(), five_atom_cloud_3d()):
        for delta in (0.5, 2.0, 10.0):
            bound = 2.0 * m.radius ** 2 / delta
            pts = ProbeSpec(grid_points_per_axis=5, random_points=40, seed=7).generate(m, delta)
            for x in pts:
                dev = np.max(np.abs(delta * hessian_neg_log_p(m, delta, x) - np.eye(m.dimension)))
                assert dev <= bound + 1e-12


def test_eigenvalue_floor_above_threshold():
    for m in (two_atoms_2d(), five_atom_cloud_3d()):
        n = m.dimension
        delta = 2.2 * m.radius ** 2 * n
        cert = bakry_emery_certificate(m, delta)
        assert cert.threshold_ok
        assert cert.min_eig >= cert.analytic_floor - 1e-9


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_single_atom_certificate():
    m = build_measure_nd([[0.0, 0.0]], [1.0])
    for delta in (0.5, 1.0, 3.0):
        cert = bakry_emery_certificate(m, delta)
        assert cert.min_eig == pytest.approx(1.0 / delta, rel=1e-12)
        assert cert.c_candidate == pytest.approx(delta, rel=1e-12)


def test_two_atom_certificate_above_threshold():
    cert = bakry_emery_certificate(two_atoms_2d(), 4.4)
    floor = (4.4 - 4.0) / 4.4 ** 2
    assert cert.threshold_ok
    assert cert.min_eig >= floor - 1e-9
    assert floor == pytest.approx(0.0206611570, abs=1e-9)
    assert cert.c_candidate is not None
    assert cert.perturbation_bound == pytest.approx(2.0 / 4.4)


def test_two_atom_certificate_small_delta_fails():
    cert = bakry_emery_certificate(two_atoms_2d(), 0.05)
    assert not cert.threshold_ok
    assert cert.min_eig < 0.0
    assert cert.c_candidate is None
    # the midpoint probe is the witness: Hess_11 = 1/delta - 1/delta^2
    mid = hessian_neg_log_p(two_atoms_2d(), 0.05, [0.0, 0.0])
    assert np.linalg.eigvalsh(mid)[0] == pytest.approx((0.05 - 1.0) / 0.05 ** 2, rel=1e-9)


@pytest.mark.parametrize("delta, stage", [(1e-154, "analytic floor"),
                                          (1e-160, "Hessian"), (1e-300, "Hessian")])
def test_certificate_out_of_float_range_is_a_typed_error(delta, stage):
    spec = ProbeSpec(grid_points_per_axis=3, random_points=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.NumericalOverflow, match=rf"^{stage} .* at delta={delta!r}"):
            bakry_emery_certificate(two_atoms_2d(), delta, spec)


def test_certificate_at_delta_1e_150_is_finite():
    cert = bakry_emery_certificate(two_atoms_2d(), 1e-150,
                                   ProbeSpec(grid_points_per_axis=3, random_points=0))
    assert math.isfinite(cert.min_eig) and math.isfinite(cert.analytic_floor)
    assert cert.min_eig >= cert.analytic_floor


def test_certificate_requires_positive_delta():
    with pytest.raises(errors.NonPositiveDelta):
        bakry_emery_certificate(two_atoms_2d(), 0.0)


def test_certificate_probe_grid_contains_midpoint():
    cert = bakry_emery_certificate(two_atoms_2d(), 0.05,
                                   ProbeSpec(grid_points_per_axis=7, random_points=0))
    assert cert.min_eig == pytest.approx((0.05 - 1.0) / 0.05 ** 2, rel=1e-9)


@pytest.mark.parametrize("grid,random", [(0, 10), (-1, 10), (3, -5)])
def test_probe_spec_rejects_negative_counts(grid, random):
    with pytest.raises(errors.ValidationError, match="grid >= 1 and random >= 0"):
        ProbeSpec(grid_points_per_axis=grid, random_points=random).generate(two_atoms_2d(), 1.0)


def test_probe_spec_rejects_oversized_grid_before_allocating():
    # 7^12 grid points would be about 1.4e10 probes
    cloud_12d = build_measure_nd([[1.0] + [0.0] * 11, [-1.0] + [0.0] * 11], [0.5, 0.5])
    with pytest.raises(errors.ValidationError, match="exceeds the limit"):
        ProbeSpec(grid_points_per_axis=7, random_points=0).generate(cloud_12d, 1.0)


def test_probe_spec_limit_counts_grid_and_random(monkeypatch):
    monkeypatch.setattr(highdim, "MAX_PROBES", 10)
    pts = ProbeSpec(grid_points_per_axis=2, random_points=6).generate(two_atoms_2d(), 1.0)
    assert pts.shape == (10, 2)
    with pytest.raises(errors.ValidationError, match="exceeds the limit"):
        ProbeSpec(grid_points_per_axis=2, random_points=7).generate(two_atoms_2d(), 1.0)


# ---------------------------------------------------------------------------
# threshold and Gross composition
# ---------------------------------------------------------------------------

def test_threshold_examples():
    assert threshold_check(0.0, 5, 1e-9)
    assert not threshold_check(1.0, 2, 4.0)   # boundary excluded
    assert threshold_check(1.0, 2, 4.4)


def test_gross_compose():
    assert gross_compose(1.0, 2.0) == 2.0
    assert gross_compose(3.0, 3.0) == 3.0
    with pytest.raises(errors.ValidationError):
        gross_compose(0.0, 1.0)


def test_gross_compose_with_bg_brackets():
    r1 = compute_bg(MollifiedDensity(point_mass(0.0), 1.0))
    r2 = compute_bg(MollifiedDensity(point_mass(0.0), 2.0))
    assert gross_compose(r1.c_upper, r2.c_upper) == max(r1.c_upper, r2.c_upper)


def test_dimension_one_cross_check_with_bg():
    # both bound the same constant from opposite sides when the
    # curvature criterion applies: c_candidate >= bg lower bound
    m1 = build_measure_nd([[-1.0], [1.0]], [0.5, 0.5])
    delta = 4.4  # above 2 R^2 n = 2
    cert = bakry_emery_certificate(m1, delta)
    assert cert.threshold_ok and cert.c_candidate is not None
    report = compute_bg(MollifiedDensity(two_point(), delta))
    assert cert.c_candidate >= report.c_lower


def test_hessian_is_exact_where_the_atoms_round_away():
    # x - y_k rounds y_k away from 1e16 on, and |x|^2 overflows from 1e155 on;
    # the tilted measure sits on the nearest atom, so the Hessian is I/delta
    cases = [(two_atoms_2d(), [1e16, 0.0]), (two_atoms_2d(), [1e150, 0.0]),
             (two_atoms_2d(), [1e200, 0.0]),
             (build_measure_nd([[1.0, 0.5], [-1.0, 0.0], [0.2, -0.7]], [0.3, 0.3, 0.4]),
              [1e16, 3e16])]
    for m, x in cases:
        with np.errstate(over="ignore"):
            h = hessian_neg_log_p(m, 0.5, x)
        assert np.array_equal(h, np.eye(2) / 0.5), (x, h)


def test_min_eig_location_ignores_round_off_among_tied_probes(monkeypatch):
    # every probe on x1 = 0 has the same eigenvalue (1 - 1/delta)/delta = -380
    cert = bakry_emery_certificate(two_atoms_2d(), 0.05)
    assert cert.min_eig_location[0] == 0.0
    assert cert.min_eig_location[1] == pytest.approx(-2.341640786499874, rel=1e-12)
    exact = highdim.hessian_neg_log_p
    for pattern in ([0, 1, 2], [1, 0, 2, 0]):
        ks = itertools.cycle(pattern)
        scaled = []

        def perturbed(m, delta, xs):
            # each probe of a stacked block gets its own few-ulp factor
            factors = 1 + np.array([next(ks) for _ in xs]) * 2.0 ** -52
            scaled.extend(factors)
            return exact(m, delta, xs) * factors[:, None, None]

        monkeypatch.setattr(highdim, "hessian_neg_log_p", perturbed)
        got = bakry_emery_certificate(two_atoms_2d(), 0.05)
        assert got.min_eig_location == cert.min_eig_location
        assert len(scaled) == got.probes_evaluated


def test_hessian_of_a_translated_cloud():
    # the log weights are taken relative to the ball's centre, so a cloud far
    # from the origin loses no more than the rounding of its translated atoms
    m = five_atom_cloud_3d()
    shift = np.array([1e4, -1e4, 5e3])
    moved = build_measure_nd(m.points + shift, m.weights)
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = m.center + rng.uniform(-2.0, 2.0, size=3)
        h = hessian_neg_log_p(m, 0.3, x)
        got = hessian_neg_log_p(moved, 0.3, x + shift)
        assert np.max(np.abs(got - h)) <= 1e-10 * np.max(np.abs(h))


# ---------------------------------------------------------------------------
# stacked probes against the per-point oracle
# ---------------------------------------------------------------------------

def _random_cloud(seed, k, n, shift=0.0):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, size=k)
    return build_measure_nd(rng.uniform(-1.0, 1.0, size=(k, n)) + shift, w / w.sum())


def _assert_matches_oracle(m, delta, pts, got):
    # within 1e-13 of the larger of |I/delta| = 1/delta and |Cov/delta^2| = 1/delta - want
    want = np.array([np.linalg.eigvalsh(cloud_hessian(m.points, m.weights, delta, x))[0]
                     for x in pts])
    scale = 1.0 / delta + np.maximum(-want, 0.0)
    assert np.max(np.abs(got - want) / scale) <= 1e-13


ORACLE_CLOUDS = {
    "2d": _random_cloud(1, 6, 2),
    "3d": _random_cloud(2, 16, 3),
    "5d": _random_cloud(3, 9, 5),
    "zero_weight": build_measure_nd([[1.0, 0.0], [-1.0, 0.5], [0.2, -0.3]], [0.4, 0.6, 0.0],
                                    center=[0.0, 0.0], radius=2.0),
    "translated_1e4": _random_cloud(4, 8, 3, shift=np.array([1e4, -1e4, 5e3])),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CLOUDS))
@pytest.mark.parametrize("delta", [0.3, 1.0, 4.0])
def test_stacked_min_eigs_match_the_per_probe_oracle(name, delta):
    m = ORACLE_CLOUDS[name]
    grid = 3 if m.dimension == 5 else 6
    pts = ProbeSpec(grid_points_per_axis=grid, random_points=100, seed=5).generate(m, delta)
    _assert_matches_oracle(m, delta, pts, highdim._min_eigs(m, delta, pts))
    _assert_matches_oracle(m, delta, pts,
                           np.linalg.eigvalsh(hessian_neg_log_p(m, delta, pts))[:, 0])


def test_stacked_block_mixes_ordinary_and_overflowing_rows():
    m = two_atoms_2d()
    xs = np.array([[0.3, -0.2], [1e308, 0.0], [0.0, 0.0], [1e300, 0.0], [-1.5, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = hessian_neg_log_p(m, 0.5, xs)
        log_sums = highdim._tilted(m, 0.5, xs)[1]
    assert h.shape == (5, 2, 2)
    for row in (1, 3):
        assert np.array_equal(h[row], np.eye(2) / 0.5)
        assert log_sums[row] == -math.inf
    ordinary = xs[[0, 2, 4]]
    assert np.all(np.isfinite(log_sums[[0, 2, 4]]))
    _assert_matches_oracle(m, 0.5, ordinary, np.linalg.eigvalsh(h[[0, 2, 4]])[:, 0])
    for x, hx in zip(ordinary, h[[0, 2, 4]]):
        want = cloud_hessian(m.points, m.weights, 0.5, x)
        assert np.max(np.abs(hx - want)) <= 1e-13 / 0.5


def test_per_point_calls_keep_their_shapes():
    m = five_atom_cloud_3d()
    x = [0.1, -0.4, 0.8]
    assert hessian_neg_log_p(m, 0.8, x).shape == (3, 3)
    assert hessian_neg_log_p(m, 0.8, [x]).shape == (1, 3, 3)
    assert isinstance(log_density_nd(m, 0.8, x), float)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_blocks_of_probes_cover_every_probe(monkeypatch, extra):
    # 5 atoms in 3-D are 15 elements a probe, so a budget of 60 makes blocks of 4
    m = five_atom_cloud_3d()
    monkeypatch.setattr(highdim, "_BLOCK_ELEMENTS", 60)
    spec = ProbeSpec(grid_points_per_axis=1, random_points=4 + extra - 1, seed=3)
    pts = spec.generate(m, 0.4)
    assert len(pts) == 4 + extra
    eigs = highdim._min_eigs(m, 0.4, pts)
    assert eigs.shape == (len(pts),)
    _assert_matches_oracle(m, 0.4, pts, eigs)
    cert = bakry_emery_certificate(m, 0.4, spec)
    assert cert.probes_evaluated == len(pts) and cert.min_eig == float(np.min(eigs))


def test_probe_blocks_stay_within_the_element_budget(monkeypatch):
    # a 300-atom cloud in 4-D is 1,200 elements a probe
    m = _random_cloud(6, 300, 4)
    exact = highdim.hessian_neg_log_p
    sizes = []

    def counted(m, delta, xs):
        sizes.append(len(xs))
        return exact(m, delta, xs)

    monkeypatch.setattr(highdim, "hessian_neg_log_p", counted)
    spec = ProbeSpec(grid_points_per_axis=2, random_points=10)  # 26 probes
    for budget, block in [(5_000, 4), (1_200, 1), (1_000, 1)]:
        monkeypatch.setattr(highdim, "_BLOCK_ELEMENTS", budget)
        sizes.clear()
        cert = bakry_emery_certificate(m, 2.0, spec)
        assert sum(sizes) == cert.probes_evaluated == 26
        assert max(sizes) == block
        assert block == 1 or block * 300 * 4 <= budget
