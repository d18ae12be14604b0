import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import log_ndtr
from scipy.stats import norm

from lsi_lab import errors, mollify, rmt
from lsi_lab.measure import build_measure, point_mass, quantile, two_point, uniform
from lsi_lab.mollify import (
    MollifiedDensity,
    asymptotic_ratios,
    log_density,
    log_density_ratio_grad,
    median,
    reciprocal_integral,
    tail_mass,
)
from oracles import MollifiedOracle, log_trapezoid

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
NEG_INF = float("-inf")


def mixed_measure():
    return build_measure({
        "atoms": [{"x": -0.5, "w": 0.3}],
        "pieces": [{"lo": 0.0, "hi": 2.0, "coeffs": [0.35]}],
    })


# ---------------------------------------------------------------------------
# log_density
# ---------------------------------------------------------------------------

def test_point_mass_is_gaussian():
    d = MollifiedDensity(point_mass(0.0), 1.0)
    assert log_density(d, 0.0) == pytest.approx(-LOG_SQRT_2PI, abs=1e-14)
    assert log_density(d, 100.0) == pytest.approx(-LOG_SQRT_2PI - 5000.0, abs=1e-9)


def test_uniform_log_density_against_dense_oracle():
    d = MollifiedDensity(uniform(0, 1), 0.1)
    x = 0.5
    oracle = log_trapezoid(
        lambda t: -((x - t) ** 2) / 0.2 - 0.5 * math.log(2 * math.pi * 0.1),
        0.0, 1.0, n=10_000_001)
    assert log_density(d, x) == pytest.approx(oracle, abs=1e-9)


def test_log_density_far_left_against_oracle():
    d = MollifiedDensity(uniform(0, 1), 0.1)
    x = -6.0
    oracle = log_trapezoid(
        lambda t: -((x - t) ** 2) / 0.2 - 0.5 * math.log(2 * math.pi * 0.1),
        0.0, 1.0, n=10_000_001)
    assert log_density(d, x) == pytest.approx(oracle, abs=1e-8)


def test_no_underflow_far_out():
    m = build_measure({
        "atoms": [{"x": -10.0, "w": 0.5}],
        "pieces": [{"lo": 5.0, "hi": 10.0, "coeffs": [0.1]}],
    })
    d = MollifiedDensity(m, 1e-4)
    for x in (-1e4, 1e4):
        val = log_density(d, x)
        assert math.isfinite(val)
        assert val < -1e8  # enormous but representable in log space


def test_log_density_positive_everywhere():
    d = MollifiedDensity(two_point(), 0.05)
    xs = np.linspace(-30, 30, 41)
    assert np.all(np.isfinite(log_density(d, xs)))


# ---------------------------------------------------------------------------
# closed-form piece kernel against the dense oracle
# ---------------------------------------------------------------------------

# (lo, hi, coeffs, log q with no cancellation near the ends)
KERNEL_PIECES = {
    "constant": (0.0, 1.0, [1.0], lambda t: np.zeros_like(t)),
    "linear": (0.0, 1.0, [0.4, 1.2], lambda t: np.log(0.4 + 1.2 * t)),
    "degree6": (0.0, 1.0, [0.0, 0.0, 0.0, 140.0, -420.0, 420.0, -140.0],
                lambda t: math.log(140.0) + 3.0 * np.log(t) + 3.0 * np.log1p(-t)),
    "narrow": (0.0, 1e-3, [1000.0], lambda t: np.full_like(t, math.log(1000.0))),
}


def piece_measure(lo, hi, coeffs):
    return build_measure({"pieces": [{"lo": lo, "hi": hi, "coeffs": coeffs}]})


def log_trapezoid_extrapolated(log_f, a, b, n=100_001):
    """log_trapezoid at n and 2n - 1 points, Richardson-extrapolated in h^2."""
    coarse = log_trapezoid(log_f, a, b, n)
    fine = log_trapezoid(log_f, a, b, 2 * n - 1)
    return fine + (fine - coarse) / 3.0


@pytest.mark.parametrize("delta", [1e-4, 1e-2, 1.0, 1e2, 1e4])
@pytest.mark.parametrize("name", sorted(KERNEL_PIECES))
def test_piece_kernel_against_dense_oracle(name, delta):
    lo, hi, coeffs, log_q = KERNEL_PIECES[name]
    d = MollifiedDensity(piece_measure(lo, hi, coeffs), delta)
    sd = math.sqrt(delta)
    for x in (lo - 40.0 * sd, lo - sd, lo + 0.3 * (hi - lo), hi + 0.5 * sd, hi + 40.0 * sd):
        # the oracle grids cover where the integrand is within e^-60 of its
        # largest kernel value
        c = min(max(x, lo), hi)
        reach = math.sqrt((x - c) ** 2 + 120.0 * delta)
        a, b = max(lo, x - reach), min(hi, x + reach)
        with np.errstate(divide="ignore"):
            want = (
                log_trapezoid_extrapolated(
                    lambda t: log_q(t) - (x - t) ** 2 / (2 * delta)
                    - 0.5 * math.log(2 * math.pi * delta), a, b),
                log_trapezoid_extrapolated(
                    lambda t: log_q(t) + log_ndtr((x - t) / sd), lo, b),
                log_trapezoid_extrapolated(
                    lambda t: log_q(t) + log_ndtr((t - x) / sd), a, hi),
            )
        got = (log_density(d, x), tail_mass(d, x, "left"), tail_mass(d, x, "right"))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * max(1.0, abs(w)), (x, got, want)


@pytest.mark.parametrize("delta", [0.05, 1.0, 100.0])
@pytest.mark.parametrize("name", ["linear", "degree6", "narrow"])
def test_piece_score_matches_finite_difference(name, delta):
    lo, hi, coeffs, _ = KERNEL_PIECES[name]
    d = MollifiedDensity(piece_measure(lo, hi, coeffs), delta)
    sd = math.sqrt(delta)
    for x in (lo - 10.0 * sd, lo + 0.3 * (hi - lo), hi + 0.5 * sd, hi + 10.0 * sd):
        h = 1e-4 * sd
        fd = (log_density(d, x + h) - log_density(d, x - h)) / (2 * h)
        score = log_density_ratio_grad(d, x)
        assert abs(score - fd) <= 1e-6 * max(1.0 / sd, abs(score)), (x, score, fd)


def test_degree6_far_right_returns():
    # the expanded polynomial cancels near t = 1; quadrature of its
    # logarithm used to bisect rounding noise here without returning
    lo, hi, coeffs, log_q = KERNEL_PIECES["degree6"]
    delta, x = 0.05, 9.0
    got = log_density(MollifiedDensity(piece_measure(lo, hi, coeffs), delta), x)
    with np.errstate(divide="ignore"):
        want = log_trapezoid_extrapolated(
            lambda t: log_q(t) - (x - t) ** 2 / (2 * delta)
            - 0.5 * math.log(2 * math.pi * delta), lo, hi)
    assert got == pytest.approx(want, abs=1e-10 * abs(want))


def test_piece_paths_make_no_adaptive_quadrature_call(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a piece path called the adaptive quadrature")

    monkeypatch.setattr(mollify, "log_adaptive_quad", forbidden)
    d = MollifiedDensity(mixed_measure(), 0.3)
    xs = np.linspace(-6.0, 8.0, 50)
    for values in (log_density(d, xs), tail_mass(d, xs, "left"), tail_mass(d, xs, "right"),
                   log_density_ratio_grad(d, xs)):
        assert np.all(np.isfinite(values))


def _switch_point(n):
    """The z where h_0 .. h_(n-1) switch from the forward recurrence to the
    backward one: 2.5 for n <= 3, 5 / n above."""
    return 2.5 if n <= 3 else 5.0 / n


@pytest.mark.parametrize("n", range(1, 9))
def test_tail_integrals_of_each_z_are_its_own(n):
    # the kernel takes c's row of h_k from the rows of lo and hi, or h_k(0)
    switch = _switch_point(n)
    zs = np.array([0.0, math.nextafter(switch, 0.0), switch, math.nextafter(switch, 3.0),
                   40.0, 1e8, math.inf, math.nan])
    with np.errstate(invalid="ignore"):
        batch = mollify._scaled_tail_integrals(zs, n)
        for i, z in enumerate(zs):
            alone = mollify._scaled_tail_integrals(np.array([z]), n)
            assert batch[:, i].tobytes() == alone[:, 0].tobytes(), z


def test_tail_integrals_of_low_degree_match_quadrature():
    # h_k(z) = integral over s > 0 of s^k exp(-z s - s^2/2) / k!, for every
    # k <= 7 that pieces of degree <= 6 use and every count n of them, on both
    # sides of each n's switch from the forward recurrence to the backward one
    switches = sorted({_switch_point(n) for n in range(1, 9)})
    zs = np.concatenate([np.geomspace(0.25, 60.0, 40), [2.0, 2.375, 2.4, 3.0],
                         switches, np.nextafter(switches, 0.0), np.nextafter(switches, 3.0)])
    with mpmath.workdps(30):
        want = [[mpmath.quad(lambda s: s ** k * mpmath.exp(-mpmath.mpf(z) * s - s * s / 2),
                             [0, 1, 10, mpmath.inf]) / mpmath.factorial(k) for z in zs]
                for k in range(8)]
    for n in range(1, 9):
        h = mollify._scaled_tail_integrals(zs, n)
        for k in range(n):
            for z, got, w in zip(zs, h[k], want[k]):
                assert abs(got - w) <= 2e-14 * w, (n, k, z)


def test_array_evaluation_matches_scalar():
    d = MollifiedDensity(mixed_measure(), 0.3)
    xs = np.linspace(-6.0, 8.0, 12).reshape(3, 4)
    for fn in (lambda x: log_density(d, x), lambda x: tail_mass(d, x, "left"),
               lambda x: tail_mass(d, x, "right"), lambda x: log_density_ratio_grad(d, x)):
        grid = fn(xs)
        assert grid.shape == xs.shape
        scalars = [fn(float(x)) for x in xs.ravel()]
        assert all(isinstance(v, float) for v in scalars)
        assert np.array_equal(grid.ravel(), np.array(scalars))


# ---------------------------------------------------------------------------
# score p'/p
# ---------------------------------------------------------------------------

def test_score_gaussian_exact():
    d = MollifiedDensity(point_mass(0.0), 1.0)
    for x in (-7.0, -1.0, 0.3, 12.0):
        assert log_density_ratio_grad(d, x) == pytest.approx(-x, abs=1e-12)


def test_score_zero_at_symmetry_point():
    for delta in (0.2, 1.0):
        d = MollifiedDensity(two_point(), delta)
        assert log_density_ratio_grad(d, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_score_matches_finite_difference_uniform():
    d = MollifiedDensity(uniform(0, 1), 0.1)
    x = 3.0
    h = 1e-5 * max(1.0, abs(x))
    fd = (log_density(d, x + h) - log_density(d, x - h)) / (2 * h)
    score = log_density_ratio_grad(d, x)
    assert score == pytest.approx(fd, rel=1e-5)


def test_score_finite_difference_probe_set():
    # spec invariant: 100 random probes, 1e-5 relative agreement
    d = MollifiedDensity(mixed_measure(), 0.3)
    rng = np.random.default_rng(11)
    xs = rng.uniform(-4.0, 6.0, size=100)
    for x in xs:
        h = 1e-5 * max(1.0, abs(x))
        fd = (log_density(d, x + h) - log_density(d, x - h)) / (2 * h)
        score = log_density_ratio_grad(d, x)
        assert abs(score - fd) <= 1e-5 * max(1.0, abs(score))


@pytest.mark.parametrize("m,xs", [
    (point_mass(0.0), (-1e200, 1e200)),
    (two_point(), (-1e200, 1e200)),
    (uniform(0, 1), (-1e200, -1e16, 1e16, 1e200)),
], ids=["point_mass", "two_point", "uniform"])
def test_score_where_every_mass_underflows(m, xs):
    # every log mass is -inf here, so the tilt sits on the nearest support
    # point t and the score is (t - x) / delta; it was nan or +inf
    d = MollifiedDensity(m, 1.0)
    a, b = m.support_lo, m.support_hi
    with np.errstate(all="ignore"):
        for x in xs:
            assert log_density_ratio_grad(d, x) == ((a if x < a else b) - x)
        got = log_density_ratio_grad(d, np.array([-math.inf, math.inf, math.nan]))
    assert got[0] == math.inf and got[1] == -math.inf and math.isnan(got[2])


def test_a_piece_1e300_wide_warns_of_nothing():
    # kernel widths, z and z^2 leave the float range across this piece; the
    # inf they give is the right value, and the score's nan rows (every mass
    # underflows) are replaced, so none of them may warn
    m = build_measure({"pieces": [{"lo": 0, "hi": 1e300, "coeffs": [1e-300]}]})
    xs = np.array([-1e300, -1.0, 0.0, 0.5, 1e200, 1e300, 1.5e300])
    for base, sign in ((m, 1.0), (m.mirror, -1.0)):
        d = MollifiedDensity(base, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_p = log_density(d, sign * xs)
            left, right = tail_mass(d, sign * xs, "left"), tail_mass(d, sign * xs, "right")
            score = log_density_ratio_grad(d, sign * xs)
            assert median(d) == sign * 5e299
        assert np.all(np.isfinite(log_p[1:6])) and np.all(log_p[[0, 6]] == NEG_INF)
        assert not np.any(np.isnan(left) | np.isnan(right) | np.isnan(score))


# ---------------------------------------------------------------------------
# tail masses
# ---------------------------------------------------------------------------

def test_tail_point_mass_median():
    d = MollifiedDensity(point_mass(0.0), 1.0)
    assert tail_mass(d, 0.0, "left") == pytest.approx(math.log(0.5), abs=1e-14)


def test_tail_two_point_symmetry():
    d = MollifiedDensity(two_point(), 1.0)
    assert tail_mass(d, 0.0, "left") == pytest.approx(math.log(0.5), abs=1e-12)


def test_tail_uniform_against_dense_oracle():
    d = MollifiedDensity(uniform(0, 1), 0.1)
    x = -2.0
    sd = math.sqrt(0.1)
    oracle = log_trapezoid(lambda t: norm.logcdf((x - t) / sd), 0.0, 1.0, n=2_000_001)
    assert tail_mass(d, x, "left") == pytest.approx(oracle, abs=1e-8)


def test_tails_sum_to_one():
    d = MollifiedDensity(mixed_measure(), 0.25)
    rng = np.random.default_rng(3)
    xs = rng.uniform(-6.0, 8.0, size=100)
    for x in xs:
        total = math.exp(tail_mass(d, x, "left")) + math.exp(tail_mass(d, x, "right"))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_tails_monotone():
    d = MollifiedDensity(mixed_measure(), 0.25)
    xs = np.linspace(-8.0, 10.0, 60)
    left = np.array([tail_mass(d, x, "left") for x in xs])
    right = np.array([tail_mass(d, x, "right") for x in xs])
    assert np.all(np.diff(left) >= -1e-12)
    assert np.all(np.diff(right) <= 1e-12)


def test_tail_side_validation():
    d = MollifiedDensity(point_mass(0.0), 1.0)
    with pytest.raises(errors.ValidationError):
        tail_mass(d, 0.0, "up")


# ---------------------------------------------------------------------------
# median
# ---------------------------------------------------------------------------

def test_median_point_mass():
    for delta in (0.1, 1.0, 4.0):
        assert median(MollifiedDensity(point_mass(0.0), delta)) == pytest.approx(0.0, abs=1e-10)


def test_median_two_point_symmetric():
    assert median(MollifiedDensity(two_point(), 0.7)) == pytest.approx(0.0, abs=1e-10)


def test_median_asymmetric_atoms_against_root_oracle():
    m = build_measure({"atoms": [{"x": 0.0, "w": 0.75}, {"x": 1.0, "w": 0.25}]})
    delta = 0.05
    d = MollifiedDensity(m, delta)
    got = median(d)
    sd = math.sqrt(delta)
    oracle = brentq(lambda t: 0.75 * norm.cdf(t / sd) + 0.25 * norm.cdf((t - 1) / sd) - 0.5,
                    -2.0, 2.0, xtol=1e-14)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert math.exp(tail_mass(d, got, "left")) == pytest.approx(0.5, abs=1e-10)


def test_median_is_within_one_ulp_far_from_the_origin():
    # the float minimising |F - 1/2| among the 129 floats within 64 ulps of
    # the returned median lies at most one ulp from it
    rng = np.random.default_rng(20261018)
    steps = np.arange(-64, 65)
    for _ in range(200):
        k = int(rng.integers(1, 4))
        shift = float(rng.choice([1e7, 1e8, 3e9])) * float(rng.choice([-1.0, 1.0]))
        w = rng.uniform(0.1, 1.0, size=k)
        atoms = [{"x": shift + float(x), "w": float(v)}
                 for x, v in zip(rng.uniform(-2.0, 2.0, size=k), w / w.sum())]
        d = MollifiedDensity(build_measure({"atoms": atoms}), float(rng.uniform(0.05, 1.5)))
        got = median(d)
        # neighbouring floats of one sign are neighbouring integers of their bits
        xs = (np.float64(got).view(np.int64) + steps).view(np.float64)
        best = int(np.argmin(np.abs(np.exp(tail_mass(d, xs, "left")) - 0.5)))
        assert abs(int(steps[best])) <= 1, (atoms, d.delta, got, xs[best])


def _scalar_bisection(excess, lo, hi):
    """One midpoint per level: the reference for ``half_crossing``'s default."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        e = excess(mid)
        if abs(e) <= 1e-13:
            return mid
        lo, hi = (mid, hi) if e < 0.0 else (lo, mid)


@pytest.mark.parametrize("root", [0.3, -7.25, 1.0 / 3.0, 1e8 + 0.5])
def test_half_crossing_with_one_point_per_level_is_the_scalar_bisection(root):
    # the detector's median keeps its midpoints, each passed as a float
    visits = ([], [])

    def excess(seen):
        def f(x):
            seen.append(x)
            return 0.25 * math.tanh(x - root)
        return f
    want = _scalar_bisection(excess(visits[0]), root - 60.0, root + 60.0)
    assert mollify.half_crossing(excess(visits[1]), root - 60.0, root + 60.0) == want
    assert visits[0] == visits[1] and {type(x) for x in visits[1]} == {float}


# oracle measures, (atoms, constant pieces, delta), one of them at 1e8 and one
# at delta 1e-3
_MEDIAN_CASES = {
    "gaussian": ([(0.0, 1.0)], [], 1.0),
    "asym_atoms": ([(-1.0, 0.75), (2.0, 0.25)], [], 0.5),
    "atoms_075_025": ([(0.0, 0.75), (1.0, 0.25)], [], 0.2),
    "uniform": ([], [(0.0, 1.0, 1.0)], 0.1),
    "atom_and_uniform": ([(-0.5, 0.3)], [(0.0, 2.0, 0.35)], 0.7),
    "uneven_uniforms": ([], [(0.0, 1.0, 0.7), (2.0, 3.0, 0.3)], 0.25),
    "asym_atoms_at_1e8": ([(1e8 - 1.0, 0.75), (1e8 + 2.0, 0.25)], [], 0.5),
    "asym_atoms_delta_1e-3": ([(-1.0, 0.6), (1.0, 0.4)], [], 1e-3),
}


@pytest.mark.parametrize("name", sorted(_MEDIAN_CASES))
def test_batched_median_meets_the_stop_rule(name):
    # |F(m) - 1/2| <= 1e-13, or F - 1/2 changes sign within one ulp of m
    atoms, pieces, delta = _MEDIAN_CASES[name]
    d = MollifiedDensity(build_measure({
        "atoms": [{"x": x, "w": w} for x, w in atoms],
        "pieces": [{"lo": lo, "hi": hi, "coeffs": [c]} for lo, hi, c in pieces]}), delta)
    m = median(d)
    around = np.array([np.nextafter(m, -np.inf), m, np.nextafter(m, np.inf)])
    excess = np.exp(tail_mass(d, around, "left")) - 0.5
    assert abs(excess[1]) <= 1e-13 or excess[0] < 0.0 <= excess[2]
    oracle = MollifiedOracle(atoms, pieces, delta).median(m - 50.0, m + 50.0)
    assert m == pytest.approx(oracle, abs=1e-9 + 4.0 * math.ulp(m))


@pytest.mark.parametrize("spec,delta,calls", [
    ({"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]}, 1.0, 0),
    ({"atoms": [{"x": -1.0, "w": 0.3}, {"x": 0.0, "w": 0.4}, {"x": 1.0, "w": 0.3}]}, 0.2, 0),
    ({"pieces": [{"lo": -1.0, "hi": 1.0, "coeffs": [0.5]}]}, 1.0, 0),
    ({"atoms": [{"x": x, "w": 1.0 / 3.0} for x in (0.0, -1.0, 1.0)]}, 0.2, 1),
    ({"atoms": [{"x": -1.0, "w": 0.25}],
      "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.0, 1.5]}]}, 0.5, 12),
], ids=["two_point", "three_atoms", "uniform_sym", "three_atoms_out_of_order", "atom_degree1"])
def test_median_tail_mass_calls(monkeypatch, spec, delta, calls):
    # none for a measure that is its own mirror, whose median is 0; else the
    # first midpoint alone, which is the median of any other measure
    # symmetric about 0; after a miss, 32 points per call; one per bisection
    # step took 46
    seen = []
    inner = mollify.tail_mass

    def counted(d, x, side):
        seen.append(np.size(x))
        return inner(d, x, side)
    monkeypatch.setattr(mollify, "tail_mass", counted)
    m = median(MollifiedDensity(build_measure(spec), delta))
    if calls == 0:
        assert seen == [] and m == 0.0
    elif calls == 1:
        assert seen == [1] and m == 0.0
    else:
        assert seen[0] == 1 and len(seen) <= calls and max(seen) == 32


# ---------------------------------------------------------------------------
# reciprocal integral
# ---------------------------------------------------------------------------

def test_reciprocal_gaussian_against_simpson():
    d = MollifiedDensity(point_mass(0.0), 1.0)
    oracle = log_trapezoid(lambda t: LOG_SQRT_2PI + t * t / 2.0, -1.0, 0.0, n=10_000_001)
    assert reciprocal_integral(d, -1.0, 0.0) == pytest.approx(oracle, abs=1e-7)


def test_reciprocal_empty_interval():
    d = MollifiedDensity(point_mass(0.0), 1.0)
    assert reciprocal_integral(d, 0.3, 0.3) == float("-inf")


def test_reciprocal_uniform_against_dense_oracle():
    delta = 0.1
    d = MollifiedDensity(uniform(0, 1), delta)
    m = median(d)
    oracle_density = MollifiedOracle([], [(0.0, 1.0, 1.0)], delta)

    def neg_log_p(t):
        return -np.log(oracle_density.pdf(t))

    oracle = log_trapezoid(neg_log_p, -3.0, m, n=4_000_001)
    assert reciprocal_integral(d, -3.0, m) == pytest.approx(oracle, abs=1e-7)


def test_reciprocal_order_insensitive():
    d = MollifiedDensity(two_point(), 0.5)
    assert reciprocal_integral(d, -2.0, 0.0) == pytest.approx(
        reciprocal_integral(d, 0.0, -2.0), abs=1e-12)


@pytest.mark.parametrize("spec,delta", [
    ({"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]}, 0.05),
    ({"pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.5]},
                 {"lo": 2.0, "hi": 3.0, "coeffs": [0.5]}]}, 0.1),
    ({"atoms": [{"x": -1.0, "w": 0.25}],
      "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.0, 1.5]}]}, 0.5),
], ids=["two_point", "two_uniforms", "atom_degree1"])
def test_reciprocal_array_matches_scalar_calls(spec, delta):
    # one batched call over the cells between the points equals one interval
    # per point, on either side of the median
    d = MollifiedDensity(build_measure(spec), delta)
    m = median(d)
    a, b = d.support()
    for xs in (np.linspace(a - 2.0, m, 41)[:-1], np.linspace(b + 2.0, m, 41)[:-1]):
        got = reciprocal_integral(d, xs, m)
        want = [reciprocal_integral(d, x, m) for x in xs]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert reciprocal_integral(d, np.array([m, a - 1.0, m]), m)[[0, 2]].tolist() == [NEG_INF] * 2


def test_reciprocal_is_mirror_exact_on_two_point():
    # the right side is integrated as the left side of the mirror image
    d = MollifiedDensity(two_point(), 0.5)
    xs = np.linspace(-4.0, 0.0, 101)[:-1]
    np.testing.assert_array_equal(reciprocal_integral(d, xs, 0.0),
                                  reciprocal_integral(d, -xs, 0.0))
    for x in xs[::10]:
        assert reciprocal_integral(d, x, 0.0) == reciprocal_integral(d, -x, 0.0)


def test_right_side_is_the_left_side_of_the_mirror():
    # three unequal atoms and a degree-2 piece: the right tail and the right
    # integral of 1/p are those of the mirror image, bit for bit
    d = MollifiedDensity(build_measure({
        "atoms": [{"x": -1.5, "w": 0.2}, {"x": -0.5, "w": 0.1}, {"x": 2.0, "w": 0.3}],
        "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.0, 0.0, 1.2]}]}), 0.3)
    m = median(d)
    xs = np.linspace(-4.0, 5.0, 37)
    np.testing.assert_array_equal(tail_mass(d, xs, "right"), tail_mass(d.mirror, -xs, "left"))
    right = np.linspace(m + 4.0, m, 21)[:-1]
    np.testing.assert_array_equal(reciprocal_integral(d, right, m),
                                  reciprocal_integral(d.mirror, -right, -m))
    assert reciprocal_integral(d, 3.0, m) == reciprocal_integral(d.mirror, -3.0, -m)


@pytest.mark.parametrize("spec", [
    {"atoms": [{"x": -1.0, "w": 0.3}, {"x": 0.0, "w": 0.4}, {"x": 1.0, "w": 0.3}]},
    {"pieces": [{"lo": -1.0, "hi": 1.0, "coeffs": [0.5]}]},
], ids=["three_atoms", "uniform_sym"])
def test_tails_and_reciprocal_are_mirror_exact_on_symmetric_measures(spec):
    # a symmetric measure listed left to right is its own mirror, so the
    # right side at x gives the left side's bits at -x
    d = MollifiedDensity(build_measure(spec), 1.0)
    xs = np.linspace(-3.0, -0.01, 2000)
    assert median(d) == 0.0
    np.testing.assert_array_equal(tail_mass(d, -xs, "right"), tail_mass(d, xs, "left"))
    np.testing.assert_array_equal(reciprocal_integral(d, -xs, 0.0),
                                  reciprocal_integral(d, xs, 0.0))


def test_reciprocal_points_on_both_sides_are_rejected():
    d = MollifiedDensity(two_point(), 0.5)
    with pytest.raises(errors.WrongSide):
        reciprocal_integral(d, np.array([-1.0, 1.0]), 0.0)


def test_reciprocal_huge_dynamic_range():
    # integrand spans e^{1200}; answer must match the Laplace asymptote
    d = MollifiedDensity(two_point(), 1.0)
    val = reciprocal_integral(d, -50.0, 0.0)
    # 1/p(t) ~ 2 sqrt(2pi) exp((t+1)^2/2) near t = -50: integral ~ that / 49
    approx = math.log(2.0) + LOG_SQRT_2PI + 49.0 ** 2 / 2.0 - math.log(49.0)
    assert val == pytest.approx(approx, abs=0.01)


# ---------------------------------------------------------------------------
# asymptotic ratios
# ---------------------------------------------------------------------------

def test_ratio1_exact_for_gaussian():
    d = MollifiedDensity(point_mass(0.0), 1.0)
    rep = asymptotic_ratios(d, -50.0, "left")
    assert rep.ratio_lemma1 == pytest.approx(1.0, abs=1e-12)


def test_two_point_ratios_within_bound():
    d = MollifiedDensity(two_point(), 1.0)
    rep = asymptotic_ratios(d, -50.0, "left")
    for r in (rep.ratio_lemma1, rep.ratio_lemma2, rep.ratio_lemma3):
        assert abs(r - 1.0) <= 0.05
    rep100 = asymptotic_ratios(d, -100.0, "left")
    for r in (rep100.ratio_lemma1, rep100.ratio_lemma2, rep100.ratio_lemma3):
        assert abs(r - 1.0) <= 0.025


def test_right_side_ratios():
    d = MollifiedDensity(two_point(), 1.0)
    rep = asymptotic_ratios(d, 50.0, "right")
    for r in (rep.ratio_lemma1, rep.ratio_lemma2, rep.ratio_lemma3):
        assert abs(r - 1.0) <= 0.05


def test_uniform_ratios_at_minus_30():
    d = MollifiedDensity(uniform(0, 1), 0.5)
    rep = asymptotic_ratios(d, -30.0, "left")
    for r in (rep.ratio_lemma1, rep.ratio_lemma2, rep.ratio_lemma3):
        assert abs(r - 1.0) <= 0.05


def test_ratio_convergence_rate():
    # |ratio - 1| eventually below 2 max(|a|,|b|) / |x| for supp in [-1, 1]
    d = MollifiedDensity(two_point(), 1.0)
    for x in (-20.0, -35.0, -50.0, -100.0):
        rep = asymptotic_ratios(d, x, "left")
        bound = 2.0 / abs(x)
        for r in (rep.ratio_lemma1, rep.ratio_lemma2, rep.ratio_lemma3):
            assert abs(r - 1.0) <= bound


def test_inside_support_rejected():
    d = MollifiedDensity(two_point(), 1.0)
    with pytest.raises(errors.InsideSupport):
        asymptotic_ratios(d, 0.0, "left")
    with pytest.raises(errors.InsideSupport):
        asymptotic_ratios(d, 0.5, "right")


def test_delta_must_be_positive():
    with pytest.raises(errors.NonPositiveDelta):
        MollifiedDensity(point_mass(0.0), 0.0)


def test_delta_must_be_a_normal_double():
    # the smallest normal double is accepted, the subnormals below it are not
    MollifiedDensity(point_mass(0.0), sys.float_info.min)
    for delta in (math.nextafter(sys.float_info.min, 0.0), 1e-310, 5e-324):
        with pytest.raises(errors.NonPositiveDelta, match=f"got {delta!r}"):
            MollifiedDensity(point_mass(0.0), delta)


# ---------------------------------------------------------------------------
# signed log-sum-exp down the columns
# ---------------------------------------------------------------------------

def _exact_signed_sum(col, weights):
    """s = sum w exp(a) over one column, and sum |w| exp(a), to 40 digits;
    the sum of the weighted +inf terms (IEEE: 0 inf and inf - inf are nan)."""
    s = mag = mpmath.mpf(0)
    for a, w in zip(col.tolist(), weights.tolist()):
        if -math.inf < a < math.inf:
            term = mpmath.exp(mpmath.mpf(a))
            s, mag = s + w * term, mag + abs(w) * term
    return s, mag, sum(w * math.inf for a, w in zip(col.tolist(), weights.tolist())
                       if a == math.inf)


@pytest.mark.parametrize("order", ["C", "F"])
def test_logsumexp_is_accurate_and_each_column_stands_alone(order):
    # columns with -inf entries, all -inf columns, ties at the maximum,
    # zero and negative weights, +inf and nan entries, one-column arrays
    # and columns far from the origin, in both memory orders.  The bound
    # is 2 eps (k + |max a| + |log mag|) of mag = sum |w| exp(a), so a sum
    # that cancels is judged against its terms: k roundings in the running
    # sum, the shifts a - max inside the exps, and the rounding of
    # log|s| + max.  (1,500 such arrays reach 0.64 of it.)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(7)
    for trial in range(150):
        k, n = int(rng.integers(1, 24)), 1 if trial % 4 == 0 else int(rng.integers(2, 30))
        a = rng.normal(0.0, 8.0, size=(k, n)) + rng.choice([0.0, 0.0, 800.0, -900.0], size=n)
        a[rng.random((k, n)) < 0.2] = -np.inf
        tied = rng.random(n) < 0.3
        a[:min(k, 3), tied] = a[:, tied].max(axis=0)
        a[:, rng.random(n) < 0.05] = -np.inf
        a[rng.random((k, n)) < 0.01] = np.inf
        a[rng.random((k, n)) < 0.01] = np.nan
        a = np.asarray(a, order=order)
        b = np.asarray(rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0], size=(k, n)), order=order)
        # one sign per row, as the quadrature-node terms pass them
        signs = rng.choice([-1.0, 1.0], size=(k, 1))
        with mpmath.workdps(40):
            for weights in (None, b, signs):
                log_abs, sign = mollify._logsumexp(a, weights)
                w = np.broadcast_to(1.0 if weights is None else weights, a.shape)
                for j in range(n):
                    # the same value alone (a nan's sign bit may differ)
                    alone = mollify._logsumexp(a[:, j:j + 1], w[:, j:j + 1])
                    assert np.array_equal(log_abs[j:j + 1], alone[0], equal_nan=True)
                    assert np.array_equal(sign[j:j + 1], alone[1], equal_nan=True)
                    s, mag, at_inf = _exact_signed_sum(a[:, j], w[:, j])
                    if np.isnan(a[:, j]).any() or math.isnan(at_inf):
                        assert np.isnan(log_abs[j]) and np.isnan(sign[j])
                    elif at_inf:
                        assert log_abs[j] == math.inf and sign[j] == math.copysign(1.0, at_inf)
                    elif mag == 0:
                        assert log_abs[j] == -math.inf and sign[j] == 0.0
                    else:
                        got = sign[j] * mpmath.exp(log_abs[j]) if log_abs[j] > -math.inf else 0
                        top = np.max(a[:, j])
                        assert abs(got - s) <= 2 * eps * (k + abs(top) + abs(mpmath.log(mag))) * mag


# ---------------------------------------------------------------------------
# bit-level guard on the kernel
# ---------------------------------------------------------------------------

# (spec, delta) for each guard measure: the degree-3 piece sits on
# [0.5, 1.5] as q(t - 0.5), q(s) = 0.5 + s - 1.5 s^2 + 2 s^3, so its
# coefficients are dyadic and its mass is exactly 1
GUARD_MEASURES = {
    "uniform": ({"pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [1.0]}]}, 1.0),
    "atom_linear": ({"atoms": [{"x": -1.0, "w": 0.25}],
                     "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.0, 1.5]}]}, 0.5),
    "degree3": ({"pieces": [{"lo": 0.5, "hi": 1.5,
                             "coeffs": [-0.125, 3.5, -4.5, 2.0]}]}, 0.05),
    "two_uniforms": ({"pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.5]},
                                 {"lo": 2.0, "hi": 3.0, "coeffs": [0.5]}]}, 0.1),
    "far_unit": ({"pieces": [{"lo": 1e8, "hi": 1e8 + 1.0, "coeffs": [1.0]}]}, 0.1),
}


def guard_points(m, delta):
    """Inside, at every piece end, either side of z = 2.5 past each end of
    the support, 40 sigma out, +-1e16, +-inf and nan."""
    a, b, sd = m.support_lo, m.support_hi, math.sqrt(delta)
    ends = [e for p in m.pieces for e in (p.lo, p.hi)]
    near = [e + s * k * sd for e, s in ((a, -1.0), (b, 1.0)) for k in (2.4999, 2.5001, 40.0)]
    return np.array([a + 0.3 * (b - a)] + ends + near
                    + [-1e16, 1e16, -math.inf, math.inf, math.nan])


def guard_hex(name):
    """float.hex of log p, the left and right log tail masses and the score
    at the guard points; each piece's mass below its quartile points; and
    the measure's quantiles at a few levels."""
    spec, delta = GUARD_MEASURES[name]
    m = build_measure(spec)
    d = MollifiedDensity(m, delta)
    xs = guard_points(m, delta)
    with np.errstate(all="ignore"):
        rows = [log_density(d, xs), tail_mass(d, xs, "left"), tail_mass(d, xs, "right"),
                log_density_ratio_grad(d, xs)]
    rows += [np.array([p.mass_below(p.lo + f * (p.hi - p.lo)) for f in (0.25, 0.5, 1.0)])
             for p in m.pieces]
    rows.append(quantile(m, np.array([0.1, 0.25, 0.5, 0.9])))
    return tuple(" ".join(float(v).hex() for v in row) for row in rows)


# recorded from the kernel that sums its terms down contiguous columns with
# one signed max-shift, on mollify's own erfcx and log_ndtr and the tail
# integrals whose forward recurrence stops at z = 2.5 for n <= 3 and 5 / n
# above (numpy 2.4.6, x86-64); numpy's vectorized log and exp may round
# differently on another CPU.  The score row's entries at +-inf, and at
# +-1e16 on uniform and far_unit, come from the nearest-support tilt where
# every mass underflows.  The right-tail row is the mirror image's left
# tail: the far-end terms of its atoms and pieces first, then the kernel
# terms of its pieces, right to left
GUARD_HEX = {
    'atom_linear': (
        '-0x1.6afe1ead60c25p+0 -0x1.243413fdee705p+0 -0x1.008545b007084p+0 -0x1.45399c9fbd222p+2 -0x1.4541d08264f5dp+2 -0x1.90fab5591b706p+9 -0x1.3bbcf99508f31p+2 -0x1.3bc5f731f51d1p+2 -0x1.921c42daffb0bp+9 -0x1.3b8b5b5056e17p+106 -0x1.3b8b5b5056e16p+106 -inf -inf nan',
        '-0x1.5ac93850c15cep+0 -0x1.fdc064f2b4978p-1 -0x1.2254266fcbfe8p-2 -0x1.9ddc2345cf9c7p+2 -0x1.9de564bf11a09p+2 -0x1.92ff5385831cbp+9 -0x1.b84cd02aed900p-10 -0x1.b8085dcf17600p-10 0x0.0p+0 -0x1.3b8b5b5056e16p+106 0x0.0p+0 -inf 0x0.0p+0 nan',
        '-0x1.31a031cef6146p-2 -0x1.d84f400a864e6p-2 -0x1.661c894c6e025p+0 -0x1.97d6185dd3400p-10 -0x1.979b158e03400p-10 0x0.0p+0 -0x1.98f64ae9612f5p+2 -0x1.99003c844ac36p+2 -0x1.9420f512a5f16p+9 0x0.0p+0 -0x1.3b8b5b5056e16p+106 0x0.0p+0 -inf nan',
        '0x1.48f89e326458ep-1 0x1.5bc23a1680e3ep-1 -0x1.39370422c0df6p-1 0x1.c51ec4b182d2ep+1 0x1.c527facb904a1p+1 0x1.c48c6001f0ac0p+5 -0x1.f0a6f08ab46e5p+1 -0x1.f0afc5406ab12p+1 -0x1.c4d364f6d6b97p+5 0x1.1c37937e08000p+54 -0x1.1c37937e08000p+54 inf -inf nan',
        '0x1.8000000000000p-5 0x1.8000000000000p-3 0x1.8000000000000p-1',
        '-0x1.0000000000000p+0 -0x1.0000000000000p+0 0x1.279a74590331cp-1 0x1.dca56432dd39bp-1',
    ),
    'degree3': (
        '-0x1.07c5eec37d094p-2 -0x1.d538bf29e6db0p-1 -0x1.ad79f36f80e5cp-2 -0x1.5580447acb9a3p+2 -0x1.558989e765d93p+2 -0x1.92723e6e5fe2ep+9 -0x1.29b04fc3e4e56p+2 -0x1.29b9748143ea8p+2 -0x1.9207aaa0a83ebp+9 -0x1.8a6e32246c99cp+109 -0x1.8a6e32246c999p+109 -inf -inf nan',
        '-0x1.6161e643653a1p+0 -0x1.53595a047f8cap+1 -0x1.0ed2441c6b6d4p-3 -0x1.fddac66d060bbp+2 -0x1.fde4f23bdcc23p+2 -0x1.950a4ea3adf39p+9 -0x1.6c90c6b657520p-11 -0x1.6c577077051e8p-11 0x0.0p+0 -0x1.8a6e32246c99cp+109 0x0.0p+0 -inf 0x0.0p+0 nan',
        '-0x1.289b35cb28d5ep-2 -0x1.2bc1a231aa598p-4 -0x1.0b5597d13652fp+1 -0x1.6bd00ba31b000p-12 -0x1.6b963c20d2110p-12 0x0.0p+0 -0x1.d15f3c81a02d4p+2 -0x1.d1694d3090e73p+2 -0x1.949fba8aade10p+9 0x0.0p+0 -0x1.8a6e32246c999p+109 0x0.0p+0 -inf nan',
        '0x1.2187dd3749868p+0 0x1.d6936b8a7786ap+1 -0x1.8a434a53b77e8p+1 0x1.94e3b57284fdcp+3 0x1.94ea5db395ca7p+3 0x1.65feb6e5dc22cp+7 -0x1.8f50361de20e5p+3 -0x1.8f56fd731e40ap+3 -0x1.65fde3d32b0cdp+7 0x1.6345785d8a000p+57 -0x1.6345785d8a000p+57 inf -inf nan',
        '0x1.9400000000000p-3 0x1.a000000000000p-2 0x1.0000000000000p+0',
        '0x1.42105aefde112p-1 0x1.a10fa2838e303p-1 0x1.1a77e1ad2cbe8p+0 0x1.707a6dad84d4dp+0',
    ),
    'far_unit': (
        '-0x1.a27fd1590ece6p-3 -0x1.63b1873e58236p-1 -0x1.63b1873e58236p-1 -0x1.45351eb628ae9p+2 -0x1.453e5ef7dee55p+2 -0x1.924de172326b8p+9 -0x1.45351eb628ae9p+2 -0x1.453e5ef7dee55p+2 -0x1.924de172326b8p+9 -inf -inf -inf -inf nan',
        '-0x1.1dbc443d2059cp+0 -0x1.090ed38a516edp+1 -0x1.1406005a22f70p-3 -0x1.d743fe25c7c19p+2 -0x1.d74e25b2a246ep+2 -0x1.94b9950f6d302p+9 -0x1.4c7ba1d7e78b8p-11 -0x1.4c46e0f73f5a8p-11 0x0.0p+0 -0x1.8a6e32a8c5eb3p+108 0x0.0p+0 -inf 0x0.0p+0 nan',
        '-0x1.9654ebe2ee106p-2 -0x1.1406005a22f70p-3 -0x1.090ed38a516edp+1 -0x1.4c7ba1d7e78b8p-11 -0x1.4c46e0f73f5a8p-11 0x0.0p+0 -0x1.d743fe25c7c19p+2 -0x1.d74e25b2a246ep+2 -0x1.94b9950f6d302p+9 0x0.0p+0 -0x1.8a6e31a013487p+108 0x0.0p+0 -inf nan',
        '0x1.b4dbcd0000000p-1 0x1.4149b14000000p+1 -0x1.4149ab0000000p+1 0x1.1da1d1a000000p+3 0x1.1da688d000000p+3 0x1.fa47d6fe00000p+6 -0x1.1da1cfc000000p+3 -0x1.1da6874000000p+3 -0x1.fa47c15a00000p+6 0x1.6345789924ca0p+56 -0x1.63457821ef360p+56 inf -inf nan',
        '0x1.0000000000000p-2 0x1.0000000000000p-1 0x1.0000000000000p+0',
        '0x1.7d78400666667p+26 0x1.7d78401000000p+26 0x1.7d78402000000p+26 0x1.7d7840399999ap+26',
    ),
    'two_uniforms': (
        '-0x1.2af283cd112ddp+0 -0x1.634adb99ec47dp+0 -0x1.62e42ff0badb8p+0 -0x1.62e42ff0badb6p+0 -0x1.634adb99ec47dp+0 -0x1.7191a4cef6c6ep+2 -0x1.719ae4b20457ap+2 -0x1.92a69a798733cp+9 -0x1.7191a4cef6c6fp+2 -0x1.719ae4b20457cp+2 -0x1.92a69a798733cp+9 -0x1.8a6e32246c99fp+108 -0x1.8a6e32246c997p+108 -inf -inf nan',
        '-0x1.c9dd79dbffbfep-1 -0x1.61c7df8ec7239p+1 -0x1.a7db96b9e21dap-1 -0x1.261f1dea424afp-1 -0x1.0abae594e5ba8p-4 -0x1.01d042209a98ep+3 -0x1.01d555b3143b3p+3 -0x1.95124e16c13a6p+9 -0x1.4c6e22b792800p-12 -0x1.4c39683a58000p-12 0x0.0p+0 -0x1.8a6e32246c99cp+108 0x0.0p+0 -inf 0x0.0p+0 nan',
        '-0x1.0d33420827d29p-1 -0x1.0abae594e5ba0p-4 -0x1.261f1dea424afp-1 -0x1.a7db96b9e21dcp-1 -0x1.61c7df8ec7239p+1 -0x1.4c6e22b793000p-12 -0x1.4c39683a58000p-12 0x0.0p+0 -0x1.01d042209a98dp+3 -0x1.01d555b3143b4p+3 -0x1.95124e16c13a6p+9 0x0.0p+0 -0x1.8a6e32246c997p+108 0x0.0p+0 -inf nan',
        '-0x1.e38a301ecc2b4p+0 0x1.4149ae315ff40p+1 -0x1.3e9bd8bc2d620p+1 0x1.3e9bd8bc2d634p+1 -0x1.4149ae315ff3ap+1 0x1.1da1d1a3a4872p+3 0x1.1da689ff806c6p+3 0x1.fa47bf137266ep+6 -0x1.1da1d1a3a4878p+3 -0x1.1da689ff806c3p+3 -0x1.fa47bf13726ebp+6 0x1.6345785d8a000p+56 -0x1.6345785d8a000p+56 inf -inf nan',
        '0x1.0000000000000p-3 0x1.0000000000000p-2 0x1.0000000000000p-1',
        '0x1.0000000000000p-3 0x1.0000000000000p-2 0x1.0000000000000p-1',
        '0x1.999999999999ap-3 0x1.0000000000000p-1 0x1.0000000000000p+0 0x1.6666666666667p+1',
    ),
    'uniform': (
        '-0x1.f4e46670ab064p-1 -0x1.132a2d6d93370p+0 -0x1.132a2d6d93370p+0 -0x1.47a6bc8c60cd6p+2 -0x1.47afde1e7af10p+2 -0x1.924de16d8b4aep+9 -0x1.47a6bc8c60cd6p+2 -0x1.47afde1e7af10p+2 -0x1.924de16d8b4aep+9 -inf -inf -inf -inf nan',
        '-0x1.b7732929cb28dp-1 -0x1.2737c55349e1fp+0 -0x1.845a9ce171068p-2 -0x1.8f7a733373e16p+2 -0x1.8f84842c3ed7bp+2 -0x1.9426377ce7a6dp+9 -0x1.feb22a1238f98p-10 -0x1.fe61c91855b60p-10 0x0.0p+0 -0x1.3b8b5b5056e17p+105 0x0.0p+0 -inf 0x0.0p+0 nan',
        '-0x1.1a56ad5b4fbfap-1 -0x1.845a9ce171068p-2 -0x1.2737c55349e1fp+0 -0x1.feb22a1238f98p-10 -0x1.fe61c91855b60p-10 0x0.0p+0 -0x1.8f7a733373e16p+2 -0x1.8f84842c3ed7bp+2 -0x1.9426377ce7a6dp+9 0x0.0p+0 -0x1.3b8b5b5056e17p+105 0x0.0p+0 -inf nan',
        '0x1.789c80464f9bcp-3 0x1.d6e61fcdcdad1p-2 -0x1.d6e61fcdcdad6p-2 0x1.64ac42af20461p+1 0x1.64b2738b2b5f6p+1 0x1.403322ddf1646p+5 -0x1.64ac42af20460p+1 -0x1.64b2738b2b5f8p+1 -0x1.403322ddf1646p+5 0x1.1c37937e08000p+53 -0x1.1c37937e08000p+53 inf -inf nan',
        '0x1.0000000000000p-2 0x1.0000000000000p-1 0x1.0000000000000p+0',
        '0x1.999999999999ap-4 0x1.0000000000000p-2 0x1.0000000000000p-1 0x1.ccccccccccccdp-1',
    ),
}


@pytest.mark.parametrize("name", sorted(GUARD_MEASURES))
def test_nan_point_gives_nan_on_every_measure(name):
    # the piece kernel used to send a nan sum to -inf, so log p was -inf
    # at x = nan on measures made of pieces only, and nan with an atom
    spec, delta = GUARD_MEASURES[name]
    d = MollifiedDensity(build_measure(spec), delta)
    fns = (lambda x: log_density(d, x), lambda x: tail_mass(d, x, "left"),
           lambda x: tail_mass(d, x, "right"), lambda x: log_density_ratio_grad(d, x))
    with np.errstate(invalid="ignore"):
        for fn in fns:
            assert math.isnan(fn(math.nan))
            both = fn(np.array([0.5, math.nan]))
            assert math.isfinite(both[0]) and math.isnan(both[1])


@pytest.mark.parametrize("name", sorted(GUARD_MEASURES))
def test_kernel_bits_are_pinned(name):
    assert guard_hex(name) == GUARD_HEX[name]


# ---------------------------------------------------------------------------
# erfcx and log Phi in numpy
# ---------------------------------------------------------------------------

def erfcx_table(cells=32, degree=7):
    """``mollify._ERFCX_POLYS`` from its definition: on cell j of [0, 1],
    the polynomial in v = cells y - j - 1/2 through f(y) = erfcx(x) / y,
    x = 4 / y - 4, at the degree + 1 Chebyshev points of the cell, solved
    with mpmath at 40 digits (where its doubles no longer move) and rounded
    to doubles; one row of coefficients of v^0 .. v^degree per cell."""
    m = degree + 1
    with mpmath.workdps(40):
        vs = [mpmath.cos(mpmath.pi * (2 * i + 1) / (2 * m)) / 2 for i in range(m)]
        vander = mpmath.matrix([[v ** k for k in range(m)] for v in vs])
        rows = []
        for j in range(cells):
            xs = [4 * cells / (j + mpmath.mpf(0.5) + v) - 4 for v in vs]
            fs = [mpmath.erfc(x) * mpmath.exp(x * x) * (4 + x) / 4 for x in xs]
            rows.append([float(c) for c in mpmath.lu_solve(vander, mpmath.matrix(fs))])
    return np.array(rows)


@pytest.mark.slow
def test_erfcx_table_is_its_mpmath_fit():
    assert np.array_equal(erfcx_table(), mollify._ERFCX_POLYS)


def _mp_erfcx(x):
    """erfcx at 40 digits; from 1e8 on, where mpmath's erfc gives out, its
    asymptotic series (the next term is below 1e-48)."""
    x = mpmath.mpf(x)
    if x > 1e8:
        return (1 - 1 / (2 * x * x) + 3 / (4 * x ** 4)) / (x * mpmath.sqrt(mpmath.pi))
    return mpmath.erfc(x) * mpmath.exp(x * x)


def test_erfcx_matches_mpmath_on_a_log_grid():
    # scipy's erfcx errs by up to 7.7e-16 on this grid, this one by 7.5e-16
    xs = np.concatenate([[0.0], np.geomspace(1e-12, 1e300, 700), np.linspace(0.05, 30.0, 300)])
    got = mollify.erfcx(xs)
    with mpmath.workdps(40):
        for x, value in zip(xs.tolist(), got.tolist()):
            want = _mp_erfcx(x)
            assert abs(value - want) <= 2e-15 * want, x


def test_erfcx_below_zero_is_twice_the_gaussian_factor_less_its_mirror():
    # erfcx(-a) = 2 exp(a^2) - erfcx(a): exp(a^2) alone is off by a^2 eps
    xs = -np.concatenate([np.geomspace(1e-12, 26.0, 200), [26.6]])
    got = mollify.erfcx(xs)
    with mpmath.workdps(40):
        for x, value in zip(xs.tolist(), got.tolist()):
            want = _mp_erfcx(x)
            assert abs(value - want) <= 2e-15 * max(1.0, x * x) * want, x


def test_log_ndtr_matches_mpmath_on_a_log_grid():
    # error <= 2e-15 max(1, |log Phi|); here scipy's log_ndtr errs by up to 3.8e-16, this one 6.9e-16
    xs = np.concatenate([-np.geomspace(1e-12, 1e150, 400), [0.0], np.geomspace(1e-12, 40.0, 200),
                         np.linspace(-40.0, 40.0, 161)])
    got = mollify.log_ndtr(xs)
    with mpmath.workdps(40):
        for x, value in zip(xs.tolist(), got.tolist()):
            x = mpmath.mpf(x)
            want = mpmath.log(mpmath.ncdf(x)) if x < 0 else mpmath.log1p(-mpmath.ncdf(-x))
            assert abs(value - want) <= 2e-15 * max(1, abs(want)), x


def test_erfcx_and_log_ndtr_at_the_ends():
    cases = {
        mollify.erfcx: {0.0: 1.0, -0.0: 1.0, math.inf: 0.0, -math.inf: math.inf, -30.0: math.inf},
        mollify.log_ndtr: {0.0: math.log(0.5), -0.0: math.log(0.5), math.inf: 0.0,
                           -math.inf: -math.inf, -1e200: -math.inf, 1e200: 0.0},
    }
    for fn, values in cases.items():
        for x, want in values.items():
            assert fn(x) == want, (fn.__name__, x)
        assert math.isnan(fn(math.nan))


@pytest.mark.parametrize("fn", [mollify.erfcx, mollify.log_ndtr])
def test_erfcx_and_log_ndtr_keep_the_shape_and_warn_of_nothing(fn):
    xs = np.array([-math.inf, -1e300, -1e160, -40.0, -1.0, -0.0, 0.0, 0.3, 40.0, 1e160, 1e300,
                   math.inf, math.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = fn(xs)
        assert isinstance(fn(1.5), float) and isinstance(fn(-40.0), float)
        for shape in [(13,), (13, 1), (1, 13, 1)]:
            got = fn(xs.reshape(shape))
            assert got.shape == shape and got.dtype == np.float64
            assert np.array_equal(got.ravel(), flat, equal_nan=True)
        assert fn(np.empty((2, 0))).shape == (2, 0)
        # each point's value is its own, whatever else is in the batch
        for x, value in zip(xs, flat):
            assert np.array_equal(fn(np.array([x])), [value], equal_nan=True)


# ---------------------------------------------------------------------------
# the normal quantile in numpy
# ---------------------------------------------------------------------------

def _rational_fit(f, a, b, m, n, origin):
    """The numerator's coefficients of v^0 .. v^m, v = x - origin, then the
    denominator's (v^0 .. v^n, the first 1), of the (m, n) rational that
    interpolates f at the m + n + 1 Chebyshev points of [a, b]; solved at
    mpmath's precision and rounded to floats."""
    a, b, origin = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(origin)
    k = m + n + 1
    rows, values = [], []
    for i in range(k):
        x = (a + b) / 2 + (b - a) / 2 * mpmath.cos(mpmath.pi * (2 * i + 1) / (2 * k))
        v, fx = x - origin, f(x)
        rows.append([v ** j for j in range(m + 1)] + [-fx * v ** j for j in range(1, n + 1)])
        values.append(fx)
    c = [float(x) for x in mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(values))]
    return tuple(c[:m + 1]), (1.0, *c[m + 1:])


def ndtri_tables():
    """``mollify._NDTRI_CENTRE``, ``_NDTRI_TAIL`` and ``_NDTRI_FAR`` from their
    definitions, at 40 digits (where their doubles no longer move)."""
    def centre(w):  # (ndtri(u) / (u - 1/2) - sqrt(2 pi)) / w at 4 u (1 - u) = exp(-w)
        y = mpmath.sqrt(-mpmath.expm1(-w))  # 2 |u - 1/2|
        return (2 * mpmath.sqrt(2) * mpmath.erfinv(y) / y - mpmath.sqrt(2 * mpmath.pi)) / w

    def tail(r):  # -ndtri(p) - r at p = exp(-r^2); 1 - 2p costs r^2 / ln 10 digits
        with mpmath.workdps(mpmath.mp.dps + int(r * r / 2.3)):
            return mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * mpmath.exp(-r * r)) - r

    with mpmath.workdps(40):
        return (_rational_fit(centre, 0, 3, 6, 6, 0), _rational_fit(tail, 2, 6.25, 8, 7, 2),
                _rational_fit(tail, 6.25, 27.5, 8, 7, 6.25))


@pytest.mark.slow
def test_ndtri_tables_are_their_mpmath_fits():
    tables = (mollify._NDTRI_CENTRE, mollify._NDTRI_TAIL, mollify._NDTRI_FAR)
    assert ndtri_tables() == tables
    # so each Horner step adds positive terms
    assert all(c > 0.0 for table in tables for coeffs in table for c in coeffs)


def _mp_ndtri(u):
    """-sqrt(2) erfcinv(2u) at 40 digits, as -sqrt(2) erfinv(1 - 2u) with the
    digits 1 - 2u cancels added."""
    u = mpmath.mpf(u)
    with mpmath.workdps(40 - int(mpmath.log10(min(u, 1 - u)))):
        return -mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * u)


def test_ndtri_matches_mpmath_on_tail_and_central_grids():
    lower = np.exp2(-np.linspace(1.0, 54.0, 480))
    us = np.concatenate([lower, 1.0 - lower[lower >= 2.0 ** -53], np.linspace(0.001, 0.999, 999),
                         [1e-20, 1e-100, 1e-300, 2.0 ** -1074]])
    got = mollify.ndtri(us)
    for u, value in zip(us.tolist(), got.tolist()):
        want = _mp_ndtri(u)
        assert abs(value - want) <= 1e-15 * abs(want), u


def test_ndtri_agrees_with_scipy_on_the_unit_lattice():
    # within 4 ulp of scipy's ndtri; scipy's own error reaches 4 ulp (near
    # u = 1 - e^-2, a branch point of its cephes code), so where the two
    # differ by more, scipy must be the one further from mpmath
    from scipy.special import ndtri as scipy_ndtri

    k = np.random.default_rng(32).integers(0, 2 ** 53, 2 ** 20, dtype=np.uint64)
    ends = np.array([0, 1, 2 ** 52 - 1, 2 ** 52, 2 ** 53 - 2, 2 ** 53 - 1], dtype=np.uint64)
    u = rmt._unit(np.concatenate([ends, k]))
    got, want = mollify.ndtri(u), scipy_ndtri(u)
    ulps = np.abs(got - want) / np.spacing(np.abs(want))
    assert np.isfinite(got).all() and (ulps[:len(ends)] <= 4).all()
    for i in np.flatnonzero(ulps > 4):
        exact = _mp_ndtri(u[i])
        assert abs(got[i] - exact) < abs(want[i] - exact), u[i]


def test_ndtri_ends_special_values_and_exact_mirror():
    for u, want in {0.5: 0.0, 0.0: -math.inf, -0.0: -math.inf, 1.0: math.inf}.items():
        assert mollify.ndtri(u) == want, u
    for u in (math.nan, -1e-300, -0.5, 1.0 + 2.0 ** -52, 2.0, math.inf, -math.inf):
        assert math.isnan(mollify.ndtri(u)), u
    # the lattice's ends
    for u in (2.0 ** -54, 1.0 - 2.0 ** -53):
        want = _mp_ndtri(u)
        assert abs(mollify.ndtri(u) - want) <= 1e-15 * abs(want)
    # from 1/2 on, 1 - u is exact: the mirror point gets the negated bits
    k = np.random.default_rng(5).integers(2 ** 52, 2 ** 53, 200_000, dtype=np.uint64)
    u = np.append(rmt._unit(k), [0.5, 0.5 + 2.0 ** -53, 1.0 - 2.0 ** -53, 0.99, 0.9873, 0.75])
    assert np.array_equal(mollify.ndtri(u), -mollify.ndtri(1.0 - u))


def test_ndtri_keeps_the_shape_and_warns_of_nothing():
    us = np.array([0.0, 2.0 ** -1074, 1e-300, 2.0 ** -54, 1e-5, 0.0127, 0.3, 0.5, 0.7, 0.9873,
                   1.0 - 2.0 ** -53, 1.0, math.nan, -0.1, 1.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = mollify.ndtri(us)
        assert isinstance(mollify.ndtri(0.3), float) and isinstance(mollify.ndtri(0.0), float)
        for shape in [(15,), (15, 1), (1, 15, 1)]:
            got = mollify.ndtri(us.reshape(shape))
            assert got.shape == shape and got.dtype == np.float64
            assert np.array_equal(got.ravel(), flat, equal_nan=True)
        assert np.array_equal(mollify.ndtri(us[::2]), flat[::2], equal_nan=True)  # a view
        assert mollify.ndtri(np.empty((2, 0))).shape == (2, 0)
        # each point's value is its own, whatever else is in the batch
        for u, value in zip(us, flat):
            assert np.array_equal(mollify.ndtri(np.array([u])), [value], equal_nan=True)
