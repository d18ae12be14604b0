import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import norm

from lsi_lab import bg, cli, errors, measure, mollify, quadrature
from lsi_lab.bg import (
    bg_integrand,
    blowup_scan,
    compute_bg,
    exponential_convolution_density,
    find_support_gap,
    herbst_bound,
    standard_gaussian_density,
    super_gaussian_density,
    unbounded_detector,
)
from lsi_lab.measure import build_measure, point_mass, two_point, uniform
from lsi_lab.mollify import MollifiedDensity, median
from oracles import MollifiedOracle, log_trapezoid

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def union_of_uniforms():
    return build_measure({"pieces": [
        {"lo": 0.0, "hi": 1.0, "coeffs": [0.5]},
        {"lo": 2.0, "hi": 3.0, "coeffs": [0.5]},
    ]})


# ---------------------------------------------------------------------------
# bg_integrand
# ---------------------------------------------------------------------------

def test_integrand_gaussian_against_oracle():
    d = MollifiedDensity(point_mass(0.0), 1.0)
    recip = log_trapezoid(lambda t: LOG_SQRT_2PI + t * t / 2.0, -1.0, 0.0, n=4_000_001)
    oracle = math.log(norm.cdf(-1.0)) + math.log(math.log(1.0 / norm.cdf(-1.0))) + recip
    assert bg_integrand(d, 0.0, -1.0, "left") == pytest.approx(oracle, abs=1e-8)


def test_integrand_symmetry():
    d = MollifiedDensity(two_point(), 0.5)
    m = median(d)
    for x in (-0.3, -1.0, -2.5):
        left = bg_integrand(d, m, x, "left")
        right = bg_integrand(d, m, -x, "right")
        assert left == pytest.approx(right, abs=1e-9)


def test_integrand_two_point_exceeds_proof_bound():
    # at x = -1 the three lower bounds give (1/4) log2 sqrt(2 pi delta)
    delta = 0.1
    d = MollifiedDensity(two_point(), delta)
    val = bg_integrand(d, median(d), -1.0, "left")
    bound = math.log(0.25 * math.log(2.0) * math.sqrt(2 * math.pi * delta))
    assert val > bound


def test_integrand_wrong_side():
    d = MollifiedDensity(point_mass(0.0), 1.0)
    with pytest.raises(errors.WrongSide):
        bg_integrand(d, 0.0, 0.5, "left")
    with pytest.raises(errors.WrongSide):
        bg_integrand(d, 0.0, -0.5, "right")


# ---------------------------------------------------------------------------
# compute_bg
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_gaussian_bracket_contains_variance(delta):
    report = compute_bg(MollifiedDensity(point_mass(0.0), delta))
    assert report.c_lower <= delta <= report.c_upper


def test_gaussian_bracket_translated():
    report = compute_bg(MollifiedDensity(point_mass(3.7), 0.5))
    assert report.c_lower <= 0.5 <= report.c_upper
    assert report.median == pytest.approx(3.7, abs=1e-9)


def test_gaussian_scaling_relation():
    r1 = compute_bg(MollifiedDensity(point_mass(0.0), 1.0))
    r2 = compute_bg(MollifiedDensity(point_mass(0.0), 2.0))
    assert r2.D0 == pytest.approx(2.0 * r1.D0, rel=1e-6)
    assert r2.D1 == pytest.approx(2.0 * r1.D1, rel=1e-6)


def test_report_bracket_fields_consistent():
    r = compute_bg(MollifiedDensity(two_point(), 0.5))
    total = r.D0 + r.D1
    assert r.c_lower == pytest.approx(total / 150.0, rel=1e-15)
    assert r.c_upper == pytest.approx(468.0 * total, rel=1e-15)
    assert r.tail_limit_estimate == 0.25
    assert r.search_window[0] < r.median < r.search_window[1]


def test_symmetry_of_d_values():
    for m, delta in ((two_point(), 0.5), (uniform(0, 1), 0.1)):
        r = compute_bg(MollifiedDensity(m, delta))
        total = r.D0 + r.D1
        assert abs(r.D0 - r.D1) <= 1e-6 * total
        center = 0.0 if m.atoms else 0.5
        assert r.x_star_0 + r.x_star_1 == pytest.approx(2 * center, abs=1e-6)


# measures symmetric about 0, listed left to right, so each is its own mirror
# image term by term
SYMMETRIC = {
    "three_atoms": {"atoms": [{"x": x, "w": 1.0 / 3.0} for x in (-1.0, 0.0, 1.0)]},
    "three_atoms_030_040": {"atoms": [{"x": -1.0, "w": 0.3}, {"x": 0.0, "w": 0.4},
                                      {"x": 1.0, "w": 0.3}]},
    "uniform_sym": {"pieces": [{"lo": -1.0, "hi": 1.0, "coeffs": [0.5]}]},
    "two_uniforms_sym": {"pieces": [{"lo": -2.0, "hi": -1.0, "coeffs": [0.5]},
                                    {"lo": 1.0, "hi": 2.0, "coeffs": [0.5]}]},
}


@pytest.mark.parametrize("spec,delta", [
    pytest.param({"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]}, delta, id=str(delta))
    for delta in (1.0, 0.25, 0.05, 0.01, 0.001)] + [
    pytest.param(spec, delta, id=f"{name}-{delta}")
    for name, spec in SYMMETRIC.items() for delta in (1.0, 0.1, 0.02)])
def test_two_point_sides_are_exact_mirror_images(spec, delta):
    # the right side is the left side of the mirror image, which for these
    # measures sums the same terms in the same order
    d = MollifiedDensity(build_measure(spec), delta)
    r = compute_bg(d)
    assert r.D1 == r.D0
    assert r.x_star_1 == -r.x_star_0
    # compute_bg reuses the left search here; the mirrored search it skips
    # gives the same tuple
    window = r.median - r.search_window[0]
    assert (bg._side_supremum(d.mirror, -r.median, window, "D1")
            == (r.D0, r.x_star_0, r.d0_from_tail))


# measures symmetric about the centre c != 0 of their support, listed left to
# right, whose translate by -c is exact, so it is its own mirror
CENTRED = {
    "uniform_0_1": {"pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [1.0]}]},
    "uniform_0.25_2": {"pieces": [{"lo": 0.25, "hi": 2.0, "coeffs": [1.0 / 1.75]}]},
    "two_point_3_pm_1.5": {"atoms": [{"x": 1.5, "w": 0.5}, {"x": 4.5, "w": 0.5}]},
    "degree1_pair": {"pieces": [{"lo": 1.0, "hi": 2.0, "coeffs": [-1.0, 1.0]},
                                {"lo": 4.0, "hi": 5.0, "coeffs": [5.0, -1.0]}]},
}
ATOM_DEGREE1 = {"atoms": [{"x": -1.0, "w": 0.25}],
                "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.0, 1.5]}]}


@pytest.mark.parametrize("m,searches", [
    pytest.param(two_point(), 1, id="two_point"),
    pytest.param(two_point(1.0, -1.0), 1, id="two_point_listed_right_to_left"),
    pytest.param(two_point(1e8 - 1.0, 1e8 + 1.0), 1, id="two_point_at_1e8"),
] + [pytest.param(build_measure(spec), 1, id=name) for name, spec in SYMMETRIC.items()] + [
    pytest.param(build_measure(spec), 1, id=name) for name, spec in CENTRED.items()] + [
    pytest.param(two_point(weight_a=0.9), 2, id="weight_a_0.9"),
    pytest.param(build_measure({"atoms": [{"x": x, "w": 1.0 / 3.0} for x in (0.0, -1.0, 1.0)]}),
                 2, id="three_atoms_out_of_order"),
    pytest.param(build_measure(ATOM_DEGREE1), 2, id="atom_degree1"),
    pytest.param(two_point(1.5, 4.5, 0.4), 2, id="two_point_3_pm_1.5_weights_040_060"),
])
def test_a_measure_that_is_its_own_mirror_is_searched_once(monkeypatch, m, searches):
    # with the median at 0 the right search would repeat the left one; a
    # measure symmetric about c != 0 is searched as its translate by -c
    calls = []
    inner = bg._side_supremum

    def counted(*args):
        calls.append(args[-1])
        return inner(*args)
    monkeypatch.setattr(bg, "_side_supremum", counted)
    compute_bg(MollifiedDensity(m, 1.0))
    assert calls == ["D0", "D1"][:searches]


@pytest.mark.parametrize("name", sorted(CENTRED))
@pytest.mark.parametrize("delta", [1.0, 0.1])
def test_a_measure_symmetric_about_its_centre_is_bracketed_as_its_centred_translate(name, delta):
    # the bracket is the centred translate's, whose sides are exact mirror
    # images, with the positions moved back by c
    m = build_measure(CENTRED[name])
    c = 0.5 * (m.support_lo + m.support_hi)
    assert m.centred is not None and m.centred.mirror == m.centred
    r = compute_bg(MollifiedDensity(m, delta))
    ref = compute_bg(MollifiedDensity(m.centred, delta))
    assert r.D1 == r.D0 == ref.D0 and ref.x_star_1 == -ref.x_star_0
    assert (r.x_star_0, r.x_star_1, r.median) == (ref.x_star_0 + c, ref.x_star_1 + c, c)


def test_only_a_measure_whose_translate_is_its_own_mirror_has_a_centred_translate():
    for spec in SYMMETRIC.values():  # centred already
        m = build_measure(spec)
        assert m.centred is m
    for m in (two_point(weight_a=0.9), two_point(1.5, 4.5, 0.4), build_measure(ATOM_DEGREE1),
              build_measure({"atoms": [{"x": x, "w": 1.0 / 3.0} for x in (0.0, -1.0, 1.0)]}),
              # symmetric about 0.2, but 0.1 - 0.2 and 0.3 - 0.2 round apart
              two_point(0.1, 0.3)):
        assert m.centred is None


# regression corpus: brute-force oracle (dense sup grid + cumulative
# trapezoid quadrature) vs compute_bg, 1e-4 relative
_CORPUS = [
    ("gaussian", [(0.0, 1.0)], [], 1.0),
    ("two_point", [(-1.0, 0.5), (1.0, 0.5)], [], 0.5),
    ("asym_atoms", [(-1.0, 0.75), (2.0, 0.25)], [], 0.5),
    ("uniform", [], [(0.0, 1.0, 1.0)], 0.1),
    ("atoms_075_025", [(0.0, 0.75), (1.0, 0.25)], [], 0.2),
    ("union_uniforms", [], [(0.0, 1.0, 0.5), (2.0, 3.0, 0.5)], 0.25),
]


@pytest.mark.parametrize("name,atoms,pieces,delta", _CORPUS, ids=[c[0] for c in _CORPUS])
def test_compute_bg_matches_brute_force(name, atoms, pieces, delta):
    spec = {}
    if atoms:
        spec["atoms"] = [{"x": x, "w": w} for x, w in atoms]
    if pieces:
        spec["pieces"] = [{"lo": lo, "hi": hi, "coeffs": [c]} for lo, hi, c in pieces]
    m = build_measure(spec)
    report = compute_bg(MollifiedDensity(m, delta))
    oracle = MollifiedOracle(atoms, pieces, delta)
    d0, d1, x0, x1 = oracle.bg_totals()
    assert report.D0 == pytest.approx(d0, rel=1e-4)
    assert report.D1 == pytest.approx(d1, rel=1e-4)
    assert report.x_star_0 == pytest.approx(x0, abs=1e-3)
    assert report.x_star_1 == pytest.approx(x1, abs=1e-3)


def test_tail_limit_sanity_at_window_edges():
    # the integrand at the window edge sits within a factor 2 of delta/2
    for m, delta in ((point_mass(0.0), 1.0), (two_point(), 0.5), (uniform(0, 1), 1.0)):
        d = MollifiedDensity(m, delta)
        r = compute_bg(d)
        for edge, side in ((r.search_window[0], "left"), (r.search_window[1], "right")):
            val = math.exp(bg_integrand(d, r.median, edge, side))
            assert delta / 4.0 <= val <= delta


def test_overflow_is_a_typed_error_naming_side_and_delta():
    # log D is about 989 at delta = 5e-4, beyond exp's float range (709.78);
    # with 0.9 of the mass at -1 only D1 overflows
    for m, name in ((two_point(), "D0"), (two_point(-1.0, 1.0, 0.9), "D1")):
        with pytest.raises(errors.NumericalOverflow,
                           match=name + r" = exp\(.*\) exceeds the float range at delta=0.0005"):
            compute_bg(MollifiedDensity(m, 5e-4))
    assert issubclass(errors.NumericalOverflow, ArithmeticError)
    assert not issubclass(errors.NumericalOverflow, errors.ValidationError)


def test_c_upper_overflow_is_a_typed_error():
    # D0 = D1 = 4.4e305 are finite here, but 468 (D0 + D1) is not
    with pytest.raises(errors.NumericalOverflow,
                       match=r"c_upper = exp\(7\d\d\.\d+\) exceeds the float range"
                             r" at delta=0.0007"):
        compute_bg(MollifiedDensity(two_point(), 7e-4))


def test_quadrature_tol_is_the_reciprocal_integral_tolerance():
    r = compute_bg(MollifiedDensity(two_point(), 1.0))
    assert r.quadrature_tol == quadrature.LOG_REL_TOL == 1e-10


def test_huge_delta_keeps_the_d0_over_delta_limit():
    # delta^2 alone overflows above about 1.3e154; D0 / delta does not move
    want = compute_bg(MollifiedDensity(two_point(), 1e20)).D0 / 1e20
    for delta in (1e200, 1e300):
        r = compute_bg(MollifiedDensity(two_point(), delta))
        assert r.D0 / delta == pytest.approx(want, rel=1e-9)
        assert math.isfinite(r.c_upper)


# ---------------------------------------------------------------------------
# invariances and inputs far from the origin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shift", [1e6, -1e8])
def test_point_mass_far_from_origin_returns(shift):
    base = compute_bg(MollifiedDensity(point_mass(0.0), 1.0))
    r = compute_bg(MollifiedDensity(point_mass(shift), 1.0))
    assert r.D0 == pytest.approx(base.D0, rel=1e-8)
    assert r.D1 == pytest.approx(base.D1, rel=1e-8)
    assert r.x_star_0 - shift == pytest.approx(base.x_star_0, abs=1e-4)
    assert r.x_star_1 - shift == pytest.approx(base.x_star_1, abs=1e-4)


def test_refinement_stops_at_float_spacing():
    # the bracket is 1e-7 wide at 1e8, where float spacing is 1.49e-8, so
    # the 1e-8 search tolerance alone could never be met; the first level's
    # next bracket is within 4 ulps, which ends the zoom
    levels = []

    def f(xs):
        levels.append(xs)
        return -(xs - 1e8) ** 2

    assert 4.0 * math.ulp(1e8) > bg._SEARCH_TOL
    x, _ = bg._zoom_max(f, 1e8 - 5e-8, 1e8 + 5e-8)
    assert [len(xs) for xs in levels] == [bg._ZOOM_POINTS]
    assert abs(x - 1e8) <= math.ulp(1e8)


def test_refinement_iteration_cap(monkeypatch):
    # a skewed kink, whose two quartic vertices do not agree to 1e-8 in 5
    # levels, so no level ends in the quartic finish
    monkeypatch.setattr(bg, "_REFINE_MAX_ITERS", 5)
    levels = []

    def f(xs):
        levels.append(xs)
        return np.where(xs < 0.3, 5.0 * (xs - 0.3), 0.3 - xs)

    bg._zoom_max(f, -1.0, 1.0)
    assert len(levels) == 5


def zoom_calls(f, lo, hi):
    """(x, value, points per call of f) of one zoom."""
    sizes = []

    def counted(xs):
        sizes.append(len(xs))
        return f(xs)
    x, v = bg._zoom_max(counted, lo, hi)
    return x, v, sizes


@pytest.mark.parametrize("centre,levels", [(0.1234, 1), (0.999, 3)])
def test_a_parabola_ends_in_one_vertex_evaluation(centre, levels):
    # the finish needs four grid points on each side of the best one: at
    # 0.999 the first level's best point is its last and the second's is two
    # from its end, so a third level runs
    x, v, sizes = zoom_calls(lambda xs: -(xs - centre) ** 2, -1.0, 1.0)
    assert sizes == [bg._ZOOM_POINTS] * levels + [1]
    assert x == pytest.approx(centre, abs=1e-12)
    assert v == -(x - centre) ** 2


@pytest.mark.parametrize("centre", [0.1234, -0.87, 0.87])
def test_a_quartic_peak_ends_in_one_level_and_one_vertex_evaluation(centre):
    # the quartic's vertices are exact.  At -0.87 and 0.87 the best point is
    # four points from an end (k = 4, 59), the quartic's reach
    f = lambda xs: -(xs - centre) ** 2 - (xs - centre) ** 4 / 4.0
    x, v, sizes = zoom_calls(f, -1.0, 1.0)
    assert sizes == [bg._ZOOM_POINTS, 1]
    assert x == pytest.approx(centre, abs=1e-12)
    assert v == f(np.array([x]))[0]


def test_quartic_vertices_that_disagree_are_not_evaluated():
    # on the first level's grid the quartic's vertex is 1.1e-6 off this peak
    # and its two estimates disagree by 3.8e-5; a second level resolves it
    f = lambda xs: -np.cosh(10.0 * (xs - 0.1234))
    x, v, sizes = zoom_calls(f, -1.0, 1.0)
    assert sizes == [bg._ZOOM_POINTS] * 2 + [1]
    assert x == pytest.approx(0.1234, abs=1e-11)
    assert v == f(np.array([x]))[0]


@pytest.mark.parametrize("centre,reach", [(-0.93, 2), (0.93, 2), (-0.9, 3), (0.9, 3)])
def test_a_best_point_near_a_level_end_takes_one_more_level(centre, reach):
    # the first level's best point is 2 or 3 points from its end, short of
    # the quartic's reach of 4: a second level runs, and its quartic vertex
    # ends the zoom, on a parabola as on a quartic-shaped peak
    xs = np.linspace(-1.0, 1.0, bg._ZOOM_POINTS)
    parabola = lambda t: -(t - centre) ** 2
    k = int(np.argmax(parabola(xs)))
    assert min(k, bg._ZOOM_POINTS - 1 - k) == reach
    for f in (parabola, lambda t: parabola(t) - (t - centre) ** 4 / 4.0):
        x, v, sizes = zoom_calls(f, -1.0, 1.0)
        assert sizes == [bg._ZOOM_POINTS] * 2 + [1]
        assert x == pytest.approx(centre, abs=1e-12)
        assert v == f(np.array([x]))[0]


def test_a_refused_quartic_vertex_is_followed_by_another_level():
    # the first vertex evaluation, at the quartic's vertex, reads low and is
    # refused; the next level runs, and its own quartic vertex is accepted
    xs = np.linspace(-1.0, 1.0, bg._ZOOM_POINTS)
    vertices = []

    def f(t):
        if len(t) == 1:
            vertices.append(t[0])
        return -(t - 0.1234) ** 2 - 1.0 * (len(vertices) == 1 and len(t) == 1)
    x, v, sizes = zoom_calls(f, -1.0, 1.0)
    assert sizes == [bg._ZOOM_POINTS, 1, bg._ZOOM_POINTS, 1]
    k = int(np.argmax(-(xs - 0.1234) ** 2))
    assert vertices[0] == bg._quartic_vertex(xs, -(xs - 0.1234) ** 2, k, 1)
    assert x == vertices[1] != vertices[0]
    assert x == pytest.approx(0.1234, abs=1e-12)
    assert v == -(x - 0.1234) ** 2


@pytest.mark.parametrize("f", [
    lambda xs: -np.sqrt(np.abs(xs - 0.3)),
    lambda xs: -np.sqrt(np.abs(xs - 0.3)) - 0.3 * (xs - 0.3),
    lambda xs: np.where(xs < 0.3, 5.0 * (xs - 0.3), 0.3 - xs),
], ids=["cusp", "skewed_cusp", "skewed_kink"])
def test_a_peak_whose_vertices_disagree_falls_back_to_levels(f):
    x, v, sizes = zoom_calls(f, -1.0, 1.0)
    assert sizes[:4] == [bg._ZOOM_POINTS] * 4
    assert abs(x - 0.3) <= bg._SEARCH_TOL
    assert v == f(np.array([x]))[0]


def test_a_vertex_below_the_best_grid_value_is_not_returned():
    # the vertex lands in a notch the grids miss: each one is evaluated and
    # refused, and the zoom ends on its bracket with the best grid point
    grid = []

    def f(xs):
        if len(xs) > 1:
            grid.append(xs)
        return -(xs - 0.1234) ** 2 - 1.0 * (len(xs) == 1)
    x, v, sizes = zoom_calls(f, -1.0, 1.0)
    assert 1 in sizes
    seen = np.concatenate(grid)
    assert x in seen and v == max(-(seen - 0.1234) ** 2)
    assert abs(x - 0.1234) <= bg._SEARCH_TOL


def counted_zooms(monkeypatch):
    """Integrand calls of each ``_zoom_max`` from now on, one entry per zoom."""
    zooms = []
    inner = bg._zoom_max

    def counted(f, lo, hi):
        zooms.append(0)

        def call(xs):
            zooms[-1] += 1
            return f(xs)
        return inner(call, lo, hi)
    monkeypatch.setattr(bg, "_zoom_max", counted)
    return zooms


def counted_log_p_points(monkeypatch):
    """A one-item list holding the points of log p evaluated from now on."""
    points = [0]

    def counted(module):
        inner = module.log_density

        def call(d, x):
            points[0] += np.size(x)
            return inner(d, x)
        monkeypatch.setattr(module, "log_density", call)

    counted(mollify)
    counted(bg)
    return points


@pytest.mark.parametrize("delta", [1.0, 0.25, 0.1, 0.05, 0.025])
def test_two_point_zoom_makes_at_most_two_integrand_calls(monkeypatch, delta):
    # one 64-point level and one quartic vertex evaluation per candidate
    zooms = counted_zooms(monkeypatch)
    compute_bg(MollifiedDensity(two_point(), delta))
    assert zooms and max(zooms) <= 2


_ZOOM_CASES = [
    ("two_point", two_point(), 1.0),
    ("uniform", uniform(0, 1), 1.0),
    ("atom_degree1", build_measure({"atoms": [{"x": -1.0, "w": 0.25}],
                                    "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.0, 1.5]}]}),
     0.5),
    ("union_uniforms", union_of_uniforms(), 0.1),
]


@pytest.mark.parametrize("name,m,delta", _ZOOM_CASES, ids=[c[0] for c in _ZOOM_CASES])
def test_zoom_matches_dense_integrand_scan(name, m, delta):
    # bg_integrand on a 5e-7 grid 1e-4 wide, centred on x* rounded to 1e-5,
    # so the grid holds the maximum but not x* itself
    d = MollifiedDensity(m, delta)
    r = compute_bg(d)
    for D, x, side in ((r.D0, r.x_star_0, "left"), (r.D1, r.x_star_1, "right")):
        grid = round(x, 5) + np.linspace(-5e-5, 5e-5, 201)
        vals = [bg_integrand(d, r.median, g, side) for g in grid]
        k = int(np.argmax(vals))
        assert 0 < k < len(grid) - 1
        assert math.exp(vals[k]) == pytest.approx(D, rel=1e-12)
        assert grid[k] == pytest.approx(x, abs=1e-6)


@pytest.mark.parametrize("m,delta", [(two_point(), 1.0), (union_of_uniforms(), 0.1)],
                         ids=["two_point", "union_uniforms"])
def test_bracket_work_is_a_few_batched_calls(monkeypatch, m, delta):
    # per side: one call for the scan, one per zoom level of each refined
    # candidate; one scalar call per refinement step would be some 80
    counts = {"tail_mass": 0, "reciprocal_integral": 0}

    def counted(name):
        inner = getattr(bg, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return call

    for name in counts:
        monkeypatch.setattr(bg, name, counted(name))
    compute_bg(MollifiedDensity(m, delta))
    assert 2 <= counts["tail_mass"] <= 30
    assert 2 <= counts["reciprocal_integral"] <= 30


@pytest.mark.parametrize("m", [two_point(), uniform(0, 1)], ids=["two_point", "uniform"])
def test_bracket_log_p_points_stay_few(monkeypatch, m):
    # a 256-point scan and a zoom of one level and a quartic vertex: 4,846
    # points of log p per bracket at delta 1 for two-point and 4,966 for
    # uniform, each searched once
    points = counted_log_p_points(monkeypatch)
    compute_bg(MollifiedDensity(m, 1.0))
    assert 0 < points[0] <= 5_500


_TWO_POINT = {"atoms": [{"x": -1.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]}
_UNIFORM = CENTRED["uniform_0_1"]


# the bracket benchmark's jobs at seed 0: (measure, arguments after it,
# integrand calls of each zoom, log p points)
@pytest.mark.parametrize("spec,args,zooms,points", [
    (_TWO_POINT, ["estimate", "--delta", "1.0"], [2], 4_846),
    (_TWO_POINT, ["scan", "--deltas", "0.1,0.05,0.025", "--format", "json"], [2, 2, 2], 16_773),
    (_TWO_POINT, ["asymptotics", "--delta", "1.0", "--xs=-50.0,-100.0", "--side", "left"],
     [], 902),
    (_UNIFORM, ["estimate", "--delta", "1.0"], [2], 4_966),
    (ATOM_DEGREE1, ["estimate", "--delta", "0.5"], [2, 2], 9_977),
    (_UNIFORM, ["asymptotics", "--delta", "1.0", "--xs=-50.0", "--side", "left"], [], 436),
], ids=["two_point_estimate", "two_point_scan", "two_point_asymptotics", "uniform_estimate",
        "atom_linear_estimate", "uniform_asymptotics"])
def test_bracket_benchmark_jobs_keep_their_call_counts(monkeypatch, tmp_path, spec, args,
                                                       zooms, points):
    # a timing-free guard: each refined candidate is one 64-point level and
    # one quartic vertex, and a change in the scan, the median or the zoom
    # moves the log p count
    zooms_seen = counted_zooms(monkeypatch)
    points_seen = counted_log_p_points(monkeypatch)
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(spec))
    argv = [args[0], "--measure", str(path), *args[1:], "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    assert (zooms_seen, points_seen[0]) == (zooms, points)


# the bracket-pieces benchmark measures: uniform at delta 1, and an atom
# plus a degree-1 piece at delta 0.5
@pytest.mark.parametrize("spec,delta", [
    ({"pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [1.0]}]}, 1.0),
    ({"atoms": [{"x": -1.0, "w": 0.25}],
      "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.0, 1.5]}]}, 0.5),
], ids=["uniform", "atom_linear"])
def test_piece_constants_are_built_with_the_measure(monkeypatch, spec, delta):
    m = build_measure(spec)
    counts = {}

    def counted(module, name):
        inner = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    counted(measure, "expanded")
    for name in ("polyder", "polyint", "polymulx"):
        counted(np.polynomial.polynomial, name)
    compute_bg(MollifiedDensity(m, delta))
    assert counts == {}


def atom_spec(atoms):
    total = sum(w for _, w in atoms)
    return {"atoms": [{"x": x, "w": w / total} for x, w in atoms], "pieces": []}


def piece_spec(atoms, piece):
    """Atoms plus one degree-1 piece, from dyadic inputs: moved by an integer
    up to 1e4 or reflected, the coefficients stay exact, so the mass that
    ``build_measure`` checks to 1e-9 stays exactly 1."""
    (lo, width, mass, tilt) = piece
    slope = 2.0 * mass * tilt / width ** 2
    coeffs = [mass * (1.0 - tilt) / width - slope * lo, slope]
    rest = 1.0 - mass
    return {"atoms": [{"x": x, "w": rest * share} for x, share in atoms],
            "pieces": [{"lo": lo, "hi": lo + width, "coeffs": coeffs}]}


def mapped(spec, scale=1.0, shift=0):
    """The measure of ``spec`` pushed forward by t -> scale t + shift."""
    def piece(p):
        c0, c1 = (list(p["coeffs"]) + [0.0])[:2]
        lo, hi = sorted((scale * p["lo"] + shift, scale * p["hi"] + shift))
        return {"lo": lo, "hi": hi,
                "coeffs": [(c0 - c1 * shift / scale) / abs(scale), c1 / (scale * abs(scale))]}
    return {"atoms": [{"x": scale * a["x"] + shift, "w": a["w"]} for a in spec["atoms"]],
            "pieces": [piece(p) for p in spec["pieces"]]}


def bracket(spec, delta):
    return compute_bg(MollifiedDensity(build_measure(spec), delta))


_RNG = np.random.default_rng(2024)
_REFERENCE_CASES = {
    "two_point": atom_spec([(-1.0, 1.0), (1.0, 1.0)]),
    "two_point_090": atom_spec([(-1.0, 0.9), (1.0, 0.1)]),
    "three_atoms_030_030_040": atom_spec([(-1.0, 0.3), (0.0, 0.3), (1.0, 0.4)]),
    "uniform": {"pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [1.0]}]},
    "atom_degree1": {"atoms": [{"x": -1.0, "w": 0.25}],
                     "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.0, 1.5]}]},
    "two_uniforms": {"pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.5]},
                                {"lo": 2.0, "hi": 3.0, "coeffs": [0.5]}]},
    "comb_20": atom_spec([(x, 1.0) for x in np.linspace(-1.0, 1.0, 20).tolist()]),
    **{f"random_{k}": atom_spec(list(zip(np.sort(_RNG.uniform(-2.0, 2.0, k)).tolist(),
                                         _RNG.uniform(0.2, 1.0, k).tolist())))
       for k in (7, 12, 19)},
}


@pytest.mark.slow
@pytest.mark.parametrize("delta", [1.0, 0.1, 0.01])
@pytest.mark.parametrize("name", sorted(_REFERENCE_CASES))
def test_scan_matches_a_dense_reference_scan(monkeypatch, name, delta):
    # the integrand is smooth on the window's scale, so 256 scan points and
    # the zoom find the sup that a 16,384-point scan finds
    r = bracket(_REFERENCE_CASES[name], delta)
    monkeypatch.setattr(bg, "_SCAN_POINTS", 16_384)
    ref = bracket(_REFERENCE_CASES[name], delta)
    assert r.D0 == pytest.approx(ref.D0, rel=1e-12)
    assert r.D1 == pytest.approx(ref.D1, rel=1e-12)
    assert r.x_star_0 == pytest.approx(ref.x_star_0, abs=1e-3)
    assert r.x_star_1 == pytest.approx(ref.x_star_1, abs=1e-3)


GRID = st.integers(-128, 128).map(lambda k: k / 64.0)
# atoms on a 1/64 grid, so translating them by an integer up to 1e8 is exact
ATOMS = st.lists(st.tuples(GRID, st.integers(1, 4)), min_size=1, max_size=3,
                 unique_by=lambda a: a[0]).map(atom_spec)
# one piece of density (mass / width) (1 + tilt (2 (t - lo) / width - 1)), and
# atoms sharing the rest of the mass
WITH_PIECE = st.builds(
    piece_spec,
    st.sampled_from([(1.0,), (0.5, 0.5), (0.25, 0.75)]).flatmap(
        lambda shares: st.lists(GRID, min_size=len(shares), max_size=len(shares), unique=True)
        .map(lambda xs: list(zip(xs, shares)))),
    st.tuples(GRID, st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.25, 0.5, 0.75]),
              st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])))
MEASURES = st.one_of(ATOMS, WITH_PIECE)
# a piece far out loses digits in its absolute-coordinate coefficients
SHIFTED = st.one_of(st.tuples(ATOMS, st.integers(-10 ** 8, 10 ** 8)),
                    st.tuples(WITH_PIECE, st.integers(-10 ** 4, 10 ** 4)))
DELTAS = st.floats(0.25, 2.0)


@given(case=SHIFTED, delta=DELTAS)
@settings(max_examples=20, deadline=None)
def test_translation_invariance(case, delta):
    spec, shift = case
    base = bracket(spec, delta)
    moved = bracket(mapped(spec, shift=shift), delta)
    assert moved.D0 == pytest.approx(base.D0, rel=1e-8)
    assert moved.D1 == pytest.approx(base.D1, rel=1e-8)
    assert moved.x_star_0 - shift == pytest.approx(base.x_star_0, abs=1e-4)
    assert moved.x_star_1 - shift == pytest.approx(base.x_star_1, abs=1e-4)


@given(spec=MEASURES, delta=DELTAS)
@settings(max_examples=20, deadline=None)
def test_reflection_swaps_sides(spec, delta):
    base = bracket(spec, delta)
    refl = bracket(mapped(spec, scale=-1.0), delta)
    assert refl.D0 == pytest.approx(base.D1, rel=1e-8)
    assert refl.D1 == pytest.approx(base.D0, rel=1e-8)
    assert refl.x_star_0 == pytest.approx(-base.x_star_1, abs=1e-4)
    assert refl.x_star_1 == pytest.approx(-base.x_star_0, abs=1e-4)


# (atoms, pieces, delta) whose medians the batched bisection places off the
# first midpoint, so reflection exactness rests on its symmetric grid
_REFLECTED_CASES = {
    "atom_degree1": ([(-1.0, 0.25)], [(0.0, 1.0, [0.0, 1.5])], 0.5),
    "two_point_weight_09": ([(-1.0, 0.9), (1.0, 0.1)], [], 0.1),
    "atoms_070_030": ([(-1.0, 0.7), (2.0, 0.3)], [], 0.3),
    "cubic": ([], [(0.0, 1.0, [0.0, 0.0, 0.0, 4.0])], 0.2),
    "atom_tilted_piece": ([(-0.5, 0.3)], [(0.0, 2.0, [0.2, 0.15])], 0.7),
}


@pytest.mark.parametrize("name", sorted(_REFLECTED_CASES))
def test_reflection_is_exact(name):
    atoms, pieces, delta = _REFLECTED_CASES[name]

    def spec(sign):
        return {"atoms": [{"x": sign * x, "w": w} for x, w in atoms[::int(sign)]],
                "pieces": [{"lo": min(sign * lo, sign * hi), "hi": max(sign * lo, sign * hi),
                            "coeffs": [c * sign ** k for k, c in enumerate(cs)]}
                           for lo, hi, cs in pieces[::int(sign)]]}
    m, reflected = build_measure(spec(1.0)), build_measure(spec(-1.0))
    assert reflected == m.mirror  # precondition: the reflected input is the mirror image
    d, dr = MollifiedDensity(m, delta), MollifiedDensity(reflected, delta)
    assert median(dr) == -median(d)
    base, refl = compute_bg(d), compute_bg(dr)
    assert (refl.D0, refl.D1) == (base.D1, base.D0)
    assert (refl.x_star_0, refl.x_star_1) == (-base.x_star_1, -base.x_star_0)
    assert refl.median == -base.median


@given(spec=MEASURES, delta=DELTAS, lam=st.floats(0.1, 10.0))
@settings(max_examples=20, deadline=None)
def test_scaling_law(spec, delta, lam):
    # D(lambda mu, lambda^2 delta) = lambda^2 D(mu, delta), and x* scales by lambda
    base = bracket(spec, delta)
    scaled = bracket(mapped(spec, scale=lam), lam * lam * delta)
    assert scaled.D0 == pytest.approx(lam * lam * base.D0, rel=1e-8)
    assert scaled.D1 == pytest.approx(lam * lam * base.D1, rel=1e-8)
    assert scaled.x_star_0 == pytest.approx(lam * base.x_star_0, abs=1e-4 * max(1.0, lam))
    assert scaled.x_star_1 == pytest.approx(lam * base.x_star_1, abs=1e-4 * max(1.0, lam))


def test_scaled_and_shifted_piece_measure():
    # the atom + degree-1 piece scaled by 0.6 and moved by 84, an input the
    # spline surrogate's nested quadrature did not finish in minutes
    base = compute_bg(MollifiedDensity(build_measure({
        "atoms": [{"x": -1.0, "w": 0.25}],
        "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.0, 1.5]}]}), 0.5))
    other = compute_bg(MollifiedDensity(build_measure({
        "atoms": [{"x": 83.4, "w": 0.25}],
        "pieces": [{"lo": 84.0, "hi": 84.6, "coeffs": [-350.0, 4.166666666666667]}]}), 0.18))
    assert other.D0 == pytest.approx(0.36 * base.D0, rel=1e-8)
    assert other.D1 == pytest.approx(0.36 * base.D1, rel=1e-8)
    assert other.x_star_0 - 84.0 == pytest.approx(0.6 * base.x_star_0, abs=1e-4)
    assert other.x_star_1 - 84.0 == pytest.approx(0.6 * base.x_star_1, abs=1e-4)


# ---------------------------------------------------------------------------
# blow-up scan
# ---------------------------------------------------------------------------

def test_find_support_gap():
    assert find_support_gap(two_point()) == (-1.0, 1.0)
    assert find_support_gap(union_of_uniforms()) == (1.0, 2.0)
    with pytest.raises(errors.NoGap):
        find_support_gap(uniform(0, 1))


def test_blowup_two_point():
    scan = blowup_scan(two_point(), [0.1, 0.05, 0.025])
    assert scan.theoretical_exponent == pytest.approx(0.5)
    assert scan.fitted_slope_vs_inv_delta >= 0.45
    # monotone blow-up: log totals strictly increase as delta decreases
    assert all(b > a for a, b in zip(scan.log_D_totals[:-1], scan.log_D_totals[1:]))


def test_blowup_translation_invariance():
    base = blowup_scan(two_point(), [0.1, 0.05, 0.025])
    shifted = blowup_scan(two_point(4.0, 6.0), [0.1, 0.05, 0.025])
    assert shifted.fitted_slope_vs_inv_delta == pytest.approx(
        base.fitted_slope_vs_inv_delta, abs=1e-6)
    assert shifted.theoretical_exponent == base.theoretical_exponent


@pytest.mark.slow
def test_blowup_union_of_uniforms():
    scan = blowup_scan(union_of_uniforms(), [0.1, 0.05, 0.025])
    assert scan.theoretical_exponent == pytest.approx(0.125)
    assert scan.fitted_slope_vs_inv_delta >= 0.1125


def test_blowup_validation():
    with pytest.raises(errors.ValidationError):
        blowup_scan(two_point(), [0.1])
    with pytest.raises(errors.ValidationError):
        blowup_scan(two_point(), [0.05, 0.1])
    with pytest.raises(errors.NoGap):
        blowup_scan(uniform(0, 1), [0.1, 0.05])


# ---------------------------------------------------------------------------
# unbounded detector
# ---------------------------------------------------------------------------

def test_detector_exponential_convolution_unbounded():
    verdict = unbounded_detector(exponential_convolution_density())
    assert verdict.verdict == "unbounded"
    vals = [v for _, v in verdict.witness]
    assert all(b >= 2.0 * a for a, b in zip(vals[:-1], vals[1:]))
    # integrand at 40 exceeds the one at 20
    assert vals[2] > vals[1]


def test_exponential_convolution_is_a_probability_density():
    # Exp(1) * N(0, 1): p(x) = exp(1/2 - x) Phi(x - 1), S(x) = Phi(-x) + p(x)
    dens = exponential_convolution_density()

    def survival(x):
        return norm.cdf(-x) + math.exp(0.5 - x) * norm.cdf(x - 1.0)

    mass = sum(quad(lambda x: math.exp(float(dens.log_pdf(x))), lo, hi,
                    epsabs=1e-14, epsrel=1e-13)[0]
               for lo, hi in ((-math.inf, 0.0), (0.0, math.inf)))
    assert mass == pytest.approx(1.0, abs=1e-12)
    for x in (2.0, 10.0):
        assert math.exp(dens.log_right_tail(x)) == pytest.approx(survival(x), rel=1e-12)
    want = brentq(lambda x: norm.cdf(x) - math.exp(0.5 - x) * norm.cdf(x - 1.0) - 0.5,
                  -5.0, 5.0, xtol=1e-15)
    assert dens.median() == pytest.approx(want, abs=1e-12)


def test_detector_gaussian_bounded_near_half():
    verdict = unbounded_detector(standard_gaussian_density())
    assert verdict.verdict == "bounded"
    # values plateau near delta/2 = 1/2
    for _, v in verdict.witness:
        assert 0.45 <= v <= 0.6


def test_detector_super_gaussian_decays():
    verdict = unbounded_detector(super_gaussian_density())
    assert verdict.verdict == "bounded"
    vals = [v for _, v in verdict.witness]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))
    assert vals[-1] < 1e-4


def test_detector_window_validation():
    with pytest.raises(errors.ValidationError):
        unbounded_detector(standard_gaussian_density(), window_growth=(10.0,))


@pytest.mark.parametrize("window", [(10.0, math.inf), (math.nan, 20.0)])
def test_detector_refuses_a_window_point_that_is_not_finite(window):
    with pytest.raises(errors.ValidationError, match="finite"):
        unbounded_detector(exponential_convolution_density(), window_growth=window)


def test_detector_refuses_window_points_left_of_the_median():
    # the exponential convolution's median is 0.876
    with pytest.raises(errors.WrongSide, match="right of the median"):
        unbounded_detector(exponential_convolution_density(), window_growth=(-5.0, 0.5))


_DETECTOR_DENSITIES = [exponential_convolution_density, standard_gaussian_density,
                       super_gaussian_density]


@pytest.mark.parametrize("make", _DETECTOR_DENSITIES)
def test_batched_detector_integrals_match_per_point_calls(make):
    dens = make()
    m = dens.median()
    xs = np.array([2.0, 10.0, 20.0, 40.0, 80.0])
    tails = dens.log_right_tail(xs)
    recips = dens.log_reciprocal_integral(m, xs)
    for x, tail, recip in zip(xs, tails, recips):
        assert abs(tail - dens.log_right_tail(float(x))) <= 1e-10
        assert abs(recip - dens.log_reciprocal_integral(m, float(x))) <= 1e-10


@pytest.mark.parametrize("make", _DETECTOR_DENSITIES)
def test_detector_median_meets_the_half_crossing_stop_rule(make):
    dens = make()
    m = dens.median()
    assert abs(0.5 - math.exp(dens.log_right_tail(m))) <= 1e-13


def test_detector_integrals_of_1_over_p_take_either_side_of_the_median():
    dens = standard_gaussian_density()
    right = dens.log_reciprocal_integral(0.0, np.array([3.0, 7.0]))
    np.testing.assert_array_equal(dens.log_reciprocal_integral(0.0, np.array([-3.0, -7.0])),
                                  right)
    with pytest.raises(errors.WrongSide):
        dens.log_reciprocal_integral(0.0, np.array([-3.0, 7.0]))


def test_detector_makes_no_adaptive_quadrature_call(monkeypatch):
    densities = [make() for make in _DETECTOR_DENSITIES]  # the super-Gaussian's normaliser is one

    def forbidden(*args, **kwargs):
        raise AssertionError("the detector called log_adaptive_quad")

    for module in (bg, mollify, quadrature):
        monkeypatch.setattr(module, "log_adaptive_quad", forbidden)
    assert [unbounded_detector(dens).verdict for dens in densities] == [
        "unbounded", "bounded", "bounded"]


def test_a_right_tail_that_does_not_decay_is_refused():
    flat = bg.ClosedFormDensity("flat", lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    with pytest.raises(errors.ValidationError, match="flat: right tail does not decay"):
        flat.log_right_tail(np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# herbst bound
# ---------------------------------------------------------------------------

def test_herbst_values():
    assert herbst_bound(1.0, 1.0, 0.0) == 2.0
    assert herbst_bound(1.0, 1.0, 2.0) == pytest.approx(2.0 * math.exp(-2.0))
    assert herbst_bound(2.0, 3.0, 6.0) == pytest.approx(2.0 * math.exp(-1.0))


@given(c=st.floats(1e-3, 1e3), lip=st.floats(1e-3, 1e3), lam=st.floats(0.0, 1e3))
@settings(max_examples=200, deadline=None)
def test_herbst_properties(c, lip, lam):
    val = herbst_bound(c, lip, lam)
    # the true value is in (0, 2]; extreme exponents may underflow to 0.0
    assert 0.0 <= val <= 2.0
    # monotone: worse constant, weaker bound; larger deviation, smaller mass
    assert herbst_bound(2.0 * c, lip, lam) >= val
    assert herbst_bound(c, lip, 2.0 * lam) <= val


def test_herbst_validation():
    with pytest.raises(errors.NonPositiveConstant):
        herbst_bound(0.0, 1.0, 1.0)
    with pytest.raises(errors.NonPositiveConstant):
        herbst_bound(1.0, 0.0, 1.0)
    with pytest.raises(errors.NonPositiveConstant):
        herbst_bound(1.0, 1.0, -1.0)
