import math

import numpy as np
import pytest

from lsi_lab import errors, measure
from lsi_lab.measure import (
    TestFunction,
    build_measure,
    cdf,
    disconnected_witness,
    entropy_functional,
    lsi_defect,
    mass_in_open_interval,
    measure_from_json,
    point_mass,
    quantile,
    support_components,
    translate,
    two_point,
    uniform,
)
from oracles import simpson_integral

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_point_mass():
    m = point_mass(0.0)
    assert m.support_lo == m.support_hi == 0.0
    assert m.atoms == ((0.0, 1.0),)


def test_uniform_mass_one():
    m = uniform(0.0, 1.0)
    assert m.pieces[0].mass == pytest.approx(1.0, abs=1e-15)
    assert (m.support_lo, m.support_hi) == (0.0, 1.0)


def test_two_point_blowup_measure():
    m = two_point()
    assert m.atoms == ((-1.0, 0.5), (1.0, 0.5))


def test_mass_rescale_within_tolerance():
    m = build_measure({"atoms": [{"x": 0.0, "w": 1.0 + 5e-10}]})
    assert sum(w for _, w in m.atoms) == pytest.approx(1.0, abs=1e-15)


def test_terms_without_mass_are_checked_then_dropped():
    m = build_measure({"atoms": [{"x": 0.0, "w": 1.0}, {"x": 1e300, "w": 0.0}],
                       "pieces": [{"lo": 1e6, "hi": 2e6, "coeffs": [0.0, 0.0]}]})
    assert m == point_mass(0.0)
    with pytest.raises(errors.ValidationError):
        build_measure({"atoms": [{"x": 0.0, "w": 1.0}],
                       "pieces": [{"lo": 2e6, "hi": 1e6, "coeffs": [0.0]}]})


@pytest.mark.parametrize("lo, hi, coeffs", [
    (0.0, 1.0, (1.0,)), (0.0, 1.0, (0.0, 1.5)), (-3.25, 7.5, (0.1, 0.02, 0.003)),
    (1e6, 1e6 + 2.0, (0.5,)), (-2.0, -1.0, (1.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.0625))])
def test_piece_mass_is_the_constructors_mass(lo, hi, coeffs):
    assert measure._piece_mass(lo, hi, coeffs) == measure.Piece(lo, hi, coeffs).mass


def test_expanded_equals_the_polynomial_composition():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        k = int(rng.integers(1, measure.MAX_POLY_DEGREE + 2))
        coeffs = rng.standard_normal(k) * 10.0 ** rng.integers(-5, 6, k)
        coeffs[rng.random(k) < 0.2] = 0.0
        point = float(rng.standard_normal() * 10.0 ** rng.integers(-3, 7))
        want = np.polynomial.Polynomial(coeffs)(np.polynomial.Polynomial([point, 1.0]))
        got = measure.expanded(tuple(coeffs), point)
        assert got.shape == want.trim().coef.shape and np.array_equal(got, want.trim().coef)


def test_build_measure_builds_each_piece_once(monkeypatch):
    built = []
    real = measure.Piece
    monkeypatch.setattr(measure, "Piece", lambda *args: built.append(args) or real(*args))
    m = build_measure({"atoms": [{"x": -1.0, "w": 0.25}],
                       "pieces": [{"lo": 2.0, "hi": 3.0, "coeffs": [0.25 + 5e-10]},
                                  {"lo": 0.0, "hi": 1.0, "coeffs": [0.0, 1.0]}]})
    # each piece once in the measure's frame, then once mirrored, right to left
    assert [(lo, hi) for lo, hi, _ in built] == [(0.0, 1.0), (2.0, 3.0), (-3.0, -2.0), (-1.0, 0.0)]
    assert [p.coeffs for p in m.pieces + m.mirror.pieces] == [c for _, _, c in built]
    assert m.mirror.pieces[1].coeffs == (-0.0, -m.pieces[0].coeffs[1])


def test_mirror_reflects_and_reverses_and_is_its_own_inverse():
    m = build_measure({"atoms": [{"x": -1.5, "w": 0.2}, {"x": 2.0, "w": 0.4}],
                       "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.0, 0.0, 1.2]}]})
    r = m.mirror
    assert r.atoms == ((-2.0, 0.4), (1.5, 0.2))
    assert [(p.lo, p.hi) for p in r.pieces] == [(-1.0, -0.0)]
    assert (r.support_lo, r.support_hi) == (-2.0, 1.5)
    t = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(r.pieces[0].density(-t), m.pieces[0].density(t))
    assert r.mirror is m and r.mirror == m
    assert r.pieces[0].mass == pytest.approx(m.pieces[0].mass, rel=1e-15)


@pytest.mark.parametrize("spec", [
    {"atoms": [{"x": -1.0, "w": 0.3}, {"x": 0.0, "w": 0.4}, {"x": 1.0, "w": 0.3}]},
    {"pieces": [{"lo": -1.0, "hi": 1.0, "coeffs": [0.5]}]},
    {"pieces": [{"lo": -2.0, "hi": -1.0, "coeffs": [0.5]},
                {"lo": 1.0, "hi": 2.0, "coeffs": [0.5]}]},
])
def test_symmetric_measure_listed_left_to_right_is_its_own_mirror(spec):
    m = build_measure(spec)
    assert m.mirror == m


def test_mass_mismatch_rejected():
    with pytest.raises(errors.MassMismatch):
        build_measure({"atoms": [{"x": 0.0, "w": 0.5}]})


def test_negative_atom_weight_rejected():
    with pytest.raises(errors.NegativeDensity):
        build_measure({"atoms": [{"x": 0.0, "w": -0.2}, {"x": 1.0, "w": 1.2}]})


def test_negative_piece_density_rejected():
    # t - 0.2 dips below zero on [0, 1]
    with pytest.raises(errors.NegativeDensity):
        build_measure({"pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [-0.2, 1.0]}],
                       "atoms": [{"x": 0.5, "w": 0.7}]})


def test_interior_negative_parabola_rejected():
    # 6(t-1/2)^2 - 0.1 is positive at the endpoints, negative in the middle
    with pytest.raises(errors.NegativeDensity):
        build_measure({"pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [1.4, -6.0, 6.0]}]})


def test_overlapping_pieces_rejected():
    with pytest.raises(errors.OverlappingPieces):
        build_measure({"pieces": [
            {"lo": 0.0, "hi": 1.0, "coeffs": [0.5]},
            {"lo": 0.5, "hi": 1.5, "coeffs": [0.5]},
        ]})


def test_unknown_keys_rejected():
    with pytest.raises(errors.ValidationError):
        build_measure({"atoms": [{"x": 0.0, "w": 1.0}], "extra": 1})
    with pytest.raises(errors.ValidationError):
        build_measure({"atoms": [{"x": 0.0, "w": 1.0, "label": "a"}]})


def test_numpy_scalars_are_numbers():
    m = build_measure({"atoms": [{"x": np.float32(0.5), "w": np.float64(0.5)},
                                 {"x": np.int64(-1), "w": 0.5}]})
    assert m.atoms == ((0.5, 0.5), (-1.0, 0.5))
    assert all(type(v) is float for atom in m.atoms for v in atom)


def test_measure_from_json_roundtrip():
    m = measure_from_json('{"atoms":[{"x":-1.0,"w":0.5}],"pieces":[{"lo":0.0,"hi":1.0,"coeffs":[0.5]}]}')
    assert len(m.atoms) == 1 and len(m.pieces) == 1
    assert (m.support_lo, m.support_hi) == (-1.0, 1.0)


# ---------------------------------------------------------------------------
# cdf / quantile
# ---------------------------------------------------------------------------

def test_cdf_uniform_linear():
    assert cdf(uniform(0, 1), 0.25) == pytest.approx(0.25, abs=1e-15)


def test_cdf_two_point_half():
    assert cdf(two_point(), 0.0) == pytest.approx(0.5, abs=1e-15)


def test_cdf_below_support():
    assert cdf(uniform(0, 1), -1.0) == 0.0


def test_cdf_total_mass():
    for m in (uniform(0, 1), two_point(), point_mass(2.0)):
        assert abs(cdf(m, m.support_hi) - 1.0) <= 1e-12


def test_cdf_right_continuous_at_atom():
    m = two_point()
    assert cdf(m, -1.0) == pytest.approx(0.5)
    assert cdf(m, -1.0 - 1e-12) == 0.0


def test_quantile_inverts_cdf():
    m = build_measure({
        "atoms": [{"x": -1.0, "w": 0.25}],
        "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.75]}],
    })
    for q in (0.1, 0.25, 0.5, 0.9):
        x = quantile(m, q)
        assert cdf(m, x) >= q - 1e-12
    assert quantile(m, 0.1) == pytest.approx(-1.0, abs=1e-9)


def test_support_components_and_gap_mass():
    m = build_measure({"pieces": [
        {"lo": 0.0, "hi": 1.0, "coeffs": [0.5]},
        {"lo": 2.0, "hi": 3.0, "coeffs": [0.5]},
    ]})
    assert support_components(m) == [(0.0, 1.0), (2.0, 3.0)]
    assert mass_in_open_interval(m, 1.0, 2.0) == 0.0
    assert mass_in_open_interval(m, 0.5, 2.5) == pytest.approx(0.5)


def test_translate_moves_atoms_and_pieces():
    m = build_measure({"atoms": [{"x": -1.0, "w": 0.25}],
                       "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.25, 1.0]}]})
    moved = translate(m, 64.0)
    assert moved.atoms == ((63.0, 0.25),)
    assert (moved.support_lo, moved.support_hi) == (63.0, 65.0)
    (piece,) = moved.pieces
    assert (piece.lo, piece.hi) == (64.0, 65.0)
    xs = np.linspace(-2.0, 2.0, 41)
    np.testing.assert_allclose(piece.density(xs + 64.0), m.pieces[0].density(xs), atol=1e-12)
    np.testing.assert_allclose(cdf(moved, xs + 64.0), cdf(m, xs), atol=1e-12)


@pytest.mark.parametrize("lo, coeffs, left", [
    (1e4, [0.4 - 1.2e4, 1.2], 0.4),
    (1e5, [0.3 - 1.4e5, 1.4], 0.3),
])
def test_unit_piece_far_from_origin(lo, coeffs, left):
    # density left + 2 (1 - left) (t - lo) on [lo, lo + 1], written in powers
    # of t: its antiderivative in t is about 1e8 there, so the masses must be
    # taken in powers of t - lo.  Rounding c0 alone moves the density by
    # up to 3e-11 at 1e5.
    m = build_measure({"pieces": [{"lo": lo, "hi": lo + 1.0, "coeffs": coeffs}]})
    (piece,) = m.pieces
    assert piece.mass == pytest.approx(1.0, abs=1e-10)
    half = 0.5 * left + 0.25 * (1.0 - left)
    assert cdf(m, lo + 0.5) == pytest.approx(half, abs=1e-9)
    assert mass_in_open_interval(m, lo, lo + 0.5) == pytest.approx(half, abs=1e-9)
    assert piece.mass_below(lo - 1.0) == 0.0
    assert cdf(m, lo + 2.0) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def test_linear_testfunction_interpolates():
    g = TestFunction("piecewise_linear", ((0.0, 0.0, 0.0), (1.0, 2.0, 0.0)))
    assert g(0.5) == pytest.approx(1.0)
    assert g(-3.0) == 0.0 and g(4.0) == 2.0
    assert g.deriv(0.5) == pytest.approx(2.0)
    assert g.deriv(0.0) == 0.0  # stored knot slope wins at the knot
    assert g.deriv(9.0) == 0.0


def test_cubic_testfunction_matches_knots():
    g = TestFunction("piecewise_cubic_smooth",
                     ((-1.0, 0.0, 0.0), (1.0, 1.0, 0.0)))
    assert g(-1.0) == pytest.approx(0.0, abs=1e-15)
    assert g(1.0) == pytest.approx(1.0, abs=1e-15)
    assert g.deriv(-1.0) == pytest.approx(0.0, abs=1e-15)
    assert g.deriv(1.0) == pytest.approx(0.0, abs=1e-15)
    assert g(0.0) == pytest.approx(0.5)
    # C^1 across the knot
    h = 1e-7
    assert g.deriv(1.0 - h) == pytest.approx(0.0, abs=1e-5)


def test_testfunction_validation():
    with pytest.raises(errors.ValidationError):
        TestFunction("cubic", ((0.0, 0.0, 0.0),))
    with pytest.raises(errors.ValidationError):
        TestFunction("piecewise_linear", ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)))


# ---------------------------------------------------------------------------
# entropy functional
# ---------------------------------------------------------------------------

def test_entropy_of_constant_is_zero():
    for m in (uniform(0, 1), two_point(), point_mass(0.3)):
        assert entropy_functional(m, lambda t: np.ones_like(np.asarray(t, dtype=float))) == pytest.approx(0.0, abs=1e-12)


def test_entropy_two_point_witness():
    # g = 0 at -1 and 1 at +1: Ent(g^2) = (1/2) log 2
    g = TestFunction("piecewise_cubic_smooth", ((-1.0, 0.0, 0.0), (1.0, 1.0, 0.0)))
    ent = entropy_functional(two_point(), g.squared())
    assert ent == pytest.approx(0.5 * LOG2, abs=1e-12)


def test_entropy_uniform_linear_density_against_oracle():
    # f(t) = 2t on uniform[0,1]; dense Simpson oracle, and the closed form log2 - 1/2
    oracle = simpson_integral(lambda t: np.where(t > 0, 2 * t * np.log(np.maximum(2 * t, 1e-300)), 0.0), 0.0, 1.0)
    expected = oracle - 1.0 * math.log(1.0)
    ent = entropy_functional(uniform(0, 1), lambda t: 2.0 * np.asarray(t, dtype=float))
    assert ent == pytest.approx(expected, abs=1e-8)
    assert ent == pytest.approx(LOG2 - 0.5, abs=1e-10)


@pytest.mark.parametrize("lam", [0.25, 1.0, 3.0, 7.25])
def test_entropy_scaling_identity(lam):
    m = build_measure({
        "atoms": [{"x": -1.0, "w": 0.25}],
        "pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [0.75]}],
    })
    f = lambda t: np.square(np.asarray(t, dtype=float)) + 0.5
    base = entropy_functional(m, f)
    scaled = entropy_functional(m, lambda t: lam * f(t))
    assert scaled == pytest.approx(lam * base, abs=1e-10 * max(1.0, lam))


def test_entropy_nonnegative_on_random_functions():
    rng = np.random.default_rng(7)
    m = build_measure({
        "atoms": [{"x": -0.5, "w": 0.3}],
        "pieces": [{"lo": 0.0, "hi": 2.0, "coeffs": [0.35]}],
    })
    for _ in range(25):
        knots = np.sort(rng.uniform(-1, 3, size=4))
        vals = rng.uniform(0.1, 2.0, size=4)
        g = TestFunction("piecewise_linear",
                         tuple((x, v, 0.0) for x, v in zip(knots, vals)))
        assert entropy_functional(m, g.squared()) >= -1e-12


def test_entropy_rejects_negative_input():
    with pytest.raises(errors.NegativeInput):
        entropy_functional(uniform(0, 1), lambda t: np.asarray(t, dtype=float) - 0.5)


def test_entropy_rejects_zero_mean():
    with pytest.raises(errors.NonIntegrable):
        entropy_functional(uniform(0, 1), lambda t: np.zeros_like(np.asarray(t, dtype=float)))


# ---------------------------------------------------------------------------
# lsi defect
# ---------------------------------------------------------------------------

def test_defect_constant_witness_is_zero():
    g = TestFunction("piecewise_linear", ((0.0, 1.5, 0.0),))
    for c in (0.1, 1.0, 10.0):
        assert lsi_defect(uniform(0, 1), g, c) == pytest.approx(0.0, abs=1e-12)


def test_defect_disconnected_witness_positive():
    g = TestFunction("piecewise_cubic_smooth", ((-1.0, 0.0, 0.0), (1.0, 1.0, 0.0)))
    for c in (0.5, 1.0, 100.0):
        assert lsi_defect(two_point(), g, c) == pytest.approx(0.5 * LOG2, abs=1e-12)


def test_defect_uniform_identity_nonpositive_and_matches_oracle():
    g = TestFunction("piecewise_linear", ((0.0, 0.0, 1.0), (1.0, 1.0, 1.0)))
    c = 10.0
    ent_oracle = (
        simpson_integral(lambda t: np.where(t > 0, t * t * np.log(np.maximum(t * t, 1e-300)), 0.0), 0.0, 1.0)
        - (1.0 / 3.0) * math.log(1.0 / 3.0)
    )
    energy_oracle = simpson_integral(lambda t: np.ones_like(t), 0.0, 1.0)
    expected = ent_oracle - 2.0 * c * energy_oracle
    got = lsi_defect(uniform(0, 1), g, c)
    assert got == pytest.approx(expected, abs=1e-8)
    assert got <= 0.0


def test_defect_strictly_decreasing_in_c():
    g = TestFunction("piecewise_linear", ((0.0, 0.0, 1.0), (1.0, 1.0, 1.0)))
    m = uniform(0, 1)
    vals = [lsi_defect(m, g, c) for c in (0.5, 1.0, 2.0, 4.0)]
    assert all(b < a for a, b in zip(vals[:-1], vals[1:]))


def test_defect_requires_positive_constant():
    g = TestFunction("piecewise_linear", ((0.0, 1.0, 0.0),))
    with pytest.raises(errors.NonPositiveConstant):
        lsi_defect(uniform(0, 1), g, 0.0)


# ---------------------------------------------------------------------------
# disconnected witness
# ---------------------------------------------------------------------------

def test_witness_two_point():
    ent, energy = disconnected_witness(two_point(), (-1.0, 1.0))
    assert ent == pytest.approx(0.5 * LOG2, abs=1e-12)
    assert energy == 0.0


def test_witness_asymmetric_atoms():
    m = build_measure({"atoms": [{"x": -1.0, "w": 0.9}, {"x": 1.0, "w": 0.1}]})
    ent, energy = disconnected_witness(m, (-1.0, 1.0))
    assert ent == pytest.approx(0.1 * math.log(10.0), abs=1e-12)
    assert energy == 0.0


def test_witness_union_of_uniforms():
    m = build_measure({"pieces": [
        {"lo": 0.0, "hi": 1.0, "coeffs": [0.5]},
        {"lo": 2.0, "hi": 3.0, "coeffs": [0.5]},
    ]})
    ent, energy = disconnected_witness(m, (1.0, 2.0))
    assert ent == pytest.approx(0.5 * LOG2, abs=1e-12)
    assert energy == 0.0


def test_witness_rejects_gap_with_mass():
    with pytest.raises(errors.GapHasMass):
        disconnected_witness(uniform(0, 1), (0.25, 0.75))
