import json
import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from lsi_lab import cli, errors, mollify, rmt
from lsi_lab.measure import build_measure
from lsi_lab.rmt import (
    ExperimentConfig,
    FSpec,
    SymmetricMatrix,
    atom_mixture_law,
    concentration_experiment,
    config_from_dict,
    cutoff,
    delta_schedule,
    empirical_law_integral,
    exponential_cutoff_level,
    exponential_law,
    f_from_spec,
    gaussian_law,
    guionnet_bound,
    hoffman_wielandt_gap,
    law_from_spec,
    mollify_ensemble,
    sample_wigner,
    spectrum,
    term1_bound,
    term3_check,
    two_point_law,
    uniform_law,
)
from oracles import charpoly_eigenvalues, semicircle_cdf


# ---------------------------------------------------------------------------
# the frozen draw oracle: one Generator per trial and role, as the library
# drew before its block sampler; the quantiles are the library's own
# (``law.transform`` and ``mollify.ndtri``), so these tests pin the stream
# layout, and tests/test_mollify.py holds ndtri to scipy and mpmath
# ---------------------------------------------------------------------------

def _frozen_uniforms(key, role, count):
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(list(key) + [role])))
    k = gen.integers(0, 1 << 53, size=count, dtype=np.int64)
    return (k.astype(np.float64) + 0.5) * 2.0 ** -53


def _frozen_wigner(n, law, key):
    u = _frozen_uniforms(key, 1, n * (n + 1) // 2)
    return SymmetricMatrix(n, np.asarray(law.transform(u), dtype=float))


def _frozen_mollify(y, delta, key):
    g = mollify.ndtri(_frozen_uniforms(key, 2, y.upper.size))
    return SymmetricMatrix(y.n, y.upper + math.sqrt(delta) * g)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_one_by_one_two_point():
    y = sample_wigner(1, two_point_law(), 5)
    assert y.dense().shape == (1, 1)
    assert y.upper[0] in (-1.0, 1.0)


def test_sampling_deterministic():
    a = sample_wigner(3, two_point_law(), 123)
    b = sample_wigner(3, two_point_law(), 123)
    assert np.array_equal(a.upper, b.upper)
    c = sample_wigner(3, two_point_law(), 124)
    assert not np.array_equal(a.upper, c.upper)


def test_gaussian_entries_clt_sanity():
    y = sample_wigner(50, gaussian_law(0, 1), 42)
    count = 50 * 51 // 2
    assert abs(float(np.mean(y.upper))) <= 4.0 / math.sqrt(count)


def test_entry_law_ranges():
    u = sample_wigner(20, uniform_law(2.0, 3.0), 0).upper
    assert np.all((u >= 2.0) & (u <= 3.0))
    e = sample_wigner(20, exponential_law(2.0), 0).upper
    assert np.all(e >= 0.0)
    t = sample_wigner(20, two_point_law(), 0).upper
    assert set(np.unique(t)) <= {-1.0, 1.0}


def test_atom_mixture_law_matches_measure():
    m = build_measure({"atoms": [{"x": -2.0, "w": 0.25}, {"x": 5.0, "w": 0.75}]})
    vals = sample_wigner(40, atom_mixture_law(m), 9).upper
    assert set(np.round(np.unique(vals), 6)) <= {-2.0, 5.0}
    frac = float(np.mean(vals > 0))
    assert abs(frac - 0.75) < 0.06


def test_two_point_balance():
    vals = sample_wigner(100, two_point_law(), 17).upper
    assert abs(float(np.mean(vals))) < 4.0 / math.sqrt(vals.size)


@pytest.mark.parametrize("seed, same_as", [(np.int64(5), 5), (2.0 ** 40, 2 ** 40),
                                           ((1, np.int32(2)), [1, 2]), (7.0, (7,))])
def test_seeds_that_are_whole_numbers_are_accepted(seed, same_as):
    law = gaussian_law()
    assert np.array_equal(sample_wigner(3, law, seed).upper, sample_wigner(3, law, same_as).upper)
    y = sample_wigner(3, law, 0)
    assert np.array_equal(mollify_ensemble(y, 0.5, seed).upper,
                          mollify_ensemble(y, 0.5, same_as).upper)


@pytest.mark.parametrize("seed", [1.5, True, "3", (1, 2.5), [np.bool_(True)], math.nan])
def test_seeds_are_not_truncated(seed):
    # int() would read both 1.5 and True as seed 1
    with pytest.raises(errors.ValidationError, match="seed must be an integer"):
        sample_wigner(3, gaussian_law(), seed)
    with pytest.raises(errors.ValidationError, match="seed must be an integer"):
        mollify_ensemble(sample_wigner(3, gaussian_law(), 0), 0.5, seed)


def test_unknown_law_rejected():
    with pytest.raises(errors.UnknownLaw):
        law_from_spec("cauchy")
    # the kind is checked before the keys
    with pytest.raises(errors.UnknownLaw):
        law_from_spec({"kind": "levy", "rate": 2})


@pytest.mark.parametrize("spec", [{"kind": "two_point", "rate": 2.0},
                                  {"kind": "gaussian", "a": 3.0, "weight_a": 0.9}])
def test_law_rejects_keys_its_kind_does_not_take(spec):
    with pytest.raises(errors.ValidationError, match=f"unknown {spec['kind']} law keys") as exc:
        law_from_spec(spec)
    assert not isinstance(exc.value, errors.UnknownLaw)


@pytest.mark.parametrize("spec, message", [
    ({"kind": "uniform", "a": "x"}, "uniform law a must be a finite number, got 'x'"),
    ({"kind": "uniform", "b": None}, "uniform law b must be a finite number, got None"),
    ({"kind": "gaussian", "var": math.inf}, "gaussian law var must be a finite number"),
    ({"kind": "gaussian", "mean": math.nan}, "gaussian law mean must be a finite number"),
    ({"kind": "exponential", "rate": True}, "exponential law rate must be a finite number"),
    ({"kind": "exponential", "rate": 10 ** 400}, "exponential law rate must be a finite number"),
    ({"kind": "two_point", "a": [1.0]}, "two_point law a must be a finite number"),
    ({"kind": "two_point", "weight_a": 1.5}, "two_point law needs 0 <= weight_a <= 1, got 1.5"),
    ({"kind": "two_point", "weight_a": -0.25}, "two_point law needs 0 <= weight_a <= 1, got -0.25"),
])
def test_law_parameters_must_be_finite_numbers(spec, message):
    with pytest.raises(errors.ValidationError, match=re.escape(message)):
        law_from_spec(spec)


def test_law_parameters_accept_integers():
    assert law_from_spec({"kind": "uniform", "a": 0, "b": 2}).params == (0.0, 2.0)
    assert law_from_spec({"kind": "two_point", "weight_a": 1}).params == (-1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def test_mollify_zero_delta_identity():
    y = sample_wigner(6, two_point_law(), 1)
    assert mollify_ensemble(y, 0.0, 1) is y


def test_mollify_negative_delta_rejected():
    y = sample_wigner(3, two_point_law(), 1)
    with pytest.raises(errors.NegativeDelta):
        mollify_ensemble(y, -0.1, 1)


def test_mollify_trace_second_moment():
    # E Tr[(Y~ - Y)^2] = delta n^2 (all n^2 entries have variance delta)
    n, delta, trials = 10, 0.3, 400
    vals = np.empty(trials)
    for t in range(trials):
        y = sample_wigner(n, two_point_law(), (7, t))
        y2 = mollify_ensemble(y, delta, (7, t))
        diff = y2.dense() - y.dense()
        vals[t] = float(np.sum(diff * diff))
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(trials))
    assert abs(mean - delta * n * n) <= 5.0 * stderr


def test_mollify_entry_distribution_ks():
    # entry (1,2) of (Y~ - Y)/sqrt(delta) is standard normal
    n, delta, trials = 3, 0.5, 10_000
    idx = 1  # row 0, col 1 in upper-triangle storage
    # one block-sampler call: row 2t is trial t's Y, row 2t + 1 its Y~
    [upper] = rmt._chunk_draws(two_point_law(), [(n, delta)],
                               rmt._stream_keys((8,), range(trials), delta))
    y, y2 = upper[0::2], upper[1::2]
    # the same bits as the one-row calls
    for t in range(3):
        one = sample_wigner(n, two_point_law(), (8, t))
        assert np.array_equal(y[t], one.upper)
        assert np.array_equal(y2[t], mollify_ensemble(one, delta, (8, t)).upper)
    draws = (y2[:, idx] - y[:, idx]) / math.sqrt(delta)
    assert kstest(draws, "norm").pvalue > 1e-3


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_diagonal():
    assert np.allclose(spectrum(SymmetricMatrix.from_dense(np.diag([3.0, 1.0, 2.0]))),
                       [1.0, 2.0, 3.0])


def test_spectrum_exact_2x2():
    a = SymmetricMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spectrum(a), [-1.0, 1.0], atol=1e-14)


def test_spectrum_matches_charpoly_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        mat = rng.standard_normal((8, 8))
        mat = 0.5 * (mat + mat.T)
        lib = spectrum(SymmetricMatrix.from_dense(mat))
        oracle = charpoly_eigenvalues(mat)
        assert np.max(np.abs(lib - oracle)) <= 1e-8


def test_spectrum_residual_and_trace_contracts():
    rng = np.random.default_rng(5)
    for n in (4, 9, 17):
        mat = rng.standard_normal((n, n))
        mat = 0.5 * (mat + mat.T)
        a = SymmetricMatrix.from_dense(mat)
        w = spectrum(a)
        frob = float(np.linalg.norm(mat))
        assert abs(float(np.sum(w)) - float(np.trace(mat))) <= 1e-9 * frob
        assert abs(float(np.sum(w * w)) - frob * frob) <= 1e-9 * frob * frob
        # residual probe with eigenvectors from a dense solve
        vals, vecs = np.linalg.eigh(mat)
        for k in range(n):
            res = float(np.linalg.norm(mat @ vecs[:, k] - vals[k] * vecs[:, k]))
            assert res <= 1e-9 * frob


# ---------------------------------------------------------------------------
# empirical law integrals
# ---------------------------------------------------------------------------

def test_identity_integral_is_normalized_trace():
    y = sample_wigner(12, gaussian_law(0, 1), 3)
    x = y.scaled(1.0 / math.sqrt(12))
    assert empirical_law_integral(spectrum(x), FSpec("identity")) == pytest.approx(
        float(np.trace(x.dense())) / 12, abs=1e-12)


def test_abs_integral():
    assert empirical_law_integral(np.array([-1.0, 1.0]), FSpec("abs")) == 1.0


def test_arctan_integral_direct_sum():
    rng = np.random.default_rng(0)
    eigs = rng.standard_normal(37)
    assert empirical_law_integral(eigs, FSpec("arctan")) == pytest.approx(
        float(np.mean(np.arctan(eigs))), abs=1e-15)


def test_piecewise_linear_f_and_lip():
    f = f_from_spec({"kind": "piecewise_linear", "knots": [[-1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]})
    assert f.lip == 2.0
    assert f(np.array([-0.5]))[0] == pytest.approx(1.0)


def test_unknown_function_rejected():
    with pytest.raises(errors.UnknownFunction):
        FSpec("sigmoid")


@pytest.mark.parametrize("knots, message", [
    ([[0.0, 0.0], [0.0, 1.0]], "must increase"),               # repeated x: infinite slope
    ([[1.0, 0.0], [0.0, 1.0]], "must increase"),               # np.interp misreads these
    ([[-1.0, 0.0], [1.0, 1.0], [0.5, 2.0]], "must increase"),
    ([[0.0, 0.0], [float("nan"), 1.0]], "must be finite"),
    ([[0.0, 0.0], [float("inf"), 1.0]], "must be finite"),
    ([[0.0], [1.0, 1.0]], "f knot must be a list of 2 entries"),
    ([[0.0, "a"], [1.0, 1.0]], "f knot coordinate must be a finite number"),
])
def test_piecewise_linear_knots_are_validated(knots, message):
    with pytest.raises(errors.ValidationError, match=message):
        f_from_spec({"kind": "piecewise_linear", "knots": knots})


# ---------------------------------------------------------------------------
# Hoffman-Wielandt
# ---------------------------------------------------------------------------

def test_hw_equal_matrices():
    a = sample_wigner(5, gaussian_law(0, 1), 0)
    assert hoffman_wielandt_gap(a, a) == (0.0, 0.0)


def test_hw_permuted_diagonal_strict():
    a = SymmetricMatrix.from_dense(np.diag([1.0, 2.0]))
    b = SymmetricMatrix.from_dense(np.diag([2.0, 1.0]))
    lhs, rhs = hoffman_wielandt_gap(a, b)
    assert lhs == pytest.approx(0.0, abs=1e-14)
    assert rhs == pytest.approx(2.0)


def test_hw_property_random_pairs():
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        m1 = rng.standard_normal((n, n))
        m2 = rng.standard_normal((n, n))
        a = SymmetricMatrix.from_dense(0.5 * (m1 + m1.T))
        b = SymmetricMatrix.from_dense(0.5 * (m2 + m2.T))
        lhs, rhs = hoffman_wielandt_gap(a, b)
        assert lhs <= rhs + 1e-9 * (1.0 + rhs)


@given(n=st.integers(2, 8), seed=st.integers(0, 2**31 - 1), scale=st.floats(0.1, 50.0))
@settings(max_examples=120, deadline=None)
def test_hw_property_hypothesis(n, seed, scale):
    rng = np.random.default_rng(seed)
    m1 = scale * rng.standard_normal((n, n))
    m2 = scale * rng.standard_normal((n, n))
    a = SymmetricMatrix.from_dense(0.5 * (m1 + m1.T))
    b = SymmetricMatrix.from_dense(0.5 * (m2 + m2.T))
    lhs, rhs = hoffman_wielandt_gap(a, b)
    assert lhs <= rhs + 1e-9 * (1.0 + rhs)


def test_hw_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        hoffman_wielandt_gap(sample_wigner(2, two_point_law(), 0),
                             sample_wigner(3, two_point_law(), 0))


def test_lemma5_chain_per_trial():
    # |int f dmu_X - int f dmu_X~| <= (lip/sqrt(n)) sqrt(Tr[(X - X~)^2])
    f = FSpec("arctan")
    n = 15
    for t in range(50):
        y = sample_wigner(n, two_point_law(), (9, t))
        y2 = mollify_ensemble(y, 0.2, (9, t))
        x, x2 = y.scaled(n ** -0.5), y2.scaled(n ** -0.5)
        gap = abs(empirical_law_integral(spectrum(x), f)
                  - empirical_law_integral(spectrum(x2), f))
        diff = x.dense() - x2.dense()
        bound = f.lip / math.sqrt(n) * math.sqrt(float(np.sum(diff * diff)))
        assert gap <= bound + 1e-9


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_guionnet_values():
    assert guionnet_bound(2, 1.0, 1.0, 1.0) == pytest.approx(2.0 * math.exp(-1.0))
    assert guionnet_bound(10, 0.1, 1.0, 1.0) == pytest.approx(2.0 * math.exp(-0.25))
    assert guionnet_bound(10, 0.3, 1.0, 1.0, eps_over_3=True) == pytest.approx(
        2.0 * math.exp(-0.25))
    assert guionnet_bound(1, 1e-9, 1.0, 1.0) == 2.0  # clamped


def test_guionnet_validation():
    with pytest.raises(errors.NonPositiveArg):
        guionnet_bound(10, 0.0, 1.0, 1.0)
    with pytest.raises(errors.NonPositiveArg):
        guionnet_bound(10, 0.1, -1.0, 1.0)


def test_term1_values():
    assert term1_bound(3.0, 1.0, 1.0) == 1.0
    assert term1_bound(0.3, 1.0, 1e-4) == pytest.approx(0.01)
    with pytest.raises(errors.NonPositiveArg):
        term1_bound(0.0, 1.0, 1.0)


def test_term1_event_frequency_below_bound():
    # Monte Carlo frequency of the term-1 event at n=50, delta=1e-3
    n, delta, eps, trials = 50, 1e-3, 0.3, 200
    f = FSpec("identity")
    hits = 0
    for t in range(trials):
        y = sample_wigner(n, two_point_law(), (10, t))
        y2 = mollify_ensemble(y, delta, (10, t))
        s = empirical_law_integral(spectrum(y.scaled(n ** -0.5)), f)
        s2 = empirical_law_integral(spectrum(y2.scaled(n ** -0.5)), f)
        hits += abs(s - s2) >= eps / 3.0
    freq = hits / trials
    stderr = math.sqrt(freq * (1 - freq) / trials)
    assert freq <= term1_bound(eps, f.lip, delta) + 3.0 * stderr


def test_term3_zero_delta():
    gap, threshold = term3_check(10, 0.3, FSpec("identity"), 0.0, 20, 0)
    assert gap == 0.0
    assert threshold == pytest.approx(0.1)


def test_term3_identity_mean_zero():
    # for f = identity the gap is Tr(sqrt(delta) G / sqrt(n)) / n, mean zero
    n, delta, trials = 20, 0.04, 300
    diffs = np.empty(trials)
    f = FSpec("identity")
    for t in range(trials):
        y = sample_wigner(n, two_point_law(), (11, t))
        y2 = mollify_ensemble(y, delta, (11, t))
        diffs[t] = (empirical_law_integral(spectrum(y2.scaled(n ** -0.5)), f)
                    - empirical_law_integral(spectrum(y.scaled(n ** -0.5)), f))
    mean = float(np.mean(diffs))
    stderr = float(np.std(diffs, ddof=1) / math.sqrt(trials))
    assert abs(mean) <= 4.0 * stderr


def test_term3_arctan():
    gap, threshold = term3_check(30, 0.3, FSpec("arctan"), 0.01, 60, 3)
    assert gap <= 0.1 + 0.05  # lip sqrt(delta) = 0.1 plus generous MC room
    assert threshold == pytest.approx(0.1)


# ---------------------------------------------------------------------------
# cutoff
# ---------------------------------------------------------------------------

def test_cutoff_sentinel_and_zero():
    y = sample_wigner(6, gaussian_law(0, 1), 2)
    big = float(np.max(np.abs(y.upper))) + 1.0
    assert np.array_equal(cutoff(y, big).upper, y.upper)
    assert np.all(cutoff(y, 0.0).upper == 0.0)


def test_cutoff_strict_inequality():
    y = SymmetricMatrix.from_dense(np.array([[1.0, 0.5], [0.5, -1.0]]))
    out = cutoff(y, 1.0)
    assert out.dense()[0, 0] == 0.0  # |1.0| >= 1.0 removed
    assert out.dense()[0, 1] == 0.5


def test_exponential_cutoff_level_moment():
    eta, eps, lip = 0.1, 0.3, 1.0
    target = min(1.0, eta) * eps * eps / (9.0 * lip * lip)
    level = exponential_cutoff_level(1.0, target)
    # closed form at the solution sits just below the target
    excess = math.exp(-level) * (level * level + 2 * level + 2)
    assert excess < target
    assert excess > 0.9 * target
    # Monte Carlo confirmation
    law = exponential_law(1.0)
    draws = sample_wigner(200, law, 6).upper
    emp = float(np.mean(np.where(np.abs(draws) >= level, draws, 0.0) ** 2))
    stderr = float(np.std(np.where(np.abs(draws) >= level, draws, 0.0) ** 2, ddof=1)
                   / math.sqrt(draws.size))
    assert emp <= target + 5.0 * stderr


# ---------------------------------------------------------------------------
# delta schedule
# ---------------------------------------------------------------------------

def test_schedule_table_lookup():
    table = [(1.0, 5.0), (0.5, 20.0), (0.25, 300.0)]
    sched = delta_schedule(table, [20])
    assert sched.rows[0] == (20, 0.5, 20.0)


def test_schedule_infeasible():
    table = [(1.0, 5.0), (0.5, 20.0), (0.25, 300.0)]
    with pytest.raises(errors.NoFeasibleDelta):
        delta_schedule(table, [4])


def test_schedule_monotone():
    table = [(1.0, 5.0), (0.5, 20.0), (0.25, 300.0), (0.125, 1000.0)]
    sched = delta_schedule(table, [5, 20, 300, 1000, 5000])
    deltas = [dl for _, dl, _ in sched.rows]
    assert all(b <= a for a, b in zip(deltas[:-1], deltas[1:]))
    for n, dl, c in sched.rows:
        assert c <= n


def test_schedule_from_real_bg_table():
    from lsi_lab.bg import compute_bg
    from lsi_lab.measure import two_point
    from lsi_lab.mollify import MollifiedDensity

    table = [(dl, compute_bg(MollifiedDensity(two_point(), dl)).c_upper)
             for dl in (1.0, 0.5, 0.25, 0.125)]
    ns = sorted({int(math.ceil(c)) + 1 for _, c in table})
    sched = delta_schedule(table, ns)
    deltas = [dl for _, dl, _ in sched.rows]
    assert all(b <= a for a, b in zip(deltas[:-1], deltas[1:]))
    for n, dl, c in sched.rows:
        assert c <= n


# ---------------------------------------------------------------------------
# concentration experiment
# ---------------------------------------------------------------------------

def test_experiment_zero_trials_empty():
    cfg = ExperimentConfig(gaussian_law(0, 1), FSpec("identity"), (10,), (0.3,),
                           trials=0, seed=0)
    report = concentration_experiment(cfg)
    assert report.cells == ()


def test_infeasible_later_n_fails_before_any_batch(monkeypatch):
    calls = []
    monkeypatch.setattr(rmt, "_batch_integrals", lambda *args: calls.append(args))
    cfg = ExperimentConfig(two_point_law(), FSpec("arctan"), (60, 4), (0.3,), trials=5,
                           seed=0, delta_mode="schedule", c_table=((0.5, 20.0),))
    with pytest.raises(errors.NoFeasibleDelta, match=r"c\(delta\) <= 4$"):
        concentration_experiment(cfg, workers=1)
    assert calls == []


def test_schedule_needs_a_law_that_can_have_a_constant(monkeypatch):
    calls = []
    monkeypatch.setattr(rmt, "_batch_integrals", lambda *args: calls.append(args))
    cfg = ExperimentConfig(exponential_law(1.0), FSpec("arctan"), (10,), (0.5,), trials=20,
                           seed=1, delta_mode="schedule", c_table=((0.5, 3.0),))
    # the mollified exponential has no LSI constant, so no table row can be one
    with pytest.raises(errors.ValidationError,
                       match="law 'exponential' has no closed-form LSI constant"):
        concentration_experiment(cfg, workers=1)
    assert calls == []
    # a closed-form constant or compact support keeps the schedule
    for law in (gaussian_law(0, 1), two_point_law(), uniform_law(-1.0, 1.0),
                atom_mixture_law(_ATOMS)):
        assert rmt._plan(replace(cfg, law=law)) == ((10, 0.5, 3.0),)


def test_schedule_rows_are_checked_against_the_bracket(monkeypatch):
    real, seen = rmt._bg.compute_bg, []

    def compute_bg(d):
        seen.append(d.delta)
        return real(d)

    monkeypatch.setattr(rmt._bg, "compute_bg", compute_bg)
    # c_lower is about 0.021 at delta 0.5, 0.027 at 0.2 and 5.1 at 0.05
    cfg = ExperimentConfig(two_point_law(), FSpec("arctan"), (4, 8, 9), (0.5,), trials=0,
                           seed=1, delta_mode="schedule", c_table=((0.5, 3.0), (0.2, 7.0)))
    assert rmt._plan(cfg) == ((4, 0.5, 3.0), (8, 0.2, 7.0), (9, 0.2, 7.0))
    assert seen == [0.5, 0.2]  # one bracket per distinct delta the plan uses
    cfg = replace(cfg, c_table=((0.5, 3.0), (0.05, 5.0)))
    with pytest.raises(errors.ValidationError,
                       match=r"delta=0\.05 has c=5\.0, below the bracket's c_lower=5\.1"):
        rmt._plan(cfg)
    seen.clear()
    # the rows the plan does not use, and a law with a closed-form constant, are not bracketed
    assert rmt._plan(replace(cfg, n_list=(4,))) == ((4, 0.5, 3.0),)
    assert rmt._plan(replace(cfg, law=gaussian_law(0, 1))) == ((4, 0.5, 3.0),) + tuple(
        (n, 0.05, 5.0) for n in (8, 9))
    assert seen == [0.5]


def test_fixed_mode_brackets_once_for_every_n(monkeypatch):
    real, seen = rmt._bg.compute_bg, []

    def compute_bg(d):
        seen.append(d.delta)
        return real(d)

    monkeypatch.setattr(rmt._bg, "compute_bg", compute_bg)
    for trials in (0, 3):
        seen.clear()
        cfg = ExperimentConfig(two_point_law(), FSpec("arctan"), (4, 6, 8), (0.3,), trials,
                               seed=1, delta_mode="fixed", delta_value=0.25)
        report = concentration_experiment(cfg, workers=1)
        assert seen == [0.25]
        assert len(report.cells) == (3 if trials else 0)
        assert len({cell.c_used for cell in report.cells}) <= 1


def test_experiment_gaussian_envelope_small():
    cfg = ExperimentConfig(gaussian_law(0, 1), FSpec("identity"), (20, 40), (0.3, 0.5),
                           trials=150, seed=42)
    report = concentration_experiment(cfg)
    assert len(report.cells) == 4
    for cell in report.cells:
        assert cell.envelope_ok
        assert cell.empirical_freq <= cell.guionnet_bound + 5 * cell.mc_stderr
        assert cell.delta_used == 0.0 and cell.c_used == 1.0


def test_experiment_workers_bit_identical():
    cfg = ExperimentConfig(gaussian_law(0, 1), FSpec("arctan"), (15,), (0.3,),
                           trials=60, seed=3)
    a = concentration_experiment(cfg, workers=1)
    b = concentration_experiment(cfg, workers=5)
    assert json.dumps(asdict(a), sort_keys=True) == json.dumps(asdict(b), sort_keys=True)


@pytest.mark.parametrize("workers", [0, -2])
def test_experiment_needs_a_worker(workers):
    cfg = ExperimentConfig(gaussian_law(0, 1), FSpec("arctan"), (4,), (0.3,), trials=3, seed=3)
    with pytest.raises(errors.ValidationError, match=f"workers must be >= 1, got {workers}"):
        concentration_experiment(cfg, workers=workers)


def test_experiment_mollified_two_point_trend():
    cfg = ExperimentConfig(two_point_law(), FSpec("arctan"), (20, 50, 100), (0.5,),
                           trials=150, seed=11, delta_mode="fixed", delta_value=0.25)
    report = concentration_experiment(cfg)
    freqs = [c.empirical_freq for c in report.cells]
    assert all(b <= a for a, b in zip(freqs[:-1], freqs[1:]))
    for cell in report.cells:
        assert cell.delta_used == 0.25
        assert cell.c_used > 0
        assert cell.envelope_ok


def test_experiment_csv_shape():
    cfg = ExperimentConfig(gaussian_law(0, 1), FSpec("identity"), (10,), (0.5,),
                           trials=20, seed=0)
    report = concentration_experiment(cfg)
    lines = cli._csv(cli._RMT_COLUMNS, report.cells, cli._RMT_HEADER).strip().split("\n")
    assert lines[0] == cli._RMT_HEADER
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(lines[0].split(","))


def test_config_parsing_and_validation():
    raw = {"law": "two_point", "f": "arctan", "n": [20], "eps": [0.3],
           "trials": 5, "seed": 1, "delta": {"mode": "fixed", "value": 0.25}}
    cfg = config_from_dict(raw)
    assert cfg.law.kind == "two_point" and cfg.delta_value == 0.25
    with pytest.raises(errors.ValidationError):
        config_from_dict({**raw, "typo": 1})
    with pytest.raises(errors.UnknownLaw):
        config_from_dict({**raw, "law": "levy"})


@pytest.mark.parametrize("key", ["law", "f", "n", "eps"])
def test_config_missing_key_is_a_validation_error(key):
    raw = {"law": "gaussian", "f": "identity", "n": [4], "eps": [0.3]}
    del raw[key]
    with pytest.raises(errors.ValidationError, match=rf"missing config keys: \['{key}'\]"):
        config_from_dict(raw)


@pytest.mark.parametrize("delta", ["none", ["mode", "none"], 0.25])
def test_config_delta_must_be_a_mapping(delta):
    raw = {"law": "gaussian", "f": "identity", "n": [4], "eps": [0.3], "delta": delta}
    with pytest.raises(errors.ValidationError, match="delta must be a mapping"):
        config_from_dict(raw)


_WRONG_TYPES = [
    ({"n": 5}, "n must be a list, got 5"),
    ({"eps": 0.3}, "eps must be a list, got 0.3"),
    ({"n": ["a"]}, "n entry must be an integer, got 'a'"),
    ({"trials": "abc"}, "trials must be an integer, got 'abc'"),
    ({"seed": [1]}, "seed must be an integer, got [1]"),
    ({"delta": {"mode": "fixed", "value": "x"}}, "delta.value must be a finite number, got 'x'"),
    ({"delta": {"mode": "schedule", "table": [1.0]}},
     "delta.table row must be a list of 2 entries, got 1.0"),
]


@pytest.mark.parametrize("change, message", _WRONG_TYPES,
                         ids=[f"change{i}" for i in range(len(_WRONG_TYPES))])
def test_config_numbers_of_the_wrong_type_are_a_validation_error(change, message):
    raw = {"law": "gaussian", "f": "identity", "n": [4], "eps": [0.3], **change}
    with pytest.raises(errors.ValidationError, match=re.escape(message)):
        config_from_dict(raw)


@pytest.mark.parametrize("value", [-0.5, math.inf, math.nan])
def test_config_fixed_delta_must_be_finite_and_nonnegative(value):
    raw = {"law": "gaussian", "f": "identity", "n": [4], "eps": [0.3], "trials": 3,
           "delta": {"mode": "fixed", "value": value}}
    with pytest.raises(errors.NegativeDelta, match="fixed delta must be finite and >= 0"):
        config_from_dict(raw)


_NOT_INTEGERS = [
    ({"n": [20.7]}, "n entry must be an integer, got 20.7"),
    ({"n": [4, 1e999]}, "n entry must be an integer, got inf"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"trials": math.nan}, "trials must be an integer, got nan"),
    ({"seed": "3"}, "seed must be an integer, got '3'"),
]


@pytest.mark.parametrize("change, message", _NOT_INTEGERS,
                         ids=[f"change{i}" for i in range(len(_NOT_INTEGERS))])
def test_config_integers_are_not_truncated(change, message):
    raw = {"law": "gaussian", "f": "identity", "n": [4], "eps": [0.3], **change}
    with pytest.raises(errors.ValidationError, match=re.escape(message)):
        config_from_dict(raw)


@pytest.mark.parametrize("change, message", [
    ({"eps": [True]}, "eps entry must be a finite number, got True"),
    ({"eps": ["0.3"]}, "eps entry must be a finite number, got '0.3'"),
    ({"n": [True]}, "n entry must be an integer, got True"),
    ({"delta": {"mode": "fixed", "value": "0.25"}}, "delta.value must be a finite number"),
    ({"delta": {"mode": "schedule", "table": [[0.25, "2"]]}}, "delta.table entry must be"),
    ({"f": {"kind": "piecewise_linear", "knots": [[0, 0], [1, False]]}},
     "f knot coordinate must be a finite number, got False"),
])
def test_config_numbers_refuse_strings_and_bools(change, message):
    raw = {"law": "gaussian", "f": "identity", "n": [4], "eps": [0.3], **change}
    with pytest.raises(errors.ValidationError, match=re.escape(message)):
        config_from_dict(raw)


def test_config_numbers_accept_numpy_scalars():
    cfg = config_from_dict({"law": {"kind": "gaussian", "var": np.float32(2.0)}, "f": "abs",
                            "n": [np.int64(4)], "eps": [np.float64(0.3)],
                            "trials": np.int32(3), "seed": np.float64(7.0)})
    assert (cfg.law.params, cfg.n_list, cfg.eps_list, cfg.trials, cfg.seed) == (
        (0.0, 2.0), (4,), (0.3,), 3, 7)
    assert all(type(v) is int for v in (*cfg.n_list, cfg.trials, cfg.seed))


def test_config_integral_floats_are_integers():
    cfg = config_from_dict({"law": "gaussian", "f": "identity", "n": [20.0, 7],
                            "eps": [0.3], "trials": 3.0, "seed": 2.0 ** 40})
    assert (cfg.n_list, cfg.trials, cfg.seed) == ((20, 7), 3, 2 ** 40)
    assert all(type(v) is int for v in (*cfg.n_list, cfg.trials, cfg.seed))


def test_config_seed_must_be_nonnegative():
    raw = {"law": "gaussian", "f": "identity", "n": [4], "eps": [0.3], "seed": -1}
    with pytest.raises(errors.ValidationError, match="seed must be >= 0, got -1"):
        config_from_dict(raw)


def test_config_must_be_a_mapping():
    with pytest.raises(errors.ValidationError, match="config must be a mapping"):
        config_from_dict([["law", "gaussian"]])


def test_wigner_semicircle_ks():
    n = 200
    y = sample_wigner(n, gaussian_law(0, 1), 1234)
    eigs = spectrum(y.scaled(n ** -0.5))
    emp = np.arange(1, n + 1) / n
    theory = semicircle_cdf(eigs)
    dist = max(float(np.max(np.abs(emp - theory))),
               float(np.max(np.abs(emp - 1.0 / n - theory))))
    assert dist <= 0.08


# ---------------------------------------------------------------------------
# chunked experiment against the per-trial loop
# ---------------------------------------------------------------------------

def _trial_stats(law, f, n, delta, key):
    """(int f dmu_X, int f dmu_X~) for the trial keyed by ``key``: the
    per-trial reference."""
    y = _frozen_wigner(n, law, key)
    inv_root = 1.0 / math.sqrt(n)
    s = empirical_law_integral(np.linalg.eigvalsh(y.scaled(inv_root).dense()), f)
    if delta == 0.0:
        return s, s
    y_moll = _frozen_mollify(y, delta, key)
    s_moll = empirical_law_integral(np.linalg.eigvalsh(y_moll.scaled(inv_root).dense()), f)
    return s, s_moll


def _loop_batch(law, f, sizes, key, trials, mapper=map):
    """rmt._batch_integrals as a loop of _trial_stats, one size at a time;
    ``mapper`` is ignored."""
    out = []
    for n, delta in sizes:
        stats = [_trial_stats(law, f, n, delta, key + (t,)) for t in range(trials)]
        out.append((np.array([a for a, _ in stats]), np.array([b for _, b in stats])))
    return out


def _loop_report(config, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(rmt, "_batch_integrals", _loop_batch)
        return asdict(concentration_experiment(config))


def _chunk_size(n, delta):
    return len(rmt._chunks([(n, delta)], 10_000)[0])


def _diagonal(f, n):
    """The triangle ranks a one-size batch keeps for ``f``."""
    return rmt._diagonal_ranks(n) if f == "identity" else None


_ATOMS = build_measure({"atoms": [{"x": -1.5, "w": 0.3}, {"x": 0.5, "w": 0.7}]})
_LAWS = {
    "gaussian": gaussian_law(0.5, 2.0),
    "two_point": two_point_law(-1.0, 1.0, 0.4),
    "uniform": uniform_law(-1.0, 2.0),
    "atom_mixture": atom_mixture_law(_ATOMS),
}
_N = 24


def _trial_counts(delta):
    k = _chunk_size(_N, delta)
    assert 2 < k < 200
    return (1, k - 1, k, k + 1, 2 * k + 1)


@pytest.mark.parametrize("law", sorted(_LAWS))
@pytest.mark.parametrize("delta", [0.0, 0.25])
def test_batch_integrals_equal_trial_loop(law, delta):
    args = (_LAWS[law], FSpec("arctan"), [(_N, delta)], (19, 1))
    for trials in _trial_counts(delta):
        [want] = _loop_batch(*args, trials)
        for workers in (1, 3):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                [got] = rmt._batch_integrals(*args, trials, pool.map)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("f", ["arctan", "identity"])
@pytest.mark.parametrize("delta", [0.0, 0.25])
def test_stream_keys_are_derived_once_per_batch_and_role(f, delta, monkeypatch):
    # small chunks: every batch runs as many chunks
    monkeypatch.setattr(rmt, "CHUNK_BYTES", 2048)
    trials = 40
    assert len(rmt._chunks([(_N, delta)], trials, _diagonal(f, _N))) >= 4
    real, calls = rmt._philox_keys, []

    def philox_keys(keys, role):
        calls.append((len(keys), role))
        return real(keys, role)

    monkeypatch.setattr(rmt, "_philox_keys", philox_keys)
    cfg = replace(_experiment_config("gaussian", delta, trials, f=f), n_list=(_N,))
    for workers in (1, 2):
        calls.clear()
        concentration_experiment(cfg, workers=workers)
        # the pilot's entry streams, then the main batch's entry and Gaussian ones
        entries, gauss = (trials, rmt._ROLE_ENTRIES), (trials, rmt._ROLE_GAUSS)
        assert calls == ([entries, entries, gauss] if delta > 0.0 else [entries, entries])


@pytest.mark.parametrize("law, delta", [("gaussian", 0.0), ("two_point", 0.25)])
@pytest.mark.parametrize("f", ["arctan", "identity"])
def test_report_does_not_depend_on_chunk_size_or_workers(law, delta, f, monkeypatch):
    cfg = _experiment_config(law, delta, 60, f=f)
    want = asdict(concentration_experiment(cfg, workers=1))
    assert asdict(concentration_experiment(cfg, workers=2)) == want
    monkeypatch.setattr(rmt, "CHUNK_BYTES", 2048)
    assert len(rmt._chunks([(_N, delta)], 60, _diagonal(f, _N))) >= 6
    for workers in (1, 2):
        assert asdict(concentration_experiment(cfg, workers=workers)) == want


# per delta mode, a law and its settings; the schedule gives each n its own
# delta: 0.5 at n = 3, 0.2 at n = 7 and 0.05 at n = 11
_SIZE_MODES = {
    "none": (gaussian_law(0.5, 2.0), {"delta_mode": "none"}),
    "fixed": (gaussian_law(0.5, 2.0), {"delta_mode": "fixed", "delta_value": 0.25}),
    "schedule": (two_point_law(-1.0, 1.0, 0.4),
                 {"delta_mode": "schedule", "c_table": ((0.5, 3.0), (0.2, 7.0), (0.05, 11.0))}),
}


@pytest.mark.parametrize("mode", sorted(_SIZE_MODES))
@pytest.mark.parametrize("f", ["arctan", "identity"])
def test_multi_size_report_equals_single_size_reports(mode, f, monkeypatch):
    law, settings = _SIZE_MODES[mode]
    cfg = ExperimentConfig(law, FSpec(f), (11, 3, 7), (0.05, 0.3), trials=40, seed=29,
                           **settings)
    # each size alone, one worker, default chunks
    want = [asdict(cell) for n in cfg.n_list
            for cell in concentration_experiment(replace(cfg, n_list=(n,)), workers=1).cells]
    deltas = {"none": [0.0] * 3, "fixed": [0.25] * 3, "schedule": [0.05, 0.5, 0.2]}[mode]
    assert [cell["delta_used"] for cell in want[::2]] == deltas
    for chunk_bytes in (rmt.CHUNK_BYTES, 2048):
        monkeypatch.setattr(rmt, "CHUNK_BYTES", chunk_bytes)
        for workers in (1, 2):
            got = concentration_experiment(cfg, workers=workers)
            # bit for bit: repr round-trips every float
            assert json.dumps([asdict(cell) for cell in got.cells]) == json.dumps(want)


@pytest.mark.parametrize("f", ["arctan", "identity"])
@pytest.mark.parametrize("delta", [0.0, 0.25])
def test_streams_are_read_once_per_batch_and_role(f, delta, monkeypatch):
    # small chunks: every batch runs as many chunks, for three sizes
    monkeypatch.setattr(rmt, "CHUNK_BYTES", 2048)
    sizes, trials = (9, _N, 4), 40
    top = _N * (_N + 1) // 2
    real_keys, real_draws = rmt._philox_keys, rmt._draws
    derived, owner, reads = [], {}, []

    def philox_keys(keys, role):
        out = real_keys(keys, role)
        batch = keys[0][1]  # the experiment keys a stream by (seed, batch, trial)
        derived.append((batch, role, len(keys)))
        owner.update({tuple(row): (batch, role) for row in out.tolist()})
        return out

    def draws(keys, count, ranks=None):
        reads.append((count, [tuple(row) for row in keys.tolist()]))
        return real_draws(keys, count, ranks)

    monkeypatch.setattr(rmt, "_philox_keys", philox_keys)
    monkeypatch.setattr(rmt, "_draws", draws)
    mode = {"delta_mode": "fixed", "delta_value": delta} if delta > 0.0 else {}
    cfg = ExperimentConfig(gaussian_law(0, 1), FSpec(f), sizes, (0.3,), trials, seed=3, **mode)
    roles = [(0, rmt._ROLE_ENTRIES), (1, rmt._ROLE_ENTRIES)]
    roles += [(1, rmt._ROLE_GAUSS)] if delta > 0.0 else []
    for workers in (1, 2):
        derived.clear()
        reads.clear()
        concentration_experiment(cfg, workers=workers)
        # keys once per batch and role, for all of its trials
        assert sorted(derived) == [(batch, role, trials) for batch, role in roles]
        # every read is to the largest triangle, and each stream is read once
        assert {count for count, _ in reads} == {top}
        streams = [row for _, rows in reads for row in rows]
        assert len(set(streams)) == len(streams)
        read = [owner[row] for row in streams]
        assert {at: read.count(at) for at in roles} == {at: trials for at in roles}
        assert len(read) == trials * len(roles)
        # in chunks of a few trials, each reading each of its roles once
        assert len(reads) >= 4 * len(roles)


def _experiment_config(law, delta, trials, f="abs"):
    if delta == 0.0:
        mode = {"delta_mode": "none"}
    elif law == "gaussian":
        mode = {"delta_mode": "fixed", "delta_value": delta}
    else:
        # c(delta) from a table: the trials do not depend on it
        mode = {"delta_mode": "schedule", "c_table": ((delta, 1.0),)}
    return ExperimentConfig(_LAWS[law], FSpec(f), (1, _N), (0.05, 0.3), trials,
                            seed=23, **mode)


@pytest.mark.parametrize("law, delta", [
    ("gaussian", 0.0), ("gaussian", 0.25), ("two_point", 0.25), ("uniform", 0.25),
    ("atom_mixture", 0.25)])
def test_experiment_equals_trial_loop(law, delta, monkeypatch):
    for trials in _trial_counts(delta):
        cfg = _experiment_config(law, delta, trials)
        want = _loop_report(cfg, monkeypatch)
        for workers in (1, 3):
            assert asdict(concentration_experiment(cfg, workers=workers)) == want


def test_pilot_decomposes_only_y(monkeypatch):
    delta = 0.25
    k = _chunk_size(_N, delta)
    cfg = _experiment_config("two_point", delta, k + 3, f="arctan")
    # the pilot batch at delta = 0 is batch 0's Y at the real delta, bit for bit
    pilots = rmt._batch_integrals(cfg.law, cfg.f, [(n, 0.0) for n in cfg.n_list],
                                  (cfg.seed, 0), cfg.trials)
    want = _loop_batch(cfg.law, cfg.f, [(n, delta) for n in cfg.n_list], (cfg.seed, 0),
                       cfg.trials)
    for (pilot, _), (y, _) in zip(pilots, want, strict=True):
        assert np.array_equal(pilot, y)

    real_batch, real_eigvalsh = rmt._batch_integrals, np.linalg.eigvalsh
    batch, matrices = [], {}

    def batch_integrals(law, f, sizes, key, trials, mapper=map):
        batch[:] = [key[-1]]
        return real_batch(law, f, sizes, key, trials, mapper)

    def eigvalsh(a):
        # a stack of n x n matrices, from batch batch[0]
        at = (a.shape[-1], batch[0])
        matrices[at] = matrices.get(at, 0) + len(a)
        return real_eigvalsh(a)

    monkeypatch.setattr(rmt, "_batch_integrals", batch_integrals)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    concentration_experiment(cfg, workers=1)
    # per matrix size: Y alone in the pilot, then Y and Y~ for every trial
    assert matrices == {(n, b): (b + 1) * cfg.trials for n in cfg.n_list for b in (0, 1)}


# ---------------------------------------------------------------------------
# f = identity: the trace, with no matrix built
# ---------------------------------------------------------------------------

def _identity_chunk_size(n, delta):
    return len(rmt._chunks([(n, delta)], 100_000, rmt._diagonal_ranks(n))[0])


def _trace_stats(law, n, delta, key):
    """(tr X / n, tr X~ / n) from one trial's frozen draws: the f = identity
    reference, the scaled diagonal's mean."""
    y = _frozen_wigner(n, law, key)
    y_moll = _frozen_mollify(y, delta, key) if delta > 0.0 else y
    diag = rmt._diagonal_ranks(n)
    return tuple(float(np.sum(m.upper[diag] * (1.0 / math.sqrt(n))) / n) for m in (y, y_moll))


def _trace_batch(law, f, sizes, key, trials, mapper=map):
    """rmt._batch_integrals for f = identity as a loop of _trace_stats, one
    size at a time."""
    out = []
    for n, delta in sizes:
        stats = [_trace_stats(law, n, delta, key + (t,)) for t in range(trials)]
        out.append((np.array([a for a, _ in stats]), np.array([b for _, b in stats])))
    return out


def test_identity_chunks_are_sized_by_the_diagonal(monkeypatch):
    for delta in (0.0, 0.25):
        for n in (1, _N, 100):
            k = _identity_chunk_size(n, delta)
            assert k == rmt.CHUNK_BYTES // (8 * n * (2 if delta > 0.0 else 1))
    # the criterion-7 config: 2000 trials at n = 20, 50, 100, a pilot and a
    # main batch, each run as chunks that keep the 168 distinct diagonal
    # ranks of the three sizes (all three diagonals start at rank 0)
    sizes = [(20, 0.0), (50, 0.0), (100, 0.0)]
    union = np.unique(np.concatenate([rmt._diagonal_ranks(n) for n, _ in sizes]))
    assert len(union) == 168
    k = len(rmt._chunks(sizes, 2000, union)[0])
    assert k == rmt.CHUNK_BYTES // (8 * 168)
    calls = 2 * len(rmt._chunks(sizes, 2000, union))
    assert calls == 22
    real, seen = rmt._chunk_integrals, []
    monkeypatch.setattr(rmt, "_chunk_integrals",
                        lambda *args: seen.append(len(args[4])) or real(*args))
    cfg = ExperimentConfig(gaussian_law(0, 1), FSpec("identity"), (20, 50, 100), (0.3,),
                           trials=2000, seed=42)
    concentration_experiment(cfg, workers=1)
    assert len(seen) == calls and seen[:11] == [k] * 10 + [2000 - 10 * k]


@pytest.mark.parametrize("law, delta", [("gaussian", 0.0), ("gaussian", 0.25),
                                        ("two_point", 0.25)])
def test_identity_experiment_equals_trace_loop_at_chunk_edges(law, delta, monkeypatch):
    n = 100
    k = _identity_chunk_size(n, delta)
    for trials in (k - 1, k, k + 1):
        cfg = replace(_experiment_config(law, delta, trials, f="identity"), n_list=(n,))
        with monkeypatch.context() as m:
            m.setattr(rmt, "_batch_integrals", _trace_batch)
            want = asdict(concentration_experiment(cfg, workers=1))
        for workers in (1, 3):
            assert asdict(concentration_experiment(cfg, workers=workers)) == want


@pytest.mark.parametrize("delta", [0.0, 0.09])
def test_identity_term3_check_equals_trace_loop_at_chunk_edges(delta):
    n, seed = 100, 2**32 + 1
    k = _identity_chunk_size(n, delta)
    for trials in (k - 1, k, k + 1):
        gaps = np.array([b - a for a, b in (_trace_stats(two_point_law(), n, delta, (seed, 3, t))
                                            for t in range(trials))])
        assert term3_check(n, 0.3, FSpec("identity"), delta, trials, seed) == (
            abs(float(np.mean(gaps))), 0.3 / 3)


@pytest.mark.parametrize("delta", [0.0, 0.25])
def test_identity_decomposes_no_matrix(delta, monkeypatch):
    def eigvalsh(a):
        raise AssertionError("eigvalsh called for f = identity")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    trials = 2 * _identity_chunk_size(_N, delta) + 1
    # only the Gaussian law has a constant of its own at delta = 0
    for law in ("gaussian",) if delta == 0.0 else sorted(_LAWS):
        cfg = _experiment_config(law, delta, trials, f="identity")
        assert len(concentration_experiment(cfg, workers=3).cells) == 4
    gap, _ = term3_check(_N, 0.3, FSpec("identity"), delta, trials, 5)
    assert gap == 0.0 if delta == 0.0 else gap > 0.0


@pytest.mark.parametrize("law", sorted(_LAWS))
@pytest.mark.parametrize("delta", [0.0, 0.25])
def test_identity_rows_are_the_scaled_diagonal_mean(law, delta):
    key, trials = (19, 1), range(3, 3 + _chunk_size(_N, delta))
    keys = rmt._stream_keys(key, trials, delta)
    [(s, s_moll)] = rmt._chunk_integrals(_LAWS[law], FSpec("identity"), [(_N, delta)], key,
                                         trials, keys, rmt._diagonal_ranks(_N))
    rows, cols = rmt._triu(_N)
    [upper] = rmt._chunk_draws(_LAWS[law], [(_N, delta)], keys)
    diag = upper[:, rows == cols]
    trace = np.array([np.sum(d * (1.0 / math.sqrt(_N))) / _N for d in diag])
    trace = trace.reshape(len(trials), -1)
    assert np.array_equal(s, trace[:, 0]) and np.array_equal(s_moll, trace[:, -1])
    # the eigenvalue sum agrees with the trace to rounding
    want = np.array([_trial_stats(_LAWS[law], FSpec("identity"), _N, delta, key + (t,))
                     for t in trials])
    assert np.max(np.abs(np.stack([s, s_moll], axis=1) - want)) <= 1e-12


def test_identity_report_equals_trial_loop(monkeypatch):
    for trials in _trial_counts(0.0):
        cfg = _experiment_config("gaussian", 0.0, trials, f="identity")
        want = _loop_report(cfg, monkeypatch)
        for workers in (1, 3):
            assert asdict(concentration_experiment(cfg, workers=workers)) == want


def _loop_term3(n, epsilon, f, delta, trials, seed):
    """term3_check as a per-trial loop: the reference for the chunked one."""
    law = two_point_law()
    gaps = np.empty(trials)
    inv_root = 1.0 / math.sqrt(n)
    for t in range(trials):
        y = _frozen_wigner(n, law, (seed, 3, t))
        y_moll = _frozen_mollify(y, delta, (seed, 3, t)) if delta > 0.0 else y
        s = empirical_law_integral(np.linalg.eigvalsh(y.scaled(inv_root).dense()), f)
        s_moll = empirical_law_integral(np.linalg.eigvalsh(y_moll.scaled(inv_root).dense()), f)
        gaps[t] = s_moll - s
    gap = abs(float(np.mean(gaps)))
    stderr = float(np.std(gaps, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return gap, stderr, gap > f.lip * math.sqrt(delta) + 3.0 * stderr


@pytest.mark.parametrize("delta", [0.0, 0.09])
def test_term3_check_equals_trial_loop(delta):
    n = 16
    for trials in _trial_counts(delta) + (2,):
        for seed in range(3):
            gap, _, raises = _loop_term3(n, 0.3, FSpec("arctan"), delta, trials, seed)
            assert not raises
            assert term3_check(n, 0.3, FSpec("arctan"), delta, trials, seed) == (gap, 0.3 / 3)


def test_term3_check_raises_exactly_where_the_loop_does():
    # n = 1, one trial: the gap is sqrt(delta) |g| against the bound
    # sqrt(delta), so about a third of the seeds raise
    outcomes = set()
    for seed in range(12):
        gap, stderr, raises = _loop_term3(1, 0.3, FSpec("identity"), 0.04, 1, seed)
        outcomes.add(raises)
        if raises:
            with pytest.raises(ArithmeticError, match=f"term-3 gap {gap:.6g} exceeds"):
                term3_check(1, 0.3, FSpec("identity"), 0.04, 1, seed)
        else:
            assert term3_check(1, 0.3, FSpec("identity"), 0.04, 1, seed)[0] == gap
    assert outcomes == {True, False}


_ALL_LAWS = {**_LAWS, "exponential": exponential_law(1.5)}


@pytest.mark.parametrize("law", sorted(_ALL_LAWS))
@pytest.mark.parametrize("n", [1, 7, 100])
def test_draws_equal_frozen_oracle(law, n, monkeypatch):
    # small chunks, so that k - 1, k and k + 1 trials stay cheap at n = 1
    monkeypatch.setattr(rmt, "CHUNK_BYTES", 2048)
    key, delta = (31, 1), 0.3
    for moll in (0.0, delta):
        k = len(rmt._chunks([(n, moll)], 10_000)[0])
        for trials in sorted({1, k - 1, k, k + 1} - {0}):
            want = []
            for t in range(trials):
                y = _frozen_wigner(n, _ALL_LAWS[law], key + (t,))
                want.append(y.upper)
                if moll > 0.0:
                    want.append(_frozen_mollify(y, moll, key + (t,)).upper)
            # the batch's keys, derived once; each chunk takes its rows
            keys = rmt._stream_keys(key, range(trials), moll)
            got = np.concatenate([upper for chunk in rmt._chunks([(n, moll)], trials)
                                  for upper in rmt._chunk_draws(_ALL_LAWS[law], [(n, moll)],
                                                                keys[chunk.start:chunk.stop])])
            assert np.array_equal(got, np.stack(want))
    for t in (0, 5):
        y = sample_wigner(n, _ALL_LAWS[law], key + (t,))
        frozen = _frozen_wigner(n, _ALL_LAWS[law], key + (t,))
        assert np.array_equal(y.upper, frozen.upper)
        assert np.array_equal(mollify_ensemble(y, delta, key + (t,)).upper,
                              _frozen_mollify(frozen, delta, key + (t,)).upper)


# ---------------------------------------------------------------------------
# stream keys: numpy's SeedSequence derivation, for every row at once
# ---------------------------------------------------------------------------

def _seed_sequence_keys(keys, role):
    return np.array([np.random.SeedSequence(list(key) + [role]).generate_state(2, np.uint64)
                     for key in keys], dtype=np.uint64).reshape(-1, 2)


# an element crossing 2^32 takes a second uint32 word, 2^64 a third
_KEY_ELEMENTS = (0, 2**32 - 1, 2**32, 2**64 + 1)


@pytest.mark.parametrize("role", [rmt._ROLE_ENTRIES, rmt._ROLE_GAUSS])
@pytest.mark.parametrize("seed", _KEY_ELEMENTS)
def test_philox_keys_equal_seed_sequence(seed, role, monkeypatch):
    # the key shapes in use: (seed,) from sample_wigner, (seed, 3, t) from
    # term3_check and (seed, batch, t) from the experiment's batches
    same_words = [[(seed,)], [(seed, 3, t) for t in range(6)],
                  [(seed, batch, t) for batch in (0, 1) for t in range(6)],
                  [(seed, 2**32 + t, 2**64 + 1) for t in range(3)]]
    mixed_words = [[(seed, 1, t) for t in _KEY_ELEMENTS], [(seed,), (seed, 0)], []]
    want = {id(keys): _seed_sequence_keys(keys, role) for keys in same_words + mixed_words}
    for keys in mixed_words:
        got = rmt._philox_keys(keys, role)
        assert got.dtype == np.uint64 and np.array_equal(got, want[id(keys)])
    # keys with equal word counts never reach SeedSequence: the mixing is rmt's own
    monkeypatch.setattr(np.random, "SeedSequence", None)
    for keys in same_words:
        got = rmt._philox_keys(keys, role)
        assert got.dtype == np.uint64 and np.array_equal(got, want[id(keys)])


@pytest.mark.parametrize("n", [1, 7, 100])
def test_draws_equal_per_key_philox(n):
    count = n * (n + 1) // 2
    ranks = rmt._diagonal_ranks(n)
    for keys in ([(2**32 + 5, 1, t) for t in range(5)], [(9, 3, t) for t in _KEY_ELEMENTS]):
        for role in (rmt._ROLE_ENTRIES, rmt._ROLE_GAUSS):
            want = np.array([np.random.Philox(np.random.SeedSequence(list(key) + [role]))
                             .random_raw(count) for key in keys]) >> np.uint64(11)
            rows = rmt._philox_keys(keys, role)
            assert np.array_equal(rmt._draws(rows, count), want)
            assert np.array_equal(rmt._draws(rows, count, ranks), want[:, ranks])


def test_unit_stays_inside_the_open_interval():
    k = np.array([0, 2**52 - 1, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    u = rmt._unit(k)
    assert np.all((u > 0.0) & (u < 1.0))
    assert u[-1] == np.nextafter(1.0, 0.0)
    # every draw below the top one keeps the value it always had
    old = (k.astype(np.float64) + 0.5) * 2.0 ** -53
    assert np.array_equal(u[:-1], old[:-1]) and old[-1] == 1.0
    assert u[0] == 2.0 ** -54 and u[1] == 0.5 - 2.0 ** -54
    assert np.all(np.isfinite(gaussian_law(0, 1).transform(u)))
    assert np.all(np.isfinite(exponential_law(1.0).transform(u)))


@pytest.mark.parametrize("n", [1, 100])
def test_spectrum_equals_eigvalsh(n):
    a = sample_wigner(n, gaussian_law(0, 1), 77)
    assert np.array_equal(spectrum(a), np.linalg.eigvalsh(a.dense()))


def _corrupting_eigvalsh(monkeypatch, call, row):
    """np.linalg.eigvalsh that shifts one row's eigenvalues on its call-th call."""
    real = np.linalg.eigvalsh
    calls = []

    def eigvalsh(a):
        w = real(a)
        calls.append(len(w))
        if len(calls) == call:
            w[row] += 1.0
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return calls


def test_trace_guard_names_the_trial(monkeypatch):
    delta = 0.25
    k = _chunk_size(_N, delta)
    cfg = ExperimentConfig(gaussian_law(0, 1), FSpec("arctan"), (_N,), (0.3,),
                           trials=3 * k, seed=4, delta_mode="fixed", delta_value=delta)
    # the pilot (batch 0) decomposes Y alone, in chunks sized for delta = 0.
    # The second chunk of batch 1 holds trials k .. 2k-1, two matrices each;
    # row 5 is trial k + 2's mollified matrix.  One worker, so that the
    # eigvalsh calls run in chunk order
    pilot = [len(chunk) for chunk in rmt._chunks([(_N, 0.0)], 3 * k)]
    calls = _corrupting_eigvalsh(monkeypatch, call=len(pilot) + 2, row=5)
    with pytest.raises(ArithmeticError,
                       match=rf"trace at n={_N}, batch 1, trial {k + 2}$"):
        concentration_experiment(cfg, workers=1)
    assert calls == pilot + [2 * k, 2 * k]


_needs_blas_setter = pytest.mark.skipif(
    rmt._SET_BLAS_THREADS is None, reason="numpy's BLAS has no openblas_set_num_threads_local")


@_needs_blas_setter
@pytest.mark.parametrize("corrupt", [False, True])
def test_spectra_pins_one_blas_thread_and_restores_the_count(monkeypatch, corrupt):
    setter = rmt._SET_BLAS_THREADS
    real = np.linalg.eigvalsh
    during = []

    def eigvalsh(a):
        during.append(setter(1))    # the count in force; writing 1 keeps it
        w = real(a)
        if corrupt:
            w[0] += 1.0
        return w

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    upper = sample_wigner(_N, gaussian_law(0, 1), 5).upper[None, :]
    original = setter(2)
    try:
        if corrupt:
            with pytest.raises(ArithmeticError, match="disagrees with trace"):
                rmt._spectra(_N, upper)
        else:
            rmt._spectra(_N, upper)
    finally:
        restored = setter(original)
    assert during == [1] and restored == 2


@_needs_blas_setter
def test_experiment_restores_the_blas_thread_count():
    setter = rmt._SET_BLAS_THREADS
    cfg = ExperimentConfig(gaussian_law(0, 1), FSpec("identity"), (_N,), (0.3,),
                           trials=3 * _chunk_size(_N, 0.0), seed=4)
    original = setter(2)
    try:
        concentration_experiment(cfg, workers=3)
    finally:
        restored = setter(original)
    assert restored == 2


def test_experiment_default_workers_is_the_usable_cpu_count(monkeypatch):
    seen = []
    monkeypatch.setattr(rmt, "usable_cpus", lambda: 3)
    monkeypatch.setattr(rmt, "ThreadPoolExecutor",
                        lambda max_workers: seen.append(max_workers) or ThreadPoolExecutor(1))
    cfg = ExperimentConfig(gaussian_law(0, 1), FSpec("identity"), (_N,), (0.3,),
                           trials=2, seed=4)
    assert concentration_experiment(cfg) == concentration_experiment(cfg, workers=1)
    assert seen == [3]


def test_rmt_trace_guard_exit_2_writes_nothing(monkeypatch, tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"law": "gaussian", "f": "arctan", "n": [_N],
                                  "eps": [0.3], "trials": 200, "seed": 1}))
    out = tmp_path / "report.json"
    _corrupting_eigvalsh(monkeypatch, call=3, row=1)
    assert cli.main(["rmt", "--config", str(config), "--threads", "2",
                     "--out", str(out)]) == 2
    assert "eigenvalue sum disagrees with trace" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


@pytest.mark.parametrize("f", ["identity", "arctan"])
def test_rmt_overflowing_integral_is_a_numerical_error(f, tmp_path, capsys):
    # entries near 1e308: the identity's mean of n diagonal entries, and
    # arctan's trace guard (trace and Frobenius norm), leave the float range
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"law": {"kind": "gaussian", "mean": 1e308, "var": 1}, "f": f,
                                  "n": [4], "eps": [0.5], "trials": 3, "seed": 1,
                                  "delta": {"mode": "none"}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["rmt", "--config", str(config), "--out", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1 and err.startswith("error: ")
    assert err.rstrip().endswith("at n=4, batch 0, trial 0")
    with pytest.raises(errors.NumericalOverflow):
        concentration_experiment(config_from_dict(json.loads(config.read_text())), workers=1)


# the seed-0 rmt jobs of the benchmark's spectra workload (perfbench/workloads.py)
_SPECTRA_CONFIGS = {
    "gaussian_rmt": {"law": "gaussian", "f": "identity", "n": [20, 50, 100], "eps": [0.3, 0.5],
                     "trials": 2000, "seed": 42, "delta": {"mode": "none"}},
    "two_point_rmt": {"law": "two_point", "f": "arctan", "n": [50], "eps": [0.3, 0.5],
                      "trials": 500, "seed": 7,
                      "delta": {"mode": "schedule", "table": [[1.0, 4.027193634296965],
                                                              [0.5, 3.09836082891257],
                                                              [0.25, 3.3951885224718805]]}},
}


@pytest.mark.parametrize("job", sorted(_SPECTRA_CONFIGS))
def test_spectra_jobs_match_the_benchmark_record(job, tmp_path):
    # the benchmark counts a cell off by more than 1e-9 relative as a wrong
    # output; an ulp-level change of the draws must stay far inside that
    record = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    want = json.loads(record.read_text())[job]["cells"]
    config, out = tmp_path / "c.json", tmp_path / "r.json"
    config.write_text(json.dumps(_SPECTRA_CONFIGS[job]))
    assert cli.main(["rmt", "--config", str(config), "--threads", "1", "--out", str(out)]) == 0
    got = json.loads(out.read_text())["cells"]
    assert len(got) == len(want)
    for have, cell in zip(got, want):
        for key, value in cell.items():
            if isinstance(value, float):
                assert abs(have[key] - value) <= 1e-9 * abs(value), (job, cell["n"], key)
            else:
                assert have[key] == value, (job, cell["n"], key)
