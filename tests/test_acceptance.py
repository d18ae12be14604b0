"""Acceptance gate: one test per criterion, at its stated tolerance.

Each test prints one PASS line (visible under ``pytest -s``); a failed
assertion marks the criterion failed.  Stated runtime budgets are
asserted as well.
"""
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from lsi_lab.bg import (
    blowup_scan,
    compute_bg,
    exponential_convolution_density,
    unbounded_detector,
)
from lsi_lab.highdim import (
    bakry_emery_certificate,
    build_measure_nd,
    hessian_neg_log_p,
    log_density_nd,
)
from lsi_lab.measure import disconnected_witness, point_mass, two_point
from lsi_lab.mollify import MollifiedDensity, asymptotic_ratios
from lsi_lab.rmt import (
    ExperimentConfig,
    FSpec,
    SymmetricMatrix,
    concentration_experiment,
    delta_schedule,
    gaussian_law,
    hoffman_wielandt_gap,
    spectrum,
    term1_bound,
    two_point_law,
)
from oracles import charpoly_eigenvalues

pytestmark = pytest.mark.acceptance


def test_criterion_1_gaussian_bracket():
    for delta in (0.5, 1.0, 2.0):
        t0 = time.perf_counter()
        report = compute_bg(MollifiedDensity(point_mass(0.0), delta))
        elapsed = time.perf_counter() - t0
        assert report.c_lower <= delta <= report.c_upper, (
            f"bracket [{report.c_lower}, {report.c_upper}] misses {delta}")
        assert elapsed < 5.0, f"compute_bg took {elapsed:.2f}s at delta={delta}"
    print("PASS criterion 1: Gaussian bracket contains delta for 0.5, 1, 2 (<5s each)")


def test_criterion_2_asymptotic_ratios():
    d = MollifiedDensity(two_point(), 1.0)
    t0 = time.perf_counter()
    rep50 = asymptotic_ratios(d, -50.0, "left")
    rep100 = asymptotic_ratios(d, -100.0, "left")
    elapsed = time.perf_counter() - t0
    for r in (rep50.ratio_lemma1, rep50.ratio_lemma2, rep50.ratio_lemma3):
        assert abs(r - 1.0) <= 0.05
    for r in (rep100.ratio_lemma1, rep100.ratio_lemma2, rep100.ratio_lemma3):
        assert abs(r - 1.0) <= 0.025
    assert elapsed < 2.0, f"asymptotics took {elapsed:.2f}s"
    print(f"PASS criterion 2: tail ratios within 0.05 at x=-50 and 0.025 at x=-100 "
          f"({elapsed:.2f}s)")


def test_criterion_3_blowup_slope():
    t0 = time.perf_counter()
    scan = blowup_scan(two_point(), [0.1, 0.05, 0.025])
    elapsed = time.perf_counter() - t0
    assert scan.theoretical_exponent == pytest.approx(0.5)
    assert scan.fitted_slope_vs_inv_delta >= 0.45
    assert elapsed < 30.0, f"scan took {elapsed:.2f}s"
    print(f"PASS criterion 3: blow-up slope {scan.fitted_slope_vs_inv_delta:.4f} "
          f">= 0.45 vs theoretical 0.5 ({elapsed:.1f}s)")


def test_criterion_4_disconnected_witness():
    entropy, energy = disconnected_witness(two_point(), (-1.0, 1.0))
    assert entropy == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
    assert energy == 0.0
    print("PASS criterion 4: witness entropy (1/2)log2 within 1e-12, energy 0")


def test_criterion_5_exponential_counterexample():
    verdict = unbounded_detector(exponential_convolution_density())
    assert verdict.verdict == "unbounded"
    vals = [v for _, v in verdict.witness]
    assert all(b >= 2.0 * a for a, b in zip(vals[:-1], vals[1:]))
    print(f"PASS criterion 5: detector unbounded with doubling witness "
          f"{[round(v, 2) for v in vals]}")


def test_criterion_6_hoffman_wielandt():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        m1 = rng.standard_normal((n, n))
        m2 = rng.standard_normal((n, n))
        a = SymmetricMatrix.from_dense(0.5 * (m1 + m1.T))
        b = SymmetricMatrix.from_dense(0.5 * (m2 + m2.T))
        lhs, rhs = hoffman_wielandt_gap(a, b)
        assert lhs <= rhs + 1e-9 * (1.0 + rhs)
    for _ in range(100):
        mat = rng.standard_normal((8, 8))
        mat = 0.5 * (mat + mat.T)
        lib = spectrum(SymmetricMatrix.from_dense(mat))
        oracle = charpoly_eigenvalues(mat)
        assert np.max(np.abs(lib - oracle)) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    print(f"PASS criterion 6: 10^4 Hoffman-Wielandt pairs hold; n=8 eigenvalues "
          f"match char-poly oracle to 1e-8 ({elapsed:.1f}s)")


CRITERION_7_CONFIG = {
    "law": "gaussian",
    "f": "identity",
    "n": [20, 50, 100],
    "eps": [0.3, 0.5],
    "trials": 2000,
    "seed": 42,
    "delta": {"mode": "none"},
}


def test_criterion_7_concentration_envelope():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        law=gaussian_law(0, 1), f=FSpec("identity"),
        n_list=(20, 50, 100), eps_list=(0.3, 0.5),
        trials=2000, seed=42, delta_mode="none")
    report = concentration_experiment(cfg)
    elapsed = time.perf_counter() - t0
    by_eps: dict = {}
    for cell in report.cells:
        assert cell.c_used == 1.0
        assert cell.empirical_freq <= cell.guionnet_bound + 5.0 * cell.mc_stderr, (
            f"cell n={cell.n} eps={cell.eps}: freq {cell.empirical_freq} above bound")
        by_eps.setdefault(cell.eps, []).append((cell.n, cell.empirical_freq))
    for eps, rows in by_eps.items():
        rows.sort()
        freqs = [f for _, f in rows]
        assert all(b <= a for a, b in zip(freqs[:-1], freqs[1:])), (
            f"frequency not nonincreasing in n at eps={eps}: {freqs}")
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.1f}s"
    print(f"PASS criterion 7: envelope holds on all 6 cells, frequency nonincreasing "
          f"in n ({elapsed:.1f}s)")


def test_criterion_8_mollified_pipeline():
    t0 = time.perf_counter()
    deltas = [1.0, 0.5, 0.25, 0.125]
    table = [(dl, compute_bg(MollifiedDensity(two_point(), dl)).c_upper)
             for dl in deltas]
    # smallest matrix size the real c_upper table admits
    n1 = int(math.ceil(min(c for _, c in table))) + 1
    schedule = delta_schedule(table, [n1])
    _, delta_n, c_n = schedule.rows[0]
    assert c_n <= n1
    cfg = ExperimentConfig(
        law=two_point_law(), f=FSpec("arctan"),
        n_list=(n1,), eps_list=(0.3, 0.5),
        trials=24, seed=7, delta_mode="schedule", c_table=tuple(table))
    report = concentration_experiment(cfg)
    for cell in report.cells:
        assert cell.delta_used == delta_n
        assert cell.term1_freq <= term1_bound(cell.eps, cell.f_lip, cell.delta_used), (
            f"term-1 frequency {cell.term1_freq} above the Lemma bound")
        assert cell.term3_gap <= cell.f_lip * math.sqrt(cell.delta_used) \
            + 3.0 * cell.term3_stderr, (
            f"term-3 gap {cell.term3_gap} above lip*sqrt(delta) + 3 stderr")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 8 took {elapsed:.1f}s"
    print(f"PASS criterion 8: schedule delta(n={n1})={delta_n} from the c_upper table; "
          f"term-1 and term-3 diagnostics inside their bounds ({elapsed:.1f}s)")


def test_criterion_9_bakry_emery():
    t0 = time.perf_counter()
    single = build_measure_nd([[0.0, 0.0]], [1.0])
    for delta in (0.5, 1.0, 2.0):
        h = hessian_neg_log_p(single, delta, [0.7, -0.3])
        assert np.array_equal(h, np.eye(2) / delta)

    cloud = build_measure_nd([[1.0, 0.0], [-1.0, 0.0]], [0.5, 0.5])
    cert = bakry_emery_certificate(cloud, 4.4)
    floor = (4.4 - 4.0) / 4.4 ** 2
    assert cert.threshold_ok
    assert cert.min_eig >= floor - 1e-9
    assert floor == pytest.approx(0.020661157, abs=1e-8)

    cert_small = bakry_emery_certificate(cloud, 0.05)
    assert not cert_small.threshold_ok
    assert cert_small.min_eig < 0.0
    mid_eig = float(np.linalg.eigvalsh(hessian_neg_log_p(cloud, 0.05, [0.0, 0.0]))[0])
    assert mid_eig < 0.0

    rng = np.random.default_rng(9)
    pts = rng.uniform(-1.0, 1.0, size=(5, 3))
    w = rng.uniform(0.5, 1.5, size=5)
    cloud3 = build_measure_nd(pts, w / w.sum())
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, size=3)
        exact = hessian_neg_log_p(cloud3, 1.0, x)
        fd = _fd_hessian(cloud3, 1.0, x)
        assert np.max(np.abs(exact - fd)) <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 9 took {elapsed:.1f}s"
    print(f"PASS criterion 9: exact single-atom Hessian, probe floor "
          f"{cert.min_eig:.4f} >= {floor:.6f}, negative eigenvalue at "
          f"delta=0.05, finite differences within 1e-5 ({elapsed:.1f}s)")


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
            val = -(f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej)
                    + f(x - ei - ej)) / (4 * h * h)
            out[i, j] = out[j, i] = val
    return out


def test_criterion_10_cli_determinism(tmp_path, source_env):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CRITERION_7_CONFIG))
    outputs = []
    for threads in (1, 2):
        out_path = tmp_path / f"report_{threads}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "lsi_lab", "rmt", "--config", str(config_path),
             "--threads", str(threads), "--out", str(out_path)],
            capture_output=True, text=True, env=source_env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1], "outputs differ across --threads values"
    print("PASS criterion 10: byte-identical CLI output for --threads 1 vs 2 "
          "on the criterion-7 config")
