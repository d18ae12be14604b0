"""Independent brute-force oracles the tests check the library against.

Everything here deliberately avoids the library's own quadrature and
search machinery: dense Simpson / trapezoid grids, closed-form Gaussian
CDFs from scipy.stats, cumulative sums for reciprocal integrals, Newton
identities plus companion-matrix roots for characteristic polynomials.
"""
from __future__ import annotations

import numpy as np
from scipy.special import logsumexp
from scipy.stats import norm


def simpson_integral(f, a: float, b: float, n: int = 1_000_001) -> float:
    """Composite Simpson on an odd dense grid."""
    if n % 2 == 0:
        n += 1
    x = np.linspace(a, b, n)
    y = np.asarray(f(x), dtype=float)
    h = (b - a) / (n - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum()))


def log_trapezoid(log_f, a: float, b: float, n: int = 10_000_001) -> float:
    """log of the trapezoid integral of exp(log_f) on a dense grid."""
    x = np.linspace(a, b, n)
    vals = np.asarray(log_f(x), dtype=float)
    h = (b - a) / (n - 1)
    logw = np.full(n, np.log(h))
    logw[0] += np.log(0.5)
    logw[-1] += np.log(0.5)
    return float(logsumexp(vals + logw))


# ---------------------------------------------------------------------------
# closed-form mollified quantities for atom + constant-piece measures
# ---------------------------------------------------------------------------

def _psi(z):
    """Antiderivative of the standard normal CDF."""
    return z * norm.cdf(z) + norm.pdf(z)


class MollifiedOracle:
    """Exact F and p for atoms plus constant-density pieces, mollified.

    atoms: list of (location, weight); pieces: list of (lo, hi, const).
    """

    def __init__(self, atoms, pieces, delta):
        self.atoms = atoms
        self.pieces = pieces
        self.sd = np.sqrt(delta)
        self.delta = delta

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for loc, w in self.atoms:
            out = out + w * norm.pdf((t - loc) / self.sd) / self.sd
        for lo, hi, c in self.pieces:
            out = out + c * (norm.cdf((t - lo) / self.sd) - norm.cdf((t - hi) / self.sd))
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for loc, w in self.atoms:
            out = out + w * norm.cdf((x - loc) / self.sd)
        for lo, hi, c in self.pieces:
            out = out + c * self.sd * (_psi((x - lo) / self.sd) - _psi((x - hi) / self.sd))
        return out

    def sf(self, x):
        """Right tail 1 - F(x), accurate far out (no 1 - cdf cancellation)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for loc, w in self.atoms:
            out = out + w * norm.sf((x - loc) / self.sd)
        for lo, hi, c in self.pieces:
            out = out + c * self.sd * (_psi((hi - x) / self.sd) - _psi((lo - x) / self.sd))
        return out

    def median(self, lo=-50.0, hi=50.0):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.cdf(np.array([mid]))[0] < 0.5:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def bg_side(self, m: float, window: float, side: str, nt: int = 2_000_001):
        """Brute-force one-sided supremum: dense grid, cumulative trapezoid."""
        if side == "left":
            t = np.linspace(m - window, m, nt)
        else:
            t = np.linspace(m, m + window, nt)
        with np.errstate(divide="ignore"):
            inv = 1.0 / self.pdf(t)
        dt = t[1] - t[0]
        seg = 0.5 * (inv[1:] + inv[:-1]) * dt
        if side == "left":
            integral = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
            tail = self.cdf(t)
        else:
            integral = np.concatenate([[0.0], np.cumsum(seg)])
            tail = self.sf(t)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = tail * np.log(1.0 / tail) * integral
        vals = np.where(np.isfinite(vals), vals, 0.0)
        i = int(np.argmax(vals))
        return float(vals[i]), float(t[i])

    def bg_totals(self, window_pad: float = 30.0):
        a = min([loc for loc, _ in self.atoms] + [lo for lo, _, _ in self.pieces])
        b = max([loc for loc, _ in self.atoms] + [hi for _, hi, _ in self.pieces])
        m = self.median()
        window = (b - a) + window_pad * self.sd
        d0, x0 = self.bg_side(m, window, "left")
        d1, x1 = self.bg_side(m, window, "right")
        return d0, d1, x0, x1


# ---------------------------------------------------------------------------
# Hessian of -log p for a mollified atom cloud in R^n
# ---------------------------------------------------------------------------

def cloud_log_weights(points, weights, delta: float, x) -> np.ndarray:
    """Unnormalized log kernel weights log w_k - |x - y_k|^2 / 2 delta of
    every atom at one point, from the squared distances taken directly."""
    sq = np.sum((np.asarray(x, dtype=float) - np.asarray(points, dtype=float)) ** 2, axis=1)
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(weights, dtype=float)) - sq / (2.0 * delta)


def cloud_hessian(points, weights, delta: float, x) -> np.ndarray:
    """Hess(-log p)(x) = I/delta - Cov/delta^2 for p = sum_k w_k N(y_k, delta I),
    at one point, from the tilted weights w_k exp(-|x - y_k|^2 / 2 delta) taken
    directly (no max shift), their mean and their covariance."""
    points = np.asarray(points, dtype=float)
    d = np.asarray(x, dtype=float) - points
    tilt = np.asarray(weights, dtype=float) * np.exp(-np.sum(d * d, axis=1) / (2.0 * delta))
    tilt = tilt / tilt.sum()
    mean = tilt @ points
    cov = sum(t * np.outer(y - mean, y - mean) for t, y in zip(tilt, points))
    return np.eye(points.shape[1]) / delta - cov / (delta * delta)


# ---------------------------------------------------------------------------
# characteristic polynomial eigenvalue oracle
# ---------------------------------------------------------------------------

def charpoly_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues via Newton's identities and companion-matrix roots.

    Power sums come from explicit matrix powers, so this path shares no
    code with a symmetric eigensolver.
    """
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    power = np.eye(n)
    p = np.empty(n + 1)
    for k in range(1, n + 1):
        power = power @ mat
        p[k] = np.trace(power)
    e = np.zeros(n + 1)
    e[0] = 1.0
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1.0) ** (i - 1) * e[k - i] * p[i]
        e[k] = acc / k
    coeffs = [(-1.0) ** k * e[k] for k in range(n + 1)]
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def semicircle_cdf(x) -> np.ndarray:
    """CDF of the semicircle law on [-2, 2]."""
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    return 0.5 + (x * np.sqrt(4.0 - x * x)) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi
