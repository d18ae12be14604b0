"""Curvature certificates for mollified atom clouds in R^n.

For an atomic measure mu (finite weighted point cloud inside a ball of
radius R) mollified by an isotropic Gaussian of variance delta, the
negative log-density has the exact Hessian

    Hess(-log p)(x) = I/delta - Cov_{nu_x}(y) / delta^2,

where nu_x reweights the atoms by the Gaussian kernel at x.  This is the
covariance form of the second-derivative displays for p; it is
algebraically identical and numerically stabler (the cancellations are
absorbed by centering), and it is cross-checked against finite
differences of log p in the tests.  The tilted weights and log p share
one max-shifted log-sum-exp in numpy over log weights that leave out the
squared distance every atom shares, so probes far from the cloud keep
their atoms apart and stay finite.  It runs over a stack of points, and the
certificate runs its probes in blocks, one Hessian batch and one stacked
eigvalsh per block, each block's temporaries held to an element budget.

A uniform eigenvalue bound Hess(-log p) >= (1/c) I certifies a
log-Sobolev inequality with constant c.  Certificates here are probe
based (grid plus seeded random points) and therefore heuristic; the
analytic floor (delta - 2 R^2 n) / delta^2, valid whenever
delta > 2 R^2 n, is reported alongside.  Entries of
delta * Hess(-log p) - I are bounded by 2 R^2 / delta everywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import NonPositiveDelta, NumericalOverflow, ValidationError
from .errors import entries, fields, number

# largest probe set ProbeSpec.generate will allocate (grid plus random points)
MAX_PROBES = 1_000_000
_BLOCK_ELEMENTS = 2 ** 14  # bounds a probe block's (probes, atoms, n) temporaries


@dataclass(frozen=True)
class MeasureND:
    """Finite atom cloud: points (k, n), weights (k,), enclosing ball (center, R)."""

    dimension: int
    points: np.ndarray
    weights: np.ndarray
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)
        self.center.setflags(write=False)


def build_measure_nd(points, weights, center=None, radius=None) -> MeasureND:
    """Validate an atom cloud; default center/radius from the cloud itself."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ws = np.asarray(weights, dtype=float)
    if pts.ndim != 2 or pts.shape[0] != ws.shape[0]:
        raise ValidationError("points and weights must have matching leading size")
    if pts.shape[1] == 0:
        raise ValidationError("points need at least one coordinate")
    if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(ws)):
        raise ValidationError("points and weights must be finite")
    if np.any(ws < 0.0):
        raise ValidationError("weights must be nonnegative")
    total = float(np.sum(ws))
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"weights sum to {total!r}, not 1")
    ws = ws / total
    n = pts.shape[1]
    ctr = (np.asarray(center, dtype=float) if center is not None
           else np.average(pts, axis=0, weights=ws))
    dists = np.linalg.norm(pts - ctr, axis=1)
    r = float(radius) if radius is not None else float(np.max(dists))
    for name, value in (("center", ctr.tolist()), ("radius", r)):
        if not np.all(np.isfinite(value)):
            raise ValidationError(f"{name} must be finite, got {value}")
    if float(np.max(dists)) > r + 1e-12:
        raise ValidationError("an atom lies outside the stated ball")
    return MeasureND(dimension=n, points=pts, weights=ws, center=ctr, radius=r)


def measure_nd_from_dict(raw: dict) -> MeasureND:
    """The cloud JSON ``{"atoms": [{"point": [...], "w": ...}], "dimension": n,
    "center": [...], "radius": r}``; points and center have one length, n."""
    fields(raw, "measure", {"dimension", "atoms", "center", "radius"})
    atoms = [fields(a, "atom", {"point", "w"}, required={"point", "w"})
             for a in entries(raw.get("atoms", []), "atoms")]
    if not atoms:
        raise ValidationError("measure needs at least one atom")
    dim = raw.get("dimension")
    dim = (len(entries(atoms[0]["point"], "atom point")) if dim is None
           else number(dim, "dimension", integral=True))

    def coords(value, what):
        return [number(v, f"{what} coordinate") for v in entries(value, what, dim)]

    center, radius = raw.get("center"), raw.get("radius")
    return build_measure_nd([coords(a["point"], "atom point") for a in atoms],
                            [number(a["w"], "atom w") for a in atoms],
                            None if center is None else coords(center, "center"),
                            None if radius is None else number(radius, "radius"))


def _check_delta(delta: float) -> None:
    if not (delta > 0.0 and math.isfinite(delta)):
        raise NonPositiveDelta(f"delta must be positive and finite, got {delta!r}")


def _log_atom_weights(m: MeasureND) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(m.weights)


def _tilted(m: MeasureND, delta: float, xs) -> tuple[np.ndarray, np.ndarray]:
    """(tilted atom weights (b, k), log sum_k w_k exp(-|x - y_k|^2 / 2 delta) (b,))
    at each row x of the points xs (b, n).

    With u = x - c and z_k = y_k - c for the ball's centre c, the log
    weights are log w_k + (u.z_k - |z_k|^2 / 2) / delta, one product u z^T
    for the stack: the |u|^2 / 2 delta a row's atoms share is left out of
    its max-shifted sum (whose largest term is exactly 1) and subtracted
    after it.  So far from the cloud x - y_k does not round y_k away, and
    the log-sum is -inf only where |u|^2 overflows.  In a row where
    u.z_k / delta overflows too, the atoms whose log weight is +inf
    outweigh the rest beyond the float range: they share the weight
    equally, and the log-sum is taken over their squared distances to x.
    In a row where every log weight overflows to -inf, the log-sum is -inf
    and the weight goes to the atoms whose log weight, scaled down, is the
    largest.
    """
    u = np.asarray(xs, dtype=float) - m.center
    z = m.points - m.center
    with np.errstate(over="ignore", invalid="ignore"):
        logw = _log_atom_weights(m) + (u @ z.T - 0.5 * np.sum(z * z, axis=1)) / delta
        top = np.max(logw, axis=1)
        w = np.exp(logw - top[:, None])
        total = np.sum(w, axis=1)
        w /= total[:, None]
        log_sum = top + np.log(total) - np.sum(u * u, axis=1) / (2.0 * delta)
        for i in np.flatnonzero(np.isinf(top)):
            if top[i] == math.inf:
                near = logw[i] == math.inf
                sq = np.sum((u[i] - z[near]) ** 2, axis=1)
                near_logw = _log_atom_weights(m)[near] - sq / (2.0 * delta)
                peak = float(np.max(near_logw))
                log_sum[i] = (peak + math.log(float(np.sum(np.exp(near_logw - peak))))
                              if peak > -math.inf else -math.inf)
            else:  # every log weight is -inf: compare them times delta / max|u|
                scale = float(np.max(np.abs(u[i])))
                scaled = (u[i] / scale) @ z.T + (delta * _log_atom_weights(m)
                                                 - 0.5 * np.sum(z * z, axis=1)) / scale
                near = scaled == np.max(scaled)
                log_sum[i] = -math.inf
            w[i] = near / float(np.count_nonzero(near))
    return w, log_sum


def log_density_nd(m: MeasureND, delta: float, x) -> float:
    """log p(x) for p = mu * gamma_delta, by log-sum-exp over the atoms."""
    _check_delta(delta)
    norm_const = 0.5 * m.dimension * math.log(2.0 * math.pi * delta)
    return float(_tilted(m, delta, np.reshape(x, (1, -1)))[1][0]) - norm_const


def hessian_neg_log_p(m: MeasureND, delta: float, x) -> np.ndarray:
    """Hess(-log p) = I/delta - Cov(y)/delta^2 under the tilted atom weights:
    (n, n) at a point x of shape (n,), (b, n, n) at each row of x of shape (b, n)."""
    _check_delta(delta)
    w, _ = _tilted(m, delta, np.reshape(x, (-1, m.dimension)))
    centered = m.points - (w @ m.points)[:, None, :]
    cov = np.swapaxes(centered * w[:, :, None], 1, 2) @ centered
    hess = np.eye(m.dimension) / delta - cov / (delta * delta)
    # halves first: the same bits, and no overflow where entries pass 1e308
    hess = 0.5 * hess + 0.5 * np.swapaxes(hess, 1, 2)
    return hess.reshape(np.shape(x) + (m.dimension,))


def _min_eigs(m: MeasureND, delta: float, xs: np.ndarray) -> np.ndarray:
    """Least eigenvalue of Hess(-log p) at each row of xs, one eigvalsh per block."""
    block = max(1, _BLOCK_ELEMENTS // (m.weights.size * m.dimension))
    return np.concatenate([np.linalg.eigvalsh(hessian_neg_log_p(m, delta, xs[i:i + block]))[:, 0]
                           for i in range(0, len(xs), block)])


def threshold_check(radius: float, n: int, delta: float) -> bool:
    """delta > 2 R^2 n, the large-variance regime where the certificate is guaranteed."""
    if radius < 0.0 or n < 1:
        raise ValidationError("threshold_check needs radius >= 0 and n >= 1")
    return delta > 2.0 * radius * radius * n


def gross_compose(c1: float, c2: float) -> float:
    """LSI constant of a product measure: the max of the factors' constants."""
    if not (c1 > 0.0 and c2 > 0.0):
        raise ValidationError("gross_compose needs positive constants")
    return max(c1, c2)


@dataclass(frozen=True)
class ProbeSpec:
    """Deterministic probe set: a grid over the inflated support box plus
    seeded random points."""

    grid_points_per_axis: int = 7
    random_points: int = 200
    seed: int = 0

    def generate(self, m: MeasureND, delta: float) -> np.ndarray:
        grid, rand = self.grid_points_per_axis, self.random_points
        if grid < 1 or rand < 0:
            raise ValidationError(f"probe counts need grid >= 1 and random >= 0,"
                                  f" got grid={grid}, random={rand}")
        if self.seed < 0:
            raise ValidationError(f"probe seed must be >= 0, got {self.seed}")
        total = grid ** m.dimension + rand
        if total > MAX_PROBES:
            raise ValidationError(f"{grid}^{m.dimension} grid + {rand} random probes ="
                                  f" {total} exceeds the limit of {MAX_PROBES}")
        half = m.radius + 6.0 * math.sqrt(delta)
        lo = m.center - half
        hi = m.center + half
        axes = [np.linspace(lo[i], hi[i], self.grid_points_per_axis)
                for i in range(m.dimension)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m.dimension)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([self.seed])))
        rand = lo + (hi - lo) * rng.random((self.random_points, m.dimension))
        return np.vstack([grid, rand]) if self.random_points else grid


@dataclass(frozen=True)
class HessianCertificate:
    """Probe-based curvature certificate (heuristic, never a proof)."""

    delta: float
    R: float  # radius of the ball holding the cloud
    n: int  # dimension
    min_eig: float
    min_eig_location: tuple[float, ...]
    c_candidate: float | None
    threshold_ok: bool  # delta > 2 R^2 n
    perturbation_bound: float
    analytic_floor: float
    probes_evaluated: int


def bakry_emery_certificate(m: MeasureND, delta: float,
                            probes: ProbeSpec | None = None) -> HessianCertificate:
    """Minimum Hessian eigenvalue over the probe set and the implied constant.

    ``c_candidate = 1/min_eig`` when the minimum is positive, else None.
    ``min_eig_location`` is the first probe within a relative 1e-12 of
    the minimum.
    The analytic floor (delta - 2 R^2 n)/delta^2 lower-bounds the true
    minimum whenever the delta > 2 R^2 n threshold holds.  Where delta is
    so small that the minimum or the floor is not a finite double, this
    raises ``NumericalOverflow`` naming the stage and delta.
    """
    _check_delta(delta)
    spec = probes if probes is not None else ProbeSpec()
    pts = spec.generate(m, delta)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        eigs = _min_eigs(m, delta, pts)
    min_eig = float(np.min(eigs))
    if not math.isfinite(min_eig):
        raise NumericalOverflow(f"Hessian of -log p leaves the float range at"
                                f" delta={delta!r} (minimum eigenvalue {min_eig})")
    # a relative tie band, so that round-off does not pick among tied probes
    min_loc = pts[int(np.argmax(eigs <= min_eig + 1e-12 * abs(min_eig)))]
    n = m.dimension
    r = m.radius
    delta_sq = delta * delta
    floor = (delta - 2.0 * r * r * n) / delta_sq if delta_sq > 0.0 else -math.inf
    if not math.isfinite(floor):
        raise NumericalOverflow(f"analytic floor (delta - 2 R^2 n) / delta^2 leaves the"
                                f" float range at delta={delta!r}")
    return HessianCertificate(
        delta=delta,
        R=r,
        n=n,
        min_eig=min_eig,
        min_eig_location=tuple(float(v) for v in min_loc),
        c_candidate=(1.0 / min_eig) if min_eig > 0.0 else None,
        threshold_ok=threshold_check(r, n, delta),
        perturbation_bound=2.0 * r * r / delta,
        analytic_floor=floor,
        probes_evaluated=len(pts),
    )
