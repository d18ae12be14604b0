"""Bobkov-Goetze functional: log-Sobolev constant brackets and blow-up scans.

For a measure with distribution function F, density p and median m, the
two one-sided suprema

    D0 = sup_{x < m}  F(x) log(1/F(x)) * integral_x^m 1/p,
    D1 = sup_{x > m}  (1-F(x)) log(1/(1-F(x))) * integral_m^x 1/p,

bracket the log-Sobolev constant:  (D0 + D1)/150 <= c <= 468 (D0 + D1).
Mollified compactly supported measures always have both suprema finite;
the integrand tends to delta^2/x^2 * (-log p(x)), whose limit is
delta/2, so a finite scan window plus that tail value captures the sup.

The supremum search scans 256 points per side over a window of width
(b - a) + 30 sqrt(delta), zooms on the best local maxima and compares to the
tail value at the window edge.  The integrand, a product of two cumulative
quantities, is smooth on the window's scale: 256 points find the maxima a
16,384-point scan finds.  One search, left of the median, serves both sides:
D1 is D0 of the mirror image ``d.mirror`` at -m, so a measure symmetric
about 0 and listed left to right gets D1 == D0.  A measure whose translate
to the centre c of its support is its own mirror (``Measure1D.centred``,
built with the measure) is bracketed as that translate, whose median is
exactly 0, so the second search's inputs would equal the first's: it is
searched once.  Among near-ties the point farthest from the median wins.
Every integral of 1/p comes from ``mollify.reciprocal_integral``, which
holds the tolerance (the report's ``quadrature_tol``) and the cuts: one
batched call gives the integrals from a side's scan points to the median.
Each zoom level evaluates the integrand at 64 equally spaced points of its
bracket with one vectorized tail mass and one batched call up to the
nearest scan edge toward the median, joined to the scan's integral from
that edge; the next bracket is the best point and its two neighbours.
After a level whose best point has four grid points on each side, the
vertices of two quartics, through the best point and the two points on
each side and through the best point and the points two and four away,
both place the maximum; when they agree to the search tolerance (1e-8,
about sqrt(eps): values alone place a smooth maximum no finer), the
integrand is evaluated at the first alone, and that vertex ends the zoom
if its value is at least the best grid value.  Otherwise the levels go
on, until the bracket is the search tolerance or 4 ulps of |x| wide,
whichever is wider, or after a fixed number of levels.  Any other measure
far from the origin is scanned as its translate next to the origin, so
translation changes nothing but the reported positions.

Also here: the blow-up scan for gapped measures (log(D0+D1) grows like
gap^2 / (8 delta)), the unboundedness detector for the exponential
convolution counterexample, and the Herbst sub-Gaussian tail bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NoGap, NonPositiveConstant, NumericalOverflow, ValidationError, WrongSide
from .measure import Measure1D, support_components, translate
from .mollify import (
    RECIPROCAL_TOL,
    MollifiedDensity,
    _check_side,
    half_crossing,
    log_density,
    log_ndtr,
    median,
    reciprocal_integral,
    tail_mass,
)
from .quadrature import NEG_INF, geometric_seeds, log_adaptive_quad

_SCAN_POINTS = 256
_REFINE_CANDIDATES = 5
_SEARCH_TOL = 1e-8
_REFINE_MAX_ITERS = 200
# points per zoom level, evaluated with one tail_mass and one reciprocal_integral call
_ZOOM_POINTS = 64


def _quartic_vertex(xs: np.ndarray, vals: np.ndarray, k: int, step: int) -> float:
    """Vertex of the quartic through the grid points k - 2 step, ..., k + 2 step,
    or nan unless that quartic has a concave maximum there and its values are
    finite.  In t = (x - x_k) / (x_{k+step} - x_k) the 5-point-stencil
    coefficients a1..a4 are exact for a quartic; a few Newton steps on its
    cubic derivative, from the vertex -a1 / (2 a2) of its quadratic part,
    place the maximum."""
    fa, fb, fx, fc, fd = vals[k - 2 * step:k + 2 * step + 1:step].tolist()
    a1 = (fa - 8.0 * fb + 8.0 * fc - fd) / 12.0
    a2 = (16.0 * (fb + fc) - 30.0 * fx - fa - fd) / 24.0
    a3 = (2.0 * (fb - fc) + fd - fa) / 12.0
    a4 = (fa + fd - 4.0 * (fb + fc) + 6.0 * fx) / 24.0
    if not (math.isfinite(fa + fb + fx + fc + fd) and a2 < 0.0):
        return math.nan
    t = -a1 / (2.0 * a2)
    for _ in range(4):
        curvature = 2.0 * a2 + t * (6.0 * a3 + 12.0 * a4 * t)
        if not curvature < 0.0:
            return math.nan
        t -= (a1 + t * (2.0 * a2 + t * (3.0 * a3 + 4.0 * a4 * t))) / curvature
    if not 2.0 * a2 + t * (6.0 * a3 + 12.0 * a4 * t) < 0.0:
        return math.nan
    return float(xs[k] + t * (xs[k + step] - xs[k]))


def _zoom_max(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> tuple[float, float]:
    """Maximum of the vectorized ``f`` on ``[lo, hi]`` by batched zoom with
    a quartic finish.

    Each level evaluates ``f`` once, at ``_ZOOM_POINTS`` equally spaced
    points of the bracket, and the next bracket is the best point and
    its two neighbours.  Stops once the bracket is ``_SEARCH_TOL`` wide,
    or 4 ulps of its larger end when that is wider (far from the origin
    float spacing exceeds ``_SEARCH_TOL``), and after ``_REFINE_MAX_ITERS``
    levels in any case.

    After a level whose best point has four grid points on each side, the
    vertex q1 of the quartic through the best point and the two on each
    side, and q2 of the quartic through the best point and the points two
    and four away, both place the maximum.  A quartic vertex's error
    scales as the spacing to the fourth, so q2's is about 16 times q1's,
    and ``|q1 - q2| <= _SEARCH_TOL`` bounds q1's.  Then ``f`` is evaluated
    at q1 alone, if q1 lies strictly inside the next bracket, and q1 is
    returned when its value is at least the best grid value (a tie goes to
    the vertex).  Otherwise the levels go on.  Without a vertex, returns
    the best grid (x, value) seen; among equal values the first seen,
    smallest x first (for the bracket search, which runs left of the
    median, the point farthest from it).  Either way the value is one
    ``f`` gave at the returned x.
    """
    best_x, best_v = lo, NEG_INF
    for _ in range(_REFINE_MAX_ITERS):
        xs = np.linspace(lo, hi, _ZOOM_POINTS)
        vals = f(xs)
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_x, best_v = float(xs[k]), float(vals[k])
        lo, hi = float(xs[max(k - 1, 0)]), float(xs[min(k + 1, _ZOOM_POINTS - 1)])
        if hi - lo <= max(_SEARCH_TOL, 4.0 * math.ulp(max(abs(lo), abs(hi)))):
            break
        if 4 <= k <= _ZOOM_POINTS - 5:
            q1 = _quartic_vertex(xs, vals, k, 1)
            if lo < q1 < hi and abs(q1 - _quartic_vertex(xs, vals, k, 2)) <= _SEARCH_TOL:
                value = float(f(np.array([q1]))[0])
                if value >= best_v:
                    return q1, value
    return best_x, best_v


@dataclass(frozen=True)
class BGReport:
    """Bracket on the log-Sobolev constant of one mollified measure."""

    delta: float
    D0: float
    D1: float
    x_star_0: float
    x_star_1: float
    c_lower: float
    c_upper: float
    tail_limit_estimate: float
    search_window: tuple[float, float]
    quadrature_tol: float
    search_tol: float
    median: float
    d0_from_tail: bool
    d1_from_tail: bool


def bg_integrand(d: MollifiedDensity, m: float, x: float, side: str) -> float:
    """log of F log(1/F) * (reciprocal integral to the median), one side.

    The search's integrand at one point, the reference the batched search
    is checked against.  ``side='left'`` needs x < m and uses F;
    ``'right'`` needs x > m and uses 1 - F.  Always finite on the valid
    side: the tail is below 1/2 there, so log(1/tail) > 0.
    """
    if not (x < m if _check_side(side) == "left" else x > m):
        raise WrongSide(f"{side} integrand needs x on the {side} of the median, got x={x}, m={m}")
    if side == "right":  # the left side of the mirror image
        return bg_integrand(d.mirror, -m, -x, "left")
    tail = tail_mass(d, x, "left")
    return tail + math.log(-tail) + reciprocal_integral(d, x, m)


def _side_supremum(d: MollifiedDensity, m: float, window: float,
                   name: str) -> tuple[float, float, bool]:
    """(sup value, argmax, tail_branch_won) left of the median ``m``: D0 of
    ``d``, or D1 of its mirror image.  Among near-ties the point farthest from
    the median wins.  Raises ``NumericalOverflow`` unless the sup is positive and finite.
    """
    def integrand(pts: np.ndarray, to_median: np.ndarray) -> np.ndarray:
        tails = tail_mass(d, pts, "left")
        with np.errstate(invalid="ignore"):
            return tails + np.log(-tails) + to_median

    # log integral of 1/p from each scan edge to the median (the median's own is -inf)
    edges = np.linspace(m - window, m, _SCAN_POINTS + 1)
    xs = edges[:-1]
    at_edge = reciprocal_integral(d, edges, m)
    v = integrand(xs, at_edge[:-1])
    v = np.where(np.isfinite(v), v, NEG_INF)

    # local maxima of the grid values, best few refined by batched zoom
    is_max = np.ones(len(v), dtype=bool)
    is_max[1:] &= v[1:] >= v[:-1]
    is_max[:-1] &= v[:-1] >= v[1:]
    cand = np.flatnonzero(is_max & np.isfinite(v))
    cand = cand[np.argsort(v[cand])[::-1][:_REFINE_CANDIDATES]]

    def objective(pts: np.ndarray) -> np.ndarray:
        # cut at the points and at the scan edges between them, up to the
        # nearest edge on the median's side, whose integral the scan has
        j = int(np.searchsorted(edges, pts[-1]))
        between = edges[np.searchsorted(edges, pts[0]):j + 1]
        rec = reciprocal_integral(d, np.concatenate([pts, between]), edges[j])
        return integrand(pts, np.logaddexp(rec[:len(pts)], at_edge[j]))

    best: list[tuple[float, float]] = []
    for idx in cand:
        lo = xs[max(idx - 1, 0)]
        hi = min(xs[min(idx + 1, len(xs) - 1)], m - 1e-13 * max(1.0, abs(m)))
        if lo >= hi:
            best.append((float(v[idx]), float(xs[idx])))
            continue
        x_ref, v_ref = _zoom_max(objective, float(lo), float(hi))
        best.append((max(v_ref, float(v[idx])), x_ref))

    interior_val, interior_x = NEG_INF, xs[0]
    if best:
        top = max(val for val, _ in best)
        # deterministic tie-break: farthest from the median among near-ties
        interior_val, interior_x = min(((val, x) for val, x in best if val >= top - 1e-12),
                                       key=lambda vx: vx[1])

    edge = xs[0]
    with np.errstate(invalid="ignore"):  # 0 * inf where log p leaves the float range
        d_tail = float((d.delta / (edge - m)) ** 2 * (-log_density(d, edge)))
    try:
        interior_D = math.exp(interior_val) if interior_val > NEG_INF else 0.0
    except OverflowError:
        raise NumericalOverflow(f"{name} = exp({interior_val!r}) exceeds the float range"
                                f" at delta={d.delta!r}") from None
    from_tail = d_tail > interior_D
    D, x = (d_tail, edge) if from_tail else (interior_D, interior_x)
    if not 0.0 < D < math.inf:
        raise NumericalOverflow(f"{name} = {D!r} is not a positive finite number at delta="
                                f"{d.delta!r}: log p leaves the float range in the window")
    return D, float(x), from_tail


def _origin_shift(a: float, b: float, window: float) -> float:
    """The multiple of the power of two at or above ``window`` nearest the
    centre of the support ``[a, b]``: 0 unless the support lies more than
    about half a window from the origin."""
    scale = math.ldexp(1.0, math.frexp(window)[1])
    return scale * round(0.5 * (a + b) / scale)


def compute_bg(d: MollifiedDensity) -> BGReport:
    """Evaluate both suprema and the log-Sobolev bracket for ``d``.

    The sup on each side is the larger of (i) the refined interior scan
    maximum and (ii) the analytic tail value delta^2/x^2 * (-log p) at
    the window edge (the integrand's x -> infinity equivalent, limit
    delta/2).  The report notes which branch won.

    A measure whose translate by the centre c = (a + b) / 2 of its support
    is its own mirror (``d.base.centred``) is bracketed as that translate,
    and the positions are moved back by c.  The translate's median is 0,
    so the right search would repeat the left one bit for bit: it is
    searched once, and D1 and x*_1 reuse D0 and x*_0.  No other measure
    is its own mirror, so every other one is searched on both sides, and
    one far from the origin is bracketed as its translate next to the
    origin, with the positions moved back: at |x| = 1e8 float spacing
    alone puts the median 1e-8 off, and the integrals of 1/p would
    resolve nothing finer than their rounding noise.  D0, D1 or c_upper
    beyond the float range raises ``NumericalOverflow``.
    """
    a, b = d.support()
    window = (b - a) + 30.0 * d.sigma
    centred = d.base.centred
    if centred is not None:  # searched once, about the centre of its support
        shift = 0.5 * (a + b)
        d = MollifiedDensity(centred, d.delta)
    else:
        shift = _origin_shift(a, b, window)
        if shift != 0.0:
            d = MollifiedDensity(translate(d.base, -shift), d.delta)
    m = median(d)
    D0, x0, tail0 = _side_supremum(d, m, window, "D0")
    if centred is not None:  # its own mirror, median 0: the right search's inputs are the left's
        D1, x1, tail1 = D0, x0, tail0
    else:
        D1, x1, tail1 = _side_supremum(d.mirror, -m, window, "D1")
    total = D0 + D1
    if not math.isfinite(468.0 * total):
        big, small = max(D0, D1), min(D0, D1)
        log_c = math.log(468.0) + math.log(big) + math.log1p(small / big)
        raise NumericalOverflow(f"c_upper = exp({log_c!r}) exceeds the float range"
                                f" at delta={d.delta!r}")
    return BGReport(
        delta=d.delta,
        D0=D0,
        D1=D1,
        x_star_0=x0 + shift,
        x_star_1=-x1 + shift,
        c_lower=total / 150.0,
        c_upper=468.0 * total,
        tail_limit_estimate=d.delta / 2.0,
        search_window=(m - window + shift, m + window + shift),
        quadrature_tol=RECIPROCAL_TOL,
        search_tol=_SEARCH_TOL,
        median=m + shift,
        d0_from_tail=tail0,
        d1_from_tail=tail1,
    )


# ---------------------------------------------------------------------------
# blow-up scan for gapped measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupScan:
    """log(D0+D1) along a shrinking delta grid, with the gap-exponent fit.

    ``fitted_slope_vs_inv_delta`` is the least-squares slope of
    log((D0+D1) * delta^(-3/2)) against 1/delta.  The 3/2-power prefactor
    is part of the known lower bound for gapped measures
    (const * delta^(3/2) * exp(gap^2 / 8 delta)); removing it before
    fitting is what makes the slope comparable to the theoretical
    exponent gap^2/8 at desk-scale deltas, where the prefactor still
    shifts a raw fit by several percent.
    """

    deltas: tuple[float, ...]
    log_D_totals: tuple[float, ...]
    fitted_slope_vs_inv_delta: float
    theoretical_exponent: float
    gap: tuple[float, float]
    reports: tuple[BGReport, ...]


def find_support_gap(m: Measure1D) -> tuple[float, float]:
    """The widest open interval of zero mass between support components."""
    comps = support_components(m)
    gaps = [(l1 - h0, h0, l1) for (_, h0), (l1, _) in zip(comps[:-1], comps[1:])]
    if not gaps:
        raise NoGap("measure has connected support; no blow-up gap")
    _, b, c = max(gaps)
    return b, c


def blowup_scan(m: Measure1D, deltas: Sequence[float]) -> BlowupScan:
    """Run compute_bg along ``deltas`` and fit the gap exponent.

    ``deltas`` must be finite normal doubles > 0, strictly decreasing, at
    least two of them.  When the smallest delta is at or below gap^2/80
    the fitted slope is checked against 0.9 * gap^2/8.
    """
    deltas = [float(x) for x in deltas]
    if len(deltas) < 2:
        raise ValidationError("need >= 2 deltas for slope")
    densities = [MollifiedDensity(m, dl) for dl in deltas]  # each delta checked up front
    if any(b >= a for a, b in zip(deltas[:-1], deltas[1:])):
        raise ValidationError("deltas must be strictly decreasing")
    b, c = find_support_gap(m)
    exponent = (c - b) ** 2 / 8.0

    reports = [compute_bg(d) for d in densities]
    logs = [math.log(r.D0 + r.D1) for r in reports]
    u = np.array([1.0 / dl for dl in deltas])
    y = np.array(logs) - 1.5 * np.log(np.array(deltas))
    slope = float(np.sum((u - u.mean()) * (y - y.mean())) / np.sum((u - u.mean()) ** 2))

    if min(deltas) <= (c - b) ** 2 / 80.0 and slope < 0.9 * exponent:
        raise ArithmeticError(
            f"fitted blow-up slope {slope:.6f} below 0.9 * theoretical {exponent:.6f}"
        )
    return BlowupScan(
        deltas=tuple(deltas),
        log_D_totals=tuple(logs),
        fitted_slope_vs_inv_delta=slope,
        theoretical_exponent=exponent,
        gap=(b, c),
        reports=tuple(reports),
    )


# ---------------------------------------------------------------------------
# unboundedness detector for closed-form densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedFormDensity:
    """A density given by an explicit log pdf, for the detector only.

    The right tail must be eventually monotone decreasing (true for the
    exponential convolution, the Gaussian, and the super-Gaussian used
    here); tail integrals extend until the log pdf has dropped 160 units.
    The median is ``half_crossing`` on 1/2 minus the right tail, within
    ``median_bracket``, one point per level: each tail is a scalar
    adaptive quadrature.
    """

    name: str
    log_pdf: Callable
    median_bracket: tuple[float, float] = (-60.0, 60.0)

    def log_right_tail(self, x: float) -> float:
        peak = float(self.log_pdf(np.asarray(x, dtype=float)))
        span = 1.0
        while float(self.log_pdf(np.asarray(x + span, dtype=float))) > peak - 160.0:
            peak = max(peak, float(self.log_pdf(np.asarray(x + span, dtype=float))))
            span *= 2.0
            if span > 1e8:
                raise ValidationError(f"{self.name}: right tail does not decay")
        seeds = geometric_seeds(x, span * 2.0 ** -40, x, x + span)
        return log_adaptive_quad(lambda t: np.asarray(self.log_pdf(t), dtype=float),
                                 x, x + span, rel_tol=RECIPROCAL_TOL, seed_points=seeds)

    def median(self) -> float:
        return half_crossing(lambda x: 0.5 - math.exp(self.log_right_tail(x)),
                             *self.median_bracket)

    def log_reciprocal_integral(self, m: float, x: float) -> float:
        lo, hi = (m, x) if m <= x else (x, m)
        if lo == hi:
            return NEG_INF
        seeds = geometric_seeds(hi, max((hi - lo) * 2.0 ** -40, 1e-14), lo, hi)
        return log_adaptive_quad(lambda t: -np.asarray(self.log_pdf(t), dtype=float),
                                 lo, hi, rel_tol=RECIPROCAL_TOL, seed_points=seeds)


def exponential_convolution_density() -> ClosedFormDensity:
    """Standard exponential convolved with a unit Gaussian.

    p(x) = exp(-x + 1/2) Phi(x - 1), which integrates to 1 and has right
    tail Phi(-x) + exp(-x + 1/2) Phi(x - 1).  The tail stays exponential,
    hence not sub-Gaussian, so no LSI holds.
    """
    return ClosedFormDensity(
        "exponential_gaussian",
        lambda x: -np.asarray(x, dtype=float) + 0.5 + log_ndtr(np.asarray(x, dtype=float) - 1.0),
    )


def standard_gaussian_density() -> ClosedFormDensity:
    c = 0.5 * math.log(2.0 * math.pi)
    return ClosedFormDensity(
        "standard_gaussian",
        lambda x: -0.5 * np.square(np.asarray(x, dtype=float)) - c,
    )


def super_gaussian_density() -> ClosedFormDensity:
    """Normalized density proportional to exp(-x^2/2 - x^4)."""
    raw = lambda t: -0.5 * np.square(np.asarray(t, dtype=float)) - np.asarray(t, dtype=float) ** 4
    log_z = log_adaptive_quad(raw, -4.0, 4.0, rel_tol=1e-12)
    return ClosedFormDensity("super_gaussian", lambda x: raw(x) - log_z,
                             median_bracket=(-4.0, 4.0))


@dataclass(frozen=True)
class UnboundedVerdict:
    verdict: str          # "unbounded" | "bounded"
    witness: tuple[tuple[float, float], ...]


def unbounded_detector(
    density: ClosedFormDensity,
    window_growth: Sequence[float] = (10.0, 20.0, 40.0, 80.0),
) -> UnboundedVerdict:
    """Evaluate the right-side integrand along a growing window.

    Verdict is "unbounded" when every value at least doubles its
    predecessor (the supremum grows without bound, so no LSI); otherwise
    "bounded" (plateau or decay).
    """
    xs = [float(x) for x in window_growth]
    if len(xs) < 2 or any(b <= a for a, b in zip(xs[:-1], xs[1:])):
        raise ValidationError("window growth schedule must be increasing, length >= 2")
    m = density.median()
    witness: list[tuple[float, float]] = []
    for x in xs:
        rt = density.log_right_tail(x)
        val = math.exp(rt + math.log(-rt) + density.log_reciprocal_integral(m, x))
        witness.append((x, val))
    grows = all(b >= 2.0 * a for (_, a), (_, b) in zip(witness[:-1], witness[1:]))
    return UnboundedVerdict(
        verdict="unbounded" if grows else "bounded",
        witness=tuple(witness),
    )


# ---------------------------------------------------------------------------
# Herbst tail bound
# ---------------------------------------------------------------------------

def herbst_bound(c: float, lip: float, lam: float) -> float:
    """Sub-Gaussian deviation bound 2 exp(-lambda^2 / (2 c lip^2)), clamped to 2."""
    if not (c > 0.0 and lip > 0.0):
        raise NonPositiveConstant("herbst_bound needs c > 0 and lip > 0")
    if lam < 0.0:
        raise NonPositiveConstant("herbst_bound needs lambda >= 0")
    return min(2.0, 2.0 * math.exp(-(lam * lam) / (2.0 * c * lip * lip)))
