"""Log-space evaluation of a Gaussian-mollified measure.

For a compactly supported base measure mu and the centered Gaussian of
variance delta, the mollified density is

    p(x) = integral of (2 pi delta)^(-1/2) exp(-(x-t)^2 / 2 delta) d mu(t).

Everything here is carried in log space: by x ~ a - 40 sqrt(delta) the
reciprocal 1/p already exceeds exp((x-a)^2 / 2 delta) and double
precision is long gone.  ``log_density``, ``tail_mass`` and
``log_density_ratio_grad`` take a scalar or an array of points, and so
does ``reciprocal_integral``, the one routine for integrals of 1/p: the
bracket's scan and zoom and the third tail quotient all call it.

Atoms contribute closed-form Gaussian densities and CDFs.  A polynomial
piece, split at c = clip(x, lo, hi) and integrated by parts, is a sum
over the ends e of its two parts of exp(-z^2/2) sqrt(delta) times
sum_k (+-sqrt(delta))^k q^(k)(e) h_k(z), z = |e - x| / sqrt(delta), with
h_k = Hh_k / phi the scaled repeated integrals of the normal tail.  Where
the kernel is wider than a quarter of the piece those terms would cancel,
and a fixed 20-point Gauss-Legendre rule on the piece is exact instead.
Tail masses integrate by parts once more, onto the mass below t.  The
expansion, derivatives, antiderivative, node terms and mass of a piece
are built once, with the piece (``measure.Piece``); a kernel call does
only the work that depends on x and delta.

Term arrays are (terms, points): one row per term, one contiguous column
per point.  All of them meet in one signed log-sum-exp that shifts each
column's largest finite term out and adds the rows one at a time, in a
fixed order, so a point's value does not depend on the batch it is
evaluated in.

The asymptotic report bundles the three tail quotients

    delta p'(x) / (-x p(x)),
    (left tail mass) / (-(delta/x) p(x)),
    (reciprocal integral to the median) / (-delta / (x p(x))),

each of which tends to 1 as x recedes from the support, at rate
max(|a|,|b|) / |x|.  Right-side values are the mirror image's at -x.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np
from scipy.special import erfcx, log_ndtr

from .errors import InsideSupport, NonPositiveDelta, NumericalOverflow, ValidationError, WrongSide
from .measure import MAX_POLY_DEGREE, LocalPoly, Measure1D, support_components
from .quadrature import NEG_INF, geometric_seeds, log_adaptive_quad, log_cell_integrals

Side = Literal["left", "right"]

_BLOCK = 4096  # points per kernel evaluation, which bounds the temporaries
# h_k(z) by its forward recurrence for z up to here, above it backward
_FORWARD_MAX_Z = 2.5
_BACKWARD_STEPS = 50
_WIDE_KERNEL = 4.0  # the rule takes kernels whose boundary layer exceeds width / 4
# tolerance (in log) of every integral of 1/p, which governs the bracket
RECIPROCAL_TOL = 1e-10


def _check_side(side: str) -> str:
    if side not in ("left", "right"):
        raise ValidationError(f"side must be 'left' or 'right', got {side!r}")
    return side


@dataclass(frozen=True)
class MollifiedDensity:
    """Handle for p = mu * gamma_delta with log-space evaluation."""

    base: Measure1D
    delta: float

    def __post_init__(self):
        if not 2.0 ** -1022 <= self.delta < math.inf:  # a subnormal delta keeps too few digits
            raise NonPositiveDelta(
                f"delta must be positive, finite and >= 2**-1022, got {self.delta!r}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.delta)

    def support(self) -> tuple[float, float]:
        return self.base.support_lo, self.base.support_hi

    @property
    def mirror(self) -> MollifiedDensity:
        """p(-x), whose left side is the one home of every right-side quantity."""
        return MollifiedDensity(self.base.mirror, self.delta)


def _blockwise(fn, x):
    """``fn`` over the points of ``x`` in blocks; a float for a scalar ``x``."""
    xs = np.asarray(x, dtype=float)
    flat = xs.ravel()
    out = np.concatenate([fn(flat[i:i + _BLOCK]) for i in range(0, flat.size, _BLOCK)]
                         or [np.empty(0)])
    if xs.ndim == 0:
        return float(out[0])
    return out.reshape(xs.shape)


def _logsumexp(a: np.ndarray, b: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Signed log-sum-exp down each column of the (terms, points) array
    ``a``, weighted by ``b`` (broadcast against ``a``) if given: (log |s|,
    sign s), s = sum b exp(a).

    Each column's largest finite entry is shifted out (so +inf entries stay
    +inf), and the rows are added in order, one at a time, so a column's
    value does not depend on the others.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # over: nan columns
        top = np.max(a, axis=0)
        if (top == math.inf).any():
            top = np.where(top == math.inf, np.max(np.where(a < math.inf, a, NEG_INF), axis=0), top)
        top[~np.isfinite(top)] = 0.0
        terms = np.exp(a - top)
        if b is not None:
            terms *= b
        s = terms[0]
        for row in terms[1:]:
            s += row
        return np.log(np.abs(s)) + top, np.sign(s)


def _atom_log_weights(m: Measure1D) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(m.atom_weights)


def _atom_log_terms(d: MollifiedDensity, xs: np.ndarray) -> np.ndarray:
    """log of w_k * exp(-(x - t_k)^2 / 2 delta), one row per atom (no kernel norm)."""
    m = d.base
    with np.errstate(over="ignore"):  # -inf where (x - t)^2 / 2 delta overflows
        return (_atom_log_weights(m)[:, None]
                - (xs[None, :] - m.atom_locations[:, None]) ** 2 / (2.0 * d.delta))


def _scaled_tail_integrals(z: np.ndarray, n: int) -> np.ndarray:
    """h_0 .. h_(n-1) at every z >= 0, stacked on a new first axis.

    k h_k = h_(k-2) - z h_(k-1), h_(-1) = 1 (Abramowitz & Stegun 26.2.40)
    loses digits forward as z grows; there the ratios h_k / h_(k-1) come
    from it backward instead, started at its fixed point k r^2 + z r = 1.
    """
    h = np.empty((n,) + z.shape)
    h[0] = math.sqrt(0.5 * math.pi) * erfcx(z / math.sqrt(2.0))
    if n == 1:
        return h
    fwd = z <= _FORWARD_MAX_Z
    zf, zb = z[fwd], z[~fwd]
    prev, cur = np.ones_like(zf), h[0][fwd]
    for k in range(1, n):
        prev, cur = cur, (prev - zf * cur) / k
        h[k][fwd] = cur
    top = n - 1 + _BACKWARD_STEPS
    ratio = (np.sqrt(zb * zb + 4.0 * top) - zb) / (2.0 * top)
    back = h[:, ~fwd]
    for k in range(top, 0, -1):
        if k < n:
            back[k] = ratio
        ratio = 1.0 / (zb + k * ratio)
    h[:, ~fwd] = np.cumprod(back, axis=0)
    return h


# h_k(0) for every k a kernel uses: the mass below t of a piece is one degree up
_H_AT_ZERO = _scaled_tail_integrals(np.zeros(1), MAX_POLY_DEGREE + 2)[:, 0]


def _endpoint_terms(d: MollifiedDensity, poly: LocalPoly,
                    xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Signed log terms, one row per term, of the integral over [lo, hi] of
    q(t) exp(-(x-t)^2 / 2 delta), by parts: the ends c, lo of the part left
    of x, then c, hi of the part right of x, c = clip(x, lo, hi).

    The z of c is that of lo (x <= lo), that of hi (x >= hi) or 0, and each
    h_k depends on its own z alone, so c's row of h is taken from the rows
    of lo and hi or from h_k(0).
    """
    lo, hi, n = poly.lo, poly.hi, len(poly.derivs)
    z = np.abs(np.stack([np.full_like(xs, lo), np.full_like(xs, hi)]) - xs) / d.sigma
    h = _scaled_tail_integrals(z, n)
    inside, right = (lo < xs) & (xs < hi), xs >= hi
    z_c = np.where(inside, 0.0, np.where(right, z[1], z[0]))
    h_c = np.where(inside, _H_AT_ZERO[:n, None], np.where(right, h[:, 1], h[:, 0]))
    at_c = [np.polynomial.polynomial.polyval(np.clip(xs, lo, hi) - lo, der)
            for der in poly.derivs]
    sums = np.stack([sum((direction * d.sigma) ** k * vals[k] * hs[k] for k in range(n))
                     for vals, hs, direction in ((at_c, h_c, -1.0), (poly.at_lo, h[:, 0], -1.0),
                                                 (at_c, h_c, 1.0), (poly.at_hi, h[:, 1], 1.0))]
                    ) * np.array([1.0, -1.0, 1.0, -1.0])[:, None]
    with np.errstate(divide="ignore"):
        log_abs = (np.log(np.abs(sums)) + math.log(d.sigma)
                   - 0.5 * np.stack([z_c, z[0], z_c, z[1]]) ** 2)
    log_abs[:2, xs <= lo] = NEG_INF
    log_abs[2:, right] = NEG_INF
    return log_abs, np.sign(sums)


def _node_terms(d: MollifiedDensity, poly: LocalPoly,
                xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The same integral's Gauss-Legendre terms, one row per node."""
    log_abs = poly.node_log[:, None] - (xs[None, :] - poly.nodes[:, None]) ** 2 / (2.0 * d.delta)
    return log_abs, poly.node_sign[:, None]


def _log_kernel_integral(d: MollifiedDensity, poly: LocalPoly, xs: np.ndarray) -> np.ndarray:
    """log of the integral over [lo, hi] of q(t) exp(-(x-t)^2 / 2 delta), for
    q >= 0 on [lo, hi]; -inf if rounding leaves it <= 0, nan at x = nan.

    Terms by parts cancel to a relative error of about eps (layer / width)^degree
    with layer = delta / (|x - c| + sqrt(delta)), the kernel's boundary layer;
    the rule takes the points where that error is not negligible.
    """
    lo, hi = poly.lo, poly.hi
    use_rule = (hi - lo) * (np.abs(xs - np.clip(xs, lo, hi)) + d.sigma) < _WIDE_KERNEL * d.delta
    out = np.empty_like(xs)
    for rows, terms in ((~use_rule, _endpoint_terms), (use_rule, _node_terms)):
        if rows.any():
            val, sign = _logsumexp(*terms(d, poly, xs[rows]))
            out[rows] = np.where((sign > 0.0) | np.isnan(xs[rows]), val, NEG_INF)
    return out


def _log_masses(d: MollifiedDensity, xs: np.ndarray) -> np.ndarray:
    """log of integral of exp(-(x-t)^2 / 2 delta) over each atom, then each
    piece, of mu: one row per atom and per piece, one column per point."""
    return np.vstack([_atom_log_terms(d, xs)]
                     + [_log_kernel_integral(d, p.q, xs) for p in d.base.pieces])


def log_density(d: MollifiedDensity, x) -> float | np.ndarray:
    """log p(x).  Finite where the Gaussian factors' logs are: for an atom t
    while (x - t)^2 / (2 delta) is a finite double (|x - t| up to about
    1e154 at delta 1), and for a piece to about |x| = 5e15 times its width
    (uniform[0,1] at delta 1 gives -inf at x = -1e16), past which the logs
    of its two end terms, both near -x^2 / (2 delta), round to one double
    and cancel."""
    norm_const = 0.5 * math.log(2.0 * math.pi * d.delta)
    return _blockwise(lambda xs: _logsumexp(_log_masses(d, xs))[0] - norm_const, x)


def _score(d: MollifiedDensity, xs: np.ndarray) -> np.ndarray:
    m = d.base
    masses = _log_masses(d, xs)
    n = len(m.atom_locations)
    signs = list(np.sign(m.atom_locations))
    with np.errstate(divide="ignore"):
        logs = [masses[:n] + np.log(np.abs(m.atom_locations))[:, None]]
        for p, mass in zip(m.pieces, masses[n:]):
            # t q(t) = (t - lo) q(t) + lo q(t), two polynomials >= 0 on the piece
            logs += [_log_kernel_integral(d, p.offset_q, xs), mass + np.log(abs(p.lo))]
            signs += [1.0, np.sign(p.lo)]
    log_num, sign = _logsumexp(np.vstack(logs), np.array(signs)[:, None])
    log_norm = _logsumexp(masses)[0]
    score = (sign * np.exp(log_num - log_norm) - xs) / d.delta
    # where every mass underflows, the tilt sits on the support point nearest x
    lost = np.flatnonzero(log_norm == NEG_INF)
    near = np.clip(xs[lost, None], *np.array(support_components(m)).T)
    t = near[np.arange(len(lost)), np.argmin(np.abs(near - xs[lost, None]), axis=1)]
    score[lost] = (t - xs[lost]) / d.delta
    return score


def log_density_ratio_grad(d: MollifiedDensity, x) -> float | np.ndarray:
    """Score p'(x)/p(x), computed as (tilted mean - x) / delta.

    With nu_x the Gaussian-tilted base measure, p'(x)/p(x) equals
    (E_{nu_x}[t] - x) / delta; numerator and denominator share one
    log-sum-exp normalization so nothing overflows.
    """
    return _blockwise(lambda xs: _score(d, xs), x)


def _log_tail(d: MollifiedDensity, xs: np.ndarray) -> np.ndarray:
    m = d.base
    rows = [_atom_log_weights(m)[:, None]
            + log_ndtr((xs[None, :] - m.atom_locations[:, None]) / d.sigma)]
    for p in m.pieces:
        # by parts: the piece's mass at its far end, plus the kernel integral of its mass below t
        rows.append(p.log_mass + log_ndtr((xs - p.hi) / d.sigma))
        rows.append(_log_kernel_integral(d, p.below, xs) - 0.5 * math.log(2.0 * math.pi * d.delta))
    return np.minimum(_logsumexp(np.vstack(rows))[0], 0.0)


def tail_mass(d: MollifiedDensity, x, side: Side) -> float | np.ndarray:
    """log F(x) (left) or log(1 - F(x)) (right) of the mollified measure; the
    right tail is the left tail of the mirror image at -x."""
    if _check_side(side) == "right":
        d, x = d.mirror, np.negative(x)
    return _blockwise(lambda xs: _log_tail(d, xs), x)


def half_crossing(excess: Callable, lo: float, hi: float, points: int = 1) -> float:
    """Bisection for the point in [lo, hi] where a nondecreasing excess F - 1/2 crosses 0.

    The first level tests the midpoint alone, with ``excess`` on a float.
    Each later level tests ``points`` equally spaced interior points of the
    bracket: the midpoint, on a float, when ``points`` is 1, else an array
    in one call.  The points are laid out as mid + half * o with fixed
    offsets o symmetric about 0, so the bracket's mirror image gets the
    mirrored points bit for bit.  The next bracket is the two tested points
    (or ends) around the crossing, where a nan excess counts as positive.
    Stops at the tested point nearest the midpoint where |excess| <= 1e-13
    (a tie to the smaller |excess|), or once no point lies strictly inside
    the bracket, i.e. the bracket is one ulp wide; then it returns the
    bracket's midpoint, which is one of its ends.
    """
    offsets = (2.0 * np.arange(1, points + 1) - (points + 1)) / (points + 1)
    xs = np.array([0.5 * (lo + hi)])
    while True:
        xs = np.unique(xs[(lo < xs) & (xs < hi)])
        if xs.size == 0:  # one ulp wide (or not a bracket at all)
            return 0.5 * (lo + hi)
        e = np.atleast_1d(excess(float(xs[0]) if xs.size == 1 else xs))
        met = np.flatnonzero(np.abs(e) <= 1e-13)
        if met.size:
            mid = 0.5 * (lo + hi)  # the mirrored bracket then stops at the mirrored point
            return float(xs[min(met, key=lambda i: (abs(xs[i] - mid), abs(e[i])))])
        below = e < 0.0
        k = xs.size if below.all() else int(np.argmin(below))  # the first point not below
        lo = float(xs[k - 1]) if k > 0 else lo
        hi = float(xs[k]) if k < xs.size else hi
        xs = (np.array([0.5 * (lo + hi)]) if points == 1
              else 0.5 * (lo + hi) + 0.5 * (hi - lo) * offsets)


# interior points per bisection level of the median: each level narrows its
# bracket 33-fold for one tail_mass call
_MEDIAN_POINTS = 32


def median(d: MollifiedDensity) -> float:
    """The unique m with F(m) = 1/2, by ``half_crossing`` on the left tail.

    The bracket [a - 20 sqrt(delta), b + 20 sqrt(delta)] holds all but
    ~1e-88 of the mass, so it always straddles the median.  Its midpoint
    is tested alone first: a measure symmetric about 0 gets m == 0.0
    exactly, from one ``tail_mass`` call.  After a miss each level tests
    32 interior points in one array call, about ten calls in all.  The
    bisection can run down to one ulp, so the median is as sharp far from
    the origin as near it.
    """
    a, b = d.support()
    return half_crossing(lambda x: np.exp(tail_mass(d, x, "left")) - 0.5,
                         a - 20.0 * d.sigma, b + 20.0 * d.sigma, _MEDIAN_POINTS)


def reciprocal_integral(d: MollifiedDensity, x, m: float) -> float | np.ndarray:
    """log of the integral of 1/p from x to m, for a scalar x or at each point
    of an array x on one side of m (-inf where x == m).

    A scalar is one interval.  An array is one batched ``log_cell_integrals``
    over the cells between its sorted points and m, summed toward m.  Points
    right of m are the mirror image's, from -x to -m, so a measure symmetric
    about 0 gets the same bits on both sides.  1/p grows like
    exp((x - a)^2 / 2 delta), far beyond double range, so the panels run in
    log space with each panel maximum factored out.
    """
    m = float(m)
    xs = np.asarray(x, dtype=float)
    if (xs > m).any():
        if (xs < m).any():
            raise WrongSide(f"points on both sides of the median m={m}")
        return reciprocal_integral(d.mirror, -xs, -m)
    lo = float(xs.min())
    # cut at the gap midpoints (peaks of 1/p), and from each end outside the
    # support geometrically away from it, over 1/p's boundary layer there
    a, b = d.support()
    cuts = support_gap_midpoints(d.base)
    for end in (lo, m):
        distance = max(a - end, end - b)
        if distance > 0.0:
            cuts += geometric_seeds(end, d.delta / (distance + d.sigma), lo, m)
    neg_log_p = lambda t: -log_density(d, t)
    if xs.ndim == 0:
        return log_adaptive_quad(neg_log_p, lo, m, RECIPROCAL_TOL, cuts) if lo < m else NEG_INF
    # the cell from each sorted point to the next (the last to m), summed toward m
    order = np.argsort(xs, kind="stable")
    cells = log_cell_integrals(neg_log_p, np.append(xs[order], m), RECIPROCAL_TOL, cuts)
    out = np.empty_like(xs)
    out[order] = np.logaddexp.accumulate(cells[::-1])[::-1]
    return out


def support_gap_midpoints(base: Measure1D) -> list[float]:
    """Midpoints of the gaps between support components (local minima of p)."""
    comps = support_components(base)
    return [0.5 * (h0 + l1) for (_, h0), (l1, _) in zip(comps[:-1], comps[1:])]


@dataclass(frozen=True)
class AsymptoticReport:
    """The three tail quotients at a probe point; all tend to 1 far out."""

    x: float
    ratio_lemma1: float
    ratio_lemma2: float
    ratio_lemma3: float
    side: str


def asymptotic_ratios(d: MollifiedDensity, x: float, side: Side,
                      m: float | None = None) -> AsymptoticReport:
    """Evaluate the three asymptotic quotients at x, strictly outside the support.

    ``m`` is ``median(d)``, computed here unless given: a caller probing
    several points takes it once.  Raises ``NumericalOverflow`` where
    log p(x) is not a finite double: for an atom, once the squared distance
    to it overflows (|x| beyond ~1e154); for a piece, once the logs of its
    end terms cancel (|x| beyond about 5e15 times its width, e.g. x = -1e16
    on uniform[0,1] at delta 1).
    """
    _check_side(side)
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"probe point x must be finite, got {x!r}")
    a, b = d.support()
    if side == "left" and not x < a:
        raise InsideSupport(f"x={x} is not strictly left of the support [{a}, {b}]")
    if side == "right" and not x > b:
        raise InsideSupport(f"x={x} is not strictly right of the support [{a}, {b}]")

    with np.errstate(over="ignore"):
        logp = log_density(d, x)
    if not math.isfinite(logp):
        raise NumericalOverflow(f"log p(x) = {logp!r} leaves the float range at x={x!r}"
                                f" (delta={d.delta!r}), so the tail quotients cannot be formed")

    score = log_density_ratio_grad(d, x)
    ratio1 = d.delta * score / (-x)

    if m is None:
        m = median(d)
    log_absx = math.log(abs(x))
    tail = tail_mass(d, x, side)
    ratio2 = math.exp(tail - (math.log(d.delta) - log_absx + logp))
    recip = reciprocal_integral(d, x, m)
    ratio3 = math.exp(recip - (math.log(d.delta) - log_absx - logp))
    return AsymptoticReport(x=x, ratio_lemma1=ratio1, ratio_lemma2=ratio2,
                            ratio_lemma3=ratio3, side=side)
