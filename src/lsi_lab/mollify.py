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

Atoms contribute closed-form Gaussian densities and CDFs.  The special
functions of the Gaussian, the scaled tail ``erfcx``, ``log_ndtr`` (log
Phi) and the quantile ``ndtri`` that ``rmt`` draws its Gaussians with,
are numpy code here: the package needs numpy alone.  A polynomial
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

from .errors import InsideSupport, NonPositiveDelta, NumericalOverflow, ValidationError, WrongSide
from .measure import MAX_POLY_DEGREE, LocalPoly, Measure1D, support_components
from .quadrature import NEG_INF, geometric_seeds, log_adaptive_quad, log_cell_integrals

Side = Literal["left", "right"]

_BLOCK = 4096  # points per kernel evaluation, which bounds the temporaries
_WIDE_KERNEL = 4.0  # the rule takes kernels whose boundary layer exceeds width / 4
# tolerance (in log) of every integral of 1/p, which governs the bracket
RECIPROCAL_TOL = 1e-10


# erfcx(x) = y f(y), y = 4 / (4 + x) in (0, 1] for x >= 0, after S. G. Johnson's
# Faddeeva package.  f on cell j of the 32 equal cells of [0, 1] is the degree-7
# polynomial in v = 32 y - j - 1/2 through f at 8 Chebyshev points of the cell,
# solved with mpmath at 40 digits; row j holds its coefficients of v^0 .. v^7
# (``erfcx_table`` in tests/test_mollify.py rebuilds them).
_ERFCX_CELLS = 32
_ERFCX_POLYS = np.array([
    [0.1432851153002752, 0.004544149737668842, 0.00013945679081145561, 4.127828897010354e-06,
    1.1735614604566873e-07, 3.1878432915958647e-09, 8.21801129721981e-11, 1.9898486745756443e-12],
    [0.14797297028583797, 0.00483593267703514, 0.00015257756826005407, 4.630847289730881e-06,
    1.3460059807162238e-07, 3.725183564009307e-09, 9.743877391959981e-11, 2.3813378994333684e-12],
    [0.152966249804056, 0.005155537985326841, 0.00016731647829390384, 5.208536192142642e-06,
    1.547749081327593e-07, 4.3627886124109025e-09, 1.157018799133538e-10, 2.850405728521333e-12],
    [0.15829447206015543, 0.005506438178578148, 0.00018391616096907748, 5.873680566275489e-06,
    1.7842828770315024e-07, 5.120404458183798e-09, 1.3756073472245038e-10, 3.4111322960705528e-12],
    [0.16399088376997772, 0.00589263170704508, 0.00020266111312675406, 6.641472009569887e-06,
    2.0621805478149876e-07, 6.0216325371869496e-09, 1.6371147965414914e-10, 4.079381990466416e-12],
    [0.17009303046969057, 0.0063187343410265545, 0.0002238855971025774, 7.529981893862984e-06,
    2.389305453237104e-07, 7.094595592445275e-09, 1.9496721400528667e-10, 4.8726721027123435e-12],
    [0.17664342661475738, 0.006790087880568028, 0.0002479831011591059, 8.560725045870301e-06,
    2.7750553002083107e-07, 8.372672386031025e-09, 2.3226857127727836e-10, 5.809853194513817e-12],
    [0.18369034443788543, 0.007312889578473231, 0.00027541764495882796, 9.759328640907905e-06,
    3.2306445028569884e-07, 9.895287602384864e-09, 2.766912155114217e-10, 6.910538134300513e-12],
    [0.19128874423338488, 0.007894346297877337, 0.0003067372691329824, 1.1156322067831303e-05,
    3.769426938994043e-07, 1.1708732752320089e-08, 3.2944826973120547e-10, 8.19421474043239e-12],
    [0.19950137311163293, 0.008542858151767838, 0.0003425900963249752, 1.2788064121045625e-05,
    4.40725977745441e-07, 1.3866980619536985e-08, 3.9188525071375374e-10, 9.678983739618777e-12],
    [0.2084000644184853, 0.009268237195731936, 0.0003837434001471565, 1.4697823720099193e-05,
    5.162906794575742e-07, 1.6432440115382685e-08, 4.654647350840545e-10, 1.1379882816116867e-11],
    [0.2180672760381806, 0.010081967665773144, 0.0004311061655684987, 1.6937029136627505e-05,
    6.058476513665354e-07, 1.947658113267868e-08, 5.517378174817242e-10, 1.3306791642075332e-11],
    [0.22859791278808433, 0.010997515262777929, 0.0004857556656421578, 1.9566698079158378e-05,
    7.119886541705397e-07, 2.308034155152141e-08, 6.522995520719743e-10, 1.54619628119113e-11],
    [0.24010148615150534, 0.012030694068176773, 0.0005489686104384766, 2.2659056603261887e-05,
    8.377340684305775e-07, 2.7334213043725714e-08, 7.687260999227035e-10, 1.7837287426421122e-11],
    [0.25270467374174826, 0.013200100805080318, 0.0006222574388348207, 2.6299348372062257e-05,
    9.865799954188578e-07, 3.233789140967957e-08, 9.024923148951228e-10, 2.0411475789725544e-11],
    [0.26655435117501847, 0.014527627296917629, 0.0007074123159001632, 3.0587827076967396e-05,
    1.1625422753866276e-06, 3.819937384268449e-08, 1.0548700130383073e-09, 2.3147403605682817e-11],
    [0.28182118043478166, 0.016039063069036467, 0.0008065493610433504, 3.564191377871213e-05,
    1.3701943762148232e-06, 4.5033392647753534e-08, 1.226809129910231e-09, 2.598992971051537e-11],
    [0.2987038512594145, 0.01776480102161855, 0.0009221655580269127, 4.159848769096202e-05,
    1.6146955971230343e-06, 5.2959094838695266e-08, 1.4188062302435414e-09, 2.8864519525984127e-11],
    [0.31743408542931845, 0.019740659895388153, 0.0010572006813513184, 4.861626390267186e-05,
    1.9018056579140788e-06, 6.209691084478563e-08, 1.6307671611382575e-09, 3.167699783301102e-11],
    [0.3382825278351691, 0.022008837765131857, 0.001215106409966884, 5.687819539653292e-05,
    2.237881573257659e-06, 7.25646028109336e-08, 1.8618727364842633e-09, 3.431469874313252e-11],
    [0.36156566254820544, 0.024619010933639277, 0.0013999225867831386, 6.659382041032823e-05,
    2.629852805945346e-06, 8.447254133426668e-08, 2.110457888211704e-09, 3.664918043950464e-11],
    [0.38765390636164226, 0.027629592263038242, 0.0016163603221976393, 7.800146086602023e-05,
    3.085171098669302e-06, 9.79183247595073e-08, 2.373915431919061e-09, 3.854053569078033e-11],
    [0.41698104590973517, 0.03110916208035227, 0.0018698913367467182, 9.137016455397781e-05,
    3.611732121586847e-06, 1.1298092166883494e-07, 2.648635266539339e-09, 3.9843171552654085e-11],
    [0.45005519689297274, 0.03513808325189144, 0.002166842600831997, 0.00010700127432618322,
    4.217767132715374e-06, 1.2971457839454683e-07, 2.929988380427934e-09, 4.041277286326601e-11],
    [0.48747147447213884, 0.039810309780808455, 0.0025144949709727817, 0.0001252295029353184,
    4.911704186785179e-06, 1.4814278265279438e-07, 3.2123625349053946e-09, 4.0114025109122126e-11],
    [0.5299265718262379, 0.045235395316598835, 0.002921184158163744, 0.0001464233933320181,
    5.701999970984304e-06, 1.682526059650003e-07, 3.4892531467751606e-09, 3.882857159860958e-11],
    [0.5782354484748524, 0.05154070428186414, 0.0033964020130930416, 0.00017098505182463987,
    6.596944993291047e-06, 1.8998975721602716e-07, 3.7534090123064576e-09, 3.6462630814358734e-11],
    [0.6333503305460368, 0.058873823965939175, 0.003950895794849295, 0.00019934905570486396,
    7.604446485304031e-06, 2.1325466545286885e-07, 3.997028492595325e-09, 3.2953708177175e-11],
    [0.6963822210933601, 0.06740517099205846, 0.00459676282383081, 0.00023198045746397684,
    8.731794886867555e-06, 2.378998721992806e-07, 4.211998013527418e-09, 2.8275900272637722e-11],
    [0.7686251093013595, 0.07733078015735713, 0.00534753772381903, 0.0002693718338166901,
    9.985421042160623e-06, 2.637289548016991e-07, 4.3901615831946365e-09, 2.2443399928004193e-11],
    [0.8515830525784865, 0.08887525792913159, 0.006218269347644627, 0.00031203935824430197,
    1.137065216238617e-05, 2.904971272187275e-07, 4.523607774329316e-09, 1.5511953353338486e-11],
    [0.9470002849013736, 0.10229487703864724, 0.007225584466596848, 0.0003605179091748226,
    1.2891475131484128e-05, 3.1791357916508003e-07, 4.604959428918703e-09, 7.578179187241298e-12],
])
# coefficient-major, over 32, so that the polynomial times 32 y is erfcx
_ERFCX_ROWS = np.ascontiguousarray(_ERFCX_POLYS.T / _ERFCX_CELLS)
_SQRT_HALF = math.sqrt(0.5)


def _erfcx_nonnegative(a):
    """erfcx at a >= 0 (nan at nan): one gather of each point's cell row, then Horner."""
    t = (4.0 * _ERFCX_CELLS) / (4.0 + a)  # 32 y
    cell = np.fmin(t, _ERFCX_CELLS - 1.0).astype(np.intp)  # y = 1 is in the last cell, nan too
    v = t - cell
    v -= 0.5
    acc = _horner(_ERFCX_ROWS.take(cell, axis=1), v)
    acc *= t
    return acc


def erfcx(x):
    """exp(x^2) erfc(x) at a float or at each point of an array of any shape.

    Within 1e-15 relative on [0, inf), where it falls from 1 to 0 like
    1 / (x sqrt(pi)); below 0 it is 2 exp(x^2) - erfcx(-x), +inf once
    exp(x^2) overflows (x < -26.6).
    """
    x = np.asarray(x, dtype=float)
    out = _erfcx_nonnegative(np.abs(x))
    negative = x < 0.0
    if negative.any():
        with np.errstate(over="ignore"):
            out = np.where(negative, 2.0 * np.exp(x * x) - out, out)
    return out[()]


def log_ndtr(x):
    """log Phi(x), Phi the standard normal CDF, at a float or at each point of
    an array of any shape.

    log Phi(-|x|) = log(erfcx(|x| / sqrt 2) / 2) - x^2 / 2, and for x >= 0,
    log Phi(x) = log1p(-Phi(-x)).  Within 1e-15 max(1, |log Phi|) from
    -1e150 to +inf, and -inf once x^2 / 2 overflows (x < -1.9e154).
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):  # log 0 at -inf; x^2 past the float range
        lower = np.log(0.5 * _erfcx_nonnegative(np.abs(x) * _SQRT_HALF)) - 0.5 * x * x
        return np.where(x < 0.0, lower, np.log1p(-np.exp(lower)))[()]


# ndtri(u) for q = u - 1/2 and w = -log(4 u (1 - u)) <= 3 (0.0127 < u < 0.9873)
# is q sqrt(2 pi) + q w S(w), S the (6, 6) rational in w through
# (ndtri(u) / q - sqrt(2 pi)) / w at 13 Chebyshev points of [0, 3]; sqrt(2 pi)
# is carried as two doubles.  Beyond, with p = min(u, 1 - u) and
# r = sqrt(-log p), ndtri(p) = -(r + E(r)), E the (8, 7) rational in r - 2
# through -ndtri(p) - r at 16 Chebyshev points of [2, 6.25], and past
# r = 6.25 (p < 1.1e-17) the one in r - 6.25 on [6.25, 27.5].  Each holds
# the numerator's coefficients of v^0 .., then the denominator's; all are
# positive, so every Horner step adds positive terms.  Solved with mpmath at
# 40 digits (``ndtri_tables`` in tests/test_mollify.py rebuilds them).
_NDTRI_CENTRE = (
    (0.656233747738434, 0.07492281469362595, 0.024933676033010742, 0.0020424759483041407,
     0.00024824183249001134, 1.128039809535156e-05, 4.0941927836612544e-07),
    (1.0, 0.06439221168558633, 0.04485425286010599, 0.00207958802070159,
     0.0005608361866418321, 1.331328190662897e-05, 1.545794031378582e-06),
)
_NDTRI_TAIL = (
    (0.08984998297125776, 0.7940125020868841, 1.1934128174037777, 0.7944558426986833,
     0.28231788152931375, 0.05557904135200297, 0.005809755403519346, 0.0002825347682831928,
     4.5391435040232525e-06),
    (1.0, 1.8183390156768053, 1.3566157568586783, 0.5296715632977372, 0.11365250875132071,
     0.012820758804161645, 0.0006603628802882416, 1.0957738202140897e-05),
)
_NDTRI_FAR = (
    (2.2343268694780427, 1.624750462492548, 0.47276662993416435, 0.0711569504555583,
     0.005960963558853236, 0.0002777655632915174, 6.785343896605593e-06, 7.542998329057208e-08,
     2.7012094773768996e-10),
    (1.0, 0.5241461824241554, 0.10741026020186077, 0.010913117895035176,
     0.0005769433990328987, 1.5277150184085674e-05, 1.7803060117881932e-07,
     6.521276421181067e-10),
)
_NDTRI_W = 3.0  # the centre's end
_NDTRI_FAR_R = 6.25  # the far tail's start
_NEG_LOG4 = -math.log(4.0)
# sqrt(2 pi) = _SQRT_2PI + _SQRT_2PI_LO to 1e-32
_SQRT_2PI = 2.5066282746310007
_SQRT_2PI_LO = -1.8328579980459167e-16


def _rational(table, v):
    """Numerator over denominator of ``table`` at each point of ``v``, each
    by Horner's rule."""
    num, den = (_horner(coeffs, v) for coeffs in table)
    num /= den
    return num


def _horner(coeffs, v):
    acc = coeffs[-1] * v
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= v
    acc += coeffs[0]
    return acc


def ndtri(u):
    """Phi^-1(u), Phi the standard normal CDF, at a float or at each point of
    an array of any shape.

    Within 1e-15 relative on (0, 1); -inf at 0, +inf at 1, nan at nan and
    outside [0, 1].  Where 1 - u is exact (u >= 1/2), ndtri(1 - u) is
    -ndtri(u) bit for bit: both points see the same u (1 - u) and p, and
    q of opposite sign.  Every point takes the centre's formula; the tail
    points (2.5% of uniform draws) are then taken out, evaluated and put
    back.
    """
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 at u = 0, 1; nan outside [0, 1]
        w = np.subtract(1.0, flat)
        w *= flat  # u (1 - u)
        np.log(w, out=w)
        np.subtract(_NEG_LOG4, w, out=w)
        s = _rational(_NDTRI_CENTRE, w)
        s *= w
        s += _SQRT_2PI_LO
        out = np.subtract(flat, 0.5)
        s *= out
        out *= _SQRT_2PI
        out += s
        tail = np.flatnonzero(w > _NDTRI_W)
        if tail.size:
            ut = flat.take(tail)
            r = np.sqrt(-np.log(np.fmin(ut, 1.0 - ut)))
            t = _rational(_NDTRI_TAIL, r - 2.0)
            far = r >= _NDTRI_FAR_R
            if far.any():  # r = inf at u = 0 and 1
                rf = r[far]
                t[far] = np.where(rf < math.inf, _rational(_NDTRI_FAR, rf - _NDTRI_FAR_R),
                                  math.inf)
            t += r
            out.put(tail, np.copysign(t, ut - 0.5))
    return out.reshape(u.shape)[()]


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
        if not np.isfinite(top).all():  # a column with +inf, or of -inf or nan alone
            if (top == math.inf).any():
                top = np.where(top == math.inf,
                               np.max(np.where(a < math.inf, a, NEG_INF), axis=0), top)
            top[~np.isfinite(top)] = 0.0
        terms = np.exp(a - top)
        if b is not None:
            terms *= b
        s = terms[0]
        for row in terms[1:]:
            s += row
        return np.log(np.abs(s)) + top, np.sign(s)


def _atom_log_terms(d: MollifiedDensity, xs: np.ndarray) -> np.ndarray:
    """log of w_k * exp(-(x - t_k)^2 / 2 delta), one row per atom (no kernel norm)."""
    m = d.base
    with np.errstate(over="ignore"):  # -inf where (x - t)^2 / 2 delta overflows
        return (m.atom_log_weights[:, None]
                - (xs[None, :] - m.atom_locations[:, None]) ** 2 / (2.0 * d.delta))


def _scaled_tail_integrals(z: np.ndarray, n: int) -> np.ndarray:
    """h_0 .. h_(n-1) at every z >= 0, stacked on a new first axis.

    k h_k = h_(k-2) - z h_(k-1), h_(-1) = 1 (Abramowitz & Stegun 26.2.40)
    loses digits forward, the faster the larger z and k, so it runs forward
    only up to a switch point that falls with n: z = 2.5 for n <= 3, 5 / n
    above.  Past it the quotients s_k = h_(k-1) / h_k come from it backward,
    s_(k-1) = z + k / s_k, started 80 / switch steps above k = n - 1 at the
    large-k expansion of s_k in w = sqrt(z^2/4 + k + 1/2), its terms fitted
    to mpmath's Weber functions (D_nu, U(a, z)).  The start's error shrinks
    about as exp(-2 z sqrt(k)) on the way down, so a lower switch point
    takes more steps.  Every h_k, k <= 7, is within 2e-14 relative; the
    forward recurrence at k = 2 just below z = 2.5 is the worst.
    """
    flat = z.ravel()
    h = np.empty((n, flat.size))
    h[0] = math.sqrt(0.5 * math.pi) * erfcx(flat / math.sqrt(2.0))
    if n == 1:
        return h.reshape((n,) + z.shape)
    switch = 2.5 if n <= 3 else 5.0 / n
    below = flat <= switch
    fwd, bwd = np.flatnonzero(below), np.flatnonzero(~below)  # nan goes backward
    zf = flat[fwd]
    prev, cur = np.ones_like(zf), h[0, fwd]
    for k in range(1, n):
        prev, cur = cur, (prev - zf * cur) / k
        h[k, fwd] = cur
    if bwd.size:
        zb = flat[bwd]
        top = n - 1 + round(80.0 / switch)
        with np.errstate(over="ignore"):  # w = inf past z = 1e154: s is inf at the top only
            w = np.sqrt(0.25 * zb * zb + (top + 0.5))
        u = 1.0 / w
        # s_k = z/2 + w + z / 8w^2 + 1 / 16w^3 - 5z^2 / 128w^5 - 9z / 128w^6 + ...
        s = 0.5 * zb + w + u * u * (0.125 * zb + u * (0.0625 - u * u * zb * (
            5.0 / 128.0 * zb + 9.0 / 128.0 * u)))
        back = np.empty((n, zb.size))
        back[0] = h[0, bwd]
        for k in range(top, 0, -1):
            if k < n:
                np.divide(1.0, s, out=back[k])
            np.divide(k, s, out=s)
            s += zb
        h[:, bwd] = np.cumprod(back, axis=0, out=back)
    return h.reshape((n,) + z.shape)


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
    with np.errstate(divide="ignore", over="ignore"):  # z^2 = inf: the term underflows
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
    with np.errstate(over="ignore"):  # an inf product is a kernel far narrower than the piece
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
    with np.errstate(invalid="ignore"):  # -inf - -inf where every mass underflows: set below
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
    # by parts: each atom's mass and each piece's at its far end, by one
    # log_ndtr, plus the kernel integral of each piece's mass below t
    ends, log_masses = m.atom_locations, m.atom_log_weights
    if m.pieces:
        ends = np.append(ends, [p.hi for p in m.pieces])
        log_masses = np.append(log_masses, [p.log_mass for p in m.pieces])
    rows = [log_masses[:, None] + log_ndtr((xs[None, :] - ends[:, None]) / d.sigma)]
    norm_const = 0.5 * math.log(2.0 * math.pi * d.delta)
    rows += [_log_kernel_integral(d, p.below, xs) - norm_const for p in m.pieces]
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

    A measure that is its own mirror image is symmetric about 0, and p > 0
    everywhere, so its median is 0.0 exactly: no ``tail_mass`` call is
    made.  Otherwise the bracket [a - 20 sqrt(delta), b + 20 sqrt(delta)]
    holds all but ~1e-88 of the mass, so it always straddles the median.
    Its midpoint is tested alone first (a measure symmetric about 0 but not
    its own mirror term by term still gets 0.0 from that one call); after
    a miss each level tests 32 interior points in one array call, about
    ten calls in all.  The bisection can run down to one ulp, so the
    median is as sharp far from the origin as near it.
    """
    if d.base.mirror == d.base:
        return 0.0
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
