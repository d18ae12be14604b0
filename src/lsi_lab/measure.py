"""Compactly supported probability measures on the real line.

A measure is a finite list of atoms plus a finite list of density pieces,
each piece a polynomial ``sum c_k t^k`` (degree at most 6) on an interval.
The class is closed under the exact integrations the rest of the package
needs, and expressive enough for every measure exercised here: point
masses, two-point mixtures, uniforms, unions of uniforms.  A piece's
expansion about its left end, the derivatives, antiderivative and
Gauss-Legendre node terms of the polynomials the mollifier integrates,
and its mass are built once, with the piece.

Also defined here: the entropy functional

    Ent(f) = integral of f log f  -  (integral of f) log(integral of f)

(against the measure, with 0 log 0 = 0), the log-Sobolev defect

    Ent(g^2) - 2 c integral of (g')^2,

and the disconnected-support witness that shows a measure with a mass
gap cannot satisfy a log-Sobolev inequality at any constant: a smooth g
that is 0 on the left component and 1 on the right has positive entropy
but zero energy.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    GapHasMass,
    MassMismatch,
    NegativeDensity,
    NegativeInput,
    NonIntegrable,
    NonPositiveConstant,
    OverlappingPieces,
    ValidationError,
)
from .errors import entries, fields, number
from .quadrature import adaptive_quad

MAX_POLY_DEGREE = 6
MASS_RESCALE_TOL = 1e-9
_DENSITY_SIGN_TOL = 1e-12
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _polyval(coeffs: Sequence[float], t):
    return np.polynomial.polynomial.polyval(t, np.asarray(coeffs, dtype=float))


def expanded(coeffs: Sequence[float], point: float) -> np.ndarray:
    """sum c_k t^k as the coefficients of its powers of (t - point).

    Horner's rule in t = point + s, through the ``polymul`` and ``polyadd``
    steps that evaluating ``Polynomial(coeffs)`` at ``Polynomial([point, 1])``
    takes, so with the same bits, but without that class's overhead.
    """
    poly = np.polynomial.polynomial
    s = np.array([0.0 + point, 1.0])    # after the class's identity window map, 0 + 1 * s
    c = np.asarray(coeffs, dtype=float)
    out = c[-1:] + 0.0 * point          # polyval's start, c[-1] + 0 * s
    for ck in c[-2::-1]:
        out = poly.polyadd([ck], poly.polymul(out, s))
    return poly.polytrim(out)


class LocalPoly:
    """q(t) = sum c_k (t - lo)^k on [lo, hi], with the constants of the
    Gaussian kernel's integral of q that depend on q alone.

    ``derivs`` is the chain q, q', ..., q^(degree) as coefficient arrays,
    ``at_lo`` and ``at_hi`` their values at the ends; ``nodes`` are the
    20 Gauss-Legendre nodes t of [lo, hi], with ``node_log`` = log(half
    w |q(t)|) (half = (hi - lo) / 2, w the weights) and ``node_sign`` =
    sign q(t).
    """

    def __init__(self, coeffs: np.ndarray, lo: float, hi: float):
        self.lo, self.hi = lo, hi
        derivs = [coeffs]
        for _ in coeffs[1:]:
            derivs.append(np.polynomial.polynomial.polyder(derivs[-1]))
        self.derivs = tuple(derivs)
        self.at_lo = tuple(_polyval(der, 0.0) for der in derivs)
        self.at_hi = tuple(_polyval(der, hi - lo) for der in derivs)
        half = 0.5 * (hi - lo)
        self.nodes = 0.5 * (lo + hi) + half * _GL_NODES
        q = _polyval(coeffs, self.nodes - lo)
        with np.errstate(divide="ignore"):
            self.node_log = np.log(half * _GL_WEIGHTS * np.abs(q))
        self.node_sign = np.sign(q)


@dataclass(frozen=True)
class Piece:
    """Polynomial density ``sum c_k t^k`` on ``[lo, hi]``.

    The constructor re-expands the density in powers of ``t - lo`` (so a
    piece far from the origin loses nothing to cancellation) and builds,
    once, the ``LocalPoly`` of every polynomial the mollifier integrates:
    ``q`` (the density), ``offset_q`` ((t - lo) q(t)) and ``below`` (the
    mass below t); and ``mass``, with its log as ``log_mass``.
    """

    lo: float
    hi: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        poly = np.polynomial.polynomial
        lo, hi = self.lo, self.hi
        local = expanded(self.coeffs, lo)
        below = LocalPoly(poly.polyint(local), lo, hi)
        built = {"q": LocalPoly(local, lo, hi), "offset_q": LocalPoly(poly.polymulx(local), lo, hi),
                 "below": below, "mass": float(below.at_hi[0])}
        with np.errstate(divide="ignore", invalid="ignore"):  # built before its sign check
            built["log_mass"] = np.log(below.at_hi[0])
        for name, value in built.items():
            object.__setattr__(self, name, value)

    def density(self, t):
        return _polyval(self.coeffs, t)

    def mass_below(self, x):
        """Exact integral of the density over ``[lo, min(x, hi)]``, for a
        scalar or an array ``x``."""
        out = _polyval(self.below.derivs[0], np.clip(x, self.lo, self.hi) - self.lo)
        return float(out) if np.ndim(out) == 0 else out


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: a measure builds its arrays once and shares them."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Measure1D:
    """Validated compactly supported probability measure (atoms + pieces)."""

    atoms: tuple[tuple[float, float], ...]
    pieces: tuple[Piece, ...]
    support_lo: float
    support_hi: float

    @cached_property
    def atom_locations(self) -> np.ndarray:
        return _read_only(np.array([x for x, _ in self.atoms], dtype=float))

    @cached_property
    def atom_weights(self) -> np.ndarray:
        return _read_only(np.array([w for _, w in self.atoms], dtype=float))

    @cached_property
    def atom_log_weights(self) -> np.ndarray:
        """log of each atom's weight, -inf for a zero weight."""
        with np.errstate(divide="ignore"):
            return _read_only(np.log(self.atom_weights))

    @cached_property
    def mirror(self) -> Measure1D:
        """The image under t -> -t, atoms and pieces in reverse order: a measure
        listed left to right and symmetric about 0 is its own mirror, term by term."""
        pieces = tuple(Piece(-p.hi, -p.lo, tuple(c * (-1.0) ** k for k, c in enumerate(p.coeffs)))
                       for p in reversed(self.pieces))
        mirror = Measure1D(tuple((-x, w) for x, w in reversed(self.atoms)), pieces,
                           -self.support_hi, -self.support_lo)
        object.__setattr__(mirror, "mirror", self)
        return mirror

    @cached_property
    def centred(self) -> Measure1D | None:
        """The translate by -c, c = (support_lo + support_hi) / 2, when that
        translate is its own mirror (so symmetric about 0 and listed left to
        right); else None.  Atoms and piece ends must pair off about c first,
        a check that builds nothing.  Where the translate is not exact the
        check or the comparison fails, and the answer is None."""
        c = 0.5 * (self.support_lo + self.support_hi)
        atoms, pieces = self.atoms, self.pieces
        if (any(x - c != c - y or w != v for (x, w), (y, v) in zip(atoms, reversed(atoms)))
                or any(p.lo - c != c - q.hi for p, q in zip(pieces, reversed(pieces)))):
            return None
        moved = self if c == 0.0 else translate(self, -c)
        return moved if moved.mirror == moved else None


def _check_piece_nonnegative(lo: float, hi: float, coeffs: tuple[float, ...]) -> None:
    """Sign test on a refinement grid plus root analysis of the polynomial."""
    grid = np.linspace(lo, hi, 513)
    candidates = [grid]
    coeffs = np.asarray(coeffs, dtype=float)
    if np.count_nonzero(coeffs) > 1:
        for c in (coeffs, np.polynomial.polynomial.polyder(coeffs)):
            if len(c) > 1 and np.any(c[1:] != 0.0):
                roots = np.polynomial.polynomial.polyroots(c)
                real = roots[np.abs(roots.imag) < 1e-9].real
                inside = real[(real >= lo) & (real <= hi)]
                if inside.size:
                    candidates.append(inside)
    vals = _polyval(coeffs, np.concatenate(candidates))
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    if float(np.min(vals)) < -_DENSITY_SIGN_TOL * scale:
        raise NegativeDensity(f"piece on [{lo}, {hi}] takes negative values")


def _piece_mass(lo: float, hi: float, coeffs: tuple[float, ...]) -> float:
    """``Piece(lo, hi, coeffs).mass``, bit for bit, without building the piece."""
    return float(_polyval(np.polynomial.polynomial.polyint(expanded(coeffs, lo)), hi - lo))


def build_measure(spec: dict) -> Measure1D:
    """Validate and normalize a structured measure description.

    ``spec`` has the JSON shape
    ``{"atoms": [{"x": ..., "w": ...}], "pieces": [{"lo": ..., "hi": ..., "coeffs": [...]}]}``,
    with every key of an atom or piece required.  Total mass must be within
    1e-9 of 1 and is rescaled to exactly 1.  Atoms of weight 0 and pieces of
    mass 0 are checked, then dropped: they do not set the support.
    """
    fields(spec, "measure spec", {"atoms", "pieces"})

    atoms: list[tuple[float, float]] = []
    for entry in entries(spec.get("atoms") or [], "atoms"):
        fields(entry, "atom", {"x", "w"}, required={"x", "w"})
        x, w = number(entry["x"], "atom x"), number(entry["w"], "atom w")
        if not (math.isfinite(x) and math.isfinite(w)):
            raise ValidationError("atom location/weight must be finite")
        if w < 0.0:
            raise NegativeDensity(f"atom at {x} has negative weight {w}")
        atoms.append((x, w))

    pieces: list[tuple[float, float, tuple[float, ...]]] = []
    for entry in entries(spec.get("pieces") or [], "pieces"):
        fields(entry, "piece", {"lo", "hi", "coeffs"}, required={"lo", "hi", "coeffs"})
        lo, hi = number(entry["lo"], "piece lo"), number(entry["hi"], "piece hi")
        coeffs = tuple(number(c, "piece coefficient")
                       for c in entries(entry["coeffs"], "piece coeffs"))
        if not coeffs or len(coeffs) > MAX_POLY_DEGREE + 1:
            raise ValidationError(
                f"piece coeffs must have 1..{MAX_POLY_DEGREE + 1} entries"
            )
        if not all(math.isfinite(c) for c in coeffs):
            raise ValidationError("piece coefficients must be finite")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValidationError(f"piece needs finite lo < hi, got [{lo}, {hi}]")
        _check_piece_nonnegative(lo, hi, coeffs)
        pieces.append((lo, hi, coeffs))

    if not atoms and not pieces:
        raise ValidationError("measure needs at least one atom or piece")

    pieces.sort(key=lambda p: p[0])
    for (lo, hi, _), (nxt_lo, nxt_hi, _) in zip(pieces[:-1], pieces[1:]):
        if nxt_lo < hi:
            raise OverlappingPieces(f"pieces [{lo}, {hi}] and [{nxt_lo}, {nxt_hi}] overlap")

    # terms without mass are checked but not kept: they would widen the support
    atoms = [(x, w) for x, w in atoms if w > 0.0]
    masses = [_piece_mass(*p) for p in pieces]
    pieces = [p for p, pm in zip(pieces, masses) if pm > 0.0]
    mass = sum(w for _, w in atoms) + sum(pm for pm in masses if pm > 0.0)
    if abs(mass - 1.0) > MASS_RESCALE_TOL:
        raise MassMismatch(f"total mass {mass!r} differs from 1 by more than 1e-9")
    atoms = [(x, w / mass) for x, w in atoms]
    # each piece is built once, after the rescale: its constructor is the costly part
    pieces = [Piece(lo, hi, tuple(c / mass for c in coeffs)) for lo, hi, coeffs in pieces]

    points = [x for x, _ in atoms] + [p.lo for p in pieces] + [p.hi for p in pieces]
    m = Measure1D(atoms=tuple(atoms), pieces=tuple(pieces),
                  support_lo=min(points), support_hi=max(points))
    m.mirror, m.centred  # built here, once, so that no search builds piece constants
    return m


def measure_from_json(text: str) -> Measure1D:
    return build_measure(json.loads(text))


def translate(m: Measure1D, shift: float) -> Measure1D:
    """``m`` moved by ``shift``; piece polynomials are re-expanded in the new variable."""
    pieces = tuple(
        Piece(p.lo + shift, p.hi + shift, tuple(float(c) for c in expanded(p.coeffs, -shift)))
        for p in m.pieces
    )
    return Measure1D(
        atoms=tuple((x + shift, w) for x, w in m.atoms),
        pieces=pieces,
        support_lo=m.support_lo + shift,
        support_hi=m.support_hi + shift,
    )


# -- convenience constructors -------------------------------------------

def point_mass(x: float = 0.0) -> Measure1D:
    return build_measure({"atoms": [{"x": x, "w": 1.0}]})


def two_point(a: float = -1.0, b: float = 1.0, weight_a: float = 0.5) -> Measure1D:
    return build_measure(
        {"atoms": [{"x": a, "w": weight_a}, {"x": b, "w": 1.0 - weight_a}]}
    )


def uniform(lo: float = 0.0, hi: float = 1.0) -> Measure1D:
    return build_measure({"pieces": [{"lo": lo, "hi": hi, "coeffs": [1.0 / (hi - lo)]}]})


# -- CDF / quantile ------------------------------------------------------

def cdf(m: Measure1D, x) -> float | np.ndarray:
    """Right-continuous distribution function F(x) = mu((-inf, x])."""
    xs = np.asarray(x, dtype=float)
    out = np.zeros_like(xs, dtype=float)
    for loc, w in m.atoms:
        out = out + w * (xs >= loc)
    for p in m.pieces:
        out = out + p.mass_below(xs)
    if np.ndim(x) == 0:
        return float(out)
    return out


def quantile(m: Measure1D, q) -> float | np.ndarray:
    """Generalized inverse of the CDF: smallest x with F(x) >= q."""
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    if np.any((qs < 0.0) | (qs > 1.0)):
        raise ValidationError("quantile levels must lie in [0, 1]")
    lo = np.full_like(qs, m.support_lo - 1.0)
    hi = np.full_like(qs, m.support_hi + 1.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = cdf(m, mid) < qs
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = hi
    if np.ndim(q) == 0:
        return float(out[0])
    return out


def support_components(m: Measure1D) -> list[tuple[float, float]]:
    """Maximal closed intervals of positive mass, sorted left to right."""
    intervals = [(x, x) for x, w in m.atoms if w > 0.0]
    intervals += [(p.lo, p.hi) for p in m.pieces if p.mass > 0.0]
    intervals.sort()
    merged: list[list[float]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def mass_in_open_interval(m: Measure1D, lo: float, hi: float) -> float:
    """Mass strictly inside (lo, hi)."""
    total = sum(w for x, w in m.atoms if lo < x < hi)
    for p in m.pieces:
        a, b = max(p.lo, lo), min(p.hi, hi)
        if a < b:
            total += p.mass_below(b) - p.mass_below(a)
    return total


# -- test functions ------------------------------------------------------

PIECEWISE_LINEAR = "piecewise_linear"
PIECEWISE_CUBIC = "piecewise_cubic_smooth"


@dataclass(frozen=True)
class TestFunction:
    """Continuous test function defined by knots ``(x, value, slope)``.

    ``piecewise_linear`` interpolates values linearly between knots; the
    stored slope is only the convention used when the derivative is
    requested exactly at a knot (it is undefined there in the classical
    sense).  ``piecewise_cubic_smooth`` is the C^1 cubic Hermite
    interpolant matching value and slope at every knot.  Outside the knot
    range both kinds extend with the boundary value (linear kind, slope 0)
    or the boundary tangent line (cubic kind).
    """

    kind: str
    knots: tuple[tuple[float, float, float], ...]

    __test__ = False  # keep pytest from collecting this as a test class

    def __post_init__(self):
        if self.kind not in (PIECEWISE_LINEAR, PIECEWISE_CUBIC):
            raise ValidationError(f"unknown test function kind {self.kind!r}")
        if not self.knots:
            raise ValidationError("test function needs at least one knot")
        xs = [k[0] for k in self.knots]
        if any(b <= a for a, b in zip(xs[:-1], xs[1:])):
            raise ValidationError("knot abscissae must be strictly increasing")

    def _arrays(self):
        k = np.asarray(self.knots, dtype=float)
        return k[:, 0], k[:, 1], k[:, 2]

    def __call__(self, x):
        xs, vals, slopes = self._arrays()
        t = np.asarray(x, dtype=float)
        if self.kind == PIECEWISE_LINEAR:
            out = np.interp(t, xs, vals)
        else:
            out = self._hermite(t, xs, vals, slopes, derivative=False)
        if np.ndim(x) == 0:
            return float(np.atleast_1d(out)[0])
        return np.reshape(out, np.shape(x))

    def deriv(self, x):
        xs, vals, slopes = self._arrays()
        t = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == PIECEWISE_LINEAR:
            if len(xs) == 1:
                out = np.zeros_like(t)
            else:
                sec = np.diff(vals) / np.diff(xs)
                idx = np.clip(np.searchsorted(xs, t, side="right") - 1, 0, len(sec) - 1)
                out = sec[idx]
                out = np.where((t < xs[0]) | (t > xs[-1]), 0.0, out)
            for (kx, _, ks) in self.knots:
                out = np.where(t == kx, ks, out)
        else:
            out = self._hermite(t, xs, vals, slopes, derivative=True)
        if np.ndim(x) == 0:
            return float(out[0])
        return out

    @staticmethod
    def _hermite(t, xs, vals, slopes, derivative: bool):
        t = np.atleast_1d(t)
        if len(xs) == 1:
            if derivative:
                return np.full_like(t, slopes[0])
            return vals[0] + slopes[0] * (t - xs[0])
        idx = np.clip(np.searchsorted(xs, t, side="right") - 1, 0, len(xs) - 2)
        x0, x1 = xs[idx], xs[idx + 1]
        v0, v1 = vals[idx], vals[idx + 1]
        s0, s1 = slopes[idx], slopes[idx + 1]
        h = x1 - x0
        u = np.clip((t - x0) / h, 0.0, 1.0)
        if derivative:
            out = (
                (6 * u * u - 6 * u) * v0 / h
                + (3 * u * u - 4 * u + 1) * s0
                + (-6 * u * u + 6 * u) * v1 / h
                + (3 * u * u - 2 * u) * s1
            )
            out = np.where(t < xs[0], slopes[0], out)
            out = np.where(t > xs[-1], slopes[-1], out)
        else:
            out = (
                (2 * u**3 - 3 * u * u + 1) * v0
                + (u**3 - 2 * u * u + u) * h * s0
                + (-2 * u**3 + 3 * u * u) * v1
                + (u**3 - u * u) * h * s1
            )
            out = np.where(t < xs[0], vals[0] + slopes[0] * (t - xs[0]), out)
            out = np.where(t > xs[-1], vals[-1] + slopes[-1] * (t - xs[-1]), out)
        return out

    def squared(self) -> Callable:
        return lambda x: np.square(self(x))


# -- entropy / LSI functionals -------------------------------------------

_LOG_CLAMP = 1e-300


def _integrate_against(m: Measure1D, f: Callable) -> float:
    """integral of f d mu: exact sum on atoms, adaptive quadrature on pieces."""
    total = 0.0
    if m.atoms:
        total += float(np.dot(m.atom_weights, np.asarray(f(m.atom_locations), dtype=float)))
    for p in m.pieces:
        total += adaptive_quad(lambda t, p=p: p.density(t) * np.asarray(f(t), dtype=float),
                               p.lo, p.hi)
    return total


def entropy_functional(m: Measure1D, f: Callable) -> float:
    """Ent(f) against ``m`` for nonnegative ``f``, with 0 log 0 = 0.

    ``f`` is any vectorized callable (a TestFunction composed with a
    square, a plain lambda, ...).  Raises NegativeInput if ``f`` is seen
    to go below -1e-12, NonIntegrable if moments are nonfinite or the
    mean is nonpositive.
    """
    probe = []
    if m.atoms:
        probe.append(np.asarray(f(m.atom_locations), dtype=float))
    for p in m.pieces:
        probe.append(np.asarray(f(np.linspace(p.lo, p.hi, 257)), dtype=float))
    probe_vals = np.concatenate([np.atleast_1d(v) for v in probe])
    if not np.all(np.isfinite(probe_vals)):
        raise NonIntegrable("test integrand is not finite on the support")
    if float(np.min(probe_vals)) < -1e-12:
        raise NegativeInput("entropy functional requires a nonnegative integrand")

    def f_log_f(t):
        v = np.maximum(np.asarray(f(t), dtype=float), 0.0)
        return v * np.log(np.maximum(v, _LOG_CLAMP))

    mean = _integrate_against(m, f)
    if not math.isfinite(mean) or mean <= 0.0:
        raise NonIntegrable(f"integral of f is {mean!r}; entropy undefined")
    moment = _integrate_against(m, f_log_f)
    ent = moment - mean * math.log(mean)
    if ent < -1e-12:
        raise ArithmeticError(
            f"entropy {ent!r} violates Jensen beyond quadrature tolerance"
        )
    return ent


def lsi_defect(m: Measure1D, g: TestFunction, c: float) -> float:
    """Ent(g^2) - 2 c integral of (g')^2; positive means c fails for this witness."""
    if not (c > 0.0):
        raise NonPositiveConstant("log-Sobolev constant must be positive")
    ent = entropy_functional(m, g.squared())
    energy = _integrate_against(m, lambda t: np.square(g.deriv(t)))
    return ent - 2.0 * c * energy


def disconnected_witness(m: Measure1D, gap: tuple[float, float]) -> tuple[float, float]:
    """Entropy/energy pair of the 0-left, 1-right witness across a mass gap.

    Returns ``(q log(1/q), 0.0)`` where ``q`` is the mass right of the
    gap; a positive entropy with zero energy rules out every LSI constant.
    """
    lo, hi = float(gap[0]), float(gap[1])
    if not lo < hi:
        raise ValidationError("gap must be a nonempty open interval (b, c)")
    inside = mass_in_open_interval(m, lo, hi)
    if inside > 1e-15:
        raise GapHasMass(f"open interval ({lo}, {hi}) carries mass {inside!r}")
    left = float(cdf(m, lo))
    right = 1.0 - left
    if left <= 0.0 or right <= 0.0:
        raise ValidationError("witness needs positive mass on both sides of the gap")
    return right * math.log(1.0 / right), 0.0
