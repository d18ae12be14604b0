"""Exception hierarchy shared by all lsi_lab modules, and the input rule
of every JSON reader.

Everything user-input-related derives from ValidationError so the CLI can
map it to exit code 2 in one place.  Numerical failures derive from
ArithmeticError, which the CLI maps to the same exit code.  The measure,
cloud and rmt config readers take JSON apart only through ``fields``,
``entries`` and ``number``; finiteness and range checks are their own.
"""
import contextlib
import math
import numbers


class LsiLabError(Exception):
    """Base class for all package errors."""


class ValidationError(LsiLabError, ValueError):
    """Invalid input (bad measure spec, out-of-range parameter, ...)."""


def fields(raw, what: str, allowed, required=()) -> dict:
    """``raw`` when it is a mapping with no key outside ``allowed`` and every
    ``required`` one."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{what} must be a mapping, got {raw!r}")
    for problem, keys in (("unknown", set(raw) - set(allowed)),
                          ("missing", set(required) - set(raw))):
        if keys:
            raise ValidationError(f"{problem} {what} keys: {sorted(keys, key=str)}")
    return raw


def entries(raw, what: str, length: int | None = None) -> list:
    """``raw`` when it is a list (or tuple), of ``length`` entries where that is given."""
    if not isinstance(raw, (list, tuple)) or length not in (None, len(raw)):
        size = "" if length is None else f" of {length} entries"
        raise ValidationError(f"{what} must be a list{size}, got {raw!r}")
    return raw


def number(value, what: str, integral: bool = False):
    """``value`` as a float when it is a real number but not a bool (a JSON number
    or a numpy scalar; an int past the float range reads as +-inf); with
    ``integral``, as an int when that loses nothing (20.0 -> 20, but not
    20.7, nan or inf)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if not integral:
            try:
                return float(value)
            except OverflowError:  # an int past 2**1024
                return math.inf if value > 0 else -math.inf
        with contextlib.suppress(OverflowError, ValueError):  # int() of inf or nan
            if int(value) == value:
                return int(value)
    # the readers check finiteness themselves, each with its own error type
    kind = "an integer" if integral else "a finite number"
    raise ValidationError(f"{what} must be {kind}, got {value!r}")


# -- measure ------------------------------------------------------------
class NegativeDensity(ValidationError):
    """A piece density or atom weight is negative."""


class MassMismatch(ValidationError):
    """Total mass differs from 1 by more than the rescale tolerance."""


class OverlappingPieces(ValidationError):
    """Two density pieces have overlapping interiors."""


class NonIntegrable(ValidationError):
    """Integrand is not finite / not integrable against the measure."""


class NegativeInput(ValidationError):
    """Entropy functional fed a function that takes negative values."""


class GapHasMass(ValidationError):
    """Claimed support gap actually carries mass."""


# -- mollify ------------------------------------------------------------
class InsideSupport(ValidationError):
    """Asymptotic probe point is not strictly outside the support."""


# -- bg -----------------------------------------------------------------
class WrongSide(ValidationError):
    """Evaluation point on the wrong side of the median."""


class NoGap(ValidationError):
    """Measure has connected support; blow-up scan undefined."""


class NonPositiveConstant(ValidationError):
    """A constant that must be positive is not."""


class NumericalOverflow(LsiLabError, ArithmeticError):
    """A result exceeds the float range (the small-delta blow-up regime)."""


# -- rmt ----------------------------------------------------------------
class UnknownLaw(ValidationError):
    """Entry law name not recognized."""


class UnknownFunction(ValidationError):
    """Lipschitz test function name not recognized."""


class NegativeDelta(ValidationError):
    """Mollification variance must be nonnegative."""


class DimensionMismatch(ValidationError):
    """Matrices have different sizes."""


class NonPositiveArg(ValidationError):
    """Bound formula argument must be positive."""


class NoFeasibleDelta(ValidationError):
    """No tabulated delta has c(delta) <= n."""


# -- highdim ------------------------------------------------------------
class NonPositiveDelta(ValidationError):
    """Gaussian variance must be strictly positive."""
