"""Exception hierarchy shared by all lsi_lab modules.

Everything user-input-related derives from ValidationError so the CLI can
map it to exit code 2 in one place.  Numerical failures derive from
ArithmeticError, which the CLI maps to the same exit code.
"""


class LsiLabError(Exception):
    """Base class for all package errors."""


class ValidationError(LsiLabError, ValueError):
    """Invalid input (bad measure spec, out-of-range parameter, ...)."""


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
