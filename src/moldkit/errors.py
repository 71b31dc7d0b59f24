"""Exception hierarchy for moldkit.

Every domain error derives from MoldkitError so the CLI can map any of
them to exit code 1 with a one-line diagnostic.
"""


class MoldkitError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroInverse(MoldkitError):
    """Multiplicative inverse of zero requested."""


class CharTwo(MoldkitError):
    """Operation requires characteristic != 2."""


class CharNotTwo(MoldkitError):
    """Operation requires characteristic 2."""


class ScalarInput(MoldkitError):
    """Operation is undefined for scalar matrices."""


class SingularP(MoldkitError):
    """Conjugating matrix must be invertible."""


class NonInvertibleGenerator(MoldkitError):
    """Group-mode operation hit a singular generator image."""


class VanishingM(MoldkitError):
    """Trace-pairing operation requires m = tr^2 - 4 det != 0."""


class NotSemiSimple(MoldkitError):
    """Input tuple is not in the semi-simple stratum."""


class NoSplitGenerator(MoldkitError):
    """No generator or increasing product with m != 0 was found."""


class NotUnipotent(MoldkitError):
    """Input tuple is not in the unipotent stratum."""


class NotUnipotentF2(MoldkitError):
    """Input tuple is not in the characteristic-2 unipotent stratum."""


class NotScalar(MoldkitError):
    """Input tuple is not in the scalar stratum."""


class ChartOverlapEmpty(MoldkitError):
    """Chart transition requested outside the chart overlap b(beta) != 0."""


class BudgetExceeded(MoldkitError):
    """Requested work exceeds a budget: the census tuple budget, the
    invariant-vector trace budget or the int-string limit of a printed value."""


class ParseError(MoldkitError):
    """Malformed representation document."""


class ValidationError(MoldkitError):
    """Well-formed document with invalid content."""
