"""Exception types shared across the toolkit."""

__all__ = ["ClarkeError", "DegenerateDesign", "DimensionMismatch", "InvalidParameter",
           "OutOfRange", "ParseError"]


class ClarkeError(Exception):
    """Base class for all clarkekit errors."""


class InvalidParameter(ClarkeError, ValueError):
    """A scalar argument or option is outside its admissible range."""


class DimensionMismatch(ClarkeError, ValueError):
    """An array argument does not match the joint count it is paired with."""


class DegenerateDesign(ClarkeError):
    """All joint angles coincide modulo pi, so the 2x2 Gram matrix of the
    inverse Clarke matrix is (near-)singular and no transform pair exists."""


class ParseError(ClarkeError, ValueError):
    """A design or via-point file could not be parsed or fails validation."""


class OutOfRange(ClarkeError, ValueError):
    """A query time lies outside the planned trajectory horizon."""
