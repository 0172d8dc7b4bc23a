"""Semantic exception hierarchy shared across the package."""


class BellboundError(Exception):
    """Base class for every error raised by this package."""


class NotPositiveDefinite(BellboundError):
    """A Cholesky pivot fell at or below the pivot threshold."""


class OutOfRange(BellboundError):
    """A parameter lies outside its documented domain."""


class DimensionMismatch(BellboundError):
    """Shapes of expression, strategy or matrix operands are inconsistent."""


class DegenerateState(BellboundError):
    """The state carries no correlation direction to build measurements from."""


class TooManySettings(BellboundError):
    """Deterministic-strategy enumeration would exceed the size guard."""


class NoCrossing(BellboundError):
    """The quantum bound never exceeds the classical bound on the family."""


class UnsupportedLevel(BellboundError):
    """Relaxation level is not one of 1, '1+AB', 2."""


class InfeasibleValue(BellboundError):
    """The requested Bell value exceeds the relaxation's attainable range."""


class SolverError(BellboundError):
    """An SDP solve did not reach the accuracy the caller requires."""
