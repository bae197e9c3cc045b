"""Semantic exceptions shared across the package, and the check of a tail threshold."""

import math


class TailboundError(Exception):
    """Base error for this package."""


class DomainError(TailboundError, ValueError):
    """Inputs violate a mathematical precondition (wrong sign, out of range)."""


class WindowError(DomainError):
    """Requested evaluation point lies outside a bound's stated validity window."""


class UnsupportedFamilyError(TailboundError, ValueError):
    """The requested operation has no implementation for this family."""


class TruncationError(TailboundError, ArithmeticError):
    """A truncated series or enumeration cannot reach the requested accuracy."""


def check_threshold(x: float) -> None:
    """Raise DomainError unless the tail threshold x is finite and >= 0."""
    if not 0.0 <= x < math.inf:
        raise DomainError(f"threshold must be >= 0 and finite, got {x}")
