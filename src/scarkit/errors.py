"""Error taxonomy shared across the package.

Callers should be able to tell apart bad input (ValidationError), a request
outside a function's mathematical domain (DomainError), a blown resource cap
(ResourceLimitError), a floating-point kernel that produced a non-finite value
(NumericalError), and honest "could not decide" outcomes, which are never
silently converted into guesses.
"""
from __future__ import annotations


class ScarkitError(Exception):
    """Base class for package errors."""


class ValidationError(ScarkitError, ValueError):
    """Input violates a documented precondition."""


class DomainError(ScarkitError, ValueError):
    """Request is outside the mathematical domain of the operation."""


class ResourceLimitError(ScarkitError, RuntimeError):
    """A hard resource cap (lattice size, cutoff budget) was exceeded."""


class NumericalError(ScarkitError, ArithmeticError):
    """A floating-point kernel produced a non-finite value; never returned silently."""


class ConductorUnresolvedError(ScarkitError, RuntimeError):
    """Bounded witness search ended without settling the conductor."""


class BelowConductorError(ScarkitError, ValueError):
    """hbar is too large for the requested target (level below the conductor)."""


class EmptyProjectionError(ScarkitError, RuntimeError):
    """Spectral projection removed every coefficient of the state."""

    def __init__(self, message: str, nearest: tuple = ()):  # noqa: D401
        super().__init__(message)
        self.nearest = nearest


class NotInSigmaError(ScarkitError, ValueError):
    """Energy vector is not in the reachable joint-energy set."""


class OverlappingToriError(ScarkitError, ValueError):
    """No probe symbol separates two base points; tori may coincide."""


class SpecParseError(ScarkitError, ValueError):
    """Malformed frequency-spec or config text; carries line/column."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
