"""Exception types shared across the package."""


class SpecskipError(Exception):
    """Base class for all package errors."""


class RejectedInput(SpecskipError, ValueError):
    """An argument violates a precondition (shape, range, schema)."""


class DegenerateVector(SpecskipError, ValueError):
    """A vector with zero norm where a direction is required."""


class DegenerateProposal(SpecskipError, ValueError):
    """The drafter assigned zero mass to its own proposed token."""


class CacheUnderflow(SpecskipError):
    """The feature cache holds no feature as old as a lookup asks for."""


class DegenerateTrace(SpecskipError):
    """A trace without any target forward passes; metrics are undefined."""
