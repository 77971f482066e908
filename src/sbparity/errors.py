"""Exception hierarchy shared by all sbparity modules, and the checks every
layer shares: a real number, an integer, a count and the name of a
truncation policy.  A bool is neither a real number nor an integer here."""

import numbers
import operator


class SpinBosonError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(SpinBosonError, ValueError):
    """A physical or numerical parameter violates its documented bounds."""


class CapacityError(SpinBosonError):
    """A requested object exceeds a configured size guard."""


class ConvergenceError(SpinBosonError):
    """An expansion did not reach the required accuracy.

    Carries the achieved norm deficit in ``deficit``.
    """

    def __init__(self, message, deficit=None):
        super().__init__(message)
        self.deficit = deficit


class SolverError(SpinBosonError):
    """The eigensolver failed its residual contract.

    Carries the best residual reached in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SearchError(SpinBosonError):
    """A root bracket could not be established within the search cap."""


class InvariantViolation(SpinBosonError):
    """A mathematically guaranteed inequality failed beyond numerical slack.

    Carries the report whose numbers broke it in ``report``, if one was made.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class OverlapGuardError(SpinBosonError):
    """The branch eigenvector overlap is too small for the gap identity."""


class ConfigError(SpinBosonError):
    """A run configuration failed to parse or validate."""


def is_real(value) -> bool:
    """Whether ``value`` is a real number (``numbers.Real``) and no bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def as_integer(value) -> int | None:
    """``value`` as an int if ``operator.index`` takes it and it is no bool, else None."""
    try:
        return operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        return None


def check_count(name: str, value, least: int) -> int:
    """:func:`as_integer` of ``value``; ParameterError unless that is >= ``least``."""
    count = as_integer(value)
    if count is None or count < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value}")
    return count


def check_policy(policy: str) -> str:
    """``policy``; ParameterError unless it is "per-mode" or "total-quanta"."""
    if policy not in ("per-mode", "total-quanta"):
        raise ParameterError(f"unknown truncation policy {policy!r}")
    return policy
