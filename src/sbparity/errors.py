"""Exception hierarchy shared by all sbparity modules, and their count check."""


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
    """A mathematically guaranteed inequality failed beyond numerical slack."""


class OverlapGuardError(SpinBosonError):
    """The branch eigenvector overlap is too small for the gap identity."""


class ConfigError(SpinBosonError):
    """A run configuration failed to parse or validate."""


def check_count(name: str, value, least: int):
    """ParameterError unless ``value`` is an int >= ``least``, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value}")
