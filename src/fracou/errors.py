"""Exception types shared across the package."""


class FracouError(Exception):
    """Base class for all library errors."""


class DomainError(FracouError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class SizeError(FracouError, ValueError):
    """A size/memory guard was violated."""


class DegeneratePathError(FracouError, ValueError):
    """The least-squares estimator is undefined for the given path."""


class ConsistencyError(FracouError, ValueError):
    """Two objects that must share (theta, H, n, delta) do not."""


class ConfigError(FracouError, ValueError):
    """A run configuration is invalid."""


class DataQualityError(FracouError, RuntimeError):
    """A Monte Carlo run produced too many degenerate replications."""


class ReplicationError(FracouError, RuntimeError):
    """A Monte Carlo replication failed; the message names its scheme and stream."""
