"""Exception types shared across the package: invalid input raises DomainError
(CLI exit 2); any other FracouError is a runtime failure (CLI exit 1)."""


class FracouError(Exception):
    """Base class for all library errors."""


class DomainError(FracouError, ValueError):
    """Invalid input: outside an operation's domain, or breaking a run config's rule."""


class SizeError(DomainError):
    """An input exceeds a size/memory guard."""


class DegeneratePathError(FracouError, ValueError):
    """The least-squares estimator is undefined for the given path."""


class ConsistencyError(FracouError, ValueError):
    """Two objects that must share (theta, H, n, delta) do not."""


class DataQualityError(FracouError, RuntimeError):
    """A Monte Carlo run produced too many degenerate replications."""


class ReplicationError(FracouError, RuntimeError):
    """A Monte Carlo replication failed; the message names its scheme and stream."""

