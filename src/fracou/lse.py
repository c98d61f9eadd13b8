"""Least-squares drift estimator and its studentized statistic."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DegeneratePathError, DomainError
from .fou import ModelParams, ObservedPath

__all__ = ["EstimateResult", "estimate", "estimate_series", "studentize"]


@dataclass
class EstimateResult:
    theta_hat: float
    numerator: float
    denominator: float
    n: int
    delta: float


def estimate_series(x, delta: float) -> EstimateResult:
    """LSE from raw observations x_0..x_n on an equidistant grid of step delta.

    theta_hat = - sum x_{i-1} (x_i - x_{i-1}) / (delta * sum x_{i-1}^2).

    Both sums are dot products of nonnegative terms via the telescoping identity
    -sum x_{i-1}(x_i - x_{i-1}) = 1/2 sum (x_i - x_{i-1})^2 - (x_n^2 - x_0^2)/2;
    tested against exactly rounded math.fsum sums to 1e-13 relative, n <= 1e5.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise DomainError("need at least 3 observations (n >= 2)")
    if not np.all(np.isfinite(x)):
        raise DomainError("path contains non-finite values")
    if not (delta > 0.0 and np.isfinite(delta)):
        raise DomainError(f"delta must be positive, got {delta}")
    dx, prev = np.diff(x), x[:-1]
    num = float(0.5 * np.dot(dx, dx) - 0.5 * (x[-1] ** 2 - x[0] ** 2))
    den = delta * float(np.dot(prev, prev))
    if den <= 0.0:
        raise DegeneratePathError("sum of squared lagged observations is zero")
    return EstimateResult(
        theta_hat=num / den,
        numerator=num,
        denominator=den,
        n=x.size - 1,
        delta=delta,
    )


def estimate(path: ObservedPath) -> EstimateResult:
    """LSE from an ObservedPath."""
    return estimate_series(path.x, path.scheme.delta)


def studentize(est: EstimateResult, truth: ModelParams, consts) -> float:
    """lambda_n * sqrt(T_n) * (theta_hat - theta) at the true parameter.

    `consts` is a theory.TheoryConstants computed for the same
    (theta, H, n, delta); a mismatch raises ConsistencyError.
    """
    if consts.scheme_n != est.n or not math.isclose(
        consts.scheme_delta, est.delta, rel_tol=1e-12
    ):
        raise ConsistencyError(
            f"constants computed for (n={consts.scheme_n}, delta={consts.scheme_delta}) "
            f"but estimate has (n={est.n}, delta={est.delta})"
        )
    if not math.isclose(consts.theta, truth.theta, rel_tol=1e-12):
        raise ConsistencyError("constants and truth disagree on theta")
    t_n = est.n * est.delta
    return consts.lambda_n * math.sqrt(t_n) * (est.theta_hat - truth.theta)
