"""Least-squares drift estimator and its studentized statistic."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DegeneratePathError, DomainError
from .fou import ModelParams, ObservedPath

__all__ = [
    "EstimateResult",
    "estimate",
    "estimate_series",
    "ratio_terms",
    "studentize",
    "studentize_sample",
]

#: smallest normal float64; a lagged sum of squares below it has lost digits
_TINY = float(np.finfo(float).tiny)

#: elements per BLAS dot in the estimator sums, below OpenBLAS's threading cutoff
_SUM_CHUNK = 2**13


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

    theta_hat does not change when x is scaled.  When a plain sum overflows,
    or sum x_{i-1}^2 falls below the normal float range, both sums are taken
    on x 2^-k with max|x 2^-k| in [1/2, 1) instead (exact, a power of two), and
    `numerator` and `denominator` are those scaled sums: finite, with ratio
    theta_hat.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise DomainError("need at least 3 observations (n >= 2)")
    if not np.all(np.isfinite(x)):
        raise DomainError("path contains non-finite values")
    if not (delta > 0.0 and np.isfinite(delta)):
        raise DomainError(f"delta must be positive, got {delta}")
    num, den = ratio_terms(x, delta)
    if math.isnan(den):
        raise DegeneratePathError("sum of squared lagged observations is zero")
    return EstimateResult(
        theta_hat=num / den,
        numerator=num,
        denominator=den,
        n=x.size - 1,
        delta=delta,
    )


def ratio_terms(x: np.ndarray, delta: float):
    """(numerator, denominator) of theta_hat for a finite float path x of at
    least 3 points, rescaled as `estimate_series` describes, or arrays of them
    over the rows of a block x of such paths; the caller has checked x and
    delta.  A degenerate path, one whose denominator is 0, gets a NaN
    denominator, so that numerator / denominator is NaN there.

    A block of paths of at most _SUM_CHUNK + 1 points takes one difference
    over the block, then two dot products per row: the same sums, bit for
    bit, as one path on its own, which is the block's one-row case.  Longer
    paths, a block with a row whose sum of squares overflows, and rows that
    need rescaling are summed one path at a time.
    """
    block = x.reshape(-1, x.shape[-1])
    num, den = np.empty(len(block)), np.empty(len(block))
    for r, (num_r, sxx) in enumerate(_block_sums(block)):
        if not (math.isfinite(num_r) and _TINY <= sxx < math.inf):
            row = block[r]
            num_r, sxx = _lse_sums(np.ldexp(row, -math.frexp(np.abs(row).max())[1]))
        den_r = delta * sxx
        num[r], den[r] = num_r, den_r if den_r > 0.0 else math.nan
    if x.ndim == 1:
        return float(num[0]), float(den[0])
    return num, den


def _block_sums(block):
    """`_lse_sums` of each row of a block.  Rows of at most _SUM_CHUNK + 1
    points take one difference over the block and a single vdot per sum, as
    `_sum_squares` takes it; longer rows go one at a time, and so do all rows
    once any sum of squares overflows, since the difference could too."""
    if block.shape[1] > _SUM_CHUNK + 1:
        return map(_lse_sums, block)
    prev = block[:, :-1]
    sxx = [np.vdot(row, row) for row in prev]
    if max(sxx) == math.inf:
        return map(_lse_sums, block)
    steps = block[:, 1:] - prev  # np.diff of every row
    return [
        (0.5 * np.vdot(dx, dx) - 0.5 * (b * b - a * a), s)
        for dx, a, b, s in zip(steps, block[:, 0], block[:, -1], sxx)
    ]


def _lse_sums(x):
    """(-sum x_{i-1}(x_i - x_{i-1}), sum x_{i-1}^2), infinite or NaN on overflow.

    np.diff is skipped once the second sum overflows, since it could too.
    """
    prev = x[:-1]
    sxx = _sum_squares(prev)
    if sxx == math.inf:
        return math.nan, sxx
    dx = np.diff(x)
    last, first = float(x[-1]), float(x[0])
    return 0.5 * _sum_squares(dx) - 0.5 * (last * last - first * first), sxx


def _sum_squares(v):
    """sum v_i^2, +inf on overflow, with the same bits for any BLAS thread count.

    vdot runs the BLAS dot but raises no numpy overflow warning.  Above about
    10^4 elements OpenBLAS splits a dot across its threads, so the sum would
    depend on OPENBLAS_NUM_THREADS; chunks of _SUM_CHUNK elements stay on one
    thread, and math.fsum adds their partials exactly rounded.  A vector of
    at most _SUM_CHUNK elements is one chunk and one vdot.
    """
    chunks = (v[i : i + _SUM_CHUNK] for i in range(0, v.size, _SUM_CHUNK))
    partials = [np.vdot(c, c) for c in chunks]
    try:
        return math.fsum(partials)
    except OverflowError:  # finite partials whose sum overflows
        return math.inf


def estimate(path: ObservedPath) -> EstimateResult:
    """LSE from an ObservedPath."""
    return estimate_series(path.x, path.scheme.delta)


def studentize(est: EstimateResult, truth: ModelParams, consts) -> float:
    """lambda_n * (sqrt(T_n) * (theta_hat - theta)) at the true parameter.

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
    return float(studentize_sample(est.theta_hat, truth, consts)[1])


def studentize_sample(theta_hats, truth: ModelParams, consts):
    """Vector form of `studentize` for estimates on the scheme of `consts`:
    (sqrt(T_n) * (theta_hat - theta), lambda_n times that), elementwise.

    The first is the error whose variance tends to sigma_H^2, the second the
    studentized statistic; a theta mismatch raises ConsistencyError.
    """
    if not math.isclose(consts.theta, truth.theta, rel_tol=1e-12):
        raise ConsistencyError("constants and truth disagree on theta")
    t_n = consts.scheme_n * consts.scheme_delta
    root_t_err = math.sqrt(t_n) * (np.asarray(theta_hats, dtype=float) - truth.theta)
    return root_t_err, consts.lambda_n * root_t_err
