"""Simulation of the fractional Ornstein-Uhlenbeck process.

The SDE dX_t = -theta X_t dt + dB_t (fBm driver, H > 1/2) has the explicit
solution X_t = e^(-theta t) (x0 + int_0^t e^(theta s) dB_s).  Observed at
t_i = i delta it obeys, exactly,

    X_{(i+1) delta} = a X_{i delta} + xi_i,    a = e^(-theta delta),
    xi_i = int_{i delta}^{(i+1) delta} e^(-theta ((i+1) delta - s)) dB_s,

and xi_0, xi_1, ... is a stationary Gaussian sequence (Cheridito, Kawaguchi
& Maejima 2003).  By default xi is drawn exactly by circulant embedding on
the observation grid (`FbmGrid(delta, n, H, theta)`) and the recursion runs
as one `lfilter` at step delta, so the path has the exact law of the fOU
process at the observation times.

The `increments=` hook keeps the exponential-Euler scheme as a reference:
given fGn on the fine grid of step d = delta/oversample, the recursion
X_{t+d} = e^(-theta d) X_t + dB is aggregated per observation step,

    xi_i ~ sum_{j<M} e^(-theta d (M-1-j)) dB_{i M + j},    M = oversample,

which carries an O(d^H) scheme error that vanishes as M grows.
"""

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate
import scipy.signal

from .errors import DomainError, SizeError
from .fbm import FbmGrid, IncrementSeries, RngSeed, sample_circulant

__all__ = [
    "ModelParams",
    "SamplingScheme",
    "ObservedPath",
    "check_steps",
    "simulate_path",
    "exact_second_moment",
    "write_path_csv",
    "read_path_csv",
]

#: guard on the number of observation steps per path
MAX_STEPS = 2**23


@dataclass
class ModelParams:
    """Drift theta > 0, Hurst parameter in (1/2, 1), initial value x0."""

    theta: float
    hurst: float
    x0: float = 0.0

    def __post_init__(self):
        if not (self.theta > 0.0 and np.isfinite(self.theta)):
            raise DomainError(f"theta must be positive and finite, got {self.theta}")
        if not (0.5 < self.hurst < 1.0):
            raise DomainError(f"hurst must lie in (1/2, 1), got {self.hurst}")
        if not np.isfinite(self.x0):
            raise DomainError(f"x0 must be finite, got {self.x0}")


@dataclass
class SamplingScheme:
    """Equidistant observations t_i = i * delta, i = 0..n; horizon T = n * delta.

    `oversample` only sizes the fine grid of the exponential-Euler reference
    (see `simulate_path`); the default exact draw does not use it.
    """

    n: int
    delta: float
    oversample: int = 8

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"n must be >= 2, got {self.n}")
        if not (self.delta > 0.0 and np.isfinite(self.delta)):
            raise DomainError(f"delta must be positive and finite, got {self.delta}")
        if self.oversample < 1:
            raise DomainError(f"oversample must be >= 1, got {self.oversample}")

    @classmethod
    def from_gamma(cls, n: int, gamma: float, oversample: int = 8) -> "SamplingScheme":
        """Mesh schedule delta = n^(-gamma)."""
        if not (0.0 < gamma < 1.0):
            raise DomainError(f"gamma must lie in (0, 1), got {gamma}")
        return cls(n=n, delta=float(n) ** (-gamma), oversample=oversample)

    @property
    def horizon(self) -> float:
        return self.n * self.delta

    @property
    def fine_step(self) -> float:
        return self.delta / self.oversample


@dataclass
class ObservedPath:
    """Discretely observed trajectory X_{t_0}, ..., X_{t_n}."""

    params: ModelParams
    scheme: SamplingScheme
    x: np.ndarray
    meta: dict = field(default_factory=dict)


def check_steps(n: int) -> None:
    """The size guard on one path: at most MAX_STEPS observation steps (SizeError)."""
    if n > MAX_STEPS:
        raise SizeError(f"n = {n} exceeds guard {MAX_STEPS}")


def simulate_path(
    params: ModelParams,
    scheme: SamplingScheme,
    seed: RngSeed,
    increments: IncrementSeries | None = None,
) -> ObservedPath:
    """Simulate one observed path with the exact law at the observation times.

    `increments` is the hook for the exponential-Euler reference scheme: when
    given, it must be an fGn IncrementSeries on the fine grid of the scheme
    (n * oversample increments) and replaces the exact draw.
    """
    n = scheme.n
    check_steps(n)
    if increments is None:
        grid = FbmGrid(step=scheme.delta, count=n, hurst=params.hurst, theta=params.theta)
        incs = sample_circulant(grid, seed)
        xi = incs.values
    else:
        incs, m = increments, scheme.oversample
        if incs.grid.count != n * m:
            raise DomainError(
                f"injected increments have count {incs.grid.count}, expected {n * m}"
            )
        # xi_i = sum_j a_d^(m-1-j) dB_{i*m+j}, a_d = e^(-theta * fine_step)
        w = np.exp(-params.theta * scheme.fine_step) ** np.arange(m - 1, -1, -1)
        xi = incs.values.reshape(n, m) @ w

    # x[i+1] = a x[i] + xi_i, seeded with x[0] = x0
    x = np.empty(n + 1)
    x[0] = params.x0
    x[1:] = xi
    x = scipy.signal.lfilter([1.0], [1.0, -np.exp(-params.theta * scheme.delta)], x)
    meta = {
        "method": incs.method,
        "fallback": incs.fallback,
        "seed": seed.seed,
        "stream": seed.stream,
    }
    return ObservedPath(params=params, scheme=scheme, x=x, meta=meta)


def exact_second_moment(params: ModelParams, t: float) -> float:
    """E[X_t^2] by adaptive quadrature, to ~1e-8 relative error.

    E[X_t^2] = x0^2 e^(-2 theta t)
             + (H(2H-1)/theta) int_0^t z^(2H-2) (e^(-theta z) - e^(theta(z-2t))) dz.

    The substitution w = z^(2H-1) removes the z^(2H-2) endpoint singularity,
    so a plain adaptive rule sees a smooth integrand.  The bracket is
    evaluated as -e^(-theta z) expm1(-2 theta (t - z)), which keeps full
    precision as theta t -> 0, where E[X_t^2] -> x0^2 + t^(2H).
    """
    if not (t > 0.0 and np.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    th, h, x0 = params.theta, params.hurst, params.x0
    p = 1.0 / (2.0 * h - 1.0)

    def integrand(w):
        z = w**p
        return -np.exp(-th * z) * np.expm1(-2.0 * th * (t - z))

    val, _ = scipy.integrate.quad(
        integrand, 0.0, t ** (2.0 * h - 1.0), epsabs=0.0, epsrel=1e-10, limit=200
    )
    return x0**2 * np.exp(-2.0 * th * t) + (h / th) * val


def write_path_csv(path: ObservedPath, dest) -> None:
    """Write the observed path as CSV with header `i,t,x`."""
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    fh = open(dest, "w", newline="") if own else dest
    try:
        fh.write("i,t,x\n")
        delta = path.scheme.delta
        fh.writelines(f"{i},{i * delta:.17g},{xi:.17g}\n" for i, xi in enumerate(path.x))
    finally:
        if own:
            fh.close()


def read_path_csv(src) -> tuple[np.ndarray, float]:
    """Read a path CSV produced by write_path_csv; returns (x, delta).

    The `i` column must count 0..n and the times must satisfy
    |t_i - i * delta| <= 1e-9 * max(1, |t_i|) with delta = t_1 - t_0.
    """
    own = isinstance(src, (str, bytes)) or hasattr(src, "__fspath__")
    fh = open(src, "r", newline="") if own else src
    try:
        header = next(csv.reader([fh.readline()]), None)
        if header != ["i", "t", "x"]:
            raise DomainError(f"expected CSV header i,t,x, got {header}")
        try:
            rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise DomainError(f"malformed path CSV: {exc}") from exc
    finally:
        if own:
            fh.close()
    if rows.shape[0] < 3:
        raise DomainError("path CSV must contain at least 3 observations")
    if rows.shape[1] != 3:
        raise DomainError(f"path CSV rows must have 3 columns, got {rows.shape[1]}")
    idx, t, x = rows.T
    if not np.array_equal(idx, np.arange(idx.size)):
        raise DomainError("column i must count 0, 1, ..., n")
    delta = t[1] - t[0]
    if not delta > 0:
        raise DomainError("time column must be strictly increasing")
    if not np.all(np.abs(t - idx * delta) <= 1e-9 * np.maximum(1.0, np.abs(t))):
        raise DomainError("time column is not equidistant: need t_i = i * delta")
    return np.ascontiguousarray(x), float(delta)
