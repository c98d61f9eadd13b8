"""Exact sampling of stationary Gaussian increment sequences on a uniform grid.

A grid of spacing d with decay rate theta carries the increments

    xi_i = int_{i d}^{(i+1) d} e^(-theta ((i+1) d - s)) dB_s,    i = 0..count-1,

of a fractional Brownian motion B.  At theta = 0 these are fractional
Gaussian noise (fGn) with a closed-form autocovariance.  At theta > 0 they
are the exponentially weighted increments that drive the fractional
Ornstein-Uhlenbeck process exactly from one observation to the next; the
sequence is again stationary and its autocovariance is a one-dimensional
integral evaluated by quadrature (Cheridito, Kawaguchi & Maejima 2003).

The default sampler is circulant embedding (Davies-Harte) of the Toeplitz
autocovariance, exact in distribution: each draw scales the m+1 distinct
Fourier coefficients by amplitudes cached per grid and runs one real inverse
FFT of length 2m.
A dense Cholesky sampler serves as the slow oracle and as the fallback when
the embedding is not nonnegative definite (which has not been observed for
H in (1/2, 1) at the sizes this package uses, but is guarded anyway).

Randomness comes from numpy's counter-based Philox generator keyed by
(seed, stream): distinct streams are independent, and a fixed
(seed, stream, grid) triple reproduces the same draw bit for bit.
Gaussians are produced by `Generator.standard_normal` (ziggurat).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.integrate
import scipy.linalg

from .errors import DomainError, SizeError

__all__ = [
    "FbmGrid",
    "RngSeed",
    "IncrementSeries",
    "increment_autocov",
    "sample_circulant",
    "sample_cholesky",
    "partial_sums",
]

#: relative tolerance on negative embedding eigenvalues before falling back
NEG_EIG_RTOL = 1e-9

#: O(m^2) memory guard for the dense Cholesky sampler
CHOLESKY_MAX_COUNT = 4096

#: 16-point Gauss-Legendre rule mapped to [0, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


@dataclass
class FbmGrid:
    """Uniform grid of increments: spacing `step`, `count` increments, decay
    rate `theta` (0 for plain fGn, > 0 for exponentially weighted increments)."""

    step: float
    count: int
    hurst: float
    theta: float = 0.0

    def __post_init__(self):
        if not (self.step > 0.0 and np.isfinite(self.step)):
            raise DomainError(f"step must be positive and finite, got {self.step}")
        if self.count < 1:
            raise DomainError(f"count must be >= 1, got {self.count}")
        if not (0.0 < self.hurst < 1.0):
            raise DomainError(f"hurst must lie in (0, 1), got {self.hurst}")
        if not (self.theta >= 0.0 and np.isfinite(self.theta)):
            raise DomainError(f"theta must be nonnegative and finite, got {self.theta}")
        if self.theta > 0.0 and self.hurst <= 0.5:
            raise DomainError(f"theta > 0 requires hurst in (1/2, 1), got {self.hurst}")


@dataclass
class RngSeed:
    """(seed, stream) pair in [0, 2^63), the range numpy keeps exact in a Philox key
    (it rounds larger ints through float64); distinct pairs give independent streams."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        for value in (self.seed, self.stream):
            if not (isinstance(value, (int, np.integer)) and 0 <= value < 2**63):
                raise DomainError(f"seed and stream must be integers in [0, 2^63): {self}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))


@dataclass
class IncrementSeries:
    """A draw of grid increments together with sampler provenance."""

    grid: FbmGrid
    values: np.ndarray
    method: str = "circulant"
    fallback: bool = False


def increment_autocov(grid: FbmGrid, lag) -> float:
    """Autocovariance c(k) = Cov(xi_0, xi_k) of the grid increments at lag(s) k >= 0.

    At theta = 0 (fGn), in closed form:
    c(k) = step^(2H) * ((k+1)^(2H) - 2 k^(2H) + (k-1)^(2H)) / 2,
    which follows from the fBm covariance (t^(2H)+s^(2H)-|t-s|^(2H))/2
    and stationarity of increments.

    At theta > 0 (integer lags only), with c = theta * step,
    c(k) = H(2H-1) step^(2H-1) / (2 theta)
           * int_{-1}^{1} |k+s|^(2H-2) (e^(-c|s|) - e^(-c(2-|s|))) ds,
    which tends to the fGn value as theta -> 0.
    """
    k = np.asarray(lag, dtype=float)
    if np.any(k < 0):
        raise DomainError("lag must be nonnegative")
    if grid.theta > 0.0:
        if np.any(k != np.floor(k)):
            raise DomainError("lag must be an integer when theta > 0")
        rho = _weighted_autocov(grid.step, grid.hurst, grid.theta, k)
    else:
        h2 = 2.0 * grid.hurst
        rho = 0.5 * (np.abs(k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)
        rho = rho * grid.step**h2
    return float(rho) if np.isscalar(lag) else rho


def _weighted_autocov(step, hurst, theta, k):
    # Fold the symmetric integral onto s in [0, 1]:
    #   I(k) = int_0^1 ((k+s)^p + |k-s|^p) w(s) ds,  p = 2H-2,
    #   w(s) = e^(-c s) - e^(-c(2-s)) = -e^(-c s) expm1(-2c(1-s)),
    # where expm1 keeps w accurate as c -> 0.  Away from k - s = 0 the
    # integrand is smooth: 16-point Gauss-Legendre on each panel of width
    # <= 12.5/c over [0, min(1, 45/c)] (beyond that w < e^-45 w(0)), i.e. one
    # panel on [0, 1] for c <= 12.5.  The s^p term of lag 0 and the (1-s)^p
    # term of lag 1 are integrable endpoint singularities, which the
    # algebraic-weight rule of quad absorbs.
    c = theta * step
    p = 2.0 * hurst - 2.0

    def weight(s):
        return -np.exp(-c * s) * np.expm1(-2.0 * c * (1.0 - s))

    def singular(a, b):  # int_0^1 s^a (1-s)^b w(s) ds
        return scipy.integrate.quad(
            weight, 0.0, 1.0, weight="alg", wvar=(a, b), epsabs=0.0, epsrel=1e-12, limit=200
        )[0]

    plus = np.zeros_like(k)
    minus = np.zeros_like(k)
    end = min(1.0, 45.0 / c)
    panels = math.ceil(c * end / 12.5)
    width = end / panels
    for j in range(panels):
        nodes = width * (j + _GL_NODES)
        for s, wt in zip(nodes, width * _GL_WEIGHTS * weight(nodes)):
            plus += wt * (k + s) ** p
            minus += wt * np.abs(k - s) ** p
    if np.any(k == 0.0):
        plus[k == 0.0] = minus[k == 0.0] = singular(p, 0.0)
    if np.any(k == 1.0):
        minus[k == 1.0] = singular(0.0, p)
    return hurst * (2.0 * hurst - 1.0) * step ** (2.0 * hurst - 1.0) / (2.0 * theta) * (
        plus + minus
    )


@lru_cache(maxsize=16)
def _embedding_spectrum(step: float, count: int, hurst: float, theta: float = 0.0):
    """Draw amplitudes sqrt(m * eig_k), k = 0..m, of the length-2m circulant
    embedding (times sqrt(2) at k = 0 and m); None if it is indefinite."""
    grid = FbmGrid(step, count, hurst, theta)
    m = count
    rho = increment_autocov(grid, np.arange(m + 1))
    eig = np.fft.rfft(np.concatenate([rho, rho[m - 1 : 0 : -1]])).real
    if eig.min() < -NEG_EIG_RTOL * eig.max():
        return None
    amp = np.sqrt(m * np.clip(eig, 0.0, None))
    amp[[0, m]] *= np.sqrt(2.0)
    amp.setflags(write=False)
    return amp


@lru_cache(maxsize=4)
def _cholesky_factor(step: float, count: int, hurst: float, theta: float):
    grid = FbmGrid(step, count, hurst, theta)
    cov = scipy.linalg.toeplitz(increment_autocov(grid, np.arange(count)))
    try:
        fac = scipy.linalg.cholesky(cov, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise DomainError(f"increment covariance not positive definite: {exc}") from exc
    fac.setflags(write=False)
    return fac


def sample_circulant(grid: FbmGrid, seed: RngSeed) -> IncrementSeries:
    """Exact draw of the grid increments via circulant embedding and one real
    inverse FFT.

    Falls back to the Cholesky sampler (flagged in the result) if the
    embedding has an eigenvalue below -NEG_EIG_RTOL * max; smaller negative
    eigenvalues are clamped to zero.
    """
    amp = _embedding_spectrum(grid.step, grid.count, grid.hurst, grid.theta)
    if amp is None:
        out = sample_cholesky(grid, seed)
        out.fallback = True
        return out
    values = _circulant_draw(amp, grid.count, seed.generator())
    return IncrementSeries(grid=grid, values=values, method="circulant")


def _circulant_draw(amp, m, rng):
    # normals fill [re_0, re_m, re_1, im_1, ..., im_{m-1}]; the conjugate makes
    # this the 2m-point FFT of the Hermitian vector; irfft drops im_0 and im_m
    half = np.empty(m + 1, dtype=complex)
    rng.standard_normal(out=half.view(float)[: 2 * m])
    half[m] = half[0].imag
    np.conjugate(half, out=half)
    half *= amp
    return np.fft.irfft(half, n=2 * m)[:m]


def sample_cholesky(grid: FbmGrid, seed: RngSeed) -> IncrementSeries:
    """Exact draw of the grid increments via the dense Toeplitz Cholesky factor
    (oracle sampler)."""
    if grid.count > CHOLESKY_MAX_COUNT:
        raise SizeError(
            f"sample_cholesky limited to count <= {CHOLESKY_MAX_COUNT}, got {grid.count}"
        )
    fac = _cholesky_factor(grid.step, grid.count, grid.hurst, grid.theta)
    z = seed.generator().standard_normal(grid.count)
    return IncrementSeries(grid=grid, values=fac @ z, method="cholesky")


def partial_sums(incs: IncrementSeries) -> np.ndarray:
    """fBm values B_{k*step}, k = 0..count, reconstructed from increments."""
    out = np.empty(incs.grid.count + 1)
    out[0] = 0.0
    np.cumsum(incs.values, out=out[1:])
    return out
