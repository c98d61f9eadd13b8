"""Exact sampling of fractional Gaussian noise on a uniform grid.

The default sampler is circulant embedding (Davies-Harte) of the Toeplitz
increment autocovariance, exact in distribution: each draw scales the m+1
distinct Fourier coefficients by amplitudes cached per grid and runs one
real inverse FFT of length 2m.
A dense Cholesky sampler serves as the slow oracle and as the fallback when
the embedding is not nonnegative definite (which does not happen for
H in (1/2, 1) at the sizes this package uses, but is guarded anyway).

Randomness comes from numpy's counter-based Philox generator keyed by
(seed, stream): distinct streams are independent, and a fixed
(seed, stream, grid) triple reproduces the same draw bit for bit.
Gaussians are produced by `Generator.standard_normal` (ziggurat).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
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


@dataclass
class FbmGrid:
    """Uniform grid of fGn increments: spacing `step`, `count` increments."""

    step: float
    count: int
    hurst: float

    def __post_init__(self):
        if not (self.step > 0.0 and np.isfinite(self.step)):
            raise DomainError(f"step must be positive and finite, got {self.step}")
        if self.count < 1:
            raise DomainError(f"count must be >= 1, got {self.count}")
        if not (0.0 < self.hurst < 1.0):
            raise DomainError(f"hurst must lie in (0, 1), got {self.hurst}")


@dataclass
class RngSeed:
    """(seed, stream) pair; distinct pairs give independent Philox streams."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))


@dataclass
class IncrementSeries:
    """A draw of fGn increments together with sampler provenance."""

    grid: FbmGrid
    values: np.ndarray
    method: str = "circulant"
    fallback: bool = False


def increment_autocov(grid: FbmGrid, lag) -> float:
    """Autocovariance rho(k) of fGn increments at integer lag(s) k >= 0.

    rho(k) = step^(2H) * ((k+1)^(2H) - 2 k^(2H) + (k-1)^(2H)) / 2,
    which follows from the fBm covariance (t^(2H)+s^(2H)-|t-s|^(2H))/2
    and stationarity of increments.
    """
    k = np.asarray(lag, dtype=float)
    if np.any(k < 0):
        raise DomainError("lag must be nonnegative")
    h2 = 2.0 * grid.hurst
    rho = 0.5 * (np.abs(k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)
    rho = rho * grid.step**h2
    return float(rho) if np.isscalar(lag) else rho


@lru_cache(maxsize=16)
def _embedding_spectrum(step: float, count: int, hurst: float):
    """Draw amplitudes sqrt(m * eig_k), k = 0..m, of the length-2m circulant
    embedding (times sqrt(2) at k = 0 and m); None if it is indefinite."""
    grid = FbmGrid(step, count, hurst)
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
def _cholesky_factor(step: float, count: int, hurst: float):
    grid = FbmGrid(step, count, hurst)
    cov = scipy.linalg.toeplitz(increment_autocov(grid, np.arange(count)))
    try:
        fac = scipy.linalg.cholesky(cov, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise DomainError(f"increment covariance not positive definite: {exc}") from exc
    fac.setflags(write=False)
    return fac


def sample_circulant(grid: FbmGrid, seed: RngSeed) -> IncrementSeries:
    """Exact fGn draw via circulant embedding and one real inverse FFT.

    Falls back to the Cholesky sampler (flagged in the result) if the
    embedding has an eigenvalue below -NEG_EIG_RTOL * max; smaller negative
    eigenvalues are clamped to zero.
    """
    amp = _embedding_spectrum(grid.step, grid.count, grid.hurst)
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
    """Exact fGn draw via the dense Toeplitz Cholesky factor (oracle sampler)."""
    if grid.count > CHOLESKY_MAX_COUNT:
        raise SizeError(
            f"sample_cholesky limited to count <= {CHOLESKY_MAX_COUNT}, got {grid.count}"
        )
    fac = _cholesky_factor(grid.step, grid.count, grid.hurst)
    z = seed.generator().standard_normal(grid.count)
    return IncrementSeries(grid=grid, values=fac @ z, method="cholesky")


def partial_sums(incs: IncrementSeries) -> np.ndarray:
    """fBm values B_{k*step}, k = 0..count, reconstructed from increments."""
    out = np.empty(incs.grid.count + 1)
    out[0] = 0.0
    np.cumsum(incs.values, out=out[1:])
    return out
