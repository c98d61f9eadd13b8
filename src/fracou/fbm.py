"""Exact sampling of stationary Gaussian increment sequences on a uniform grid.

A grid of spacing d with decay rate theta carries the increments

    xi_i = int_{i d}^{(i+1) d} e^(-theta ((i+1) d - s)) dB_s,    i = 0..count-1,

of a fractional Brownian motion B.  At theta = 0 these are fractional
Gaussian noise (fGn) with a closed-form autocovariance.  At theta > 0 they
are the exponentially weighted increments that drive the fractional
Ornstein-Uhlenbeck process exactly from one observation to the next; the
sequence is again stationary and its autocovariance is a one-dimensional
integral (Cheridito, Kawaguchi & Maejima 2003), evaluated by Gauss-Legendre
quadrature, with series for the endpoint singularities of lags 0 and 1, in
numpy alone.

The sampler is circulant embedding (Davies-Harte) of the Toeplitz
autocovariance, exact in distribution: each draw scales the m+1 distinct
Fourier coefficients by amplitudes cached per grid and runs one real inverse
FFT of length 2m.
The embedding of fGn is nonnegative definite: by Dietrich & Newsam (1997)
for H > 1/2, whose autocovariance is convex and decreasing, and by Craigmile
(2003) for H <= 1/2, whose correlations are negative; tests find the weighted
sequences' embeddings strictly positive for theta * step from 1e-8 to 1e4.
Round-off eigenvalues below zero are clamped, and an embedding with an
eigenvalue below -NEG_EIG_RTOL * max raises DomainError.  A dense Cholesky
sampler serves as the slow oracle.

Randomness comes from numpy's counter-based Philox generator keyed by
(seed, stream): distinct streams are independent, and a fixed
(seed, stream, grid) triple reproduces the same draw bit for bit.
Gaussians are produced by `Generator.standard_normal` (ziggurat).  A block
of consecutive streams (`sample_rows`) reuses one generator and re-keys it
per row through its state, which gives the bits of a fresh generator
(Salmon et al. 2011: a counter-based stream is a function of key and counter).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SizeError
from .specialfn import power_second_difference

__all__ = [
    "FbmGrid",
    "RngSeed",
    "IncrementSeries",
    "increment_autocov",
    "sample_circulant",
    "sample_rows",
    "sample_cholesky",
    "partial_sums",
]

#: relative tolerance on negative embedding eigenvalues before an embedding is rejected
NEG_EIG_RTOL = 1e-9

#: O(m^2) memory guard for the dense Cholesky sampler
CHOLESKY_MAX_COUNT = 4096

#: theta * step up to which the singular lag-0 and lag-1 terms are summed as series
_SERIES_MAX_C = 100.0

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
        """A fresh generator of this stream; `sample_rows` draws the same normals."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))


@dataclass
class IncrementSeries:
    """A draw of grid increments together with sampler provenance."""

    grid: FbmGrid
    values: np.ndarray
    method: str = "circulant"
    #: no sampler sets it; perfbench's traced replays still read `incs.fallback`
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
        rho = 0.5 * power_second_difference(k, h2) * grid.step**h2
    return float(rho) if np.isscalar(lag) else rho


def _weighted_autocov(step, hurst, theta, k):
    # Fold the symmetric integral onto s in [0, 1]:
    #   I(k) = int_0^1 ((k+s)^p + |k-s|^p) w(s) ds,  p = 2H-2,
    #   w(s) = e^(-c s) - e^(-c(2-s)) = -e^(-c s) expm1(-2c(1-s)),
    # where expm1 keeps w accurate as c -> 0.  Away from k - s = 0 the
    # integrand is smooth: 16-point Gauss-Legendre on each panel of width
    # <= 12.5/c over [0, min(1, 45/c)] (beyond that w < e^-45 w(0)), i.e. one
    # panel on [0, 1] for c <= 12.5.  The s^p term of lag 0 and the (1-s)^p
    # term of lag 1 are integrable endpoint singularities, summed as series
    # up to c = 100; beyond it lag 0 is a gamma function and lag 1 needs no
    # special term.
    c = theta * step
    p = 2.0 * hurst - 2.0

    def weight(s):
        return -np.exp(-c * s) * np.expm1(-2.0 * c * (1.0 - s))

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
        # int_0^1 s^p e^(-c s) ds = c^(-p-1) (Gamma(p+1) - Gamma(p+1, c)); for
        # c > 100 the upper gamma and the e^(-c(2-s)) part are below e^-100 of it
        if c > _SERIES_MAX_C:
            lag0 = c ** (-p - 1.0) * math.gamma(p + 1.0)
        else:
            lag0 = _singular_moment(c, p, 0)
        plus[k == 0.0] = minus[k == 0.0] = lag0
    if np.any(k == 1.0) and c <= _SERIES_MAX_C:
        # for larger c the panels end at 45/c < 1, short of the (1-s)^p singularity
        minus[k == 1.0] = _singular_moment(c, p, 1)
    return hurst * (2.0 * hurst - 1.0) * step ** (2.0 * hurst - 1.0) / (2.0 * theta) * (
        plus + minus
    )


def _singular_moment(c: float, p: float, lag: int) -> float:
    """int_0^1 s^p w(s) ds at lag 0 and int_0^1 (1-s)^p w(s) ds at lag 1.

    With w(s) = 2 e^(-c) sinh(c(1-s)), the sinh series integrates term by
    term into sums of positive terms, which lose no digits to cancellation:
        lag 0: 2 e^(-c) sum_{j odd} c^j Gamma(p+1) / Gamma(p+j+2),
        lag 1: 2 e^(-c) sum_{j odd} c^j / (j! (p+j+1)).
    The terms peak near j = c and are summed until they fall below 1e-17 of
    the sum: about 10 terms at c = 1 and 100 at c = 100.
    """
    term = c / ((p + 1.0) * (p + 2.0)) if lag == 0 else c / (p + 2.0)
    total, j = 0.0, 1
    while term > 1e-17 * total:
        total += term
        if lag == 0:
            term *= c * c / ((p + j + 2.0) * (p + j + 3.0))
        else:
            term *= c * c * (p + j + 1.0) / ((j + 1.0) * (j + 2.0) * (p + j + 3.0))
        j += 2
    return 2.0 * math.exp(-c) * total


@lru_cache(maxsize=16)
def _embedding_spectrum(step: float, count: int, hurst: float, theta: float = 0.0):
    """Draw amplitudes sqrt(m * eig_k), k = 0..m, of the length-2m circulant
    embedding (times sqrt(2) at k = 0 and m); DomainError if it is indefinite."""
    grid = FbmGrid(step, count, hurst, theta)
    m = count
    rho = increment_autocov(grid, np.arange(m + 1))
    eig = np.fft.rfft(np.concatenate([rho, rho[m - 1 : 0 : -1]])).real
    if eig.min() < -NEG_EIG_RTOL * eig.max():
        raise DomainError(
            f"circulant embedding of {grid} is indefinite: "
            f"eigenvalue {eig.min():.3g} against {eig.max():.3g}"
        )
    amp = np.sqrt(m * np.clip(eig, 0.0, None))
    amp[[0, m]] *= np.sqrt(2.0)
    amp.setflags(write=False)
    return amp


@lru_cache(maxsize=4)
def _cholesky_factor(step: float, count: int, hurst: float, theta: float):
    grid = FbmGrid(step, count, hurst, theta)
    lags = np.arange(count)
    cov = increment_autocov(grid, lags)[np.abs(lags[:, None] - lags)]  # Toeplitz
    try:
        fac = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"increment covariance not positive definite: {exc}") from exc
    fac.setflags(write=False)
    return fac


def sample_circulant(grid: FbmGrid, seed: RngSeed) -> IncrementSeries:
    """Exact draw of the grid increments via circulant embedding and one real
    inverse FFT: the one-row case of `sample_rows`."""
    return IncrementSeries(grid=grid, values=sample_rows(grid, seed.seed, seed.stream, 1)[0])


def sample_rows(grid: FbmGrid, seed: int, first_stream: int, count: int, out=None):
    """Row r is the draw of Philox stream (seed, first_stream + r); an
    indefinite embedding raises DomainError.

    The rows share one batched `irfft`, which computes each row as a single
    draw would, so every row equals its own `sample_circulant` bit for bit.
    `out`, a pair of a complex (count, m + 1) and a float (count, 2m) array,
    m = grid.count, takes the half-spectrum and the inverse FFT in place of
    new arrays; the rows are then a view of the second one.
    """
    m = grid.count
    amp = _embedding_spectrum(grid.step, m, grid.hurst, grid.theta)
    half, full = (np.empty((count, m + 1), dtype=complex), None) if out is None else out
    # normals fill [re_0, re_m, re_1, im_1, ..., im_{m-1}]; the conjugate makes
    # this the 2m-point FFT of the Hermitian vector; irfft drops im_0 and im_m
    _stream_normals(seed, first_stream, half.view(float)[:, : 2 * m])
    half[:, m] = half[:, 0].imag
    np.conjugate(half, out=half)
    half *= amp
    return np.fft.irfft(half, n=2 * m, axis=1, out=full)[:, :m]


def sample_cholesky(grid: FbmGrid, seed: RngSeed) -> IncrementSeries:
    """Exact draw of the grid increments via the dense Toeplitz Cholesky factor
    (oracle sampler)."""
    values = _cholesky_rows(grid, seed.seed, seed.stream, 1)[0]
    return IncrementSeries(grid=grid, values=values, method="cholesky")


def _cholesky_rows(grid, seed, first_stream, count):
    if grid.count > CHOLESKY_MAX_COUNT:
        raise SizeError(
            f"sample_cholesky limited to count <= {CHOLESKY_MAX_COUNT}, got {grid.count}"
        )
    fac = _cholesky_factor(grid.step, grid.count, grid.hurst, grid.theta)
    z = np.empty((count, grid.count))
    _stream_normals(seed, first_stream, z)
    for row in z:  # one product per row keeps the bits of a single draw
        row[:] = fac @ row
    return z


def _stream_normals(seed: int, first_stream: int, rows) -> None:
    """Fill each row r of `rows` with the standard normals of Philox stream
    (seed, first_stream + r), as `RngSeed(seed, first_stream + r).generator()`
    draws them; one generator serves all rows, re-keyed per row after the first."""
    bits = np.random.Philox(key=[seed, first_stream])
    rng = np.random.Generator(bits)
    for r, row in enumerate(rows):
        if r:
            _rekey(bits, seed, first_stream + r)
        rng.standard_normal(out=row)


#: counter and buffer of a freshly keyed Philox generator
_ZEROS = np.zeros(4, dtype=np.uint64)
_ZEROS.setflags(write=False)


def _rekey(bits: np.random.Philox, seed: int, stream: int) -> None:
    """Put `bits` in the state `Philox(key=[seed, stream])` starts in: that
    key, a zero counter and an empty buffer, with no spare 32-bit half.
    Whatever `bits` drew before does not matter, and it is about 5x cheaper
    than constructing a generator."""
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": np.array([seed, stream], dtype=np.uint64)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def partial_sums(incs: IncrementSeries) -> np.ndarray:
    """fBm values B_{k*step}, k = 0..count, reconstructed from increments."""
    out = np.empty(incs.grid.count + 1)
    out[0] = 0.0
    np.cumsum(incs.values, out=out[1:])
    return out
