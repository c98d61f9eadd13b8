"""Simulation of the fractional Ornstein-Uhlenbeck process.

The SDE dX_t = -theta X_t dt + dB_t (fBm driver, H > 1/2) has the explicit
solution X_t = e^(-theta t) (x0 + int_0^t e^(theta s) dB_s).  Observed at
t_i = i delta it obeys, exactly,

    X_{(i+1) delta} = a X_{i delta} + xi_i,    a = e^(-theta delta),
    xi_i = int_{i delta}^{(i+1) delta} e^(-theta ((i+1) delta - s)) dB_s,

and xi_0, xi_1, ... is a stationary Gaussian sequence (Cheridito, Kawaguchi
& Maejima 2003).  By default xi is drawn exactly by circulant embedding on
the observation grid (`FbmGrid(delta, n, H, theta)`) and the recursion runs
at step delta, so the path has the exact law of the fOU process at the
observation times.  The recursion is a blocked prefix scan (Blelloch 1990):
per block of L steps, a^l times the cumulative sum of a^-l xi, then the
carries between blocks by doubling passes; L depends on theta delta and n
only, never on the number of rows.  `simulate_paths` draws the paths of a
block of consecutive Philox streams together, with one batched `irfft` and
one recursion along the rows; `simulate_path` is its one-row case, so a row
of a block equals the single path of its stream bit for bit.

The `increments=` hook keeps the exponential-Euler scheme as a reference:
given fGn on the fine grid of step d = delta/oversample, the recursion
X_{t+d} = e^(-theta d) X_t + dB is aggregated per observation step,

    xi_i ~ sum_{j<M} e^(-theta d (M-1-j)) dB_{i M + j},    M = oversample,

which carries an O(d^H) scheme error that vanishes as M grows.

Drawing a path and `exact_second_moment` need numpy only.
"""

import csv
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, SizeError
from .fbm import FbmGrid, IncrementSeries, RngSeed, sample_rows
from .specialfn import GAMMA_CUTOFF, HEAD_NODES, gamma_body_rule, gauss_jacobi

__all__ = [
    "ModelParams",
    "SamplingScheme",
    "ObservedPath",
    "check_steps",
    "simulate_path",
    "simulate_paths",
    "draw_buffers",
    "exact_second_moment",
    "open_path_csv",
    "write_path_csv",
    "read_path_csv",
]

#: guard on the number of observation steps per path
MAX_STEPS = 2**23

#: bound on theta * delta * L for a block of L recursion steps: its weights
#: a^-l stay below e^64 ~ 6e27, far inside the float range for any increment
#: below 1e280, and a path of n = 8000 at delta = n^-0.6 is one block
_BLOCK_DECAY = 64.0

#: rows per formatted block of `write_path_csv`
_CSV_ROWS = 4096


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
    """Simulate one observed path with the exact law at the observation times:
    the one-row case of `simulate_paths`.

    `increments` is the hook for the exponential-Euler reference scheme: when
    given, it must be an fGn IncrementSeries on the fine grid of the scheme
    (n * oversample increments) and replaces the exact draw.
    """
    n = scheme.n
    check_steps(n)
    if increments is None:
        x, fallback = simulate_paths(params, scheme, seed.seed, seed.stream, 1)
        method = "cholesky" if fallback else "circulant"
    else:
        incs, m = increments, scheme.oversample
        if incs.grid.count != n * m:
            raise DomainError(
                f"injected increments have count {incs.grid.count}, expected {n * m}"
            )
        # xi_i = sum_j a_d^(m-1-j) dB_{i*m+j}, a_d = e^(-theta * fine_step)
        w = np.exp(-params.theta * scheme.fine_step) ** np.arange(m - 1, -1, -1)
        x = _recurse(params, scheme, (incs.values.reshape(n, m) @ w)[None])
        method, fallback = incs.method, incs.fallback
    meta = {"method": method, "fallback": fallback, "seed": seed.seed, "stream": seed.stream}
    return ObservedPath(params=params, scheme=scheme, x=x[0], meta=meta)


def simulate_paths(
    params: ModelParams,
    scheme: SamplingScheme,
    seed: int,
    first_stream: int,
    count: int,
    out=None,
):
    """(x, fallback): row r of x is the exact path of Philox stream
    (seed, first_stream + r), bit for bit the `simulate_path` of that stream;
    `fallback` says whether the Cholesky sampler drew the increments.

    All rows share one batched draw (`fbm.sample_rows`) and one recursion.
    `out`, the arrays of `draw_buffers(params, scheme, count)`, takes the
    draw and the path in place of new arrays; x is then a view of the last
    one, overwritten by the next draw into them.
    """
    check_steps(scheme.n)
    grid = FbmGrid(step=scheme.delta, count=scheme.n, hurst=params.hurst, theta=params.theta)
    draw, path = (None, None) if out is None else (out[:2], out[2])
    xi, fallback = sample_rows(grid, seed, first_stream, count, out=draw)
    return _recurse(params, scheme, xi, out=path), fallback


def draw_buffers(params: ModelParams, scheme: SamplingScheme, count: int):
    """(half, full, path): the complex half-spectrum and the real inverse
    FFT of `fbm.sample_rows` and the padded path array of the recursion, for
    `count` paths of the scheme: the `out` of `simulate_paths`.

    The size guard comes first, so an oversized scheme raises SizeError
    before anything is allocated.
    """
    check_steps(scheme.n)
    n = scheme.n
    points = _block_weights(_decay(params, scheme), n + 1)[1].size
    return (
        np.empty((count, n + 1), dtype=complex),
        np.empty((count, 2 * n)),
        np.empty((count, points)),
    )


def _decay(params, scheme) -> float:
    # np.exp, which can differ from math.exp in the last bit
    return float(np.exp(-params.theta * scheme.delta))


def _recurse(params, scheme, xi, out=None):
    # x[:, i+1] = a x[:, i] + xi[:, i], seeded with x[:, 0] = x0, as a blocked
    # prefix scan: within a block of L steps x_l = a^l (cumsum(a^-l y)_l + carry),
    # the carry being a times the last value of the block before.  `out`, of
    # shape (rows, up.size), takes the padded path in place of a new array.
    rows, n = xi.shape
    a = _decay(params, scheme)
    size, up, down, jumps = _block_weights(a, n + 1)
    x = np.empty((rows, up.size)) if out is None else out
    x[:, 0] = params.x0
    np.multiply(xi, up[1 : n + 1], out=x[:, 1 : n + 1])
    x[:, n + 1 :] = 0.0
    blocks = x.reshape(rows, up.size // size, size)
    np.cumsum(blocks, axis=2, out=blocks)
    if blocks.shape[1] > 1:
        # carry_b = a e_b + a^L carry_{b-1}, e_b the last value of block b
        # from a zero start, by doubling: the pass of span s adds
        # a^(L s) carry_{b-s}, after which carry_b sums 2s blocks
        carry = blocks[:, :-1, -1] * a**size
        for k, jump in enumerate(jumps):
            carry[:, 2**k :] += jump * carry[:, : -(2**k)]
        blocks[:, 1:] += carry[:, :, None]
    x *= down
    return x[:, : n + 1]


@lru_cache(maxsize=16)
def _block_weights(a: float, points: int):
    """(L, up, down, jumps) of the block recursion over `points` values at
    coefficient a.  Blocks are as equal as the padding of the last one
    allows, each of L >= 1 steps with a^L >= e^-_BLOCK_DECAY where possible;
    up and down are a^-l and a^l, l = 0..L-1, tiled over the blocks; jumps
    are a^(L 2^k) for each doubling pass, until 2^k spans the carries or the
    power underflows to 0."""
    rate = -math.log(a) if a > 0.0 else math.inf
    longest = points if rate * points <= _BLOCK_DECAY else max(1, int(_BLOCK_DECAY / rate))
    count = -(-points // longest)
    size = -(-points // count)
    lag = np.arange(size)
    up = np.tile(a**-lag, count)
    down = np.tile(a**lag, count)
    up.setflags(write=False)
    down.setflags(write=False)
    jumps, jump = [], a**size
    while 2 ** len(jumps) < count - 1 and jump > 0.0:
        jumps.append(jump)
        jump *= jump
    return size, up, down, tuple(jumps)


def exact_second_moment(params: ModelParams, t: float) -> float:
    """E[X_t^2] by a fixed product rule, to about 1e-14 relative error.

    With S = theta t,

    E[X_t^2] = x0^2 e^(-2S)
             + H(2H-1) theta^(-2H) int_0^S s^(2H-2) (e^(-s) - e^(s-2S)) ds.

    A Gauss-Jacobi panel takes the s^(2H-2) endpoint singularity exactly on
    [0, min(S, 1)] and Gauss-Legendre covers [1, min(S, 45)], beyond which
    e^(-s) < 3e-20.  The bracket is evaluated as -e^(-s) expm1(-2(S - s)),
    which keeps full precision as S -> 0; up to S = 1 the integral is
    scaled by t^(2H) / S rather than theta^(-2H), so E[X_t^2] tends to
    x0^2 + t^(2H) without overflow.
    """
    if not (t > 0.0 and np.isfinite(t)):
        raise DomainError(f"t must be positive and finite, got {t}")
    th, h, x0 = params.theta, params.hurst, params.x0
    s = th * t

    def bracket(z):
        return -np.exp(-z) * np.expm1(-2.0 * (s - z))

    start = x0**2 * math.exp(-2.0 * s)
    v, w = gauss_jacobi(HEAD_NODES, 2.0 * h - 2.0)
    if s <= 1.0:
        return start + h * (2.0 * h - 1.0) * t ** (2.0 * h) * float(w @ bracket(s * v)) / s
    z, wz = gamma_body_rule(2.0 * h - 2.0, min(s, GAMMA_CUTOFF))
    val = float(w @ bracket(v) + wz @ bracket(z))
    return start + h * (2.0 * h - 1.0) * th ** (-2.0 * h) * val


def open_path_csv(name, mode: str):
    """The path CSV file `name` opened as UTF-8 text for reading ("r") or
    writing ("w"); a directory raises DomainError."""
    try:
        return open(name, mode, newline="", encoding="utf-8")
    except IsADirectoryError as exc:
        raise DomainError(f"path CSV {name!r} is a directory") from exc


def write_path_csv(path: ObservedPath, dest) -> None:
    """Write the observed path as CSV with header `i,t,x`.

    Row i is `%d,%.17g,%.17g` of (i, i * delta, x_i), each line ending in
    `\\n`: 17 significant digits read back to the same float64, so x and
    t_i = i * delta round-trip exactly.  Rows are formatted and written
    _CSV_ROWS at a time, one join and one write per block, so memory stays
    bounded for any n.  A directory as `dest` raises DomainError.
    """
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    fh = open_path_csv(dest, "w") if own else dest
    try:
        fh.write("i,t,x\n")
        delta = path.scheme.delta
        x = path.x
        for lo in range(0, x.size, _CSV_ROWS):
            hi = min(lo + _CSV_ROWS, x.size)
            t = (np.arange(lo, hi) * delta).tolist()  # the IEEE product i * delta
            # joined, not one `%` over a repeated format: that call's growing
            # output left the heap 0.5 MB larger per path written at n = 2^17
            rows = zip(range(lo, hi), t, x[lo:hi].tolist())
            fh.write("".join(map("%d,%.17g,%.17g\n".__mod__, rows)))
    finally:
        if own:
            fh.close()


def read_path_csv(src) -> tuple[np.ndarray, float]:
    """Read a path CSV produced by write_path_csv; returns (x, delta).

    The `i` column must count 0..n and the times must be finite and satisfy
    |t_i - i * delta| <= 1e-9 * max(1, |t_i|) with delta = t_1 - t_0
    positive and finite.
    A directory, text that is not UTF-8 and malformed rows raise DomainError.
    """
    own = isinstance(src, (str, bytes)) or hasattr(src, "__fspath__")
    fh = open_path_csv(src, "r") if own else src
    try:
        header = next(csv.reader([fh.readline()]), None)
        if header != ["i", "t", "x"]:
            raise DomainError(f"expected CSV header i,t,x, got {header}")
        with warnings.catch_warnings():
            # a CSV with no rows fails the length test below, not with a warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except UnicodeDecodeError as exc:
        raise DomainError(f"path CSV is not UTF-8 text: {exc.reason}") from exc
    except DomainError:
        raise
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
    if not np.all(np.isfinite(t)):
        raise DomainError("time column must be finite")
    delta = float(t[1]) - float(t[0])
    if not 0.0 < delta < math.inf:
        raise DomainError("time column must be strictly increasing with a finite step")
    with np.errstate(over="ignore"):  # i * delta overflowing to inf is off the grid
        off_grid = np.abs(t - idx * delta) > 1e-9 * np.maximum(1.0, np.abs(t))
    if off_grid.any():
        raise DomainError("time column is not equidistant: need t_i = i * delta")
    return np.ascontiguousarray(x), delta
