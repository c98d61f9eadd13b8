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

`write_path_csv` writes the bytes of `"%d,%.17g,%.17g\n" %` per row but
computes the digits in numpy: for each value that `%.17g` prints in fixed
notation, 1e-4 <= |v| < 1e17, Dekker's error-free product (1971) gives
|v| 10^(16 - e) exactly, whose rounding to an integer, half to even, is the
17 correctly rounded digits; any other row is formatted by `%` itself.
`read_path_csv` runs that proof in reverse: it reads blocks of whole lines,
takes each field's digits d and point position k from one integer parse,
and keeps d / 10^k where `_mantissa` prints it back as d, which makes it
the correctly rounded value; other fields go to `float`, and blocks in
another form to `np.loadtxt`, so each file reads as `np.loadtxt` reads it.

Drawing a path and `exact_second_moment` need numpy only.
"""

import csv
import io
import itertools
import math
import re
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
#: bytes per read of `read_path_csv`, 160 KB: about 3600 rows of a simulated
#: path.  In a process that simulates at n = 2^17 between reads, as perfbench's
#: `path_roundtrip` does, 180 KB reads let the C heap grow by about 0.5 MB per
#: read; 96, 128, 160, 192 and 256 KB held it within 0.02 MB per read.
_READ_BYTES = 40 * _CSV_ROWS
#: the ",", ",", "\n" that end the fields of a row
_ROW_SEPS = np.array([44, 44, 10], dtype=np.uint8)
#: True for the digit counts 1..17 of an integer below 10^18
_SIGNIFICANT = (np.arange(19) >= 1) & (np.arange(19) <= 17)
#: with "-.e+" deleted, the digits of each field, all fields split by ","
_DIGITS = bytes.maketrans(b"\n", b",")

#: 2^27 + 1, Veltkamp's constant: c = s a splits a into a - (c - (c - a)) and
#: the rest, two halves of 26 bits whose products are exact doubles
_SPLIT = 134217729.0
#: 10^q for q = 0..20 (all exact doubles) and their Veltkamp halves
_POW10 = 10.0 ** np.arange(21)
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
#: 10^q as int64, capped at 10^18, above every 17-digit mantissa
_POW10_INT = 10 ** np.minimum(np.arange(21), 18)
#: the range that `%.17g` prints in fixed notation and `_format_rows` formats
_FIXED_RANGE = (1e-4, 1e17)
#: uint32 words of the CSV rows of one block, as `_format_rows` lays them out:
#: i (2), then t and x (_NUMBER_WORDS each), then the newline
_NUMBER_WORDS = 11
_ROW_WORDS = 2 + 2 * _NUMBER_WORDS + 1


def _ascii_words(chars):
    # rows of 4 ASCII codes (0 for none) as uint32 words, one per row
    return np.ascontiguousarray(chars, dtype=np.uint8).view(np.uint32).ravel()


@lru_cache(maxsize=1)
def _chunk_words():
    """(fraction, integer, units): words of the 4-digit chunks 0000..9999,
    indexed c + 10000 * cut where cut drops, as NULs, the chunk's trailing
    zeros (fraction), its leading zeros (integer) or its leading zeros but
    the units digit (units).  Built on the first CSV write, so an import
    that writes none does not pay for it."""
    d = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    zero = d == 0
    trailing = np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]
    leading = np.logical_and.accumulate(zero, axis=1)
    units = leading.copy()
    units[:, 3] = False
    return tuple(
        _ascii_words(np.concatenate([d + 48, np.where(cut, 0, d + 48)]))
        for cut in (trailing, leading, units)
    )


#: the word before the integer digits, [",", NUL, sign, top digit], indexed
#: 11 * negative + top digit, 10 for none
_HEAD = _ascii_words(
    [[44, 0, 45 * neg, 48 + top if top < 10 else 0] for neg in (0, 1) for top in range(11)]
)
#: the top fraction digit's word, indexed digit + 10 * (fraction is zero)
_FRACTION_TOP = _ascii_words(
    [[0, 0, 0, 0 if zero else 48 + top] for zero in (0, 1) for top in range(10)]
)
#: the point and the zeros after it, [".", "0", "0", "0"] as far as they are
#: printed, indexed e + 4 + 21 * (fraction is nonzero) for exponent e
_POINT = _ascii_words(
    [[46 * (frac or e < 0)] + [48 * (k < -e - 1) for k in range(3)]
     for frac in (0, 1) for e in range(-4, 17)]
)


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
        x = simulate_paths(params, scheme, seed.seed, seed.stream, 1)
    else:
        incs, m = increments, scheme.oversample
        if incs.grid.count != n * m:
            raise DomainError(
                f"injected increments have count {incs.grid.count}, expected {n * m}"
            )
        # xi_i = sum_j a_d^(m-1-j) dB_{i*m+j}, a_d = e^(-theta * fine_step)
        w = np.exp(-params.theta * scheme.fine_step) ** np.arange(m - 1, -1, -1)
        x = _recurse(params, scheme, (incs.values.reshape(n, m) @ w)[None])
    meta = {"seed": seed.seed, "stream": seed.stream}
    return ObservedPath(params=params, scheme=scheme, x=x[0], meta=meta)


def simulate_paths(
    params: ModelParams,
    scheme: SamplingScheme,
    seed: int,
    first_stream: int,
    count: int,
    out=None,
):
    """Row r is the exact path of Philox stream (seed, first_stream + r), bit
    for bit the `simulate_path` of that stream.

    All rows share one batched draw (`fbm.sample_rows`) and one recursion.
    `out`, the arrays of `draw_buffers(params, scheme, count)`, takes the
    draw and the path in place of new arrays; the paths are then a view of
    the last one, overwritten by the next draw into them.
    """
    check_steps(scheme.n)
    grid = FbmGrid(step=scheme.delta, count=scheme.n, hurst=params.hurst, theta=params.theta)
    draw, path = (None, None) if out is None else (out[:2], out[2])
    xi = sample_rows(grid, seed, first_stream, count, out=draw)
    return _recurse(params, scheme, xi, out=path)


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
    """The path CSV file `name` opened for reading as bytes ("rb") or for
    writing as UTF-8 text ("w"); a directory raises DomainError."""
    try:
        if "b" in mode:
            return open(name, mode)
        return open(name, mode, newline="", encoding="utf-8")
    except IsADirectoryError as exc:
        raise DomainError(f"path CSV {name!r} is a directory") from exc


def write_path_csv(path: ObservedPath, dest) -> None:
    """Write the observed path as CSV with header `i,t,x`.

    Row i is the text of `"%d,%.17g,%.17g\\n" % (i, i * delta, x_i)`: 17
    significant digits read back to the same float64, so x and
    t_i = i * delta round-trip exactly.  The digits of t_i and x_i are
    computed in numpy (`_format_rows`) wherever `%.17g` prints them in
    fixed notation, 1e-4 <= |v| < 1e17; a row with another value (0, NaN,
    +-inf, a subnormal or any |v| outside that range) is formatted by `%`
    itself, in its place.  Rows are formatted and written _CSV_ROWS at a
    time, one write per block, so memory stays bounded for any n.  A
    directory as `dest` raises DomainError.
    """
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    fh = open_path_csv(dest, "w") if own else dest
    try:
        fh.write("i,t,x\n")
        delta = path.scheme.delta
        x = path.x
        for lo in range(0, x.size, _CSV_ROWS):
            hi = min(lo + _CSV_ROWS, x.size)
            # the IEEE product i * delta
            fh.write(_format_rows(lo, np.arange(lo, hi) * delta, x[lo:hi]))
    finally:
        if own:
            fh.close()


def _format_rows(first: int, t: np.ndarray, x: np.ndarray) -> str:
    """The text of `"%d,%.17g,%.17g\\n" % (i, t_k, x_k)` for each k, i = first + k.

    Each row is laid out as NUL-padded uint32 words (`_row_words`), and the
    NULs are dropped from the words of each run of rows the layout covers;
    the rows between these runs are formatted by `%`.
    """
    count = t.size
    v = np.stack([t, x])
    a = np.abs(v)
    good = (a >= _FIXED_RANGE[0]) & (a < _FIXED_RANGE[1])  # False for NaN
    np.copyto(a, 1.0, where=~good)  # no log10 or integer cast sees the others
    words, exact = _row_words(first, v, a)
    good &= exact
    good = good[0] & good[1]
    cuts = [0, *(np.flatnonzero(np.diff(good)) + 1).tolist(), count]
    parts = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if good[lo]:
            parts.append(words[:, lo:hi].T.tobytes().translate(None, b"\0").decode("ascii"))
        else:
            rows = zip(range(first + lo, first + hi), t[lo:hi].tolist(), x[lo:hi].tolist())
            parts.append("".join(map("%d,%.17g,%.17g\n".__mod__, rows)))
    return "".join(parts)


def _row_words(first: int, v: np.ndarray, a: np.ndarray):
    """(words, exact): the CSV rows of (i, v[0, k], v[1, k]), i = first + k,
    as the columns of a (_ROW_WORDS, k) uint32 array of NUL-padded ASCII;
    a = |v| within _FIXED_RANGE.  exact, of v's shape, is False where the
    17 digits could not be placed (i >= 10^8 or a decimal exponent that two
    estimates missed); such rows must be formatted otherwise.

    A number is laid out as [",", NUL, sign, top digit] and four chunks of
    the integer part, leading zeros dropped, then the point with the zeros
    that follow it below 0.1, then the top digit and four chunks of the
    fraction, trailing zeros dropped.
    """
    fraction, integer, units = _chunk_words()
    count = v.shape[1]
    words = np.empty((_ROW_WORDS, count), dtype=np.uint32)
    i = np.arange(first, first + count)
    high, low = np.divmod(i, 10000)
    words[0] = integer.take(np.minimum(high, 9999) + 10000)  # i < 10^8 is exact
    words[1] = units.take(low + 10000 * (high == 0))
    words[-1] = 10  # "\n"
    e, d = _decimal(a.ravel())
    exact = ((d >= 10**16) & (d < 10**17)).reshape(v.shape) & (i < 10**8)
    scale = _POW10_INT.take(16 - e)
    whole = d // scale
    frac = (d - whole * scale) * _POW10_INT.take(np.maximum(e + 1, 0))
    numbers = words[2:-1].reshape(2, _NUMBER_WORDS, count)

    def put(k, values):
        numbers[:, k] = values.reshape(2, count)

    top, *chunks = _chunks(whole)
    lead = top == 0
    put(0, _HEAD.take(11 * (v.ravel() < 0) + np.where(lead, 10, top)))
    for k, chunk in enumerate(chunks[:3], 1):
        put(k, integer.take(chunk + 10000 * lead))
        lead &= chunk == 0
    put(4, units.take(chunks[3] + 10000 * lead))
    top, *chunks = _chunks(frac)
    zero = np.ones(d.size, dtype=bool)
    for k, chunk in zip(range(10, 6, -1), chunks[::-1]):
        put(k, fraction.take(chunk + 10000 * zero))
        zero &= chunk == 0
    zero &= top == 0
    put(6, _FRACTION_TOP.take(top + 10 * zero))
    put(5, _POINT.take(e + 4 + 21 * ~zero))
    return words, exact


def _chunks(v: np.ndarray):
    """The digits of int64 v < 10^17, 17 with leading zeros, as uint32 arrays:
    the top digit and four 4-digit chunks, most significant first."""
    high = v // 10**8
    low = (v - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    top = high // 10**8
    high -= top * 10**8
    mid, low_mid = high // 10000, low // 10000
    return top, mid, high - mid * 10000, low_mid, low - low_mid * 10000


def _decimal(a: np.ndarray):
    """(e, d): the decimal exponent e in [-4, 16] and the 17 significant
    digits d, as int64 in [10^16, 10^17), of each a in _FIXED_RANGE, so that
    a = d 10^(e - 16) rounded half to even, as `%.17g` rounds.

    e starts from log10 and is corrected once where d leaves its range; a d
    still outside it marks a value this does not place.
    """
    e = np.floor(np.log10(a)).astype(np.intp)
    np.clip(e, -4, 16, out=e)
    d = _mantissa(a, e)
    off = (d >= 10**17).astype(np.intp) - (d < 10**16)
    if off.any():
        fix = np.flatnonzero(off)
        e[fix] = np.clip(e[fix] + off[fix], -4, 16)
        d[fix] = _mantissa(a[fix], e[fix])
    return e, d


def _mantissa(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a 10^(16 - e) rounded to an integer, half to even, as int64.

    Dekker's TwoProduct (1971) gives the product exactly as hi + lo, both
    doubles; where the result is at least 2^53, hi is an integer, and the
    result is hi plus lo rounded.
    """
    q = 16 - e
    scale, scale_hi, scale_lo = _POW10.take(q), _POW10_HI.take(q), _POW10_LO.take(q)
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    hi = a * scale
    lo = ((a_hi * scale_hi - hi) + a_hi * scale_lo + a_lo * scale_hi) + a_lo * scale_lo
    floor = np.floor(lo)
    rest = lo - floor
    d = hi.astype(np.int64)
    d += floor.astype(np.int64)
    d += (rest > 0.5) | ((rest == 0.5) & (d % 2 == 1))
    return d


def read_path_csv(src) -> tuple[np.ndarray, float]:
    """Read a path CSV produced by write_path_csv; returns (x, delta).

    `src` is a file name or a file object, text or binary.  The rows are
    read in blocks of whole lines, about _READ_BYTES at a time, so memory
    beyond x stays bounded for any n.  A block of rows in the form the
    writer prints, "i,t,x" with i in digits and t and x in fixed or
    exponent notation, is parsed by `_parse_rows`; any other block (spaces,
    CR, "inf", "nan", "1E5", a point, sign or exponent in the i column,
    bytes outside ASCII ...) by `np.loadtxt` on its UTF-8 text.  Either
    way x holds the floats of one `np.loadtxt` over the whole file, and a
    file is rejected where that `np.loadtxt` rejects it.

    The `i` column must count 0..n and the times must be finite and satisfy
    |t_i - i * delta| <= 1e-9 * max(1, |t_i|) with delta = t_1 - t_0
    positive and finite.
    A directory, text that is not UTF-8 and malformed rows raise DomainError;
    a malformed row is named by its place among the rows of the file,
    counted from 0 as `np.loadtxt` counts them.
    """
    own = isinstance(src, (str, bytes)) or hasattr(src, "__fspath__")
    fh = open_path_csv(src, "rb") if own else src
    try:
        blocks = _line_blocks(fh)
        block = next(blocks, b"")
        head = _line_length(block)
        header = next(csv.reader([_utf8(block[:head])]), None)
        if header != ["i", "t", "x"]:
            raise DomainError(f"expected CSV header i,t,x, got {header}")
        xs, ts, count, delta = [], [], 0, None
        for block in itertools.chain([block[head:]], blocks):
            idx, t, x = _parse_rows(block, count) or _loadtxt_rows(block, count)
            if not np.array_equal(idx, np.arange(count, count + idx.size)):
                raise DomainError("column i must count 0, 1, ..., n")
            if not np.all(np.isfinite(t)):
                raise DomainError("time column must be finite")
            # the times wait for their grid check until t_0 and t_1 are known
            ts.append((count, t))
            xs.append(x)
            count += x.size
            if count < 2:
                continue
            if delta is None:
                t0, t1 = np.concatenate([times for _, times in ts])[:2].tolist()
                delta = t1 - t0
                if not 0.0 < delta < math.inf:
                    raise DomainError(
                        "time column must be strictly increasing with a finite step"
                    )
            for lo, times in ts:
                _check_grid(times, lo, delta)
            ts.clear()
    finally:
        if own:
            fh.close()
    if count < 3:
        raise DomainError("path CSV must contain at least 3 observations")
    return np.concatenate(xs), delta


def _check_grid(t: np.ndarray, first: int, delta: float) -> None:
    # t_k against (first + k) * delta, the IEEE product
    with np.errstate(over="ignore"):  # i * delta overflowing to inf is off the grid
        grid = np.arange(first, first + t.size) * delta
        off_grid = np.abs(t - grid) > 1e-9 * np.maximum(1.0, np.abs(t))
    if off_grid.any():
        raise DomainError("time column is not equidistant: need t_i = i * delta")


def _utf8(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"path CSV is not UTF-8 text: {exc.reason}") from exc


def _line_blocks(fh):
    """The bytes of fh in blocks of whole lines, each cut after the last
    newline of about _READ_BYTES read; a last line without a newline gets
    one.  Text read from a text file object is encoded as UTF-8."""
    carry = b""
    while chunk := fh.read(_READ_BYTES):
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8", "surrogatepass")
        chunk = carry + chunk
        cut = chunk.rfind(b"\n") + 1
        carry, chunk = chunk[cut:], chunk[:cut]
        if chunk:
            yield chunk
    if carry:
        yield carry + b"\n"


def _line_length(block: bytes) -> int:
    # the length of the first line with its end, as text files opened with
    # newline="" read it: "\n", "\r\n" or a lone "\r"
    lf, cr = block.find(b"\n"), block.find(b"\r")
    if cr >= 0 and (lf < 0 or cr < lf - 1):
        return cr + 1
    return lf + 1


def _loadtxt_rows(block: bytes, first: int):
    """(i, t, x) of the rows of `block` by np.loadtxt on its UTF-8 text; the
    row numbers in its errors are counted from row `first` of the file."""
    text = io.StringIO(_utf8(block), newline="")
    with warnings.catch_warnings():
        # a block of blank lines holds no rows, which is no error
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            rows = np.loadtxt(text, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            shifted = re.sub(r"at row (\d+)", lambda m: f"at row {int(m[1]) + first}", str(exc))
            raise DomainError(f"malformed path CSV: {shifted}") from exc
    if rows.size == 0:
        return (np.empty(0),) * 3
    if rows.shape[1] != 3:
        raise DomainError(f"path CSV rows must have 3 columns, got {rows.shape[1]}")
    return rows[:, 0], rows[:, 1], rows[:, 2].copy()


def _parse_rows(block: bytes, first: int):
    """(i, t, x) of the rows of `block`, whole lines "i,t,x" with i in
    digits only, or None for a block this does not parse.  Row `first` of
    the file is the block's first.

    A t or x field of the form -?D+(.D+)? takes d / 10^k where `_proved`
    shows that to be its correctly rounded value; every other one is
    converted by `float`, as `np.loadtxt` converts it.
    """
    if not block:
        return (np.empty(0),) * 3
    fields = _fields(block)
    if fields is None:
        return None
    idx, d, k, neg, plain, start, end = fields
    y, proved = _proved(d, k, plain)
    np.negative(y, out=y, where=neg)
    other = np.flatnonzero(~proved)
    if other.size:
        y[other] = _float_fields(block, start[other], end[other], first + other // 2, other % 2 + 2)
    return idx, y[::2], y[1::2].copy()


def _fields(block: bytes):
    """(i, d, k, neg, plain, start, end) of the rows of a nonempty `block`
    in the form of `_parse_rows`, or None: the values of the i column, and
    of each t and x field, t_0, x_0, t_1, ..., its digits as an integer d,
    the number k of them after the point, its sign, whether it has the
    form -?D+(.D+)? and where it starts and ends in the block.

    One scan finds every byte that is not a digit; the digits of every
    field, with "-.e+" deleted, come from one int64 `np.fromstring`, which
    fails on any field it cannot read as an integer.  A block with more
    "e"s than half its rows, mostly numbers in exponent form, which no
    proof here covers, is left to `np.loadtxt`: its conversion costs less
    than a `float` call per field.
    """
    b = np.frombuffer(block, dtype=np.uint8)
    if b"e" in block and 2 * np.count_nonzero(b == 101) > np.count_nonzero(b == 10):
        return None
    pos = np.flatnonzero((b - 48) > 9)  # uint8 arithmetic wraps bytes below "0"
    code = b[pos]
    at = np.flatnonzero((code == 44) | (code == 10))  # the end of each field
    rows = at.size // 3
    if at.size % 3 or not (code[at].reshape(rows, 3) == _ROW_SEPS).all():
        return None
    marks = (np.diff(at, prepend=-1) - 1).reshape(rows, 3)  # non-digits per field
    if marks[:, 0].any():  # i in digits only
        return None
    try:
        d = np.fromstring(block.translate(_DIGITS, b"-.e+"), dtype=np.int64, sep=",")
    except ValueError:  # a field without digits
        return None
    if d.size != at.size:
        return None
    # from here on the t and x fields only, t_0, x_0, t_1, ...
    d = d.reshape(rows, 3)
    idx, d = d[:, 0].copy(), d[:, 1:].ravel()
    ends = pos[at].reshape(rows, 3)
    start, end = (ends[:, :2] + 1).ravel(), ends[:, 1:].ravel()
    marks = marks[:, 1:].ravel()
    last = at.reshape(rows, 3)[:, 1:].ravel() - 1  # the last non-digit before the end, if any
    neg = b[start] == 45
    point = code[last] == 46
    k = np.where(point, end - pos[last] - 1, 0)
    # a leading "-" and one point at most, the digits of d on either side
    plain = (marks == neg) | ((marks == neg + 1) & point)
    return idx, d, k, neg, plain, start, end


def _proved(d: np.ndarray, k: np.ndarray, plain: np.ndarray):
    """(y, proved): y = d 10^-k as float64, and proved where y is the
    correctly rounded value of the decimal d 10^-k.

    Where d has 1 to 17 digits and the decimal exponent e lies in [-4, 16],
    the candidate d / 10^k is proved when its 17 digits by `_mantissa`,
    rounded half to even, are d padded to 17 digits: the decimal then lies
    within half a 17th-digit step of it, at most 5e-17 of the decimal, and
    every other double lies more than 2^-54 ~ 5.55e-17 of it away, so none
    is as close.  A candidate that misses is moved one ulp towards the
    decimal and tried once more.  Elsewhere y is a placeholder.
    """
    digits = np.searchsorted(_POW10_INT[:18], d, side="right")  # 0 to 18
    want = d * _POW10_INT.take(17 - digits)
    good = plain & _SIGNIFICANT.take(digits)
    e = np.subtract(digits, k + 1, out=digits)
    good &= e >= -4
    e *= good  # placeholders no power lookup or cast trips on
    y = np.where(good, d / _POW10.take(k, mode="clip"), 1.0)
    got = _mantissa(y, e)
    proved = good & (got == want)
    miss = np.flatnonzero(good ^ proved)
    if miss.size:
        want = want[miss]
        near = np.nextafter(y[miss], np.where(got[miss] < want, np.inf, 0.0))
        hit = _mantissa(near, e[miss]) == want
        y[miss[hit]] = near[hit]
        proved[miss[hit]] = True
    return y, proved


def _float_fields(block: bytes, start, end, row, col) -> list:
    """`float` of the fields block[start:end]; a field it cannot convert
    raises DomainError naming its row and column."""
    text = list(map(block.__getitem__, map(slice, start.tolist(), end.tolist())))
    try:
        return list(map(float, text))
    except ValueError:
        for value, r, c in zip(text, row.tolist(), col.tolist()):
            try:
                float(value)
            except ValueError as exc:
                raise DomainError(
                    f"malformed path CSV: could not convert string {value.decode()!r} "
                    f"to float64 at row {r}, column {c}."
                ) from exc
        raise
