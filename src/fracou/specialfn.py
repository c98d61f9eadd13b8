"""Scalar special functions used by the closed-form constants and kernels.

Validated numpy and `math` implementations, with no scipy: Gamma from
`math.gamma`, Phi from `math.erfc`, the lower incomplete gamma by its power
series and continued fraction.  Everything is evaluated in float64; all
functions accept scalars or numpy arrays and broadcast.  A 0-d argument (a
Python or numpy scalar, or a 0-d array) is converted to a Python float and
checked with plain float comparisons, and the result is a Python float: the
theory constants call these functions with scalars, where numpy's per-call
overhead would cost far more than the arithmetic.  Arrays are checked by one
vectorised comparison.  Both raise the same DomainError.  The Gauss rules
for the quadrature cross-checks are numpy only as well.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "gamma",
    "lower_incomplete_gamma",
    "std_normal_cdf",
    "power_second_difference",
    "gauss_jacobi",
    "gamma_body_rule",
]

#: the incomplete gamma series stops at a term below this share of its sum,
#: and the continued fraction at a step this close to 1 (the float64 epsilon)
_SERIES_TOL = 1e-17
_FRACTION_TOL = 2.0**-52

#: floor on the Lentz denominators, which keeps them from dividing by zero
_TINY = 1e-300

_SQRT_HALF = math.sqrt(0.5)

#: lags from which `power_second_difference` sums its binomial series
_SERIES_MIN_LAG = 6.0

#: series terms kept: they fall faster than 6^(-2j), so the first term left
#: out is below 36^-12 < 1e-18 of the sum
_SERIES_TERMS = 12

#: nodes of the Gauss-Jacobi head panel on [0, 1] and of the Gauss-Legendre
#: body panel on [1, s] in the fixed rules for int_0^s z^q e^(-z) (smooth) dz
HEAD_NODES = 24
BODY_NODES = 64

#: end of those rules: beyond z = 45, e^(-z) < 3e-20, so for q in (-1, 0)
#: the rest of int_0^inf z^q e^(-z) dz is below 3e-20 of its total Gamma(q+1)
GAMMA_CUTOFF = 45.0


def gamma(x):
    """Euler gamma function for positive real arguments (`math.gamma` per element).

    Raises DomainError for non-positive or non-finite input.
    """
    x = _checked(x, _positive, "gamma requires finite x > 0, got {!r}")
    return _per_element(math.gamma, x)


def lower_incomplete_gamma(a, x):
    """Unregularized lower incomplete gamma gamma(a, x) = int_0^x t^(a-1) e^(-t) dt.

    Below x = a + 1 the power series
    gamma(a, x) = x^a e^(-x) sum_{j>=0} x^j / (a (a+1) ... (a+j)),
    above it Gamma(a) minus Legendre's continued fraction for the upper
    gamma(a, x), evaluated by the modified Lentz method (Press et al.,
    Numerical Recipes, 3rd ed., section 6.2).  Both sum positive terms or
    converge in a few dozen steps: 1e-15 relative to an mpmath reference
    for a in (0, 1.5] and x in [1e-12, 1e4].
    """
    return _per_element(
        _lower_gamma,
        _checked(a, _positive, "lower_incomplete_gamma requires a > 0, got a={!r}"),
        _checked(x, _nonnegative, "lower_incomplete_gamma requires x >= 0, got x={!r}"),
    )


def _lower_gamma(a: float, x: float) -> float:
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        term = total = 1.0 / a
        ap = a
        while term > _SERIES_TOL * total:
            ap += 1.0
            term *= x / ap
            total += term
        return total * x**a * math.exp(-x)
    # upper gamma(a, x) = x^a e^(-x) / (x + 1 - a - 1 (1 - a) / (x + 3 - a - ...))
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    frac = d
    for i in itertools.count(1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        step = d * c
        frac *= step
        if abs(step - 1.0) <= _FRACTION_TOL:
            break
    return math.gamma(a) - math.exp(a * math.log(x) - x) * frac


def std_normal_cdf(z):
    """Standard normal CDF Phi(z) = erfc(-z / sqrt 2) / 2 (`math.erfc` per element).

    Raises DomainError on non-finite input (NaN would otherwise propagate
    silently into Kolmogorov distances).
    """
    z = _checked(z, _finite, "std_normal_cdf requires finite z, got {!r}")
    return 0.5 * _per_element(math.erfc, z * -_SQRT_HALF)


def _positive(v):
    return (v > 0.0) & (v < math.inf)


def _nonnegative(v):
    return (v >= 0.0) & (v < math.inf)


def _finite(v):
    return abs(v) < math.inf


def _checked(value, valid, message):
    """value as a float if it is 0-d, else as a float array, after checking it:
    valid(v) tells elementwise whether v lies in the domain, and a value
    outside raises DomainError(message.format(value)).  A 0-d value is checked
    with float comparisons, an array by one vectorised call of valid."""
    if isinstance(value, (float, int)):  # np.float64 is a float
        arg = float(value)
    else:
        arg = np.asarray(value, dtype=float)
        if arg.ndim == 0:
            arg = float(arg)
    if not (valid(arg) if type(arg) is float else valid(arg).all()):
        raise DomainError(message.format(value))
    return arg


def _per_element(func, *args):
    """func of the broadcast arguments from `_checked`: a float when all are
    floats, else an array."""
    if np.ndarray not in map(type, args):
        return func(*args)
    return np.frompyfunc(func, len(args), 1)(*args).astype(float)


def power_second_difference(k, p: float) -> np.ndarray:
    """(k+1)^p - 2 k^p + |k-1|^p for lags k >= 0 and 0 < p < 2, as an array
    of the shape of k.

    The three powers cancel to about p(p-1) k^(p-2), which loses digits as
    k^2 / |p(p-1)|, so lags k >= 6 sum the binomial series
    2 k^(p-2) sum_{j>=1} C(p, 2j) k^(2-2j) instead: 1e-13 relative to a
    40-digit reference for H = p/2 in [0.3, 0.9], at every lag.
    """
    k = np.asarray(k, dtype=float)
    out = np.empty(k.shape)
    near = k < _SERIES_MIN_LAG
    kn, kf = k[near], k[~near]
    out[near] = np.abs(kn + 1.0) ** p - 2.0 * kn**p + np.abs(kn - 1.0) ** p
    if kf.size:
        # Horner's rule in u = 1/k^2, in place: numpy's polyval, step for step
        u = 1.0 / (kf * kf)
        coef = _binomial_series(p)
        series = np.full(u.shape, coef[-1])
        for c in coef[-2::-1]:
            series *= u
            series += c
        out[~near] = 2.0 * kf ** (p - 2.0) * series
    return out


@lru_cache(maxsize=16)
def _binomial_series(p: float) -> np.ndarray:
    """C(p, 2j), j = 1.._SERIES_TERMS, the coefficients of that series, read-only."""
    coef = np.array([
        math.prod(p - i for i in range(2 * j)) / math.factorial(2 * j)
        for j in range(1, _SERIES_TERMS + 1)
    ])
    coef.setflags(write=False)
    return coef


@lru_cache(maxsize=16)
def gauss_jacobi(count: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the count-point Gauss rule on [0, 1] for the
    weight v^p, p > -1, as read-only arrays with the nodes ascending.

    sum_i w_i f(v_i) = int_0^1 v^p f(v) dv exactly for polynomials f of
    degree below 2 count.  Golub & Welsch (1969): the nodes are the
    eigenvalues of the symmetric tridiagonal Jacobi matrix of the shifted
    Jacobi polynomials, the weights 1/(p+1) times the squared first
    components of its eigenvectors.  p = 0 takes numpy's Gauss-Legendre
    nodes, which cost no eigenvectors.
    """
    if not (count >= 1 and p > -1.0):
        raise DomainError(f"gauss_jacobi requires count >= 1 and p > -1, got {count}, {p}")
    if p == 0.0:
        x, w = np.polynomial.legendre.leggauss(count)
        nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    else:
        n = np.arange(1, count)
        m = 2.0 * n + p
        diag = np.empty(count)
        diag[0] = (p + 1.0) / (p + 2.0)
        diag[1:] = 0.5 + 0.5 * p * p / (m * (m + 2.0))
        off = n * (n + p) / (m * np.sqrt(m * m - 1.0))
        nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        weights = vecs[0] ** 2 / (p + 1.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gamma_body_rule(q: float, upper) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights of the BODY_NODES-point Gauss-Legendre rule for
    int_1^upper z^q f(z) dz, z^q folded into the weights, for each upper >= 1:
    arrays of shape upper.shape + (BODY_NODES,).

    The body of the fixed rules for int_0^s z^q e^(-z) (smooth) dz, whose
    head on [0, 1] is gauss_jacobi(HEAD_NODES, q).  The one singularity,
    z^q at 0, lies on the Bernstein ellipse of parameter 1.35 around [1, 45]
    (larger for shorter panels), so 64 nodes converge like 1.35^-128 ~ 2e-17.
    """
    x, w = gauss_jacobi(BODY_NODES, 0.0)
    span = np.asarray(upper, dtype=float)[..., None] - 1.0
    z = 1.0 + span * x
    return z, span * w * z**q
