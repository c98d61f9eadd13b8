"""Scalar special functions used by the closed-form constants and kernels.

Validated numpy and `math` implementations, with no scipy: Gamma from
`math.gamma`, Phi from `math.erfc`, the lower incomplete gamma by its power
series and continued fraction.  Everything is evaluated in float64; all
functions accept scalars or numpy arrays and broadcast.  The Gauss rules
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
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"gamma requires finite x > 0, got {x!r}")
    return _per_element(math.gamma, arr)


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
    a_arr = np.asarray(a, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a_arr)) or np.any(a_arr <= 0.0):
        raise DomainError(f"lower_incomplete_gamma requires a > 0, got a={a!r}")
    if not np.all(np.isfinite(x_arr)) or np.any(x_arr < 0.0):
        raise DomainError(f"lower_incomplete_gamma requires x >= 0, got x={x!r}")
    return _per_element(_lower_gamma, a_arr, x_arr)


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
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"std_normal_cdf requires finite z, got {z!r}")
    return 0.5 * _per_element(math.erfc, arr * -_SQRT_HALF)


def _per_element(func, *args):
    """func of the broadcast float arguments: a float for 0-d input, else an array."""
    if all(arr.ndim == 0 for arr in args):
        return func(*map(float, args))
    out = np.frompyfunc(func, len(args), 1)(*args)
    return out.astype(float)


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
        series = np.polynomial.polynomial.polyval(1.0 / (kf * kf), _binomial_series(p))
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
