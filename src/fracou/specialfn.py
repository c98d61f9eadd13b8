"""Scalar special functions used by the closed-form constants.

Thin validated wrappers around scipy.special.  Everything is evaluated in
float64; all three functions accept scalars or numpy arrays and broadcast.
"""

import numpy as np
import scipy.special as sp

from .errors import DomainError

__all__ = ["gamma", "lower_incomplete_gamma", "std_normal_cdf"]


def gamma(x):
    """Euler gamma function for positive real arguments.

    Raises DomainError for non-positive or non-finite input.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"gamma requires finite x > 0, got {x!r}")
    out = sp.gamma(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def lower_incomplete_gamma(a, x):
    """Unregularized lower incomplete gamma gamma(a, x) = int_0^x t^(a-1) e^(-t) dt."""
    a_arr = np.asarray(a, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a_arr)) or np.any(a_arr <= 0.0):
        raise DomainError(f"lower_incomplete_gamma requires a > 0, got a={a!r}")
    if not np.all(np.isfinite(x_arr)) or np.any(x_arr < 0.0):
        raise DomainError(f"lower_incomplete_gamma requires x >= 0, got x={x!r}")
    out = sp.gammainc(a_arr, x_arr) * sp.gamma(a_arr)
    scalar = np.isscalar(a) and np.isscalar(x)
    return float(out) if scalar else out


def std_normal_cdf(z):
    """Standard normal CDF Phi(z).

    Raises DomainError on non-finite input (NaN would otherwise propagate
    silently into Kolmogorov distances).
    """
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"std_normal_cdf requires finite z, got {z!r}")
    out = sp.ndtr(arr)
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out
