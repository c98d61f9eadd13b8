"""fracou: fractional Ornstein-Uhlenbeck simulation and LSE drift estimation.

Subpackages
-----------
specialfn   gamma, lower incomplete gamma, normal CDF, |k|^(2H) second difference,
            Gauss-Jacobi rules
fbm         exact fGn and weighted-increment sampling (circulant + Cholesky)
fou         exact fOU paths on the observation grid, the exponential-Euler
            reference, and the exact second-moment quadrature
lse         least-squares estimator and studentized statistic
theory      closed-form constants, variance quadrature, bound budgets
montecarlo  replicated pipelines and Kolmogorov-distance measurement
cli         `fracou` command-line entry point

fracou runs on numpy and the standard library alone: no call loads scipy.
"""

from .fbm import FbmGrid, IncrementSeries, RngSeed
from .fou import ModelParams, ObservedPath, SamplingScheme
from .lse import EstimateResult

__all__ = [
    "FbmGrid",
    "IncrementSeries",
    "RngSeed",
    "ModelParams",
    "ObservedPath",
    "SamplingScheme",
    "EstimateResult",
]

__version__ = "0.1.0"
