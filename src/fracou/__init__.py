"""fracou: fractional Ornstein-Uhlenbeck simulation and LSE drift estimation.

Subpackages
-----------
specialfn   gamma / incomplete gamma / normal CDF wrappers, |k|^(2H) second difference
fbm         exact fGn and weighted-increment sampling (circulant + Cholesky)
fou         exact fOU paths on the observation grid, the exponential-Euler
            reference, and the exact second-moment quadrature
lse         least-squares estimator and studentized statistic
theory      closed-form constants, variance quadrature, bound budgets
montecarlo  replicated pipelines and Kolmogorov-distance measurement
cli         `fracou` command-line entry point

Importing fracou loads numpy only; each scipy subpackage loads with the
first call that uses it.
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
