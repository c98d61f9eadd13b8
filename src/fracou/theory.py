"""Closed-form constants and bound expressions for the LSE limit theorems.

Everything here is deterministic: the drift correction alpha_n and its
linear-growth rate, the limiting variance A(theta, H) of the normalized
second-chaos integral, the studentizing factor lambda_n, the CLT variance
sigma_H^2, and the seven-term Kolmogorov-distance bound budget.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.integrate
import scipy.linalg

from .errors import DomainError, SizeError
from .fou import ModelParams, SamplingScheme
from .specialfn import gamma, lower_incomplete_gamma

__all__ = [
    "TheoryConstants",
    "BoundBudget",
    "alpha_n",
    "alpha_n_quadrature",
    "alpha_limit_rate",
    "a_theta_h",
    "sigma_h2",
    "lambda_limit",
    "ef2_quadrature",
    "constants",
    "bound_budget",
    "specialized_budget",
    "gamma_window",
    "check_design",
    "EF2_MODES",
]

#: cost guard for the 4-D variance quadrature
EF2_MAX_HORIZON = 50.0

#: sources of E(F_T^2) in lambda_n: the limit A(theta, H) or the finite-T quadrature
EF2_MODES = ("asymptotic", "quadrature")


def _require_clt_range(hurst: float, what: str) -> None:
    if not (0.5 < hurst < 0.75):
        raise DomainError(
            f"{what} requires H in (1/2, 3/4) (Gamma(3-4H) pole at H=3/4), got {hurst}"
        )


@dataclass
class TheoryConstants:
    alpha_n: float
    alpha_limit_rate: float
    a_theta_h: float
    ef2: float
    ef2_source: str
    lambda_n: float
    sigma_h2: float
    theta: float
    hurst: float
    scheme_n: int
    scheme_delta: float


@dataclass
class BoundBudget:
    """The seven summands of the Kolmogorov-distance bound (constant c omitted)."""

    t1: float  # 1 / (eta sqrt(n delta))
    t2: float  # sqrt(n) delta^(2H - 1/2) / eta
    t3: float  # (n delta)^(4H - 3)
    t4: float  # eta
    t5: float  # delta^H / dlt
    t6: float  # 1 / (n delta dlt^2)
    t7: float  # dlt

    def terms(self) -> dict:
        return {k: getattr(self, k) for k in ("t1", "t2", "t3", "t4", "t5", "t6", "t7")}

    @property
    def total(self) -> float:
        return math.fsum(self.terms().values())


def alpha_n(params: ModelParams, horizon: float) -> float:
    """Drift correction alpha = H(2H-1) int_0^T int_0^t e^(-theta u) u^(2H-2) du dt.

    Evaluated in closed form via the Fubini rewrite
    H(2H-1) int_0^T e^(-theta u) u^(2H-2) (T - u) du, which reduces to two
    lower incomplete gamma terms.
    """
    if not (horizon > 0.0 and np.isfinite(horizon)):
        raise DomainError(f"horizon must be positive, got {horizon}")
    th, h = params.theta, params.hurst
    x = th * horizon
    val = horizon * th ** (1.0 - 2.0 * h) * lower_incomplete_gamma(2.0 * h - 1.0, x)
    val -= th ** (-2.0 * h) * lower_incomplete_gamma(2.0 * h, x)
    return h * (2.0 * h - 1.0) * val


def alpha_n_quadrature(params: ModelParams, horizon: float) -> float:
    """alpha by iterated adaptive quadrature of the defining double integral.

    Independent cross-check of the closed form: the inner integral uses an
    algebraic-weight rule for the u^(2H-2) endpoint singularity, the outer
    integral a plain adaptive rule.
    """
    if not (horizon > 0.0 and np.isfinite(horizon)):
        raise DomainError(f"horizon must be positive, got {horizon}")
    th, h = params.theta, params.hurst

    def inner(t):
        val, _ = scipy.integrate.quad(
            lambda u: np.exp(-th * u),
            0.0,
            t,
            weight="alg",
            wvar=(2.0 * h - 2.0, 0.0),
            epsabs=0.0,
            epsrel=1e-11,
            limit=200,
        )
        return val

    outer, _ = scipy.integrate.quad(
        inner, 0.0, horizon, epsabs=0.0, epsrel=1e-10, limit=200
    )
    return h * (2.0 * h - 1.0) * outer


def alpha_limit_rate(params: ModelParams) -> float:
    """Limit of alpha_n / T_n: theta^(1-2H) H Gamma(2H)."""
    th, h = params.theta, params.hurst
    return th ** (1.0 - 2.0 * h) * h * gamma(2.0 * h)


def a_theta_h(params: ModelParams) -> float:
    """A(theta, H), the limiting variance of the normalized second-chaos integral."""
    _require_clt_range(params.hurst, "A(theta, H)")
    th, h = params.theta, params.hurst
    g2h = gamma(2.0 * h)
    bracket = g2h**2 + g2h * gamma(3.0 - 4.0 * h) * gamma(4.0 * h - 1.0) / gamma(
        2.0 - 2.0 * h
    )
    return th ** (1.0 - 4.0 * h) * h**2 * (4.0 * h - 1.0) * bracket


def sigma_h2(params: ModelParams) -> float:
    """CLT variance sigma_H^2 = (4H-1) theta (1 + G(3-4H)G(4H-1)/(G(2-2H)G(2H)))."""
    _require_clt_range(params.hurst, "sigma_H^2")
    th, h = params.theta, params.hurst
    ratio = gamma(3.0 - 4.0 * h) * gamma(4.0 * h - 1.0) / (
        gamma(2.0 - 2.0 * h) * gamma(2.0 * h)
    )
    return (4.0 * h - 1.0) * th * (1.0 + ratio)


def lambda_limit(params: ModelParams) -> float:
    """Limit of lambda_n; satisfies lambda_limit^2 * sigma_H^2 = 1."""
    return alpha_limit_rate(params) / (params.theta * math.sqrt(a_theta_h(params)))


def _ef2_fixed_mesh(theta: float, hurst: float, horizon: float, cells: int) -> float:
    """Trace-form product quadrature of the 4-D variance integral.

    Both kernel factors are replaced by exact cell-pair integrals on a
    uniform mesh: the singular factor |u-v|^(2H-2) via the second
    antiderivative |u|^(2H)/(2H(2H-1)), the exponential factor analytically.
    The integral then collapses to trace(E W E W) with Toeplitz E, W.
    """
    h = horizon / cells
    d = np.arange(cells)
    th = theta
    # cell-averaged e^(-theta|t-s|), Toeplitz in |i-j|
    ecol = np.empty(cells)
    ecol[0] = 2.0 * (h / th - (1.0 - np.exp(-th * h)) / th**2) / h**2
    if cells > 1:
        ecol[1:] = (
            np.exp(-th * d[1:] * h)
            * (1.0 - np.exp(-th * h))
            * (np.exp(th * h) - 1.0)
            / (th**2 * h**2)
        )
    two_h = 2.0 * hurst

    def psi(u):
        return np.abs(u) ** two_h / (two_h * (two_h - 1.0))

    wcol = psi((d + 1) * h) - 2.0 * psi(d * h) + psi((d - 1) * h)
    e_mat = scipy.linalg.toeplitz(ecol)
    w_mat = scipy.linalg.toeplitz(wcol)
    ew = e_mat @ w_mat
    quad = float(np.einsum("ij,ji->", ew, ew))
    return (hurst * (two_h - 1.0)) ** 2 / (2.0 * horizon) * quad


def ef2_quadrature(params: ModelParams, horizon: float, cells: int | None = None) -> float:
    """E(F_T^2) = (H(2H-1))^2/(2T) * int_{[0,T]^4} e^(-th|t-s|) e^(-th|t'-s'|)
    |t-t'|^(2H-2) |s-s'|^(2H-2), by product quadrature with exact singular
    cell weights plus Richardson extrapolation (observed O(h^2) convergence).
    """
    if not (horizon > 0.0 and np.isfinite(horizon)):
        raise DomainError(f"horizon must be positive, got {horizon}")
    if horizon > EF2_MAX_HORIZON:
        raise SizeError(f"ef2_quadrature limited to T <= {EF2_MAX_HORIZON}")
    _require_clt_range(params.hurst, "ef2_quadrature")
    if cells is None:
        cells = max(300, int(24 * horizon))
    coarse = _ef2_fixed_mesh(params.theta, params.hurst, horizon, cells)
    fine = _ef2_fixed_mesh(params.theta, params.hurst, horizon, 2 * cells)
    return (4.0 * fine - coarse) / 3.0


def constants(
    params: ModelParams, scheme: SamplingScheme, ef2_mode: str = "asymptotic"
) -> TheoryConstants:
    """All theory constants for one (params, scheme) pair.

    ef2_mode selects the value used for E(F_{T_n}^2) inside lambda_n:
    "asymptotic" uses the limit A(theta, H) (the default; this is how the
    CLT is normalized), "quadrature" evaluates the finite-T integral.
    """
    check_design(params.hurst, ef2_mode=ef2_mode)
    a_val = a_theta_h(params)
    t_n = scheme.horizon
    ef2 = a_val if ef2_mode == "asymptotic" else ef2_quadrature(params, t_n)
    alpha = alpha_n(params, t_n)
    lam = alpha / (params.theta * t_n * math.sqrt(ef2))
    return TheoryConstants(
        alpha_n=alpha,
        alpha_limit_rate=alpha_limit_rate(params),
        a_theta_h=a_val,
        ef2=ef2,
        ef2_source=ef2_mode,
        lambda_n=lam,
        sigma_h2=sigma_h2(params),
        theta=params.theta,
        hurst=params.hurst,
        scheme_n=scheme.n,
        scheme_delta=scheme.delta,
    )


def _budget_terms(
    n: int, delta: float, hurst: float, eta: float, dlt: float
) -> BoundBudget:
    """The seven summands at (eta, dlt), unchecked; both budgets evaluate these."""
    nd = n * delta
    return BoundBudget(
        t1=1.0 / (eta * math.sqrt(nd)),
        t2=math.sqrt(n) * delta ** (2.0 * hurst - 0.5) / eta,
        t3=nd ** (4.0 * hurst - 3.0),
        t4=eta,
        t5=delta**hurst / dlt,
        t6=1.0 / (nd * dlt**2),
        t7=dlt,
    )


def bound_budget(
    scheme: SamplingScheme, params: ModelParams, eta: float, dlt: float
) -> BoundBudget:
    """The seven-term Kolmogorov-distance bound, constant c excluded.

    Only the decay rates are meaningful: the constant c of the theorem is
    unknown, so budgets are reported with c = 1.
    """
    check_design(params.hurst, eta=eta, dlt=dlt)
    return _budget_terms(scheme.n, scheme.delta, params.hurst, eta, dlt)


def specialized_budget(
    scheme: SamplingScheme, params: ModelParams, alpha: float, beta: float
) -> BoundBudget:
    """Budget for the specialization eta = sqrt(n delta^beta), dlt = delta^alpha:

    1/(n delta^((1+beta)/2)) + sqrt(delta^(4H-1-beta)) + (n delta)^(4H-3)
    + sqrt(n delta^beta) + delta^(H-alpha) + 1/(n delta^(1+2 alpha)) + delta^alpha.

    beta is accepted on (0, 4H-1); values beta <= 1 are flagged with a
    warning because the theorem's side conditions may then fail.
    """
    _require_clt_range(params.hurst, "specialized_budget")
    h = params.hurst
    if not (0.0 < alpha < h):
        raise DomainError(f"alpha must lie in (0, H), got {alpha}")
    if not (0.0 < beta < 4.0 * h - 1.0):
        raise DomainError(f"beta must lie in (0, 4H-1), got {beta}")
    if beta <= 1.0:
        warnings.warn(
            "beta <= 1: the CLT theorem's stated range is (1, 4H-1)",
            stacklevel=2,
        )
    n, delta = scheme.n, scheme.delta
    return _budget_terms(n, delta, h, math.sqrt(n * delta**beta), delta**alpha)


def gamma_window(hurst: float) -> tuple[float, float]:
    """Open admissible interval (1/(4H-1), 1/(2H)) for delta = n^(-gamma)."""
    _require_clt_range(hurst, "gamma_window")
    return 1.0 / (4.0 * hurst - 1.0), 1.0 / (2.0 * hurst)


def check_design(hurst, gamma=None, eta=None, dlt=None, ef2_mode="asymptotic") -> None:
    """Every design rule, stated once (DomainError): H in the CLT range, ef2_mode in
    EF2_MODES, gamma inside `gamma_window(hurst)`, eta and dlt in (0, 1) and paired."""
    _require_clt_range(hurst, "the CLT design")
    if ef2_mode not in EF2_MODES:
        raise DomainError(f"ef2_mode must be one of {EF2_MODES}, got {ef2_mode!r}")
    if gamma is not None:
        lo, hi = gamma_window(hurst)
        if not (lo < gamma < hi):
            raise DomainError(
                f"gamma {gamma} outside the admissible interval ({lo:.6g}, {hi:.6g})"
            )
    if (eta is None) != (dlt is None):
        raise DomainError("eta and dlt must be given together")
    for name, value in (("eta", eta), ("dlt", dlt)):
        if value is not None and not (0.0 < value < 1.0):
            raise DomainError(f"{name} must lie in (0, 1), got {value}")
