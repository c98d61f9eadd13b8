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

from .errors import DomainError, SizeError
from .fou import ModelParams, SamplingScheme
from .specialfn import (
    GAMMA_CUTOFF,
    HEAD_NODES,
    gamma,
    gamma_body_rule,
    gauss_jacobi,
    lower_incomplete_gamma,
    power_second_difference,
)

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

#: size guard for the 4-D variance quadrature: at T = 50 its two meshes have 1200
#: and 2400 cells, about 0.35 ms (one Intel Xeon core, median of 15 calls) and
#: a 0.4 MB peak per call (O(cells) time and memory)
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
    """alpha by a fixed product rule for the iterated defining integral.

    Independent cross-check of the closed form: it never calls an incomplete
    gamma function or the Fubini rewrite.  With z = theta u and s = theta t,
    alpha = H(2H-1) theta^(-2H) K(theta T), where
    J(s) = int_0^s e^(-z) z^(2H-2) dz and
    K(S) = int_0^min(S, 45) J(s) ds + (S - 45)^+ J(45).
    J takes a Gauss-Jacobi panel for the weight z^(2H-2) on [0, min(s, 1)]
    and Gauss-Legendre on [1, s]; K the same, with the weight s^(2H-1) on
    its head, since J(s) is s^(2H-1) times an entire function.  All inner
    points for all outer nodes are one array.  Up to theta T = 1 the result
    is scaled by T^(2H) rather than theta^(-2H), which keeps it finite and
    accurate down to theta T = 1e-300.
    """
    if not (horizon > 0.0 and np.isfinite(horizon)):
        raise DomainError(f"horizon must be positive, got {horizon}")
    th, h = params.theta, params.hurst
    s = th * horizon
    z, w = gauss_jacobi(HEAD_NODES, 2.0 * h - 2.0)

    def head(sigma):  # J(sigma) / sigma^(2H-1) for sigma <= 1
        return np.exp(-np.multiply.outer(sigma, z)) @ w

    v, wv = gauss_jacobi(HEAD_NODES, 2.0 * h - 1.0)
    k = float(wv @ head(min(s, 1.0) * v))
    if s <= 1.0:
        return h * (2.0 * h - 1.0) * horizon ** (2.0 * h) * k
    top = min(s, GAMMA_CUTOFF)
    sigma, w_sigma = gamma_body_rule(0.0, top)
    zb, wb = gamma_body_rule(2.0 * h - 2.0, np.append(sigma, top))
    j = head(1.0) + (wb * np.exp(-zb)).sum(axis=-1)
    k += float(w_sigma @ j[:-1] + (s - top) * j[-1])
    return h * (2.0 * h - 1.0) * th ** (-2.0 * h) * k


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


#: Taylor coefficients 2/(m+2)! of e0(x) = 2(x - 1 + e^-x)/x^2 = sum_m 2(-x)^m/(m+2)!;
#: at x < 1/2 the first term left out is below 2e-19
_E0_SERIES = [2.0 / math.factorial(m + 2) for m in range(15)]


def _exp_cell_weights(x: float) -> tuple[float, float]:
    """Cell-pair means of e^(-|t-s|) over two cells of width x (times in units
    of 1/theta): e0 for a cell with itself, and g = ((1 - e^-x)/x)^2 for
    adjacent cells; cells k >= 1 apart weigh g e^(-x(k-1)).

    x + expm1(-x) cancels to x^2/2 as x -> 0, so e0 takes its Taylor series
    below x = 1/2; g through expm1 loses no digits and cannot overflow.  Both
    tend to 1 as x -> 0 (x = theta h underflows to 0 for theta near 5e-324).
    """
    if x < 0.5:
        e0 = _E0_SERIES[-1]  # Horner's rule in -x
        for coef in _E0_SERIES[-2::-1]:
            e0 = coef - e0 * x
    else:
        e0 = 2.0 * (x + math.expm1(-x)) / (x * x)
    return e0, (math.expm1(-x) / x) ** 2 if x > 0.0 else 1.0


#: block length L of `_DecayScan`: each block is one product with an (L + 1) x L
#: matrix of decay weights, about 2 L flops per value scanned
_SCAN_BLOCK = 64
#: _SCAN_LAGS[j, l] = l - j where j <= l, else -1 (the zero after the weights);
#: row L holds l + 1, the lags from the value that ends the block before
_SCAN_LAGS = np.maximum(np.arange(_SCAN_BLOCK) - np.arange(_SCAN_BLOCK + 1)[:, None], -1)
_SCAN_LAGS[_SCAN_BLOCK] = np.arange(1, _SCAN_BLOCK + 1)
_SCAN_LAGS.setflags(write=False)


class _DecayScan:
    """y[..., m] = r y[..., m-1] + x[..., m] along the last axis, from y = 0, with
    r = e^-rate, for rows of up to `length` values.

    The weights are built once and serve every call.  Blocks of L values are
    scanned by one product with the matrix of the weights r^(l - j), j <= l,
    whose last row r^(l + 1) carries in the value that ends the block before.
    Those values are the blocks' own ends, a product with the last column,
    scanned the same way at ratio r^L.  Every weight is e^(-rate lag) <= 1, so
    nothing overflows for any finite rate >= 0, and no rounded power of r is
    raised again.
    """

    def __init__(self, rate: float, length: int):
        self.size = size = min(length, _SCAN_BLOCK)
        decay = np.exp(-rate * np.arange(size + 2))
        decay[-1] = 0.0
        self.weights = decay[_SCAN_LAGS[: size + 1, :size]]
        count = -(-length // size)
        self.ends = _DecayScan(rate * size, count - 1) if count > 1 else None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        lead, n = x.shape[:-1], x.shape[-1]
        size = self.size
        if n <= size:
            return x @ self.weights[:n, :n]
        full, rest = divmod(n, size)
        blocks = np.zeros(lead + (full + (rest > 0), size + 1))
        blocks[..., :full, :size] = x[..., : full * size].reshape(lead + (full, size))
        if rest:
            blocks[..., full, :rest] = x[..., full * size :]
        blocks[..., 1:, size] = self.ends(blocks[..., :-1, :size] @ self.weights[:size, -1])
        return (blocks @ self.weights).reshape(lead + (-1,))[..., :n]


def _ew_generators(e0: float, g: float, w: np.ndarray, power: np.ndarray, scan: _DecayScan):
    """(c, a, b) that give C = E W in O(N): E is the symmetric Toeplitz matrix with
    first column (e0, g, g r, g r^2, ...), W the one with first column w;
    `power` holds r^m, m < N, and `scan` is a `_DecayScan` at ratio r for at
    least N + 1 values.

    For k <= i, C[i, k] = c[i-k] + g r^(i-k) a[k] - g r^(N-1-i) b[k], with
    c = E w, a[k] = sum_{q=1..k} r^(q-1) w[q] and
    b[k] = sum_{t=0..k-1} r^t w[N-k+t]; E and W are persymmetric, so is C,
    and C[k, i] = C[N-1-k, N-1-i] gives the upper triangle.  Row i of E w is
    e0 w[i] plus g times the scans of w over j < i and over j > i at ratio r;
    the second one is b reversed.  A 0 in front of w turns a scan over j <= i
    into one over j < i.
    """
    n = w.size
    shifted = np.zeros((2, n + 1))
    shifted[0, 1:] = w
    shifted[1, 1:] = w[::-1]
    before, b = scan(shifted)[:, :n]
    c = e0 * w + g * (before + b[::-1])
    a = np.zeros(n)
    np.cumsum(power[:-1] * w[1:], out=a[1:])
    return c, a, b


def _trace_ew_square(e0: float, g: float, rate: float, w: np.ndarray) -> float:
    """trace((E W)^2) for E, W of `_ew_generators`, in O(N) time and memory.

    trace = sum_i C[i, i]^2 + 2 sum_{k<i} C[i, k] C[k, i].  For k < i and
    d = i - k, C[i, k] = c[d] + g r^d a[k] - g r^(N-1-i) b[k] and, by
    persymmetry, C[k, i] = c[d] + g r^d a[N-1-i] - g r^k b[N-1-i].  Their
    product has nine terms; the reversal (i, k) -> (N-1-k, N-1-i) maps three
    of them onto three others, which leaves six sums, each one dot product of
    length-N vectors: c, a, b and their prefix sums or decay scans at ratio r
    or r^2, one `_DecayScan` for each ratio.  A sum over k < i is the
    inclusive one moved a place on, so it is dotted with the other vector's
    tail.  All weights are powers r^m <= 1, so the sums stay stable from
    rate -> 0 (r = 1) to r^N and r underflowing.
    """
    n = w.size
    power = np.exp(-rate * np.arange(n))  # r^m
    scan = _DecayScan(rate, n + 1)
    c, a, b = _ew_generators(e0, g, w, power, scan)
    a_rev, b_rev = a[::-1], b[::-1]
    pb_rev = power * b_rev  # r^i b[N-1-i]
    pb = power * b
    c_tail = c.copy()  # c[1:] behind a 0
    c_tail[0] = 0.0
    a_cum = np.cumsum(a)
    diag = c[0] + g * (a - pb_rev[::-1])
    # c c: sum_d (N-d) c[d]^2
    pairs = float(np.arange(n - 1, 0, -1) @ (c[1:] * c[1:]))
    # c a, twice: sum_i a[N-1-i] sum_{d=1..i} c[d] r^d
    pairs += 2.0 * g * float(a_rev[1:] @ np.cumsum(c[1:] * power[1:]))
    # c b, twice: sum_i b[N-1-i] sum_{k<i} c[i-k] r^k
    pairs -= 2.0 * g * float(b_rev @ scan(c_tail))
    # a a: sum_i a[N-1-i] sum_{k<i} r^(2(i-k)) a[k]
    a_scan = _DecayScan(2.0 * rate, n)(a)
    pairs += g * g * math.exp(-2.0 * rate) * float(a_rev[1:] @ a_scan[:-1])
    # a b, twice: sum_i r^i b[N-1-i] sum_{k<i} a[k]
    pairs -= 2.0 * g * g * float(pb_rev[1:] @ a_cum[:-1])
    # b b: sum_i r^(N-1-i) b[N-1-i] sum_{k<i} r^k b[k]
    pairs += g * g * float(pb[-2::-1] @ np.cumsum(pb)[:-1])
    return float(diag @ diag + 2.0 * pairs)


def _ef2_fixed_mesh(
    theta: float, hurst: float, horizon: float, cells: int, second_diff=None
) -> float:
    """Trace-form product quadrature of the 4-D variance integral.

    Both kernel factors are replaced by exact cell-pair integrals on a
    uniform mesh: the singular factor |u-v|^(2H-2) via the second
    difference of its second antiderivative |u|^(2H)/(2H(2H-1))
    (`power_second_difference`, accurate at large lags), the exponential
    factor analytically (`_exp_cell_weights`, accurate as theta h -> 0).  The
    integral then collapses to trace(E W E W) with Toeplitz E, W; E has the
    entries e0 and g e^(-theta h (k-1)), so `_trace_ew_square` evaluates it
    from (e0, g, theta h) and the first column of W in O(cells) time and
    memory, with no matrix formed.  `second_diff`, at least `cells` values of
    power_second_difference(k, 2H), k = 0, 1, ..., spares recomputing them.
    """
    h = horizon / cells
    e0, g = _exp_cell_weights(theta * h)
    two_h = 2.0 * hurst
    if second_diff is None:
        second_diff = power_second_difference(np.arange(cells), two_h)
    wcol = h**two_h / (two_h * (two_h - 1.0)) * second_diff[:cells]
    quad = _trace_ew_square(e0, g, theta * h, wcol)
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
    # the coarse mesh's W column is the first half of the fine one's
    second_diff = power_second_difference(np.arange(2 * cells), 2.0 * params.hurst)
    coarse = _ef2_fixed_mesh(params.theta, params.hurst, horizon, cells, second_diff)
    fine = _ef2_fixed_mesh(params.theta, params.hurst, horizon, 2 * cells, second_diff)
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
