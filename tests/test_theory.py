import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from fracou import specialfn, theory
from fracou.errors import DomainError, SizeError
from fracou.fbm import RngSeed
from fracou.fou import ModelParams, SamplingScheme, simulate_path

P17 = ModelParams(theta=1.0, hurst=0.7)


def test_alpha_n_derived_value():
    # frozen 30-digit value at theta=1, H=0.7, T=10
    assert theory.alpha_n(P17, 10.0) == pytest.approx(5.962415733080749, rel=1e-12)


def test_alpha_n_closed_form_vs_quadrature_grid():
    for th in (0.5, 1.0, 2.0):
        for h in (0.55, 0.65, 0.74):
            params = ModelParams(theta=th, hurst=h)
            for t_end in (0.5, 5.0, 40.0):
                closed = theory.alpha_n(params, t_end)
                quad = theory.alpha_n_quadrature(params, t_end)
                assert closed == pytest.approx(quad, rel=1e-7), (th, h, t_end)


def _alpha_mp(theta, hurst, horizon):
    """alpha from the lower incomplete gamma closed form at 40 digits (mpmath's
    tanh-sinh quadrature of the double integral is 15% off at H = 0.51)."""
    with mpmath.workdps(40):
        th, h, t = mpmath.mpf(theta), mpmath.mpf(hurst), mpmath.mpf(horizon)
        x = th * t
        val = t * th ** (1 - 2 * h) * mpmath.gammainc(2 * h - 1, 0, x)
        val -= th ** (-2 * h) * mpmath.gammainc(2 * h, 0, x)
        return h * (2 * h - 1) * val


@pytest.mark.parametrize("theta", [1e-6, 0.5, 1.0, 2.0, 10.0, 1e3, 1e5])
def test_alpha_n_quadrature_against_mpmath(theta):
    # includes (1e3, 0.7, 100), where iterated adaptive quadrature was 4e-6 off:
    # its outer rule missed the layer t < 1/theta
    for h in (0.51, 0.55, 0.65, 0.7, 0.74):
        params = ModelParams(theta=theta, hurst=h)
        for t_end in (1e-6, 1e-3, 0.5, 5.0, 22.4, 40.0, 100.0, 1e4):
            ref = _alpha_mp(theta, h, t_end)
            got = theory.alpha_n_quadrature(params, t_end)
            assert abs(got - ref) <= 1e-12 * abs(ref), (h, t_end)


def test_alpha_n_quadrature_is_independent_of_closed_form(monkeypatch):
    def refuse(*args):
        raise AssertionError("the cross-check must not use the closed form")

    for name in ("gamma", "lower_incomplete_gamma"):
        monkeypatch.setattr(specialfn, name, refuse)
        monkeypatch.setattr(theory, name, refuse)
    with pytest.raises(AssertionError):
        theory.alpha_n(P17, 10.0)
    assert theory.alpha_n_quadrature(P17, 10.0) == pytest.approx(5.962415733080749, rel=1e-13)


@pytest.mark.parametrize("theta, t_end", [(1e-150, 1e-150), (1e-300, 1.0), (1e9, 1.0)])
def test_alpha_n_quadrature_extreme_theta_t(theta, t_end):
    # theta T = 1e-300 and 1e9 raise no RuntimeWarning; at theta T -> 0,
    # alpha -> T^(2H) / 2, and the closed form agrees at theta T = 1e9
    params = ModelParams(theta=theta, hurst=0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = theory.alpha_n_quadrature(params, t_end)
    if theta * t_end < 1.0:
        assert got == pytest.approx(0.5 * t_end**1.4, rel=1e-12, abs=0.0)
    else:
        assert got == pytest.approx(theory.alpha_n(params, t_end), rel=1e-13)


def test_alpha_limit_rate_value_and_convergence():
    # rate at theta=1, H=0.7 frozen from mpmath; alpha/T approaches it
    rate = theory.alpha_limit_rate(P17)
    assert rate == pytest.approx(0.6210846722521527, rel=1e-12)
    gaps = [abs(theory.alpha_n(P17, t) / t - rate) for t in (10.0, 30.0, 100.0)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert theory.alpha_n(P17, 100.0) / 100.0 == pytest.approx(rate, rel=0.02)


def test_alpha_n_vanishes_at_zero_horizon():
    small = [theory.alpha_n(P17, t) for t in (1e-3, 1e-2, 1e-1)]
    assert 0 < small[0] < small[1] < small[2]
    assert small[0] < 1e-3
    with pytest.raises(DomainError):
        theory.alpha_n(P17, 0.0)


def test_a_theta_h_value_and_scaling():
    # frozen mpmath value at theta=1, H=0.6
    p = ModelParams(theta=1.0, hurst=0.6)
    assert theory.a_theta_h(p) == pytest.approx(0.9500808101396344, rel=1e-12)
    # exact theta^(1-4H) scaling
    p2 = ModelParams(theta=2.0, hurst=0.6)
    assert theory.a_theta_h(p2) == pytest.approx(
        2.0 ** (1 - 2.4) * theory.a_theta_h(p), rel=1e-13
    )


def test_a_theta_h_pole_at_three_quarters():
    vals = [
        theory.a_theta_h(ModelParams(theta=1.0, hurst=h))
        for h in (0.70, 0.73, 0.745, 0.749)
    ]
    assert vals[0] < vals[1] < vals[2] < vals[3]
    with pytest.raises(DomainError):
        theory.a_theta_h(ModelParams(theta=1.0, hurst=0.75))
    with pytest.raises(DomainError):
        theory.a_theta_h(ModelParams(theta=1.0, hurst=0.8))


def test_sigma_h2_values():
    assert theory.sigma_h2(ModelParams(theta=1.0, hurst=0.6)) == pytest.approx(
        3.130495168499706, rel=1e-12
    )
    assert theory.sigma_h2(P17) == pytest.approx(7.624922359499621, rel=1e-12)
    # linear in theta
    assert theory.sigma_h2(ModelParams(theta=3.0, hurst=0.7)) == pytest.approx(
        3.0 * theory.sigma_h2(P17), rel=1e-13
    )


def test_lambda_sigma_identity():
    # lambda_infinity^2 * sigma_H^2 = 1 exactly, for all theta and H
    for th in (0.5, 1.0, 2.0, 7.0):
        for h in (0.55, 0.65, 0.7, 0.74):
            p = ModelParams(theta=th, hurst=h)
            assert theory.lambda_limit(p) ** 2 * theory.sigma_h2(p) == pytest.approx(
                1.0, abs=1e-10
            )


def test_lambda_n_converges_to_lambda_limit():
    scheme = SamplingScheme.from_gamma(100000, 0.5)
    consts = theory.constants(P17, scheme)
    assert consts.lambda_n == pytest.approx(theory.lambda_limit(P17), rel=0.05)


def test_ef2_quadrature_symmetric_in_trace_order():
    # trace(EWEW) = trace(WEWE): the two kernel factors can be applied in
    # either order without changing the value
    import scipy.linalg

    th, h, t_end, cells = 1.0, 0.6, 5.0, 120
    val = theory._ef2_fixed_mesh(th, h, t_end, cells)
    # rebuild with factors swapped
    step = t_end / cells
    d = np.arange(cells)
    ecol = np.empty(cells)
    ecol[0] = 2.0 * (step / th - (1.0 - np.exp(-th * step)) / th**2) / step**2
    ecol[1:] = (
        np.exp(-th * d[1:] * step)
        * (1.0 - np.exp(-th * step))
        * (np.exp(th * step) - 1.0)
        / (th**2 * step**2)
    )
    two_h = 2.0 * h

    def psi(u):
        return np.abs(u) ** two_h / (two_h * (two_h - 1.0))

    wcol = psi((d + 1) * step) - 2.0 * psi(d * step) + psi((d - 1) * step)
    e_mat = scipy.linalg.toeplitz(ecol)
    w_mat = scipy.linalg.toeplitz(wcol)
    we = w_mat @ e_mat
    swapped = (h * (two_h - 1.0)) ** 2 / (2.0 * t_end) * float(
        np.einsum("ij,ji->", we, we)
    )
    assert swapped == pytest.approx(val, rel=1e-12)


def _weights_mp(x):
    """(e0, g) of theory._exp_cell_weights at 50 digits, with the digits that
    x + expm1(-x) cancels added to the working precision."""
    with mpmath.workdps(50 + 2 * max(0, -math.floor(math.log10(x)))):
        xm = mpmath.mpf(x)
        return 2 * (xm + mpmath.expm1(-xm)) / xm**2, (mpmath.expm1(-xm) / xm) ** 2


def test_exp_cell_weights_match_mpmath():
    xs = np.concatenate([np.logspace(-300, 3, 120), np.linspace(0.3, 0.7, 41)])
    for x in map(float, xs):
        e0, g = theory._exp_cell_weights(x)
        ref_e0, ref_g = _weights_mp(x)
        assert abs(e0 - ref_e0) <= 1e-14 * ref_e0, x
        assert abs(g - ref_g) <= 1e-14 * ref_g, x
    assert theory._exp_cell_weights(0.0) == (1.0, 1.0)


def _ef2_dense(theta, hurst, horizon, cells):
    # test-local oracle: mpmath cell weights, dense Toeplitz E and W, trace(EWEW)
    h = horizon / cells
    d = np.arange(cells)
    e0, g = (float(v) for v in _weights_mp(theta * h))
    ecol = np.empty(cells)
    ecol[0] = e0
    ecol[1:] = g * np.exp(-theta * h * d[:-1])
    two_h = 2.0 * hurst
    psi = np.abs(np.arange(-1.0, cells + 1) * h) ** two_h / (two_h * (two_h - 1.0))
    wcol = psi[2:] - 2.0 * psi[1:-1] + psi[:-2]
    ew = scipy.linalg.toeplitz(ecol) @ scipy.linalg.toeplitz(wcol)
    return (hurst * (two_h - 1.0)) ** 2 / (2.0 * horizon) * np.einsum("ij,ji->", ew, ew)


@pytest.mark.parametrize("cells", [1, 2, 3, 120, 1200])
def test_ef2_fixed_mesh_matches_dense_oracle(cells):
    for th in (0.05, 1.0, 5.0, 20.0):
        for h in (0.51, 0.6, 0.74):
            got = theory._ef2_fixed_mesh(th, h, 10.0, cells)
            ref = _ef2_dense(th, h, 10.0, cells)
            assert got == pytest.approx(ref, rel=1e-12, abs=0), (th, h)


def test_ef2_fixed_mesh_large_theta_h():
    # theta h = 3333: e^(theta h) overflows float64, the cell weights must not
    got = theory._ef2_fixed_mesh(1e5, 0.6, 10.0, 300)
    assert got == pytest.approx(_ef2_dense(1e5, 0.6, 10.0, 300), rel=1e-12, abs=0)


@pytest.mark.parametrize("cells", [1, 3, 120, 1200])
@pytest.mark.parametrize("theta", [1e-10, 100.0])
def test_ef2_fixed_mesh_matches_dense_oracle_at_extremes(theta, cells):
    # theta h -> 0, where E tends to a matrix of ones, and theta T = 1000,
    # where r^N = e^(-theta T) underflows to 0 (at 120 and 1200 cells r does not)
    for h in (0.51, 0.6, 0.74):
        got = theory._ef2_fixed_mesh(theta, h, 10.0, cells)
        ref = _ef2_dense(theta, h, 10.0, cells)
        assert got == pytest.approx(ref, rel=1e-12, abs=0), h


#: decay rates -log r of the E matrices below: r = 0 (e^-800 underflows), 1 - 1e-12, 1/2
_RATES = [800.0, -math.log1p(-1e-12), math.log(2.0)]


@pytest.mark.parametrize("rate", _RATES)
@pytest.mark.parametrize("cells", [1, 2, 7, 70, 300])
def test_ew_generators_give_dense_product(rate, cells):
    # lower triangle C[i, k] = c[i-k] + g r^(i-k) a[k] - g r^(N-1-i) b[k] of C = E W,
    # upper triangle by persymmetry; 70 and 300 cells span several scan blocks
    e0, g = theory._exp_cell_weights(rate)
    w = np.random.default_rng(cells).uniform(0.1, 1.0, cells)
    ecol = np.append(e0, g * np.exp(-rate * np.arange(cells - 1)))
    dense = scipy.linalg.toeplitz(ecol) @ scipy.linalg.toeplitz(w)
    np.testing.assert_allclose(dense, dense[::-1, ::-1], rtol=1e-13, atol=0)
    power = np.exp(-rate * np.arange(cells))
    c, a, b = theory._ew_generators(e0, g, w, power, theory._DecayScan(rate, cells + 1))
    i, k = np.tril_indices(cells)
    lower = c[i - k] + g * np.exp(-rate * (i - k)) * a[k]
    lower -= g * np.exp(-rate * (cells - 1 - i)) * b[k]
    closed = np.zeros((cells, cells))
    closed[i, k] = lower
    row, col = np.triu_indices(cells, 1)
    closed[row, col] = closed[cells - 1 - row, cells - 1 - col]
    np.testing.assert_allclose(closed, dense, rtol=1e-13, atol=0)
    trace = theory._trace_ew_square(e0, g, rate, w)
    assert trace == pytest.approx(np.einsum("ij,ji->", dense, dense), rel=1e-13, abs=0)


def test_decay_scan_matches_recursion():
    # y[m] = r y[m-1] + x[m] with mixed signs, over 1 to 3 block levels
    rng = np.random.default_rng(5)
    for rate in (0.0, 1e-3, 0.7, 800.0):
        for n in (1, 63, 64, 65, 5000):
            x = rng.standard_normal((2, n))
            ref = np.empty_like(x)
            acc = np.zeros(2)
            for m in range(n):
                acc = math.exp(-rate) * acc + x[:, m]
                ref[:, m] = acc
            got = theory._DecayScan(rate, n)(x)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def test_ef2_quadrature_memory_is_linear_in_cells():
    # 2400 fine cells at T = 50: one dense 2400 x 2400 matrix alone is 46 MB
    p = ModelParams(theta=1.0, hurst=0.6)
    tracemalloc.start()
    try:
        theory.ef2_quadrature(p, 50.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("hurst", [0.55, 0.7])
@pytest.mark.parametrize("horizon", [5.0, 20.0])
def test_ef2_small_theta_limit(hurst, horizon):
    # theta -> 0: E(F_T^2) -> (H(2H-1))^2/(2T) (int int |u-v|^(2H-2))^2 = T^(4H-1)/2,
    # which the exact cell weights reproduce on any mesh
    val = theory.ef2_quadrature(ModelParams(theta=1e-10, hurst=hurst), horizon)
    limit = horizon ** (4.0 * hurst - 1.0) / 2.0
    assert val == pytest.approx(limit, rel=1e-8, abs=0)


def test_ef2_quadrature_regression_and_richardson():
    p = ModelParams(theta=1.0, hurst=0.6)
    val = theory.ef2_quadrature(p, 10.0)
    # frozen from the first verified run; mesh-doubling stability < 1e-4
    assert val == pytest.approx(0.8125141, rel=1e-4)
    finer = theory.ef2_quadrature(p, 10.0, cells=600)
    assert finer == pytest.approx(val, rel=1e-4)


def test_ef2_approaches_a_theta_h():
    p = ModelParams(theta=1.0, hurst=0.6)
    a_val = theory.a_theta_h(p)
    gaps = [abs(theory.ef2_quadrature(p, t) - a_val) / a_val for t in (5.0, 10.0, 20.0, 40.0)]
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]
    assert gaps[3] < 0.06


def test_ef2_guards():
    with pytest.raises(SizeError):
        theory.ef2_quadrature(ModelParams(theta=1.0, hurst=0.6), 100.0)
    with pytest.raises(DomainError):
        theory.ef2_quadrature(ModelParams(theta=1.0, hurst=0.8), 10.0)
    with pytest.raises(DomainError):
        theory.ef2_quadrature(ModelParams(theta=1.0, hurst=0.6), 0.0)


def test_ef2_monte_carlo_cross_check():
    # E(F_T^2) vs 4000 simulated second-chaos functionals
    # F_T = (X_T^2/2 + theta int_0^T X^2 dt - alpha(T)) / sqrt(T), x0 = 0
    p = ModelParams(theta=1.0, hurst=0.6)
    t_end, n, m, n_rep = 10.0, 1000, 2, 4000
    scheme = SamplingScheme(n=n, delta=t_end / n, oversample=m)
    alpha = theory.alpha_n(p, t_end)
    f_sq = np.empty(n_rep)
    for r in range(n_rep):
        x = simulate_path(p, scheme, RngSeed(77, r)).x
        quad_x2 = np.trapezoid(x**2, dx=scheme.delta)
        f = (0.5 * x[-1] ** 2 + p.theta * quad_x2 - alpha) / math.sqrt(t_end)
        f_sq[r] = f * f
    mc = f_sq.mean()
    se = f_sq.std(ddof=1) / math.sqrt(n_rep)
    expect = theory.ef2_quadrature(p, t_end)
    assert abs(mc - expect) <= 3.0 * se + 0.02 * expect


def test_constants_fields_and_modes():
    scheme = SamplingScheme(n=100, delta=0.1)
    c = theory.constants(P17, scheme)
    assert c.ef2_source == "asymptotic"
    assert c.ef2 == theory.a_theta_h(P17)
    assert c.lambda_n == pytest.approx(
        theory.alpha_n(P17, 10.0) / (1.0 * 10.0 * math.sqrt(c.ef2)), rel=1e-13
    )
    assert (c.theta, c.hurst, c.scheme_n, c.scheme_delta) == (1.0, 0.7, 100, 0.1)
    q = theory.constants(P17, scheme, ef2_mode="quadrature")
    assert q.ef2_source == "quadrature"
    assert q.ef2 != c.ef2
    with pytest.raises(DomainError):
        theory.constants(P17, scheme, ef2_mode="exact")


def test_bound_budget_terms_and_total():
    scheme = SamplingScheme(n=10000, delta=10000.0 ** -0.6)
    b = theory.bound_budget(scheme, P17, 0.1, 0.1)
    terms = b.terms()
    assert set(terms) == {"t1", "t2", "t3", "t4", "t5", "t6", "t7"}
    assert all(v > 0 for v in terms.values())
    assert b.total == pytest.approx(sum(terms.values()), rel=1e-12)
    nd = scheme.n * scheme.delta
    assert b.t1 == pytest.approx(1.0 / (0.1 * math.sqrt(nd)), rel=1e-13)
    assert b.t3 == pytest.approx(nd ** (4 * 0.7 - 3), rel=1e-13)
    assert b.t4 == 0.1 and b.t7 == 0.1


def test_bound_budget_shrinks_along_schedule():
    budgets = [
        theory.bound_budget(SamplingScheme.from_gamma(n, 0.6), P17, 0.1, 0.1)
        for n in (500, 2000, 8000)
    ]
    for small, big in zip(budgets[1:], budgets[:-1]):
        for key in ("t1", "t2", "t3", "t5", "t6"):
            assert small.terms()[key] < big.terms()[key]


def test_bound_budget_domain():
    scheme = SamplingScheme(n=100, delta=0.1)
    with pytest.raises(DomainError):
        theory.bound_budget(scheme, P17, 0.0, 0.1)
    with pytest.raises(DomainError):
        theory.bound_budget(scheme, P17, 0.1, 1.0)
    with pytest.raises(DomainError):
        theory.bound_budget(scheme, ModelParams(theta=1.0, hurst=0.8), 0.1, 0.1)


def test_specialized_budget_equals_general():
    # eta = sqrt(n delta^beta), dlt = delta^alpha must reproduce the general
    # budget exactly, term by term
    scheme = SamplingScheme(n=5000, delta=5000.0 ** -0.65)
    alpha, beta = 0.3, 1.7
    eta = math.sqrt(scheme.n * scheme.delta**beta)
    dlt = scheme.delta**alpha
    gen = theory.bound_budget(scheme, P17, eta, dlt)
    special = theory.specialized_budget(scheme, P17, alpha, beta)
    for key, val in gen.terms().items():
        assert special.terms()[key] == pytest.approx(val, rel=1e-12), key


def test_specialized_budget_warns_on_small_beta():
    scheme = SamplingScheme(n=5000, delta=5000.0 ** -0.65)
    with pytest.warns(UserWarning):
        theory.specialized_budget(scheme, P17, 0.3, 0.8)
    with pytest.raises(DomainError):
        theory.specialized_budget(scheme, P17, 0.8, 1.5)
    with pytest.raises(DomainError):
        theory.specialized_budget(scheme, P17, 0.3, 1.9)


def test_gamma_window():
    lo, hi = theory.gamma_window(0.7)
    assert lo == pytest.approx(1.0 / 1.8, rel=1e-15)
    assert hi == pytest.approx(1.0 / 1.4, rel=1e-15)
    assert lo < 0.6 < hi
    with pytest.raises(DomainError):
        theory.gamma_window(0.75)
    with pytest.raises(DomainError):
        theory.gamma_window(0.5)


# The 20 (H, T) points of the benchmark's theory sweep at theta = 1, n = 1000,
# frozen before Gamma, gamma(a, x) and the E(F_T^2) mesh pass were rewritten
# for speed.  The closed forms and the alpha quadrature must keep every bit;
# E(F_T^2), a sum of many terms, and lambda_n with it, 1e-14 relative.
_SWEEP_ALPHA = {  # (H, T): float.hex of alpha_n, alpha_n_quadrature
    (0.55, 10): ("0x1.4b86d8025a6c9p+2", "0x1.4b86d8025a6cap+2"),
    (0.55, 20): ("0x1.4d337adf685b9p+3", "0x1.4d337adf685bap+3"),
    (0.55, 30): ("0x1.f4a38a4e61748p+3", "0x1.f4a38a4e6174ap+3"),
    (0.55, 40): ("0x1.4e09ccdeadc2ap+4", "0x1.4e09ccdeadc29p+4"),
    (0.55, 50): ("0x1.a1c1d4962acafp+4", "0x1.a1c1d4962acaep+4"),
    (0.6, 10): ("0x1.59867aac1634ap+2", "0x1.59867aac1634cp+2"),
    (0.6, 20): ("0x1.5d0d103e6c71fp+3", "0x1.5d0d103e6c721p+3"),
    (0.6, 30): ("0x1.06ab725d83294p+4", "0x1.06ab725d83294p+4"),
    (0.6, 40): ("0x1.5ed05c9bd189bp+4", "0x1.5ed05c9bd1898p+4"),
    (0.6, 50): ("0x1.b6f546da1fea0p+4", "0x1.b6f546da1fe9bp+4"),
    (0.65, 10): ("0x1.6a25c0f64df7ep+2", "0x1.6a25c0f64df76p+2"),
    (0.65, 20): ("0x1.6fbf62392fe1cp+3", "0x1.6fbf62392fe13p+3"),
    (0.65, 30): ("0x1.1535f3a00b282p+4", "0x1.1535f3a00b279p+4"),
    (0.65, 40): ("0x1.728c3623818d7p+4", "0x1.728c3623818cap+4"),
    (0.65, 50): ("0x1.cfe278a6f7f2fp+4", "0x1.cfe278a6f7f19p+4"),
    (0.7, 10): ("0x1.7d983828af363p+2", "0x1.7d983828af365p+2"),
    (0.7, 20): ("0x1.858b57aab46c4p+3", "0x1.858b57aab46c2p+3"),
    (0.7, 30): ("0x1.26254ca56f2c3p+4", "0x1.26254ca56f2c0p+4"),
    (0.7, 40): ("0x1.8984ed758a5a4p+4", "0x1.8984ed758a59cp+4"),
    (0.7, 50): ("0x1.ece48e45a5884p+4", "0x1.ece48e45a5878p+4"),
}
_SWEEP_LIMITS = {  # H: float.hex of a_theta_h, sigma_h2
    0.55: ("0x1.5914d1c7f841ap-1", "0x1.3b1ac6e93fea2p+1"),
    0.6: ("0x1.e670fdf036bd8p-1", "0x1.90b410d07f01fp+1"),
    0.65: ("0x1.7887d66883d01p+0", "0x1.149d0048267f5p+2"),
    0.7: ("0x1.787c038153208p+1", "0x1.e7feba5a25c29p+2"),
}
_SWEEP_EF2 = {  # (H, T): ef2 by quadrature, lambda_n from it
    (0.55, 10): (0.6160737970748351, 0.6599669871176392),
    (0.55, 20): (0.6440779786494325, 0.6487198976201888),
    (0.55, 30): (0.6536455151306785, 0.6450333273914256),
    (0.55, 40): (0.6585038644080697, 0.6431867717897226),
    (0.55, 50): (0.6614529878584211, 0.6420730085909209),
    (0.6, 10): (0.8125141160416943, 0.5989415374085009),
    (0.6, 20): (0.8711953413125121, 0.584320571934013),
    (0.6, 30): (0.8926983759095982, 0.5791837803337593),
    (0.6, 40): (0.9041393254757734, 0.5764732443116498),
    (0.6, 50): (0.9113400248140652, 0.5747683831612189),
    (0.65, 10): (1.0932056183870182, 0.5411959784553517),
    (0.65, 20): (1.2148942036109116, 0.5213154958257822),
    (0.65, 30): (1.264486373116293, 0.5135843148274357),
    (0.65, 40): (1.2928209771696224, 0.5092076904420905),
    (0.65, 50): (1.3116598025851058, 0.5063017325798566),
    (0.7, 10): (1.5040438674154446, 0.4861743056267308),
    (0.7, 20): (1.7573327977355018, 0.4591450217503964),
    (0.7, 30): (1.874622103830479, 0.4475735372640321),
    (0.7, 40): (1.9474601499551623, 0.4406073283182211),
    (0.7, 50): (1.9990146442775611, 0.43576715761365736),
}


@pytest.mark.parametrize("hurst, horizon", sorted(_SWEEP_ALPHA))
def test_sweep_points_keep_their_values(hurst, horizon):
    params = ModelParams(theta=1.0, hurst=hurst)
    scheme = SamplingScheme(1000, horizon / 1000)
    consts = theory.constants(params, scheme, "quadrature")
    alpha_quad = theory.alpha_n_quadrature(params, scheme.horizon)
    assert (consts.alpha_n.hex(), alpha_quad.hex()) == _SWEEP_ALPHA[hurst, horizon]
    assert (consts.a_theta_h.hex(), consts.sigma_h2.hex()) == _SWEEP_LIMITS[hurst]
    ef2, lam = _SWEEP_EF2[hurst, horizon]
    assert consts.ef2 == pytest.approx(ef2, rel=1e-14, abs=0)
    assert consts.lambda_n == pytest.approx(lam, rel=1e-14, abs=0)
