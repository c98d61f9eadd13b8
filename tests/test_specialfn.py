import math

import mpmath
import numpy as np
import pytest

from fracou import theory
from fracou.errors import DomainError
from fracou.fou import ModelParams, SamplingScheme
from fracou.specialfn import (
    gamma,
    gamma_body_rule,
    gauss_jacobi,
    lower_incomplete_gamma,
    power_second_difference,
    std_normal_cdf,
)

mpmath.mp.dps = 30


def test_gamma_known_values():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    # high-precision oracle value, computed with mpmath before freezing
    assert gamma(1.4) == pytest.approx(0.8872638175030753, rel=1e-13)


def test_gamma_against_mpmath_grid():
    rng = np.random.default_rng(2026)
    xs = rng.uniform(0.05, 10.0, size=300)
    for x in xs:
        ref = float(mpmath.gamma(x))
        assert gamma(float(x)) == pytest.approx(ref, rel=1e-12)


def test_gamma_recurrence_identity():
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.1, 5.0, size=1000)
    lhs = np.array([gamma(x + 1.0) for x in xs])
    rhs = xs * np.array([gamma(x) for x in xs])
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-11


def test_gamma_duplication_for_hurst_range():
    # (2H-1) Gamma(2H-1) = Gamma(2H) keeps the alpha rate closed form coherent
    for h in np.linspace(0.51, 0.99, 49):
        lhs = (2 * h - 1) * gamma(2 * h - 1)
        assert lhs == pytest.approx(gamma(2 * h), rel=1e-12)


#: arguments outside the domain of Gamma and of gamma(a, x) in a; x = 0 is in it
_BAD_ARGS = [0.0, -1.0, math.nan, math.inf, -math.inf]


def _scalar_and_array_forms(bad):
    return [bad, np.float64(bad), np.array(bad), np.array([1.0, bad]), [bad, 2.0]]


def test_gamma_domain_errors():
    # on the 0-d branch and on the array path alike
    for bad in _BAD_ARGS:
        for arg in _scalar_and_array_forms(bad):
            with pytest.raises(DomainError):
                gamma(arg)


def test_lower_incomplete_gamma_closed_form_a1():
    for x in (0.0, 0.3, 1.0, 5.0):
        assert lower_incomplete_gamma(1.0, x) == pytest.approx(1.0 - math.exp(-x), abs=1e-14)


def test_lower_incomplete_gamma_at_zero():
    assert lower_incomplete_gamma(0.7, 0.0) == 0.0


def test_lower_incomplete_gamma_derived_value():
    # mpmath.gammainc(0.4, 0, 2) frozen before the build
    assert lower_incomplete_gamma(0.4, 2.0) == pytest.approx(2.1452867813379420, rel=1e-10)


def test_lower_incomplete_gamma_monotone_and_limit():
    for a in (0.1, 0.4, 1.3, 3.0):
        xs = np.linspace(0.0, 50.0, 201)
        vals = np.array([lower_incomplete_gamma(a, x) for x in xs])
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[-1] / gamma(a) >= 1.0 - 1e-9


def test_lower_incomplete_gamma_domain():
    for bad in _BAD_ARGS:
        for arg in _scalar_and_array_forms(bad):
            with pytest.raises(DomainError):
                lower_incomplete_gamma(arg, 1.0)
            if bad != 0.0:  # gamma(a, 0) = 0 is in the domain
                with pytest.raises(DomainError):
                    lower_incomplete_gamma(1.0, arg)
    with pytest.raises(DomainError):
        lower_incomplete_gamma(1.0, -0.1)
    assert lower_incomplete_gamma(1.0, np.array([0.0, 1.0]))[0] == 0.0


def test_lower_incomplete_gamma_against_mpmath():
    # the exponents of alpha_n over the CLT range H in (1/2, 3/4), and more;
    # x = a + 1 is where the series hands over to the continued fraction
    hursts = np.linspace(0.5, 0.75, 12)[1:-1]
    exponents = np.concatenate([2.0 * hursts - 1.0, 2.0 * hursts, [0.05, 1.0, 1.5]])
    for a in exponents:
        xs = np.concatenate([np.logspace(-12.0, 4.0, 49), a + 1.0 + np.array([-1e-3, 0.0, 1e-3])])
        got = lower_incomplete_gamma(a, xs)
        for x, value in zip(xs, got):
            ref = mpmath.gammainc(mpmath.mpf(a), 0, mpmath.mpf(x))
            assert abs(value - ref) <= 1e-13 * ref, (a, x)
    assert lower_incomplete_gamma(np.array([1.0, 2.0]), 3.0).shape == (2,)


def test_std_normal_cdf_against_mpmath():
    # from the lower tail, where Phi is 3e-316 at z = -38, to 1 - 1e-19 at z = 9
    zs = np.linspace(-38.0, 9.0, 4000)
    got = std_normal_cdf(zs)
    ref = np.array([float(mpmath.ncdf(z)) for z in zs])
    assert np.max(np.abs(got - ref)) <= 2e-16


def test_std_normal_cdf_values():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(8.0) >= 1.0 - 1e-15
    assert std_normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-14)


def test_std_normal_cdf_symmetry_and_grid():
    zs = np.arange(-8.0, 8.0 + 1e-9, 1e-2)
    vals = std_normal_cdf(zs)
    assert np.all(np.diff(vals) >= 0.0)
    assert np.max(np.abs(vals + std_normal_cdf(-zs) - 1.0)) <= 1e-12
    ref = np.array([float((1 + mpmath.erf(z / mpmath.sqrt(2))) / 2) for z in zs[::20]])
    assert np.max(np.abs(vals[::20] - ref)) <= 1e-12


def test_std_normal_cdf_rejects_nan():
    with pytest.raises(DomainError):
        std_normal_cdf(float("nan"))


def test_power_second_difference_against_mpmath():
    # the three powers cancel like k^2 eps; the binomial series above lag 6
    # must hold 1e-13 where they lost up to 1e-8 (lag 2399 at H = 0.6)
    lags = np.concatenate([np.arange(0.0, 40.0), [5.5, 6.5, 2399.0, 8000.0, 1e5, 1e8]])
    for hurst in (0.3, 0.55, 0.6, 0.7, 0.9):
        p = 2.0 * hurst
        got = power_second_difference(lags, p)
        with mpmath.workdps(40):
            pm = mpmath.mpf(p)
            for k, value in zip(lags, got):
                km = mpmath.mpf(k)
                ref = (km + 1) ** pm - 2 * km**pm + abs(km - 1) ** pm
                assert abs(value - ref) <= 1e-13 * abs(ref), (hurst, k)
    assert power_second_difference(9.0, 1.4).shape == ()


@pytest.mark.parametrize("p", [-0.98, -0.6, -0.1, 0.0, 0.02, 0.48])
@pytest.mark.parametrize("count", [1, 2, 5, 24, 64])
def test_gauss_jacobi_moments(count, p):
    # exact for v^k, k < 2 count: int_0^1 v^(p+k) dv = 1/(p+k+1), to 1e-14
    # relative for the large low moments (50 at p = -0.98) and absolute for
    # the small high ones, which carry the node rounding times k
    nodes, weights = gauss_jacobi(count, p)
    for k in range(2 * count):
        got = math.fsum(weights * nodes**k)
        assert got == pytest.approx(1.0 / (p + k + 1.0), rel=1e-14, abs=1e-14), k


def test_gauss_jacobi_nodes_and_cache():
    nodes, weights = gauss_jacobi(24, -0.6)
    assert 0.0 < nodes[0] and nodes[-1] < 1.0
    assert np.all(np.diff(nodes) > 0.0) and np.all(weights > 0.0)
    assert gauss_jacobi(24, -0.6)[0] is nodes
    for arr in (nodes, weights):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    for count, p in ((0, 0.5), (4, -1.0), (4, float("nan"))):
        with pytest.raises(DomainError):
            gauss_jacobi(count, p)


def test_gamma_body_rule_broadcasts_and_integrates():
    # int_1^u z^q e^(-z) dz for a row of upper ends, against mpmath
    q = -0.9
    upper = np.array([1.0, 1.5, 10.0, 45.0])
    z, w = gamma_body_rule(q, upper)
    assert z.shape == w.shape == (4, 64)
    got = (w * np.exp(-z)).sum(axis=-1)
    for u, val in zip(upper, got):
        ref = float(mpmath.gammainc(q + 1.0, 1.0, u))
        assert val == pytest.approx(ref, rel=1e-13, abs=1e-300)


#: a Python float, a numpy scalar and a 0-d array: each is one scalar argument
_SCALAR_FORMS = [float, np.float64, np.array]


@pytest.mark.parametrize("form", _SCALAR_FORMS + [int])
def test_gamma_scalar_forms_give_the_array_call_bits(form):
    xs = [1.0, 3.0, 7.0] if form is int else [0.25, 1.0, 1.4, 3.5, 170.5]
    by_array = gamma(np.array(xs))
    for x, expect in zip(xs, by_array):
        got = gamma(form(x))
        assert type(got) is float
        assert got.hex() == float(expect).hex(), x


@pytest.mark.parametrize("form", _SCALAR_FORMS + [int])
def test_lower_incomplete_gamma_scalar_forms_give_the_array_call_bits(form):
    if form is int:
        pairs = [(1.0, 0.0), (1.0, 3.0), (2.0, 1.0), (3.0, 40.0)]
    else:
        pairs = [(0.1, 0.0), (0.4, 0.5), (0.4, 1.4), (1.3, 2.0), (1.3, 30.0)]
    a_arr, x_arr = np.array(pairs).T
    by_array = lower_incomplete_gamma(a_arr, x_arr)
    for (a, x), expect in zip(pairs, by_array):
        got = lower_incomplete_gamma(form(a), form(x))
        assert type(got) is float
        assert got.hex() == float(expect).hex(), (a, x)


def test_theory_constants_build_no_ufunc_per_call(monkeypatch):
    # every special function call of the constants takes scalars, which the
    # 0-d branch evaluates without np.frompyfunc

    def refuse(*args, **kwargs):
        raise AssertionError("a scalar argument went through np.frompyfunc")

    monkeypatch.setattr(np, "frompyfunc", refuse)
    params = ModelParams(theta=1.0, hurst=0.6)
    consts = theory.constants(params, SamplingScheme(1000, 0.01), "quadrature")
    assert math.isfinite(consts.lambda_n) and math.isfinite(consts.alpha_n)
    assert math.isfinite(theory.lambda_limit(params))
