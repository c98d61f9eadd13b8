import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracou
from fracou import lse, theory
from fracou.errors import ConsistencyError, DegeneratePathError, DomainError
from fracou.fbm import FbmGrid, IncrementSeries, RngSeed
from fracou.fou import ModelParams, SamplingScheme, simulate_path


def test_validation():
    with pytest.raises(DomainError):
        lse.estimate_series([1.0, 2.0], 0.1)
    with pytest.raises(DomainError):
        lse.estimate_series([1.0, np.nan, 2.0], 0.1)
    with pytest.raises(DomainError):
        lse.estimate_series([1.0, 2.0, 3.0], 0.0)


def test_zero_path_is_degenerate():
    with pytest.raises(DegeneratePathError):
        lse.estimate_series(np.zeros(10), 0.1)


def test_noiseless_decay_closed_form():
    # for x_i = e^(-theta i delta) the LSE collapses to (1 - e^(-theta delta))/delta
    theta, delta, n = 1.0, 0.05, 200
    x = np.exp(-theta * delta * np.arange(n + 1))
    res = lse.estimate_series(x, delta)
    expect = (1.0 - math.exp(-theta * delta)) / delta
    assert res.theta_hat == pytest.approx(expect, rel=1e-13)
    assert res.n == n
    assert res.delta == delta


def test_noiseless_decay_regression_value():
    # frozen value of the closed form above at theta=1, delta=0.1
    x = np.exp(-0.1 * np.arange(101))
    res = lse.estimate_series(x, 0.1)
    assert res.theta_hat == pytest.approx(0.9516258196404042, rel=1e-12)


def test_scale_invariance():
    rng = np.random.default_rng(3)
    x = np.cumsum(rng.standard_normal(500)) * 0.1 + 1.0
    base = lse.estimate_series(x, 0.02).theta_hat
    for c in (7.3, -1.0, 1e-4, 1e6):
        scaled = lse.estimate_series(c * x, 0.02).theta_hat
        assert scaled == pytest.approx(base, rel=1e-14)


def test_power_of_two_scaling_is_bit_exact_beyond_float_range():
    # x 2^600 overflows both plain sums, x 2^-600 underflows the second; the
    # sums are then redone on x 2^-k, which reproduces theta_hat bit for bit
    rng = np.random.default_rng(8)
    x = np.cumsum(rng.standard_normal(400)) * 0.1 + 0.3
    base = lse.estimate_series(x, 0.02)
    for scale in (2.0**600, 2.0**-600, -(2.0**1000), 2.0**-1000):
        res = lse.estimate_series(x * scale, 0.02)
        assert res.theta_hat == base.theta_hat, scale
        assert math.isfinite(res.numerator) and math.isfinite(res.denominator)
        assert res.theta_hat == res.numerator / res.denominator


def test_path_near_float_max_estimates_without_warning():
    # np.diff itself would overflow on these values
    x = np.array([1.7e308, -1.7e308, 1e308, 5.0])
    res = lse.estimate_series(x, 0.1)
    assert res.theta_hat == lse.estimate_series(x * 2.0**-1000, 0.1).theta_hat


def test_sums_overflowing_across_chunks_are_rescaled():
    # each 2^13-element partial sum of x_i^2 is finite, their total is not
    x = 1.3e152 * np.cos(np.arange(3 * 2**13))
    res = lse.estimate_series(x, 0.1)
    assert res.theta_hat == lse.estimate_series(x * 2.0**-600, 0.1).theta_hat
    assert math.isfinite(res.numerator) and math.isfinite(res.denominator)


@pytest.mark.parametrize("n", [40, lse._SUM_CHUNK + 1, lse._SUM_CHUNK + 2])
def test_block_sums_equal_one_path_sums(n):
    # a block takes one difference and two dots per row; every row must get
    # the bits of the one-path call, also a degenerate row (NaN denominator),
    # rows beyond the float range, and rows that np.diff would overflow
    rng = np.random.default_rng(n)
    base = np.cumsum(rng.standard_normal((3, n)), axis=1) * 0.1 + 0.3
    rows = [base[0], np.zeros(n), base[1] * 2.0**600, base[2] * 2.0**-600, base[0] * -3.0]
    far = np.resize([1.7e308, -1.7e308, 1e308, 5.0], n)
    for block in (np.array(rows), np.array(rows + [far])):
        num, den = lse.ratio_terms(block, 0.02)
        for r, x in enumerate(block):
            one = lse.ratio_terms(x, 0.02)
            assert [float(num[r]).hex(), float(den[r]).hex()] == [v.hex() for v in one], r
    assert np.isnan(den).tolist() == [False, True] + [False] * (len(block) - 2)
    assert np.isfinite(num).all()


def test_estimator_components_consistent():
    rng = np.random.default_rng(4)
    x = rng.standard_normal(50)
    res = lse.estimate_series(x, 0.5)
    assert res.theta_hat == pytest.approx(res.numerator / res.denominator, rel=1e-15)
    prev = x[:-1]
    assert res.numerator == pytest.approx(-np.sum(prev * np.diff(x)), rel=1e-12)
    assert res.denominator == pytest.approx(0.5 * np.sum(prev**2), rel=1e-12)


@pytest.mark.parametrize("n", [100, 8000, 100000])
def test_sums_match_fsum(n):
    # the telescoped dot-product sums against exactly rounded math.fsum sums
    scheme = SamplingScheme.from_gamma(n, 0.6, oversample=2)
    for theta in (0.05, 1.0, 5.0):
        for hurst in (0.55, 0.7, 0.95):
            for x0 in (0.0, -2.5):
                params = ModelParams(theta=theta, hurst=hurst, x0=x0)
                x = simulate_path(params, scheme, RngSeed(77, n)).x
                res = lse.estimate_series(x, scheme.delta)
                prev = x[:-1]
                num = -math.fsum(prev * np.diff(x))
                den = scheme.delta * math.fsum(prev * prev)
                assert res.numerator == pytest.approx(num, rel=1e-13, abs=0)
                assert res.denominator == pytest.approx(den, rel=1e-13, abs=0)


def test_theta_hat_does_not_depend_on_blas_threads():
    # OpenBLAS splits a dot of more than about 1e4 elements across its
    # threads; at n = 20000 this path's theta_hat differed in the last bit
    # between one thread and two before the sums were chunked
    code = (
        "from fracou import lse\n"
        "from fracou.fbm import RngSeed\n"
        "from fracou.fou import ModelParams, SamplingScheme, simulate_path\n"
        "scheme = SamplingScheme.from_gamma(20000, 0.6)\n"
        "path = simulate_path(ModelParams(1.0, 0.7), scheme, RngSeed(1, 0))\n"
        "print(repr(lse.estimate(path).theta_hat))\n"
    )
    src = str(Path(fracou.__file__).resolve().parents[1])
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs


def test_estimate_matches_estimate_series():
    params = ModelParams(theta=1.0, hurst=0.7)
    scheme = SamplingScheme(n=64, delta=0.1, oversample=2)
    path = simulate_path(params, scheme, RngSeed(21))
    a = lse.estimate(path)
    b = lse.estimate_series(path.x, scheme.delta)
    assert a == b


def test_studentize_value_and_checks():
    params = ModelParams(theta=1.0, hurst=0.7)
    scheme = SamplingScheme(n=100, delta=0.1)
    consts = theory.constants(params, scheme)
    est = lse.EstimateResult(theta_hat=1.3, numerator=1.0, denominator=1.0,
                             n=100, delta=0.1)
    z = lse.studentize(est, params, consts)
    assert z == pytest.approx(consts.lambda_n * math.sqrt(10.0) * 0.3, rel=1e-13)

    with pytest.raises(ConsistencyError):
        lse.studentize(
            lse.EstimateResult(1.3, 1.0, 1.0, n=99, delta=0.1), params, consts
        )
    other = ModelParams(theta=2.0, hurst=0.7)
    with pytest.raises(ConsistencyError):
        lse.studentize(est, other, consts)


def test_studentize_sample_is_the_vector_form():
    # elementwise the scalar studentize, with the sqrt(T) (theta_hat - theta)
    # error the mc variance ratio uses
    params = ModelParams(theta=1.0, hurst=0.7)
    scheme = SamplingScheme(n=100, delta=0.1)
    consts = theory.constants(params, scheme)
    theta_hats = np.array([0.7, 1.0, 1.3, 2.9e-3, 41.0])
    root_t_err, student = lse.studentize_sample(theta_hats, params, consts)
    assert np.array_equal(root_t_err, math.sqrt(scheme.horizon) * (theta_hats - 1.0))
    assert np.array_equal(student, consts.lambda_n * root_t_err)
    for value, z in zip(theta_hats, student):
        est = lse.EstimateResult(float(value), 1.0, 1.0, n=100, delta=0.1)
        assert z == lse.studentize(est, params, consts)
    with pytest.raises(ConsistencyError):
        lse.studentize_sample(theta_hats, ModelParams(theta=2.0, hurst=0.7), consts)


def test_full_pipeline_regression():
    # one seeded path through simulate -> estimate -> studentize; values
    # frozen from the first verified run as a change detector
    params = ModelParams(theta=1.0, hurst=0.7)
    scheme = SamplingScheme(n=1000, delta=0.1, oversample=4)
    path = simulate_path(params, scheme, RngSeed(2024, 1))
    res = lse.estimate(path)
    consts = theory.constants(params, scheme)
    z = lse.studentize(res, params, consts)
    assert res.theta_hat == pytest.approx(0.33491279548280706, rel=1e-12)
    assert z == pytest.approx(-2.3989445966634877, rel=1e-12)
