import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from fracou.errors import DomainError, SizeError
from fracou.fou import ModelParams, exact_second_moment
from fracou.fbm import (
    FbmGrid,
    RngSeed,
    _embedding_spectrum,
    increment_autocov,
    partial_sums,
    sample_cholesky,
    sample_circulant,
)


def fbm_cov(t, s, hurst):
    return 0.5 * (t ** (2 * hurst) + s ** (2 * hurst) - abs(t - s) ** (2 * hurst))


def test_autocov_lag_zero_is_variance():
    for h in (0.55, 0.7, 0.9):
        for step in (1.0, 0.25, 1e-3):
            grid = FbmGrid(step=step, count=8, hurst=h)
            assert increment_autocov(grid, 0) == pytest.approx(step ** (2 * h), rel=1e-14)


def test_autocov_brownian_case_uncorrelated():
    grid = FbmGrid(step=1.0, count=8, hurst=0.5)
    assert increment_autocov(grid, np.arange(1, 10)) == pytest.approx(0.0, abs=1e-15)


def test_autocov_derived_value():
    # rho(1) = (2^(2H) - 2)/2 at H = 0.7, step 1; frozen high-precision value
    grid = FbmGrid(step=1.0, count=8, hurst=0.7)
    assert increment_autocov(grid, 1) == pytest.approx(0.3195079107728943, rel=1e-13)


def test_autocov_positive_and_decreasing_for_h_above_half():
    grid = FbmGrid(step=1.0, count=8, hurst=0.8)
    rho = increment_autocov(grid, np.arange(0, 50))
    assert np.all(rho > 0)
    assert np.all(np.diff(rho) < 0)


def test_autocov_tail_power_law():
    # rho(k) ~ H(2H-1) k^(2H-2) for large lags
    h = 0.7
    grid = FbmGrid(step=1.0, count=8, hurst=h)
    k = 1000.0
    expect = h * (2 * h - 1) * k ** (2 * h - 2)
    assert increment_autocov(grid, k) == pytest.approx(expect, rel=1e-5)


def test_autocov_consistent_with_fbm_covariance():
    # rho(k) = Cov(B_{(k+1)d} - B_{kd}, B_d) from the fBm covariance function
    h, d = 0.65, 0.3
    grid = FbmGrid(step=d, count=8, hurst=h)
    for k in range(0, 6):
        expect = (
            fbm_cov((k + 1) * d, d, h)
            - fbm_cov(k * d, d, h)
            - (fbm_cov((k + 1) * d, 0.0, h) - fbm_cov(k * d, 0.0, h))
        )
        assert increment_autocov(grid, k) == pytest.approx(expect, rel=1e-12)


def test_autocov_rejects_negative_lag():
    grid = FbmGrid(step=1.0, count=8, hurst=0.7)
    with pytest.raises(DomainError):
        increment_autocov(grid, -1)


def test_grid_validation():
    with pytest.raises(DomainError):
        FbmGrid(step=0.0, count=8, hurst=0.7)
    with pytest.raises(DomainError):
        FbmGrid(step=1.0, count=0, hurst=0.7)
    with pytest.raises(DomainError):
        FbmGrid(step=1.0, count=8, hurst=1.0)
    with pytest.raises(DomainError):
        FbmGrid(step=1.0, count=8, hurst=0.7, theta=-1.0)
    with pytest.raises(DomainError):
        FbmGrid(step=1.0, count=8, hurst=0.5, theta=1.0)
    with pytest.raises(DomainError):
        increment_autocov(FbmGrid(step=1.0, count=8, hurst=0.7, theta=1.0), 2.5)


# --- exponentially weighted increments xi_i (theta > 0) ---------------------


def test_weighted_autocov_lag_zero_is_second_moment():
    # xi_0 = X_delta when x0 = 0, so c(0) = E[X_delta^2]
    for theta in (0.05, 1.0, 5.0):
        for h in (0.55, 0.7, 0.95):
            for step in (0.05, 0.25):
                grid = FbmGrid(step=step, count=4, hurst=h, theta=theta)
                expect = exact_second_moment(ModelParams(theta, h), step)
                assert increment_autocov(grid, 0) == pytest.approx(expect, rel=1e-7)


@pytest.mark.parametrize("hurst", [0.55, 0.7, 0.95])
@pytest.mark.parametrize("theta", [0.3, 2.0])
def test_weighted_autocov_quadratic_form_is_second_moment(theta, hurst):
    # X_{(k+1) delta} = sum_{i<=k} a^(k-i) xi_i with x0 = 0, so the quadratic
    # form sum_{i,j<=k} a^(2k-i-j) c(|i-j|) is E[X_{(k+1) delta}^2]
    step = 0.1
    a = np.exp(-theta * step)
    c = increment_autocov(FbmGrid(step, 51, hurst, theta), np.arange(51))
    for k in (0, 1, 2, 5, 20, 50):
        i = np.arange(k + 1)
        v = a ** (k - i)
        form = v @ c[np.abs(i[:, None] - i[None, :])] @ v
        expect = exact_second_moment(ModelParams(theta, hurst), (k + 1) * step)
        assert form == pytest.approx(expect, rel=1e-7), k


@pytest.mark.parametrize("decay", [25.0, 100.0, 1000.0])
def test_weighted_autocov_fast_decay_matches_adaptive_quadrature(decay):
    # theta * step far above 1: w(s) lives on s ~ 1/decay, where a single
    # 16-point panel on [0, 1] is off by 3e-4 at decay = 100
    step = 0.5
    for h in (0.55, 0.7, 0.95):
        p = 2 * h - 2
        got = increment_autocov(FbmGrid(step, 8, h, decay / step), np.arange(2, 12))
        for k in range(2, 12):
            def f(s):
                return ((k + s) ** p + (k - s) ** p) * (
                    np.exp(-decay * s) - np.exp(-decay * (2 - s))
                )

            ref = scipy.integrate.quad(
                f, 0.0, 1.0, points=[1 / decay, 10 / decay], epsabs=0.0, epsrel=1e-11
            )[0]
            ref *= h * (2 * h - 1) * step ** (2 * h - 1) / (2 * decay / step)
            assert got[k - 2] == pytest.approx(ref, rel=1e-10), (h, k)
        e0 = exact_second_moment(ModelParams(decay / step, h), step)
        assert increment_autocov(FbmGrid(step, 8, h, decay / step), 0) == pytest.approx(
            e0, rel=1e-7
        )


def test_weighted_autocov_tends_to_fgn():
    lags = np.arange(200)
    for h in (0.51, 0.7, 0.99):
        weighted = increment_autocov(FbmGrid(0.1, 8, h, theta=1e-9), lags)
        fgn = increment_autocov(FbmGrid(0.1, 8, h), lags)
        assert np.max(np.abs(weighted - fgn) / fgn) <= 1e-6


@pytest.mark.parametrize("theta", [0.05, 1.0, 5.0, 50.0])
def test_weighted_embedding_positive_across_sizes(theta):
    # no clamping and no Cholesky fallback on the grids the simulator uses
    for h in (0.51, 0.6, 0.7, 0.8, 0.9, 0.99):
        for count in (16, 500, 1000, 8000, 2**17):
            amp = _embedding_spectrum(count**-0.6, count, h, theta)
            assert amp is not None and amp.min() > 0.0, (h, count)


def test_weighted_circulant_vs_cholesky_same_law():
    h, d, count, n = 0.7, 0.2, 64, 4000
    grid = FbmGrid(step=d, count=count, hurst=h, theta=1.0)
    circ = np.empty((n, count))
    chol = np.empty((n, count))
    for r in range(n):
        circ[r] = sample_circulant(grid, RngSeed(13, r)).values
        chol[r] = sample_cholesky(grid, RngSeed(14, r)).values
    assert not sample_circulant(grid, RngSeed(13, 0)).fallback
    bc = np.cumsum(circ, axis=1)
    bh = np.cumsum(chol, axis=1)
    for j in (0, 15, 31, 63):
        p = scipy.stats.ks_2samp(bc[:, j], bh[:, j]).pvalue
        assert p > 1e-3, f"marginal {j}: p={p}"
        p = scipy.stats.ks_2samp(circ[:, j], chol[:, j]).pvalue
        assert p > 1e-3, f"increment {j}: p={p}"


def test_weighted_lagwise_autocov_zscores():
    # empirical Cov(xi_i, xi_{i+k}) per lag, averaged along each draw, within
    # 3.5 standard errors of c(k) at every lag
    count, n = 64, 20000
    grid = FbmGrid(step=0.25, count=count, hurst=0.65, theta=1.5)
    draws = np.array([sample_circulant(grid, RngSeed(8, r)).values for r in range(n)])
    lags = np.arange(count)
    per_draw = np.array(
        [np.mean(draws[:, : count - k] * draws[:, k:], axis=1) for k in lags]
    )
    se = per_draw.std(axis=1, ddof=1) / np.sqrt(n)
    z = np.abs(per_draw.mean(axis=1) - increment_autocov(grid, lags)) / se
    assert z.max() <= 3.5


def test_embedding_spectrum_nonnegative_across_sizes():
    # regression guard: the circulant embedding stays usable on the sizes
    # the simulator produces
    for h in (0.55, 0.6, 0.7, 0.74, 0.85):
        for count in (2**8, 2**12, 2**14):
            eig = _embedding_spectrum(0.01, count, h)
            assert eig is not None
            assert eig.min() >= 0.0


def _complex_fft_draw(grid, seed):
    # reference sampler: the full 2m-point Hermitian vector through a complex
    # FFT, with the eigenvalues recomputed on every draw
    m = grid.count
    rho = increment_autocov(grid, np.arange(m + 1))
    eig = np.fft.fft(np.concatenate([rho, rho[m - 1 : 0 : -1]])).real
    eig = np.clip(eig, 0.0, None)
    rng = seed.generator()
    ends = rng.standard_normal(2)
    ab = rng.standard_normal((m - 1, 2))
    y = np.empty(2 * m, dtype=complex)
    y[0] = np.sqrt(eig[0]) * ends[0]
    y[m] = np.sqrt(eig[m]) * ends[1]
    y[1:m] = np.sqrt(eig[1:m] / 2.0) * (ab[:, 0] + 1j * ab[:, 1])
    y[m + 1 :] = np.conj(y[1:m][::-1])
    return np.fft.fft(y)[:m].real / np.sqrt(2 * m)


@pytest.mark.parametrize("hurst", [0.55, 0.7, 0.95])
@pytest.mark.parametrize("count", [1, 2, 3, 257, 4096])
def test_circulant_matches_complex_fft_oracle(count, hurst):
    # the half-spectrum real FFT gives the reference realization of each
    # (seed, stream), not just the same law
    grid = FbmGrid(step=0.05, count=count, hurst=hurst)
    for stream in range(3):
        seed = RngSeed(2718, stream)
        got = sample_circulant(grid, seed).values
        ref = _complex_fft_draw(grid, seed)
        assert got.shape == (count,)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_circulant_determinism_and_stream_independence():
    grid = FbmGrid(step=0.1, count=256, hurst=0.7)
    a = sample_circulant(grid, RngSeed(42, 3)).values
    b = sample_circulant(grid, RngSeed(42, 3)).values
    c = sample_circulant(grid, RngSeed(42, 4)).values
    d = sample_circulant(grid, RngSeed(43, 3)).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("value", [-1, 2**63, 2**64 - 1, 3.0])
def test_rng_seed_rejects_keys_outside_philox_range(value):
    # numpy rounds key ints >= 2^63 through float64 (2^64 - 1 became key 0)
    with pytest.raises(DomainError):
        RngSeed(value)
    with pytest.raises(DomainError):
        RngSeed(0, value)


def test_rng_seed_largest_key_is_exact():
    gen = RngSeed(2**63 - 1, 2**63 - 2).generator()
    assert gen.bit_generator.state["state"]["key"].tolist() == [2**63 - 1, 2**63 - 2]


def test_cholesky_determinism():
    grid = FbmGrid(step=0.1, count=64, hurst=0.7)
    a = sample_cholesky(grid, RngSeed(7, 0)).values
    b = sample_cholesky(grid, RngSeed(7, 0)).values
    assert np.array_equal(a, b)
    assert a.shape == (64,)


def test_cholesky_size_guard():
    grid = FbmGrid(step=0.1, count=5000, hurst=0.7)
    with pytest.raises(SizeError):
        sample_cholesky(grid, RngSeed(0))


def test_sample_metadata():
    grid = FbmGrid(step=0.1, count=32, hurst=0.7)
    circ = sample_circulant(grid, RngSeed(1))
    chol = sample_cholesky(grid, RngSeed(1))
    assert circ.method == "circulant" and not circ.fallback
    assert chol.method == "cholesky" and not chol.fallback


def test_partial_sums_shape_and_telescoping():
    grid = FbmGrid(step=0.1, count=100, hurst=0.7)
    incs = sample_circulant(grid, RngSeed(5))
    b = partial_sums(incs)
    assert b.shape == (101,)
    assert b[0] == 0.0
    assert np.allclose(np.diff(b), incs.values, rtol=0, atol=1e-12)


def test_single_increment_marginal_variance():
    # Var(B_d) = d^(2H): 20000 one-point draws, 3-sigma band for the
    # sample variance of a chi-square with 1 dof per draw
    h, d, n = 0.7, 0.25, 20000
    grid = FbmGrid(step=d, count=1, hurst=h)
    vals = np.array(
        [sample_circulant(grid, RngSeed(99, r)).values[0] for r in range(n)]
    )
    var = d ** (2 * h)
    se = var * np.sqrt(2.0 / (n - 1))
    assert abs(np.var(vals, ddof=1) - var) <= 3 * se
    assert abs(np.mean(vals)) <= 3 * np.sqrt(var / n)


def test_empirical_covariance_matches_fbm_kernel():
    # E[B_t B_s] on a small grid vs the fBm covariance, 3-sigma entrywise
    h, d, count, n = 0.65, 0.5, 8, 20000
    grid = FbmGrid(step=d, count=count, hurst=h)
    paths = np.empty((n, count + 1))
    for r in range(n):
        paths[r] = partial_sums(sample_circulant(grid, RngSeed(123, r)))
    t = d * np.arange(count + 1)
    prod = paths[:, :, None] * paths[:, None, :]
    mean = prod.mean(axis=0)
    se = prod.std(axis=0, ddof=1) / np.sqrt(n)
    expect = fbm_cov(t[:, None], t[None, :], h)
    gap = np.abs(mean - expect)
    assert np.all(gap[1:, 1:] <= 3.5 * se[1:, 1:])


def test_circulant_vs_cholesky_same_law():
    # two-sample KS on a few marginals of the partial sums
    h, d, count, n = 0.6, 0.2, 64, 4000
    grid = FbmGrid(step=d, count=count, hurst=h)
    circ = np.empty((n, count))
    chol = np.empty((n, count))
    for r in range(n):
        circ[r] = sample_circulant(grid, RngSeed(11, r)).values
        chol[r] = sample_cholesky(grid, RngSeed(12, r)).values
    bc = np.cumsum(circ, axis=1)
    bh = np.cumsum(chol, axis=1)
    for j in (0, 15, 31, 63):
        p = scipy.stats.ks_2samp(bc[:, j], bh[:, j]).pvalue
        assert p > 1e-3, f"marginal {j}: p={p}"
