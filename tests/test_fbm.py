import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from fracou import fbm
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
    sample_rows,
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


def test_autocov_large_lags_against_mpmath():
    # step^(2H) ((k+1)^(2H) - 2 k^(2H) + (k-1)^(2H)) / 2 at 40 digits
    h, step = 0.7, 0.3
    grid = FbmGrid(step=step, count=8, hurst=h)
    for k in (6, 100, 8000, 10**6):
        with mpmath.workdps(40):
            p, km = mpmath.mpf(2 * h), mpmath.mpf(k)
            ref = mpmath.mpf(step) ** p * ((km + 1) ** p - 2 * km**p + (km - 1) ** p) / 2
            assert abs(increment_autocov(grid, k) - ref) <= 1e-13 * ref, k


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


def _weighted_autocov_mp(theta, step, hurst, k):
    """c(k) from the defining integral at 50 digits.  With t = theta step |s|,
    I(k) = (1/c) int_0^c ((k + t/c)^p + |k - t/c|^p)(e^-t - e^(t-2c)) dt;
    at lag 0 the further substitution u = t^(p+1) removes the t^p singularity."""
    with mpmath.workdps(50):
        th, d, h = mpmath.mpf(theta), mpmath.mpf(step), mpmath.mpf(hurst)
        c, p = th * d, 2 * h - 2
        pts = [0] + [m for m in (1, 10, 60) if m < c] + [c]

        def weight(t):
            return mpmath.exp(-t) - mpmath.exp(t - 2 * c)

        def lag0(u):
            return 2 * weight(u ** (1 / (p + 1))) / (p + 1)

        def lag_k(t):
            return ((k + t / c) ** p + abs(k - t / c) ** p) * weight(t)

        if k == 0:
            integral = mpmath.quad(lag0, [v ** (p + 1) for v in pts]) / c ** (p + 1)
        else:
            integral = mpmath.quad(lag_k, pts) / c
        return h * (2 * h - 1) * d ** (2 * h - 1) / (2 * th) * integral


@pytest.mark.parametrize("decay", [1e2, 1e10, 1e50, 1e100, 1e300])
def test_weighted_autocov_extreme_decay_matches_mpmath(decay):
    # theta * step far beyond the decay-1000 test: lag 0 peaks on s ~ 1/decay,
    # which adaptive quadrature on [0, 1] misses (c(0) was 1.6e7 at 1e100, not 0.55)
    theta = 2.0
    for h in (0.6, 0.9):
        got = increment_autocov(FbmGrid(decay / theta, 4, h, theta), np.arange(3))
        for k in range(3):
            ref = _weighted_autocov_mp(theta, decay / theta, h, k)
            assert abs(got[k] - ref) <= 1e-10 * ref, (h, k)
        if decay >= 1e10:  # lag 0 at its limit H Gamma(2H) theta^(-2H)
            limit = h * math.gamma(2 * h) * theta ** (-2 * h)
            assert got[0] == pytest.approx(limit, rel=1e-14)


@pytest.mark.parametrize("lag", [0, 1])
def test_singular_moments_match_mpmath(lag):
    # int_0^1 s^p w(s) ds (lag 0) and int_0^1 (1-s)^p w(s) ds (lag 1) against
    # Kummer's function at 40 digits: int_0^1 s^p e^(bs) ds = M(p+1, p+2, b)/(p+1).
    # H = 0.51 is the hard case for a quadrature rule: s^p = s^-0.98 is barely integrable.
    cs = [1e-12, 1e-8, 1e-4, 1e-3, 0.0046, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100]
    for h in (0.51, 0.55, 0.6, 0.7, 0.8, 0.9, 0.99):
        for c in cs:
            with mpmath.workdps(40):
                cm, pm = mpmath.mpf(c), 2 * mpmath.mpf(h) - 2
                down = mpmath.hyp1f1(pm + 1, pm + 2, -cm) / (pm + 1)
                up = mpmath.hyp1f1(pm + 1, pm + 2, cm) / (pm + 1)
                if lag == 0:  # w(s) = e^(-cs) - e^(-2c) e^(cs)
                    ref = down - mpmath.exp(-2 * cm) * up
                else:  # w(1-v) = e^(-c) (e^(cv) - e^(-cv))
                    ref = mpmath.exp(-cm) * (up - down)
            got = fbm._singular_moment(c, 2 * h - 2, lag)
            assert abs(got - ref) <= 1e-12 * ref, (h, c)


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
    circ, fallback = sample_rows(grid, 13, 0, n)
    chol = fbm._cholesky_rows(grid, 14, 0, n)
    assert not fallback
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
    draws, _ = sample_rows(grid, 8, 0, n)
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


@pytest.mark.parametrize("stream", [0, 1, 2**63 - 1])
def test_rekeyed_philox_matches_fresh_generator(stream):
    # re-keying a used generator gives the bits of a fresh one, even when
    # the last draw left a spare 32-bit half and a partly used buffer
    seed = 2**62 + 5
    bits = np.random.Philox(key=[3, 9])
    rng = np.random.Generator(bits)
    rng.integers(0, 2**32, size=5, dtype=np.uint32)
    state = bits.state
    assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    fbm._rekey(bits, seed, stream)
    fresh = RngSeed(seed, stream).generator()
    assert np.array_equal(rng.standard_normal(301), fresh.standard_normal(301))
    # 32-bit draws, which use the spare half, agree as well
    ints = rng.integers(0, 2**32, size=3, dtype=np.uint32)
    assert np.array_equal(ints, fresh.integers(0, 2**32, size=3, dtype=np.uint32))


@pytest.mark.parametrize("first", [0, 2**63 - 3])
def test_stream_normals_rows_match_fresh_generators(first):
    rows = np.empty((3, 17))
    fbm._stream_normals(11, first, rows)
    for r, row in enumerate(rows):
        assert np.array_equal(row, RngSeed(11, first + r).generator().standard_normal(17))


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_sample_rows_match_single_draws(theta):
    # one batched irfft computes every row as the one-row draw does
    grid = FbmGrid(step=0.05, count=257, hurst=0.7, theta=theta)
    values, fallback = sample_rows(grid, 2718, 40, 9)
    assert not fallback and values.shape == (9, 257)
    for r, row in enumerate(values):
        assert np.array_equal(row, sample_circulant(grid, RngSeed(2718, 40 + r)).values)


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
    vals = sample_rows(grid, 99, 0, n)[0][:, 0]
    var = d ** (2 * h)
    se = var * np.sqrt(2.0 / (n - 1))
    assert abs(np.var(vals, ddof=1) - var) <= 3 * se
    assert abs(np.mean(vals)) <= 3 * np.sqrt(var / n)


def test_empirical_covariance_matches_fbm_kernel():
    # E[B_t B_s] on a small grid vs the fBm covariance, 3-sigma entrywise
    h, d, count, n = 0.65, 0.5, 8, 20000
    grid = FbmGrid(step=d, count=count, hurst=h)
    paths = np.zeros((n, count + 1))
    np.cumsum(sample_rows(grid, 123, 0, n)[0], axis=1, out=paths[:, 1:])
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
    circ, _ = sample_rows(grid, 11, 0, n)
    chol = fbm._cholesky_rows(grid, 12, 0, n)
    bc = np.cumsum(circ, axis=1)
    bh = np.cumsum(chol, axis=1)
    for j in (0, 15, 31, 63):
        p = scipy.stats.ks_2samp(bc[:, j], bh[:, j]).pvalue
        assert p > 1e-3, f"marginal {j}: p={p}"
