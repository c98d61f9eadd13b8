import io
import math

import numpy as np
import pytest
import scipy.signal
import scipy.stats

from fracou.errors import DomainError, SizeError
from fracou.fbm import FbmGrid, IncrementSeries, RngSeed, sample_circulant
from fracou.fou import (
    ModelParams,
    ObservedPath,
    SamplingScheme,
    exact_second_moment,
    read_path_csv,
    simulate_path,
    write_path_csv,
)

PARAMS = ModelParams(theta=1.0, hurst=0.7)


def _zero_increments(scheme, hurst):
    grid = FbmGrid(step=scheme.fine_step, count=scheme.n * scheme.oversample, hurst=hurst)
    return IncrementSeries(grid=grid, values=np.zeros(grid.count), method="injected")


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(theta=0.0, hurst=0.7)
    with pytest.raises(DomainError):
        ModelParams(theta=1.0, hurst=0.5)
    with pytest.raises(DomainError):
        ModelParams(theta=1.0, hurst=1.0)
    with pytest.raises(DomainError):
        ModelParams(theta=1.0, hurst=0.7, x0=math.inf)


def test_scheme_validation_and_from_gamma():
    with pytest.raises(DomainError):
        SamplingScheme(n=1, delta=0.1)
    with pytest.raises(DomainError):
        SamplingScheme(n=10, delta=0.0)
    with pytest.raises(DomainError):
        SamplingScheme.from_gamma(10, 1.5)
    s = SamplingScheme.from_gamma(1000, 0.6)
    assert s.delta == pytest.approx(1000.0 ** -0.6, rel=1e-15)
    assert s.horizon == pytest.approx(1000.0 ** 0.4, rel=1e-15)
    assert s.fine_step == pytest.approx(s.delta / 8, rel=1e-15)


def test_fine_step_guard():
    scheme = SamplingScheme(n=2**24, delta=0.01, oversample=8)
    with pytest.raises(SizeError):
        simulate_path(PARAMS, scheme, RngSeed(0))


def test_noiseless_path_is_exact_exponential_decay():
    # with zero noise the recursion must reproduce x0 e^(-theta t) exactly
    params = ModelParams(theta=1.0, hurst=0.7, x0=1.0)
    scheme = SamplingScheme(n=20, delta=0.1, oversample=8)
    path = simulate_path(
        params, scheme, RngSeed(0), increments=_zero_increments(scheme, params.hurst)
    )
    t = scheme.delta * np.arange(scheme.n + 1)
    assert np.max(np.abs(path.x - np.exp(-t))) <= 1e-13
    assert path.x[10] == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_determinism_and_meta():
    scheme = SamplingScheme(n=64, delta=0.1, oversample=4)
    a = simulate_path(PARAMS, scheme, RngSeed(5, 2))
    b = simulate_path(PARAMS, scheme, RngSeed(5, 2))
    c = simulate_path(PARAMS, scheme, RngSeed(5, 3))
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)
    assert a.x.shape == (65,)
    assert a.x[0] == 0.0
    assert a.meta["method"] == "circulant"
    assert a.meta["fallback"] is False
    assert a.meta == {"method": "circulant", "fallback": False, "seed": 5, "stream": 2}


def test_path_equals_manual_recursion():
    # the lfilter path must agree with the elementwise recursion
    scheme = SamplingScheme(n=32, delta=0.125, oversample=4)
    params = ModelParams(theta=0.8, hurst=0.65, x0=0.5)
    fine = FbmGrid(scheme.fine_step, scheme.n * scheme.oversample, params.hurst)
    incs = sample_circulant(fine, RngSeed(17))
    path = simulate_path(params, scheme, RngSeed(17), increments=incs)
    a = math.exp(-params.theta * fine.step)
    x = params.x0
    manual = [x]
    for j, db in enumerate(incs.values):
        x = a * x + db
        if (j + 1) % scheme.oversample == 0:
            manual.append(x)
    assert np.max(np.abs(path.x - np.array(manual))) <= 1e-10


def _fine_grid_path(params, scheme, incs):
    # reference simulator: lfilter over every fine step, the x0 decay added
    # in closed form, then every oversample-th point kept
    step, total = scheme.fine_step, scheme.n * scheme.oversample
    a = math.exp(-params.theta * step)
    x = np.empty(total + 1)
    x[0] = params.x0
    x[1:] = scipy.signal.lfilter([1.0], [1.0, -a], incs.values)
    x[1:] += params.x0 * np.exp(-params.theta * step * np.arange(1, total + 1))
    return x[:: scheme.oversample]


@pytest.mark.parametrize("oversample", [1, 2, 8])
def test_block_recursion_matches_fine_grid_reference(oversample):
    scheme = SamplingScheme(n=1000, delta=0.02, oversample=oversample)
    for theta, x0 in ((0.3, 0.0), (1.0, 2.5), (2.0, -7.0)):
        params = ModelParams(theta=theta, hurst=0.7, x0=x0)
        fine = FbmGrid(scheme.fine_step, scheme.n * oversample, params.hurst)
        incs = sample_circulant(fine, RngSeed(4242, oversample))
        path = simulate_path(params, scheme, RngSeed(0), increments=incs)
        ref = _fine_grid_path(params, scheme, incs)
        assert path.x[0] == x0
        assert np.max(np.abs(path.x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_exact_second_moment_small_time_and_x0():
    params = ModelParams(theta=1.0, hurst=0.7, x0=1.0)
    assert exact_second_moment(params, 1e-8) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(DomainError):
        exact_second_moment(params, 0.0)


def test_exact_second_moment_derived_value():
    # frozen value of E[X_5^2] at theta=1, H=0.7, x0=0 from an independent
    # 30-digit double quadrature
    assert exact_second_moment(PARAMS, 5.0) == pytest.approx(
        0.6195676448, rel=1e-6
    )


def test_exact_second_moment_stationary_limit():
    # E[X_t^2] -> H Gamma(2H) theta^(-2H) as t -> infinity
    expect = 0.7 * math.gamma(1.4) * 1.0
    assert exact_second_moment(PARAMS, 60.0) == pytest.approx(expect, rel=1e-8)


@pytest.mark.parametrize("hurst", [0.51, 0.55, 0.7])
@pytest.mark.parametrize("theta", [1e-12, 1e-9])
def test_exact_second_moment_small_theta(theta, hurst):
    # theta t -> 0: X_t -> B_t, whose variance is t^(2H); the relative drift
    # correction is O(theta t) <= 1e-10 here
    t = 0.1
    got = exact_second_moment(ModelParams(theta=theta, hurst=hurst), t)
    assert got == pytest.approx(t ** (2.0 * hurst), rel=1e-9)


def test_simulated_second_moment_matches_quadrature():
    # E[X_T^2] from 4000 simulated paths vs exact_second_moment, 3.5 sigma
    scheme = SamplingScheme(n=50, delta=0.1, oversample=4)
    t_end = scheme.horizon
    n_rep = 4000
    vals = np.empty(n_rep)
    for r in range(n_rep):
        vals[r] = simulate_path(PARAMS, scheme, RngSeed(31, r)).x[-1]
    sq = vals**2
    expect = exact_second_moment(PARAMS, t_end)
    se = sq.std(ddof=1) / math.sqrt(n_rep)
    assert abs(sq.mean() - expect) <= 3.5 * se


def test_oversampling_converges_to_exact_law():
    # exponential-Euler reference: bias of E[X_T^2] against the m-free
    # quadrature must shrink as the oversampling factor grows
    n_rep = 1500
    t_end = 2.0
    expect = exact_second_moment(PARAMS, t_end)
    bias = []
    for m in (1, 4, 16):
        scheme = SamplingScheme(n=20, delta=0.1, oversample=m)
        fine = FbmGrid(scheme.fine_step, scheme.n * m, PARAMS.hurst)
        sq = np.empty(n_rep)
        for r in range(n_rep):
            seed = RngSeed(57 + m, r)
            incs = sample_circulant(fine, seed)
            sq[r] = simulate_path(PARAMS, scheme, seed, increments=incs).x[-1] ** 2
        bias.append(abs(sq.mean() - expect))
    assert bias[2] < bias[0]


def test_exact_path_matches_fine_reference_law():
    # two-sample KS: the exact draw against exponential-Euler at oversample 64,
    # on X_T and on the lag-1 product X_{T-delta} X_T.  At theta delta = 0.5
    # the reference's E[X_T^2] is 0.8% off the exact value, one-step Euler's
    # (oversample 1) 61%, which this test detects.
    params = ModelParams(theta=1.0, hurst=0.7, x0=0.5)
    scheme = SamplingScheme(n=8, delta=0.5, oversample=64)
    fine = FbmGrid(scheme.fine_step, scheme.n * 64, params.hurst)
    n_rep = 4000
    exact = np.empty((n_rep, 2))
    ref = np.empty((n_rep, 2))
    for r in range(n_rep):
        exact[r] = simulate_path(params, scheme, RngSeed(61, r)).x[-2:]
        seed = RngSeed(62, r)
        incs = sample_circulant(fine, seed)
        ref[r] = simulate_path(params, scheme, seed, increments=incs).x[-2:]
    for stat in (lambda v: v[:, 1], lambda v: v[:, 0] * v[:, 1]):
        assert scipy.stats.ks_2samp(stat(exact), stat(ref)).pvalue > 1e-3


def test_scheme_error_halves_with_oversampling():
    # couple three oversampling levels through one fine noise draw: the
    # m=16 and m=32 subsampled paths built from aggregated increments of the
    # m=64 draw differ by O(fine_step^H), so successive sup-gaps shrink by
    # roughly 2^H on average
    params = ModelParams(theta=2.0, hurst=0.7)
    n, delta = 8, 0.25
    ratios = []
    for r in range(60):
        fine = FbmGrid(delta / 64, n * 64, params.hurst)
        incs64 = sample_circulant(fine, RngSeed(303, r))
        paths = {}
        for m in (16, 32, 64):
            agg = incs64.values.reshape(n * m, 64 // m).sum(axis=1)
            grid = FbmGrid(delta / m, n * m, params.hurst)
            scheme = SamplingScheme(n=n, delta=delta, oversample=m)
            series = IncrementSeries(grid=grid, values=agg, method="injected")
            paths[m] = simulate_path(params, scheme, RngSeed(0), increments=series).x
        e16 = np.max(np.abs(paths[16] - paths[64]))
        e32 = np.max(np.abs(paths[32] - paths[64]))
        ratios.append(e16 / e32)
    mean_ratio = float(np.mean(ratios))
    assert 1.2 <= mean_ratio <= 3.5


def test_csv_roundtrip():
    scheme = SamplingScheme(n=16, delta=0.1, oversample=2)
    path = simulate_path(PARAMS, scheme, RngSeed(9))
    buf = io.StringIO()
    write_path_csv(path, buf)
    buf.seek(0)
    x, delta = read_path_csv(buf)
    assert delta == pytest.approx(scheme.delta, rel=1e-15)
    assert np.array_equal(x, path.x)  # %.17g is lossless for float64


def test_csv_rejects_bad_header():
    with pytest.raises(DomainError):
        read_path_csv(io.StringIO("a,b,c\n0,0,0\n"))


def test_csv_rejects_short_path():
    with pytest.raises(DomainError):
        read_path_csv(io.StringIO("i,t,x\n0,0,0\n1,0.1,0.2\n"))


def test_injected_increment_count_checked():
    scheme = SamplingScheme(n=8, delta=0.1, oversample=2)
    bad = _zero_increments(SamplingScheme(n=8, delta=0.1, oversample=4), 0.7)
    with pytest.raises(DomainError):
        simulate_path(PARAMS, scheme, RngSeed(0), increments=bad)
