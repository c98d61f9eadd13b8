import io
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.signal
import scipy.stats

from fracou import fou
from fracou.errors import DomainError, SizeError
from fracou.fbm import FbmGrid, IncrementSeries, RngSeed, sample_circulant, sample_rows
from fracou.fou import (
    ModelParams,
    ObservedPath,
    SamplingScheme,
    exact_second_moment,
    read_path_csv,
    simulate_path,
    simulate_paths,
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


def test_large_start_decays_exactly_across_blocks():
    # at theta delta = 1 a block holds at most 64 steps; the carries must keep
    # x0 e^(-t) in every later block, though it falls below 2^-60 x0 after
    # the first, since it stays far above the (here zero) noise
    x0 = 1e30
    params = ModelParams(theta=1.0, hurst=0.7, x0=x0)
    scheme = SamplingScheme(n=300, delta=1.0, oversample=1)
    path = simulate_path(
        params, scheme, RngSeed(0), increments=_zero_increments(scheme, params.hurst)
    )
    expect = x0 * np.exp(-np.arange(scheme.n + 1.0))
    assert np.max(np.abs(path.x - expect) / expect) <= 1e-13


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
    # the block recursion must agree with the elementwise recursion
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


@pytest.mark.parametrize("c", [1e-12, 1e-4, 0.0046, 0.1, 1.0, 50.0, 1e4])
def test_block_recursion_matches_lfilter(c):
    # lfilter is the oracle of x_{i+1} = a x_i + xi_i, a = e^-c; every row of
    # a 16-row block keeps the bits of its one-row recursion
    rng = np.random.default_rng(7)
    for n in (2, 500, 8000, 2**17):
        scheme = SamplingScheme(n=n, delta=c)
        for x0 in (0.0, 2.5):
            params = ModelParams(theta=1.0, hurst=0.7, x0=x0)
            xi = 0.01 * rng.standard_normal((16, n))
            y = np.concatenate([np.full((16, 1), x0), xi], axis=1)
            ref = scipy.signal.lfilter([1.0], [1.0, -np.exp(-c)], y, axis=1)
            got = fou._recurse(params, scheme, xi)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (n, x0)
            for r in range(16):
                one = fou._recurse(params, scheme, xi[r : r + 1])[0]
                assert np.array_equal(got[r], one), (n, x0, r)


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


def _second_moment_mp(theta, hurst, x0, s):
    """E[X_t^2] at S = theta t from the confluent hypergeometric closed form,
    x0^2 e^(-2S) + H theta^(-2H) S^(2H-1) [1F1(2H-1; 2H; -S) - e^(-2S) 1F1(2H-1; 2H; S)],
    at 40 digits."""
    with mpmath.workdps(40):
        th, h, x0, s = (mpmath.mpf(v) for v in (theta, hurst, x0, s))
        a, b = 2 * h - 1, 2 * h
        bracket = mpmath.hyp1f1(a, b, -s) - mpmath.exp(-2 * s) * mpmath.hyp1f1(a, b, s)
        return x0**2 * mpmath.exp(-2 * s) + h * th ** (-2 * h) * s**a * bracket


@pytest.mark.parametrize("hurst", [0.51, 0.7, 0.95, 0.99])
def test_exact_second_moment_against_mpmath(hurst):
    # both sides of the panel joint at S = 1 and of the cut at S = 45
    for theta in (0.5, 3.0):
        for x0 in (0.0, 2.5):
            params = ModelParams(theta=theta, hurst=hurst, x0=x0)
            for s in (1e-8, 1e-4, 0.1, 0.999, 1.0, 1.001, 2.0, 7.5, 30.0, 44.9, 45.1, 100.0, 1e3):
                ref = _second_moment_mp(theta, hurst, x0, s)
                got = exact_second_moment(params, s / theta)
                assert abs(got - ref) <= 1e-12 * abs(ref), (theta, x0, s)


@pytest.mark.parametrize("theta, t", [(1.0, 1e-300), (1e-150, 1e-150), (1e9, 1.0)])
def test_exact_second_moment_extreme_theta_t(theta, t):
    # no RuntimeWarning at theta t = 1e-300 or 1e9; the limits are
    # x0^2 + t^(2H) as theta t -> 0 and H Gamma(2H) theta^(-2H) as it grows
    params = ModelParams(theta=theta, hurst=0.7, x0=1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exact_second_moment(params, t)
    if theta * t < 1.0:
        assert got == pytest.approx(2.25 + t**1.4, rel=1e-14)
    else:
        assert got == pytest.approx(0.7 * math.gamma(1.4) * theta**-1.4, rel=1e-13)


def _injected_path(params, scheme, fine, values):
    """The exponential-Euler path of one row of fine-grid fGn."""
    incs = IncrementSeries(grid=fine, values=values, method="injected")
    return simulate_path(params, scheme, RngSeed(0), increments=incs).x


def test_simulated_second_moment_matches_quadrature():
    # E[X_T^2] from 4000 simulated paths vs exact_second_moment, 3.5 sigma
    scheme = SamplingScheme(n=50, delta=0.1, oversample=4)
    t_end = scheme.horizon
    n_rep = 4000
    sq = simulate_paths(PARAMS, scheme, 31, 0, n_rep)[0][:, -1] ** 2
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
        sq = np.array([
            _injected_path(PARAMS, scheme, fine, row)[-1] ** 2
            for row in sample_rows(fine, 57 + m, 0, n_rep)[0]
        ])
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
    exact = simulate_paths(params, scheme, 61, 0, n_rep)[0][:, -2:]
    ref = np.array([
        _injected_path(params, scheme, fine, row)[-2:]
        for row in sample_rows(fine, 62, 0, n_rep)[0]
    ])
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


def _reference_csv(path):
    # the row-at-a-time writer the blocked one must match byte for byte
    delta = path.scheme.delta
    rows = (f"{i},{i * delta:.17g},{xi:.17g}\n" for i, xi in enumerate(path.x))
    return "i,t,x\n" + "".join(rows)


@pytest.mark.parametrize("kind", ["simulated", "edge values"])
def test_csv_bytes_match_row_reference_across_blocks(kind):
    # two full blocks and part of a third, so every block boundary is crossed
    n = 2 * fou._CSV_ROWS + 3
    scheme = SamplingScheme(n=n, delta=n**-0.6)
    if kind == "simulated":
        path = simulate_path(PARAMS, scheme, RngSeed(21, 4))
    else:
        edge = [0.0, -0.0, 5e-324, -1e300, 1 / 3]
        path = ObservedPath(PARAMS, scheme, np.resize(np.array(edge), n + 1))
    buf = io.StringIO()
    write_path_csv(path, buf)
    assert buf.getvalue() == _reference_csv(path)


def test_csv_write_memory_is_bounded_by_a_block(tmp_path):
    # one string or list for the whole path at n = 2^17 would take 8 MB or more
    n = 2**17
    x = np.random.default_rng(5).standard_normal(n + 1)
    path = ObservedPath(PARAMS, SamplingScheme(n=n, delta=0.01), x)
    out = tmp_path / "path.csv"
    write_path_csv(path, out)  # warm-up: first-use allocations are not the writer's
    tracemalloc.start()
    try:
        write_path_csv(path, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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
