import csv
import decimal
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
    assert a.meta == {"seed": 5, "stream": 2}


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
    sq = simulate_paths(PARAMS, scheme, 31, 0, n_rep)[:, -1] ** 2
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
            for row in sample_rows(fine, 57 + m, 0, n_rep)
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
    exact = simulate_paths(params, scheme, 61, 0, n_rep)[:, -2:]
    ref = np.array([
        _injected_path(params, scheme, fine, row)[-2:]
        for row in sample_rows(fine, 62, 0, n_rep)
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


def _reference_rows(first, t, x):
    rows = zip(range(first, first + t.size), t.tolist(), x.tolist())
    return "".join(map("%d,%.17g,%.17g\n".__mod__, rows))


def _assert_rows_match_reference(t, x, first=0):
    # block by block, as write_path_csv formats them
    for lo in range(0, t.size, fou._CSV_ROWS):
        hi = min(lo + fou._CSV_ROWS, t.size)
        got = fou._format_rows(first + lo, t[lo:hi], x[lo:hi])
        want = _reference_rows(first + lo, t[lo:hi], x[lo:hi])
        if got != want:
            pairs = zip(got.splitlines(), want.splitlines())
            first = next(p for p in pairs if p[0] != p[1])
            pytest.fail(f"first differing row (got, want): {first}")


def _ties():
    # m 2^-k = m 5^k 10^-k has exactly 18 significant digits, ending in 5, when
    # m is odd and m 5^k has 18 digits: a tie at 17, rounded half to even;
    # k = 2..21 puts one at each decimal exponent from 15 down to -4
    out = []
    for k in range(2, 22):
        m = -(-(10**17) // 5**k) | 1
        out += [math.ldexp(m + 2 * j, -k) for j in range(8)]
    assert math.ldexp(26215, -18) in out
    for v in out:
        digits = decimal.Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    return out


def test_csv_digits_match_percent_format_on_chosen_values():
    rng = np.random.default_rng(2026)
    values = []
    for e in range(-4, 17):
        power = float(f"1e{e}")
        values += [power, np.nextafter(power, 0.0), np.nextafter(power, np.inf)]
        values += list(rng.uniform(1.0, 10.0, 20) * power)
        # short decimals: their 17-digit forms end in zeros, some of them
        # reached by rounding that carries through a run of 9s, and from
        # e >= 1 on some are integers whose zeros stay
        for digits in range(1, 17):
            m = rng.integers(10 ** (digits - 1), 10**digits, 3)
            values += [float(f"{k}e{e - digits + 1}") for k in m]
    values.append(np.nextafter(1e17, 0.0))  # 99999999999999984, the largest in range
    values += _ties()
    values = np.array(values)
    values = np.concatenate([values, -values])
    assert set(np.floor(np.log10(np.abs(values))).astype(int)) >= set(range(-4, 17))
    # each one in range placed by the numpy digits, log10 corrected below
    # powers of ten
    inside = np.abs(values[np.abs(values) >= 1e-4])
    e, d = fou._decimal(inside)
    placed = [f"{m // 10**16}.{m % 10**16:016d}e{k:+03d}" for m, k in zip(d.tolist(), e.tolist())]
    assert placed == ["%.16e" % v for v in inside.tolist()]
    _assert_rows_match_reference(values, rng.permutation(values), first=9990)
    # i itself: 1 to 8 digits, and the `%` rows from i = 10^8 on
    _assert_rows_match_reference(values[:8], values[8:16], first=10**8 - 4)
    _assert_rows_match_reference(values[:8], values[8:16], first=10**9 + 12345)


def test_csv_digits_match_percent_format_on_random_doubles():
    # 2^20 doubles with random significands, binary exponents 2^-20..2^61 on
    # both sides of the fixed-notation range, and one in 8 of the x column
    # any bit pattern at all (subnormals, NaN, inf)
    rng = np.random.default_rng(77)
    rows = 2**19
    bits = rng.integers(0, 2**63, (2, rows), dtype=np.uint64, endpoint=True)
    exponent = rng.integers(1023 - 20, 1023 + 61, (2, rows), dtype=np.uint64)
    wild = np.zeros((2, rows), dtype=bool)
    wild[1, ::8] = True
    tame = (bits & np.uint64(2**52 - 1 | 2**63)) | (exponent << np.uint64(52))
    bits = np.where(wild, bits, tame)
    t, x = bits.view(np.float64)
    _assert_rows_match_reference(t, x)


#: values `%` formats in place of the numpy digits: outside 1e-4 <= |v| < 1e17
FALLBACK_VALUES = [
    0.0, -0.0, 5e-324, -2.5e-310, 5e-5, -np.nextafter(1e-4, 0.0), 1e17, -1e200,
    np.nan, np.inf, -np.inf,
]


@pytest.mark.parametrize("value", FALLBACK_VALUES, ids=repr)
def test_csv_fallback_rows_keep_their_place(value):
    n = 2 * fou._CSV_ROWS + 3
    x = np.random.default_rng(8).standard_normal(n + 1) + 5.0
    # alone and in a run within a block, on both sides of a block boundary,
    # and a run across the next one
    for i in [100, 2000, 2001, 2002, fou._CSV_ROWS - 1, fou._CSV_ROWS]:
        x[i] = value
    x[2 * fou._CSV_ROWS - 2 : 2 * fou._CSV_ROWS + 2] = value
    path = ObservedPath(PARAMS, SamplingScheme(n=n, delta=n**-0.6), x)
    buf = io.StringIO()
    write_path_csv(path, buf)
    assert buf.getvalue() == _reference_csv(path)


def test_csv_write_raises_no_warning_on_special_values():
    x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1.5, 1e300])
    path = ObservedPath(PARAMS, SamplingScheme(n=x.size - 1, delta=0.1), x)
    buf = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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


def _loadtxt_read(data: bytes):
    """(x, delta) of a path CSV as one np.loadtxt over the whole text reads
    it, with read_path_csv's checks: the reference the blocked reader must
    match, value for value and in what it rejects (DomainError)."""
    fh = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    try:
        header = next(csv.reader([fh.readline()]), None)
        if header != ["i", "t", "x"]:
            raise DomainError(f"expected CSV header i,t,x, got {header}")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
    except DomainError:
        raise
    except ValueError as exc:  # UnicodeDecodeError too
        raise DomainError(f"malformed path CSV: {exc}") from exc
    if rows.shape[0] < 3:
        raise DomainError("path CSV must contain at least 3 observations")
    if rows.shape[1] != 3:
        raise DomainError(f"path CSV rows must have 3 columns, got {rows.shape[1]}")
    idx, t, x = rows.T
    if not np.array_equal(idx, np.arange(idx.size)):
        raise DomainError("column i must count 0, 1, ..., n")
    if not np.all(np.isfinite(t)):
        raise DomainError("time column must be finite")
    delta = float(t[1]) - float(t[0])
    if not 0.0 < delta < math.inf:
        raise DomainError("time column must be strictly increasing with a finite step")
    with np.errstate(over="ignore"):
        off_grid = np.abs(t - idx * delta) > 1e-9 * np.maximum(1.0, np.abs(t))
    if off_grid.any():
        raise DomainError("time column is not equidistant: need t_i = i * delta")
    return np.ascontiguousarray(x), delta


def _read_or_error(read, src):
    try:
        return read(src)
    except DomainError as exc:
        return exc


def _assert_reads_as_loadtxt(data: bytes):
    want = _read_or_error(_loadtxt_read, data)
    got = _read_or_error(read_path_csv, io.BytesIO(data))
    if isinstance(want, DomainError):
        assert isinstance(got, DomainError), "accepted a file np.loadtxt rejects"
        return got, want
    assert not isinstance(got, DomainError), f"rejected a file np.loadtxt reads: {got}"
    assert got[1] == want[1]
    assert got[0].flags.c_contiguous
    assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))
    return got, want


def _path_csv(x, delta=0.01):
    path = ObservedPath(PARAMS, SamplingScheme(n=x.size - 1, delta=delta), np.asarray(x))
    buf = io.StringIO()
    write_path_csv(path, buf)
    return buf.getvalue().encode()


def _blocks_of(text: bytes, rows: int):
    lines = text.splitlines(keepends=True)
    return [b"".join(lines[lo : lo + rows]) for lo in range(0, len(lines), rows)]


def test_csv_read_values_match_loadtxt_on_random_doubles():
    # 2^20 doubles as the writer prints them, random significands, binary
    # exponents 2^-20..2^61 on both sides of the fixed-notation range; every
    # block must be parsed, not handed to np.loadtxt, and give its bits
    rng = np.random.default_rng(78)
    rows = 2**19
    bits = rng.integers(0, 2**63, (2, rows), dtype=np.uint64, endpoint=True)
    exponent = rng.integers(1023 - 20, 1023 + 61, (2, rows), dtype=np.uint64)
    bits = (bits & np.uint64(2**52 - 1 | 2**63)) | (exponent << np.uint64(52))
    t, x = bits.view(np.float64)
    text = "".join(
        fou._format_rows(lo, t[lo : lo + fou._CSV_ROWS], x[lo : lo + fou._CSV_ROWS])
        for lo in range(0, rows, fou._CSV_ROWS)
    ).encode()
    first = 0
    for block in _blocks_of(text, fou._CSV_ROWS):
        got = fou._parse_rows(block, first)
        assert got is not None
        want = np.loadtxt(io.StringIO(block.decode()), delimiter=",", comments=None).T
        assert np.array_equal(got[0], want[0])
        for column, reference in zip(got[1:], want[1:]):
            assert np.array_equal(column.view(np.int64), reference.view(np.int64))
        first += want.shape[1]
    assert first == rows


#: doubles whose text is hard to read back: ties of the 17th digit (see
#: _ties), the powers of ten at the ends of the fixed-notation range and
#: their neighbours, 2^53 +- 1, subnormals, zeros and the largest double
READ_EDGES = [
    0.0, -0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-4, np.nextafter(1e-4, 0.0),
    np.nextafter(1e-4, 1.0), 1e17, np.nextafter(1e17, 0.0), 2.0**53 - 1, 2.0**53, 2.0**53 + 2,
    2.0**54 + 4, 0.1, 1 / 3, 1.7976931348623157e308, -1.7976931348623157e308,
]


def test_csv_read_values_match_loadtxt_on_edge_values():
    edges = np.array(READ_EDGES + _ties())
    x = np.concatenate([edges, -edges])
    _assert_reads_as_loadtxt(_path_csv(x))
    # one of each, alone in a block of ordinary values
    x = np.resize(np.random.default_rng(3).standard_normal(1000), 3 * fou._CSV_ROWS + 5)
    x[:: fou._CSV_ROWS // 4][: edges.size] = edges[: x[:: fou._CSV_ROWS // 4].size]
    _assert_reads_as_loadtxt(_path_csv(x))


@pytest.mark.parametrize(
    "text",
    [
        "9007199254740993",  # 2^53 + 1, a tie: even 2^53
        "9007199254740995",  # 2^53 + 3, a tie: even 2^53 + 4
        "18014398509481986",  # 2^54 + 2, a tie at 17 digits
        "18014398509481990.0",
        "4503599627370496.5",  # 2^52 + 1/2, a tie
        "72057594037927944",  # 2^56 + 8, a tie
        "0.30000000000000000555111512312578270211815834045410156250001",
        "1234567890123456789012345",  # 25 digits
        "-1234567890.123456789012345",
        "0.0001",
        "0.00009999999999999999",
        "99999999999999999",  # 17 nines: rounds up to 10^17
        "99999.999999999999",
        "00000000000000000000001.5",
        "1.00000000000000000000000000000",
        "-0",
        "-0.000",
        "5",
        "123456789012345678",
    ],
)
def test_csv_read_values_match_loadtxt_on_written_decimals(text):
    # decimals the writer does not print, in an x column of ordinary values
    body = _path_csv(np.linspace(-2.0, 2.0, 51)).decode().splitlines()
    for i in (1, 25, 50):
        cells = body[i + 1].split(",")
        body[i + 1] = ",".join(cells[:2] + [text])
    _assert_reads_as_loadtxt(("\n".join(body) + "\n").encode())


@pytest.mark.parametrize("shift", [-1, 0, 1])
@pytest.mark.parametrize("blocks", [1, 2])
def test_csv_read_matches_loadtxt_at_block_sizes(blocks, shift):
    n = blocks * fou._CSV_ROWS + shift
    x = np.random.default_rng(n).standard_normal(n + 1)
    data = _path_csv(x, delta=n**-0.6)
    got, _ = _assert_reads_as_loadtxt(data)
    assert np.array_equal(got[0], x)
    _assert_reads_as_loadtxt(data[:-1])  # no final newline


@pytest.mark.parametrize("size", [7, 64, 1000])
def test_csv_read_is_the_same_for_any_read_size(monkeypatch, size):
    # reads shorter than a line, a few lines and many lines: each block cut
    # after its last newline, the rest carried over to the next read
    x = np.random.default_rng(11).standard_normal(300) * 1e-3
    data = _path_csv(x)
    monkeypatch.setattr(fou, "_READ_BYTES", size)
    got, _ = _assert_reads_as_loadtxt(data)
    assert np.array_equal(got[0], x)
    _assert_reads_as_loadtxt(data.replace(b"\n", b"\r\n"))
    _assert_reads_as_loadtxt(data[:-1])


def test_csv_read_from_path_text_and_bytes_agree(tmp_path):
    x = np.random.default_rng(12).standard_normal(2 * fou._CSV_ROWS + 1)
    data = _path_csv(x)
    out = tmp_path / "path.csv"
    out.write_bytes(data)
    reads = [
        read_path_csv(out),
        read_path_csv(str(out)),
        read_path_csv(io.StringIO(data.decode())),
        read_path_csv(io.BytesIO(data)),
    ]
    for got, delta in reads:
        assert np.array_equal(got, x) and delta == reads[0][1]


def _late_row_edit(row, text):
    # a path CSV of about three read blocks with x of one row in its third
    # block replaced by `text` (bytes)
    n = 3 * fou._CSV_ROWS
    lines = _path_csv(np.random.default_rng(4).standard_normal(n + 1)).splitlines(keepends=True)
    head, sep, _ = lines[row + 1].rpartition(b",")
    lines[row + 1] = head + sep + text + b"\n"
    return b"".join(lines)


#: bodies of hand-written files that the writer never prints; each must be
#: read as np.loadtxt reads it, or rejected by both
NONCANONICAL = {
    "spaces": "0, 0,0\n1 ,0.1, 1.5\n2,0.2 ,2\n",
    "tab": "0,0,0\t\n1,0.1,1\n2,0.2,2\n",
    "CRLF": "0,0,0\r\n1,0.1,1.5\r\n2,0.2,-2\r\n",
    "lone CR": "0,0,0\r1,0.1,1.5\r2,0.2,-2\r",
    "plus": "0,0,+1.5\n1,+0.1,1\n2,0.2,2\n",
    "exponent E": "0,0,1E5\n1,0.1,1\n2,0.2,2\n",
    "exponent e": "0,0,1e5\n1,1e-1,1e+0\n2,0.2,-2.5e-7\n",
    "inf": "0,0,inf\n1,0.1,-inf\n2,0.2,2\n",
    "nan": "0,0,nan\n1,0.1,1\n2,0.2,2\n",
    "point in i": "0,0,0\n1.0,0.1,1\n2,0.2,2\n",
    "exponent in i": "0,0,0\n1,0.1,1\n2e0,0.2,2\n",
    "minus in i": "-0,0,0\n1,0.1,1\n2,0.2,2\n",
    "25-digit i": "0,0,0\n0000000000000000000000001,0.1,1\n2,0.2,2\n",
    "huge i": "0,0,0\n1,0.1,1\n18446744073709551618,0.2,2\n",
    "minus zero": "0,-0,-0\n1,0.1,-0.0\n2,0.2,2\n",
    "empty field": "0,0,0\n1,,1\n2,0.2,2\n",
    "empty last field": "0,0,0\n1,0.1,\n2,0.2,2\n",
    "two columns": "0,0\n1,0.1\n2,0.2\n",
    "four columns": "0,0,0,0\n1,0.1,1,1\n2,0.2,2,2\n",
    "a short row": "0,0,0\n1,0.1\n2,0.2,2\n",
    "blank lines": "0,0,0\n\n1,0.1,1\n\n\n2,0.2,2\n",
    "two points": "0,0,0\n1,0.1,1.2.3\n2,0.2,2\n",
    "bare point": "0,0,0\n1,0.1,.\n2,0.2,2\n",
    "bare minus": "0,0,0\n1,0.1,-\n2,0.2,2\n",
    "double minus": "0,0,0\n1,0.1,--1\n2,0.2,2\n",
    "inner minus": "0,0,0\n1,0.1,1-2\n2,0.2,2\n",
    "leading point": "0,0,.5\n1,0.1,-.5\n2,0.2,2\n",
    "trailing point": "0,0,5.\n1,0.1,-5.\n2,0.2,2\n",
    "dangling exponent": "0,0,0\n1,0.1,1e\n2,0.2,2\n",
    "underscore": "0,0,0\n1,0.1,1_0\n2,0.2,2\n",
    "NUL": "0,0,0\n1,0.1,1\x00\n2,0.2,2\n",
    "quoted": '0,0,0\n1,0.1,"1"\n2,0.2,2\n',
    "no final newline": "0,0,0\n1,0.1,1\n2,0.2,2",
}


@pytest.mark.parametrize("body", NONCANONICAL.values(), ids=NONCANONICAL.keys())
def test_csv_read_accepts_and_rejects_as_loadtxt(body):
    _assert_reads_as_loadtxt(("i,t,x\n" + body).encode())


@pytest.mark.parametrize(
    "text",
    [b" 1.5", b"1.5\r", b"+1.5", b"1E5", b"inf", b"nan", b"-0", b"1.2.3", b"", b"1e", b"5.",
     b"\xff", b"\xc3\xa9", b"1_0", b"12345678901234567890123456789"],
    ids=repr,
)
def test_csv_read_accepts_and_rejects_as_loadtxt_in_a_late_block(text):
    got, want = _assert_reads_as_loadtxt(_late_row_edit(2 * fou._CSV_ROWS + 100, text))
    if text in (b"\xff",):
        assert "not UTF-8" in str(got)


@pytest.mark.parametrize("text", [b"abc", b"1.2.3", b"1e"], ids=repr)
def test_csv_read_error_names_the_row_of_the_file(text):
    # rows count from 0, as np.loadtxt counts them: the row of i = 8300, in
    # the third read block
    row = 2 * fou._CSV_ROWS + 108
    got, want = _assert_reads_as_loadtxt(_late_row_edit(row, text))
    assert f"at row {row}, column 3" in str(got)
    assert str(got) == str(want)


def test_csv_read_memory_is_bounded_by_a_block(tmp_path):
    # the whole 5.9 MB file, or an (n, 3) array of it, would not fit
    n = 2**17
    x = np.random.default_rng(6).standard_normal(n + 1)
    path = tmp_path / "path.csv"
    write_path_csv(ObservedPath(PARAMS, SamplingScheme(n=n, delta=n**-0.6), x), path)
    read_path_csv(path)  # warm-up: first-use allocations are not the reader's
    tracemalloc.start()
    try:
        got, _ = read_path_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, x)
    assert peak < x.nbytes + 2_000_000


def test_csv_read_raises_no_warning():
    x = np.array([0.0, -0.0, 5e-324, 1e-5, 1e300, -1e17, 1.5, 2.0**53 + 1])
    data = _path_csv(x) + b"8,0.080000000000000002,1234567890123456789012345\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _ = read_path_csv(io.BytesIO(data))
    assert np.array_equal(got[:-1].view(np.int64), x.view(np.int64))
