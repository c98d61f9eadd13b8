import json
import math
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fracou import fbm, fou, lse, montecarlo
from fracou.errors import DomainError, ReplicationError
from fracou.fbm import FbmGrid, RngSeed, sample_cholesky
from fracou.fou import ModelParams, SamplingScheme, simulate_path
from fracou.montecarlo import McConfig, ks_to_std_normal

PARAMS = ModelParams(theta=1.0, hurst=0.6)


def _config(**kw):
    base = dict(
        params=PARAMS,
        schedule=[SamplingScheme(n=16, delta=0.25, oversample=2)],
        replications=100,
        base_seed=RngSeed(5, 0),
    )
    base.update(kw)
    return McConfig(**base)


def test_ks_single_zero():
    # one observation at 0: D = max(1 - Phi(0), Phi(0)) = 1/2
    assert ks_to_std_normal([0.0]) == pytest.approx(0.5, abs=1e-15)


def test_ks_single_large_value():
    assert ks_to_std_normal([50.0]) == pytest.approx(1.0, abs=1e-10)


def test_ks_stratified_quantiles():
    # sample at Phi^{-1}((i - 1/2)/N): the exact KS distance is 1/(2N)
    import scipy.special

    n = 1000
    q = scipy.special.ndtri((np.arange(1, n + 1) - 0.5) / n)
    assert ks_to_std_normal(q) == pytest.approx(1.0 / (2 * n), rel=1e-9)


def test_ks_large_normal_sample_below_dkw_band():
    # 10^5 standard normals: D_n below the 0.999 Kolmogorov quantile
    n = 100000
    z = np.random.Generator(np.random.Philox(key=[2026, 0])).standard_normal(n)
    assert ks_to_std_normal(z) < 1.9494746 / math.sqrt(n)


def test_ks_detects_wrong_scale():
    z = np.random.Generator(np.random.Philox(key=[2026, 1])).standard_normal(5000)
    assert ks_to_std_normal(3.0 * z) > 0.2


def test_ks_permutation_invariant():
    z = np.random.Generator(np.random.Philox(key=[2026, 2])).standard_normal(500)
    shuffled = z.copy()
    np.random.Generator(np.random.Philox(key=[0, 0])).shuffle(shuffled)
    assert ks_to_std_normal(z) == ks_to_std_normal(shuffled)


def test_ks_rejects_bad_input():
    with pytest.raises(DomainError):
        ks_to_std_normal([])
    with pytest.raises(DomainError):
        ks_to_std_normal([0.0, math.nan])


def test_config_validation():
    with pytest.raises(DomainError):
        _config(replications=50)
    with pytest.raises(DomainError):
        _config(schedule=[])
    with pytest.raises(DomainError):
        _config(schedule=[(16, 0.25)])
    with pytest.raises(DomainError):
        _config(params=ModelParams(theta=1.0, hurst=0.8))
    with pytest.raises(DomainError):
        _config(gamma=0.9)  # outside the admissible window for H=0.6
    with pytest.raises(DomainError):
        _config(eta=0.1)  # dlt missing


def test_config_last_stream_must_be_a_philox_key():
    _config(base_seed=RngSeed(5, 2**63 - 100))  # last of 100 streams is 2^63 - 1
    with pytest.raises(DomainError):
        _config(base_seed=RngSeed(5, 2**63 - 99))
    with pytest.raises(DomainError):
        _config(base_seed=RngSeed(5, 2**63 - 150), schedule=[SamplingScheme(16, 0.25)] * 2)


@pytest.mark.parametrize("threads", [0, -1])
def test_run_rejects_nonpositive_worker_count(threads, monkeypatch):
    with pytest.raises(DomainError):
        montecarlo.run(_config(), threads=threads)
    monkeypatch.setenv("FOU_THREADS", str(threads))
    with pytest.raises(DomainError):
        montecarlo.run(_config())


@pytest.mark.parametrize("threads", [1, 2])
def test_worker_failure_names_scheme_and_stream(threads):
    # a scheme grown past the size guard after validation fails inside the
    # worker; the error must say which scheme and Philox stream failed
    scheme = SamplingScheme(n=16, delta=0.25)
    config = _config(schedule=[scheme], base_seed=RngSeed(5, 300))
    scheme.n = 2**24
    with pytest.raises(ReplicationError) as info:
        montecarlo.run(config, threads=threads)
    msg = str(info.value)
    assert f"n={2**24}" in msg and "delta=0.25" in msg
    assert "seed=5, stream=300" in msg and "SizeError" in msg


def test_smoke_run_report_shape():
    config = _config(eta=0.1, dlt=0.1)
    report = montecarlo.run(config, threads=1)
    assert len(report.results) == 1
    res = report.results[0]
    assert res.n == 16
    assert res.delta == 0.25
    assert res.t_horizon == pytest.approx(4.0)
    assert 0.0 <= res.ks_distance <= 1.0
    assert res.degenerate_count == 0
    assert math.isfinite(res.mean_theta_hat)
    assert res.sd_theta_hat > 0
    assert res.bias == pytest.approx(res.mean_theta_hat - 1.0, rel=1e-12)
    assert res.var_ratio > 0
    assert res.budget_total > 0
    assert res.seconds > 0


def test_budget_total_nan_without_eta():
    report = montecarlo.run(_config(), threads=1)
    assert math.isnan(report.results[0].budget_total)
    row = report.to_dict()["schemes"][0]
    assert row["budget_total"] is None


def test_thread_count_does_not_change_results():
    config = _config()
    seq = montecarlo.run(config, threads=1)
    par = montecarlo.run(config, threads=2)
    assert seq.to_dict(canonical=True) == par.to_dict(canonical=True)


def test_canonical_dict_drops_seconds_only():
    report = montecarlo.run(_config(), threads=1)
    full = report.to_dict()["schemes"][0]
    canon = report.to_dict(canonical=True)["schemes"][0]
    assert "seconds" in full and "seconds" not in canon
    full.pop("seconds")
    assert full == canon


@pytest.mark.parametrize(
    "budget", [{}, {"eta": 0.1, "dlt": 0.1}], ids=["no_budget", "budget"]
)
def test_csv_rows_match_json_rows(budget):
    scheme = SamplingScheme(n=16, delta=0.25, oversample=2)
    report = montecarlo.run(_config(schedule=[scheme, scheme], **budget), threads=1)
    header, *lines = report.to_csv().splitlines()
    assert header.split(",") == list(montecarlo.CSV_COLUMNS)
    json_rows = report.to_dict()["schemes"]
    assert len(lines) == len(json_rows) == 2
    keys = [key for key, _, _ in montecarlo.FIELDS.values()]
    for line, row in zip(lines, json_rows):
        assert list(row) == keys
        cells = line.split(",")
        assert len(cells) == len(keys)
        for cell, value in zip(cells, row.values()):
            if value is None:  # NaN <-> null <-> empty cell
                assert cell == ""
            else:
                assert cell and float(cell) == value
                assert isinstance(value, float) or cell == str(value)
    budget_cell = lines[0].split(",")[montecarlo.CSV_COLUMNS.index("budget_total")]
    assert (budget_cell == "") == (not budget)


def test_streams_disjoint_across_schemes():
    # two schemes must not share Philox streams: their estimates differ even
    # for identical schemes
    scheme = SamplingScheme(n=16, delta=0.25, oversample=2)
    config = _config(schedule=[scheme, scheme])
    report = montecarlo.run(config, threads=1)
    a, b = report.results
    assert a.mean_theta_hat != b.mean_theta_hat


@pytest.mark.parametrize("x0", [0.0, 1.5, 1e200])  # 1e200: the power-of-two rescale
@pytest.mark.parametrize("n", [16, 500, 8000])
def test_run_block_matches_single_path_pipeline(n, x0):
    params = ModelParams(theta=1.0, hurst=0.6, x0=x0)
    scheme = SamplingScheme.from_gamma(n, 0.6)
    for first, count in [(0, 1), (3, 7), (2**40, montecarlo.block_rows(n))]:
        got = montecarlo.run_block(params, scheme, 17, first, count)
        ref = [
            lse.estimate(simulate_path(params, scheme, RngSeed(17, first + r))).theta_hat
            for r in range(count)
        ]
        assert got.tolist() == ref


def test_run_block_reuses_its_buffers_in_each_thread():
    params, scheme = ModelParams(theta=1.0, hurst=0.6), SamplingScheme(n=64, delta=0.25)
    first = montecarlo.run_block(params, scheme, 3, 0, 5)
    buffers = montecarlo._BUFFERS.arrays
    assert montecarlo.run_block(params, scheme, 3, 0, 5).tolist() == first.tolist()
    assert montecarlo._BUFFERS.arrays is buffers
    # a new shape sizes new buffers; a path beyond BLOCK_POINTS draws into new arrays
    montecarlo.run_block(params, scheme, 3, 0, 2)
    assert montecarlo._BUFFERS.arrays[0].shape == (2, 65)
    assert montecarlo._block_buffers(params, SamplingScheme(n=9000, delta=0.01), 1) is None


def test_run_block_threads_never_share_buffers():
    # more threads than cores, switching often, each alternating block shapes:
    # a buffer shared across threads would mix their draws
    params = ModelParams(theta=1.0, hurst=0.6)
    jobs = [(SamplingScheme(n=n, delta=0.25), 3, first, count)
            for n, count in ((64, 5), (100, 3), (64, 2)) for first in (0, 40)]
    expected = [montecarlo.run_block(params, *job).tolist() for job in jobs]
    results = {}

    def worker(t):
        results[t] = [
            montecarlo.run_block(params, *job).tolist() for _ in range(20) for job in jobs
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(results[t] == expected * 20 for t in range(6))


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="counts the page faults of the glibc heap",
)
def test_replications_do_not_page_the_heap_in():
    # Every array of an n = 8000 draw lies just below glibc's 128 KiB mmap and
    # trim thresholds.  Drawn into new arrays, each replication had its heap
    # trimmed and paged back in (about 90 minor faults) unless an import such
    # as scipy's had raised the thresholds, so this runs in a fresh
    # interpreter with no scipy module loaded.
    code = (
        "import json, resource, sys\n"
        "from fracou import montecarlo\n"
        "from fracou.fou import ModelParams, SamplingScheme\n"
        "params, scheme = ModelParams(1.0, 0.7), SamplingScheme.from_gamma(8000, 0.6)\n"
        "montecarlo.run_block(params, scheme, 11, 0, 1)  # the spectrum and the buffers\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for stream in range(1, 51):\n"
        "    montecarlo.run_block(params, scheme, 11, stream, 1)\n"
        "faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
        "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(json.dumps([faults, scipy]))\n"
    )
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120, check=True,
    )
    faults, scipy = json.loads(done.stdout)
    assert scipy == []
    assert faults <= 2 * 50, f"{faults} minor faults in 50 replications"


def test_block_fallback_rows_match_sample_cholesky(monkeypatch):
    # an indefinite embedding sends every row of the block to the Cholesky
    # factor, with the bits of sample_cholesky on each row's stream
    monkeypatch.setattr(fbm, "_embedding_spectrum", lambda *args: None)
    params = ModelParams(theta=1.0, hurst=0.6, x0=1.5)
    scheme = SamplingScheme(n=16, delta=0.25)
    grid = FbmGrid(step=0.25, count=16, hurst=0.6, theta=1.0)
    paths, fallback = fou.simulate_paths(params, scheme, 5, 40, 7)
    theta_hats = montecarlo.run_block(params, scheme, 5, 40, 7)
    assert fallback
    for r in range(7):
        xi = sample_cholesky(grid, RngSeed(5, 40 + r)).values
        x = fou._recurse(params, scheme, xi[None])[0]
        assert np.array_equal(paths[r], x)
        assert theta_hats[r] == lse.estimate_series(x, 0.25).theta_hat


def test_canonical_report_bytes_equal_at_one_two_three_workers():
    # 1001 replications at n = 64 make 8 blocks, the last one short
    config = _config(schedule=[SamplingScheme(n=64, delta=0.25)], replications=1001)
    reports = [
        json.dumps(montecarlo.run(config, threads=t).to_dict(canonical=True), sort_keys=True)
        for t in (1, 2, 3)
    ]
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("cpus, expected", [(64, [8]), (3, [3]), (1, [])])
def test_pool_never_exceeds_blocks_or_usable_cpus(monkeypatch, cpus, expected):
    # a recording stand-in for the process pool: no process is started
    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

        def shutdown(self):
            pass

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    config = _config(schedule=[SamplingScheme(n=64, delta=0.25)], replications=1001)
    pooled = montecarlo.run(config, threads=5000)
    assert started == expected
    serial = montecarlo.run(config, threads=1)
    assert pooled.to_dict(canonical=True) == serial.to_dict(canonical=True)


def test_single_block_runs_without_a_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started for one block")

    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
    assert montecarlo.block_rows(16) >= 100
    montecarlo.run(_config(), threads=5000)
