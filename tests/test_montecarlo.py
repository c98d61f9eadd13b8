import math

import numpy as np
import pytest

from fracou import montecarlo
from fracou.errors import ConfigError, DomainError, ReplicationError
from fracou.fbm import RngSeed
from fracou.fou import ModelParams, SamplingScheme
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
    with pytest.raises(ConfigError):
        _config(replications=50)
    with pytest.raises(ConfigError):
        _config(schedule=[])
    with pytest.raises(ConfigError):
        _config(schedule=[(16, 0.25)])
    with pytest.raises(ConfigError):
        _config(params=ModelParams(theta=1.0, hurst=0.8))
    with pytest.raises(ConfigError):
        _config(gamma=0.9)  # outside the admissible window for H=0.6
    with pytest.raises(ConfigError):
        _config(eta=0.1)  # dlt missing


def test_config_last_stream_must_be_a_philox_key():
    _config(base_seed=RngSeed(5, 2**63 - 100))  # last of 100 streams is 2^63 - 1
    with pytest.raises(DomainError):
        _config(base_seed=RngSeed(5, 2**63 - 99))
    with pytest.raises(DomainError):
        _config(base_seed=RngSeed(5, 2**63 - 150), schedule=[SamplingScheme(16, 0.25)] * 2)


@pytest.mark.parametrize("threads", [0, -1])
def test_run_rejects_nonpositive_worker_count(threads, monkeypatch):
    with pytest.raises(ConfigError):
        montecarlo.run(_config(), threads=threads)
    monkeypatch.setenv("FOU_THREADS", str(threads))
    with pytest.raises(ConfigError):
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
