"""Acceptance gate: eight numbered criteria, one test each.

Every test prints a single `ACCEPTANCE k PASS/FAIL` line so the suite output
doubles as the acceptance report.  Criteria 5-7 exercise the plain
least-squares estimator's claimed consistency/CLT behavior at desk scale and
are expected to fail; see the repository README for the analysis of why the
plain estimator degenerates on discretely observed data with H > 1/2.
"""

import json
import math
import os
import time

import numpy as np
import pytest
import scipy.stats

from fracou import montecarlo, theory
from fracou.cli import main as cli_main
from fracou.fbm import FbmGrid, RngSeed, increment_autocov, sample_cholesky, sample_rows
from fracou.fou import ModelParams, SamplingScheme
from fracou.montecarlo import McConfig
from fracou.specialfn import gamma, std_normal_cdf


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_special_functions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260823)

    xs = rng.uniform(0.1, 20.0, size=1000)
    rec = max(
        abs(gamma(x + 1.0) - x * gamma(x)) / abs(x * gamma(x)) for x in xs
    )

    us = rng.uniform(0.02, 0.98, size=1000)
    refl = max(
        abs(gamma(u) * gamma(1.0 - u) - math.pi / math.sin(math.pi * u))
        / (math.pi / math.sin(math.pi * u))
        for u in us
    )

    zs = rng.uniform(-8.0, 8.0, size=1000)
    sym = float(np.max(np.abs(std_normal_cdf(zs) + std_normal_cdf(-zs) - 1.0)))

    elapsed = time.perf_counter() - t0
    ok = rec <= 1e-11 and refl <= 1e-11 and sym <= 1e-12 and elapsed < 1.0
    _report(
        1,
        ok,
        f"recurrence {rec:.2e} (<=1e-11), reflection {refl:.2e} (<=1e-11), "
        f"Phi symmetry {sym:.2e} (<=1e-12), {elapsed:.2f}s (<1s)",
    )


# ---------------------------------------------------------------- criterion 2


def _lagwise_autocov_zscores(hurst: float, seed: int, count: int, n_rep: int):
    """Max |empirical - exact| / SE over all lags, from per-draw lag averages."""
    grid = FbmGrid(step=1.0, count=count, hurst=hurst)
    rho = increment_autocov(grid, np.arange(count))
    nlag = count - np.arange(count)
    s1 = np.zeros(count)
    s2 = np.zeros(count)
    chunk = 2000
    r = 0
    while r < n_rep:
        b = min(chunk, n_rep - r)
        # rows r .. r+b-1 are the sample_circulant draws of those streams, bit for bit
        block = sample_rows(grid, seed, r, b)[0]
        f = np.fft.rfft(block, n=2 * count, axis=1)
        ac = np.fft.irfft(f * np.conj(f), n=2 * count, axis=1)[:, :count] / nlag
        s1 += ac.sum(axis=0)
        s2 += (ac * ac).sum(axis=0)
        r += b
    mean = s1 / n_rep
    var = (s2 - n_rep * mean**2) / (n_rep - 1)
    se = np.sqrt(var / n_rep)
    return float(np.max(np.abs(mean - rho) / se))


def test_criterion_2_fbm_exactness():
    t0 = time.perf_counter()
    count, n_rep = 256, 200000
    zmax = {
        h: _lagwise_autocov_zscores(h, seed=8008, count=count, n_rep=n_rep)
        for h in (0.55, 0.7)
    }

    # cross-method law check on a handful of marginals
    grid = FbmGrid(step=1.0, count=count, hurst=0.7)
    n_ks = 10000
    circ = sample_rows(grid, 91, 0, n_ks)[0]
    chol = np.empty((n_ks, count))
    for r in range(n_ks):
        chol[r] = sample_cholesky(grid, RngSeed(92, r)).values
    bc = np.cumsum(circ, axis=1)
    bh = np.cumsum(chol, axis=1)
    pmin = min(
        scipy.stats.ks_2samp(bc[:, j], bh[:, j]).pvalue for j in (0, 63, 127, 255)
    )

    elapsed = time.perf_counter() - t0
    ok = all(z <= 3.0 for z in zmax.values()) and pmin > 1e-3 and elapsed < 120.0
    _report(
        2,
        ok,
        f"max |z| per lag: H=0.55 -> {zmax[0.55]:.2f}, H=0.7 -> {zmax[0.7]:.2f} "
        f"(<=3), min cross-method KS p={pmin:.3g} (>1e-3), {elapsed:.0f}s (<2min)",
    )


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_alpha_cross_check():
    t0 = time.perf_counter()
    worst = 0.0
    for th in (0.5, 1.0, 2.0):
        for h in (0.55, 0.65, 0.74):
            params = ModelParams(theta=th, hurst=h)
            for t_end in (1.0, 10.0, 100.0):
                closed = theory.alpha_n(params, t_end)
                quad = theory.alpha_n_quadrature(params, t_end)
                worst = max(worst, abs(closed - quad) / abs(quad))

    rate_gap = 0.0
    for th in (0.5, 1.0, 2.0):
        for h in (0.55, 0.65, 0.74):
            params = ModelParams(theta=th, hurst=h)
            rate = theory.alpha_limit_rate(params)
            rate_gap = max(rate_gap, abs(theory.alpha_n(params, 100.0) / 100.0 - rate) / rate)

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and rate_gap <= 0.02 and elapsed < 60.0
    _report(
        3,
        ok,
        f"closed-vs-quadrature max rel gap {worst:.2e} (<=1e-7), "
        f"alpha/T vs limit at T=100 max rel gap {rate_gap:.3f} (<=0.02), "
        f"{elapsed:.0f}s (<1min)",
    )


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_variance_limit():
    t0 = time.perf_counter()
    params = ModelParams(theta=1.0, hurst=0.6)
    a_val = theory.a_theta_h(params)
    gaps = [
        abs(theory.ef2_quadrature(params, t_end) - a_val) / a_val
        for t_end in (5.0, 10.0, 20.0, 40.0)
    ]
    elapsed = time.perf_counter() - t0
    monotone = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    ok = monotone and gaps[-1] < 0.10 and elapsed < 600.0
    _report(
        4,
        ok,
        f"gaps along T=5,10,20,40: {', '.join(f'{g:.3f}' for g in gaps)} "
        f"(monotone decreasing, final < 0.10), {elapsed:.0f}s (<10min)",
    )


# ------------------------------------------------------- shared MC for 5, 6, 7

N_REP = 4000
N_SCHEDULE = (500, 2000, 8000)


@pytest.fixture(scope="module")
def mc_study():
    params = ModelParams(theta=1.0, hurst=0.7)
    schedule = [SamplingScheme.from_gamma(n, 0.6, oversample=8) for n in N_SCHEDULE]
    config = McConfig(
        params=params,
        schedule=schedule,
        replications=N_REP,
        base_seed=RngSeed(20260823, 0),
        eta=0.1,
        dlt=0.1,
        gamma=0.6,
    )
    threads = min(8, os.cpu_count() or 1)
    t0 = time.perf_counter()
    report = montecarlo.run(config, threads=threads)
    return report, time.perf_counter() - t0


def test_criterion_5_consistency(mc_study):
    report, elapsed = mc_study
    abs_bias = [abs(r.bias) for r in report.results]
    decreasing = all(b1 > b2 for b1, b2 in zip(abs_bias, abs_bias[1:]))
    ok = decreasing and abs_bias[-1] < 0.05 and elapsed < 1200.0
    _report(
        5,
        ok,
        "|mean(theta_hat) - 1| along n=500,2000,8000: "
        f"{', '.join(f'{b:.3f}' for b in abs_bias)} "
        f"(strictly decreasing, final < 0.05), MC {elapsed:.0f}s (<20min)",
    )


def test_criterion_6_clt(mc_study):
    report, _ = mc_study
    final = report.results[-1]
    var_ok = 0.85 <= final.var_ratio <= 1.15
    ks_ok = final.ks_distance < 0.06
    ok = var_ok and ks_ok
    _report(
        6,
        ok,
        f"Var(sqrt(T)(theta_hat - theta)) / sigma_H^2 = {final.var_ratio:.3f} "
        f"(in [0.85, 1.15]), studentized KS = {final.ks_distance:.3f} (< 0.06) "
        f"at n=8000, N={N_REP}",
    )


def test_criterion_7_rate_behavior(mc_study):
    report, _ = mc_study
    ks = np.array([r.ks_distance for r in report.results])
    budgets = np.array([r.budget_total for r in report.results])
    noise = 2.0 * 1.36 / math.sqrt(N_REP)
    non_increasing = all(k2 <= k1 + noise for k1, k2 in zip(ks, ks[1:]))
    corr = float(np.corrcoef(ks, budgets)[0, 1])
    ok = non_increasing and corr > 0.0
    _report(
        7,
        ok,
        f"KS along n: {', '.join(f'{k:.3f}' for k in ks)} "
        f"(non-increasing within noise {noise:.3f}), "
        f"corr(KS, budget total) = {corr:.2f} (> 0); constant c not estimated",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_determinism(tmp_path):
    doc = {
        "theta": 1.0,
        "hurst": 0.6,
        "replications": 200,
        "seed": 31415,
        "oversample": 2,
        "eta": 0.1,
        "dlt": 0.1,
        "schedule": [{"n": 64, "delta": 0.25}, {"n": 128, "delta": 0.2}],
    }
    payloads = []
    for threads, name in ((1, "a"), (4, "b")):
        cfg = tmp_path / f"{name}.json"
        out = tmp_path / f"{name}_report.json"
        cfg.write_text(json.dumps(dict(doc, out_json=str(out))))
        assert cli_main(["mc", str(cfg), "--threads", str(threads)]) == 0
        report = json.loads(out.read_text())
        for row in report["schemes"]:
            row.pop("seconds", None)
        payloads.append(json.dumps(report, sort_keys=True).encode())
    ok = payloads[0] == payloads[1]
    _report(
        8,
        ok,
        "canonicalized mc reports byte-identical across --threads 1 and 4"
        if ok
        else "reports differ across thread counts",
    )
