"""Replicated simulate -> estimate pipelines and Kolmogorov-distance checks.

Each replication draws its own Philox stream (stream index = scheme offset +
replication index), so runs are bitwise reproducible for any worker count:
results are collected by replication index and all reductions happen on the
index-ordered array in a single thread.
"""

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import lse, theory
from .errors import DataQualityError, DegeneratePathError, DomainError, ReplicationError
from .fbm import RngSeed
from .fou import ModelParams, SamplingScheme, check_steps, simulate_path
from .specialfn import std_normal_cdf

__all__ = ["McConfig", "SchemeResult", "McReport", "ks_to_std_normal", "run"]

#: replications failing with a degenerate path must stay below this fraction
MAX_DEGENERATE_FRACTION = 1e-3

#: SchemeResult attribute -> (JSON key, CSV column, kept in the canonical
#: form), in report order; the canonical form drops the wall-clock fields
FIELDS = {
    "n": ("n", "n", True),
    "delta": ("delta", "delta", True),
    "t_horizon": ("T", "T", True),
    "mean_theta_hat": ("mean_theta_hat", "mean", True),
    "sd_theta_hat": ("sd_theta_hat", "sd", True),
    "bias": ("bias", "bias", True),
    "ks_distance": ("ks_distance", "ks", True),
    "var_ratio": ("var_ratio", "var_ratio", True),
    "degenerate_count": ("degenerate_count", "degenerate", True),
    "budget_total": ("budget_total", "budget_total", True),
    "seconds": ("seconds", "seconds", False),
}

#: columns of the flat CSV summary, in documented order
CSV_COLUMNS = tuple(column for _, column, _ in FIELDS.values())


@dataclass
class McConfig:
    params: ModelParams
    schedule: list
    replications: int
    base_seed: RngSeed
    ef2_mode: str = "asymptotic"
    eta: float | None = None
    dlt: float | None = None
    gamma: float | None = None  # recorded when the schedule came from delta = n^-gamma

    def __post_init__(self):
        if self.replications < 100:
            raise DomainError(f"replications must be >= 100, got {self.replications}")
        if not self.schedule:
            raise DomainError("schedule must not be empty")
        for scheme in self.schedule:
            if not isinstance(scheme, SamplingScheme):
                raise DomainError(f"schedule entries must be SamplingScheme, got {scheme!r}")
            check_steps(scheme.n)
        theory.check_design(self.params.hurst, self.gamma, self.eta, self.dlt, self.ef2_mode)
        # the last replication's stream must be a Philox key too
        last = self.base_seed.stream + len(self.schedule) * self.replications - 1
        RngSeed(self.base_seed.seed, last)


@dataclass
class SchemeResult:
    n: int
    delta: float
    t_horizon: float
    mean_theta_hat: float
    sd_theta_hat: float
    bias: float
    ks_distance: float
    var_ratio: float
    degenerate_count: int
    budget_total: float  # NaN when no (eta, dlt) was configured
    seconds: float


@dataclass
class McReport:
    config: McConfig
    results: list = field(default_factory=list)

    def to_dict(self, canonical: bool = False) -> dict:
        """JSON-ready dict.  canonical=True drops wall-clock fields so that
        reports from runs with different worker counts compare byte-equal."""
        rows = [
            {
                key: _nan_as_none(getattr(r, attr))
                for attr, (key, _, stable) in FIELDS.items()
                if stable or not canonical
            }
            for r in self.results
        ]
        return {
            "theta": self.config.params.theta,
            "hurst": self.config.params.hurst,
            "x0": self.config.params.x0,
            "replications": self.config.replications,
            "seed": self.config.base_seed.seed,
            "stream": self.config.base_seed.stream,
            "ef2_mode": self.config.ef2_mode,
            "budget_note": "rate-only: the theorem constant c is unknown and reported as 1",
            "schemes": rows,
        }

    def to_csv(self) -> str:
        """Flat CSV summary: a CSV_COLUMNS header, then the `to_dict` rows in
        table order, floats as %.17g and null as an empty cell."""
        lines = [",".join(CSV_COLUMNS)]
        for row in self.to_dict()["schemes"]:
            lines.append(",".join(_csv_cell(value) for value in row.values()))
        return "\n".join(lines) + "\n"


def _nan_as_none(value):
    """The one missing-value rule: NaN is JSON null and an empty CSV cell."""
    return None if isinstance(value, float) and math.isnan(value) else value


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def ks_to_std_normal(sample) -> float:
    """Exact one-sample Kolmogorov-Smirnov statistic against Phi."""
    arr = np.asarray(sample, dtype=float)
    if arr.size == 0:
        raise DomainError("sample must be nonempty")
    if np.any(np.isnan(arr)):
        raise DomainError("sample contains NaN")
    arr = np.sort(arr)
    n = arr.size
    cdf = std_normal_cdf(arr)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    return float(max(d_plus, d_minus))


def _replicate(args):
    params, scheme, seed, stream = args
    try:
        path = simulate_path(params, scheme, RngSeed(seed, stream))
        return lse.estimate(path).theta_hat
    except DegeneratePathError:
        return math.nan
    except Exception as exc:
        raise ReplicationError(
            f"replication failed at n={scheme.n}, delta={scheme.delta!r}, "
            f"Philox (seed={seed}, stream={stream}): {type(exc).__name__}: {exc}"
        ) from exc


def _default_threads() -> int:
    env = os.environ.get("FOU_THREADS")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise DomainError(f"FOU_THREADS must be an integer, got {env!r}") from exc
    return 1


def run(config: McConfig, threads: int | None = None) -> McReport:
    """Run the full Monte Carlo study described by `config`.

    Every scheme's constants and budget come first, so they fail before a draw.
    Replication r of scheme k uses stream base + k * N + r; statistics are
    computed from the stream-ordered estimate array, so the report does not
    depend on `threads`.
    """
    if threads is None:
        threads = _default_threads()
    if threads < 1:
        raise DomainError(f"worker count must be >= 1, got {threads}")
    n_rep = config.replications
    params = config.params
    consts = [theory.constants(params, s, config.ef2_mode) for s in config.schedule]
    budgets = [
        theory.bound_budget(s, params, config.eta, config.dlt).total
        if config.eta is not None else math.nan
        for s in config.schedule
    ]
    report = McReport(config=config)
    pool = ProcessPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for k, scheme in enumerate(config.schedule):
            t0 = time.perf_counter()
            base = config.base_seed.stream + k * n_rep
            jobs = [
                (params, scheme, config.base_seed.seed, base + r) for r in range(n_rep)
            ]
            if pool is None:
                theta_hats = np.fromiter(map(_replicate, jobs), dtype=float, count=n_rep)
            else:
                chunk = max(1, n_rep // (threads * 8))
                theta_hats = np.fromiter(
                    pool.map(_replicate, jobs, chunksize=chunk), dtype=float, count=n_rep
                )
            degenerate = int(np.isnan(theta_hats).sum())
            if degenerate >= MAX_DEGENERATE_FRACTION * n_rep:
                raise DataQualityError(
                    f"{degenerate}/{n_rep} degenerate replications at n={scheme.n}"
                )
            valid = theta_hats[~np.isnan(theta_hats)]
            t_n = scheme.horizon
            root_t_err = math.sqrt(t_n) * (valid - params.theta)
            student = consts[k].lambda_n * root_t_err
            report.results.append(
                SchemeResult(
                    n=scheme.n,
                    delta=scheme.delta,
                    t_horizon=t_n,
                    mean_theta_hat=float(np.mean(valid)),
                    sd_theta_hat=float(np.std(valid, ddof=1)),
                    bias=float(np.mean(valid) - params.theta),
                    ks_distance=ks_to_std_normal(student),
                    var_ratio=float(np.var(root_t_err, ddof=1) / consts[k].sigma_h2),
                    degenerate_count=degenerate,
                    budget_total=budgets[k],
                    seconds=time.perf_counter() - t0,
                )
            )
    finally:
        if pool is not None:
            pool.shutdown()
    return report
