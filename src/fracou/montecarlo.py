"""Replicated simulate -> estimate pipelines and Kolmogorov-distance checks.

Replication r of scheme k draws its own Philox stream, base + k * N + r.
The replications of a scheme are cut into blocks of consecutive streams of
at most BLOCK_POINTS path points (16 replications at n = 500, 1 at
n = 8000), so that a block's arrays stay in cache.  `run_block` draws a
block with one Philox generator re-keyed per stream, one batched irfft and
one recursion along the rows, then takes the estimator sums row by row;
each theta_hat is bit for bit that of the single-path simulate -> estimate
pipeline.  A pool receives whole blocks, a few per worker, and returns
them in stream order, and all reductions happen on the stream-ordered array
in one thread, so runs are bitwise reproducible for any worker count.  The
pool never starts more workers than there are blocks or usable CPUs.
"""

import math
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import lse, theory
from .errors import DataQualityError, DomainError, ReplicationError
from .fbm import RngSeed
from .fou import ModelParams, SamplingScheme, check_steps, draw_buffers, simulate_paths
from .specialfn import std_normal_cdf

__all__ = ["McConfig", "SchemeResult", "McReport", "ks_to_std_normal", "run", "run_block"]

#: replications failing with a degenerate path must stay below this fraction
MAX_DEGENERATE_FRACTION = 1e-3

#: path points (replications x (n + 1)) per block: 16 replications at
#: n = 500, 1 at n = 8000.  A block's arrays (about 48 bytes per point) are
#: then no larger than those of one n = 8000 path and stay in L2; at 2^15
#: points the allocator returned each freed block to the system, and the
#: page faults cost 13% at n = 8000 (Intel Xeon, glibc)
BLOCK_POINTS = 2**13

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


def block_rows(n: int) -> int:
    """Replications per block at n steps: at most BLOCK_POINTS path points."""
    return max(1, BLOCK_POINTS // (n + 1))


class _DrawBuffers(threading.local):
    """The `fou.draw_buffers` arrays of the last block shape, one set per thread."""

    key = None
    arrays = None


_BUFFERS = _DrawBuffers()


def _block_buffers(params: ModelParams, scheme: SamplingScheme, count: int):
    """This thread's draw buffers for the block, sized anew when its shape
    changes; None for a single path longer than BLOCK_POINTS, which draws
    into new arrays, so a thread keeps at most about 40 bytes per point of
    BLOCK_POINTS (330 KB).

    At n = 8000 each array of the draw is just below glibc's 128 KiB mmap
    and trim thresholds: drawn into new arrays, the heap was trimmed and
    paged back in after every replication (about 90 page faults each).
    """
    if count * (scheme.n + 1) > BLOCK_POINTS:
        return None
    key = (count, scheme.n, params.theta, scheme.delta)
    if _BUFFERS.key != key:
        _BUFFERS.key, _BUFFERS.arrays = key, draw_buffers(params, scheme, count)
    return _BUFFERS.arrays


def run_block(params: ModelParams, scheme: SamplingScheme, seed: int, first_stream: int,
              count: int) -> np.ndarray:
    """theta_hat of the replications on Philox streams (seed, first_stream + r),
    r = 0..count-1, in stream order; NaN where the path is degenerate.

    Entry r equals lse.estimate(simulate_path(params, scheme, RngSeed(seed,
    first_stream + r))).theta_hat bit for bit: one batched draw and
    recursion, then the estimator sums of the whole block.  The draw goes
    into buffers that the calling thread keeps while the block shape repeats
    (a `threading.local`, so threads never share them); the size guard runs
    before they are sized.  Any other failure raises ReplicationError naming
    the scheme, the stream of the first non-finite row (else the block's
    first) and the block's streams.
    """
    stream = first_stream
    try:
        out = _block_buffers(params, scheme, count)
        paths = simulate_paths(params, scheme, seed, first_stream, count, out=out)
        finite = np.isfinite(paths).all(axis=1)
        if not finite.all():
            stream = first_stream + int(np.argmin(finite))
            raise DomainError("path contains non-finite values")
        num, den = lse.ratio_terms(paths, scheme.delta)
        return num / den
    except Exception as exc:
        raise ReplicationError(
            f"replication failed at n={scheme.n}, delta={scheme.delta!r}, "
            f"Philox (seed={seed}, stream={stream}) in the block of streams "
            f"{first_stream}..{first_stream + count - 1}: {type(exc).__name__}: {exc}"
        ) from exc


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    rows = [block_rows(s.n) for s in config.schedule]
    most_blocks = max(math.ceil(n_rep / r) for r in rows)
    workers = min(threads, most_blocks, _usable_cpus())
    report = McReport(config=config)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for k, scheme in enumerate(config.schedule):
            t0 = time.perf_counter()
            base = config.base_seed.stream + k * n_rep
            firsts = range(base, base + n_rep, rows[k])
            counts = [min(rows[k], base + n_rep - first) for first in firsts]
            blocks = (repeat(params), repeat(scheme), repeat(config.base_seed.seed), firsts, counts)
            if pool is None:
                parts = map(run_block, *blocks)
            else:
                chunk = max(1, len(firsts) // (workers * 4))
                parts = pool.map(run_block, *blocks, chunksize=chunk)
            theta_hats = np.concatenate(list(parts))
            degenerate = int(np.isnan(theta_hats).sum())
            if degenerate >= MAX_DEGENERATE_FRACTION * n_rep:
                raise DataQualityError(
                    f"{degenerate}/{n_rep} degenerate replications at n={scheme.n}"
                )
            valid = theta_hats[~np.isnan(theta_hats)]
            root_t_err, student = lse.studentize_sample(valid, params, consts[k])
            report.results.append(
                SchemeResult(
                    n=scheme.n,
                    delta=scheme.delta,
                    t_horizon=scheme.horizon,
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
