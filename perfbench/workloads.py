"""The four benchmark workloads, driven through fracou's public functions.

Each workload builds its inputs from the benchmark seed and exposes:

- `op(k, tracer)`: operation k as a user runs it (one study, one theory
  point, one CLI roundtrip), with spans only around the top-level calls;
- `check(k, result)`: correctness checks that every distribution-preserving
  change keeps (no frozen bits), returning a list of failures;
- `replay(k, tracer)`: the same inputs (seed, stream, scheme) pushed through
  the layer functions one by one, under a root span `op`;
- `same(result, replayed)`: whether the replay is bit-equal to the operation.

Workload sizes (`SIZES`) come in two scales: `full` for measurement and
`tiny` for the smoke test.
"""

import contextlib
import io
import json
import math
import random

import numpy as np

from fracou import cli, fbm, fou, lse, montecarlo, theory
from fracou.errors import DegeneratePathError
from fracou.fbm import FbmGrid, RngSeed
from fracou.fou import ModelParams, SamplingScheme

SIZES = {
    "full": {
        "mc_large_n": {"n": 8000, "replications": 100, "workers": 1},
        "mc_small_n_2w": {"n": 500, "replications": 4000, "workers": 2},
        "theory_sweep": {"hurst": [0.55, 0.60, 0.65, 0.70], "horizon": [10, 20, 30, 40, 50]},
        "path_roundtrip": {"n": 2**17},
    },
    "tiny": {
        "mc_large_n": {"n": 200, "replications": 100, "workers": 1},
        "mc_small_n_2w": {"n": 50, "replications": 100, "workers": 2},
        "theory_sweep": {"hurst": [0.55, 0.70], "horizon": [2, 4]},
        "path_roundtrip": {"n": 2**10},
    },
}

THETA = 1.0
HURST = 0.7
GAMMA = 0.6  # delta = n^-0.6, inside the admissible window at H = 0.7
THEORY_N = 1000  # n of the scheme carrying each (H, T) theory point
ETA = DLT = 0.1  # bound-budget tuning pair


def _finite(*values):
    return all(math.isfinite(v) for v in values)


class McStudy:
    """One `montecarlo.run` study per operation; op k owns streams k*R .. k*R+R-1."""

    round_size = 1
    unit = "replications"
    op_is_replay = False

    def __init__(self, seed, size, tmpdir):
        self.seed = seed
        self.reps = size["replications"]
        self.workers = size["workers"]
        self.params = ModelParams(theta=THETA, hurst=HURST)
        self.scheme = SamplingScheme.from_gamma(size["n"], GAMMA)
        self.fine = FbmGrid(
            self.scheme.fine_step, self.scheme.n * self.scheme.oversample, HURST
        )
        self.first_report = None
        self.describe = dict(
            size, theta=THETA, hurst=HURST, gamma=GAMMA, delta=self.scheme.delta,
            oversample=self.scheme.oversample,
        )

    def config(self, k):
        return montecarlo.McConfig(
            params=self.params,
            schedule=[self.scheme],
            replications=self.reps,
            base_seed=RngSeed(self.seed, k * self.reps),
            gamma=GAMMA,
        )

    def warm_up(self):
        # A neighbouring grid loads the code paths; the study grid's
        # embedding spectrum is left to the operations, see `op`.
        other = SamplingScheme.from_gamma(self.scheme.n + 1, GAMMA)
        lse.estimate(fou.simulate_path(self.params, other, RngSeed(self.seed, 0)))

    def units(self, k):
        return self.reps

    def op(self, k, tracer):
        # Every study computes the embedding spectrum afresh, as a new
        # `fracou mc` process does: in process at 1 worker, and in each
        # forked worker at 2, which would otherwise inherit this cache.
        fbm._embedding_spectrum.cache_clear()
        with tracer.span("montecarlo.run", k):
            report = montecarlo.run(self.config(k), threads=self.workers)
        if k == 0:
            self.first_report = report
        return report

    def check(self, k, report):
        r = report.results[0]
        problems = []
        if r.degenerate_count != 0:
            problems.append(f"study {k}: {r.degenerate_count} degenerate replications")
        if not _finite(r.mean_theta_hat, r.sd_theta_hat, r.ks_distance, r.var_ratio):
            problems.append(f"study {k}: non-finite theta_hat statistics")
        return problems

    def final_checks(self):
        """Canonical report of study 0 is byte-equal at 1 and 2 workers."""
        if self.first_report is None:
            return None
        other = 2 if self.workers == 1 else 1
        again = montecarlo.run(self.config(0), threads=other)
        a = json.dumps(self.first_report.to_dict(canonical=True), sort_keys=True)
        b = json.dumps(again.to_dict(canonical=True), sort_keys=True)
        if a != b:
            return [f"study 0: canonical report differs at {self.workers} and {other} workers"]
        return []

    def replay(self, k, tracer):
        params, scheme = self.params, self.scheme
        thetas = np.empty(self.reps)
        with tracer.span("op", k):
            for r in range(self.reps):
                rid = (k, r)
                seed = RngSeed(self.seed, k * self.reps + r)
                with tracer.span("fbm.sample_circulant", rid):
                    incs = fbm.sample_circulant(self.fine, seed)
                tracer.count("fbm.draws")
                tracer.count("fbm.fallbacks", int(incs.fallback))
                with tracer.span("fou.simulate_path", rid):
                    path = fou.simulate_path(params, scheme, seed, increments=incs)
                with tracer.span("lse.estimate", rid):
                    try:
                        thetas[r] = lse.estimate(path).theta_hat
                    except DegeneratePathError:
                        thetas[r] = math.nan
                        tracer.count("lse.degenerate")
                tracer.count("lse.estimates")
            with tracer.span("theory.constants", k):
                consts = theory.constants(params, scheme, "asymptotic")
            degenerate = int(np.isnan(thetas).sum())
            valid = thetas[~np.isnan(thetas)]
            root_t_err = math.sqrt(scheme.horizon) * (valid - params.theta)
            with tracer.span("montecarlo.ks_to_std_normal", k):
                ks = montecarlo.ks_to_std_normal(consts.lambda_n * root_t_err)
        return (
            float(np.mean(valid)),
            float(np.std(valid, ddof=1)),
            ks,
            float(np.var(root_t_err, ddof=1) / consts.sigma_h2),
            degenerate,
        )

    def same(self, report, replayed):
        r = report.results[0]
        ran = (r.mean_theta_hat, r.sd_theta_hat, r.ks_distance, r.var_ratio,
               r.degenerate_count)
        return ran == replayed

    def trace_extras(self, k, tracer):
        """A first draw on a grid not seen before, embedding spectrum included."""
        fresh = FbmGrid(self.fine.step * (1.0 + (k + 1) * 2.0**-40), self.fine.count, HURST)
        with tracer.span("fbm.first_draw", k):
            fbm.sample_circulant(fresh, RngSeed(self.seed, k))


class TheorySweep:
    """One (H, T) point per operation; each round visits every point once,
    in an order drawn from the seed."""

    unit = "points"
    op_is_replay = True

    def __init__(self, seed, size, tmpdir):
        self.points = [(h, t) for h in size["hurst"] for t in size["horizon"]]
        self.round_size = len(self.points)
        self.rng = random.Random(seed)
        self.order = []
        self.describe = dict(size, theta=THETA, n=THEORY_N, eta=ETA, dlt=DLT)

    def point(self, k):
        while len(self.order) <= k:
            batch = list(self.points)
            self.rng.shuffle(batch)
            self.order.extend(batch)
        h, t = self.order[k]
        return ModelParams(theta=THETA, hurst=h), SamplingScheme(THEORY_N, t / THEORY_N)

    def warm_up(self):
        params = ModelParams(theta=THETA, hurst=self.points[0][0])
        theory.constants(params, SamplingScheme(THEORY_N, 1.0 / THEORY_N), "quadrature")

    def units(self, k):
        return 1

    def op(self, k, tracer):
        return self.replay(k, tracer)

    def check(self, k, result):
        alpha, ef2, lam, alpha_quad, identity, budget = result
        problems = []
        if not abs(alpha - alpha_quad) <= 1e-7 * abs(alpha_quad):
            problems.append(f"point {k}: alpha_n {alpha!r} vs quadrature {alpha_quad!r}")
        if not abs(identity - 1.0) <= 1e-10:
            problems.append(f"point {k}: lambda_limit^2 * sigma_h2 = {identity!r}")
        if not (_finite(ef2, lam, budget) and ef2 > 0 and budget > 0):
            problems.append(f"point {k}: non-finite or non-positive constants")
        return problems

    def final_checks(self):
        return None

    def replay(self, k, tracer):
        params, scheme = self.point(k)
        horizon = scheme.horizon
        with tracer.span("op", k):
            with tracer.span("theory.constants_quad", k):
                consts = theory.constants(params, scheme, "quadrature")
            with tracer.span("theory.alpha_n_quadrature", k):
                alpha_quad = theory.alpha_n_quadrature(params, horizon)
            with tracer.span("theory.closed_form", k):
                identity = theory.lambda_limit(params) ** 2 * theory.sigma_h2(params)
                budget = theory.bound_budget(scheme, params, ETA, DLT).total
        # ef2_quadrature's default mesh and its two dense Toeplitz products
        # (coarse and doubled mesh), counted from the sizes, not measured.
        cells = max(300, int(24 * horizon))
        tracer.count("theory.ef2_cells", cells)
        tracer.count("theory.ef2_flops", 18 * cells**3 + 10 * cells**2)
        return consts.alpha_n, consts.ef2, consts.lambda_n, alpha_quad, identity, budget

    def same(self, result, replayed):
        return result == replayed

    def trace_extras(self, k, tracer):
        """ef2_quadrature on its own: the dominant part of constants_quad."""
        params, scheme = self.point(k)
        with tracer.span("theory.ef2_quadrature", k):
            theory.ef2_quadrature(params, scheme.horizon)


class PathRoundtrip:
    """`fracou simulate` to a CSV and `fracou estimate` back, in process;
    op k uses stream k."""

    round_size = 1
    unit = "observations"
    op_is_replay = False

    def __init__(self, seed, size, tmpdir):
        self.seed = seed
        self.params = ModelParams(theta=THETA, hurst=HURST)
        self.scheme = SamplingScheme.from_gamma(size["n"], GAMMA)
        self.fine = FbmGrid(
            self.scheme.fine_step, self.scheme.n * self.scheme.oversample, HURST
        )
        self.tmpdir = tmpdir
        self.describe = dict(
            size, theta=THETA, hurst=HURST, gamma=GAMMA, delta=self.scheme.delta,
            oversample=self.scheme.oversample,
        )

    def warm_up(self):
        # Fills the embedding-spectrum cache that every operation shares.
        fou.simulate_path(self.params, self.scheme, RngSeed(self.seed, 2**40))

    def units(self, k):
        return self.scheme.n + 1

    def csv(self, k, kind):
        # A new file per operation, as each `fracou simulate --out` call
        # writes: rewriting one file in place lets ext4 flush the truncated
        # file on close, which would time the disk instead of the program.
        return self.tmpdir / f"{kind}_{k}.csv"

    def op(self, k, tracer):
        argv = [
            "simulate", "--theta", repr(THETA), "--hurst", repr(HURST),
            "--n", str(self.scheme.n), "--gamma", repr(GAMMA),
            "--seed", str(self.seed), "--stream", str(k), "--out", str(self.csv(k, "cli")),
        ]
        with tracer.span("cli.simulate", k):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"fracou simulate exited {code}")
        out = io.StringIO()
        with tracer.span("cli.estimate", k), contextlib.redirect_stdout(out):
            code = cli.main(["estimate", "--in", str(self.csv(k, "cli"))])
        if code != 0:
            raise RuntimeError(f"fracou estimate exited {code}")
        return json.loads(out.getvalue())

    def check(self, k, result):
        """The CLI's JSON equals lse.estimate_series on the in-memory path."""
        self.csv(k, "cli").unlink()
        path = fou.simulate_path(self.params, self.scheme, RngSeed(self.seed, k))
        est = lse.estimate_series(path.x, self.scheme.delta)
        expected = {
            "theta_hat": est.theta_hat, "numerator": est.numerator,
            "denominator": est.denominator, "n": est.n, "delta": est.delta,
        }
        problems = []
        if result != expected:
            problems.append(f"roundtrip {k}: CLI estimate {result} != in-memory {expected}")
        if not math.isfinite(est.theta_hat):
            problems.append(f"roundtrip {k}: non-finite theta_hat")
        return problems

    def final_checks(self):
        return None

    def replay(self, k, tracer):
        seed = RngSeed(self.seed, k)
        csv = self.csv(k, "traced" if tracer.enabled else "untraced")
        with tracer.span("op", k):
            with tracer.span("fbm.sample_circulant", k):
                incs = fbm.sample_circulant(self.fine, seed)
            tracer.count("fbm.draws")
            tracer.count("fbm.fallbacks", int(incs.fallback))
            with tracer.span("fou.simulate_path", k):
                path = fou.simulate_path(self.params, self.scheme, seed, increments=incs)
            with tracer.span("fou.write_path_csv", k):
                fou.write_path_csv(path, csv)
            with tracer.span("fou.read_path_csv", k):
                x, delta = fou.read_path_csv(csv)
            with tracer.span("lse.estimate", k):
                try:
                    theta_hat = lse.estimate_series(x, delta).theta_hat
                except DegeneratePathError:
                    theta_hat = math.nan
                    tracer.count("lse.degenerate")
            tracer.count("lse.estimates")
        if tracer.enabled:
            tracer.counters["fou.csv_bytes"] = csv.stat().st_size
        csv.unlink()
        return theta_hat

    def same(self, result, replayed):
        return result["theta_hat"] == replayed

    def trace_extras(self, k, tracer):
        pass


WORKLOADS = {
    "mc_large_n": McStudy,
    "mc_small_n_2w": McStudy,
    "theory_sweep": TheorySweep,
    "path_roundtrip": PathRoundtrip,
}


def make(name, seed, scale, tmpdir):
    return WORKLOADS[name](seed, SIZES[scale][name], tmpdir)
