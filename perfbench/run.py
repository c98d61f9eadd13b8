#!/usr/bin/env python3
"""fracou benchmark: four workloads, end-to-end metrics and per-layer spans.

    python3 perfbench/run.py --workload mc_large_n --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout: fracou is imported from `src/` next
to this directory, never from an installed copy.  `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics of a separate traced
replay.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it say the
same for a reader, with provenance.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in BENCH["workloads"])
#: name -> unit, in declared order, of the metrics printed with --trace 0 / 1
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
SETUP_REPEATS = {"full": 5, "tiny": 1}
CHILD_TIMEOUT_S = 170


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _clean_environment():
    """Settings of this process and its children only: no FOU_THREADS (the
    workloads pass `threads` explicitly), BLAS threads capped at nproc, and
    fracou from this checkout for any worker interpreter."""
    os.environ.pop("FOU_THREADS", None)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = str(SRC)
    return nproc


def _import_fracou():
    if not (SRC / "fracou" / "__init__.py").is_file():
        _fail(f"no fracou sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fracou

    if SRC.resolve() not in Path(fracou.__file__).resolve().parents:
        _fail(f"imported fracou from {fracou.__file__}, not from {SRC}")
    return fracou


def _read_text(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _git_commit():
    head = _read_text(ROOT / ".git" / "HEAD")
    if head is None:
        return os.environ.get("GIT_COMMIT", "unknown")
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read_text(ROOT / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (_read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _cpu():
    model = "unknown"
    for line in (_read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read_text(index / f) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level.strip()}{kind.strip()[0].lower()}"] = size.strip()
    return model, caches


def provenance(args, nproc, fracou, workload):
    import numpy
    import scipy

    model, caches = _cpu()
    return {
        "fracou": fracou.__version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": model,
        "cpu_caches": caches,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "params": workload.describe,
    }


def tail_index(n):
    """Index (sorted order) of the highest sample with at least ten samples
    above it, but never below the median."""
    return max(n - 11, (n - 1) // 2) if n else 0


def measure_setup(args):
    """Median wall time from starting a fresh interpreter until it has
    imported fracou, built the workload's inputs and warmed up."""
    times = []
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--scale", args.scale, "--setup-only",
    ]
    for _ in range(SETUP_REPEATS[args.scale]):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up child exited {proc.returncode}")
    return statistics.median(times)


def run_workload(wl, args):
    """The measured loop: whole rounds of operations until --seconds is spent."""
    from spans import NullTracer, Tracer

    null = NullTracer()
    tracer = Tracer() if args.trace else null
    stats = {"op_s": [], "units": 0.0, "attempted": 0, "failed": 0, "mismatch": 0,
             "traced_s": [], "untraced_s": []}
    k = 0
    start = time.perf_counter()
    while True:
        for _ in range(wl.round_size):
            stats["attempted"] += 1
            try:
                problems = _one_op(wl, k, tracer, null, stats)
            except Exception as exc:  # counted as a failed operation
                problems = [f"op {k}: {type(exc).__name__}: {exc}"]
            if problems:
                stats["failed"] += 1
                for p in problems:
                    print(f"FAILED {p}", file=sys.stderr)
            k += 1
        if time.perf_counter() - start >= args.seconds:
            break
    return tracer, stats


def _one_op(wl, k, tracer, null, stats):
    if not tracer.enabled:
        t0 = time.perf_counter()
        result = wl.op(k, null)
        stats["op_s"].append(time.perf_counter() - t0)
        stats["units"] += wl.units(k)
        return wl.check(k, result)
    # Traced run: untraced and traced replays of the same inputs, in
    # alternating order, then the operation itself with its top-level spans.
    order = [(null, "untraced_s"), (tracer, "traced_s")]
    replayed = {}
    for tr, key in order if k % 2 else order[::-1]:
        t0 = time.perf_counter()
        replayed[key] = wl.replay(k, tr)
        stats[key].append(time.perf_counter() - t0)
    result = replayed["untraced_s"] if wl.op_is_replay else wl.op(k, tracer)
    wl.trace_extras(k, tracer)
    if not wl.same(result, replayed["traced_s"]):
        stats["mismatch"] += 1
    return wl.check(k, result)


def end_to_end_metrics(stats, setup_s):
    ops = sorted(stats["op_s"])
    m = {
        "setup_s": setup_s,
        "work_per_s": stats["units"] / sum(ops),
        "op_s_p50": statistics.median(ops),
        "op_s_tail": ops[tail_index(len(ops))],
        "peak_rss_mb": stats["peak_rss_kb"] / 1024.0,
    }
    return {name: m[name] for name in END_TO_END}


def layer_metrics(wl, tracer, stats):
    def mean(name, scale=1.0):
        d = tracer.durations(name)
        return scale * statistics.fmean(d) if d else 0.0

    c = tracer.counters
    fine = getattr(wl, "fine", None)
    count = fine.count if fine is not None else 0
    points = len(tracer.durations("theory.constants_quad"))
    m = {
        "fbm.draw_ms": mean("fbm.sample_circulant", 1e3),
        "fbm.first_draw_ms": mean("fbm.first_draw", 1e3),
        "fbm.fallback_frac": c["fbm.fallbacks"] / c["fbm.draws"] if c["fbm.draws"] else 0.0,
        # computed from the fine grid: 2m normals into a 2m-point complex FFT
        "fbm.normals_per_draw": 2 * count,
        "fbm.fft_points_per_draw": 2 * count,
        "fbm.bytes_per_draw": 16 * 2 * count,
        "fou.simulate_self_ms": mean("fou.simulate_path", 1e3),
        "fou.fine_steps_per_path": count,
        "fou.write_csv_s": mean("fou.write_path_csv"),
        "fou.read_csv_s": mean("fou.read_path_csv"),
        "fou.csv_bytes": c["fou.csv_bytes"],
        "lse.estimate_ms": mean("lse.estimate", 1e3),
        "lse.degenerate_frac": (
            c["lse.degenerate"] / c["lse.estimates"] if c["lse.estimates"] else 0.0
        ),
        "theory.constants_quad_s": mean("theory.constants_quad"),
        "theory.ef2_quadrature_s": mean("theory.ef2_quadrature"),
        "theory.alpha_quadrature_s": mean("theory.alpha_n_quadrature"),
        "theory.ef2_cells": c["theory.ef2_cells"] / points if points else 0.0,
        "theory.ef2_flops": c["theory.ef2_flops"] / points if points else 0.0,
        "montecarlo.ks_ms": mean("montecarlo.ks_to_std_normal", 1e3),
        "cli.simulate_s": mean("cli.simulate"),
        "cli.estimate_s": mean("cli.estimate"),
    }
    closed = tracer.durations("theory.closed_form") + tracer.durations("theory.constants")
    m["theory.closed_form_us"] = 1e6 * statistics.fmean(closed) if closed else 0.0

    runs = tracer.durations("montecarlo.run")
    run_s = work_s = efficiency = overhead_s = 0.0
    if runs:
        run_s = statistics.fmean(runs)
        work = sum(
            sum(tracer.durations(name))
            for name in ("fbm.sample_circulant", "fou.simulate_path", "lse.estimate")
        )
        work_s = work / len(runs)
        efficiency = work_s / (wl.workers * run_s)
        overhead_s = run_s - work_s / wl.workers
    m.update({
        "montecarlo.run_s": run_s,
        "montecarlo.work_s": work_s,
        "montecarlo.parallel_efficiency": efficiency,
        "montecarlo.overhead_s": overhead_s,
    })

    cli_s = m["cli.simulate_s"] + m["cli.estimate_s"]
    m["cli.self_s"] = cli_s - statistics.fmean(stats["untraced_s"]) if cli_s else 0.0

    selfs = tracer.layer_self_seconds()
    total = sum(selfs.values())
    m["trace.overhead_frac"] = sum(stats["traced_s"]) / sum(stats["untraced_s"]) - 1.0
    m["trace.replay_mismatch"] = stats["mismatch"]
    m["trace.self_sum_frac"] = (total - selfs.get("bench", 0.0)) / total
    return {name: m[name] for name in PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the smoke test")
    parser.add_argument("--spans", help="write the traced run's spans to this JSON-lines file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    nproc = _clean_environment()
    if args.workload == "all":
        return run_all(args)
    fracou = _import_fracou()
    sys.path.insert(0, str(HERE))
    import workloads

    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=tmp_parent))
    try:
        wl = workloads.make(args.workload, args.seed, args.scale, tmpdir)
        wl.warm_up()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        tracer, stats = run_workload(wl, args)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        stats["peak_rss_kb"] = max(own, workers)
        # the worker-count invariance check re-runs one operation
        problems = wl.final_checks()
        if problems is not None:
            stats["attempted"] += 1
            stats["failed"] += bool(problems)
            for problem in problems:
                print(f"FAILED {problem}", file=sys.stderr)
        info = provenance(args, nproc, fracou, wl)
        if args.trace:
            metrics = layer_metrics(wl, tracer, stats)
            units = PER_LAYER
            if args.spans:
                tracer.dump(args.spans, info)
        else:
            metrics = end_to_end_metrics(stats, measure_setup(args))
            units = END_TO_END
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass

    n_ops = len(stats["op_s"])
    print(f"provenance {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload}: {stats['attempted']} operations attempted, "
          f"{stats['failed']} failed, failed_frac {stats['failed'] / stats['attempted']:.4g}")
    if args.trace:
        print(f"self-time sum / traced op time = {metrics['trace.self_sum_frac']:.4f}")
    else:
        print(f"{args.workload} throughput: {metrics['work_per_s']:.6g} {wl.unit}/s")
        print(f"op_s_tail is p{100 * (tail_index(n_ops) + 1) / n_ops:.0f} "
              f"of {n_ops} operations; peak RSS {own / 1024:.1f} MB in this process, "
              f"{workers / 1024:.1f} MB in its largest child")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own interpreter; metrics named workload.metric."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S * 2)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
