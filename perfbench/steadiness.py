#!/usr/bin/env python3
"""Steadiness check of the end-to-end metrics, over two sets of seeds.

    python3 perfbench/steadiness.py --runs 10 --sets 2

Runs the command of BENCHMARK.json with `--trace 0` for `run_seconds`,
`--runs` times per declared workload and set, each run with its own seed;
set s uses seeds 1000*s+1 .. 1000*s+runs, so the second set draws other
inputs than the first and the bounds do not rest on one seed's draws.  Runs
go round-robin over the workloads; each prints the percentile and operation
count behind its `op_s_tail`.  For each set, workload and metric it prints
the median and the spread: the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median.  A
spread must stay within the metric's bound and should stay below a third of
it; every later set's median must not be worse than the first set's by
more than the bound.  Exits 1 when a gate fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, first, later):
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    values = {}  # (set, workload, metric) -> [values]
    walls = []
    for s in range(1, args.sets + 1):
        for i in range(1, args.runs + 1):
            seed = 1000 * s + i
            for name in names:
                cmd = bench["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0",
                ]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                      timeout=600)
                wall = time.perf_counter() - t0
                if proc.returncode != 0:
                    print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                    return 1
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1])
                walls.append(wall)
                for metric, entry in result["metrics"].items():
                    values.setdefault((s, name, metric), []).append(entry["value"])
                tail = next((ln.split(";")[0] for ln in lines if ln.startswith("op_s_tail")), "")
                print(f"set {s} seed {seed} {name}: {wall:.1f} s wall, "
                      f"correct {result['correct']}, {tail}", flush=True)

    ok = True
    print(f"\n{'set':>3} {'workload':<15} {'metric':<12} {'median':>12} {'spread':>8} "
          f"{'bound':>6}  verdict")
    for (s, name, metric), vals in sorted(values.items()):
        bound = metrics[metric]["bound"]
        med = statistics.median(vals)
        sp = spread(vals) if len(vals) >= 2 else float("nan")
        verdict = "steady" if sp < bound / 3 else "within bound" if sp <= bound else "TOO WIDE"
        if sp > bound:
            ok = False
        if s > 1:
            drift = worse_by(metrics[metric], statistics.median(values[(1, name, metric)]), med)
            verdict += f"; {drift:+.3f} vs set 1"
            if drift > bound:
                ok = False
                verdict += " WORSE THAN BOUND"
        print(f"{s:>3} {name:<15} {metric:<12} {med:>12.6g} {sp:>8.4f} {bound:>6}  {verdict}")
    print(f"\n{len(walls)} runs, wall per run: median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s")
    print("steadiness:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
