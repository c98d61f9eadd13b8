"""Smoke test of the benchmark at tiny sizes.

Every metric named in BENCHMARK.json is printed, with its unit, on every
workload, and the outputs pass their checks.  Run with
`python3 -m pytest -q perfbench/tests` from the repository root.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(root, workload, trace):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for name, entry in result["metrics"].items():
        assert set(entry) == {"value", "unit"}
        assert math.isfinite(entry["value"]), name
        if not trace:
            assert entry["value"] > 0, name
    lines = proc.stdout.splitlines()
    for name, unit in printed.items():
        assert any(
            line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines
        ), name


def test_traced_self_times_add_up():
    proc = run_bench(ROOT, "mc_large_n", 1)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert 0.8 < metrics["trace.self_sum_frac"]["value"] <= 1.0
    assert metrics["trace.replay_mismatch"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
