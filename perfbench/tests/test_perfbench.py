"""Smoke tests of the benchmark harness at its tiny size (n=8).

    python3 -m pytest perfbench/tests -q

Each workload runs on the same code path and output checks as the full
benchmark; the tests pin the result format, every metric name and unit in
BENCHMARK.json, and that traced counts repeat exactly for one seed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("_calls", "_bytes")


def run_bench(workload, seed, trace, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_result(result, metric_kind):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[metric_kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_reports_end_to_end_metrics(workload):
    result = run_bench(workload, seed=3, trace=0)
    assert_result(result, "end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_counts_repeat_exactly(workload):
    first, second = (run_bench(workload, seed=5, trace=1) for _ in range(2))
    for result in (first, second):
        assert_result(result, "per_layer")
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(EXACT)}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["fredholm.dt_solve_calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(WORKLOADS[0], seed=1, trace=0, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
