"""Smoke test of the benchmark itself.

Runs every workload at the smoke size, plain and traced, and checks that the
last line names every metric of BENCHMARK.json with its unit and a finite
value, and that the output check passed. It also checks that a directory
without the program's sources makes the benchmark fail without a result. Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# trend is runnable but not in BENCHMARK.json; see README.md, Steadiness.
WORKLOADS = ["trend", "mnist_shape", "many_devices"]


def test_benchmark_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    report = [line.split() for line in proc.stdout.splitlines()[:-1]]
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(got["value"]), metric["name"]
        assert [metric["name"], metric["unit"]] in [[w[0], w[-1]] for w in report if w]


def test_missing_program_fails_without_result():
    """In a directory without src/, the benchmark exits non-zero, printing no result."""
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trend", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
