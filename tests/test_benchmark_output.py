"""The benchmark's traced run of every workload ends in a result line of
strict JSON: no NaN or Infinity, which `json.dumps` writes but JSON does
not allow."""
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    WORKLOADS = [w["name"] for w in json.load(f)["workloads"]]


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_ends_in_strict_json(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "pipebench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0, out.stderr
    # a renamed function that the benchmark wraps would drop its per-layer metric
    assert "absent (wrapped name no longer exists)" not in out.stdout
