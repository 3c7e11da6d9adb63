"""The benchmark's smoke mode as a tier-1 gate.

Each workload runs one short repetition through perfbench/run.py, whose
correctness gate compares seed-independent rows with
perfbench/reference.json; a row that drifts fails here.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["d2-char", "d3-poly", "simplex-scan"])
def test_benchmark_smoke_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] > 0
