"""The benchmark's smoke mode as a tier-1 gate.

Each workload runs one short repetition through perfbench/run.py, whose
correctness gate compares seed-independent rows with
perfbench/reference.json; a row that drifts fails here. One traced
simplex-scan repetition checks that the layer hooks of perfbench/spans.py
still attach to src/ and report every layer.
"""
import importlib.util
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


def test_traced_smoke_reports_every_layer():
    # spans.install patches Symbol.rotate, expectation, residuals, _convex_parts
    # and the other stage functions by name; a rename in src/ breaks the trace here
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simplex-scan", "--seed", "3",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    metrics = result["metrics"]
    for layer in spans.LAYERS:
        for key in ("calls", "total_s", "self_s"):
            assert f"{layer}.{key}" in metrics
    for layer in ("scarlab.sweep", "scarlab.build_scar", "scarlab.convex_scar",
                  "scarlab.residuals", "fockstate.expect_poly", "fockstate.expect_char"):
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
