"""The benchmark's own tests; not part of the package's test suite.

    python3 -m pytest perfbench/selftest.py

Smoke runs take a few seconds per workload.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import scarkit as sk  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct(workload):
    res = _result(_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert [m["name"] for m in SPEC["end_to_end"]] == list(res["metrics"])
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, m in res["metrics"].items():
        assert m["unit"] == units[name] and m["value"] > 0


def test_traced_smoke_reports_every_layer_metric():
    res = _result(_bench("--workload", "d2-char", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"))
    assert [m["name"] for m in SPEC["per_layer"]] == list(res["metrics"])
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.per_layer_units()
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["fockstate.expect_char.calls"] > 0
    assert metrics["scarlab.steps"] == res["attempted"] / 2  # one plain, one traced repetition
    assert 0 < metrics["fockstate.expect_char.useful_ratio"] < 1


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "d2-char", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def d2_smoke():
    (exp,) = WORKLOADS["d2-char"](sk, 5, smoke=True)
    report = sk.sweep(exp.config)
    return exp, report, check.load_reference("d2-char")


def _replace_row(report, name, hbar, value):
    rows = tuple(
        (h, n, value, ref, abs(value)) if (n == name and h == hbar) else (h, n, v, ref, r)
        for h, n, v, ref, r in report.rows
    )
    return dataclasses.replace(report, rows=rows)


def test_unaltered_report_passes(d2_smoke):
    exp, report, reference = d2_smoke
    failures, dev, compared = check.check_report(report, exp.config, exp.key, reference)
    assert failures == {} and dev <= 1.0 and compared > 0


def test_nan_counts_as_failed_step(d2_smoke):
    exp, report, reference = d2_smoke
    h = exp.config.hbars[1]
    bad = _replace_row(report, "gap:char1", h, complex(math.nan, 0.0))
    failures, _, _ = check.check_report(bad, exp.config, exp.key, reference)
    assert list(failures) == [h] and "non-finite" in failures[h]


def test_concentration_outside_rung_counts_as_failed_step(d2_smoke):
    exp, report, reference = d2_smoke
    h = exp.config.hbars[2]
    rung = 2 * math.pi * h / exp.config.decomposition.components[0].period
    bad = _replace_row(report, "concentration:1", h, complex((1.01 * rung) ** 2, 0.0))
    failures, _, _ = check.check_report(bad, exp.config, exp.key, reference)
    assert list(failures) == [h] and "rung" in failures[h]


def test_character_off_its_closed_form_counts_as_failed_step(d2_smoke):
    exp, report, reference = d2_smoke
    h = exp.config.hbars[3]
    assert (h, "gap:char2") in check.closed_form_characters(exp.config)
    v = next(v for hh, n, v, _, _ in report.rows if hh == h and n == "gap:char2")
    bad = _replace_row(report, "gap:char2", h, v + 1e-9)
    failures, _, _ = check.check_report(bad, exp.config, exp.key, reference)
    assert list(failures) == [h] and "closed form" in failures[h]


def test_reference_drift_and_sweep_errors_count_as_failed_steps(d2_smoke):
    exp, report, reference = d2_smoke
    h0, h1 = exp.config.hbars[:2]
    c = next(v for h, n, v, _, _ in report.rows if h == h0 and n == "c_hbar")
    bad = _replace_row(report, "c_hbar", h0, c * (1 + 1e-6))
    bad = dataclasses.replace(
        bad,
        rows=tuple(r for r in bad.rows if r[0] != h1),
        errors=((h1, "ResourceLimitError: injected"),),
    )
    failures, _, _ = check.check_report(bad, exp.config, exp.key, reference)
    assert sorted(failures) == sorted([h0, h1])
    assert "recorded" in failures[h0] and "injected" in failures[h1]


def test_self_time_and_step_ids():
    tracer = spans.Tracer(clock=iter(range(100)).__next__)

    def leaf(config=None):
        return None

    def sweep(config):
        traced_leaf(config)
        traced_step(config)
        traced_leaf(config)

    traced_leaf = tracer.wrap(leaf, "leaf")
    traced_step = tracer.wrap(leaf, "step", starts_step=True)
    tracer.wrap(sweep, "scarlab.sweep")(None)
    names = [s[0] for s in tracer.spans]
    assert names == ["scarlab.sweep", "leaf", "step", "leaf"]
    assert [s[4] for s in tracer.spans] == [None, None, "1.1", "1.1"]
    summary = spans.summarize(tracer.spans, solve_window=(0, 10))
    # sweep spans clock ticks 0..7, its three children one tick each
    assert summary["layers"]["scarlab.sweep"]["self_s"] == 7 - 3
    assert summary["uncovered_s"] == 10 - 7
    assert summary["unattributed_s"] == 3 + 4
