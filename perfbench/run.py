"""scarkit sweep benchmark.

    python3 perfbench/run.py --workload d2-char --seed 1 --seconds 46 --trace 0

Runs the workload again and again, each repetition in a fresh interpreter
(child.py) with its BLAS pool pinned to one thread, until --seconds have
passed (at least MIN_REPS repetitions). Prints each metric with its unit,
a provenance line, and as the last line one JSON object with `correct`,
`attempted`, `failed` (hbar steps) and `metrics`.

--trace 0 reports the end-to-end metrics, medians over the repetitions.
--trace 1 alternates untraced and traced repetitions and reports per-layer
metrics from the traced ones (medians), with the tracing overhead.
--smoke runs one short repetition of each kind, for the benchmark's tests.

Needs the scarkit sources in src/ next to this directory; without them it
exits with code 2 and prints no result. See NOTES.md for the workloads.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_REPS = 3
TIME_LIMIT_S = 150.0  # no repetition starts after this, so a run stays under three minutes
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MiB"))

COUNTERS = (
    ("fockstate.coherent.box_points", "count"),
    ("fockstate.project.kept", "count"),
    ("fockstate.project.keep_ratio", "ratio"),
    ("fockstate.expect_char.dense_elems", "count"),
    ("fockstate.expect_char.needed_elems", "count"),
    ("fockstate.expect_char.useful_ratio", "ratio"),
    ("fockstate.expect_poly.support", "count"),
    ("phasespace.orbit_average.grid_points", "count"),
    ("scarlab.steps", "count"),
    ("reporting.bytes_written", "bytes"),
)
TRACE_INFO = (
    ("trace.solve_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_frac", "ratio"),
    ("ref.max_dev", "tol"),
    ("ref.rows", "count"),
)
SOURCE_MODULES = (
    "__init__", "cli", "errors", "fockstate", "freqarith",
    "phasespace", "reporting", "scarlab", "spectral", "symbols",
)


def per_layer_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer in spans.LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.total_s", "s"), (f"{layer}.self_s", "s")]
    out += list(COUNTERS) + list(TRACE_INFO)
    out += [(f"lines.{m}", "lines") for m in SOURCE_MODULES] + [("lines.total", "lines")]
    return out


def run_child(workload, seed, traced, smoke, work: Path, timeout: float) -> dict:
    work.mkdir(parents=True)
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_ENV})
    env["PERFBENCH_T0"] = repr(time.monotonic())
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(work)]
    cmd += ["--trace"] * traced + ["--smoke"] * smoke
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(work / "result.json") as f:
        result = json.load(f)
    if traced:
        result["summary"] = spans.summarize(spans.read_spans(work / "spans.jsonl"), result["solve_window"])
    return result


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    layers = summary["layers"]
    out: dict[str, float] = {}
    for layer in spans.LAYERS:
        entry = layers.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key in ("calls", "total_s", "self_s"):
            out[f"{layer}.{key}"] = entry[key]

    def count(layer, key):
        return layers.get(layer, {}).get("counters", {}).get(key, 0)

    def ratio(num, den):  # 0 when the layer did no work at all
        return num / den if den else 0.0

    kept, box = count("fockstate.project", "kept"), count("fockstate.project", "box_points")
    dense = count("fockstate.expect_char", "dense_elems")
    needed = count("fockstate.expect_char", "needed_elems")
    out.update({
        "fockstate.coherent.box_points": count("fockstate.coherent", "box_points"),
        "fockstate.project.kept": kept,
        "fockstate.project.keep_ratio": ratio(kept, box),
        "fockstate.expect_char.dense_elems": dense,
        "fockstate.expect_char.needed_elems": needed,
        "fockstate.expect_char.useful_ratio": ratio(needed, dense),
        "fockstate.expect_poly.support": count("fockstate.expect_poly", "support"),
        "phasespace.orbit_average.grid_points": count("phasespace.orbit_average", "grid_points"),
        "scarlab.steps": count("scarlab.sweep", "steps"),
        "reporting.bytes_written": count("reporting.to_csv", "bytes_written"),
        "trace.solve_s": summary["solve_s"],
        "trace.unattributed_s": summary["unattributed_s"],
        "trace.unattributed_frac": ratio(summary["unattributed_s"], summary["solve_s"]),
    })
    return out


def source_lines() -> dict[str, int]:
    counts = {}
    for m in SOURCE_MODULES:
        with open(ROOT / "src" / "scarkit" / f"{m}.py") as f:
            counts[f"lines.{m}"] = sum(1 for _ in f)
    counts["lines.total"] = sum(counts.values())
    return counts


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "scarkit" / "__init__.py").is_file():
        print(f"no scarkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.monotonic()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    plain, traced = [], []
    try:
        while True:
            trace_next = bool(args.trace) and len(traced) < len(plain)
            elapsed = time.monotonic() - began
            res = run_child(args.workload, args.seed, trace_next, args.smoke,
                            work / str(len(plain) + len(traced)), TIME_LIMIT_S + 20 - elapsed)
            (traced if trace_next else plain).append(res)
            reps = len(plain) + len(traced)
            elapsed = time.monotonic() - began
            per_rep = elapsed / reps
            if args.smoke:
                done = reps >= 1 + args.trace
            else:
                done = reps >= MIN_REPS and elapsed + per_rep > args.seconds
            if done or elapsed + per_rep > TIME_LIMIT_S:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # fails, as it should, while another run uses it

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for msg in r["failures"]:
            print(f"FAILED STEP {msg}")

    if args.trace:
        per_rep = [layer_metrics(r["summary"]) for r in traced]
        samples = {k: [m[k] for m in per_rep] for k in per_rep[0]}
        values = {k: statistics.median(v) for k, v in samples.items()}
        values["trace.overhead_s"] = values["trace.solve_s"] - statistics.median([r["solve_s"] for r in plain])
        values["ref.max_dev"] = max(r["ref_max_dev"] for r in runs)
        values["ref.rows"] = statistics.median([r["ref_rows"] for r in runs])
        values.update(source_lines())
        units = per_layer_units()
    else:
        samples = {k: [r[k] for r in plain] for k, _ in END_TO_END}
        values = {k: statistics.median(v) for k, v in samples.items()}
        units = list(END_TO_END)

    first = runs[0]
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "reps_untraced": len(plain),
        "reps_traced": len(traced), "commit": git_commit(), **first["versions"],
        "nproc": os.cpu_count(), "blas_threads": {k: "1" for k in BLAS_ENV},
        "process_threads": first["process_threads"],
    }
    print("provenance " + json.dumps(provenance))
    for name, unit in units:
        line = f"{name:44s} {values[name]:>16.6g} {unit}"
        if name in samples:
            v = samples[name]
            line += f"  (median of {len(v)}, min {min(v):.6g}, max {max(v):.6g})"
        print(line)
    print(f"{'fail_frac':44s} {failed / attempted:>16.6g} ratio ({failed}/{attempted} hbar steps)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
