"""One repetition of a workload in a fresh interpreter (started by run.py).

Imports scarkit from the checkout's src/, builds the workload from the seed
(set-up), runs every sweep and writes its rows.csv (solve), then checks the
reports and writes result.json, plus spans.jsonl when traced, into --out.

PERFBENCH_T0 carries the parent's time.monotonic() at spawn, so set-up time
counts from interpreter start to the first sweep call.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _thread_count() -> int:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    t0 = float(os.environ["PERFBENCH_T0"])

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import scarkit as sk

    if not Path(sk.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"scarkit imported from {sk.__file__}, not from {src}")
    import check
    import spans
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    experiments = WORKLOADS[args.workload](sk, args.seed, args.smoke)
    out = Path(args.out)

    setup_s = time.monotonic() - t0
    start = time.perf_counter()
    reports = []
    for i, exp in enumerate(experiments):
        report = sk.sweep(exp.config)
        with open(out / f"rows{i}.csv", "w") as f:
            report.to_csv(f)
        reports.append(report)
    end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:  # before the checks, whose own calls are not measured work
        tracer.write(out / "spans.jsonl")

    reference = check.load_reference(args.workload)
    attempted = failed = compared = 0
    worst = 0.0
    messages = []
    for exp, report in zip(experiments, reports):
        failures, dev, n = check.check_report(report, exp.config, exp.key, reference)
        attempted += len(exp.config.hbars)
        failed += len(failures)
        compared += n
        worst = max(worst, dev)
        messages += [f"{exp.key} hbar={h!r}: {why}" for h, why in failures.items()]

    result = {
        "setup_s": setup_s,
        "solve_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:10],
        "ref_max_dev": worst,
        "ref_rows": compared,
        "solve_window": [start, end],
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "process_threads": _thread_count(),
    }
    with open(out / "result.json", "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
