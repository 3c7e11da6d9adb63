"""Regenerate reference.json, the values the correctness gate compares against.

    python3 perfbench/record_reference.py

Runs every workload at seeds 0 and 1 and keeps each row (except the
invariance rows, which are rounding noise gated by their own bound) whose
value and reference are bit-identical under both seeds: those rows do not
depend on the seed, so any later run must reproduce them. Rerun only when
a change is meant to alter the numbers, and say so.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import scarkit as sk  # noqa: E402
from check import REFERENCE_PATH, row_key, row_numbers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def rows_for(build, seed: int) -> dict[str, tuple[float, ...]]:
    out = {}
    for exp in build(sk, seed):
        report = sk.sweep(exp.config)
        if report.errors:
            raise SystemExit(f"{exp.key}: sweep failed: {report.errors}")
        for row in report.rows:
            if not row[1].startswith("invariance:"):
                out[row_key(exp.key, row[0], row[1])] = row_numbers(row)
    return out


def main() -> int:
    table = {}
    for name, build in WORKLOADS.items():
        a, b = rows_for(build, 0), rows_for(build, 1)
        table[name] = {k: list(v) for k, v in a.items() if b.get(k) == v}
        print(f"{name}: {len(table[name])} of {len(a)} rows do not depend on the seed")
    text = json.dumps({"scarkit": sk.__version__, "workloads": table}, indent=1, sort_keys=True)
    # one row per line
    text = re.sub(r"\[\s+([^\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    REFERENCE_PATH.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
