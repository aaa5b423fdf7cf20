"""Tiny-size smoke run of every benchmark workload, traced and untraced.

    python3 bench/smoke/run_smoke.py

Runs one round of each workload at toy sizes (d of 16 to 24, 40
identities) with all correctness checks, and checks that each result has
the shape ``BENCHMARK.json`` promises: every end-to-end metric untraced,
every per-layer metric traced, each with its unit. Exits 0 when all pass.
Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def check_result(result: dict, expected: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    if result.get("failed") != 0:
        problems.append(f"failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"metric names {sorted(metrics)}")
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
    return problems


def main() -> int:
    if run.import_package() is None:
        print(f"smoke: no matchbreak package under {run.SRC}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            result = workloads.run_workload(
                workload["name"], 3, 0.0, bool(trace), workloads.TINY, run.OUT / "smoke",
                log=lambda line: print("  " + line),
            )
            problems = check_result(result, spec["per_layer" if trace else "end_to_end"])
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload['name']} trace={trace}: {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
