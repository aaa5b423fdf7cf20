"""The benchmark's toy-size smoke run as a tier-1 test.

``bench/`` reaches into package internals (it rebinds functions by module
and name for its traced runs, and keeps the boundary points of sphere
solves), so a refactor that renames what it uses breaks it. The smoke run
exercises every workload, traced and untraced, with all its correctness
checks; nothing here asserts on timings.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "smoke" / "run_smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
