"""grid-d128 ``peak_rss_mb`` from two checkouts whose paths differ in length.

Copies ``src/`` and ``bench/`` of a checkout into two temporary directories,
the second one's path 2 characters longer, runs ``bench/run.py --workload
grid-d128`` in each, one after the other and with ``PWD`` set to it as a
shell would, prints both ``peak_rss_mb`` values and removes the copies.
The length of the path moves what the interpreter allocates before the
benchmark starts, and with it where glibc places later blocks: two peaks
that differ read heap placement, not memory the program keeps. Which
lengths differ depends on the machine. On a 2-vCPU VM (Python 3.11.7,
numpy 2.4.6) with ``/tmp`` as the temporary directory the two paths are 19
and 21 characters long, and package code that left freed blocks on glibc's
heap read about 140 and 160 MB there.

    python experiments/rss_by_path.py [--root CHECKOUT] [--seed 1] [--seconds 10]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb(checkout: Path, seed: int, seconds: float) -> float:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid-d128", "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, env={**os.environ, "PWD": str(checkout)}, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py in {checkout} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"bench/run.py in {checkout} reported an incorrect run")
    return result["metrics"]["peak_rss_mb"]["value"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose src/ and bench/ are copied")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="rss-") as tmp:
        for name in ("c", "ccc"):
            checkout = Path(tmp) / name
            for part in ("src", "bench"):
                shutil.copytree(args.root / part, checkout / part,
                                ignore=shutil.ignore_patterns("out", "__pycache__"))
            rss = peak_rss_mb(checkout, args.seed, args.seconds)
            print(f"{len(str(checkout)):4d}-character path: peak_rss_mb {rss:.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
