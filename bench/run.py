"""Benchmark for matchbreak: one workload per run, one JSON line of results.

    python3 bench/run.py --workload local-d512 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's own ``src/``; without it the run fails with exit code 2. With
``--trace 0`` the result holds the end-to-end metrics, with ``--trace 1``
the per-layer ones from a traced run. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def import_package():
    """Import ``matchbreak`` from this checkout's ``src/``, or return None."""
    if not (SRC / "matchbreak" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import matchbreak

    if Path(matchbreak.__file__).resolve().parent.parent != SRC:
        return None
    return matchbreak


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("local-d512", "grid-d128"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # a terminated run still stops its server process on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if import_package() is None:
        print(f"bench: no matchbreak package under {SRC}", file=sys.stderr)
        return 2
    import workloads

    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL, OUT,
        log=lambda line: print(line, flush=True),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
