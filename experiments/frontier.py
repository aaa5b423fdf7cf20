"""Loss against queries for ``binary-ours``' two ray designs.

Runs ``matchbreak experiment`` on every config in ``experiments/frontier/``
(one per dimension, design and precision P; each config holds one
``binary-ours`` entry, and configs of one dimension share their model,
targets, breaking sets and attack streams) and prints one markdown table
row per config: median and maximum SED loss, mean queries and pass rate.

    PYTHONPATH=src python experiments/frontier.py --out frontier-out/
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from matchbreak.cli import main as matchbreak

CONFIGS = Path(__file__).resolve().parent / "frontier"


def row(config_path: Path, out_dir: Path) -> str:
    run_dir = out_dir / config_path.stem
    with contextlib.redirect_stdout(io.StringIO()):
        code = matchbreak(["experiment", "--config", str(config_path), "--out", str(run_dir)])
    if code != 0:
        raise SystemExit(f"{config_path.name}: matchbreak experiment exited with {code}")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    (attack,) = config["attacks"]
    rows = json.loads((run_dir / "report.json").read_text(encoding="utf-8"))["rows"]
    losses = [r["loss"] for r in rows if r["loss"] is not None]
    loss = (f"{np.median(losses):.1e} | {max(losses):.1e}" if losses else "- | -")
    return (f"| {config['dim']} | {attack['directions']} | {attack['precision']} | {loss} | "
            f"{np.mean([r['queries'] for r in rows]):,.0f} | "
            f"{sum(r['passed'] for r in rows)}/{len(rows)} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for the experiments' report files")
    args = parser.parse_args(argv)
    print("| d | directions | P | median loss | max loss | mean queries | pass |")
    print("|---|---|---|---|---|---|---|")
    for config_path in sorted(CONFIGS.glob("*.json")):
        print(row(config_path, Path(args.out)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
