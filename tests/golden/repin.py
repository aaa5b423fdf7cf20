"""Golden results: experiment grids and what they must reproduce.

Each ``*.json`` file in this directory holds an ``ExperimentConfig`` under
``config`` and the results of running it: the report fingerprint, the
calibrated threshold of each false-match rate, and per row the report's
fields (wall time excepted) with the attack's extras (seed attempts,
boundary redraws, solve resamples, accepted indices, ...).
``tests/test_golden.py`` reruns every config and compares.

After a change that is meant to move results, rerun and rewrite the files
with

    PYTHONPATH=src python tests/golden/repin.py

which prints every field that moved, old -> new, for the change log. With
``--check`` it prints the same lines and writes nothing, and exits with 1
if any field moved at all (compared exactly, as a rewrite would see it).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
from pathlib import Path

import matchbreak
from matchbreak import attacks, evaluation

GOLDEN_DIR = Path(__file__).resolve().parent

# Floats (losses, thresholds, final scores) may move this much between
# machines; integers, booleans and strings must not move at all.
REL_TOL = 1e-6
ABS_TOL = 1e-12  # for losses of exact solves, which are rounding noise near 0


@contextlib.contextmanager
def _recording():
    """Record the calibrated thresholds and each attack run's extras (its
    ``params`` less its dataclass fields, ``None`` for a failed run) while
    a grid runs in the block."""
    thresholds, extras = [], []
    calibrate, reconstruct = evaluation.calibrate_for_model, attacks.Attack.reconstruct

    def recording_calibrate(*args, **kwargs):
        result = calibrate(*args, **kwargs)
        thresholds.append(result.threshold.value)
        return result

    def recording_reconstruct(self, *args, **kwargs):
        extras.append(None)
        result = reconstruct(self, *args, **kwargs)
        fields = {f.name for f in dataclasses.fields(self)}
        extras[-1] = {k: v for k, v in result.params.items() if k not in fields}
        return result

    evaluation.calibrate_for_model = recording_calibrate
    attacks.Attack.reconstruct = recording_reconstruct
    try:
        yield thresholds, extras
    finally:
        evaluation.calibrate_for_model = calibrate
        attacks.Attack.reconstruct = reconstruct


def run(config: dict) -> dict:
    """Run the grid of ``config`` and return its results as JSON types."""
    with _recording() as (thresholds, extras):
        report = matchbreak.run_experiment(matchbreak.ExperimentConfig(**config))
    rows = []
    for row, extra in zip(report.rows, extras, strict=True):
        doc = dataclasses.asdict(row)
        del doc["time_s"]
        rows.append({**doc, "extras": extra})
    results = {
        "fingerprint": matchbreak.report_fingerprint(report),
        "thresholds": thresholds,
        "rows": rows,
    }
    return json.loads(json.dumps(results))


class _Absent:
    """The value of a key one document lacks, apart from a ``null`` one."""

    def __repr__(self):
        return "<absent>"


_ABSENT = _Absent()


def moved(old, new, *, rel_tol: float = REL_TOL, abs_tol: float = ABS_TOL, path: str = "") -> list[str]:
    """The fields that differ between two JSON documents, as ``path: old
    -> new`` lines, with ``<absent>`` for a key one of them lacks. Two
    floats differ when they are not close within the tolerances; anything
    else differs when its type or value does."""
    if isinstance(old, dict) and isinstance(new, dict):
        lines = []
        for key in sorted(old.keys() | new.keys()):
            lines += moved(old.get(key, _ABSENT), new.get(key, _ABSENT),
                           rel_tol=rel_tol, abs_tol=abs_tol, path=f"{path}.{key}")
        return lines
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        lines = []
        for i, (a, b) in enumerate(zip(old, new)):
            lines += moved(a, b, rel_tol=rel_tol, abs_tol=abs_tol, path=f"{path}[{i}]")
        return lines
    if type(old) is float and type(new) is float:
        same = math.isclose(old, new, rel_tol=rel_tol, abs_tol=abs_tol)
    else:
        same = type(old) is type(new) and old == new
    return [] if same else [f"{path}: {old!r} -> {new!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rerun the golden grids and rewrite their results.")
    parser.add_argument("--check", action="store_true",
                        help="print the moved fields, write nothing, and exit 1 if any moved")
    args = parser.parse_args(argv)
    any_moved = False
    for path in sorted(GOLDEN_DIR.glob("*.json")):
        golden = json.loads(path.read_text(encoding="utf-8"))
        results = run(golden["config"])
        old = {key: golden.get(key) for key in results}
        lines = moved(old, results, rel_tol=0.0, abs_tol=0.0)
        any_moved = any_moved or bool(lines)
        print(f"{path.name}: {len(lines)} field(s) moved")
        for line in lines:
            print(f"  {line}")
        if not args.check:
            doc = {"config": golden["config"], **results}
            path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if args.check and any_moved else 0


if __name__ == "__main__":
    raise SystemExit(main())
