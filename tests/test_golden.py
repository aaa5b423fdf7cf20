"""Golden results: each grid in ``tests/golden/`` reproduces its recorded
query counts, outcomes and extras exactly, and its losses and thresholds
within ``repin.REL_TOL``. ``tests/golden/repin.py`` rewrites the files."""

import json
import warnings

import pytest

from golden import repin

GOLDEN_FILES = sorted(repin.GOLDEN_DIR.glob("*.json"))


def test_golden_files_exist():
    assert {p.stem for p in GOLDEN_FILES} == {"cosine-d32", "grid-d128", "lockout-d24"}


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_golden_results_reproduce(path):
    golden = json.loads(path.read_text(encoding="utf-8"))
    results = repin.run(golden["config"])
    fields = ("thresholds", "rows")
    lines = repin.moved({k: golden[k] for k in fields}, {k: results[k] for k in fields})
    fingerprints = f"fingerprint {golden['fingerprint']} -> {results['fingerprint']}"
    assert not lines, f"{path.name}: {fingerprints}\n" + "\n".join(lines)
    if results["fingerprint"] != golden["fingerprint"]:
        # every field is within tolerance, so only rounding moved
        warnings.warn(f"{path.name}: {fingerprints}", stacklevel=1)
