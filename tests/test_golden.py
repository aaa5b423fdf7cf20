"""Golden results: each grid in ``tests/golden/`` reproduces its recorded
query counts, outcomes and extras exactly, and its losses and thresholds
within ``repin.REL_TOL``. ``tests/golden/repin.py`` rewrites the files."""

import json
import warnings

import pytest

from golden import repin

GOLDEN_FILES = sorted(repin.GOLDEN_DIR.glob("*.json"))


def test_golden_files_exist():
    assert {p.stem for p in GOLDEN_FILES} == {"cosine-d32", "grid-d128", "grid-d128-random", "lockout-d24"}


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


def test_repin_check_prints_moved_fields_and_writes_nothing(tmp_path, monkeypatch, capsys):
    """``repin.py --check`` exits 1 and names a field that moved, exits 0
    when nothing did, and leaves the files as they were either way."""
    golden = json.loads((repin.GOLDEN_DIR / "lockout-d24.json").read_text(encoding="utf-8"))
    path = tmp_path / "lockout-d24.json"
    monkeypatch.setattr(repin, "GOLDEN_DIR", tmp_path)

    path.write_text(json.dumps(golden), encoding="utf-8")
    assert repin.main(["--check"]) == 0
    assert "lockout-d24.json: 0 field(s) moved" in capsys.readouterr().out

    golden["rows"][0]["queries"] += 1
    text = json.dumps(golden)
    path.write_text(text, encoding="utf-8")
    assert repin.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert "lockout-d24.json: 1 field(s) moved" in out and ".rows[0].queries" in out
    assert path.read_text(encoding="utf-8") == text


@pytest.mark.parametrize(("old", "new", "lines"), [
    ({"a": None}, {}, [".a: None -> <absent>"]),
    ({"a": 0}, {}, [".a: 0 -> <absent>"]),
    ({}, {"a": None}, [".a: <absent> -> None"]),
    ({"a": None}, {"a": None}, []),
])
def test_moved_tells_an_absent_key_from_null(old, new, lines):
    assert repin.moved(old, new) == lines
