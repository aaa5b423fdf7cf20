"""The package's only runtime dependency is numpy, and every name it
exports resolves."""

import os
import subprocess
import sys
from pathlib import Path

import matchbreak

# Imports every matchbreak module in a fresh interpreter and prints the
# top-level modules they loaded that an installed distribution provides.
_SCRIPT = """
import importlib, importlib.metadata, pkgutil, sys
before = set(sys.modules)
import matchbreak
for info in pkgutil.iter_modules(matchbreak.__path__, "matchbreak."):
    importlib.import_module(info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(" ".join(sorted(loaded & set(importlib.metadata.packages_distributions()))))
"""


def test_every_name_in_all_resolves():
    assert len(set(matchbreak.__all__)) == len(matchbreak.__all__)
    missing = [name for name in matchbreak.__all__ if not hasattr(matchbreak, name)]
    assert missing == []


def test_importing_every_module_loads_numpy_alone():
    src = str(Path(matchbreak.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) - {"matchbreak"} == {"numpy"}
