"""Every ``repro`` module can be the first import of a process.

A test session has imported half the package before any test runs, so
an import cycle that only bites a fresh interpreter stays invisible to
the rest of the suite (``import repro.core.proofs`` once failed that
way: ``repro.core`` → ``repro.chain`` → its executor → the half-built
``repro.core.move``).  Here each module is imported alone, in its own
interpreter, two interpreters at a time.
"""

import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def module_names():
    found = pkgutil.walk_packages(repro.__path__, "repro.")
    return ["repro"] + sorted(m.name for m in found if not m.name.endswith(".__main__"))


def import_alone(name):
    done = subprocess.run(
        [sys.executable, "-c", f"import {name}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    return name, done.returncode, done.stderr.strip().splitlines()[-1:]


@pytest.mark.slow
def test_every_module_can_be_the_first_import():
    names = module_names()
    assert "repro.core.proofs" in names and len(names) > 100
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(import_alone, names))
    failures = {name: err for name, code, err in results if code}
    assert failures == {}
