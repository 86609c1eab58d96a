"""Each module imports alone in a fresh interpreter.

The package's ``__init__`` imports nothing, so a test process that has
already loaded other modules would hide an import cycle, such as
``losses`` and ``model`` importing each other at module level.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ["cli", "data", "exemplars", "harness", "losses", "metrics", "model", "reporting"]


def test_every_module_is_listed():
    assert sorted(p.stem for p in (SRC / "cyclerec").glob("*.py") if p.stem != "__init__") == MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", f"import cyclerec.{module}"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
