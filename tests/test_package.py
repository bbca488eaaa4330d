"""The package surface: what ``import gstrands`` loads and exports."""

import os
import re
import subprocess
import sys
from pathlib import Path

import gstrands

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg would be the costliest import of `gstrands run` (about
    # 0.1 s on a 2-vCPU VM, more than the rest of it); only the symm_rigid
    # strand preset uses it, and imports it where it does
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for module in ("gstrands", "gstrands.cli"):
        code = f"import sys, {module}; print('scipy.linalg' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False", module


def test_every_exported_name_resolves():
    missing = [name for name in gstrands.__all__ if not hasattr(gstrands, name)]
    assert missing == []


def test_every_error_class_is_raised_or_subclassed():
    package = SRC / "gstrands"
    classes = re.findall(r"^class (\w+)", (package / "errors.py").read_text(), re.M)
    source = "".join(path.read_text() for path in package.glob("*.py"))
    unused = [name for name in classes if not re.search(rf"raise {name}\(|\({name}\)", source)]
    assert classes and unused == []
