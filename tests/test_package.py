"""The package surface: what ``import gstrands`` loads and exports."""

import ast
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


# Parameters a caller must pass but the body may ignore: a handler or
# callback whose signature a protocol fixes.
CALLBACK_SLOTS = {
    ("cli", "cmd_list", "_args"),                             # argparse passes the namespace
    ("peakon", "_rhs", "q"),                                  # slaved_step passes every evolved array
    ("verify", "hamilton_pontryagin_energy.e_loc", "y"),      # GeneralizedEnergy.e_loc(y, p, b)
    ("scenarios", "run_verify_action", "cfg"),                # Scenario.run(cfg, grid)
}


def _params(fn):
    a = fn.args
    return [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]


def _reads(node, name) -> bool:
    """True when ``node`` loads ``name``, not counting nested functions that
    rebind it as a parameter."""
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
            and name in _params(node):
        return False
    return any(_reads(child, name) for child in ast.iter_child_nodes(node))


def _unread_parameters(tree, module):
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
                name = ".".join(scope + [getattr(child, "name", "<lambda>")])
                if not isinstance(child, ast.ClassDef):
                    body = child.body if isinstance(child.body, list) else [child.body]
                    found.extend((module, name, p) for p in _params(child)
                                 if not any(_reads(stmt, p) for stmt in body))
                visit(child, scope + [getattr(child, "name", "<lambda>")])
            else:
                visit(child, scope)

    visit(tree, [])
    return found


def test_every_parameter_is_read():
    unread = []
    for path in sorted((SRC / "gstrands").glob("*.py")):
        unread += _unread_parameters(ast.parse(path.read_text()), path.stem)
    assert [slot for slot in unread if slot not in CALLBACK_SLOTS] == []
