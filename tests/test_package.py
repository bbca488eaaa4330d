"""The package surface: what ``import gstrands`` loads and exports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gstrands

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg would be the costliest import of `gstrands run` (about
    # 0.1 s on a 2-vCPU VM, more than the rest of it); the symm_rigid strand
    # preset exponentiates its skew matrices with numpy's eigh instead
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for module in ("gstrands", "gstrands.cli"):
        code = f"import sys, {module}; print('scipy.linalg' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False", module


def test_import_builds_no_algebra():
    # a spec is built where a run asks for one, never at import: a profile
    # hook counts LieAlgebraSpec.__post_init__ calls during `import gstrands`,
    # then during one builtin("so3"), which shows that the hook sees a build
    code = ("import sys\n"
            "calls = []\n"
            "def hook(frame, event, arg):\n"
            "    name = frame.f_code.co_qualname\n"
            "    if event == 'call' and name == 'LieAlgebraSpec.__post_init__':\n"
            "        calls.append(name)\n"
            "sys.setprofile(hook)\n"
            "import gstrands\n"
            "at_import = len(calls)\n"
            "gstrands.builtin('so3')\n"
            "sys.setprofile(None)\n"
            "print(at_import, len(calls) - at_import)\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["0", "1"]


def _loaded_after(code):
    """The gstrands submodules and yaml that a fresh interpreter has loaded
    after running ``code``."""
    code += ("\nimport sys\nprint(' '.join(sorted(m for m in sys.modules\n"
             "                     if m == 'yaml' or m.startswith('gstrands.'))))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return set(out.stdout.split())


SOLVERS = {f"gstrands.{m}" for m in ("scenarios", "clebsch", "gstrand", "peakon", "verify")}
BUNDLED = SRC.parent / "scripts" / "configs"


def test_import_loads_only_the_errors():
    assert _loaded_after("import gstrands") == {"gstrands.errors"}


def test_an_algebra_set_up_loads_no_yaml_and_no_solver():
    # the set-up of an API run on a built-in algebra, as the algebra_wide
    # benchmark workload does it
    loaded = _loaded_after("import gstrands\nfrom gstrands import config, kernels, liealg\n"
                           "gstrands.builtin('soN(8)')")
    assert "gstrands.liealg" in loaded and not loaded & (SOLVERS | {"yaml"})


def test_a_config_load_loads_yaml_and_no_solver():
    loaded = _loaded_after(f"from gstrands import config\n"
                           f"config.load_config({str(BUNDLED / 'peakon_strand.yaml')!r})")
    assert "yaml" in loaded and not loaded & SOLVERS


def test_validate_and_list_scenarios_load_no_solver():
    for argv in (["validate", str(BUNDLED / "chiral_so3.yaml")], ["list-scenarios"]):
        code = (f"import contextlib, io\nfrom gstrands import cli\n"
                f"with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert cli.main({argv!r}) == 0")
        assert not _loaded_after(code) & SOLVERS, argv


def test_no_module_imports_scipy():
    # scipy is a test dependency only (the `test` extra)
    found = []
    for path in sorted((SRC / "gstrands").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [(path.name, name) for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_bundled_runs_and_studies_load_no_scipy(tmp_path):
    # every bundled config as scripts/run_all_scenarios.py and
    # scripts/run_convergence_studies.py run them, in one fresh interpreter
    runs = [str(cfg) for cfg in sorted(BUNDLED.glob("*.yaml")) if "study" not in cfg.stem]
    studies = [str(BUNDLED / f"{name}.yaml")
               for name in ("chiral_study", "peakon_strand", "cdb_study", "verify_action")]
    assert len(runs) == 7
    code = (f"import contextlib, io, sys\nfrom gstrands import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({['run', *runs]!r}) == 0\n"
            f"    assert cli.main({['study', *studies, '--levels', '3']!r}) == 0\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC), "GSTRANDS_OUTPUT_DIR": str(tmp_path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    missing = [name for name in gstrands.__all__ if not hasattr(gstrands, name)]
    assert missing == []
    star = {}
    exec("from gstrands import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(gstrands.__all__)
    assert all(star[name] is getattr(gstrands, name) for name in gstrands.__all__)


def test_dir_lists_every_exported_name():
    assert set(gstrands.__all__) <= set(dir(gstrands))


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'gstrands' has no attribute 'frobnicate'"):
        gstrands.frobnicate  # noqa: B018


def test_every_scenario_runner_is_a_scenarios_function():
    from gstrands import scenarios
    runners = {name: spec.run for name, spec in gstrands.config.SCENARIOS.items()}
    assert all(callable(getattr(scenarios, run, None)) for run in runners.values()), runners


def test_every_error_class_is_raised_or_subclassed():
    package = SRC / "gstrands"
    classes = re.findall(r"^class (\w+)", (package / "errors.py").read_text(), re.M)
    source = "".join(path.read_text() for path in package.glob("*.py"))
    unused = [name for name in classes if not re.search(rf"raise {name}\(|\({name}\)", source)]
    assert classes and unused == []


# Parameters a caller must pass but the body may ignore: a handler or
# callback whose signature a protocol fixes.
CALLBACK_SLOTS = {
    ("cli", "cmd_run", "_args"),                              # main calls args.func(path, args)
    ("cli", "cmd_validate", "_args"),                         # main calls args.func(path, args)
    ("peakon", "_rhs", "q"),                                  # slaved_step passes every evolved array
    ("verify", "hamilton_pontryagin_energy.e_loc", "y"),      # pontryagin_residual calls e_loc(y, p, b)
    ("scenarios", "run_verify_action", "cfg"),                # Scenario.run(cfg, grid)
    # Scenario.rules(grid, params, initial): a rule reads only the sections it ties
    *(("config", rule, p) for rule, unread in [
        ("Scenario.<lambda>", ("grid", "params", "initial")), ("_chiral_rules", ("grid", "params")),
        ("_cdb_rules", ("params",)), ("_ch_classical_rules", ("params",)),
        ("_verify_action_rules", ("params", "initial"))] for p in unread),
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



def test_config_compares_no_scenario_name():
    # a scenario's rules live in its SCENARIOS record, so no code in config
    # branches on a scenario's name
    tree = ast.parse((SRC / "gstrands" / "config.py").read_text())
    hits = [f"line {node.lineno}: {const.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            for operand in [node.left, *node.comparators] for const in ast.walk(operand)
            if isinstance(const, ast.Constant) and const.value in gstrands.config.SCENARIOS]
    assert hits == []


def test_every_src_name_is_reached():
    # a top-level function or class of the package, or a method or property
    # of such a class, that nothing in src/, perfbench/ or scripts/ names is
    # API only tests reach: it belongs in tests/oracles.py or nowhere.  A
    # Name load, an attribute, an import alias or a Scenario record's
    # run="<runner>" string names a top-level definition; only an attribute
    # names a method.  A module's __getattr__ and __dir__ are the import
    # protocol's (PEP 562), not API.
    trees = {path: ast.parse(path.read_text()) for folder in ("src", "perfbench", "scripts")
             for path in sorted((SRC.parent / folder).rglob("*.py"))}
    names, attrs = set(), set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
            attrs.add(node.name)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Scenario":
            names.update(kw.value.value for kw in node.keywords
                         if kw.arg == "run" and isinstance(kw.value, ast.Constant))
    unreached = []
    for path in sorted((SRC / "gstrands").glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name in ("__getattr__", "__dir__"):
                continue
            if node.name not in names | attrs:
                unreached.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unreached += [f"{path.stem}.{node.name}.{m.name}" for m in node.body
                              if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                              and m.name not in attrs]
    assert unreached == []
