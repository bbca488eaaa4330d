"""The benchmark's traced run wraps library functions where they are looked
up at call time (perfbench/spans.py, TARGETS), and its set-up probe and size
ladder call the library directly.  These tests keep those names resolvable,
the functions reached through them and those calls working, without
importing or changing anything under perfbench/."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from conftest import SLAVED_FAMILIES, slaved_family

from gstrands import config, gstrand, liealg, scenarios
from gstrands.gstrand import StrandField, StrandGrid, chiral_lagrangian

ROOT = Path(__file__).resolve().parents[1]
STEPS = 3


def perfbench_module(name):
    """The namespace of perfbench/<name>.py, read and executed afresh (no
    bytecode or other file is written)."""
    path = ROOT / "perfbench" / f"{name}.py"
    namespace = {"__name__": f"{name}_under_test"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace


def spans_targets():
    return perfbench_module("spans")["TARGETS"]


def test_every_span_target_resolves_to_a_callable():
    targets = spans_targets()
    assert targets
    missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in targets
               if not callable(getattr(mod, attr, None))]
    assert missing == []


def _count_calls(monkeypatch, module, attr):
    calls = []
    real = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


@pytest.mark.parametrize("family", SLAVED_FAMILIES)
def test_simulate_steps_through_the_module_attribute(monkeypatch, family):
    grid = StrandGrid(16, 2 * np.pi, 5e-3, STEPS * 5e-3)
    module, _, step_name, state, simulate, _ = slaved_family(family, grid)
    calls = _count_calls(monkeypatch, module, step_name)
    simulate(state)
    assert len(calls) == grid.n_steps == STEPS


def test_strand_simulate_steps_through_the_module_attribute(monkeypatch):
    grid = StrandGrid(8, 2 * np.pi, 5e-3, STEPS * 5e-3)
    alg = liealg.builtin("so3")
    s = grid.s_nodes[:, None]
    f0 = StrandField(0.3 * np.sin(s + [0.0, 1.0, 2.0]), 0.2 * np.cos(s + [0.5, 1.5, 2.5]))
    calls = _count_calls(monkeypatch, gstrand, "step")
    gstrand.simulate(alg, chiral_lagrangian(3), f0, grid)
    assert len(calls) == STEPS


def test_every_scenarios_target_is_called_through_its_module_attribute(monkeypatch):
    # a table holding a captured function object would skip the traced
    # wrapper that spans.py installs on the module attribute
    names = sorted({attr for module, attr, _ in spans_targets() if module is scenarios})
    calls = {name: _count_calls(monkeypatch, scenarios, name) for name in names}
    configs = [config.load_config(str(path))
               for path in sorted((ROOT / "scripts" / "configs").glob("*.yaml"))]
    # no bundled config runs linear_rep
    configs.append(config.parse_config("scenario: linear_rep\ngrid: {t_end: 0.1}\n"))
    for cfg in configs:
        _, rows, _, extras = config.run_scenario(cfg)
        for table in [rows] + [body for _, body in extras.values()]:
            if callable(table):  # the trajectory tables are built when written
                table()
    assert names and [name for name in names if not calls[name]] == []


def test_setup_probe_and_ladder_run_on_the_library_api():
    # every workload's set-up builds these through setup_probe.build (a
    # kernel with dim=1, say), and the ladder steps each family itself
    configs = [f"config:{path}" for path in sorted((ROOT / "scripts" / "configs").glob("*.yaml"))]
    perfbench_module("setup_probe")["build"](
        configs + ["kernel:1.0", "algebra:so3", "algebra:se3", "algebra:soN(8)"])
    metrics = perfbench_module("ladder")["measure"](0.0)
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == {name for name in names if ".step_ms." in name}
    assert all(math.isfinite(ms) and ms > 0.0 for ms in metrics.values())
