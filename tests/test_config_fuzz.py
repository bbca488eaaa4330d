"""Fuzz the CLI with configs built from the scenario table.

Every config must end in exit 0, or exit 1/2 with an ``error category:``
line, and never in a traceback.  ``validate`` must reject (exit 2) exactly
the configs ``run`` rejects, and a rejected config writes no output.
Solves stay tiny: n_s in {1, 8, 9, 16} (plus invalid values), at most 20
steps, n_so <= 4 and n_p <= 4.
"""

import io
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import yaml
from hypothesis import example, given, settings, strategies as st

from gstrands import cli, config

# Hypothesis leans towards the first entry of sampled_from and towards 0
# from integers (its all-zero draw), so each list starts with an ordinary
# value and repeats ordinary values; about a fifth of the configs then
# pass validation and reach a solve.  The magnitudes 1e8 and 1e200 drive
# solves into blow-ups, 1e200 already in the initial slave solve.
VALUES = st.sampled_from([1.0, 0.3, 2.5, 0.0, -1.0, 1e8, -1e8, 1e200, -1e200])
INTS = st.sampled_from([2, 3, 1, 4, 2, 3, 0, -1])
SIZES = st.sampled_from([3, 2, 1, 4, 6, 0])
JUNK = st.sampled_from([None, "x", True, [1.0], {"k": 1}])


def _rarely(draw, n=20):
    """True about once in n + 1 draws."""
    return draw(st.sampled_from([False] * n + [True]))


def _maybe(draw, value, n=20):
    """Mostly ``value``; now and then a value of the wrong type."""
    return draw(JUNK) if _rarely(draw, n) else value


def _value(draw, key: config.Key, n_s):
    if key.kind in ("float", "int"):  # mostly within the key's bound
        value = draw(VALUES if key.kind == "float" else INTS)
        if key.low is not None and not _rarely(draw, 3):
            value = max(value, key.low) if key.kind == "int" else abs(value)
        return _maybe(draw, value)
    if key.kind == "str":
        return _maybe(draw, draw(st.sampled_from(key.choices * 4 + ("nope",))))
    if key.list_of == "list":  # rows of n_s entries, now and then another count
        rows = [[draw(VALUES)] * (draw(SIZES) if _rarely(draw, 3) else int(n_s))
                for _ in range(draw(SIZES))]
        return _maybe(draw, rows)
    n = draw(SIZES) if key.length is None or draw(st.booleans()) else key.length
    return _maybe(draw, draw(st.lists(VALUES, min_size=n, max_size=n)))


def _section(draw, schema, n_s):
    """Each key is left out (default) or set, half the time each."""
    return {k: _value(draw, key, n_s) for k, key in schema.items() if draw(st.booleans())}


@st.composite
def configs(draw):
    name = draw(st.sampled_from(sorted(config.SCENARIOS)))
    spec = config.SCENARIOS[name]
    n_s = draw(st.sampled_from([8, 16, 1] * 10 + [0, 2, 7, 9, 2.5]))
    dt = draw(st.sampled_from([0.01, 0.005, 0.05]))
    steps = draw(st.integers(2, 20))
    t_end = draw(st.sampled_from([steps * dt] * 24 + [dt, (steps + 0.5) * dt, 0.0, -dt]))
    grid = {"n_s": n_s, "dt": dt, "t_end": t_end}
    if draw(st.booleans()):
        grid["store_every"] = draw(st.sampled_from([1, 2, 3, 1, 2, 3, 25, 0]))
    if draw(st.booleans()):
        grid["bc"] = draw(st.sampled_from(["periodic", "fixed"] * 4 + ["open"]))
    cfg = {
        "scenario": _maybe(draw, name, n=50),
        "label": draw(st.sampled_from([None, "fuzz", ""] * 5 + [1])),
        "grid": grid,
        "params": _section(draw, spec.params, n_s),
        "initial": _section(draw, spec.initial, n_s),
    }
    if _rarely(draw, 50):
        cfg[draw(st.sampled_from(["seed", "typo"]))] = draw(JUNK)
    return cfg


def _main(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err), \
            np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=700, derandomize=True, deadline=None)
@given(configs())
@example({"scenario": "verify_action", "grid": {"n_s": 9}})  # odd: its action grid is periodic
# configs that break two rules, one shared and one of the scenario's record
@example({"scenario": "ch_classical", "grid": {"n_s": 4, "t_end": 0.01}})
@example({"scenario": "symm_rigid_soN", "grid": {"n_s": 16, "dt": 0.01, "t_end": 0.05},
          "params": {"a_t_diag": [0.0, 1.0, 1.0]}, "initial": {"preset": "classical"}})
@example({"scenario": "cdb_so3", "grid": {"n_s": 128, "dt": 1.0, "t_end": 1.0}})
# one step at n_s = 1: no strand residual, so no 3-slice rule
@example({"scenario": "symm_rigid_soN", "grid": {"n_s": 1, "dt": 0.01, "t_end": 0.01},
          "initial": {"preset": "strand"}})
def test_validate_and_run_agree_on_fuzzed_configs(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        path = os.path.join(tmp, "fuzz.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump({"output_dir": out, **cfg}, fh)
        v_code, v_err = _main(["validate", path])
        r_code, r_err = _main(["run", path])
        for code, err in ((v_code, v_err), (r_code, r_err)):
            assert code in (0, 1, 2)
            assert code == 0 or "error category:" in err, err
        assert (v_code == 2) == (r_code == 2), (v_err, r_err)
        if r_code == 2:
            assert not os.path.exists(out)
