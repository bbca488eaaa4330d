import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import S_CROSSING

from gstrands import cli, config, output, peakon
from gstrands.errors import BlowUpError, ConfigParseError, ConfigValidationError


CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# config parsing and validation

def test_minimal_chiral_defaults():
    cfg = config.parse_config("scenario: chiral_so3")
    assert cfg.grid["n_s"] == 128
    assert cfg.grid["dt"] == 1e-3
    assert cfg.label == "chiral_so3"
    assert cfg.initial["preset"] == "generic_smooth"


def test_unknown_scenario():
    with pytest.raises(ConfigValidationError) as exc:
        config.parse_config("scenario: frobnicate")
    assert exc.value.code == "unknown-scenario"


def test_negative_alpha_names_field():
    text = "scenario: ch_classical\nparams:\n  alpha: -2.0\n"
    with pytest.raises(ConfigValidationError) as exc:
        config.parse_config(text)
    assert exc.value.code == "out-of-range"
    assert "alpha" in str(exc.value)


@pytest.mark.parametrize("command", ["run", "validate"])
def test_an_alpha_whose_green_function_overflows_is_a_validation_error(tmp_path, capsys,
                                                                       command):
    # the parent passed alpha 1e-320 and halted at step 0 on a NaN Gram conditioning
    for scenario in ("ch_classical", "peakon_strand"):
        path = write(tmp_path, "tiny.yaml", f"scenario: {scenario}\noutput_dir: {tmp_path}\n"
                                            "params: {alpha: 1.0e-320}\n")
        assert cli.main([command, path]) == 2
        assert capsys.readouterr().err == ("error category: validation: params.alpha 1e-320 is "
                                           "too small: 1/(2 alpha) overflows\n")
    assert not list(tmp_path.glob("*.csv"))


def test_a_small_alpha_pair_fifty_alpha_apart_runs(tmp_path, capsys):
    # the collision gap scales with alpha: 5e-9 is 50 alpha (cond_1 about 1), and
    # at speeds p / (2 alpha) = 5e9 a step of 1e-21 moves a peakon 5e-12
    path = write(tmp_path, "small.yaml", f"scenario: ch_classical\noutput_dir: {tmp_path}\n"
                 "params: {alpha: 1.0e-10}\ngrid: {dt: 1.0e-21, t_end: 1.0e-20}\n"
                 "initial: {preset: inline, q0: [0.0, 5.0e-9], p0: [1.0, 0.8]}\n")
    assert cli.main(["run", path]) == 0
    assert "error" not in capsys.readouterr().err


def test_unknown_key_rejected():
    with pytest.raises(ConfigValidationError) as exc:
        config.parse_config("scenario: chiral_so3\ntypo_key: 1\n")
    assert exc.value.code == "unknown-key"


def test_unknown_nested_key_rejected():
    text = "scenario: chiral_so3\ngrid:\n  n_x: 4\n"
    with pytest.raises(ConfigValidationError) as exc:
        config.parse_config(text)
    assert exc.value.code == "unknown-key"


def test_parse_error_carries_position():
    with pytest.raises(ConfigParseError) as exc:
        config.parse_config("scenario: chiral_so3\ngrid: [unbalanced\n")
    assert exc.value.line is not None


def test_numbers_coerced_to_float():
    cfg = config.parse_config("scenario: chiral_so3\ngrid:\n  dt: 1\n  t_end: 2\n")
    assert isinstance(cfg.grid["dt"], float)


@pytest.mark.parametrize("text, value", [("1e-2", 0.01), ("5E-1", 0.5), ("-2e1", -20.0)])
def test_exponent_floats_without_a_dot_parse_as_floats(text, value):
    # YAML 1.2 reads these as floats; YAML 1.1 (PyYAML's default) as strings
    cfg = config.parse_config(f"scenario: peakon_strand\ninitial: {{m_values: [1.0, {text}]}}\n")
    assert cfg.initial["m_values"] == [1.0, value]
    assert type(cfg.initial["m_values"][1]) is float


def test_exponent_float_fills_an_integer_key_and_leaves_the_base_loaders_alone():
    assert config.parse_config("scenario: chiral_so3\ngrid: {n_s: 1e2}\n").grid["n_s"] == 100
    assert yaml.load("dt: 1e-3", Loader=yaml.SafeLoader) == {"dt": "1e-3"}
    assert yaml.load("dt: 1e-3", Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)) \
        == {"dt": "1e-3"}


def test_validate_accepts_an_exponent_float(tmp_path):
    path = write(tmp_path, "exp.yaml", "scenario: chiral_so3\ngrid: {dt: 1e-3, t_end: 1e-2}\n")
    assert cli.main(["validate", path]) == 0


@pytest.mark.parametrize("text, line, column, key", [
    ("scenario: chiral_so3\ngrid: {n_s: 8, n_s: 16}\n", 2, 16, "n_s"),
    ("scenario: chiral_so3\nscenario: cdb_so3\n", 2, 1, "scenario"),
    ("scenario: chiral_so3\ngrid:\n  n_s: 8\n  dt: 0.01\n  n_s: 16\n", 5, 3, "n_s"),
    ("scenario: peakon_strand\ninitial:\n  preset: inline\n  preset: inline\n", 4, 3, "preset"),
], ids=["flow-section", "top-level", "block-section", "same-value"])
def test_a_repeated_key_is_a_parse_error_at_the_repeat(text, line, column, key):
    with pytest.raises(ConfigParseError) as exc:
        config.parse_config(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert f"at line {line}, column {column}: repeated key '{key}'" in str(exc.value)


@pytest.mark.parametrize("text, message", [
    ("scenario: chiral_so3\ngrid: {n_s: 8, n_s: 16}\n",
     "config parse error at line 2, column 16: repeated key 'n_s'"),
    ("scenario: chiral_so3\ngrid: {n_s: 8\n",
     "config parse error at line 3, column 1: did not find expected ',' or '}'"),
    # a ReaderError carries a character position, not a mark
    ("a: 1\nb: \x00", "config parse error at line 2, column 4: unacceptable character #x0000"),
    # a file that is not UTF-8 fails in the read, before YAML sees it
    (b"\xff\xfescenario: chiral_so3\n",
     "cannot read config '{path}': 'utf-8' codec can't decode byte 0xff in position 0"),
], ids=["repeated-key", "unclosed-flow", "reader-error", "non-utf8"])
@pytest.mark.parametrize("command", ["run", "study", "validate"])
def test_a_yaml_error_is_one_line_exit_2(tmp_path, capsys, command, text, message):
    path = tmp_path / "bad.yaml"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert cli.main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.count("error category: parse:") == 1
    assert err.startswith("error category: parse: " + message.replace("{path}", str(path)))


def test_an_unhashable_key_stays_a_parse_error():
    with pytest.raises(ConfigParseError) as exc:
        config.parse_config("scenario: chiral_so3\n[1, 2]: 3\n")
    assert (exc.value.line, exc.value.column) == (2, 1)
    assert "found unhashable key" in str(exc.value)


def test_a_key_beside_a_merge_is_no_repeat():
    # YAML merge keys (<<) still work, and an explicit key overrides a merged one
    cfg = config.parse_config("scenario: chiral_so3\ngrid: {<<: {n_s: 8, dt: 0.1}, n_s: 16}\n")
    assert (cfg.grid["n_s"], cfg.grid["dt"]) == (16, 0.1)


def test_repeated_keys_leave_the_base_loaders_alone():
    config.parse_config("scenario: chiral_so3\n")
    for loader in {yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)}:
        assert yaml.load("n_s: 8\nn_s: 16\n", Loader=loader) == {"n_s": 16}


def test_validate_refuses_a_repeated_key(tmp_path, capsys):
    path = write(tmp_path, "rep.yaml", "scenario: chiral_so3\ngrid: {n_s: 8, n_s: 16}\n")
    assert cli.main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error category: parse: ") and "repeated key 'n_s'" in err


def test_float_lists_are_coerced_to_floats():
    cfg = config.parse_config("scenario: peakon_strand\ninitial: {m_values: [1, 0.8]}\n")
    assert cfg.initial["m_values"] == [1.0, 0.8]
    assert [type(v) for v in cfg.initial["m_values"]] == [float, float]


_HUGE = "1" + "0" * 400  # an integer beyond the float range


@pytest.mark.parametrize("entries, code, message", [
    ("[1.0, true, .nan]", "bad-type", "field 'initial.m_values[1]' must be a number, got True"),
    ("[1.0, x]", "bad-type", "field 'initial.m_values[1]' must be a number, got 'x'"),
    ('[1.0, "1e-3"]', "bad-type", "field 'initial.m_values[1]' must be a number, got '1e-3'"),
    ("[1.0, 2, .inf]", "out-of-range", "field 'initial.m_values[2]' must be finite, got inf"),
    (f"[{_HUGE}, 1.0]", "out-of-range", f"field 'initial.m_values[0]' must be finite, got {_HUGE}"),
], ids=["bool", "string", "quoted-exponent", "inf", "huge-int"])
def test_float_list_errors_name_the_failing_entry(entries, code, message):
    with pytest.raises(ConfigValidationError) as exc:
        config.parse_config(f"scenario: peakon_strand\ninitial: {{m_values: {entries}}}\n")
    assert (exc.value.code, exc.value.field, str(exc.value)) == (
        code, message.split("'")[1], message)


def test_nested_float_list_errors_name_the_failing_entry():
    rows = "[[-1, -1, -1, -1, -1, -1, -1, -1], [1, 1, 1, 1, 1, 1, .nan, 1]]"
    with pytest.raises(ConfigValidationError) as exc:
        config.parse_config(f"scenario: peakon_strand\ngrid: {{n_s: 8}}\n"
                            f"initial: {{preset: inline, q0: {rows}, m0: {rows}}}\n")
    assert (exc.value.code, exc.value.field) == ("out-of-range", "initial.q0[1][6]")
    assert str(exc.value) == "field 'initial.q0[1][6]' must be finite, got nan"


def test_parse_config_refuses_too_few_stored_slices():
    # t_end = dt stores 2 slices; the residuals' centered t-stencil needs 3
    with pytest.raises(ConfigValidationError) as exc:
        config.parse_config("scenario: chiral_so3\ngrid: {dt: 0.1, t_end: 0.1}\n")
    assert (exc.value.code, exc.value.field) == ("out-of-range", "grid.t_end")


def test_integral_check_for_int_fields():
    with pytest.raises(ConfigValidationError):
        config.parse_config("scenario: chiral_so3\ngrid:\n  n_s: 12.5\n")


def test_null_label_is_the_scenario_name():
    assert config.parse_config("scenario: chiral_so3\nlabel: null\n").label == "chiral_so3"


@pytest.mark.parametrize("text, field", [
    ("label: 1", "label"), ("output_dir: [a]", "output_dir"), ("seed: 0.5", "seed"),
    ("seed: null", "seed"),
])
def test_top_level_key_errors_name_the_key(text, field):
    with pytest.raises(ConfigValidationError) as exc:
        config.parse_config(f"scenario: chiral_so3\n{text}\n")
    assert (exc.value.code, exc.value.field) == ("bad-type", field)


def test_unknown_preset():
    with pytest.raises(ConfigValidationError):
        config.parse_config("scenario: chiral_so3\ninitial:\n  preset: nope\n")


# ---------------------------------------------------------------------------
# CLI behaviour

def test_run_ch_classical_and_determinism(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, "ch.yaml", f"""
scenario: ch_classical
label: demo
output_dir: {out}
grid:
  t_end: 1.0
""")
    assert cli.main(["run", cfg]) == 0
    first_csv = (out / "demo.csv").read_bytes()
    first_json = (out / "demo.json").read_bytes()
    assert cli.main(["run", cfg]) == 0
    assert (out / "demo.csv").read_bytes() == first_csv
    assert (out / "demo.json").read_bytes() == first_json
    payload = json.loads(first_json)
    assert payload["summary"]["hamiltonian_rel_drift"] < 1e-6
    assert payload["config"]["grid"]["dt"] == 1e-3


def test_run_unknown_scenario_exit_2(tmp_path):
    cfg = write(tmp_path, "bad.yaml", "scenario: nope\n")
    assert cli.main(["run", cfg]) == 2


def test_run_missing_file_exit_2(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.yaml")]) == 2


def test_run_near_collision_exit_1(tmp_path):
    cfg = write(tmp_path, "collide.yaml", f"""
scenario: peakon_strand
label: collide
output_dir: {tmp_path}
grid:
  n_s: 8
initial:
  preset: inline
  q0: [[0,0,0,0,0,0,0,0],[0,0,0,0,0,0,0,0]]
  m0: [[1,1,1,1,1,1,1,1],[1,1,1,1,1,1,1,1]]
""")
    assert cli.main(["run", cfg]) == 1


def test_run_peakons_that_cross_along_s_exit_1_and_write_nothing(tmp_path, capsys):
    # a strand whose rows do not share one peakon order halts at t = 0
    cfg = write(tmp_path, "cross.yaml", f"output_dir: {tmp_path / 'out'}\n" + S_CROSSING)
    assert cli.main(["run", cfg]) == 1
    assert capsys.readouterr().err == ("error category: near-collision: peakons 0 and 1 "
                                       "crossed at s-index 5 at the initial state (t = 0)\n")
    assert not (tmp_path / "out").exists()


HEAD_ON = """
scenario: ch_classical
label: head_on
output_dir: {out}
grid:
  dt: 0.01
  t_end: {t_end}
initial:
  q0: [-2.5, 2.5]
  p0: [2.0, -2.0]
"""


def test_run_head_on_collision_exit_1_names_step(tmp_path, capsys):
    cfg = write(tmp_path, "head_on.yaml", HEAD_ON.format(out=tmp_path, t_end=5.0))
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert ("error category: near-collision: peakons 0 and 1 crossed at s-index 0"
            " at step 319 (t = 3.2)") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n_s, j", [(1, 0), (8, 3)])
def test_run_ill_conditioned_gram_is_one_line_exit_1(tmp_path, capsys, n_s, j):
    # at alpha = 2e7 a gap of 1e-7 is under the collision gap COLLISION_GAP * alpha
    # (the pair's cond_1 there is 4e14)
    if n_s == 1:
        text = ("scenario: ch_classical\nparams: {alpha: 2.0e+7}\ngrid: {dt: 0.01, t_end: 0.1}\n"
                "initial: {q0: [0.0, 1.0e-7], p0: [1.0, 0.5]}\n")
    else:
        right = [1.0] * n_s
        right[j] = 1e-7
        text = ("scenario: peakon_strand\nparams: {alpha: 2.0e+7, n_p: 2}\n"
                "grid: {n_s: 8, dt: 0.01, t_end: 0.1}\n"
                f"initial: {{preset: inline, q0: [{[0.0] * n_s}, {right}], "
                f"m0: [{[1.0] * n_s}, {[0.5] * n_s}]}}\n")
    cfg = write(tmp_path, "close.yaml", f"output_dir: {tmp_path}\n" + text)
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err == ("error category: near-collision: peakons 0 and 1 within 1.000e-07 of "
                   f"collision at s-index {j} at the initial state (t = 0)\n")


def test_run_zero_total_momentum_reports_absolute_drift(tmp_path):
    cfg = write(tmp_path, "head_on.yaml", HEAD_ON.format(out=tmp_path, t_end=0.5))
    assert cli.main(["run", cfg]) == 0
    summary = json.loads((tmp_path / "head_on.json").read_text())["summary"]
    assert set(summary) == {"hamiltonian_rel_drift", "momentum_abs_drift"}
    assert summary["momentum_abs_drift"] < 1e-12
    assert summary["hamiltonian_rel_drift"] < 1e-6


def test_run_blow_up_exit_1_names_step(tmp_path, capsys):
    # RK4 far past its stability limit (dt = 2 on ds = 0.79)
    cfg = write(tmp_path, "blow.yaml", f"""
scenario: chiral_so3
label: blow
output_dir: {tmp_path}
grid:
  n_s: 8
  dt: 2.0
  t_end: 400.0
""")
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "error category: blow-up: strand field blew up at step 5 (t = 12)" in err


def test_run_huge_symm_rigid_amplitude_is_a_blow_up(tmp_path, capsys):
    # the strand preset's Q(s) is finite at any finite amplitude; its solve fails
    cfg = write(tmp_path, "huge.yaml", f"""
scenario: symm_rigid_soN
label: huge
output_dir: {tmp_path}
initial:
  preset: strand
  amplitude: 1.0e+20
""")
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert len(re.findall(r"^error category: blow-up: ", err, re.M)) == 1
    assert "Traceback" not in err


# Inputs the schema used to accept that then died with a traceback, ran a
# full solve before failing, stopped short of t_end or reported blow-up,
# or that validate passed and run rejected; a non-string scenario must not
# reach the scenario lookup.
BAD_CONFIGS = {
    "t_end-below-one-step": "scenario: verify_action\ngrid: {t_end: 0.04}\n",
    "one-step-two-slices": "scenario: chiral_so3\ngrid: {n_s: 16, t_end: 0.001}\n",
    "store_every-leaves-one-slice":
        "scenario: chiral_so3\ngrid: {n_s: 16, t_end: 0.01, store_every: 20}\n",
    "t_end-not-multiple-of-dt": "scenario: chiral_so3\ngrid: {n_s: 16, dt: 0.3, t_end: 1.0}\n",
    "dt-nan": "scenario: chiral_so3\ngrid: {dt: .nan}\n",
    "t_end-inf": "scenario: chiral_so3\ngrid: {t_end: .inf}\n",
    "n_s-inf": "scenario: chiral_so3\ngrid: {n_s: .inf}\n",
    "cdb-m0-short": "scenario: cdb_so3\ninitial: {m0: [1.0]}\n",
    "se3-a_s_diag-short": "scenario: se3_strand\nparams: {a_s_diag: [-1.0, -1.0]}\n",
    "linear-a_t_diag-long": "scenario: linear_rep\nparams: {a_t_diag: [1.0, 2.0, 3.0, 4.0]}\n",
    "symm-u0-wrong-dim": "scenario: symm_rigid_soN\ninitial: {u0: [0.1, 0.2]}\n",
    "symm-a_t_diag-wrong-dim": "scenario: symm_rigid_soN\nparams: {n_so: 4, a_t_diag: [1, 2, 3]}\n",
    "ch-no-peakons": "scenario: ch_classical\ninitial: {preset: inline, q0: [], p0: []}\n",
    "ch-p0-length": "scenario: ch_classical\ninitial: {q0: [-1.0, 1.0], p0: [1.0]}\n",
    "chiral-zero-xi":
        "scenario: chiral_so3\ngrid: {n_s: 16, t_end: 0.01}\n"
        "initial: {preset: traveling_bump, xi: [0, 0, 0]}\n",
    "scenario-not-a-string": "scenario: [1]\n",
    "symm-classical-on-a-strand": "scenario: symm_rigid_soN\ninitial: {preset: classical}\n",
    "peakon-m_values-length": "scenario: peakon_strand\ninitial: {m_values: [1.0]}\n",
    "peakon-inline-ragged":
        "scenario: peakon_strand\ngrid: {n_s: 8}\n"
        "initial: {preset: inline, q0: [[-1, -1, -1, -1, -1, -1, -1, -1], [1, 1]],\n"
        "          m0: [[1, 1, 1, 1, 1, 1, 1, 1], [1, 1, 1, 1, 1, 1, 1, 1]]}\n",
    "peakon-inline-wrong-n_p":
        "scenario: peakon_strand\ngrid: {n_s: 8}\nparams: {n_p: 3}\n"
        "initial: {preset: inline, q0: [[-1, -1, -1, -1, -1, -1, -1, -1]],\n"
        "          m0: [[1, 1, 1, 1, 1, 1, 1, 1]]}\n",
    "single-peakon-no-m_values":
        "scenario: peakon_strand\ninitial: {preset: single_peakon, m_values: []}\n",
    "se3-zero-a_t_diag":
        "scenario: se3_strand\ngrid: {n_s: 16, t_end: 0.01}\n"
        "params: {a_t_diag: [0, 1, 1, 1, 1, 1]}\n",
    "linear-zero-a_s_diag": "scenario: linear_rep\nparams: {a_s_diag: [0, -1, -1]}\n",
    "symm-zero-a_s_diag": "scenario: symm_rigid_soN\nparams: {a_s_diag: [0, -1, -1]}\n",
    "cdb-m0-off-plane": "scenario: cdb_so3\ninitial: {m0: [1.0, 0.4, 0.5]}\n",
    "verify-n_s-1": "scenario: verify_action\ngrid: {n_s: 1}\n",
    # the action grid and the Pontryagin residual are periodic in s: fixed
    # ends gave wrong residuals with exit 0, an odd n_s failed only in run
    "verify-bc-fixed": "scenario: verify_action\ngrid: {bc: fixed}\n",
    "verify-n_s-odd": "scenario: verify_action\ngrid: {n_s: 9}\n",
}


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_config_is_a_validation_error(tmp_path, capsys, command, name):
    cfg = write(tmp_path, "bad.yaml", f"output_dir: {tmp_path}\n" + BAD_CONFIGS[name])
    assert cli.main([command, cfg]) == 2
    err = capsys.readouterr().err
    assert "error category: validation:" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.yaml"]


# one minimal config per rule beyond single keys, shared or a scenario's own,
# with the exact error it must raise
CROSS_KEY_RULES = {
    "whole-steps": ("scenario: chiral_so3\ngrid: {n_s: 16, dt: 0.3, t_end: 1.0}\n",
                    "out-of-range", "grid.t_end",
                    "grid.t_end 1.0 is not a whole number of steps of grid.dt 0.3"),
    "n_s-8-or-1": ("scenario: se3_strand\ngrid: {n_s: 4}\n", "out-of-range", "grid.n_s",
                   "grid.n_s must be >= 8 (or 1 for classical modes)"),
    "a_t_diag-nonzero": ("scenario: se3_strand\nparams: {a_t_diag: [1, 0, 1, 1, 1, 1]}\n",
                         "out-of-range", "params.a_t_diag",
                         "params.a_t_diag entries must be nonzero"),
    "a_s_diag-nonzero": ("scenario: linear_rep\nparams: {a_s_diag: [0, -1, -1]}\n",
                         "out-of-range", "params.a_s_diag",
                         "params.a_s_diag entries must be nonzero"),
    "three-slices": ("scenario: chiral_so3\ngrid: {n_s: 16, t_end: 0.001}\n", "out-of-range",
                     "grid.t_end", "grid stores 2 slice(s); residuals need at least 3"),
    "ch-n_s-1": ("scenario: ch_classical\ngrid: {n_s: 16}\n", "out-of-range", "grid.n_s",
                 "ch_classical runs with grid.n_s = 1"),
    "ch-q0-empty": ("scenario: ch_classical\ninitial: {q0: [], p0: []}\n", "out-of-range",
                    "initial.q0", "initial.q0 must list at least one peakon"),
    "ch-p0-length": ("scenario: ch_classical\ninitial: {q0: [-1.0, 1.0], p0: [1.0]}\n",
                     "bad-type", "initial.p0", "q0 and p0 must have equal length"),
    "verify-n_s-even": ("scenario: verify_action\ngrid: {n_s: 9}\n", "out-of-range", "grid.n_s",
                        "verify_action's action grid needs an even grid.n_s >= 8"),
    "verify-bc-periodic": ("scenario: verify_action\ngrid: {bc: fixed}\n", "out-of-range",
                           "grid.bc", "verify_action runs with grid.bc = periodic"),
    "symm-classical-n_s-1": ("scenario: symm_rigid_soN\ninitial: {preset: classical}\n",
                             "out-of-range", "grid.n_s",
                             "the classical preset runs with grid.n_s = 1"),
    "symm-a_t_diag-dim": ("scenario: symm_rigid_soN\nparams: {n_so: 4, a_t_diag: [1, 2, 3]}\n",
                          "bad-type", "params.a_t_diag",
                          "field 'params.a_t_diag' must have dim soN(4) = 6 entries, got 3"),
    "symm-a_s_diag-dim": ("scenario: symm_rigid_soN\nparams: {a_s_diag: [-1, -1]}\n",
                          "bad-type", "params.a_s_diag",
                          "field 'params.a_s_diag' must have dim soN(3) = 3 entries, got 2"),
    "symm-u0-dim": ("scenario: symm_rigid_soN\ninitial: {u0: [0.1, 0.2]}\n", "bad-type",
                    "initial.u0", "field 'initial.u0' must have dim soN(3) = 3 entries, got 2"),
    "chiral-xi-nonzero": ("scenario: chiral_so3\ngrid: {n_s: 16, t_end: 0.01}\n"
                          "initial: {xi: [0, 0, 0]}\n", "out-of-range", "initial.xi",
                          "initial.xi must be nonzero"),
    "cdb-m0-in-plane": ("scenario: cdb_so3\ninitial: {m0: [1.0, 0.4, 0.5]}\n", "out-of-range",
                        "initial.m0", "initial.m0 must be orthogonal to the rotation axis e3"),
    "cdb-well-posed": ("scenario: cdb_so3\ngrid: {n_s: 126}\n", "ill-posed", "grid.n_s",
                       "cdb_so3 is ill-posed: grid.n_s 126 gives t_end/ds = 20.1 > 20; "
                       "roundoff grows e^(t_end/ds)-fold"),
    "peakon-m_values-n_p": ("scenario: peakon_strand\ninitial: {m_values: [1.0]}\n", "bad-type",
                            "initial.m_values", "initial.m_values must have n_p = 2 entries, got 1"),
    "peakon-single-m_values": (
        "scenario: peakon_strand\ninitial: {preset: single_peakon, m_values: []}\n",
        "out-of-range", "initial.m_values",
        "single_peakon takes its momentum from initial.m_values[0]"),
    "peakon-inline-q0": ("scenario: peakon_strand\ngrid: {n_s: 8}\n"
                         "initial: {preset: inline, q0: [[-1], [1]]}\n", "bad-type", "initial.q0",
                         "inline initial.q0 must have shape (n_p, n_s) = (2, 8)"),
    "peakon-inline-m0": ("scenario: peakon_strand\ngrid: {n_s: 8}\nparams: {n_p: 1}\n"
                         "initial: {preset: inline, q0: [[0, 0, 0, 0, 0, 0, 0, 0]]}\n",
                         "bad-type", "initial.m0",
                         "inline initial.m0 must have shape (n_p, n_s) = (1, 8)"),
}


@pytest.mark.parametrize("name", sorted(CROSS_KEY_RULES))
def test_each_cross_key_rule_raises_its_own_error(name):
    text, code, field, message = CROSS_KEY_RULES[name]
    with pytest.raises(ConfigValidationError) as exc:
        config.parse_config(text)
    assert (exc.value.code, exc.value.field, str(exc.value)) == (code, field, message)


@pytest.mark.parametrize("preset", ["classical", "strand"])
def test_symm_rigid_soN_at_one_point_needs_no_three_slices(preset):
    # its n_s = 1 mode computes no summary residual, so one step is enough
    cfg = config.parse_config("scenario: symm_rigid_soN\ngrid: {n_s: 1, dt: 0.01, t_end: 0.01}\n"
                              f"initial: {{preset: {preset}}}\n")
    assert cfg.grid["n_s"] == 1


@pytest.mark.parametrize("grid, field", [("{bc: fixed}", "grid.bc"), ("{n_s: 9}", "grid.n_s")])
def test_verify_action_grid_is_periodic_and_even(grid, field):
    with pytest.raises(ConfigValidationError) as exc:
        config.parse_config(f"scenario: verify_action\ngrid: {grid}\n")
    assert exc.value.field == field


@pytest.mark.parametrize("text", [
    "scenario: symm_rigid_soN\ngrid: {n_s: 1}\ninitial: {preset: classical}\n",
    "scenario: chiral_so3\ngrid: {n_s: 1, dt: 0.01, t_end: 0.1}\n",
    "scenario: peakon_strand\ngrid: {n_s: 1}\n",
], ids=["symm_rigid_soN", "chiral_so3", "peakon_strand"])
def test_study_needs_a_refinable_grid(tmp_path, capsys, monkeypatch, text):
    def no_solve(cfg):
        raise AssertionError("a study that cannot refine must not solve")

    monkeypatch.setattr(config, "run_scenario", no_solve)
    cfg = write(tmp_path, "study.yaml", f"output_dir: {tmp_path}\n" + text)
    assert cli.main(["study", cfg, "--levels", "3"]) == 2
    err = capsys.readouterr().err
    assert "error category: validation: a convergence study needs grid.n_s >= 8" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["study.yaml"]


@pytest.mark.parametrize("text, where", [
    ("scenario: cdb_so3\ngrid: {n_s: 16, dt: 0.005, t_end: 0.1}\n"
     "initial: {m0: [-1.0e+8, 0.3, 0.0], winds: 4}\n", "at step 0 (t = 0.005)"),
    ("scenario: linear_rep\ngrid: {n_s: 8, dt: 0.005, t_end: 0.05}\n"
     "initial: {m0: [0.3, 1.0e+8, 1.0]}\n", "at step 0 (t = 0.005)"),
    # the initial slave solve, before any step, fails the same way
    ("scenario: cdb_so3\ngrid: {n_s: 16, dt: 0.005, t_end: 0.05}\n"
     "initial: {m0: [1.0e+200, 1.0e+200, 0.0]}\n", "at the initial state (t = 0)"),
    ("scenario: linear_rep\ngrid: {n_s: 8}\ninitial: {v0: [1.0e+200, 0, 0]}\n",
     "at the initial state (t = 0)"),
], ids=["cdb_so3", "linear_rep", "cdb_so3-initial", "linear_rep-initial"])
def test_run_failed_slave_solve_is_a_located_blow_up(tmp_path, capsys, text, where):
    cfg = write(tmp_path, "big.yaml", f"output_dir: {tmp_path}\n" + text)
    assert cli.main(["validate", cfg]) == 0
    with np.errstate(all="ignore"):
        assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "error category: blow-up: linear algebra failed:" in err
    assert where in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.yaml"]


def test_validate_and_list(tmp_path, capsys):
    cfg = write(tmp_path, "ok.yaml", "scenario: cdb_so3\n")
    assert cli.main(["validate", cfg]) == 0
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "peakon_strand" in out


GOOD_CH = "scenario: ch_classical\ngrid: {t_end: 0.01}\n"
BLOW_UP_CDB = ("scenario: cdb_so3\ngrid: {n_s: 16, dt: 0.005, t_end: 0.05}\n"
               "initial: {m0: [1.0e+200, 1.0e+200, 0.0]}\n")


def test_run_takes_several_configs_each_under_its_header_with_its_summary(tmp_path, capsys):
    paths = [write(tmp_path, f"{stem}.yaml", f"output_dir: {tmp_path}\n{GOOD_CH}")
             for stem in ("one", "two")]
    assert cli.main(["run", *paths]) == 0
    out = capsys.readouterr().out.splitlines()
    summary = json.loads((tmp_path / "ch_classical.json").read_text())["summary"]
    lines = [f"   {key}: {val:.3e}" for key, val in sorted(summary.items())]
    assert out == ["== one", *lines, "== two", *lines]


def test_one_config_takes_the_same_path_as_several(tmp_path, capsys):
    path = write(tmp_path, "only.yaml", "scenario: cdb_so3\n")
    assert cli.main(["validate", path]) == 0
    assert capsys.readouterr().out == "== only\nvalid: scenario 'cdb_so3', label 'cdb_so3'\n"


def test_a_failed_config_does_not_stop_the_next(tmp_path, capsys):
    good = write(tmp_path, "good.yaml", f"output_dir: {tmp_path}\nlabel: good\n{GOOD_CH}")
    bad = write(tmp_path, "bad.yaml", f"output_dir: {tmp_path}\n" + BAD_CONFIGS["cdb-m0-short"])
    assert cli.main(["run", good, bad]) == 2
    captured = capsys.readouterr()
    out = captured.out.splitlines()
    assert out[0] == "== good" and out[-1] == "== bad"
    assert out[1:-1] and all(line.startswith("   ") for line in out[1:-1])
    errors = [line for line in captured.err.splitlines() if line.startswith("error category")]
    assert len(errors) == 1 and errors[0].startswith("error category: validation: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "bad.yaml", "good.csv", "good.json", "good.yaml"]


@pytest.mark.parametrize("texts, code", [
    ([GOOD_CH, GOOD_CH], 0),
    ([BLOW_UP_CDB, GOOD_CH], 1),
    ([GOOD_CH, BLOW_UP_CDB], 1),
    (["scenario: nope\n", BLOW_UP_CDB, GOOD_CH], 2),
    ([BLOW_UP_CDB, "scenario: nope\n"], 2),
], ids=["0-0", "1-0", "0-1", "2-1-0", "1-2"])
def test_the_exit_code_is_the_largest_per_config_code(tmp_path, capsys, texts, code):
    paths = [write(tmp_path, f"c{i}.yaml", f"output_dir: {tmp_path}\nlabel: c{i}\n{text}")
             for i, text in enumerate(texts)]
    with np.errstate(all="ignore"):
        assert cli.main(["run", *paths]) == code
    captured = capsys.readouterr()
    headers = [line for line in captured.out.splitlines() if line.startswith("== ")]
    assert headers == [f"== c{i}" for i in range(len(texts))]
    failed = sum(text != GOOD_CH for text in texts)
    assert captured.err.count("error category: ") == failed


def test_study_levels_validation(tmp_path):
    cfg = write(tmp_path, "c.yaml", "scenario: chiral_so3\n")
    assert cli.main(["study", cfg, "--levels", "2"]) == 2


def test_study_levels_below_three_is_a_usage_error(tmp_path, capsys):
    cfg = write(tmp_path, "c.yaml", "scenario: chiral_so3\n")
    assert cli.main(["study", cfg, "--levels", "2"]) == 2
    assert capsys.readouterr().err == "error category: usage: --levels must be >= 3\n"


def test_orders_tell_growth_out_of_the_roundoff_floor_from_saturation():
    values = [1e-3, 2.5e-4, 1e-13, 1e-14, 1e-9, 5e-13]
    assert cli.orders_from_residuals(values) == [2.0, "saturated", "saturated", "grows",
                                                 "saturated"]


def test_cdb_study_constraint_residual_grows_out_of_the_floor(tmp_path, monkeypatch):
    # 2.8e-13 at level 2, 8.1e-10 at level 3: the ill-posed growth of the
    # cdb_so3 family, no longer reported as saturation; the study still exits 0
    monkeypatch.setenv("GSTRANDS_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["study", str(CONFIG_DIR / "cdb_study.yaml"), "--levels", "4"]) == 0
    report = json.loads((tmp_path / "cdb_study.study.json").read_text())
    assert report["orders"]["constraint_residual"] == ["saturated", "saturated", "grows"]


@pytest.mark.parametrize("n_s, ok", [(125, True), (126, False)])
def test_cdb_so3_grid_past_the_t_over_ds_budget_is_refused(n_s, ok):
    # t_end n_s / s_extent with t_end 1 and s_extent 2 pi: 19.9 at n_s 125, 20.05 at 126
    text = f"scenario: cdb_so3\ngrid: {{n_s: {n_s}}}\n"
    if ok:
        config.parse_config(text)
        return
    with pytest.raises(ConfigValidationError) as exc:
        config.parse_config(text)
    assert (exc.value.code, exc.value.field) == ("ill-posed", "grid.n_s")


def test_study_refuses_an_ill_posed_finest_level_before_any_solve(tmp_path, capsys,
                                                                  monkeypatch):
    # cdb_study's finest grid at --levels 5 has n_s 512, t_end/ds 32.6
    def no_solve(cfg):
        raise AssertionError("an ill-posed study must not solve")

    monkeypatch.setattr(config, "run_scenario", no_solve)
    monkeypatch.setenv("GSTRANDS_OUTPUT_DIR", str(tmp_path / "out"))
    assert cli.main(["study", str(CONFIG_DIR / "cdb_study.yaml"), "--levels", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error category: validation: cdb_so3 is ill-posed: grid.n_s 512")
    assert list(tmp_path.iterdir()) == []


def test_study_checks_every_level_before_any_solve(tmp_path, capsys, monkeypatch):
    # inline peakon rows fix n_s = 8; level 1 doubles grid.n_s but not the rows
    def no_solve(cfg):
        raise AssertionError("a study with an invalid level must not solve")

    monkeypatch.setattr(config, "run_scenario", no_solve)
    q0, m0 = [[-1.5] * 8, [1.5] * 8], [[1.0] * 8, [0.8] * 8]
    cfg = write(tmp_path, "inline.yaml", f"""
scenario: peakon_strand
output_dir: {tmp_path / "out"}
grid: {{n_s: 8, dt: 0.01, t_end: 0.2}}
initial: {{preset: inline, q0: {q0}, m0: {m0}}}
""")
    assert cli.main(["validate", cfg]) == 0
    assert cli.main(["study", cfg, "--levels", "3"]) == 2
    err = capsys.readouterr().err
    assert err == ("error category: validation: inline initial.q0 must have shape "
                   "(n_p, n_s) = (2, 16)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["inline.yaml"]


def test_study_orders(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, "study.yaml", f"""
scenario: chiral_so3
label: chi
output_dir: {out}
grid:
  n_s: 32
  dt: 0.02
  t_end: 0.4
""")
    assert cli.main(["study", cfg, "--levels", "3"]) == 0
    report = json.loads((out / "chi.study.json").read_text())
    for name in ("ep_residual", "zcc_residual"):
        orders = report["orders"][name]
        assert all(o >= 1.8 for o in orders)


@pytest.mark.parametrize("scenario, n_s", [
    ("chiral_so3", 32), ("se3_strand", 32), ("peakon_strand", 16), ("symm_rigid_soN", 16),
    ("linear_rep", 16), ("cdb_so3", 16)])
def test_stored_trajectory_self_converges_at_second_order(scenario, n_s):
    # (dt, ds) refined jointly over levels 0-3 with store_every scaled, so every
    # level stores the same 21 times; level l+1 on every other s-node against
    # level l, for every stored field but the peakon index a.  cdb_so3 reads
    # t_end/ds = 8.1 at level 3, inside its ill-posedness budget of 20.
    cfg = config.parse_config(f"scenario: {scenario}\ngrid: {{n_s: {n_s}, dt: 0.02, t_end: 0.4}}")
    tables = []
    for level in range(4):
        grid = {**cfg.grid, "n_s": n_s * 2**level, "dt": 0.02 / 2**level, "store_every": 2**level}
        header, rows, _, _ = config.run_scenario(replace(cfg, grid=grid))
        tables.append(rows().reshape(21, grid["n_s"], -1, len(header)))
    fields = [re.sub(r"\d+$", "", name) for name in header]
    for field in sorted(set(fields) - {"t", "s", "a"}):
        cols = [i for i, f in enumerate(fields) if f == field]
        diffs = [np.max(np.abs(fine[:, ::2][..., cols] - coarse[..., cols]))
                 for coarse, fine in zip(tables, tables[1:])]
        orders = np.log2(np.divide(diffs[:-1], diffs[1:]))
        assert np.all((orders >= 1.8) & (orders <= 2.2)), (field, diffs, orders)


def test_study_saturated_pure_gauge(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, "pg.yaml", f"""
scenario: chiral_so3
label: pg
output_dir: {out}
grid:
  n_s: 16
  dt: 0.02
  t_end: 0.2
initial:
  preset: pure_gauge
""")
    assert cli.main(["study", cfg, "--levels", "3"]) == 0
    report = json.loads((out / "pg.study.json").read_text())
    assert all(o == "saturated" for o in report["orders"]["zcc_residual"])


@pytest.mark.parametrize("stem", ["peakon_strand", "chiral_study"])
def test_study_builds_no_csv_rows(tmp_path, monkeypatch, stem):
    cfg = str(CONFIG_DIR / f"{stem}.yaml")
    monkeypatch.setenv("GSTRANDS_OUTPUT_DIR", str(tmp_path / "plain"))
    assert cli.main(["study", cfg, "--levels", "3"]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("a study built CSV rows")

    monkeypatch.setattr(cli, "write_csv", refuse)
    monkeypatch.setattr(peakon, "field_snapshot", refuse)
    monkeypatch.setenv("GSTRANDS_OUTPUT_DIR", str(tmp_path / "guarded"))
    assert cli.main(["study", cfg, "--levels", "3"]) == 0
    name = f"{stem}.study.json"
    assert (tmp_path / "guarded" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "guarded").iterdir()) == [name]


def test_output_dir_env_override(tmp_path, monkeypatch):
    cfg = write(tmp_path, "ch.yaml", """
scenario: ch_classical
label: envdemo
output_dir: /nonexistent-should-not-be-used
grid:
  t_end: 0.1
""")
    override = tmp_path / "envout"
    monkeypatch.setenv("GSTRANDS_OUTPUT_DIR", str(override))
    assert cli.main(["run", cfg]) == 0
    assert (override / "envdemo.csv").exists()


@pytest.mark.parametrize("argv, dirname, written", [
    (["run", "peakon_strand"], "res.csv.d",
     ["peakon_strand.csv", "peakon_strand.fields.csv", "peakon_strand.json"]),
    (["study", "cdb_study", "--levels", "3"], "r.json.d", ["cdb_study.study.json"]),
], ids=["run", "study"])
def test_output_paths_extend_the_label_not_the_directory(tmp_path, monkeypatch, argv, dirname,
                                                         written):
    monkeypatch.setenv("GSTRANDS_OUTPUT_DIR", str(tmp_path / dirname))
    command, stem, *rest = argv
    assert cli.main([command, str(CONFIG_DIR / f"{stem}.yaml"), *rest]) == 0
    assert [p.name for p in tmp_path.iterdir()] == [dirname]
    assert sorted(p.name for p in (tmp_path / dirname).iterdir()) == written


def run_script(name, out_dir):
    """scripts/<name> in a child process with GSTRANDS_OUTPUT_DIR=out_dir;
    it must exit 0 and leave scripts/results/ as it was.  Returns its
    `== <stem>` headers."""
    results = CONFIG_DIR.parent / "results"

    def listing():
        return {p.name: p.stat().st_mtime_ns for p in results.iterdir()} if results.exists() else None

    before = listing()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "GSTRANDS_OUTPUT_DIR": str(out_dir),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, str(CONFIG_DIR.parent / name)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert listing() == before
    return [line[3:] for line in done.stdout.splitlines() if line.startswith("== ")]


def test_run_all_scenarios_reads_the_output_dir_override(tmp_path):
    headers = run_script("run_all_scenarios.py", tmp_path)
    stems = sorted(p.stem for p in CONFIG_DIR.glob("*.yaml") if "study" not in p.stem)
    expected = [f"{stem}{ext}" for stem in stems for ext in (".csv", ".json")]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        expected + ["peakon_strand.fields.csv"])
    assert headers == stems


def test_run_convergence_studies_reads_the_output_dir_override(tmp_path):
    headers = run_script("run_convergence_studies.py", tmp_path)
    stems = ["chiral_study", "peakon_strand", "cdb_study", "verify_action"]
    assert headers == stems
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{stem}.study.json"
                                                                for stem in stems)


def test_usage_error_exit_2():
    assert cli.main(["frobnicate"]) == 2


def test_csv_floats_are_17_digit(tmp_path):
    out = tmp_path / "out"
    cfg = write(tmp_path, "ch.yaml", f"""
scenario: ch_classical
label: digits
output_dir: {out}
grid:
  t_end: 0.01
""")
    assert cli.main(["run", cfg]) == 0
    lines = (out / "digits.csv").read_text().splitlines()
    assert lines[0] == "t,s,a,Q,M,N"
    value = lines[1].split(",")[3]
    assert float(value) == -2.5


# ---------------------------------------------------------------------------
# nothing but categorized error lines on stderr, and nothing non-finite written

def test_overflow_prints_one_error_line_and_no_warning(tmp_path):
    # run in a child process: pytest would otherwise collect the warnings
    cfg = write(tmp_path, "big.yaml", f"output_dir: {tmp_path}\nscenario: cdb_so3\n"
                "grid: {n_s: 16, dt: 0.005, t_end: 0.05}\n"
                "initial: {m0: [1.0e+200, 1.0e+200, 0.0]}\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "gstrands.cli", "run", cfg], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error category: blow-up: "), done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.yaml"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_writers_refuse_non_finite_floats(tmp_path, value):
    json_path, csv_path = tmp_path / "d.json", tmp_path / "t.csv"
    with pytest.raises(BlowUpError) as exc:
        output.write_json(str(json_path), {"summary": {"ok": 1.0, "bad": [0.5, value]}})
    assert f"'{json_path}'" in str(exc.value) and "['summary']['bad'][1]" in str(exc.value)
    with pytest.raises(BlowUpError) as exc:
        output.write_csv(str(csv_path), ["t", "x"], iter([[0.0, 1.0], [0.1, value]]))
    assert f"'{csv_path}'" in str(exc.value) and "row 1, column 'x'" in str(exc.value)
    assert list(tmp_path.iterdir()) == []


def test_run_with_a_non_finite_summary_writes_nothing(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, "c.yaml", f"output_dir: {tmp_path}\nscenario: chiral_so3\n")
    diag = {"series": {}, "summary": {"energy_drift": float("nan")}}
    monkeypatch.setattr(cli, "run_scenario",
                        lambda cfg: (["t", "x"], iter([[0.0, 1.0]]), diag, {}))
    assert cli.main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "error category: blow-up: non-finite value in" in err
    assert "['summary']['energy_drift']" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml"]


@pytest.mark.parametrize("command", ["run", "study"])
def test_memory_error_is_categorized(tmp_path, capsys, monkeypatch, command):
    def exhausted(cfg):
        raise MemoryError

    monkeypatch.setattr(config, "run_scenario", exhausted)
    monkeypatch.setattr(cli, "run_scenario", exhausted)
    cfg = write(tmp_path, "c.yaml", f"output_dir: {tmp_path}\nscenario: chiral_so3\n")
    assert cli.main([command, cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error category: memory: ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.yaml"]
