import json
import os

import numpy as np
import pytest

from gstrands import cli, config
from gstrands.errors import ConfigParseError, ConfigValidationError


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
    cfg = config.parse_config("scenario: chiral_so3\ngrid:\n  dt: 1\n")
    assert isinstance(cfg.grid["dt"], float)


def test_integral_check_for_int_fields():
    with pytest.raises(ConfigValidationError):
        config.parse_config("scenario: chiral_so3\ngrid:\n  n_s: 12.5\n")


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


def test_validate_and_list(tmp_path, capsys):
    cfg = write(tmp_path, "ok.yaml", "scenario: cdb_so3\n")
    assert cli.main(["validate", cfg]) == 0
    assert cli.main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "peakon_strand" in out


def test_study_levels_validation(tmp_path):
    cfg = write(tmp_path, "c.yaml", "scenario: chiral_so3\n")
    assert cli.main(["study", cfg, "--levels", "2"]) == 2


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
