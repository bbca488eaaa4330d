import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_float_lists_are_coerced_to_floats():
    cfg = config.parse_config("scenario: peakon_strand\ninitial: {m_values: [1, 0.8]}\n")
    assert cfg.initial["m_values"] == [1.0, 0.8]
    assert [type(v) for v in cfg.initial["m_values"]] == [float, float]


_HUGE = "1" + "0" * 400  # an integer beyond the float range


@pytest.mark.parametrize("entries, code, message", [
    ("[1.0, true, .nan]", "bad-type", "field 'initial.m_values[1]' must be a number, got True"),
    ("[1.0, x]", "bad-type", "field 'initial.m_values[1]' must be a number, got 'x'"),
    ("[1.0, 2, .inf]", "out-of-range", "field 'initial.m_values[2]' must be finite, got inf"),
    (f"[{_HUGE}, 1.0]", "out-of-range", f"field 'initial.m_values[0]' must be finite, got {_HUGE}"),
], ids=["bool", "string", "inf", "huge-int"])
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


def test_run_all_scenarios_reads_the_output_dir_override(tmp_path):
    script = CONFIG_DIR.parent / "run_all_scenarios.py"
    results = CONFIG_DIR.parent / "results"

    def listing():
        return {p.name: p.stat().st_mtime_ns for p in results.iterdir()} if results.exists() else None

    before = listing()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "GSTRANDS_OUTPUT_DIR": str(tmp_path),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert listing() == before
    stems = sorted(p.stem for p in CONFIG_DIR.glob("*.yaml") if "study" not in p.stem)
    expected = [f"{stem}{ext}" for stem in stems for ext in (".csv", ".json")]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        expected + ["peakon_strand.fields.csv"])
    assert [line[3:] for line in done.stdout.splitlines() if line.startswith("== ")] == stems


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
