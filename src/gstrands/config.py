"""Scenario configuration: YAML parsing with a strict published schema.

Every key is declared; unknown keys, wrong types and out-of-range values are
rejected with distinct error codes so typos fail fast.  All numeric scalars
are coerced to 64-bit floats (integer fields additionally require integral
values).  One ``SCENARIOS`` record declares all of a scenario, runner too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from . import scenarios
from .errors import ConfigParseError, ConfigValidationError


@dataclass(frozen=True)
class Key:
    """One schema entry: type is 'float', 'int', 'str' or 'list';
    ``length`` fixes the number of entries of a list."""

    kind: str
    default: object = None
    choices: tuple = ()
    low: float | None = None
    list_of: str = "float"
    length: int | None = None


_GRID_SCHEMA = {
    "n_s": Key("int", 128, low=1),
    "s_extent": Key("float", float(2.0 * np.pi), low=0.0),
    "dt": Key("float", 1e-3, low=0.0),
    "t_end": Key("float", 1.0, low=0.0),
    "bc": Key("str", "periodic", choices=("periodic", "fixed")),
    "store_every": Key("int", 1, low=1),
}


def _grid(**defaults):
    """The grid schema with this scenario's defaults."""
    return {k: replace(key, default=defaults.get(k, key.default))
            for k, key in _GRID_SCHEMA.items()}


def _presets(*names, default=None):
    """The ``initial.preset`` key; the default is the first name unless given."""
    return Key("str", default or names[0], choices=names)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One scenario: its grid, params and initial schemas (the presets are
    the choices of ``initial["preset"]``), the summary residuals a
    convergence study refines (none: no study) and its runner in ``scenarios``,
    ``run(cfg, grid)`` -> (header, rows, diagnostics, extra_csvs)."""

    grid: dict
    params: dict = field(default_factory=dict)
    initial: dict
    study: tuple = ()
    run: object


SCENARIOS = {
    "chiral_so3": Scenario(
        run=scenarios.run_chiral, grid=_grid(),
        initial={
            "preset": _presets("generic_smooth", "traveling_bump", "pure_gauge"),
            "width": Key("float", 0.5, low=0.0),
            "winds": Key("int", 1),
            "amplitude": Key("float", 1.0),
            "xi": Key("list", [0.0, 0.0, 1.0], length=3),
        },
        study=("ep_residual", "zcc_residual")),
    "se3_strand": Scenario(
        run=scenarios.run_se3, grid=_grid(n_s=64, dt=2e-3, t_end=0.5),
        params={
            "a_t_diag": Key("list", [1.0, 2.0, 3.0, 1.0, 1.0, 1.0], length=6),
            "a_s_diag": Key("list", [-1.0, -1.0, -2.0, -1.0, -1.0, -2.0], length=6),
        },
        initial={"preset": _presets("convective_bump"), "amplitude": Key("float", 0.2)},
        study=("ep_residual", "zcc_residual")),
    "cdb_so3": Scenario(
        run=scenarios.run_cdb, grid=_grid(n_s=64),
        initial={
            "preset": _presets("rotating"),
            "m0": Key("list", [1.0, 0.4, 0.0], length=3),
            "wt0": Key("list", [0.3, 0.2, 0.1], length=3),
            "winds": Key("int", 1),
        },
        study=("div_sigma_residual", "constraint_residual")),
    "symm_rigid_soN": Scenario(
        run=scenarios.run_symm_rigid, grid=_grid(n_s=32, dt=2e-3, t_end=0.5),
        params={
            "n_so": Key("int", 3, low=2),
            "a_t_diag": Key("list", None),
            "a_s_diag": Key("list", None),
        },
        initial={
            "preset": _presets("classical", "strand", default="strand"),
            "u0": Key("list", None),
            "amplitude": Key("float", 0.3),
        },
        study=("strand_residual",)),
    "linear_rep": Scenario(
        run=scenarios.run_linear_rep, grid=_grid(n_s=32, s_extent=6.4, dt=0.01, t_end=0.5),
        params={
            "a_t_diag": Key("list", [1.0, 2.0, 3.0], length=3),
            "a_s_diag": Key("list", [-1.0, -1.0, -1.0], length=3),
        },
        initial={
            "preset": _presets("rotating"),
            "v0": Key("list", [1.0, 0.0, 0.5], length=3),
            "m0": Key("list", [0.2, 0.9, 0.1], length=3),
            "winds": Key("int", 1),
        },
        study=("constraint_drift", "ep_residual")),
    "peakon_strand": Scenario(
        run=scenarios.run_peakon_strand, grid=_grid(n_s=32, dt=5e-3, t_end=0.5),
        params={"alpha": Key("float", 1.0, low=0.0), "n_p": Key("int", 2, low=1)},
        initial={
            "preset": _presets("two_peakon_wave", "single_peakon", "inline"),
            "gap": Key("float", 3.0, low=0.0),
            "amplitude": Key("float", 0.2),
            "m_values": Key("list", [1.0, 0.8]),
            "q0": Key("list", None, list_of="list"),
            "m0": Key("list", None, list_of="list"),
        },
        study=("cross_derivative_residual", "compatibility_residual")),
    "ch_classical": Scenario(
        run=scenarios.run_ch_classical, grid=_grid(n_s=1, s_extent=1.0, t_end=5.0),
        params={"alpha": Key("float", 1.0, low=0.0)},
        initial={
            "preset": _presets("two_peakon", "inline"),
            "q0": Key("list", [-2.5, 2.5]),
            "p0": Key("list", [1.0, 0.8]),
        }),
    # optimality sits at the finite-difference noise floor from level 0, so
    # a study refines only the convergent residuals
    "verify_action": Scenario(
        run=scenarios.run_verify_action, grid=_grid(n_s=16, s_extent=6.4, dt=0.1, t_end=2.0),
        initial={"preset": _presets("default")},
        study=("clebsch_gradient_interior_max", "pontryagin_constraint",
               "pontryagin_divergence")),
}


def run_scenario(cfg: ScenarioConfig):
    """Run one scenario on its grid; returns (header, rows, diagnostics,
    extra_csvs) where extra_csvs maps a suffix to (header, rows)."""
    return SCENARIOS[cfg.scenario].run(cfg, scenarios.make_grid(cfg))


def study_residuals(cfg: ScenarioConfig, level: int) -> dict:
    """Summary residuals of the scenario at refinement level ``level``
    (dt and ds both divided by 2**level)."""
    names = study_names(cfg)
    factor = 2 ** level
    refined = replace(cfg, grid={**cfg.grid, "n_s": cfg.grid["n_s"] * factor,
                                 "dt": cfg.grid["dt"] / factor})
    summary = run_scenario(refined)[2]["summary"]
    return {k: summary[k] for k in names}

# top-level keys besides ``scenario`` and its three sections
_TOP_SCHEMA = {
    "label": Key("str", None),
    "output_dir": Key("str", "."),
    "seed": Key("int", 0),
}
_SECTIONS = ("scenario", "grid", "params", "initial")


@dataclass
class ScenarioConfig:
    scenario: str
    label: str
    output_dir: str
    seed: int
    grid: dict
    params: dict
    initial: dict

    def echo(self) -> dict:
        """Fully-defaulted config for the diagnostics echo."""
        return {
            "scenario": self.scenario,
            "label": self.label,
            "seed": self.seed,
            "grid": dict(self.grid),
            "params": dict(self.params),
            "initial": dict(self.initial),
        }


def _coerce(name, key: Key, value):
    if key.kind in ("float", "int"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            what = "a number" if key.kind == "float" else "an integer"
            raise ConfigValidationError(
                f"field '{name}' must be {what}, got {value!r}", code="bad-type", field=name)
        try:
            f = float(value)
        except OverflowError:  # an integer beyond the float range
            f = math.inf
        if not math.isfinite(f):
            raise ConfigValidationError(
                f"field '{name}' must be finite, got {value}", code="out-of-range", field=name)
        if key.kind == "float":
            if key.low is not None and f <= key.low:
                raise ConfigValidationError(f"field '{name}' must be > {key.low}, got {f}",
                                            code="out-of-range", field=name)
            return f
        if f != int(f):
            raise ConfigValidationError(
                f"field '{name}' must be integral, got {value}", code="bad-type", field=name)
        value = int(f)
        if key.low is not None and value < key.low:
            raise ConfigValidationError(
                f"field '{name}' must be >= {key.low}, got {value}", code="out-of-range", field=name)
        return value
    if key.kind == "str":
        if not isinstance(value, str):
            raise ConfigValidationError(
                f"field '{name}' must be a string, got {value!r}", code="bad-type", field=name)
        if key.choices and value not in key.choices:
            raise ConfigValidationError(
                f"field '{name}' must be one of {key.choices}, got {value!r}",
                code="out-of-range", field=name)
        return value
    if key.kind == "list":
        if not isinstance(value, list):
            raise ConfigValidationError(
                f"field '{name}' must be a list, got {value!r}", code="bad-type", field=name)
        if key.length is not None and len(value) != key.length:
            raise ConfigValidationError(
                f"field '{name}' must have {key.length} entries, got {len(value)}",
                code="bad-type", field=name)
        if key.list_of == "list":
            return [_coerce(f"{name}[{i}]", Key("list"), v) for i, v in enumerate(value)]
        # plain finite numbers in one pass; else one by one, naming the first that fails
        try:
            if {*map(type, value)} <= {float, int} and all(map(math.isfinite, value)):
                return list(map(float, value))
        except OverflowError:  # an integer beyond the float range
            pass
        return [_coerce(f"{name}[{i}]", Key("float"), v) for i, v in enumerate(value)]
    raise AssertionError(key.kind)


def _apply_schema(section_name, schema, data):
    """Coerce one section (``section_name`` "" for the top level) against its
    schema.  A missing key, or a null one whose default is None, takes the
    default."""
    prefix = f"{section_name}." if section_name else ""
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigValidationError(
            f"section '{section_name}' must be a mapping", code="bad-type", field=section_name)
    for k in data:
        if k not in schema:
            raise ConfigValidationError(
                f"unknown key '{prefix}{k}'", code="unknown-key", field=f"{prefix}{k}")
    out = {}
    for k, key in schema.items():
        if k in data and not (data[k] is None and key.default is None):
            out[k] = _coerce(f"{prefix}{k}", key, data[k])
        else:
            out[k] = key.default
    return out


# libyaml's C parser when PyYAML was built with it: same results, less parse time
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a YAML scenario config from a string, including
    the stored slices its residuals need."""
    try:
        data = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark else None
        col = mark.column + 1 if mark else None
        where = f" at line {line}, column {col}" if mark else ""
        raise ConfigParseError(f"config parse error{where}: {exc}", line=line, column=col) from exc
    if data is None:
        raise ConfigValidationError("empty config", code="missing-key", field="scenario")
    if not isinstance(data, dict):
        raise ConfigValidationError("config must be a mapping", code="bad-type")
    top = _apply_schema("", _TOP_SCHEMA, {k: v for k, v in data.items() if k not in _SECTIONS})
    scenario = data.get("scenario")
    if scenario is None:
        raise ConfigValidationError("missing required key 'scenario'",
                                    code="missing-key", field="scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:
        raise ConfigValidationError(
            f"unknown scenario '{scenario}'; known: {', '.join(SCENARIOS)}",
            code="unknown-scenario", field="scenario")
    spec = SCENARIOS[scenario]
    grid = _apply_schema("grid", spec.grid, data.get("grid"))
    params = _apply_schema("params", spec.params, data.get("params"))
    initial = _apply_schema("initial", spec.initial, data.get("initial"))
    _check_steps(grid)
    _check_cross_keys(scenario, grid, params, initial)
    _check_stored_slices(scenario, grid)
    return ScenarioConfig(scenario=scenario, label=top["label"] or scenario,
                          output_dir=top["output_dir"], seed=top["seed"], grid=grid,
                          params=params, initial=initial)


def _invalid(field, message, code="out-of-range") -> ConfigValidationError:
    return ConfigValidationError(message, code=code, field=field)


def _check_steps(grid):
    """t_end must be a whole number of steps: the run stops at round(t_end/dt)·dt."""
    dt, t_end = grid["dt"], grid["t_end"]
    ratio = t_end / dt
    if not math.isfinite(ratio) or abs(round(ratio) * dt - t_end) > 1e-9 * t_end:
        raise _invalid("grid.t_end",
                       f"grid.t_end {t_end} is not a whole number of steps of grid.dt {dt}")


def _check_stored_slices(scenario, g):
    """Summary residuals take the centered t-stencil (gstrand.centered_dt),
    so every scenario with refinable residuals but classical symm_rigid_soN
    must store at least 3 slices."""
    stored = round(g["t_end"] / g["dt"]) // g["store_every"] + 1
    if stored < 3 and SCENARIOS[scenario].study and not (
            scenario == "symm_rigid_soN" and g["n_s"] == 1):
        raise _invalid("grid.t_end", f"grid stores {stored} slice(s); residuals need at least 3")


def _check_cross_keys(scenario, grid, params, initial):
    """Rules that tie keys to each other: grid sizes a preset needs, list
    lengths fixed by other keys, vectors that must not vanish and inertia
    diagonals that must invert."""
    n_s, preset = grid["n_s"], initial["preset"]
    if scenario == "ch_classical" and n_s != 1:
        raise _invalid("grid.n_s", "ch_classical runs with grid.n_s = 1")
    if n_s != 1 and n_s < 8:
        raise _invalid("grid.n_s", "grid.n_s must be >= 8 (or 1 for classical modes)")
    if scenario == "verify_action":  # its action grid and residuals are periodic in s
        if n_s % 2:
            raise _invalid("grid.n_s", "verify_action's action grid needs an even grid.n_s >= 8")
        if grid["bc"] != "periodic":
            raise _invalid("grid.bc", "verify_action runs with grid.bc = periodic")
    if preset == "classical" and n_s != 1:
        raise _invalid("grid.n_s", "the classical preset runs with grid.n_s = 1")
    for name in ("a_t_diag", "a_s_diag"):  # inertia diagonals, inverted by the solvers
        if 0.0 in (params.get(name) or ()):
            raise _invalid(f"params.{name}", f"params.{name} entries must be nonzero")
    if scenario == "symm_rigid_soN":
        dim = params["n_so"] * (params["n_so"] - 1) // 2
        for name, value in (("params.a_t_diag", params["a_t_diag"]),
                            ("params.a_s_diag", params["a_s_diag"]),
                            ("initial.u0", initial["u0"])):
            if value is not None and len(value) != dim:
                raise _invalid(name, f"field '{name}' must have dim soN({params['n_so']}) = "
                                     f"{dim} entries, got {len(value)}", code="bad-type")
    if scenario == "ch_classical":
        if not initial["q0"]:
            raise _invalid("initial.q0", "initial.q0 must list at least one peakon")
        if len(initial["p0"]) != len(initial["q0"]):
            raise _invalid("initial.p0", "q0 and p0 must have equal length", code="bad-type")
    if scenario == "chiral_so3" and not any(initial["xi"]):
        raise _invalid("initial.xi", "initial.xi must be nonzero")
    if scenario == "cdb_so3" and abs(initial["m0"][2]) > 1e-12:
        raise _invalid("initial.m0", "initial.m0 must be orthogonal to the rotation axis e3")
    if scenario == "peakon_strand":
        n_p, m_values = params["n_p"], initial["m_values"]
        if preset == "two_peakon_wave" and len(m_values) != n_p:
            raise _invalid("initial.m_values", f"initial.m_values must have n_p = {n_p} "
                                               f"entries, got {len(m_values)}", code="bad-type")
        if preset == "single_peakon" and not m_values:
            raise _invalid("initial.m_values",
                           "single_peakon takes its momentum from initial.m_values[0]")
        for name in ("q0", "m0") if preset == "inline" else ():
            rows = initial[name]
            if rows is None or len(rows) != n_p or any(len(row) != n_s for row in rows):
                raise _invalid(f"initial.{name}", f"inline initial.{name} must have shape "
                                                  f"(n_p, n_s) = {(n_p, n_s)}", code="bad-type")


def study_names(cfg: ScenarioConfig) -> tuple:
    """Residuals a convergence study of ``cfg`` refines.  Level 1 doubles
    n_s, so a study also needs grid.n_s >= 8."""
    names = SCENARIOS[cfg.scenario].study
    if not names:
        raise _invalid("scenario", f"scenario '{cfg.scenario}' has no refinable residuals")
    if cfg.grid["n_s"] < 8:
        raise _invalid("grid.n_s", "a convergence study needs grid.n_s >= 8")
    return names


def load_config(path: str) -> ScenarioConfig:
    """Read a YAML scenario config file and parse it with parse_config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config '{path}': {exc}") from exc
    return parse_config(text)


def schema_description() -> str:
    """Human-readable schema dump for list-scenarios."""
    lines = []
    for name, spec in SCENARIOS.items():
        lines.append(f"{name}:")
        lines.append("  grid: " + ", ".join(f"{k}={v.default!r}" for k, v in spec.grid.items()))
        if spec.params:
            lines.append("  params: " + ", ".join(
                f"{k}={v.default!r}" for k, v in spec.params.items()))
        lines.append("  presets: " + ", ".join(spec.initial["preset"].choices))
    return "\n".join(lines)
