"""Scenario configuration: YAML parsing with a strict published schema.

Every key is declared; unknown keys, wrong types and out-of-range values are
rejected with distinct error codes so typos fail fast.  All numeric scalars
are coerced to 64-bit floats (integer fields additionally require integral
values).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import yaml

from .errors import ConfigParseError, ConfigValidationError

SCENARIOS = ("chiral_so3", "se3_strand", "cdb_so3", "symm_rigid_soN",
             "linear_rep", "peakon_strand", "ch_classical", "verify_action")


@dataclass(frozen=True)
class Key:
    """One schema entry: type is 'float', 'int', 'str', 'list' or 'map'."""

    kind: str
    default: object = None
    required: bool = False
    choices: tuple = ()
    low: float | None = None
    list_of: str = "float"


_GRID_SCHEMA = {
    "n_s": Key("int", 128, low=1),
    "s_extent": Key("float", float(2.0 * np.pi), low=0.0),
    "dt": Key("float", 1e-3, low=0.0),
    "t_end": Key("float", 1.0, low=0.0),
    "bc": Key("str", "periodic", choices=("periodic", "fixed")),
    "store_every": Key("int", 1, low=1),
}

# per-scenario grid defaults overriding the generic ones above
_GRID_DEFAULTS = {
    "chiral_so3": {},
    "se3_strand": {"n_s": 64, "dt": 2e-3, "t_end": 0.5},
    "cdb_so3": {"n_s": 64},
    "symm_rigid_soN": {"n_s": 32, "dt": 2e-3, "t_end": 0.5},
    "linear_rep": {"n_s": 32, "s_extent": 6.4, "dt": 0.01, "t_end": 0.5},
    "peakon_strand": {"n_s": 32, "dt": 5e-3, "t_end": 0.5},
    "ch_classical": {"n_s": 1, "s_extent": 1.0, "t_end": 5.0},
    "verify_action": {"n_s": 16, "s_extent": 6.4, "dt": 0.1, "t_end": 2.0},
}

_PARAM_SCHEMAS = {
    "chiral_so3": {},
    "se3_strand": {
        "a_t_diag": Key("list", [1.0, 2.0, 3.0, 1.0, 1.0, 1.0]),
        "a_s_diag": Key("list", [-1.0, -1.0, -2.0, -1.0, -1.0, -2.0]),
    },
    "cdb_so3": {},
    "symm_rigid_soN": {
        "n_so": Key("int", 3, low=2),
        "a_t_diag": Key("list", None),
        "a_s_diag": Key("list", None),
    },
    "linear_rep": {
        "a_t_diag": Key("list", [1.0, 2.0, 3.0]),
        "a_s_diag": Key("list", [-1.0, -1.0, -1.0]),
    },
    "peakon_strand": {
        "alpha": Key("float", 1.0, low=0.0),
        "n_p": Key("int", 2, low=1),
    },
    "ch_classical": {
        "alpha": Key("float", 1.0, low=0.0),
    },
    "verify_action": {},
}

_INITIAL_PRESETS = {
    "chiral_so3": ("generic_smooth", "traveling_bump", "pure_gauge"),
    "se3_strand": ("convective_bump",),
    "cdb_so3": ("rotating",),
    "symm_rigid_soN": ("classical", "strand"),
    "linear_rep": ("rotating",),
    "peakon_strand": ("two_peakon_wave", "single_peakon", "inline"),
    "ch_classical": ("two_peakon", "inline"),
    "verify_action": ("default",),
}

_INITIAL_SCHEMAS = {
    "chiral_so3": {
        "preset": Key("str", "generic_smooth"),
        "width": Key("float", 0.5, low=0.0),
        "winds": Key("int", 1),
        "amplitude": Key("float", 1.0),
        "xi": Key("list", [0.0, 0.0, 1.0]),
    },
    "se3_strand": {
        "preset": Key("str", "convective_bump"),
        "amplitude": Key("float", 0.2),
    },
    "cdb_so3": {
        "preset": Key("str", "rotating"),
        "m0": Key("list", [1.0, 0.4, 0.0]),
        "wt0": Key("list", [0.3, 0.2, 0.1]),
        "winds": Key("int", 1),
    },
    "symm_rigid_soN": {
        "preset": Key("str", "strand"),
        "u0": Key("list", None),
        "amplitude": Key("float", 0.3),
    },
    "linear_rep": {
        "preset": Key("str", "rotating"),
        "v0": Key("list", [1.0, 0.0, 0.5]),
        "m0": Key("list", [0.2, 0.9, 0.1]),
        "winds": Key("int", 1),
    },
    "peakon_strand": {
        "preset": Key("str", "two_peakon_wave"),
        "gap": Key("float", 3.0, low=0.0),
        "amplitude": Key("float", 0.2),
        "m_values": Key("list", [1.0, 0.8]),
        "q0": Key("list", None, list_of="list"),
        "m0": Key("list", None, list_of="list"),
    },
    "ch_classical": {
        "preset": Key("str", "two_peakon"),
        "q0": Key("list", [-2.5, 2.5]),
        "p0": Key("list", [1.0, 0.8]),
    },
    "verify_action": {"preset": Key("str", "default")},
}

_TOP_SCHEMA = {
    "scenario": Key("str", required=True),
    "label": Key("str", None),
    "output_dir": Key("str", "."),
    "seed": Key("int", 0),
    "grid": Key("map"),
    "params": Key("map"),
    "initial": Key("map"),
}


@dataclass
class ScenarioConfig:
    scenario: str
    label: str
    output_dir: str
    seed: int
    grid: dict
    params: dict
    initial: dict
    raw: dict = dc_field(default_factory=dict, repr=False)

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
    if key.kind == "float":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigValidationError(
                f"field '{name}' must be a number, got {value!r}", code="bad-type", field=name)
        value = float(value)
        if key.low is not None and value <= key.low:
            raise ConfigValidationError(
                f"field '{name}' must be > {key.low}, got {value}", code="out-of-range", field=name)
        return value
    if key.kind == "int":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigValidationError(
                f"field '{name}' must be an integer, got {value!r}", code="bad-type", field=name)
        f = float(value)
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
        if key.list_of == "list":
            return [_coerce(f"{name}[{i}]", Key("list"), v) for i, v in enumerate(value)]
        return [_coerce(f"{name}[{i}]", Key("float"), v) for i, v in enumerate(value)]
    raise AssertionError(key.kind)


def _apply_schema(section_name, schema, data, defaults=None):
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigValidationError(
            f"section '{section_name}' must be a mapping", code="bad-type", field=section_name)
    for k in data:
        if k not in schema:
            raise ConfigValidationError(
                f"unknown key '{section_name}.{k}'", code="unknown-key", field=f"{section_name}.{k}")
    out = {}
    for k, key in schema.items():
        if k in data:
            out[k] = _coerce(f"{section_name}.{k}", key, data[k])
        else:
            default = key.default
            if defaults and k in defaults:
                default = defaults[k]
            if default is None and key.required:
                raise ConfigValidationError(
                    f"missing required key '{section_name}.{k}'", code="missing-key",
                    field=f"{section_name}.{k}")
            out[k] = default
    return out


# libyaml's C parser when PyYAML was built with it: same results, less parse time
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a YAML scenario config from a string."""
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
    for k in data:
        if k not in _TOP_SCHEMA:
            raise ConfigValidationError(f"unknown key '{k}'", code="unknown-key", field=k)
    scenario = data.get("scenario")
    if scenario is None:
        raise ConfigValidationError("missing required key 'scenario'",
                                    code="missing-key", field="scenario")
    if scenario not in SCENARIOS:
        raise ConfigValidationError(
            f"unknown scenario '{scenario}'; known: {', '.join(SCENARIOS)}",
            code="unknown-scenario", field="scenario")

    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise ConfigValidationError("field 'label' must be a string", code="bad-type", field="label")
    output_dir = data.get("output_dir", ".")
    if not isinstance(output_dir, str):
        raise ConfigValidationError("field 'output_dir' must be a string",
                                    code="bad-type", field="output_dir")
    seed = _coerce("seed", Key("int", 0), data.get("seed", 0))

    grid = _apply_schema("grid", _GRID_SCHEMA, data.get("grid"),
                         defaults=_GRID_DEFAULTS[scenario])
    params = _apply_schema("params", _PARAM_SCHEMAS[scenario], data.get("params"))
    initial = _apply_schema("initial", _INITIAL_SCHEMAS[scenario], data.get("initial"))

    preset = initial.get("preset")
    if preset is not None and preset not in _INITIAL_PRESETS[scenario]:
        raise ConfigValidationError(
            f"unknown preset '{preset}' for scenario '{scenario}'; "
            f"known: {', '.join(_INITIAL_PRESETS[scenario])}",
            code="out-of-range", field="initial.preset")

    if scenario == "ch_classical" and grid["n_s"] != 1:
        raise ConfigValidationError("ch_classical runs with grid.n_s = 1",
                                    code="out-of-range", field="grid.n_s")
    if scenario != "ch_classical" and grid["n_s"] != 1 and grid["n_s"] < 8:
        raise ConfigValidationError("grid.n_s must be >= 8 (or 1 for classical modes)",
                                    code="out-of-range", field="grid.n_s")

    return ScenarioConfig(scenario=scenario, label=label or scenario,
                          output_dir=output_dir, seed=seed, grid=grid,
                          params=params, initial=initial, raw=data)


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a YAML scenario config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config '{path}': {exc}") from exc
    return parse_config(text)


def schema_description() -> str:
    """Human-readable schema dump for list-scenarios."""
    lines = []
    for name in SCENARIOS:
        lines.append(f"{name}:")
        gd = dict(_GRID_SCHEMA)
        lines.append("  grid: " + ", ".join(
            f"{k}={_GRID_DEFAULTS[name].get(k, v.default)!r}" for k, v in gd.items()))
        if _PARAM_SCHEMAS[name]:
            lines.append("  params: " + ", ".join(
                f"{k}={v.default!r}" for k, v in _PARAM_SCHEMAS[name].items()))
        lines.append("  presets: " + ", ".join(_INITIAL_PRESETS[name]))
    return "\n".join(lines)
