"""Scenario configuration: YAML parsing with a strict published schema.

Every key is declared; unknown keys, wrong types and out-of-range values are
rejected with distinct error codes so typos fail fast.  All numeric scalars
are coerced to 64-bit floats (integer fields additionally require integral
values).  One ``SCENARIOS`` record declares all of a scenario, runner and rules too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

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


def _invalid(field, message, code="out-of-range") -> ConfigValidationError:
    return ConfigValidationError(message, code=code, field=field)


def _chiral_rules(grid, params, initial):
    if not any(initial["xi"]):
        raise _invalid("initial.xi", "initial.xi must be nonzero")


def _cdb_rules(grid, params, initial):
    """m0 lies in the plane it turns in.  Laplace type, so ill-posed (Hadamard):
    modes grow about e^(t_end/ds); t_end/ds <= 20 keeps 1e-16 roundoff < 5e-8."""
    if abs(initial["m0"][2]) > 1e-12:
        raise _invalid("initial.m0", "initial.m0 must be orthogonal to the rotation axis e3")
    ratio = grid["t_end"] * grid["n_s"] / grid["s_extent"]
    if ratio > 20.0:
        raise _invalid("grid.n_s", f"cdb_so3 is ill-posed: grid.n_s {grid['n_s']} gives t_end/ds"
                                   f" = {ratio:.3g} > 20; roundoff grows e^(t_end/ds)-fold",
                       code="ill-posed")


def _symm_rigid_rules(grid, params, initial):
    """Vectors have dim soN(n_so) entries.  A run at n_s = 1, the classical
    preset's grid, computes no strand residual."""
    if initial["preset"] == "classical" and grid["n_s"] != 1:
        raise _invalid("grid.n_s", "the classical preset runs with grid.n_s = 1")
    dim = params["n_so"] * (params["n_so"] - 1) // 2
    for name, value in (("params.a_t_diag", params["a_t_diag"]),
                        ("params.a_s_diag", params["a_s_diag"]), ("initial.u0", initial["u0"])):
        if value is not None and len(value) != dim:
            raise _invalid(name, f"field '{name}' must have dim soN({params['n_so']}) = "
                                 f"{dim} entries, got {len(value)}", code="bad-type")
    return grid["n_s"] == 1


def _peakon_rules(grid, params, initial):
    """The data shapes of each preset."""
    n_p, m_values, preset = params["n_p"], initial["m_values"], initial["preset"]
    if preset == "two_peakon_wave" and len(m_values) != n_p:
        raise _invalid("initial.m_values", f"initial.m_values must have n_p = {n_p} "
                                           f"entries, got {len(m_values)}", code="bad-type")
    if preset == "single_peakon" and not m_values:
        raise _invalid("initial.m_values",
                       "single_peakon takes its momentum from initial.m_values[0]")
    for name in ("q0", "m0") if preset == "inline" else ():
        rows = initial[name]
        if rows is None or len(rows) != n_p or any(len(row) != grid["n_s"] for row in rows):
            raise _invalid(f"initial.{name}", f"inline initial.{name} must have shape (n_p, "
                                              f"n_s) = {(n_p, grid['n_s'])}", code="bad-type")


def _ch_classical_rules(grid, params, initial):
    if grid["n_s"] != 1:
        raise _invalid("grid.n_s", "ch_classical runs with grid.n_s = 1")
    if not initial["q0"]:
        raise _invalid("initial.q0", "initial.q0 must list at least one peakon")
    if len(initial["p0"]) != len(initial["q0"]):
        raise _invalid("initial.p0", "q0 and p0 must have equal length", code="bad-type")


def _verify_action_rules(grid, params, initial):
    """Its action grid and residuals are periodic in s."""
    if grid["n_s"] % 2:
        raise _invalid("grid.n_s", "verify_action's action grid needs an even grid.n_s >= 8")
    if grid["bc"] != "periodic":
        raise _invalid("grid.bc", "verify_action runs with grid.bc = periodic")


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One scenario: its grid, params and initial schemas (the presets are
    the choices of ``initial["preset"]``), the summary residuals a study
    refines (none: no study), the name of its runner in ``scenarios``,
    ``run(cfg, grid)`` -> (header, rows, diagnostics, extra_csvs), looked up
    by run_scenario so that parsing a config loads no solver, and its rules
    beyond the shared ones of ``_check``: ``rules(grid, params, initial)``
    raises, or returns True for a grid with no summary residual (so no
    3-slice rule)."""

    grid: dict
    params: dict = field(default_factory=dict)
    initial: dict
    study: tuple = ()
    run: str
    rules: object = lambda grid, params, initial: None  # the shared rules only


SCENARIOS = {
    "chiral_so3": Scenario(
        run="run_chiral", grid=_grid(),
        initial={
            "preset": _presets("generic_smooth", "traveling_bump", "pure_gauge"),
            "width": Key("float", 0.5, low=0.0),
            "winds": Key("int", 1),
            "amplitude": Key("float", 1.0),
            "xi": Key("list", [0.0, 0.0, 1.0], length=3),
        },
        study=("ep_residual", "zcc_residual"), rules=_chiral_rules),
    "se3_strand": Scenario(
        run="run_se3", grid=_grid(n_s=64, dt=2e-3, t_end=0.5),
        params={
            "a_t_diag": Key("list", [1.0, 2.0, 3.0, 1.0, 1.0, 1.0], length=6),
            "a_s_diag": Key("list", [-1.0, -1.0, -2.0, -1.0, -1.0, -2.0], length=6),
        },
        initial={"preset": _presets("convective_bump"), "amplitude": Key("float", 0.2)},
        study=("ep_residual", "zcc_residual")),
    "cdb_so3": Scenario(
        run="run_cdb", grid=_grid(n_s=64),
        initial={
            "preset": _presets("rotating"),
            "m0": Key("list", [1.0, 0.4, 0.0], length=3),
            "wt0": Key("list", [0.3, 0.2, 0.1], length=3),
            "winds": Key("int", 1),
        },
        study=("div_sigma_residual", "constraint_residual"), rules=_cdb_rules),
    "symm_rigid_soN": Scenario(
        run="run_symm_rigid", grid=_grid(n_s=32, dt=2e-3, t_end=0.5),
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
        study=("strand_residual",), rules=_symm_rigid_rules),
    "linear_rep": Scenario(
        run="run_linear_rep", grid=_grid(n_s=32, s_extent=6.4, dt=0.01, t_end=0.5),
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
        run="run_peakon_strand", grid=_grid(n_s=32, dt=5e-3, t_end=0.5),
        params={"alpha": Key("float", 1.0, low=0.0), "n_p": Key("int", 2, low=1)},
        initial={
            "preset": _presets("two_peakon_wave", "single_peakon", "inline"),
            "gap": Key("float", 3.0, low=0.0),
            "amplitude": Key("float", 0.2),
            "m_values": Key("list", [1.0, 0.8]),
            "q0": Key("list", None, list_of="list"),
            "m0": Key("list", None, list_of="list"),
        },
        study=("cross_derivative_residual", "compatibility_residual"), rules=_peakon_rules),
    "ch_classical": Scenario(
        run="run_ch_classical", grid=_grid(n_s=1, s_extent=1.0, t_end=5.0),
        params={"alpha": Key("float", 1.0, low=0.0)},
        initial={
            "preset": _presets("two_peakon", "inline"),
            "q0": Key("list", [-2.5, 2.5]),
            "p0": Key("list", [1.0, 0.8]),
        },
        rules=_ch_classical_rules),
    # optimality sits at the finite-difference noise floor from level 0, so
    # a study refines only the convergent residuals
    "verify_action": Scenario(
        run="run_verify_action", grid=_grid(n_s=16, s_extent=6.4, dt=0.1, t_end=2.0),
        initial={"preset": _presets("default")},
        study=("clebsch_gradient_interior_max", "pontryagin_constraint",
               "pontryagin_divergence"), rules=_verify_action_rules),
}


def run_scenario(cfg: ScenarioConfig):
    """Run one scenario on its grid; returns (header, rows, diagnostics,
    extra_csvs) where extra_csvs maps a suffix to (header, rows)."""
    from . import scenarios  # the solvers load with the first run
    return getattr(scenarios, SCENARIOS[cfg.scenario].run)(cfg, scenarios.make_grid(cfg))


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
        """Fully-defaulted config for the diagnostics echo: every field but
        output_dir, sharing its sections with the config."""
        return {k: v for k, v in vars(self).items() if k != "output_dir"}


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


@cache
def _loader():
    """The YAML loader class, built on the first parse: yaml loads with it."""
    import yaml

    class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        """libyaml's C parser when PyYAML was built with it (same results,
        less parse time), reading YAML 1.2's exponent floats without a dot
        (``1e-3``) as floats; YAML 1.1, and so the base loaders, read them as
        strings.  A key repeated in one mapping is a parse error at the
        repeat, where the base loaders keep the last value."""

        def construct_mapping(self, node, deep=False):
            keys = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep)  # refuses unhashable keys
            seen = set()
            for key_node in keys:
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"repeated key {key!r}", key_node.start_mark)
                seen.add(key)
            return mapping

    Loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
        list("-+0123456789."))
    return Loader


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a YAML scenario config from a string, including
    the stored slices its residuals need."""
    import yaml

    try:
        data = yaml.load(text, Loader=_loader())
    except yaml.YAMLError as exc:
        # one line: PyYAML's str(exc) adds an 'in "<unicode string>"' line per mark
        mark = getattr(exc, "problem_mark", None)
        if mark:
            line, col = mark.line + 1, mark.column + 1
        elif getattr(exc, "position", None) is not None:
            # a ReaderError has no mark, only the character index in text
            line = text.count("\n", 0, exc.position) + 1
            col = exc.position - text.rfind("\n", 0, exc.position)
        else:
            line = col = None
        where = f" at line {line}, column {col}" if line else ""
        problem = getattr(exc, "problem", None) or str(exc).partition("\n")[0]
        context, start = getattr(exc, "context", None), getattr(exc, "context_mark", None)
        if context and start:
            problem += f" ({context} from line {start.line + 1}, column {start.column + 1})"
        raise ConfigParseError(f"config parse error{where}: {problem}", line=line,
                               column=col) from exc
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
    _check(spec, grid, params, initial)
    return ScenarioConfig(scenario=scenario, label=top["label"] or scenario,
                          output_dir=top["output_dir"], seed=top["seed"], grid=grid,
                          params=params, initial=initial)


def _check(spec: Scenario, grid, params, initial):
    """The rules beyond single keys, checked by parse_config and on every
    level of a study: the shared ones, then ``spec.rules``, then the 3 stored
    slices that summary residuals take (gstrand.centered_dt)."""
    dt, t_end, n_s = grid["dt"], grid["t_end"], grid["n_s"]
    steps = t_end / dt  # the run stops at round(t_end/dt)·dt
    if not math.isfinite(steps) or abs(round(steps) * dt - t_end) > 1e-9 * t_end:
        raise _invalid("grid.t_end",
                       f"grid.t_end {t_end} is not a whole number of steps of grid.dt {dt}")
    if n_s != 1 and n_s < 8:
        raise _invalid("grid.n_s", "grid.n_s must be >= 8 (or 1 for classical modes)")
    for name in ("a_t_diag", "a_s_diag"):  # inertia diagonals, inverted by the solvers
        if 0.0 in (params.get(name) or ()):
            raise _invalid(f"params.{name}", f"params.{name} entries must be nonzero")
    alpha = params.get("alpha")  # the kernels divide by 2 alpha
    if alpha is not None and not math.isfinite(0.5 / alpha):
        raise _invalid("params.alpha", f"params.alpha {alpha} is too small: 1/(2 alpha) overflows")
    no_residual = spec.rules(grid, params, initial)
    stored = round(steps) // grid["store_every"] + 1
    if stored < 3 and spec.study and not no_residual:
        raise _invalid("grid.t_end", f"grid stores {stored} slice(s); residuals need at least 3")


def study(cfg: ScenarioConfig, levels: int) -> dict:
    """Summary residuals of a convergence study, one list per refined name
    with a value for each level l = 0 .. levels-1 (dt and ds divided by 2**l).
    Level 1 doubles n_s, so a study needs grid.n_s >= 8, and every level's
    grid passes ``_check`` before any level solves."""
    spec = SCENARIOS[cfg.scenario]
    if not spec.study:
        raise _invalid("scenario", f"scenario '{cfg.scenario}' has no refinable residuals")
    if cfg.grid["n_s"] < 8:
        raise _invalid("grid.n_s", "a convergence study needs grid.n_s >= 8")
    refined = [replace(cfg, grid={**cfg.grid, "n_s": cfg.grid["n_s"] * 2 ** level,
                                  "dt": cfg.grid["dt"] / 2 ** level}) for level in range(levels)]
    for r in refined:
        _check(spec, r.grid, r.params, r.initial)
    summaries = [run_scenario(r)[2]["summary"] for r in refined]
    return {name: [float(s[name]) for s in summaries] for name in spec.study}


def load_config(path: str) -> ScenarioConfig:
    """Read a YAML scenario config file and parse it with parse_config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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
