"""The benchmark's workloads: inputs made from the seed, the operations one
pass runs, and the correctness gate every operation must pass.

An operation is one ``gstrands run``, one ``gstrands study`` or one API
``simulate`` call.  It fails when it raises, exits nonzero or fails its
gate; every failure is counted, none is dropped.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import setup_probe
from gstrands import cli, config, gstrand, liealg
from gstrands.gstrand import StrandField, StrandGrid, chiral_lagrangian

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE.parent / "scripts" / "configs"
REFERENCE = HERE / "reference_bundled.json"

# bundled_suite: the configs run_all_scenarios.py runs, then the studies
# run_convergence_studies.py runs, each at 3 levels
BUNDLED_RUNS = ("cdb_so3", "ch_two_peakon", "chiral_so3", "peakon_strand",
                "se3_strand", "symm_rigid_strand", "verify_action")
BUNDLED_STUDIES = ("chiral_study", "peakon_strand", "cdb_study", "verify_action")
TINY_RUNS = ("peakon_strand", "verify_action")
TINY_STUDIES = ("chiral_study",)

# Reference summary values are compared with |v - ref| <= RTOL |ref| + ATOL;
# ATOL covers residuals that sit at roundoff level.
REF_RTOL = 1e-6
REF_ATOL = 1e-12
ORDER_RANGE = (1.8, 2.2)


class GateError(Exception):
    """The operation ran, but its output failed the correctness gate."""


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` gates its result and
    returns a digest of its outputs."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str]
    out_dir: Path

    def prepare(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        os.environ["GSTRANDS_OUTPUT_DIR"] = str(self.out_dir)


def quiet_cli(argv):
    """cli.main with its progress lines and study tables kept off the
    benchmark's own output."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def files_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _require(ok, message):
    if not ok:
        raise GateError(message)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# peakon_dense: a dense peakon strand through the CLI

PEAKON_SIZES = {
    "full": {"n_p": 32, "n_s": 16, "dt": 0.01, "t_end": 0.8, "store_every": 20},
    "tiny": {"n_p": 4, "n_s": 8, "dt": 0.01, "t_end": 0.4, "store_every": 20},
}
PEAKON_GAP = 2.0
# Highest values seen over seeds 0-23 (full size) and 0-39 (tiny size):
# cross-derivative 1.9e-3 and 9.3e-4, compatibility 2.5e-3 and 4.0e-3.
# They are O(dt_stored^2) with dt_stored = 0.2.
PEAKON_BOUNDS = {"cross_derivative_residual": 1e-2, "compatibility_residual": 2e-2}
S_CONSTRAINT_MAX = 1e-12


def peakon_dense_config(seed: int, size: str) -> dict:
    """Peakons 2 kernel lengths apart whose momenta increase to the right,
    so they spread apart; the seed draws the momenta and the phase of each
    peakon's s-modulation."""
    sz = PEAKON_SIZES[size]
    n_p, n_s = sz["n_p"], sz["n_s"]
    rng = np.random.default_rng(seed)
    s = np.arange(n_s) * (2.0 * np.pi / n_s)
    phase = s[None, :] + rng.uniform(0.0, 2.0 * np.pi, n_p)[:, None]
    q = PEAKON_GAP * (np.arange(n_p) - (n_p - 1) / 2.0)[:, None] + 0.2 * np.sin(phase)
    m = (0.5 + np.sort(rng.uniform(0.0, 1.0, n_p)))[:, None] * (1.0 + 0.1 * np.cos(phase))
    return {
        "scenario": "peakon_strand", "label": "peakon_dense", "seed": seed,
        "grid": {k: sz[k] for k in ("n_s", "dt", "t_end", "store_every")},
        "params": {"alpha": 1.0, "n_p": n_p},
        "initial": {"preset": "inline", "q0": q.tolist(), "m0": m.tolist()},
    }


class PeakonDense:
    def __init__(self, seed: int, work_dir: Path, size: str = "full"):
        self.cfg = peakon_dense_config(seed, size)
        self.config_path = work_dir / "peakon_dense.yaml"
        self.config_path.write_text(yaml.safe_dump(self.cfg))
        self.ops = [Op("run:peakon_dense", self._run, self._check, work_dir / "out")]

    def setup_specs(self):
        return [f"config:{self.config_path}", f"kernel:{self.cfg['params']['alpha']}"]

    def setup(self):
        setup_probe.build(self.setup_specs())

    def _run(self):
        return quiet_cli(["run", str(self.config_path)])

    def _check(self, code):
        _require(code == 0, f"gstrands run exited {code}")
        out = self.ops[0].out_dir
        summary = _read_json(out / "peakon_dense.json")["summary"]
        _require(summary["max_s_constraint"] <= S_CONSTRAINT_MAX,
                 f"max_s_constraint {summary['max_s_constraint']:.3e} > {S_CONSTRAINT_MAX}")
        for key, bound in PEAKON_BOUNDS.items():
            _require(math.isfinite(summary[key]) and summary[key] <= bound,
                     f"{key} {summary[key]:.3e} not below {bound}")
        rows = np.loadtxt(out / "peakon_dense.csv", delimiter=",", skiprows=1, ndmin=2)
        n_s, n_p = self.cfg["grid"]["n_s"], self.cfg["params"]["n_p"]
        q = rows[:, 3].reshape(-1, n_s, n_p)
        gaps = np.diff(q, axis=2)
        _require(np.all(gaps > 0.0),
                 f"peakon order lost at a stored slice (min gap {gaps.min():.3e})")
        return files_digest(out)


# ---------------------------------------------------------------------------
# algebra_wide: the chiral strand on soN(8) through the library API

ALGEBRA_SIZES = {
    "full": {"algebra": "soN(8)", "n_s": 128, "dt": 0.005, "steps": 40},
    "tiny": {"algebra": "soN(8)", "n_s": 16, "dt": 0.005, "steps": 4},
}
# Highest values seen over seeds 0-23 (full size) and 0-39 (tiny size):
# relative energy drift 1.4e-11, ep_residual 9.4e-5, zcc_residual 1.9e-4.
ENERGY_DRIFT_MAX = 1e-8
ALGEBRA_BOUNDS = {"ep_residual": 1e-3, "zcc_residual": 1e-3}


def fourier_field(rng, s, dim, modes=3, amplitude=0.3):
    """Smooth periodic field: seeded Fourier modes 1..modes, decaying as 1/k."""
    out = np.zeros((len(s), dim))
    for k in range(1, modes + 1):
        a, b = rng.standard_normal((2, dim)) * (amplitude / k)
        out += np.cos(k * s)[:, None] * a + np.sin(k * s)[:, None] * b
    return out


class AlgebraWide:
    def __init__(self, seed: int, work_dir: Path, size: str = "full"):
        sz = ALGEBRA_SIZES[size]
        self.algebra_name = sz["algebra"]
        self.grid = StrandGrid(sz["n_s"], 2.0 * np.pi, sz["dt"], sz["steps"] * sz["dt"])
        self.seed = seed
        self.alg = None
        self.ops = [Op("simulate:algebra_wide", self._run, self._check, work_dir / "out")]

    def setup_specs(self):
        return [f"algebra:{self.algebra_name}"]

    def setup(self):
        """Build the algebra, the Lagrangian and the initial fields once."""
        self.alg = liealg.builtin(self.algebra_name)
        self.lag = chiral_lagrangian(self.alg.dim)
        rng = np.random.default_rng(self.seed)
        s = self.grid.s_nodes
        self.f0 = StrandField(fourier_field(rng, s, self.alg.dim),
                              fourier_field(rng, s, self.alg.dim))

    def _run(self):
        alg, lag, grid = self.alg, self.lag, self.grid
        hist = gstrand.simulate(alg, lag, self.f0, grid)
        report = gstrand.residual_report(alg, lag, hist, grid)
        energies = [gstrand.hamiltonian_energy(alg, lag, StrandField(nu, gam), grid)
                    for nu, gam in zip(hist.nu, hist.gamma)]
        return hist, report, energies

    def _check(self, result):
        hist, report, energies = result
        drift = max(abs(e - energies[0]) for e in energies) / abs(energies[0])
        _require(drift <= ENERGY_DRIFT_MAX,
                 f"relative energy drift {drift:.3e} > {ENERGY_DRIFT_MAX}")
        for key, bound in ALGEBRA_BOUNDS.items():
            _require(math.isfinite(report[key]) and report[key] <= bound,
                     f"{key} {report[key]:.3e} not below {bound}")
        h = hashlib.sha256()
        for arr in (hist.times, hist.nu, hist.gamma, np.array(energies)):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr(sorted(report.items())).encode())
        return h.hexdigest()


# ---------------------------------------------------------------------------
# bundled_suite: every bundled config, the way the two scripts run them

def _algebra_of(cfg) -> str | None:
    if cfg.scenario == "se3_strand":
        return "se3"
    if cfg.scenario == "symm_rigid_soN":
        return f"soN({cfg.params['n_so']})"
    if cfg.scenario in ("peakon_strand", "ch_classical"):
        return None
    return "so3"


def bundled_outputs(kind: str, label: str, out_dir: Path) -> dict:
    """The values the gate compares with the reference."""
    if kind == "run":
        return _read_json(out_dir / f"{label}.json")["summary"]
    study = _read_json(out_dir / f"{label}.study.json")
    return {"residuals": study["residuals"], "orders": study["orders"]}


def _close(value, ref):
    if isinstance(ref, dict):
        return isinstance(value, dict) and value.keys() == ref.keys() and all(
            _close(value[k], ref[k]) for k in ref)
    if isinstance(ref, list):
        return isinstance(value, list) and len(value) == len(ref) and all(
            _close(v, r) for v, r in zip(value, ref))
    if isinstance(ref, str):
        return value == ref
    return isinstance(value, (int, float)) and math.isfinite(value) and \
        abs(value - ref) <= REF_RTOL * abs(ref) + REF_ATOL


class BundledSuite:
    """Fixed data: the seed is ignored."""

    def __init__(self, seed: int, work_dir: Path, size: str = "full"):
        runs, studies = (BUNDLED_RUNS, BUNDLED_STUDIES) if size == "full" \
            else (TINY_RUNS, TINY_STUDIES)
        self.reference = _read_json(REFERENCE) if REFERENCE.exists() else {}
        self.ops, self.specs = [], []
        self.outputs = {}  # op name -> reads the values the gate compares
        for kind, stems in (("run", runs), ("study", studies)):
            for stem in stems:
                path = CONFIG_DIR / f"{stem}.yaml"
                cfg = config.load_config(str(path))
                if f"config:{path}" not in self.specs:
                    alg = _algebra_of(cfg)
                    self.specs += [f"config:{path}", f"algebra:{alg}" if alg
                                   else f"kernel:{cfg.params['alpha']}"]
                argv = ["run", str(path)] if kind == "run" else \
                    ["study", str(path), "--levels", "3"]
                name = f"{kind}:{stem}"
                out_dir = work_dir / name.replace(":", "_")
                self.outputs[name] = functools.partial(bundled_outputs, kind, cfg.label, out_dir)
                self.ops.append(Op(name, lambda argv=argv: quiet_cli(argv),
                                   self._checker(name, kind, out_dir), out_dir))

    def setup(self):
        setup_probe.build(self.specs)

    def setup_specs(self):
        return self.specs

    def _checker(self, name, kind, out_dir):
        def check(code):
            _require(code == 0, f"gstrands {kind} exited {code}")
            _require(name in self.reference, f"{name}: no recorded reference")
            got = self.outputs[name]()
            _require(_close(got, self.reference[name]),
                     f"{name}: outputs differ from the recorded reference")
            if kind == "study":
                for res, orders in got["orders"].items():
                    for order in orders:
                        _require(order == "saturated" or
                                 ORDER_RANGE[0] <= order <= ORDER_RANGE[1],
                                 f"{name}: {res} order {order} outside {ORDER_RANGE}")
            return files_digest(out_dir)
        return check


WORKLOADS = {
    "peakon_dense": PeakonDense,
    "algebra_wide": AlgebraWide,
    "bundled_suite": BundledSuite,
}
