"""Span tracing for the benchmark's traced run.

The public functions of each gstrands layer are wrapped where they are
looked up at call time (the defining module and every module that imports
them by name), from this file only: the package itself is not changed.
Each call records a span (name, start, end, parent).  Spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import os
import time
from collections import defaultdict

from gstrands import cli, clebsch, config, gstrand, liealg, peakon, scenarios, verify

LAYERS = ("liealg", "gstrand", "kernels", "peakon", "clebsch", "verify",
          "scenarios", "config", "output")

# (module, attribute, span name).  Every layer of the package is covered;
# a span's layer is the part of its name before the first dot.
TARGETS = [
    (liealg, "builtin", "liealg.builtin"),
    (scenarios, "builtin", "liealg.builtin"),
    (gstrand, "bracket", "liealg.bracket"),
    (clebsch, "bracket", "liealg.bracket"),
    (gstrand, "ad_star", "liealg.ad_star"),
    (clebsch, "ad_star", "liealg.ad_star"),
    (verify, "ad_star", "liealg.ad_star"),
    (gstrand, "pair", "liealg.pair"),
    (gstrand, "d_s", "gstrand.d_s"),
    (peakon, "d_s", "gstrand.d_s"),
    (clebsch, "d_s", "gstrand.d_s"),
    (verify, "d_s", "gstrand.d_s"),
    (gstrand, "step", "gstrand.step"),
    (gstrand, "simulate", "gstrand.simulate"),
    (gstrand, "ep_residual", "gstrand.residuals"),
    (gstrand, "zcc_residual", "gstrand.residuals"),
    (gstrand, "hamiltonian_energy", "gstrand.energy"),
    (peakon, "kernel_eval", "kernels.eval"),
    (peakon, "grad_q", "kernels.grad_q"),
    (peakon, "chol_solve_batched", "kernels.chol_solve_batched"),
    (peakon, "step", "peakon.step"),
    (peakon, "simulate", "peakon.simulate"),
    (peakon, "collective_hamiltonian", "peakon.diagnostics"),
    (peakon, "s_constraint_residual", "peakon.diagnostics"),
    (peakon, "total_momentum", "peakon.diagnostics"),
    (peakon, "cross_derivative_residual", "peakon.diagnostics"),
    (peakon, "compatibility_residual", "peakon.diagnostics"),
    (peakon, "field_snapshot", "peakon.diagnostics"),
    (clebsch, "solve_cdb_ws", "clebsch.solve_cdb_ws"),
    (clebsch, "solve_linear_n", "clebsch.solve_linear_n"),
    (clebsch, "symm_rigid_velocities", "clebsch.symm_rigid_velocities"),
    (clebsch, "cdb_step", "clebsch.step"),
    (clebsch, "linear_strand_step", "clebsch.step"),
    (clebsch, "symm_rigid_step", "clebsch.step"),
    (clebsch, "cdb_simulate", "clebsch.simulate"),
    (clebsch, "linear_strand_simulate", "clebsch.simulate"),
    (clebsch, "symm_rigid_simulate", "clebsch.simulate"),
    (clebsch, "cdb_div_sigma_residual", "clebsch.diagnostics"),
    (clebsch, "cdb_constraint_residual", "clebsch.diagnostics"),
    (clebsch, "linear_constraint_drift", "clebsch.diagnostics"),
    (clebsch, "symm_rigid_strand_residual", "clebsch.diagnostics"),
    (verify, "fd_gradient", "verify.fd_gradient"),
    (verify, "pontryagin_residual", "verify.pontryagin_residual"),
    (verify, "interior_max", "verify.diagnostics"),
    (verify, "lp_ep_gap", "verify.diagnostics"),
    (scenarios, "chiral_initial", "scenarios.setup"),
    (scenarios, "se3_initial", "scenarios.setup"),
    (scenarios, "cdb_initial", "scenarios.setup"),
    (scenarios, "symm_rigid_setup", "scenarios.setup"),
    (scenarios, "linear_rep_setup", "scenarios.setup"),
    (scenarios, "peakon_setup", "scenarios.setup"),
    (scenarios, "ch_setup", "scenarios.setup"),
    (scenarios, "_verify_chiral_clebsch_state", "scenarios.setup"),
    (scenarios, "_field_rows", "scenarios.rows"),
    (scenarios, "peakon_snapshot_csv", "scenarios.rows"),
    (config, "load_config", "config.load_config"),
    (cli, "load_config", "config.load_config"),
    (cli, "write_csv", "output.write"),
    (cli, "write_json", "output.write"),
]

# Top-level spans of these names make up the set-up, solve and
# serialization phases of a pass; the rest of the pass is diagnostics.
PHASES = {
    "config.load_config": "setup", "scenarios.setup": "setup", "liealg.builtin": "setup",
    "gstrand.simulate": "solve", "peakon.simulate": "solve", "clebsch.simulate": "solve",
    "output.write": "serialize", "scenarios.rows": "serialize",
}

class Tracer:
    """In-memory span recorder.  ``spans`` holds [name, start, end, parent]
    lists; parent is an index into ``spans`` or -1."""

    def __init__(self):
        self.spans = []
        self.errors = defaultdict(int)
        self.bytes_written = defaultdict(int)  # span index of an output.write -> bytes
        self._stack = []
        self._counted = []

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def fail(self, name, exc):
        """Count an exception once, at the innermost span it crossed."""
        if not any(seen is exc for seen in self._counted):
            self._counted.append(exc)
            self.errors[name.split(".", 1)[0]] += 1

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        except BaseException as exc:
            self.fail(name, exc)
            raise
        finally:
            self.close(idx)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as idx:
                out = fn(*args, **kwargs)
                if name == "output.write":
                    # the writers take the destination path first
                    self.bytes_written[idx] = os.path.getsize(args[0])
                return out
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for mod, attr, name in TARGETS:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def write(self, path):
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "start", "end"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([i, parent, name, repr(start), repr(end)])


CALL_METRICS = ("liealg.bracket", "liealg.ad_star", "gstrand.step", "gstrand.d_s",
                "kernels.eval", "kernels.chol_solve_batched", "peakon.step",
                "clebsch.solve_cdb_ws", "verify.fd_gradient")
SELF_METRICS = ("liealg.bracket", "liealg.ad_star", "liealg.builtin", "gstrand.step",
                "gstrand.d_s", "gstrand.residuals", "kernels.eval", "kernels.grad_q",
                "kernels.chol_solve_batched", "peakon.step", "peakon.diagnostics",
                "clebsch.solve_cdb_ws", "clebsch.solve_linear_n",
                "clebsch.symm_rigid_velocities", "clebsch.step", "verify.fd_gradient",
                "verify.pontryagin_residual", "scenarios.setup", "config.load_config",
                "scenarios.rows", "output.write")


def summarize(tracer, lo, hi):
    """Per-layer metrics of spans[lo:hi]: calls and self time per span name
    and per layer, set-up/solve/serialize phase time, output bytes and the
    peakon per-step counts."""
    spans = tracer.spans
    calls = defaultdict(int)
    self_s = defaultdict(float)
    phases = defaultdict(float)
    inside_step = defaultdict(int)
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        dur = end - start
        calls[name] += 1
        self_s[name] += dur
        if parent >= lo:
            self_s[spans[parent][0]] -= dur
        ancestors = list(_ancestors(spans, parent, lo))
        if name in PHASES and not any(a in PHASES for a in ancestors):
            phases[PHASES[name]] += dur
        if "peakon.step" in ancestors:
            inside_step[name] += 1
    steps = calls["peakon.step"]
    out = {f"{name}.calls": float(calls[name]) for name in CALL_METRICS}
    out.update({f"{name}.self_s": self_s[name] for name in SELF_METRICS})
    for layer in LAYERS + ("op",):
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
    out["peakon.gram_builds_per_step"] = inside_step["kernels.eval"] / steps if steps else 0.0
    out["peakon.slaved_solves_per_step"] = \
        inside_step["kernels.chol_solve_batched"] / steps if steps else 0.0
    out["output.bytes"] = float(sum(b for i, b in tracer.bytes_written.items() if lo <= i < hi))
    for phase in ("setup", "solve", "serialize"):
        out[f"phase.{phase}_s"] = phases[phase]
    return out


def _ancestors(spans, idx, lo):
    while idx >= lo:
        yield spans[idx][0]
        idx = spans[idx][3]
