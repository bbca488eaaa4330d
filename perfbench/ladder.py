"""Size ladder: milliseconds per RK4 step of one solver family as the
problem grows, so a change can name the scaling it moved."""

from __future__ import annotations

import statistics
import time

import numpy as np

from gstrands import gstrand, liealg, peakon
from gstrands.gstrand import StrandField, StrandGrid, chiral_lagrangian
from gstrands.kernels import HelmholtzKernel

# peakon count -> steps timed, at n_s = 1 (classical mode)
PEAKON_RUNGS = {2: 60, 8: 30, 32: 8, 64: 4}
# algebra -> steps timed, chiral Lagrangian at n_s = 128
STRAND_RUNGS = {"so3": 40, "se3": 30, "glN(4)": 10, "soN(8)": 5}
STRAND_N_S = 128


def _median_step_ms(step, state, steps):
    times = []
    for _ in range(steps):
        t0 = time.perf_counter()
        state = step(state)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def peakon_step_ms(n_p, steps):
    kernel = HelmholtzKernel(1.0)
    grid = StrandGrid(1, 1.0, 1e-3, 1.0)
    q = 2.0 * np.arange(n_p, dtype=float)[None, :]
    m = (0.5 + np.arange(n_p) / n_p)[None, :]
    state = peakon.PeakonState(q, m, peakon.solve_n_constraint(
        peakon.PeakonState(q, m, np.zeros_like(q)), kernel, grid))
    return _median_step_ms(lambda st: peakon.step(st, kernel, grid), state, steps)


def strand_step_ms(name, steps):
    alg = liealg.builtin(name)
    lag = chiral_lagrangian(alg.dim)
    grid = StrandGrid(STRAND_N_S, 2.0 * np.pi, 1e-3, 1.0)
    s = grid.s_nodes[:, None]
    coef = np.linspace(0.2, 0.5, alg.dim)[None, :]
    f0 = StrandField(coef * np.sin(s + coef), coef * np.cos(2.0 * s - coef))
    return _median_step_ms(lambda f: gstrand.step(alg, lag, f, grid), f0, steps)


def measure(scale=1.0):
    """Ladder metrics; ``scale`` shrinks the step counts (at least 1 each)."""
    out = {}
    for n_p, steps in PEAKON_RUNGS.items():
        out[f"peakon.step_ms.np{n_p}"] = peakon_step_ms(n_p, max(1, int(steps * scale)))
    for name, steps in STRAND_RUNGS.items():
        key = name.replace("(", "").replace(")", "")
        out[f"gstrand.step_ms.{key}"] = strand_step_ms(name, max(1, int(steps * scale)))
    return out
