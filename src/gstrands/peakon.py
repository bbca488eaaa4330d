"""Singular (peakon) solutions of the Diff(R)-strand field equations.

Each of the n_p peakons carries a position Q_a(t, s), a t-momentum M_a and an
s-momentum N_a.  Velocities are kernel superpositions

    nu(t, s, m)    =  sum_a M_a G(m, Q_a),
    gamma(t, s, m) = -sum_a N_a G(m, Q_a),

N is slaved to the s-constraint d_s Q_a = gamma(Q_a) by per-gridpoint Gram
solves, and (Q, M) obey the canonical equations for the collective
Hamiltonian.  n_s = 1 with s-derivatives defined as zero is the classical
Camassa-Holm peakon mode on the identical code path.

Collisions are analytically singular, so stepping halts with a
near-collision error whenever a peakon gap falls under COLLISION_GAP or a
per-s Gram system passes the conditioning limit; a fixed-step integrator
can hop across an unresolved crossing, in which case those thresholds are
checked at every evaluated stage but not in between.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NearCollisionError
from .gstrand import History, StrandGrid, d_s, integrate, rk4_advance
from .kernels import (COND_LIMIT, HelmholtzKernel, _cond_1, chol_solve_batched,
                      eval as kernel_eval, grad_q)

COLLISION_GAP = 1e-8


@dataclass
class PeakonState:
    q: np.ndarray   # (n_s, n_p) positions
    mw: np.ndarray  # (n_s, n_p) t-momenta
    nw: np.ndarray  # (n_s, n_p) s-momenta (slaved)

    def __post_init__(self):
        self.q = np.atleast_2d(np.asarray(self.q, dtype=float))
        self.mw = np.atleast_2d(np.asarray(self.mw, dtype=float))
        self.nw = np.atleast_2d(np.asarray(self.nw, dtype=float))
        if not (self.q.shape == self.mw.shape == self.nw.shape):
            raise DimensionMismatchError("Q, M, N must share shape (n_s, n_p)")

    @property
    def n_p(self):
        return self.q.shape[1]


def _check_gaps(q):
    n_p = q.shape[1]
    for a in range(n_p):
        for b in range(a + 1, n_p):
            gap = np.min(np.abs(q[:, a] - q[:, b]))
            if gap < COLLISION_GAP:
                raise NearCollisionError(
                    f"peakons {a} and {b} within {gap:.3e} of collision")


def _gram_all(kernel, q):
    """Pairwise kernel matrices G(Q_a, Q_b) over the last axis of q."""
    return kernel_eval(kernel, q[..., :, None], q[..., None, :])


def _grad_all(kernel, q):
    """Pairwise first-argument gradients dG/dQ_a (Q_a, Q_b)."""
    return grad_q(kernel, q[..., :, None], q[..., None, :])


def velocity(state: PeakonState, kernel: HelmholtzKernel, j: int, m):
    """(nu, gamma) of the kernel superposition at strand index j, position m."""
    if not 0 <= j < state.q.shape[0]:
        raise DimensionMismatchError(f"strand index {j} out of range")
    g = kernel_eval(kernel, np.asarray(m, dtype=float)[..., None], state.q[j])
    return g @ state.mw[j], -(g @ state.nw[j])


def solve_n_constraint(state: PeakonState, kernel: HelmholtzKernel,
                       grid: StrandGrid) -> np.ndarray:
    """N fields making d_s Q_a = gamma(Q_a) hold exactly at every gridpoint."""
    return _solve_n(state.q, kernel, grid)


def _solve_n(q, kernel, grid):
    _check_gaps(q)
    gram = _gram_all(kernel, q)
    cond = _cond_1(gram)
    if np.any(~np.isfinite(cond)) or np.any(cond > COND_LIMIT):
        raise NearCollisionError(
            f"per-s Gram conditioning {np.max(cond):.3e} exceeds {COND_LIMIT:.0e}")
    return chol_solve_batched(gram, -d_s(q, grid))


def _rhs(kernel, grid, q, mw):
    nw = _solve_n(q, kernel, grid)
    gram = _gram_all(kernel, q)
    grad = _grad_all(kernel, q)
    dq = np.einsum("sab,sb->sa", gram, mw)
    coupling = np.einsum("sa,sb->sab", nw, nw) + np.einsum("sa,sb->sab", mw, mw)
    dm = -d_s(nw, grid) - np.einsum("sab,sab->sa", coupling, grad)
    return dq, dm


def step(state: PeakonState, kernel: HelmholtzKernel, grid: StrandGrid,
         step_index: int | None = None) -> PeakonState:
    """One RK4 step of the canonical (Q, M) system; N re-solved every stage
    and once more on the accepted state."""
    q1, m1 = rk4_advance(lambda q, mw: _rhs(kernel, grid, q, mw), (state.q, state.mw),
                         grid, step_index, "peakon state")
    return PeakonState(q1, m1, _solve_n(q1, kernel, grid))


def s_constraint_residual(state: PeakonState, kernel, grid) -> float:
    """Max-norm of d_s Q_a + sum_b G(Q_a, Q_b) N_b."""
    gram = _gram_all(kernel, state.q)
    return float(np.max(np.abs(d_s(state.q, grid)
                               + np.einsum("sab,sb->sa", gram, state.nw))))


def collective_hamiltonian(state: PeakonState, kernel) -> np.ndarray:
    """Per-s energy density (N G N + M G M)/2."""
    gram = _gram_all(kernel, state.q)
    return 0.5 * (np.einsum("sa,sab,sb->s", state.nw, gram, state.nw)
                  + np.einsum("sa,sab,sb->s", state.mw, gram, state.mw))


def total_momentum(state: PeakonState) -> np.ndarray:
    """Per-s sum of the t-momenta (conserved in the classical mode)."""
    return state.mw.sum(axis=1)


def field_snapshot(state: PeakonState, kernel, m_grid):
    """nu and gamma sampled on m_grid, shape (n_s, len(m_grid))."""
    m_grid = np.asarray(m_grid, dtype=float)
    g = kernel_eval(kernel, m_grid[None, :, None], state.q[:, None, :])
    nu = np.einsum("sma,sa->sm", g, state.mw)
    gamma = -np.einsum("sma,sa->sm", g, state.nw)
    return nu, gamma


def simulate(state: PeakonState, kernel, grid: StrandGrid) -> History:
    state = PeakonState(state.q, state.mw, _solve_n(state.q, kernel, grid))
    return integrate(lambda st, k: step(st, kernel, grid, step_index=k), state, grid)


def cross_derivative_residual(hist: History, kernel, grid) -> float:
    """Max-norm of d_t[gamma(Q_a)] - d_s[nu(Q_a)] over interior stored slices.

    Equality of the mixed partials of Q is the scalar form of the
    compatibility condition satisfied along canonical trajectories.
    """
    if len(hist.times) < 3:
        raise DimensionMismatchError("residuals need at least 3 stored slices")
    gram = _gram_all(kernel, hist.q)
    nu_at_q = np.einsum("tsab,tsb->tsa", gram, hist.mw)
    gam_at_q = -np.einsum("tsab,tsb->tsa", gram, hist.nw)
    dt = hist.dt_stored
    res = (gam_at_q[2:] - gam_at_q[:-2]) / (2.0 * dt)
    for i in range(res.shape[0]):
        res[i] -= d_s(nu_at_q[i + 1], grid)
    return float(np.max(np.abs(res)))


def compatibility_residual(hist: History, kernel, grid) -> float:
    """Max-norm of the kernel-expanded compatibility sum over interior slices:

        sum_b (d_t N_b + d_s M_b) G(Q_a, Q_b)
      + sum_bc (M_b N_c - N_b M_c) [ G(Q_a, Q_b) dG/dQ_a(Q_a, Q_c)
                                     - G(Q_b, Q_c) dG/dQ_b(Q_b, Q_a) ]  = 0,

    the evaluation of the zero-curvature defect along the peakon orbit.
    """
    if len(hist.times) < 3:
        raise DimensionMismatchError("residuals need at least 3 stored slices")
    dt = hist.dt_stored
    dtn = (hist.nw[2:] - hist.nw[:-2]) / (2.0 * dt)
    worst = 0.0
    for i in range(dtn.shape[0]):
        k = i + 1
        q, mw, nw = hist.q[k], hist.mw[k], hist.nw[k]
        gram = _gram_all(kernel, q)
        grad = _grad_all(kernel, q)
        dsm = d_s(mw, grid)
        lead = np.einsum("sab,sb->sa", gram, dtn[i] + dsm)
        anti = np.einsum("sb,sc->sbc", mw, nw) - np.einsum("sb,sc->sbc", nw, mw)
        # G(Q_a,Q_b) gq(Q_a,Q_c): indices (a,b) on gram, (a,c) on grad
        term1 = np.einsum("sbc,sab,sac->sa", anti, gram, grad)
        # G(Q_b,Q_c) gq(Q_b,Q_a): (b,c) on gram, grad at (Q_b, Q_a) = grad[b, a]
        term2 = np.einsum("sbc,sbc,sba->sa", anti, gram, grad)
        worst = max(worst, float(np.max(np.abs(lead + term1 - term2))))
    return worst
