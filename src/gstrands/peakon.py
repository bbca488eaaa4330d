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
near-collision error when peakons cross, when a peakon gap falls under
COLLISION_GAP, or when a per-s Gram system passes the conditioning limit.
Every stage of a step is checked in the ascending order of the positions at
the start of that step, so a crossing that a fixed step hops over shows as
a negative gap even when no evaluated stage lands within COLLISION_GAP.

The slaved solve uses the tridiagonal closed-form inverse of the 1D Gram
matrix at sorted positions (kernels.helmholtz_1d_inverse): no Python loop
over peakons or pairs, O(n_s n_p) work besides the dense G itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NearCollisionError
from .gstrand import History, StrandGrid, centered_dt, d_s, integrate, rk4_advance
from .kernels import (COND_LIMIT, HelmholtzKernel, eval as kernel_eval, grad_q,
                      helmholtz_1d_inverse, norm_1, sort_rows, tridiag_norm_1,
                      tridiag_solve_sorted)
# not called here: bound so perfbench/spans.py can still wrap peakon.chol_solve_batched
from .kernels import chol_solve_batched  # noqa: F401

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


def _ordered_gaps(q, sort, step_index, t):
    """Adjacent gaps of q taken in the ascending order ``sort`` of the
    step-start positions.  A gap under COLLISION_GAP (negative when the pair
    crossed) raises NearCollisionError naming the pair and the s-index."""
    perm, n_p = sort[0], q.shape[1]
    qs = q.take(perm)
    gaps = qs[:, 1:] - qs[:, :-1]
    bad = gaps < COLLISION_GAP
    if bad.any():
        j, i = np.unravel_index(np.argmin(np.where(bad, gaps, np.inf)), gaps.shape)
        a, b = sorted((int(perm[j, i]) % n_p, int(perm[j, i + 1]) % n_p))
        gap = gaps[j, i]
        what = "crossed" if gap < 0.0 else f"within {gap:.3e} of collision"
        raise NearCollisionError(f"peakons {a} and {b} {what} at s-index {j}",
                                 step_index=step_index, t=t)
    return gaps


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
    q = state.q
    return _solve_n(kernel, grid, q, _gram_all(kernel, q), sort_rows(q))


def _solve_n(kernel, grid, q, gram, sort, step_index=None):
    """Solve gram N = -d_s Q after the gap check in ``sort`` and the 1-norm
    conditioning check, both in closed form from the tridiagonal inverse."""
    t = grid.step_end(step_index)
    diag, off = helmholtz_1d_inverse(kernel, _ordered_gaps(q, sort, step_index, t))
    cond = norm_1(gram) * tridiag_norm_1(diag, off)
    ok = cond <= COND_LIMIT
    if not ok.all():
        j = int(np.argmin(ok))
        raise NearCollisionError(
            f"per-s Gram conditioning {cond[j]:.3e} exceeds {COND_LIMIT:.0e} at s-index {j}",
            step_index=step_index, t=t)
    try:
        return tridiag_solve_sorted(gram, diag, off, sort, -d_s(q, grid))
    except NearCollisionError as exc:
        raise NearCollisionError(str(exc), step_index=step_index, t=t) from exc


def _rhs(kernel, grid, sort, step_index, q, mw):
    gram = _gram_all(kernel, q)
    nw = _solve_n(kernel, grid, q, gram, sort, step_index)
    grad = _grad_all(kernel, q)
    dq = np.einsum("sab,sb->sa", gram, mw)
    coupling = np.einsum("sa,sb->sab", nw, nw) + np.einsum("sa,sb->sab", mw, mw)
    dm = -d_s(nw, grid) - np.einsum("sab,sab->sa", coupling, grad)
    return dq, dm


def step(state: PeakonState, kernel: HelmholtzKernel, grid: StrandGrid,
         step_index: int | None = None) -> PeakonState:
    """One RK4 step of the canonical (Q, M) system; N re-solved every stage
    and once more on the accepted state, each time with the gaps taken in
    the ascending order of the step-start positions."""
    sort = sort_rows(state.q)
    q1, m1 = rk4_advance(lambda q, mw: _rhs(kernel, grid, sort, step_index, q, mw),
                         (state.q, state.mw), grid, step_index, "peakon state")
    return PeakonState(q1, m1, _solve_n(kernel, grid, q1, _gram_all(kernel, q1), sort,
                                        step_index))


def s_constraint_residual(state, kernel, grid):
    """Max-norm of d_s Q_a + sum_b G(Q_a, Q_b) N_b; for a History, one value
    per stored slice."""
    gram = _gram_all(kernel, state.q)
    res = d_s(state.q, grid, axis=state.q.ndim - 2) + np.einsum("...ab,...b->...a", gram, state.nw)
    return np.max(np.abs(res), axis=(-2, -1))


def collective_hamiltonian(state, kernel) -> np.ndarray:
    """Per-s energy density (N G N + M G M)/2; shape (n_t, n_s) for a History."""
    gram = _gram_all(kernel, state.q)
    return 0.5 * (np.einsum("...a,...ab,...b->...", state.nw, gram, state.nw)
                  + np.einsum("...a,...ab,...b->...", state.mw, gram, state.mw))


def total_momentum(state) -> np.ndarray:
    """Per-s sum of the t-momenta (conserved in the classical mode)."""
    return state.mw.sum(axis=-1)


def field_snapshot(state: PeakonState, kernel, m_grid):
    """nu and gamma sampled on m_grid, shape (n_s, len(m_grid))."""
    m_grid = np.asarray(m_grid, dtype=float)
    g = kernel_eval(kernel, m_grid[None, :, None], state.q[:, None, :])
    nu = np.einsum("sma,sa->sm", g, state.mw)
    gamma = -np.einsum("sma,sa->sm", g, state.nw)
    return nu, gamma


def simulate(state: PeakonState, kernel, grid: StrandGrid) -> History:
    return integrate(lambda st, k: step(st, kernel, grid, step_index=k), state, grid,
                     slave=lambda st: PeakonState(st.q, st.mw,
                                                  solve_n_constraint(st, kernel, grid)))


def cross_derivative_residual(hist: History, kernel, grid) -> float:
    """Max-norm of d_t[gamma(Q_a)] - d_s[nu(Q_a)] over interior stored slices.

    Equality of the mixed partials of Q is the scalar form of the
    compatibility condition satisfied along canonical trajectories.
    """
    gram = _gram_all(kernel, hist.q)
    nu_at_q = np.einsum("tsab,tsb->tsa", gram, hist.mw)
    gam_at_q = -np.einsum("tsab,tsb->tsa", gram, hist.nw)
    res = centered_dt(hist, gam_at_q) - d_s(nu_at_q[1:-1], grid, axis=1)
    return float(np.max(np.abs(res)))


def compatibility_residual(hist: History, kernel, grid) -> float:
    """Max-norm of the kernel-expanded compatibility sum over interior slices:

        sum_b (d_t N_b + d_s M_b) G(Q_a, Q_b)
      + sum_bc (M_b N_c - N_b M_c) [ G(Q_a, Q_b) dG/dQ_a(Q_a, Q_c)
                                     - G(Q_b, Q_c) dG/dQ_b(Q_b, Q_a) ]  = 0,

    the evaluation of the zero-curvature defect along the peakon orbit.
    """
    dtn = centered_dt(hist, hist.nw)
    q, mw, nw = hist.q[1:-1], hist.mw[1:-1], hist.nw[1:-1]
    gram = _gram_all(kernel, q)
    grad = _grad_all(kernel, q)
    lead = np.einsum("tsab,tsb->tsa", gram, dtn + d_s(mw, grid, axis=1))
    mn = np.einsum("tsb,tsc->tsbc", mw, nw)
    anti = mn - np.swapaxes(mn, -1, -2)
    # G(Q_a,Q_b) gq(Q_a,Q_c): indices (a,b) on gram, (a,c) on grad
    term1 = np.einsum("tsbc,tsab,tsac->tsa", anti, gram, grad)
    # G(Q_b,Q_c) gq(Q_b,Q_a): (b,c) on gram, grad at (Q_b, Q_a) = grad[b, a]
    term2 = np.einsum("tsbc,tsbc,tsba->tsa", anti, gram, grad)
    return float(np.max(np.abs(lead + term1 - term2)))
