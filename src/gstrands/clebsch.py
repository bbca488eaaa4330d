"""Momentum-map (Clebsch) representations of the strand field equations.

Three families share one pattern: canonical variables evolve in t, the
velocity components are recovered from momentum-map relations at every
stage, and the s-component of the multiplier pair is slaved to the
s-constraint so the canonical system closes.

  * linear group actions on a vector space (diamond map),
  * the adjoint action, giving the coupled double-bracket flow,
  * right translation on GL(N), giving the symmetric N-dimensional
    rigid-body representation and its strand extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import BlowUpError, DimensionMismatchError
from .gstrand import (History, QuadraticLagrangian, StrandGrid, centered_dt, d_s, integrate,
                      slaved_step)
from .liealg import (LieAlgebraSpec, _contract, _contraction_table, _levi_civita, ad_star,
                     bracket, hat_so_n, vee_so_n)

PINV_RCOND = 1e-10
_SO3_C, _SO3_KAPPA = _levi_civita(), np.eye(3)


@dataclass(frozen=True)
class LinearRepSpec:
    """Matrices rho[i] of the basis action on V, stacked along axis 0.

    ``act_table``, ``dual_table`` and ``diamond_table`` are the sparse forms
    of rho (liealg._contraction_table) that ``act``, ``act_dual`` and
    ``diamond`` contract with, in the dense einsums' summation orders."""

    alg: LieAlgebraSpec
    rep_dim: int
    rho: np.ndarray
    act_table: tuple = field(init=False, repr=False)
    dual_table: tuple = field(init=False, repr=False)
    diamond_table: tuple = field(init=False, repr=False)

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if rho.shape != (self.alg.dim, self.rep_dim, self.rep_dim):
            raise DimensionMismatchError(
                f"rho must have shape {(self.alg.dim, self.rep_dim, self.rep_dim)}")
        object.__setattr__(self, "rho", rho)
        # rho([e_i, e_j]) against [rho_i, rho_j], one row i at a time: the
        # whole (dim, dim, rep_dim, rep_dim) stack would be dim^4 for adjoint_rep
        worst = 0.0
        for i in range(self.alg.dim):
            mismatch = np.tensordot(self.alg.c[:, i], rho, axes=(0, 0))
            mismatch -= rho[i] @ rho
            mismatch += rho @ rho[i]
            worst = max(worst, float(np.max(np.abs(mismatch))))
        if worst > 1e-10:
            raise DimensionMismatchError(
                f"rho is not a representation: commutator mismatch {worst:.3e}")
        object.__setattr__(self, "act_table", _contraction_table(rho.transpose(1, 0, 2)))
        object.__setattr__(self, "dual_table", _contraction_table(rho.transpose(2, 0, 1)))
        object.__setattr__(self, "diamond_table", _contraction_table(rho))


def defining_rep_so3(alg: LieAlgebraSpec) -> LinearRepSpec:
    """so(3) acting on R^3 by xi v = xi x v (equals its adjoint action)."""
    return LinearRepSpec(alg, 3, alg.basis_matrices)


def adjoint_rep(alg: LieAlgebraSpec) -> LinearRepSpec:
    """ad_xi as matrices on the algebra's own coordinates."""
    rho = np.stack([alg.c[:, i, :] for i in range(alg.dim)])
    return LinearRepSpec(alg, alg.dim, rho)


def act(rep: LinearRepSpec, xi, v):
    """rho(xi) v, batched."""
    return _contract(rep.act_table, np.asarray(xi, dtype=float), np.asarray(v, dtype=float))


def act_dual(rep: LinearRepSpec, xi, p):
    """Dual action -rho(xi)^T p, batched."""
    return -_contract(rep.dual_table, np.asarray(xi, dtype=float), np.asarray(p, dtype=float))


def diamond(rep: LinearRepSpec, v, p):
    """Momentum map of the cotangent lift: kappa(v <> p, eta) = <p, rho(eta) v>."""
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    if v.shape[-1] != rep.rep_dim or p.shape[-1] != rep.rep_dim:
        raise DimensionMismatchError("diamond arguments must have rep_dim coordinates")
    return _contract(rep.diamond_table, p, v) @ rep.alg.kappa_inv


# ---------------------------------------------------------------------------
# linear actions: strands of Clebsch variables (v, m, n)

@dataclass
class LinearStrandState:
    v: np.ndarray     # (n_s, rep_dim)
    m: np.ndarray     # (n_s, rep_dim), t-multiplier
    n: np.ndarray     # (n_s, rep_dim), s-multiplier (slaved)
    aux: tuple | None = field(default=None, repr=False, compare=False)  # (n,) once slaved

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        self.m = np.asarray(self.m, dtype=float)
        self.n = np.asarray(self.n, dtype=float)


def solve_linear_n(rep: LinearRepSpec, lag: QuadraticLagrangian, v, dsv):
    """Minimum-norm n with rho(A_s^-1 (v <> n)) v = d_s v at each gridpoint.

    The map n -> rho(gamma(n)) v is linear: with R[:, k] = rho_k v it equals
    (R A_s^-1 kappa^-1 R^T) n, generally rank deficient, so the solve goes
    through a pseudoinverse with a fixed cutoff.
    """
    r = np.einsum("kab,...b->...ak", rep.rho, v)
    lmat = r @ lag.a_s_inv @ rep.alg.kappa_inv @ np.swapaxes(r, -1, -2)
    return np.einsum("...ij,...j->...i", np.linalg.pinv(lmat, rcond=PINV_RCOND), dsv)


def recover_velocities(rep, lag, state):
    """(xi, gamma) from the momentum-map relations A_t xi = v<>m, A_s gamma = v<>n."""
    xi = diamond(rep, state.v, state.m) @ lag.a_t_inv.T
    gam = diamond(rep, state.v, state.n) @ lag.a_s_inv.T
    return xi, gam


def _linear_slave(rep, lag, grid, y):
    return (solve_linear_n(rep, lag, y[0], d_s(y[0], grid)),)


def _linear_rhs(rep, lag, grid, v, m, aux):
    (n,) = aux
    xi = diamond(rep, v, m) @ lag.a_t_inv.T
    gam = diamond(rep, v, n) @ lag.a_s_inv.T
    dv = act(rep, xi, v)
    dm = -d_s(n, grid) + act_dual(rep, xi, m) + act_dual(rep, gam, n)
    return dv, dm


def linear_strand_step(rep: LinearRepSpec, lag: QuadraticLagrangian,
                       state: LinearStrandState, grid: StrandGrid,
                       step_index: int | None = None) -> LinearStrandState:
    """RK4 step of dv/dt = rho(xi) v, dm/dt = -d_s n + rho*(xi) m + rho*(gamma) n."""
    return slaved_step(partial(_linear_slave, rep, lag, grid),
                       partial(_linear_rhs, rep, lag, grid), state, grid, step_index,
                       "linear-rep strand")


def linear_constraint_drift(rep, lag, state, grid) -> float:
    """Max-norm of d_s v - rho(gamma) v, the monitored s-constraint."""
    _, gam = recover_velocities(rep, lag, state)
    return float(np.max(np.abs(d_s(state.v, grid) - act(rep, gam, state.v))))


def linear_strand_simulate(rep, lag, state, grid) -> History:
    return integrate(lambda st, k: linear_strand_step(rep, lag, st, grid, step_index=k),
                     state, grid, slave=partial(_linear_slave, rep, lag, grid))


def classical_ep_trajectory(alg: LieAlgebraSpec, a_t, mu0, dt, t_end):
    """RK4 integration of d(mu)/dt = -ad*_xi mu, xi = A_t^-1 mu.

    Independent oracle for the s-independent mode of the Clebsch solvers.
    Returns (times, mu, xi).
    """
    a_t = np.atleast_2d(np.asarray(a_t, dtype=float))
    a_t_inv = np.linalg.inv(a_t)
    mu = np.asarray(mu0, dtype=float).copy()
    n_steps = int(round(t_end / dt))

    def rhs(m):
        return -ad_star(alg, m @ a_t_inv.T, m)

    times = [0.0]
    mus = [mu.copy()]
    for k in range(n_steps):
        k1 = rhs(mu)
        k2 = rhs(mu + 0.5 * dt * k1)
        k3 = rhs(mu + 0.5 * dt * k2)
        k4 = rhs(mu + dt * k3)
        mu = mu + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times.append((k + 1) * dt)
        mus.append(mu.copy())
    mus = np.array(mus)
    return np.array(times), mus, mus @ a_t_inv.T


# ---------------------------------------------------------------------------
# adjoint action: coupled double-bracket flow with l(sigma) = |sigma|^2 / 2

@dataclass
class CDBState:
    m: np.ndarray      # (n_s, dim) advected algebra variable
    w_t: np.ndarray
    w_s: np.ndarray
    aux: tuple | None = field(default=None, repr=False, compare=False)  # (w_s,) once slaved

    def __post_init__(self):
        self.m = np.asarray(self.m, dtype=float)
        self.w_t = np.asarray(self.w_t, dtype=float)
        self.w_s = np.asarray(self.w_s, dtype=float)


def cdb_sigma(alg, state):
    """sigma_mu = [m, w_mu]."""
    return bracket(alg, state.m, state.w_t), bracket(alg, state.m, state.w_s)


def solve_cdb_ws(alg, m, dsm):
    """Minimum-norm w_s with [[m, w_s], m] = d_s m at each gridpoint.

    The map w -> [[m, w], m] is -ad_m^2, symmetric positive semidefinite for
    a bi-invariant pairing; the pseudoinverse picks the gauge representative
    orthogonal to the centralizer of m.  On so(3) (Levi-Civita constants,
    kappa = I) that representative is closed form, see ``_solve_cdb_ws_so3``.
    """
    if np.array_equal(alg.c, _SO3_C) and np.array_equal(alg.kappa, _SO3_KAPPA):
        return _solve_cdb_ws_so3(m, dsm)
    ad_m = np.einsum("kij,...i->...kj", alg.c, m)
    a = -np.einsum("...ki,...ij->...kj", ad_m, ad_m)
    return np.einsum("...ij,...j->...i", np.linalg.pinv(a, rcond=PINV_RCOND), dsm)


def _solve_cdb_ws_so3(m, dsm):
    """so(3) case of ``solve_cdb_ws``: -ad_m^2 w = m x (w x m) = |m|^2 w - m (m.w),
    whose minimum-norm solution is w = (d_s m - m (m.d_s m)/|m|^2)/|m|^2, the
    part of d_s m orthogonal to m over |m|^2; w = 0 where m = 0, as with pinv.
    A non-finite |m|^2 or d_s m raises LinAlgError, as pinv's SVD would."""
    mm = np.einsum("...i,...i->...", m, m)
    if not (np.isfinite(mm).all() and np.isfinite(dsm).all()):
        raise np.linalg.LinAlgError("non-finite m or d_s m in the so(3) slave solve")
    inv = np.divide(1.0, mm, out=np.zeros_like(mm), where=mm > 0.0)[..., None]
    w = dsm - m * (np.einsum("...i,...i->...", m, dsm)[..., None] * inv)
    w *= inv
    return w


def _cdb_slave(alg, grid, y):
    return (solve_cdb_ws(alg, y[0], d_s(y[0], grid)),)


def _cdb_rhs(alg, grid, m, w_t, aux):
    (w_s,) = aux
    s_t = bracket(alg, m, w_t)
    s_s = bracket(alg, m, w_s)
    dm = bracket(alg, s_t, m)
    dwt = -d_s(w_s, grid) + bracket(alg, s_t, w_t) + bracket(alg, s_s, w_s)
    return dm, dwt


def cdb_step(alg: LieAlgebraSpec, state: CDBState, grid: StrandGrid,
             step_index: int | None = None) -> CDBState:
    """RK4 step of the coupled double-bracket strand flow.

    m is transported by sigma_t = [m, w_t] and the divergence equation
    drives w_t; w_s is slaved to the s-relation d_s m = [sigma_s, m] at
    every stage (the same closure the peakon module uses for its
    s-momenta), which keeps the monitored constraint exact at gridpoints.
    """
    return slaved_step(partial(_cdb_slave, alg, grid), partial(_cdb_rhs, alg, grid), state,
                       grid, step_index, "double-bracket strand")


def cdb_constraint_residual(alg, state, grid) -> float:
    """Max-norm of d_s m - [sigma_s, m]."""
    _, s_s = cdb_sigma(alg, state)
    return float(np.max(np.abs(d_s(state.m, grid) - bracket(alg, s_s, state.m))))


def cdb_simulate(alg, state, grid) -> History:
    return integrate(lambda st, k: cdb_step(alg, st, grid, step_index=k), state, grid,
                     slave=partial(_cdb_slave, alg, grid))


def cdb_div_sigma_residual(alg, hist: History, grid) -> float:
    """Max-norm of d_t sigma_t + d_s sigma_s over interior stored slices.

    With the Euclidean base metric and l = |sigma|^2/2, solutions of the
    coupled double-bracket flow make sigma divergence free.
    """
    s_t, s_s = cdb_sigma(alg, hist)
    return float(np.max(np.abs(centered_dt(hist, s_t) + d_s(s_s[1:-1], grid, axis=1))))


def rotation_about_e3(angles):
    """Stacked rotation matrices about e3 by the given angles, shape (..., 3, 3)."""
    angles = np.asarray(angles, dtype=float)
    cos, sin = np.cos(angles), np.sin(angles)
    rot = np.zeros(angles.shape + (3, 3))
    rot[..., 0, 0] = cos
    rot[..., 0, 1] = -sin
    rot[..., 1, 0] = sin
    rot[..., 1, 1] = cos
    rot[..., 2, 2] = 1.0
    return rot


def cdb_rotating_state(alg: LieAlgebraSpec, grid: StrandGrid, m0, wt0, winds: int = 1) -> CDBState:
    """Compatible so(3) initial data: all fields rotate about e3 along s.

    m0 must be orthogonal to e3 so sigma_s = zeta exactly, which makes every
    s-constraint hold at t = 0; winds sets the integer number of turns over
    the periodic s-interval.
    """
    if alg.dim != 3:
        raise DimensionMismatchError("rotating preset is an so(3) construction")
    m0 = np.asarray(m0, dtype=float)
    wt0 = np.asarray(wt0, dtype=float)
    if abs(m0[2]) > 1e-12:
        raise DimensionMismatchError("m0 must be orthogonal to the rotation axis e3")
    zeta = np.array([0.0, 0.0, 2.0 * np.pi * winds / grid.s_extent])
    rot = rotation_about_e3(zeta[2] * grid.s_nodes)
    m = np.einsum("sab,b->sa", rot, m0)
    w_t = np.einsum("sab,b->sa", rot, wt0)
    w_s = np.cross(np.broadcast_to(zeta, m.shape), m) / float(m0 @ m0)
    return CDBState(m, w_t, w_s)


# ---------------------------------------------------------------------------
# right translation on GL(N): symmetric rigid-body representation

@dataclass
class SymmRigidState:
    q: np.ndarray      # (n_s, N, N) configuration in GL(N)
    mw: np.ndarray     # (n_s, N, N) t-multiplier
    nw: np.ndarray     # (n_s, N, N) s-multiplier (slaved)
    aux: tuple | None = field(default=None, repr=False, compare=False)  # (U, V, Nw) once slaved

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.mw = np.asarray(self.mw, dtype=float)
        self.nw = np.asarray(self.nw, dtype=float)


def _skew(mats):
    return 0.5 * (mats - np.swapaxes(mats, -1, -2))


def symm_rigid_velocities(n_mat, lag, q, mw, dsq):
    """Stage solve: U from the t-momentum relation, V from the s-constraint,
    and the slaved Nw = Q^-T hat(A_s vee(V)) realizing the s-momentum relation."""
    try:
        v_raw = np.linalg.solve(q, dsq)
    except np.linalg.LinAlgError as exc:
        raise BlowUpError(f"singular configuration matrix: {exc}") from exc
    v_hat = _skew(v_raw)
    u_coords = vee_so_n(n_mat, _skew(np.swapaxes(q, -1, -2) @ mw)) @ lag.a_t_inv.T
    u_hat = hat_so_n(n_mat, u_coords)
    w_s = hat_so_n(n_mat, vee_so_n(n_mat, v_hat) @ lag.a_s.T)
    nw = np.linalg.solve(np.swapaxes(q, -1, -2), w_s)
    return u_hat, v_hat, nw


def _symm_slave(lag, grid, y):
    q, mw = y
    return symm_rigid_velocities(q.shape[-1], lag, q, mw, d_s(q, grid))


def _symm_rhs(grid, q, mw, aux):
    u_hat, v_hat, nw = aux
    dq = q @ u_hat
    dm = -d_s(nw, grid) + mw @ u_hat + nw @ v_hat
    return dq, dm


def symm_rigid_step(alg: LieAlgebraSpec, lag: QuadraticLagrangian,
                    state: SymmRigidState, grid: StrandGrid,
                    step_index: int | None = None) -> SymmRigidState:
    """RK4 step of dQ/dt = QU, dMw/dt = -d_s Nw + Mw U + Nw V on so(N) strands."""
    return slaved_step(partial(_symm_slave, lag, grid), partial(_symm_rhs, grid), state, grid,
                       step_index, "symmetric rigid-body strand")


def symm_rigid_simulate(alg, lag, state, grid) -> History:
    return integrate(lambda st, k: symm_rigid_step(alg, lag, st, grid, step_index=k),
                     state, grid, slave=partial(_symm_slave, lag, grid))


def symm_rigid_strand_residual(alg, lag, hist: History, grid) -> float:
    """Max-norm of d_t W_t + d_s W_s + [U, W_t] + [V, W_s] over interior slices,
    the so(N)-strand field equations implied by the symmetric representation."""
    n_mat = hist.q.shape[-1]
    u_hat, v_hat, _ = symm_rigid_velocities(n_mat, lag, hist.q, hist.mw,
                                            d_s(hist.q, grid, axis=1))
    w_t = hat_so_n(n_mat, vee_so_n(n_mat, u_hat) @ lag.a_t.T)
    w_s = hat_so_n(n_mat, vee_so_n(n_mat, v_hat) @ lag.a_s.T)
    u, v, wt, ws = u_hat[1:-1], v_hat[1:-1], w_t[1:-1], w_s[1:-1]
    res = centered_dt(hist, w_t) + (d_s(ws, grid, axis=1) + (u @ wt - wt @ u)
                                    + (v @ ws - ws @ v))
    return float(np.max(np.abs(res)))


def rigid_body_oracle(alg_so_n: LieAlgebraSpec, a_t, w0_coords, dt, t_end):
    """Direct rigid-body integration dW/dt = [W, U], U = A_t^-1 W, in so(N)
    coordinates; the oracle for the classical mode of the symmetric pair."""
    a_t = np.atleast_2d(np.asarray(a_t, dtype=float))
    a_t_inv = np.linalg.inv(a_t)
    w = np.asarray(w0_coords, dtype=float).copy()

    def rhs(wc):
        return bracket(alg_so_n, wc, wc @ a_t_inv.T)

    n_steps = int(round(t_end / dt))
    times = [0.0]
    ws = [w.copy()]
    for k in range(n_steps):
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * dt * k1)
        k3 = rhs(w + 0.5 * dt * k2)
        k4 = rhs(w + dt * k3)
        w = w + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times.append((k + 1) * dt)
        ws.append(w.copy())
    ws = np.array(ws)
    return np.array(times), ws, ws @ a_t_inv.T
