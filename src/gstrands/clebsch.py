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
from .gstrand import (History, QuadraticLagrangian, SlavedState, StrandGrid, centered_dt, d_s,
                      integrate, slaved_step)
from .liealg import LieAlgebraSpec, _contract, _contraction_table, bracket, hat_so_n, vee_so_n
from .liealg import ad_star  # noqa: F401  (re-exported: perfbench/spans.py wraps clebsch.ad_star)

PINV_RCOND = 1e-10


@dataclass(frozen=True)
class LinearRepSpec:
    """Matrices rho[i] of the basis action on V = R^rep_dim, stacked along axis 0.

    rho must be real, finite and a representation (the constructor refuses
    anything else).  ``act_table``, ``dual_table`` and ``diamond_table`` are
    the sparse forms of rho (liealg._contraction_table) that ``act``,
    ``act_dual`` and ``diamond`` contract with, in the dense einsums'
    summation orders.  ``liealg._contract`` works in a (coords, points)
    layout: the first operand's rows are scaled once per distinct (index,
    value) pair of a table, each entry gathers its scaled row and the second
    operand's row, and the columns are summed in order by one reduction,
    over blocks of at most ``liealg._BLOCK`` gathered entries so that the
    temporaries of a whole history stay cache-sized.  The output has the
    table's own size (rep_dim for ``act``/``act_dual``, dim for
    ``diamond``), and only the leading axes broadcast."""

    alg: LieAlgebraSpec
    rho: np.ndarray
    act_table: tuple = field(init=False, repr=False)
    dual_table: tuple = field(init=False, repr=False)
    diamond_table: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if np.iscomplexobj(self.rho):
            raise DimensionMismatchError("rho must be real")
        rho = np.ascontiguousarray(self.rho, dtype=float)
        if rho.shape != (self.alg.dim,) + rho.shape[-1:] * 2:
            raise DimensionMismatchError(f"rho must have shape (dim, n, n), got {rho.shape}")
        if not np.all(np.isfinite(rho)):
            raise DimensionMismatchError("rho must be finite")
        object.__setattr__(self, "rho", rho)
        # rho([e_i, e_j]) against [rho_i, rho_j], one row i at a time: the
        # whole (dim, dim, rep_dim, rep_dim) stack would be dim^4 for an adjoint rep.
        # np.max, unlike Python's max, keeps a NaN mismatch.
        basis = np.eye(self.alg.dim)
        worst = np.max([np.abs(np.tensordot(bracket(self.alg, e, basis), rho, axes=(1, 0))
                               - rho[i] @ rho + rho @ rho[i]).max()
                        for i, e in enumerate(basis)], initial=0.0)
        if not worst <= 1e-10:
            raise DimensionMismatchError(
                f"rho is not a representation: commutator mismatch {worst:.3e}")
        object.__setattr__(self, "act_table", _contraction_table(rho.transpose(1, 0, 2)))
        object.__setattr__(self, "dual_table", _contraction_table(rho.transpose(2, 0, 1)))
        object.__setattr__(self, "diamond_table", _contraction_table(rho))

    @property
    def rep_dim(self) -> int:
        return self.rho.shape[-1]


def _hat_so3(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def defining_rep_so3(alg: LieAlgebraSpec) -> LinearRepSpec:
    """so(3) acting on R^3 by xi v = xi x v (equals its adjoint action):
    rho is the hat-map basis, in which c^k_ij is the Levi-Civita symbol."""
    return LinearRepSpec(alg, np.array([_hat_so3(v) for v in np.eye(3)]))


def _action_operands(rep: LinearRepSpec, xi, v):
    xi = np.asarray(xi, dtype=float)
    v = np.asarray(v, dtype=float)
    if xi.shape[-1] != rep.alg.dim or v.shape[-1] != rep.rep_dim:
        raise DimensionMismatchError("action arguments must have dim and rep_dim coordinates")
    return xi, v


def act(rep: LinearRepSpec, xi, v):
    """rho(xi) v, batched."""
    return _contract(rep.act_table, *_action_operands(rep, xi, v))


def act_dual(rep: LinearRepSpec, xi, p):
    """Dual action -rho(xi)^T p, batched."""
    return -_contract(rep.dual_table, *_action_operands(rep, xi, p))


def diamond(rep: LinearRepSpec, v, p):
    """Momentum map of the cotangent lift: <v <> p, eta> = <p, rho(eta) v>."""
    v = np.asarray(v, dtype=float)
    p = np.asarray(p, dtype=float)
    if v.shape[-1] != rep.rep_dim or p.shape[-1] != rep.rep_dim:
        raise DimensionMismatchError("diamond arguments must have rep_dim coordinates")
    return _contract(rep.diamond_table, p, v)


# ---------------------------------------------------------------------------
# linear actions: strands of Clebsch variables (v, m, n)

@dataclass
class LinearStrandState(SlavedState):
    v: np.ndarray     # (n_s, rep_dim)
    m: np.ndarray     # (n_s, rep_dim), t-multiplier
    n: np.ndarray     # (n_s, rep_dim), s-multiplier (slaved); aux is (n,)


def solve_linear_n(rep: LinearRepSpec, lag: QuadraticLagrangian, v, dsv):
    """Minimum-norm n with rho(A_s^-1 (v <> n)) v = d_s v at each gridpoint.

    The map n -> rho(gamma(n)) v is linear: with R[:, k] = rho_k v it equals
    (R A_s^-1 R^T) n, generally rank deficient, so the solve goes through a
    pseudoinverse with a fixed cutoff.
    """
    r = np.einsum("kab,...b->...ak", rep.rho, v)
    lmat = r @ lag.a_s_inv @ np.swapaxes(r, -1, -2)
    return np.einsum("...ij,...j->...i", np.linalg.pinv(lmat, rcond=PINV_RCOND), dsv)


def recover_velocities(rep, lag, v, m, n):
    """(xi, gamma) from the momentum-map relations A_t xi = v<>m, A_s gamma = v<>n."""
    return diamond(rep, v, m) @ lag.a_t_inv.T, diamond(rep, v, n) @ lag.a_s_inv.T


def _linear_slave(rep, lag, grid, y):
    return (solve_linear_n(rep, lag, y[0], d_s(y[0], grid)),)


def _linear_rhs(rep, lag, grid, v, m, aux):
    (n,) = aux
    xi, gam = recover_velocities(rep, lag, v, m, n)
    dv = act(rep, xi, v)
    dm = -d_s(n, grid) + act_dual(rep, xi, m) + act_dual(rep, gam, n)
    return dv, dm


def linear_strand_step(rep: LinearRepSpec, lag: QuadraticLagrangian,
                       state: LinearStrandState, grid: StrandGrid) -> LinearStrandState:
    """RK4 step of dv/dt = rho(xi) v, dm/dt = -d_s n + rho*(xi) m + rho*(gamma) n."""
    return slaved_step(partial(_linear_slave, rep, lag, grid),
                       partial(_linear_rhs, rep, lag, grid), state, grid, "linear-rep strand")


def linear_constraint_drift(rep, lag, state, grid) -> float:
    """Max-norm of d_s v - rho(gamma) v, the monitored s-constraint."""
    _, gam = recover_velocities(rep, lag, state.v, state.m, state.n)
    return float(np.max(np.abs(d_s(state.v, grid) - act(rep, gam, state.v))))


def linear_strand_simulate(rep, lag, state, grid) -> History:
    return integrate(lambda st: linear_strand_step(rep, lag, st, grid), state, grid,
                     slave=partial(_linear_slave, rep, lag, grid))


# ---------------------------------------------------------------------------
# adjoint action: coupled double-bracket flow with l(sigma) = |sigma|^2 / 2

@dataclass
class CDBState(SlavedState):
    m: np.ndarray      # (n_s, dim) advected algebra variable
    w_t: np.ndarray
    w_s: np.ndarray    # slaved; aux is (w_s,)


def cdb_sigma(alg, state):
    """sigma_mu = [m, w_mu]."""
    return bracket(alg, state.m, state.w_t), bracket(alg, state.m, state.w_s)


def solve_cdb_ws(alg, m, dsm):
    """Minimum-norm w_s with [[m, w_s], m] = d_s m at each gridpoint.

    The map w -> [[m, w], m] is -ad_m^2, symmetric positive semidefinite when
    the coordinate pairing is bi-invariant; the pseudoinverse picks the gauge
    representative orthogonal to the centralizer of m.  On so(3) that
    representative is closed form, see ``_solve_cdb_ws_so3``; whether alg
    has the Levi-Civita constants was decided when the spec was built
    (``alg.levi_civita``), so every other spec goes through ``pinv``.
    """
    if alg.levi_civita:
        return _solve_cdb_ws_so3(m, dsm)
    # ad_m[..., k, j] = [m, e_j]^k
    ad_m = np.swapaxes(bracket(alg, m[..., None, :], np.eye(alg.dim)), -1, -2)
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


def cdb_step(alg: LieAlgebraSpec, state: CDBState, grid: StrandGrid) -> CDBState:
    """RK4 step of the coupled double-bracket strand flow.

    m is transported by sigma_t = [m, w_t] and the divergence equation
    drives w_t; w_s is slaved to the s-relation d_s m = [sigma_s, m] at
    every stage (the same closure the peakon module uses for its
    s-momenta), which keeps the monitored constraint exact at gridpoints.
    The slave is ``solve_cdb_ws``, closed form when ``alg.levi_civita``.
    """
    return slaved_step(partial(_cdb_slave, alg, grid), partial(_cdb_rhs, alg, grid), state,
                       grid, "double-bracket strand")


def cdb_constraint_residual(alg, state, grid) -> float:
    """Max-norm of d_s m - [sigma_s, m]."""
    _, s_s = cdb_sigma(alg, state)
    return float(np.max(np.abs(d_s(state.m, grid) - bracket(alg, s_s, state.m))))


def cdb_simulate(alg, state, grid) -> History:
    return integrate(lambda st: cdb_step(alg, st, grid), state, grid,
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

    m0 must be orthogonal to e3, so m turns in its own plane and a sigma_s
    along e3 meets the s-constraint at t = 0; winds sets the integer number
    of turns over the periodic s-interval.  w_s is returned as zero, as the
    other presets return their multipliers: a run slaves it (cdb_simulate
    at t = 0, cdb_step at every stage).
    """
    if alg.dim != 3:
        raise DimensionMismatchError("rotating preset is an so(3) construction")
    m0 = np.asarray(m0, dtype=float)
    wt0 = np.asarray(wt0, dtype=float)
    if abs(m0[2]) > 1e-12:
        raise DimensionMismatchError("m0 must be orthogonal to the rotation axis e3")
    rot = rotation_about_e3(2.0 * np.pi * winds / grid.s_extent * grid.s_nodes)
    m = np.einsum("sab,b->sa", rot, m0)
    w_t = np.einsum("sab,b->sa", rot, wt0)
    return CDBState(m, w_t, np.zeros_like(m))


# ---------------------------------------------------------------------------
# right translation on GL(N): symmetric rigid-body representation

@dataclass
class SymmRigidState(SlavedState):
    q: np.ndarray      # (n_s, N, N) configuration in GL(N)
    mw: np.ndarray     # (n_s, N, N) t-multiplier
    nw: np.ndarray     # (n_s, N, N) s-multiplier (slaved); aux is (U, V, Nw)


def _skew(mats):
    return 0.5 * (mats - np.swapaxes(mats, -1, -2))


def symm_rigid_velocities(lag, q, mw, dsq):
    """Stage solve: U from the t-momentum relation, V from the s-constraint,
    and the slaved Nw = Q^-T hat(A_s vee(V)) realizing the s-momentum relation."""
    n_mat = q.shape[-1]
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
    return symm_rigid_velocities(lag, q, mw, d_s(q, grid))


def _symm_rhs(grid, q, mw, aux):
    u_hat, v_hat, nw = aux
    dq = q @ u_hat
    dm = -d_s(nw, grid) + mw @ u_hat + nw @ v_hat
    return dq, dm


def symm_rigid_step(lag: QuadraticLagrangian, state: SymmRigidState,
                    grid: StrandGrid) -> SymmRigidState:
    """RK4 step of dQ/dt = QU, dMw/dt = -d_s Nw + Mw U + Nw V on so(N) strands."""
    return slaved_step(partial(_symm_slave, lag, grid), partial(_symm_rhs, grid), state, grid,
                       "symmetric rigid-body strand")


def symm_rigid_simulate(lag, state, grid) -> History:
    return integrate(lambda st: symm_rigid_step(lag, st, grid), state, grid,
                     slave=partial(_symm_slave, lag, grid))


def symm_rigid_strand_residual(lag, hist: History, grid) -> float:
    """Max-norm of d_t W_t + d_s W_s + [U, W_t] + [V, W_s] over interior slices,
    the so(N)-strand field equations implied by the symmetric representation."""
    n_mat = hist.q.shape[-1]
    u_hat, v_hat, _ = symm_rigid_velocities(lag, hist.q, hist.mw, d_s(hist.q, grid, axis=1))
    w_t = hat_so_n(n_mat, vee_so_n(n_mat, u_hat) @ lag.a_t.T)
    w_s = hat_so_n(n_mat, vee_so_n(n_mat, v_hat) @ lag.a_s.T)
    u, v, wt, ws = u_hat[1:-1], v_hat[1:-1], w_t[1:-1], w_s[1:-1]
    res = centered_dt(hist, w_t) + (d_s(ws, grid, axis=1) + (u @ wt - wt @ u)
                                    + (v @ ws - ws @ v))
    return float(np.max(np.abs(res)))

