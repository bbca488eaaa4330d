"""Method-of-lines solver for strand field equations on (t, s).

The reduced field sigma = nu dt + gamma ds is sampled on an s-grid.  The
momentum m = A_t nu and the connection component gamma evolve by classical
RK4; s-derivatives are 2nd-order centered stencils.  Diagnostics recompute
the field equations and the zero-curvature relation from stored history with
centered differences in both t and s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
import scipy.linalg

from .errors import BlowUpError, DimensionMismatchError, ReconstructionRefusedError, SolverError
from .liealg import LieAlgebraSpec, ad_star, bracket, pair, to_matrix

ZCC_RECONSTRUCT_TOL = 1e-6


@dataclass(frozen=True)
class StrandGrid:
    """Uniform s-grid of extent ``s_extent`` with time step ``dt``.

    n_s = 1 is the degenerate mode in which every s-derivative is zero
    (classical, s-independent dynamics on the same code path).
    """

    n_s: int
    s_extent: float
    dt: float
    t_end: float
    bc: str = "periodic"
    store_every: int = 1

    def __post_init__(self):
        if self.n_s < 8 and self.n_s != 1:
            raise DimensionMismatchError(f"n_s must be >= 8 (or 1 for classical mode), got {self.n_s}")
        if self.bc not in ("periodic", "fixed"):
            raise DimensionMismatchError(f"bc must be periodic or fixed, got {self.bc!r}")
        if self.dt <= 0.0 or self.s_extent <= 0.0 or self.t_end < 0.0:
            raise DimensionMismatchError("dt and s_extent must be positive, t_end nonnegative")
        if self.bc == "fixed" and 1 < self.n_s < 3:
            raise DimensionMismatchError("fixed bc needs at least 3 gridpoints")
        if self.store_every < 1:
            raise DimensionMismatchError("store_every must be >= 1")

    @property
    def ds(self) -> float:
        return self.s_extent / self.n_s

    @property
    def s_nodes(self) -> np.ndarray:
        return np.arange(self.n_s) * self.ds

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def step_end(self, step_index: int | None) -> float | None:
        """Time at which the 0-based step ``step_index`` ends (None for None)."""
        return None if step_index is None else (step_index + 1) * self.dt


def _centered(arr, axis: int, delta: float, wrap: bool):
    """(a[i+1] - a[i-1]) / (2 delta) along ``axis`` in one pass, with no
    shifted copy of ``arr``.  With ``wrap`` the two end rows use the periodic
    neighbours; otherwise they are left unset for the caller to fill."""
    arr = np.asarray(arr)
    out = np.empty_like(arr, dtype=float if arr.dtype.kind in "iu" else None)
    a, o = arr.swapaxes(0, axis), out.swapaxes(0, axis)
    two_delta = 2.0 * delta
    np.divide(np.subtract(a[2:], a[:-2], out=o[1:-1]), two_delta, out=o[1:-1])
    if wrap:
        np.divide(np.subtract(a[1:2], a[-1:], out=o[:1]), two_delta, out=o[:1])
        np.divide(np.subtract(a[:1], a[-2:-1], out=o[-1:]), two_delta, out=o[-1:])
    return out


def d_s(arr, grid: StrandGrid, axis: int = 0):
    """Centered s-derivative along ``axis``; periodic wrap or one-sided ends.

    ``axis`` is 0 for one state (n_s, ...) and 1 for a stacked history
    (n_t, n_s, ...).
    """
    if grid.n_s == 1:
        return np.zeros_like(arr)
    out = _centered(arr, axis, grid.ds, grid.bc == "periodic")
    if grid.bc == "fixed":
        a, o = np.asarray(arr).swapaxes(0, axis), out.swapaxes(0, axis)
        o[0] = (-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * grid.ds)
        o[-1] = (3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * grid.ds)
    return out


@dataclass(frozen=True)
class QuadraticLagrangian:
    """l(nu, gamma) = <A_t nu, nu>/2 + <A_s gamma, gamma>/2.

    A_s may be negative definite (wave-type systems store it with the
    potential sign already applied, e.g. the chiral model has A_s = -I).
    """

    a_t: np.ndarray
    a_s: np.ndarray
    a_t_inv: np.ndarray = field(init=False, repr=False)
    a_s_inv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a_t = np.atleast_2d(np.asarray(self.a_t, dtype=float))
        a_s = np.atleast_2d(np.asarray(self.a_s, dtype=float))
        object.__setattr__(self, "a_t", a_t)
        object.__setattr__(self, "a_s", a_s)
        try:
            object.__setattr__(self, "a_t_inv", np.linalg.inv(a_t))
            object.__setattr__(self, "a_s_inv", np.linalg.inv(a_s))
        except np.linalg.LinAlgError as exc:
            raise DimensionMismatchError(f"inertia matrices must be invertible: {exc}") from exc


def chiral_lagrangian(dim: int) -> QuadraticLagrangian:
    """l = |nu|^2/2 - |gamma|^2/2, the classical chiral-model density."""
    return QuadraticLagrangian(np.eye(dim), -np.eye(dim))


@dataclass
class StrandField:
    nu: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.nu = np.asarray(self.nu, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        if self.nu.shape != self.gamma.shape or self.nu.ndim != 2:
            raise DimensionMismatchError("nu and gamma must share shape (n_s, dim)")


def ep_rhs(alg: LieAlgebraSpec, lag: QuadraticLagrangian, f: StrandField, grid: StrandGrid):
    """d/dt of the momentum A_t nu implied by the strand field equations."""
    m = f.nu @ lag.a_t.T
    n = f.gamma @ lag.a_s.T
    return -d_s(n, grid) - ad_star(alg, f.nu, m) - ad_star(alg, f.gamma, n)


def zcc_rhs(alg: LieAlgebraSpec, f: StrandField, grid: StrandGrid):
    """d/dt of gamma from the zero-curvature relation: d_s nu + [nu, gamma]."""
    return d_s(f.nu, grid) + bracket(alg, f.nu, f.gamma)


def rk4_advance(rhs, y, grid: StrandGrid, step_index: int | None, what: str,
                k1=None) -> tuple:
    """One classical RK4 step of dy/dt = rhs(*y) over the tuple of arrays y;
    ``k1``, when given, is rhs(*y) already evaluated.

    Under fixed bc the endpoint values of every array are frozen.  A
    non-finite result raises BlowUpError("<what> blew up").
    """
    dt = grid.dt
    k1 = rhs(*y) if k1 is None else k1
    k2 = rhs(*(a + 0.5 * dt * k for a, k in zip(y, k1)))
    k3 = rhs(*(a + 0.5 * dt * k for a, k in zip(y, k2)))
    k4 = rhs(*(a + dt * k for a, k in zip(y, k3)))
    y1 = tuple(a + dt / 6.0 * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
               for a, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4))
    if grid.bc == "fixed" and grid.n_s > 1:
        for a0, a1 in zip(y, y1):
            a1[[0, -1]] = a0[[0, -1]]
    if not all(np.all(np.isfinite(a)) for a in y1):
        raise BlowUpError(f"{what} blew up", step_index=step_index,
                          t=grid.step_end(step_index))
    return y1


def _evolved(state) -> tuple:
    return tuple(getattr(state, f.name) for f in fields(state)[:-2])


def _slaved(slave, cls, y):
    aux = slave(y)
    return cls(*y, aux[-1], aux)


def slaved_step(slave, rhs, state, grid: StrandGrid, step_index: int | None, what: str):
    """One RK4 step of a constrained family, whose state's fields are the
    evolved arrays y, the slaved multiplier and ``aux``.  slave(y) returns
    aux, a tuple ending with the multiplier, and dy/dt = rhs(*y, aux) at
    every stage; the accepted state is returned with its own slave(y1).

    Stage 1 reuses ``state.aux`` when a slave set it: the previous accepted
    state went through the same call on the same arrays, so a step makes 4
    slaved solves, not 5.
    """
    y = _evolved(state)
    k1 = rhs(*y, slave(y) if state.aux is None else state.aux)
    y1 = rk4_advance(lambda *stage: rhs(*stage, slave(stage)), y, grid, step_index, what, k1)
    return _slaved(slave, type(state), y1)


class History:
    """Stored slices of a run: ``times`` and one stacked array per state
    field, readable as attributes (``hist.nu``, ``hist.q``, ...)."""

    def __init__(self, times, **fields):
        self.times = np.asarray(times)
        self.__dict__.update(fields)

    @property
    def dt_stored(self) -> float:
        return float(self.times[1] - self.times[0])


def _located(step_index, t, fn, *args):
    """fn(*args), with a LinAlgError raised as a BlowUpError at (step_index, t)
    and a SolverError without a location given that one."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError as exc:
        raise BlowUpError(f"linear algebra failed: {exc}", step_index=step_index, t=t) from exc
    except SolverError as exc:
        if exc.t is None:
            exc.step_index, exc.t = step_index, t
        raise


def integrate(step_fn, state, grid: StrandGrid, slave=None) -> History:
    """Advance ``state`` (a dataclass of arrays) by ``step_fn(state, k)`` for
    grid.n_steps steps, storing t = 0 and every ``grid.store_every``-th step.

    ``slave``, when given, is the family's slave of ``slaved_step``, which
    first completes the initial state; every field but ``aux`` is stored.
    A LinAlgError inside a step is a BlowUpError, and a SolverError without
    a location gets the step's; a failure of ``slave`` is located at t = 0
    with no step index."""
    if slave is not None:
        state = _located(None, 0.0, _slaved, slave, type(state), _evolved(state))
    names = [f.name for f in fields(state) if f.name != "aux"]
    times = [0.0]
    stored = {name: [getattr(state, name).copy()] for name in names}
    for k in range(grid.n_steps):
        state = _located(k, grid.step_end(k), step_fn, state, k)
        if (k + 1) % grid.store_every == 0:
            times.append((k + 1) * grid.dt)
            for name in names:
                stored[name].append(getattr(state, name).copy())
    return History(np.array(times), **{name: np.array(v) for name, v in stored.items()})


def _rhs(alg, lag, grid, m, gamma):
    f = StrandField(m @ lag.a_t_inv.T, gamma)
    return ep_rhs(alg, lag, f, grid), zcc_rhs(alg, f, grid)


def step(alg: LieAlgebraSpec, lag: QuadraticLagrangian, f: StrandField,
         grid: StrandGrid, step_index: int | None = None) -> StrandField:
    """One classical RK4 step of the coupled (momentum, gamma) system."""
    m1, g1 = rk4_advance(lambda m, g: _rhs(alg, lag, grid, m, g),
                         (f.nu @ lag.a_t.T, f.gamma), grid, step_index, "strand field")
    return StrandField(m1 @ lag.a_t_inv.T, g1)


def simulate(alg, lag, f0: StrandField, grid: StrandGrid) -> History:
    """Integrate to t_end, storing every ``grid.store_every``-th slice."""
    return integrate(lambda f, k: step(alg, lag, f, grid, step_index=k), f0, grid)


def hamiltonian_energy(alg, lag, f, grid: StrandGrid):
    """Sum over s of (<A_t nu, nu> - <A_s gamma, gamma>)/2 * ds.

    ``f`` is a StrandField, or a History for the series over its slices.
    Conserved exactly by the centered semidiscretization on a periodic grid;
    equals the chiral strand energy (|U|^2 + |V|^2)/2 when A_t = I, A_s = -I.
    """
    dens = 0.5 * (pair(alg, f.nu @ lag.a_t.T, f.nu) - pair(alg, f.gamma @ lag.a_s.T, f.gamma))
    return np.sum(dens, axis=-1) * grid.ds


def centered_dt(hist: History, series):
    """Centered t-derivative of a stored series at the interior slices 1..n_t-2."""
    if len(hist.times) < 3:
        raise DimensionMismatchError("residuals need at least 3 stored slices")
    return (series[2:] - series[:-2]) / (2.0 * hist.dt_stored)


def ep_residual(alg, lag, hist: History, grid: StrandGrid) -> float:
    """Max-norm residual of the field equations over interior stored slices."""
    m = hist.nu @ lag.a_t.T
    n = hist.gamma @ lag.a_s.T
    nu, gamma = hist.nu[1:-1], hist.gamma[1:-1]
    res = centered_dt(hist, m) + (d_s(n[1:-1], grid, axis=1) + ad_star(alg, nu, m[1:-1])
                                  + ad_star(alg, gamma, n[1:-1]))
    return float(np.max(np.abs(res)))


def zcc_residual(alg, hist: History, grid: StrandGrid) -> float:
    """Max-norm of d_t gamma - d_s nu - [nu, gamma] over interior slices."""
    nu, gamma = hist.nu[1:-1], hist.gamma[1:-1]
    res = centered_dt(hist, hist.gamma) - (d_s(nu, grid, axis=1) + bracket(alg, nu, gamma))
    return float(np.max(np.abs(res)))


def residual_report(alg, lag, hist: History, grid: StrandGrid) -> dict:
    return {
        "ep_residual": ep_residual(alg, lag, hist, grid),
        "zcc_residual": zcc_residual(alg, hist, grid),
    }


@dataclass
class ReconstructionResult:
    g: np.ndarray               # (n_stored, n_s, N, N)
    gamma_mismatch: float       # max |(d_s g) g^-1 - gamma_hat|
    zcc_residual: float


def reconstruct(alg: LieAlgebraSpec, g0, hist: History, grid: StrandGrid,
                tol: float = ZCC_RECONSTRUCT_TOL) -> ReconstructionResult:
    """Exponential-Euler reconstruction g <- exp(dt nu) g from stored history.

    Requires the zero-curvature residual of the history to be below ``tol``;
    otherwise a group-valued field with d g g^-1 = sigma does not exist and
    the call is refused.
    """
    zr = zcc_residual(alg, hist, grid)
    if zr > tol:
        raise ReconstructionRefusedError(
            f"zero-curvature residual {zr:.3e} exceeds {tol:.1e}; reconstruction is ill-posed")
    g0 = np.asarray(g0, dtype=float)
    nmat = alg.basis_matrices.shape[-1]
    if g0.ndim == 2:
        g0 = np.broadcast_to(g0, (grid.n_s, nmat, nmat))
    out = [g0]
    for k in range(len(hist.times) - 1):
        out.append(scipy.linalg.expm(hist.dt_stored * to_matrix(alg, hist.nu[k])) @ out[-1])
    gs = np.array(out)
    dsg_ginv = np.einsum("tjab,tjbc->tjac", d_s(gs, grid, axis=1), np.linalg.inv(gs))
    mismatch = float(np.max(np.abs(dsg_ginv - to_matrix(alg, hist.gamma))))
    return ReconstructionResult(gs, mismatch, zr)
