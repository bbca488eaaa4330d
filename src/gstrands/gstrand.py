"""Method-of-lines solver for strand field equations on (t, s).

The reduced field sigma = nu dt + gamma ds is sampled on an s-grid.  The
momentum m = A_t nu and the connection component gamma evolve by classical
RK4; s-derivatives are 2nd-order centered stencils.  Diagnostics recompute
the field equations and the zero-curvature relation from stored history with
centered differences in both t and s.  Every family steps through
``integrate``, the one place a solver failure gets its step and time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowUpError, DimensionMismatchError, SolverError
from .liealg import LieAlgebraSpec, ad_star, bracket, pair


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


def _centered(arr, axis: int, delta: float, wrap: bool):
    """(a[i+1] - a[i-1]) / (2 delta) along ``axis`` in one pass, with no
    shifted copy of ``arr``.  With ``wrap`` the two end rows use the periodic
    neighbours; otherwise they are left unset for the caller to fill."""
    arr = np.asarray(arr)
    out = np.empty_like(arr, dtype=float if arr.dtype.kind in "iu" else None)
    a, o = arr.swapaxes(0, axis), out.swapaxes(0, axis)
    np.subtract(a[2:], a[:-2], out=o[1:-1])
    if wrap:
        np.subtract(a[1:2], a[-1:], out=o[:1])
        np.subtract(a[:1], a[-2:-1], out=o[-1:])
    set_rows = out if wrap else o[1:-1]  # one divide over every row set
    np.divide(set_rows, 2.0 * delta, out=set_rows)
    return out


def d_s(arr, grid: StrandGrid, axis: int = 0):
    """Centered s-derivative along ``axis``; periodic wrap or one-sided ends.

    ``axis`` is 0 for one state (n_s, ...) and 1 for a stacked history
    (n_t, n_s, ...).
    """
    if grid.n_s == 1:
        return np.zeros(np.shape(arr))
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


def rk4_advance(rhs, y, grid: StrandGrid, what: str, k1=None) -> list:
    """One classical RK4 step of dy/dt = rhs(*y) over the sequence of arrays y;
    ``k1``, when given, is rhs(*y) already evaluated.

    Under fixed bc the endpoint values of every array are frozen.  A
    non-finite result raises an unlocated BlowUpError("<what> blew up").
    """
    dt = grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    k1 = rhs(*y) if k1 is None else k1
    k2 = rhs(*[a + half * k for a, k in zip(y, k1)])
    k3 = rhs(*[a + half * k for a, k in zip(y, k2)])
    k4 = rhs(*[a + dt * k for a, k in zip(y, k3)])
    y1 = [a + sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
          for a, p1, p2, p3, p4 in zip(y, k1, k2, k3, k4)]
    if grid.bc == "fixed" and grid.n_s > 1:
        for a0, a1 in zip(y, y1):
            a1[[0, -1]] = a0[[0, -1]]
    if not all([np.isfinite(a).all() for a in y1]):
        raise BlowUpError(f"{what} blew up")
    return y1


@dataclass
class SlavedState:
    """A constrained family's state.  Its positional fields (``__match_args__``)
    are the evolved arrays y, then the slaved multiplier, each coerced to float;
    ``aux`` is the slave's return for y, None in a state built by hand."""

    aux: tuple | None = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        for name in self.__match_args__:
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))


def _evolved(state: SlavedState) -> tuple:
    return tuple(getattr(state, name) for name in state.__match_args__[:-1])


def _slaved(slave, cls, y):
    aux = slave(y)
    return cls(*y, aux[-1], aux=aux)


def slaved_step(slave, rhs, state: SlavedState, grid: StrandGrid, what: str):
    """One RK4 step of a constrained family.  slave(y) returns aux, and
    dy/dt = rhs(*y, aux) at every stage; the accepted state is returned with
    its own slave(y1).

    Stage 1 reuses ``state.aux`` when a slave set it: the previous accepted
    state went through the same call on the same arrays, so a step makes 4
    slaved solves, not 5.
    """
    y = _evolved(state)
    k1 = rhs(*y, slave(y) if state.aux is None else state.aux)
    y1 = rk4_advance(lambda *stage: rhs(*stage, slave(stage)), y, grid, what, k1)
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


def _check_finite(state, names):
    """BlowUpError at t = 0 naming the first of the fields ``names`` of
    ``state`` with a non-finite entry and its s-index (axis 0)."""
    for name in names:
        bad = ~np.isfinite(getattr(state, name))
        if bad.any():
            raise BlowUpError(f"non-finite {name} at s-index {np.argwhere(bad)[0, 0]}", t=0.0)


def integrate(step_fn, state, grid: StrandGrid, slave=None) -> History:
    """Advance ``state`` (a dataclass of arrays) by ``step_fn(state)`` for
    grid.n_steps steps, storing t = 0 and every ``grid.store_every``-th step.

    ``slave``, when given, is the family's slave of ``slaved_step``, which
    first completes the initial state; ``__match_args__`` names the stored fields.
    A LinAlgError inside step k is a BlowUpError, and a SolverError without
    a location gets step k and t = (k + 1) dt.  A failure of ``slave``, and
    a non-finite initial field (the evolved ones checked before the slave,
    every stored one after it), is located at t = 0 with no step index."""
    names = state.__match_args__
    if slave is not None:
        _check_finite(state, names[:-1])
        state = _located(None, 0.0, _slaved, slave, type(state), _evolved(state))
    _check_finite(state, names)
    n_stored = grid.n_steps // grid.store_every + 1
    times = np.zeros(n_stored)
    stored = {name: np.empty((n_stored, *getattr(state, name).shape)) for name in names}
    for name in names:
        stored[name][0] = getattr(state, name)
    for k in range(grid.n_steps):
        t = (k + 1) * grid.dt
        state = _located(k, t, step_fn, state)
        if (k + 1) % grid.store_every == 0:
            i = (k + 1) // grid.store_every
            times[i] = t
            for name in names:
                stored[name][i] = getattr(state, name)
    return History(times, **stored)


def _rhs(alg, lag, grid, m, gamma):
    f = StrandField(m @ lag.a_t_inv.T, gamma)
    return ep_rhs(alg, lag, f, grid), zcc_rhs(alg, f, grid)


def step(alg: LieAlgebraSpec, lag: QuadraticLagrangian, f: StrandField,
         grid: StrandGrid) -> StrandField:
    """One classical RK4 step of the coupled (momentum, gamma) system."""
    m1, g1 = rk4_advance(lambda m, g: _rhs(alg, lag, grid, m, g),
                         (f.nu @ lag.a_t.T, f.gamma), grid, "strand field")
    return StrandField(m1 @ lag.a_t_inv.T, g1)


def simulate(alg, lag, f0: StrandField, grid: StrandGrid) -> History:
    """Integrate to t_end, storing every ``grid.store_every``-th slice."""
    return integrate(lambda f: step(alg, lag, f, grid), f0, grid)


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

