"""Discrete variational verification.

A DiscreteAction samples an integrand on space-time cells: field values are
averaged over the four cell corners and the partial derivatives are forward
differences across the cell, so every cell sees a centered, 2nd-order
evaluation at its midpoint while boundary nodes pick up the trapezoidal
end-weights; the integrand sees those values and differences, not the
cell's coordinates.  Stationarity of a numerically computed trajectory is
then checked by central finite differences of the assembled sum with
respect to every interior node value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .clebsch import act
from .errors import DimensionMismatchError
from .gstrand import History, QuadraticLagrangian, _centered
from .gstrand import d_s  # noqa: F401  (re-exported: perfbench/spans.py wraps verify.d_s)
from .liealg import LieAlgebraSpec, ad_star, pair

FD_SCALE = 1e-6


@dataclass(frozen=True)
class ActionGrid:
    """Uniform (t, s) node grid carrying the cell geometry of the action;
    s is periodic, so there are n_s cells along s."""

    n_t: int
    dt: float
    n_s: int
    ds: float

    def __post_init__(self):
        if self.n_t < 3 or self.n_s < 3:
            raise DimensionMismatchError("action grid needs at least 3 nodes per direction")
        if self.n_s % 2:
            # the parity-phase gradient needs an even periodic direction
            raise DimensionMismatchError("periodic action grids require even n_s")

    @property
    def n_cells_t(self):
        return self.n_t - 1


@dataclass(frozen=True)
class FieldSpec:
    name: str
    ncomp: int


@dataclass(frozen=True)
class DiscreteAction:
    grid: ActionGrid
    fields: tuple
    integrand: Callable   # (vals, dts, dss) -> (n_cells_t, n_s)


def _cell_views(action: DiscreteAction, arr):
    """Cell-centered value and forward-difference derivatives of one field."""
    g = action.grid
    right = np.roll(arr, -1, axis=1)
    f00, f01 = arr[:-1], right[:-1]
    f10, f11 = arr[1:], right[1:]
    val = 0.25 * (f00 + f01 + f10 + f11)
    dts = 0.5 * ((f10 - f00) + (f11 - f01)) / g.dt
    dss = 0.5 * ((f01 - f00) + (f11 - f10)) / g.ds
    return val, dts, dss


def _check_fields(action, fields):
    g = action.grid
    for spec in action.fields:
        if spec.name not in fields:
            raise DimensionMismatchError(f"missing field '{spec.name}'")
        arr = fields[spec.name]
        if arr.shape != (g.n_t, g.n_s, spec.ncomp):
            raise DimensionMismatchError(
                f"field '{spec.name}' must have shape {(g.n_t, g.n_s, spec.ncomp)}, "
                f"got {arr.shape}")


def _all_views(action, fields):
    return {spec.name: _cell_views(action, fields[spec.name]) for spec in action.fields}


def _integrand_cells(action, views):
    """The integrand on every cell, from each field's ``_cell_views``."""
    return action.integrand(*({name: view[i] for name, view in views.items()}
                              for i in range(3)))


def fd_gradient(action: DiscreteAction, fields: dict) -> dict:
    """Central-difference gradient of the action, the cell sum of the
    integrand times dt*ds, w.r.t. every node value.

    Grouped into four node-parity phases so each cell contains exactly one
    perturbed corner; the per-cell differences then scatter to their nodes,
    which reproduces the naive one-node-at-a-time loop at a fraction of the
    cost.  Only the perturbed field's cell views are rebuilt per evaluation.
    Step size is FD_SCALE * (1 + |value|) per node.
    """
    _check_fields(action, fields)
    g = action.grid
    views = _all_views(action, fields)
    area = g.dt * g.ds
    grads = {}
    ci = np.arange(g.n_cells_t)
    cj = np.arange(g.n_s)
    cii, cjj = np.meshgrid(ci, cj, indexing="ij")
    for spec in action.fields:
        base = fields[spec.name]
        grad = np.zeros_like(base)
        h_all = FD_SCALE * (1.0 + np.abs(base))
        for comp in range(spec.ncomp):
            for pa in (0, 1):
                for pb in (0, 1):
                    mask = np.zeros(base.shape[:2])
                    mask[pa::2, pb::2] = 1.0
                    h = h_all[..., comp] * mask
                    fp = base.copy()
                    fm = base.copy()
                    fp[..., comp] += h
                    fm[..., comp] -= h
                    plus = {**views, spec.name: _cell_views(action, fp)}
                    minus = {**views, spec.name: _cell_views(action, fm)}
                    diff = (_integrand_cells(action, plus)
                            - _integrand_cells(action, minus)) * area
                    di = (pa - cii) % 2
                    dj = (pb - cjj) % 2
                    ii = cii + di
                    jj = (cjj + dj) % g.n_s
                    np.add.at(grad[..., comp], (ii.ravel(), jj.ravel()),
                              (diff / (2.0 * h[ii, jj])).ravel())
        grads[spec.name] = grad
    return grads


def interior_max(action: DiscreteAction, grads: dict) -> float:
    """Max-norm of the gradient over interior nodes, per unit cell area.

    The first and last time slices are excluded: configuration fields are
    boundary-constrained there and multiplier fields see one-sided cells.
    """
    g = action.grid
    # np.max, unlike Python's max, keeps a NaN wherever it sits
    worst = np.max([np.max(np.abs(grads[spec.name][1:-1]), initial=0.0)
                    for spec in action.fields])
    return float(worst) / (g.dt * g.ds)


# ---------------------------------------------------------------------------
# prebuilt actions

def clebsch_linear_action(rep, lag: QuadraticLagrangian, grid: ActionGrid) -> DiscreteAction:
    """l(xi, gam) + m.(d_t v - rho(xi) v) + n.(d_s v - rho(gam) v)."""
    alg = rep.alg
    a_t, a_s = lag.a_t, lag.a_s

    def integrand(vals, dts, dss):
        v, m, n = vals["v"], vals["m"], vals["n"]
        xi, gam = vals["xi"], vals["gam"]
        lval = 0.5 * (pair(alg, xi @ a_t.T, xi) + pair(alg, gam @ a_s.T, gam))
        ct = dts["v"] - act(rep, xi, v)
        cs = dss["v"] - act(rep, gam, v)
        return lval + np.einsum("...a,...a->...", m, ct) + np.einsum("...a,...a->...", n, cs)

    rd, ad = rep.rep_dim, rep.alg.dim
    fields = (FieldSpec("v", rd), FieldSpec("m", rd),
              FieldSpec("n", rd), FieldSpec("xi", ad), FieldSpec("gam", ad))
    return DiscreteAction(grid, fields, integrand)


# ---------------------------------------------------------------------------
# covariant Pontryagin residuals

@dataclass(frozen=True)
class GeneralizedEnergy:
    """Local generalized energy density e(y, p, b); must be vectorized
    over node arrays with shapes y: (..., n_y), p: (..., n_dir, n_y),
    b: (..., n_b).  The paper's e(x, y, p, b) may depend on the space-time
    point x; no energy here does, so none is passed."""

    e_loc: Callable
    n_y: int
    n_b: int = 0


def pontryagin_residual(energy: GeneralizedEnergy, fields: dict, deltas) -> dict:
    """Max-norm residuals of the three local stationarity equations:

        d y^A / d x^mu = de/dp^mu_A,
        d p^mu_A / d x^mu = -de/dy^A,
        de/db^alpha = 0,

    with centered grid derivatives and central finite differences of e
    (step FD_SCALE * (1 + |value|)).  ``deltas`` lists the grid spacing per
    space-time axis; time, the first, is not periodic and every other axis is.
    """
    y = np.asarray(fields["y"], dtype=float)
    p = np.asarray(fields["p"], dtype=float)
    b = np.asarray(fields.get("b"), dtype=float) if fields.get("b") is not None else None
    n_dir = len(deltas)
    shape = y.shape[:-1]
    if p.shape != shape + (n_dir, energy.n_y):
        raise DimensionMismatchError(f"p must have shape {shape + (n_dir, energy.n_y)}")

    def de_wrt(arr, builder):
        out = np.zeros_like(arr)
        flat_comps = arr.reshape(arr.shape[: len(shape)] + (-1,))
        for c in range(flat_comps.shape[-1]):
            h = FD_SCALE * (1.0 + np.abs(flat_comps[..., c]))
            fp = flat_comps.copy()
            fm = flat_comps.copy()
            fp[..., c] += h
            fm[..., c] -= h
            ep = energy.e_loc(*builder(fp.reshape(arr.shape)))
            em = energy.e_loc(*builder(fm.reshape(arr.shape)))
            out.reshape(out.shape[: len(shape)] + (-1,))[..., c] = (ep - em) / (2.0 * h)
        return out

    de_dp = de_wrt(p, lambda a: (y, a, b))
    de_dy = de_wrt(y, lambda a: (a, p, b))

    def centered(arr, axis, delta):
        """Periodic along s; along time (axis 0) the end slices are NaN."""
        out = _centered(arr, axis, delta, axis > 0)
        if axis == 0:
            out[0] = out[-1] = np.nan
        return out

    interior = slice(1, -1)  # the time-interior slices

    r1 = np.zeros(n_dir)
    div_p = np.zeros(shape + (energy.n_y,))
    for mu, delta in enumerate(deltas):
        dy = centered(y, mu, delta)
        r1[mu] = np.max(np.abs((dy - de_dp[..., mu, :])[interior]))
        div_p = div_p + centered(p[..., mu, :], mu, delta)
    r1 = float(np.max(r1, initial=0.0))
    r2 = float(np.max(np.abs((div_p + de_dy)[interior])))
    if b is not None and energy.n_b:
        de_db = de_wrt(b, lambda a: (y, p, a))
        r3 = float(np.max(np.abs(de_db[interior])))
    else:
        r3 = 0.0
    return {"constraint": r1, "divergence": r2, "optimality": r3}


def hamilton_pontryagin_energy(n_y: int, lagrangian: Callable) -> GeneralizedEnergy:
    """e = p.v - L(v) over a one-dimensional base (classical mechanics)."""

    def e_loc(y, p, b):
        return np.einsum("...a,...a->...", p[..., 0, :], b) - lagrangian(b)

    return GeneralizedEnergy(e_loc, n_y=n_y, n_b=n_y)


def clebsch_pontryagin_energy(rep, lag: QuadraticLagrangian) -> GeneralizedEnergy:
    """e = m.rho(xi)v + n.rho(gam)v - l(xi, gam) on a (t, s) base,
    with b = (xi, gam) stacked."""
    alg = rep.alg
    d = alg.dim

    def e_loc(y, p, b):
        xi, gam = b[..., :d], b[..., d:]
        lval = 0.5 * (pair(alg, xi @ lag.a_t.T, xi) + pair(alg, gam @ lag.a_s.T, gam))
        return (np.einsum("...a,...a->...", p[..., 0, :], act(rep, xi, y))
                + np.einsum("...a,...a->...", p[..., 1, :], act(rep, gam, y)) - lval)

    return GeneralizedEnergy(e_loc, n_y=rep.rep_dim, n_b=2 * d)


# ---------------------------------------------------------------------------
# Legendre pairing

@dataclass(frozen=True)
class CovariantHamiltonian:
    """h(nu_t, nu_s) = <B_t nu_t, nu_t>/2 + <B_s nu_s, nu_s>/2 with B = A^-1."""

    b_t: np.ndarray
    b_s: np.ndarray

    def velocity(self, m, n):
        """delta h / delta nu: the inverse Legendre map back to velocities."""
        return m @ self.b_t.T, n @ self.b_s.T

    def to_lagrangian(self) -> QuadraticLagrangian:
        return QuadraticLagrangian(np.linalg.inv(self.b_t), np.linalg.inv(self.b_s))


def legendre_pair(lag: QuadraticLagrangian) -> CovariantHamiltonian:
    """Legendre-dual quadratic Hamiltonian; inverts the inertia operators."""
    return CovariantHamiltonian(lag.a_t_inv, lag.a_s_inv)


def lp_ep_gap(alg: LieAlgebraSpec, lag: QuadraticLagrangian, hist: History) -> float:
    """Pointwise gap between the field-equation residual written with the
    Lagrangian velocities and with velocities recovered through the
    Hamiltonian; zero up to roundoff by construction of the Legendre pair."""
    ham = legendre_pair(lag)
    m = hist.nu @ lag.a_t.T
    n = hist.gamma @ lag.a_s.T
    ep_term = ad_star(alg, hist.nu, m) + ad_star(alg, hist.gamma, n)
    nu_h, ga_h = ham.velocity(m, n)
    lp_term = ad_star(alg, nu_h, m) + ad_star(alg, ga_h, n)
    return float(np.max(np.abs(ep_term - lp_term)))

