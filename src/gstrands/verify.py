"""Discrete variational verification.

A discrete action samples an integrand on the space-time cells of a uniform
(t, s) grid, s periodic: field values are averaged over the four cell
corners and the partial derivatives are forward differences across the
cell, so every cell sees a centered, 2nd-order evaluation at its midpoint
while boundary nodes pick up the trapezoidal end-weights; the integrand
sees those values and differences, not the cell's coordinates.
Stationarity of a numerically computed trajectory is then checked by
central finite differences of the assembled sum with respect to every
interior node value.

Fields are dicts of ``(n_t, n_s, ncomp)`` node arrays; an integrand is
``integrand(vals, dts, dss)``, three dicts keyed like the fields, and
returns one value per cell, shape ``(n_t - 1, n_s)``.
"""

from __future__ import annotations

import numpy as np

from .clebsch import act
from .errors import DimensionMismatchError
from .gstrand import History, QuadraticLagrangian, _centered
from .gstrand import d_s  # noqa: F401  (re-exported: perfbench/spans.py wraps verify.d_s)
from .liealg import LieAlgebraSpec, ad_star, pair

FD_SCALE = 1e-6


def _cell_views(arr, dt, ds):
    """Cell-centered value and forward-difference derivatives of one field."""
    right = np.roll(arr, -1, axis=1)
    f00, f01 = arr[:-1], right[:-1]
    f10, f11 = arr[1:], right[1:]
    val = 0.25 * (f00 + f01 + f10 + f11)
    dts = 0.5 * ((f10 - f00) + (f11 - f01)) / dt
    dss = 0.5 * ((f01 - f00) + (f11 - f10)) / ds
    return val, dts, dss


def _integrand_cells(integrand, views):
    """The integrand on every cell, from each field's ``_cell_views``."""
    return integrand(*({name: view[i] for name, view in views.items()} for i in range(3)))


def fd_gradient(integrand, fields: dict, dt: float, ds: float) -> dict:
    """Central-difference gradient of the action, the cell sum of the
    integrand times dt*ds, w.r.t. every node value.

    Grouped into four node-parity phases so each cell contains exactly one
    perturbed corner; the per-cell differences then scatter to their nodes,
    which reproduces the naive one-node-at-a-time loop at a fraction of the
    cost.  Only the perturbed field's cell views are rebuilt per evaluation.
    Step size is FD_SCALE * (1 + |value|) per node.
    """
    for name, arr in fields.items():
        if arr.ndim != 3:
            raise DimensionMismatchError(
                f"field '{name}' must have shape (n_t, n_s, ncomp), got {arr.shape}")
    sizes = {arr.shape[:2] for arr in fields.values()}
    if len(sizes) != 1:
        raise DimensionMismatchError(f"fields disagree on (n_t, n_s): {sorted(sizes)}")
    n_t, n_s = sizes.pop()
    if n_t < 3:
        raise DimensionMismatchError("action grid needs at least 3 time nodes")
    if n_s < 4 or n_s % 2:
        # the parity-phase gradient needs an even periodic direction
        raise DimensionMismatchError(f"periodic action grids need an even n_s >= 4, got {n_s}")
    views = {name: _cell_views(arr, dt, ds) for name, arr in fields.items()}
    area = dt * ds
    grads = {}
    cii, cjj = np.meshgrid(np.arange(n_t - 1), np.arange(n_s), indexing="ij")
    for name, base in fields.items():
        grad = np.zeros_like(base)
        h_all = FD_SCALE * (1.0 + np.abs(base))
        for comp in range(base.shape[-1]):
            for pa in (0, 1):
                for pb in (0, 1):
                    mask = np.zeros(base.shape[:2])
                    mask[pa::2, pb::2] = 1.0
                    h = h_all[..., comp] * mask
                    fp = base.copy()
                    fm = base.copy()
                    fp[..., comp] += h
                    fm[..., comp] -= h
                    plus = {**views, name: _cell_views(fp, dt, ds)}
                    minus = {**views, name: _cell_views(fm, dt, ds)}
                    diff = (_integrand_cells(integrand, plus)
                            - _integrand_cells(integrand, minus)) * area
                    di = (pa - cii) % 2
                    dj = (pb - cjj) % 2
                    ii = cii + di
                    jj = (cjj + dj) % n_s
                    np.add.at(grad[..., comp], (ii.ravel(), jj.ravel()),
                              (diff / (2.0 * h[ii, jj])).ravel())
        grads[name] = grad
    return grads


def interior_max(grads: dict, dt: float, ds: float) -> float:
    """Max-norm of the gradient over interior nodes, per unit cell area.

    The first and last time slices are excluded: configuration fields are
    boundary-constrained there and multiplier fields see one-sided cells.
    """
    # np.max, unlike Python's max, keeps a NaN wherever it sits
    worst = np.max([np.max(np.abs(grad[1:-1]), initial=0.0) for grad in grads.values()])
    return float(worst) / (dt * ds)


# ---------------------------------------------------------------------------
# prebuilt integrands

def clebsch_linear_action(rep, lag: QuadraticLagrangian):
    """Integrand l(xi, gam) + m.(d_t v - rho(xi) v) + n.(d_s v - rho(gam) v)
    over the fields v, m, n (rep_dim components) and xi, gam (alg.dim)."""
    alg = rep.alg
    a_t, a_s = lag.a_t, lag.a_s

    def integrand(vals, dts, dss):
        v, m, n = vals["v"], vals["m"], vals["n"]
        xi, gam = vals["xi"], vals["gam"]
        lval = 0.5 * (pair(alg, xi @ a_t.T, xi) + pair(alg, gam @ a_s.T, gam))
        ct = dts["v"] - act(rep, xi, v)
        cs = dss["v"] - act(rep, gam, v)
        return lval + np.einsum("...a,...a->...", m, ct) + np.einsum("...a,...a->...", n, cs)

    return integrand


# ---------------------------------------------------------------------------
# covariant Pontryagin residuals

def pontryagin_residual(e_loc, fields: dict, deltas) -> dict:
    """Max-norm residuals of the three local stationarity equations of the
    generalized energy density ``e_loc(y, p, b)``:

        d y^A / d x^mu = de/dp^mu_A,
        d p^mu_A / d x^mu = -de/dy^A,
        de/db^alpha = 0,

    with centered grid derivatives and central finite differences of e
    (step FD_SCALE * (1 + |value|)), both taken on the time-interior slices.
    ``e_loc`` must be vectorized over node arrays with shapes y: (..., n_y),
    p: (..., n_dir, n_y), b: (..., n_b); the paper's e(x, y, p, b) may depend
    on the space-time point x, but no energy here does, so none is passed.
    A missing or None ``b`` reaches ``e_loc`` as an empty (..., 0) array, so
    the optimality residual is 0.  ``deltas`` lists the grid spacing per
    space-time axis; time, the first, is not periodic and every other axis is.
    """
    y = np.asarray(fields["y"], dtype=float)
    p = np.asarray(fields["p"], dtype=float)
    shape, n_y = y.shape[:-1], y.shape[-1]
    if p.shape != shape + (len(deltas), n_y):
        raise DimensionMismatchError(f"p must have shape {shape + (len(deltas), n_y)}")
    b = fields.get("b")
    args = [y, p, np.zeros(shape + (0,)) if b is None else np.asarray(b, dtype=float)]
    interior = slice(1, -1)  # the time-interior slices

    def de_wrt(k):
        """de/d args[k], one component at a time, on the time-interior slices."""
        flat = args[k].reshape(shape + (-1,))
        out = np.empty(flat.shape)
        for c in range(flat.shape[-1]):
            h = FD_SCALE * (1.0 + np.abs(flat[..., c]))
            fp = flat.copy()
            fm = flat.copy()
            fp[..., c] += h
            fm[..., c] -= h
            ep = e_loc(*args[:k], fp.reshape(args[k].shape), *args[k + 1:])
            em = e_loc(*args[:k], fm.reshape(args[k].shape), *args[k + 1:])
            out[..., c] = (ep - em) / (2.0 * h)
        return out.reshape(args[k].shape)[interior]

    de_dy, de_dp, de_db = map(de_wrt, range(3))
    # np.max, unlike Python's max, keeps a NaN wherever it sits
    r1 = np.max([np.max(np.abs(_centered(y, mu, delta, mu > 0)[interior] - de_dp[..., mu, :]))
                 for mu, delta in enumerate(deltas)], initial=0.0)
    div_p = sum(_centered(p[..., mu, :], mu, delta, mu > 0)[interior]
                for mu, delta in enumerate(deltas))
    return {"constraint": float(r1), "divergence": float(np.max(np.abs(div_p + de_dy))),
            "optimality": float(np.max(np.abs(de_db), initial=0.0))}


def hamilton_pontryagin_energy(lagrangian):
    """e = p.v - L(v) over a one-dimensional base (classical mechanics),
    with b = v."""

    def e_loc(y, p, b):
        return np.einsum("...a,...a->...", p[..., 0, :], b) - lagrangian(b)

    return e_loc


def clebsch_pontryagin_energy(rep, lag: QuadraticLagrangian):
    """e = m.rho(xi)v + n.rho(gam)v - l(xi, gam) on a (t, s) base,
    with b = (xi, gam) stacked."""
    alg = rep.alg
    d = alg.dim

    def e_loc(y, p, b):
        xi, gam = b[..., :d], b[..., d:]
        lval = 0.5 * (pair(alg, xi @ lag.a_t.T, xi) + pair(alg, gam @ lag.a_s.T, gam))
        return (np.einsum("...a,...a->...", p[..., 0, :], act(rep, xi, y))
                + np.einsum("...a,...a->...", p[..., 1, :], act(rep, gam, y)) - lval)

    return e_loc


# ---------------------------------------------------------------------------
# Legendre pairing

def legendre_pair(lag: QuadraticLagrangian) -> QuadraticLagrangian:
    """The Legendre dual of a quadratic density: h(m, n) = <B_t m, m>/2 +
    <B_s n, n>/2 with B = A^-1, held as the QuadraticLagrangian of B.  Its
    inertias map momenta back to velocities (m @ dual.a_t.T, n @ dual.a_s.T),
    and the dual of the dual is ``lag`` again."""
    return QuadraticLagrangian(lag.a_t_inv, lag.a_s_inv)


def lp_ep_gap(alg: LieAlgebraSpec, lag: QuadraticLagrangian, hist: History) -> float:
    """Pointwise gap between the field-equation residual written with the
    Lagrangian velocities and with velocities recovered through the
    Hamiltonian; zero up to roundoff by construction of the Legendre pair."""
    dual = legendre_pair(lag)
    m = hist.nu @ lag.a_t.T
    n = hist.gamma @ lag.a_s.T
    ep_term = ad_star(alg, hist.nu, m) + ad_star(alg, hist.gamma, n)
    nu_h, ga_h = m @ dual.a_t.T, n @ dual.a_s.T
    lp_term = ad_star(alg, nu_h, m) + ad_star(alg, ga_h, n)
    return float(np.max(np.abs(ep_term - lp_term)))
