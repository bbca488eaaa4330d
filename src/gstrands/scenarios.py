"""Scenario runners behind the CLI: initial-condition presets, trajectory
tables and diagnostics series.  Each runner is the ``run`` of one
``config.SCENARIOS`` record, called by ``config.run_scenario`` on the grid
``make_grid(cfg)``; this module does not import ``config``."""

from __future__ import annotations

from functools import partial

import numpy as np

from . import clebsch, gstrand, peakon, verify
from .gstrand import QuadraticLagrangian, StrandField, StrandGrid, chiral_lagrangian
from .kernels import HelmholtzKernel
from .liealg import builtin, hat_so_n


def make_grid(cfg) -> StrandGrid:
    g = cfg.grid
    return StrandGrid(g["n_s"], g["s_extent"], g["dt"], g["t_end"], g["bc"], g["store_every"])


def _bump(s, extent, width, winds=1):
    """Smooth periodic bump with unit peak: exp(width * (cos(2 pi w s / L) - 1))."""
    return np.exp(width * (np.cos(2.0 * np.pi * winds * s / extent) - 1.0))


# ---------------------------------------------------------------------------
# initial conditions

def chiral_initial(cfg, grid):
    """(algebra, Lagrangian, initial field) of a chiral so3 strand."""
    alg, lag = builtin("so3"), chiral_lagrangian(3)
    init = cfg.initial
    s = grid.s_nodes
    if init["preset"] == "traveling_bump":
        xi = np.asarray(init["xi"], dtype=float)
        xi = xi / np.linalg.norm(xi)
        f = init["amplitude"] * _bump(s, grid.s_extent, init["width"], init["winds"])
        nu = f[:, None] * xi
        return alg, lag, StrandField(nu, nu.copy())
    if init["preset"] == "pure_gauge":
        # unit generator: one full turn over s in [0, 2 pi), so the gauge
        # g = exp((t + s) xi_hat) is periodic (trivial holonomy)
        xi = np.asarray(init["xi"], dtype=float)
        xi = xi / np.linalg.norm(xi)
        nu = np.tile(xi, (grid.n_s, 1))
        return alg, lag, StrandField(nu, nu.copy())
    # generic_smooth: non-parallel smooth profiles exercising the brackets
    a = init["amplitude"]
    two_pi = 2.0 * np.pi / grid.s_extent
    nu = a * np.stack([0.8 + 0.3 * np.sin(two_pi * s),
                       0.2 * np.cos(two_pi * s),
                       0.1 * np.sin(2.0 * two_pi * s)], axis=1)
    gam = a * np.stack([0.1 * np.cos(two_pi * s),
                        0.7 - 0.2 * np.sin(two_pi * s),
                        0.3 * np.cos(2.0 * two_pi * s)], axis=1)
    return alg, lag, StrandField(nu, gam)


def se3_initial(cfg, grid):
    """(algebra, Lagrangian, initial field) of a convective se3 strand."""
    a = cfg.initial["amplitude"]
    s = grid.s_nodes
    two_pi = 2.0 * np.pi / grid.s_extent
    nu = a * np.stack([np.sin(two_pi * s), 0.5 * np.cos(two_pi * s),
                       0.2 + 0.1 * np.sin(2 * two_pi * s),
                       0.3 * np.cos(two_pi * s), 0.2 * np.sin(two_pi * s),
                       0.1 * np.cos(2 * two_pi * s)], axis=1)
    gam = a * np.stack([0.2 * np.cos(two_pi * s), 0.3 * np.sin(two_pi * s),
                        0.1 * np.cos(2 * two_pi * s),
                        0.5 + 0.2 * np.sin(two_pi * s), 0.1 * np.cos(two_pi * s),
                        0.2 * np.sin(2 * two_pi * s)], axis=1)
    lag = QuadraticLagrangian(np.diag(cfg.params["a_t_diag"]), np.diag(cfg.params["a_s_diag"]))
    return builtin("se3"), lag, StrandField(nu, gam)


def cdb_initial(cfg, grid):
    alg = builtin("so3")
    init = cfg.initial
    return alg, clebsch.cdb_rotating_state(alg, grid, init["m0"], init["wt0"], init["winds"])


def symm_rigid_setup(cfg, grid):
    n_so = cfg.params["n_so"]
    dim = n_so * (n_so - 1) // 2
    a_t = np.diag(cfg.params["a_t_diag"]) if cfg.params["a_t_diag"] else np.diag(
        1.0 + np.arange(dim, dtype=float))
    a_s = np.diag(cfg.params["a_s_diag"]) if cfg.params["a_s_diag"] else -np.eye(dim)
    lag = QuadraticLagrangian(a_t, a_s)
    init = cfg.initial
    if init["preset"] == "classical":
        u0 = np.asarray(init["u0"] if init["u0"] else 0.2 + 0.1 * np.arange(dim), dtype=float)
        w0 = hat_so_n(n_so, u0 @ lag.a_t.T)
        q = np.eye(n_so)[None]
        return lag, clebsch.SymmRigidState(q, w0[None], np.zeros_like(w0)[None])
    # strand: smooth rotation field Q(s) = exp(hat(theta(s))) with smooth
    # momentum.  i hat(theta) is Hermitian, v diag(w) v^H, so Q = v e^(-iw) v^H
    phase = 2.0 * np.pi / grid.s_extent * grid.s_nodes[:, None]
    amp, k = init["amplitude"], 0.1 * np.arange(dim)
    w, v = np.linalg.eigh(1j * hat_so_n(n_so, amp * np.sin(phase) * (1.0 + k)))
    q = ((v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(1, 2)).real
    u = 0.2 + amp * np.cos(phase) * (0.5 + k)
    mw = q @ hat_so_n(n_so, u @ lag.a_t.T)
    return lag, clebsch.SymmRigidState(q, mw, np.zeros_like(mw))


def _rotating_clebsch(lag, grid, v0, m0, winds):
    """(so3 defining rep, lag, state) whose v and m rotate ``winds`` times
    about e3 along the strand, with n = 0."""
    rep = clebsch.defining_rep_so3(builtin("so3"))
    rot = clebsch.rotation_about_e3(2.0 * np.pi * winds * grid.s_nodes / grid.s_extent)
    v = np.einsum("sab,b->sa", rot, np.asarray(v0, dtype=float))
    m = np.einsum("sab,b->sa", rot, np.asarray(m0, dtype=float))
    return rep, lag, clebsch.LinearStrandState(v, m, np.zeros_like(v))


def linear_rep_setup(cfg, grid):
    lag = QuadraticLagrangian(np.diag(cfg.params["a_t_diag"]),
                              np.diag(cfg.params["a_s_diag"]))
    init = cfg.initial
    return _rotating_clebsch(lag, grid, init["v0"], init["m0"], init["winds"])


def peakon_setup(cfg, grid):
    kernel = HelmholtzKernel(cfg.params["alpha"])
    init = cfg.initial
    if init["preset"] == "inline":
        q0 = np.asarray(init["q0"], dtype=float).T
        m0 = np.asarray(init["m0"], dtype=float).T
    elif init["preset"] == "single_peakon":
        q0 = np.zeros((grid.n_s, 1))
        m0 = np.full((grid.n_s, 1), init["m_values"][0])
    else:  # two_peakon_wave
        n_p = cfg.params["n_p"]
        a = np.arange(n_p)
        phase = (2.0 * np.pi / grid.s_extent) * grid.s_nodes[:, None] + a * np.pi / 2.0
        q0 = (a - (n_p - 1) / 2.0) * init["gap"] + init["amplitude"] * np.sin(phase)
        m0 = np.asarray(init["m_values"], dtype=float) * (1.0 + 0.3 * np.cos(phase))
    return kernel, peakon.PeakonState(q0, m0, np.zeros_like(q0))


def ch_setup(cfg):
    kernel = HelmholtzKernel(cfg.params["alpha"])
    q0 = np.asarray(cfg.initial["q0"], dtype=float)[None, :]
    p0 = np.asarray(cfg.initial["p0"], dtype=float)[None, :]
    return kernel, peakon.PeakonState(q0, p0, np.zeros_like(q0))


# ---------------------------------------------------------------------------
# runners: each run(cfg, grid) returns (csv_header, csv_rows, diagnostics,
# extra_csvs).  A trajectory CSV's rows are a zero-argument callable that
# builds its float table when output.write_csv writes it, so a convergence
# study, which keeps only the summary, never builds one.

def _series(times, values):
    return {"t": [float(t) for t in times], "value": [float(v) for v in values]}


def _field_rows(times, ds, comps):
    """Float table with one row [t, s, *c] per stored slice i, gridpoint j
    and index r, with t = times[i], s = j ds and c the entries [i, j, r, :]
    of the arrays ``comps`` (n_t, n_s, n_r, ...) joined in order."""
    n_t, n_s, n_r = comps[0].shape[:3]
    width = 2 + sum(c.shape[3] for c in comps)
    table = np.empty((n_t, n_s, n_r, width))
    table[..., 0] = np.reshape(times, (n_t, 1, 1))
    table[..., 1] = (np.arange(n_s) * ds)[:, None]
    np.concatenate(comps, axis=3, out=table[..., 2:])
    return table.reshape(-1, width)


def _table(times, ds, columns):
    """(header, rows) of a CSV with rows [t, s, *entries] built by
    _field_rows from the (name, array) ``columns``, each array shaped
    (n_t, n_s, n_r, ...).  An entry's column is the array's name followed by
    the digits of its index in the trailing axes, matrices row-major."""
    header = ["t", "s"] + [name + "".join(map(str, index)) for name, a in columns
                           for index in np.ndindex(a.shape[3:])]
    comps = [a.reshape(a.shape[:3] + (-1,)) for _, a in columns]
    return header, partial(_field_rows, times, ds, comps)


def _run_strand(alg, lag, f0, grid):
    hist = gstrand.simulate(alg, lag, f0, grid)
    diag = {
        "series": {"energy": _series(hist.times, gstrand.hamiltonian_energy(alg, lag, hist, grid))},
        "summary": gstrand.residual_report(alg, lag, hist, grid),
    }
    columns = [("nu", hist.nu[:, :, None]), ("gamma", hist.gamma[:, :, None])]
    return *_table(hist.times, grid.ds, columns), diag, {}


def run_chiral(cfg, grid):
    return _run_strand(*chiral_initial(cfg, grid), grid)


def run_se3(cfg, grid):
    return _run_strand(*se3_initial(cfg, grid), grid)


def run_cdb(cfg, grid):
    alg, state = cdb_initial(cfg, grid)
    hist = clebsch.cdb_simulate(alg, state, grid)
    norms = np.linalg.norm(hist.m, axis=2)
    drift = np.max(np.abs(norms - norms[0]), axis=1)
    diag = {
        "series": {"m_norm_drift": _series(hist.times, drift)},
        "summary": {
            "div_sigma_residual": clebsch.cdb_div_sigma_residual(alg, hist, grid),
            "constraint_residual": clebsch.cdb_constraint_residual(
                alg, clebsch.CDBState(hist.m[-1], hist.w_t[-1], hist.w_s[-1]), grid),
        },
    }
    columns = [("m", hist.m[:, :, None]), ("wt", hist.w_t[:, :, None]),
               ("ws", hist.w_s[:, :, None])]
    return *_table(hist.times, grid.ds, columns), diag, {}


def run_symm_rigid(cfg, grid):
    lag, state = symm_rigid_setup(cfg, grid)
    hist = clebsch.symm_rigid_simulate(lag, state, grid)
    diag = {"series": {}, "summary": {}}
    if grid.n_s >= 8:
        diag["summary"]["strand_residual"] = clebsch.symm_rigid_strand_residual(lag, hist, grid)
    columns = [("Q", hist.q[:, :, None]), ("M", hist.mw[:, :, None]), ("N", hist.nw[:, :, None])]
    return *_table(hist.times, grid.ds, columns), diag, {}


def run_linear_rep(cfg, grid):
    rep, lag, state = linear_rep_setup(cfg, grid)
    hist = clebsch.linear_strand_simulate(rep, lag, state, grid)
    drift = clebsch.linear_constraint_drift(
        rep, lag, clebsch.LinearStrandState(hist.v[-1], hist.m[-1], hist.n[-1]), grid)
    sig_hist = _linear_sigma_history(rep, lag, hist)
    diag = {
        "series": {},
        "summary": {
            "constraint_drift": drift,
            "ep_residual": gstrand.ep_residual(rep.alg, lag, sig_hist, grid),
        },
    }
    columns = [("v", hist.v[:, :, None]), ("m", hist.m[:, :, None]), ("n", hist.n[:, :, None])]
    return *_table(hist.times, grid.ds, columns), diag, {}


def _linear_sigma_history(rep, lag, hist):
    """Velocity fields recovered through the momentum map, as a strand History."""
    xi, gam = clebsch.recover_velocities(rep, lag, hist.v, hist.m, hist.n)
    return gstrand.History(hist.times, nu=xi, gamma=gam)


def _peakon_columns(hist):
    """Table columns a, Q, M, N: one row per peakon a."""
    index = np.broadcast_to(np.arange(hist.q.shape[2], dtype=float), hist.q.shape)
    return [("a", index), ("Q", hist.q), ("M", hist.mw), ("N", hist.nw)]


def run_peakon_strand(cfg, grid):
    kernel, state = peakon_setup(cfg, grid)
    hist = peakon.simulate(state, kernel, grid)
    h_tot = np.sum(peakon.collective_hamiltonian(hist, kernel), axis=1) * grid.ds
    cons = peakon.s_constraint_residual(hist, kernel, grid)
    diag = {
        "series": {"hamiltonian_integral": _series(hist.times, h_tot),
                   "s_constraint": _series(hist.times, cons)},
        "summary": {
            "max_s_constraint": float(np.max(cons)),
            "cross_derivative_residual": peakon.cross_derivative_residual(hist, kernel, grid),
            "compatibility_residual": peakon.compatibility_residual(hist, kernel, grid),
        },
    }
    extras = {"fields": (SNAPSHOT_HEADER, partial(peakon_snapshot_csv, hist, kernel, grid))}
    return *_table(hist.times, grid.ds, _peakon_columns(hist)), diag, extras


SNAPSHOT_HEADER = ["t", "s", "m", "nu", "gamma"]


def peakon_snapshot_csv(hist, kernel, grid):
    """Table [t, s, m, nu, gamma] of the fields nu, gamma sampled at the
    first and last stored times, on an m-grid spanning the peakons plus six
    kernel lengths."""
    lo = float(np.min(hist.q)) - 6.0 * kernel.alpha
    hi = float(np.max(hist.q)) + 6.0 * kernel.alpha
    m_grid = np.linspace(lo, hi, 121)
    ends = gstrand.History(hist.times[[0, -1]], q=hist.q[[0, -1]], mw=hist.mw[[0, -1]],
                           nw=hist.nw[[0, -1]])
    # nu, gam: (2, n_s, 121, 1), the two end slices
    nu, gam = (f[..., None] for f in peakon.field_snapshot(ends, kernel, m_grid))
    m = np.broadcast_to(m_grid[:, None], nu.shape)
    return _field_rows(ends.times, grid.ds, [m, nu, gam])


def _drift(name, values):
    """Largest change from values[0]: relative, or absolute (``<name>_abs_drift``)
    when the reference is zero."""
    ref = values[0]
    worst = max(abs(v - ref) for v in values)
    if ref == 0.0:
        return {f"{name}_abs_drift": float(worst)}
    return {f"{name}_rel_drift": float(worst / abs(ref))}


def run_ch_classical(cfg, grid):
    kernel, state = ch_setup(cfg)
    hist = peakon.simulate(state, kernel, grid)
    h_vals, p_vals = [], []
    for k in range(len(hist.times)):
        st = peakon.PeakonState(hist.q[k], hist.mw[k], hist.nw[k])
        h_vals.append(float(peakon.collective_hamiltonian(st, kernel)[0]))
        p_vals.append(float(peakon.total_momentum(st)[0]))
    diag = {
        "series": {"hamiltonian": _series(hist.times, h_vals),
                   "total_momentum": _series(hist.times, p_vals)},
        "summary": {**_drift("hamiltonian", h_vals), **_drift("momentum", p_vals)},
    }
    return *_table(hist.times, grid.ds, _peakon_columns(hist)), diag, {}


def run_verify_action(cfg, grid):
    result = verify_suite(grid)
    rows = [[k, float(v)] for k, v in sorted(result.items())]
    return ["check", "value"], rows, {"series": {}, "summary": result}, {}


def verify_suite(grid) -> dict:
    """Stationarity and consistency checks at one resolution.

    The trajectory is a chiral-Lagrangian linear-representation strand: its
    recovered sigma solves the chiral field equations, and the Clebsch
    section it rides on is the stationary point the action gradient probes.
    """
    rep, lag, state = _verify_chiral_clebsch_state(grid)
    hist = clebsch.linear_strand_simulate(rep, lag, state, grid)
    dt, ds = hist.dt_stored, grid.ds
    fields = linear_history_fields(rep, lag, hist)
    grads = verify.fd_gradient(verify.clebsch_linear_action(rep, lag), fields, dt, ds)
    gnorm = verify.interior_max(grads, dt, ds)

    pfields = {
        "y": fields["v"],
        "p": np.stack([fields["m"], fields["n"]], axis=2),
        "b": np.concatenate([fields["xi"], fields["gam"]], axis=2),
    }
    pres = verify.pontryagin_residual(verify.clebsch_pontryagin_energy(rep, lag), pfields,
                                      (dt, ds))

    hp = verify.hamilton_pontryagin_energy(lambda v: 0.5 * np.sum(v * v, axis=-1))
    n_t = 101
    tgrid = np.arange(n_t) * 0.01
    hp_fields = {"y": tgrid[:, None], "p": np.ones((n_t, 1, 1)), "b": np.ones((n_t, 1))}
    hp_res = verify.pontryagin_residual(hp, hp_fields, (0.01,))

    lag2 = verify.legendre_pair(verify.legendre_pair(lag))
    leg_gap = float(max(np.max(np.abs(lag2.a_t - lag.a_t)), np.max(np.abs(lag2.a_s - lag.a_s))))
    sig_hist = gstrand.History(hist.times, nu=fields["xi"], gamma=fields["gam"])
    lp_gap = verify.lp_ep_gap(rep.alg, lag, sig_hist)

    return {
        "clebsch_gradient_interior_max": gnorm,
        "pontryagin_constraint": pres["constraint"],
        "pontryagin_divergence": pres["divergence"],
        "pontryagin_optimality": pres["optimality"],
        "hp_line_constraint": hp_res["constraint"],
        "hp_line_divergence": hp_res["divergence"],
        "hp_line_optimality": hp_res["optimality"],
        "legendre_involution_gap": leg_gap,
        "lie_poisson_ep_gap": lp_gap,
    }


def _verify_chiral_clebsch_state(grid):
    """Chiral Clebsch data: v and m rotate once along the periodic strand."""
    return _rotating_clebsch(chiral_lagrangian(3), grid, [1.0, 0.0, 0.5], [0.2, 0.9, 0.1], 1)


def linear_history_fields(rep, lag, hist) -> dict:
    """Clebsch section (v, m, n, xi, gam) on the action grid."""
    sig = _linear_sigma_history(rep, lag, hist)
    return {"v": hist.v, "m": hist.m, "n": hist.n, "xi": sig.nu, "gam": sig.gamma}
