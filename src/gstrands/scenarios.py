"""Scenario runners behind the CLI: initial-condition presets, trajectory
rows, diagnostics series and the per-scenario residuals that convergence
studies refine."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from . import clebsch, gstrand, peakon, verify
from .config import ScenarioConfig
from .errors import ConfigValidationError
from .gstrand import QuadraticLagrangian, StrandField, StrandGrid, chiral_lagrangian
from .kernels import HelmholtzKernel
from .liealg import builtin, hat_so_n


def make_grid(cfg: ScenarioConfig) -> StrandGrid:
    g = cfg.grid
    return StrandGrid(g["n_s"], g["s_extent"], g["dt"], g["t_end"], g["bc"], g["store_every"])


def _bump(s, extent, width, winds=1):
    """Smooth periodic bump with unit peak: exp(width * (cos(2 pi w s / L) - 1))."""
    return np.exp(width * (np.cos(2.0 * np.pi * winds * s / extent) - 1.0))


# ---------------------------------------------------------------------------
# initial conditions

def chiral_initial(cfg, grid):
    alg = builtin("so3")
    init = cfg.initial
    s = grid.s_nodes
    if init["preset"] == "traveling_bump":
        xi = np.asarray(init["xi"], dtype=float)
        xi = xi / np.linalg.norm(xi)
        f = init["amplitude"] * _bump(s, grid.s_extent, init["width"], init["winds"])
        nu = f[:, None] * xi
        return alg, StrandField(nu, nu.copy())
    if init["preset"] == "pure_gauge":
        # unit generator: one full turn over s in [0, 2 pi), so the gauge
        # g = exp((t + s) xi_hat) is periodic (trivial holonomy)
        xi = np.asarray(init["xi"], dtype=float)
        xi = xi / np.linalg.norm(xi)
        nu = np.tile(xi, (grid.n_s, 1))
        return alg, StrandField(nu, nu.copy())
    # generic_smooth: non-parallel smooth profiles exercising the brackets
    a = init["amplitude"]
    two_pi = 2.0 * np.pi / grid.s_extent
    nu = a * np.stack([0.8 + 0.3 * np.sin(two_pi * s),
                       0.2 * np.cos(two_pi * s),
                       0.1 * np.sin(2.0 * two_pi * s)], axis=1)
    gam = a * np.stack([0.1 * np.cos(two_pi * s),
                        0.7 - 0.2 * np.sin(two_pi * s),
                        0.3 * np.cos(2.0 * two_pi * s)], axis=1)
    return alg, StrandField(nu, gam)


def se3_initial(cfg, grid):
    alg = builtin("se3")
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
    return alg, StrandField(nu, gam)


def se3_lagrangian(cfg) -> QuadraticLagrangian:
    return QuadraticLagrangian(np.diag(cfg.params["a_t_diag"]),
                               np.diag(cfg.params["a_s_diag"]))


def cdb_initial(cfg, grid):
    alg = builtin("so3")
    init = cfg.initial
    state = clebsch.cdb_rotating_state(alg, grid, init["m0"], init["wt0"], init["winds"])
    return alg, state


def symm_rigid_setup(cfg, grid):
    n_so = cfg.params["n_so"]
    alg = builtin(f"soN({n_so})")
    dim = alg.dim
    a_t = np.diag(cfg.params["a_t_diag"]) if cfg.params["a_t_diag"] else np.diag(
        1.0 + np.arange(dim, dtype=float))
    a_s = np.diag(cfg.params["a_s_diag"]) if cfg.params["a_s_diag"] else -np.eye(dim)
    lag = QuadraticLagrangian(a_t, a_s)
    init = cfg.initial
    if init["preset"] == "classical":
        if grid.n_s != 1:
            raise ConfigValidationError("classical preset needs grid.n_s = 1",
                                        code="out-of-range", field="grid.n_s")
        u0 = np.asarray(init["u0"] if init["u0"] else 0.2 + 0.1 * np.arange(dim), dtype=float)
        w0 = hat_so_n(n_so, u0 @ lag.a_t.T)
        q = np.eye(n_so)[None]
        state = clebsch.SymmRigidState(q, w0[None], np.zeros_like(w0)[None])
        return alg, lag, state
    # strand: smooth rotation field Q(s) with smooth momentum
    s = grid.s_nodes
    amp = init["amplitude"]
    two_pi = 2.0 * np.pi / grid.s_extent
    q = np.empty((grid.n_s, n_so, n_so))
    mw = np.empty_like(q)
    for j in range(grid.n_s):
        theta = amp * np.sin(two_pi * s[j]) * (1.0 + 0.1 * np.arange(dim))
        q[j] = scipy.linalg.expm(hat_so_n(n_so, theta))
        u = 0.2 + amp * np.cos(two_pi * s[j]) * (0.5 + 0.1 * np.arange(dim))
        mw[j] = q[j] @ hat_so_n(n_so, u @ lag.a_t.T)
    state = clebsch.SymmRigidState(q, mw, np.zeros_like(mw))
    return alg, lag, state


def linear_rep_setup(cfg, grid):
    alg = builtin("so3")
    rep = clebsch.defining_rep_so3(alg)
    lag = QuadraticLagrangian(np.diag(cfg.params["a_t_diag"]),
                              np.diag(cfg.params["a_s_diag"]))
    init = cfg.initial
    v0 = np.asarray(init["v0"], dtype=float)
    m0 = np.asarray(init["m0"], dtype=float)
    rot = clebsch.rotation_about_e3(2.0 * np.pi * init["winds"] * grid.s_nodes / grid.s_extent)
    v = np.einsum("sab,b->sa", rot, v0)
    m = np.einsum("sab,b->sa", rot, m0)
    return rep, lag, clebsch.LinearStrandState(v, m, np.zeros_like(v))


def peakon_setup(cfg, grid):
    kernel = HelmholtzKernel(cfg.params["alpha"], dim=1)
    init = cfg.initial
    n_p = cfg.params["n_p"]
    s = grid.s_nodes
    two_pi = 2.0 * np.pi / grid.s_extent
    if init["preset"] == "inline":
        q0 = np.asarray(init["q0"], dtype=float).T
        m0 = np.asarray(init["m0"], dtype=float).T
        if q0.shape != (grid.n_s, n_p) or m0.shape != (grid.n_s, n_p):
            raise ConfigValidationError(
                f"inline q0/m0 must have shape (n_p, n_s) = {(n_p, grid.n_s)}",
                code="bad-type", field="initial.q0")
    elif init["preset"] == "single_peakon":
        q0 = np.zeros((grid.n_s, 1))
        m0 = np.full((grid.n_s, 1), init["m_values"][0])
        n_p = 1
    else:  # two_peakon_wave
        gap, amp = init["gap"], init["amplitude"]
        mv = init["m_values"]
        if n_p != len(mv):
            raise ConfigValidationError("m_values length must equal n_p",
                                        code="bad-type", field="initial.m_values")
        centers = (np.arange(n_p) - (n_p - 1) / 2.0) * gap
        q0 = np.empty((grid.n_s, n_p))
        m0 = np.empty((grid.n_s, n_p))
        for a in range(n_p):
            phase = two_pi * s + a * np.pi / 2.0
            q0[:, a] = centers[a] + amp * np.sin(phase)
            m0[:, a] = mv[a] * (1.0 + 0.3 * np.cos(phase))
    state = peakon.PeakonState(q0, m0, np.zeros_like(q0))
    return kernel, state


def ch_setup(cfg, grid):
    kernel = HelmholtzKernel(cfg.params["alpha"], dim=1)
    q0 = np.asarray(cfg.initial["q0"], dtype=float)[None, :]
    p0 = np.asarray(cfg.initial["p0"], dtype=float)[None, :]
    if q0.shape != p0.shape:
        raise ConfigValidationError("q0 and p0 must have equal length",
                                    code="bad-type", field="initial.p0")
    return kernel, peakon.PeakonState(q0, p0, np.zeros_like(q0))


# ---------------------------------------------------------------------------
# runners: each returns (csv_header, csv_rows, diagnostics_dict)

def _series(times, values):
    return {"t": [float(t) for t in times], "value": [float(v) for v in values]}


def _field_rows(hist, grid, comps):
    rows = []
    for k, t in enumerate(hist.times):
        for j in range(grid.n_s):
            row = [float(t), float(j * grid.ds)]
            for arr in comps:
                row.extend(float(x) for x in np.atleast_1d(arr[k, j]).ravel())
            rows.append(row)
    return rows


def run_gstrand_like(cfg, alg, lag, f0, grid):
    hist = gstrand.simulate(alg, lag, f0, grid)
    energies = [gstrand.hamiltonian_energy(alg, lag, StrandField(hist.nu[k], hist.gamma[k]), grid)
                for k in range(len(hist.times))]
    diag = {
        "series": {"energy": _series(hist.times, energies)},
        "summary": gstrand.residual_report(alg, lag, hist, grid),
    }
    dim = alg.dim
    header = (["t", "s"] + [f"nu{i}" for i in range(dim)] + [f"gamma{i}" for i in range(dim)])
    rows = _field_rows(hist, grid, [hist.nu, hist.gamma])
    return header, rows, diag, hist


def run_chiral(cfg: ScenarioConfig):
    grid = make_grid(cfg)
    alg, f0 = chiral_initial(cfg, grid)
    header, rows, diag, _ = run_gstrand_like(cfg, alg, chiral_lagrangian(3), f0, grid)
    return header, rows, diag


def run_se3(cfg: ScenarioConfig):
    grid = make_grid(cfg)
    alg, f0 = se3_initial(cfg, grid)
    header, rows, diag, _ = run_gstrand_like(cfg, alg, se3_lagrangian(cfg), f0, grid)
    return header, rows, diag


def run_cdb(cfg: ScenarioConfig):
    grid = make_grid(cfg)
    alg, state = cdb_initial(cfg, grid)
    hist = clebsch.cdb_simulate(alg, state, grid)
    norms = np.linalg.norm(hist.m, axis=2)
    drift = [float(np.max(np.abs(norms[k] - norms[0]))) for k in range(len(hist.times))]
    diag = {
        "series": {"m_norm_drift": _series(hist.times, drift)},
        "summary": {
            "div_sigma_residual": clebsch.cdb_div_sigma_residual(alg, hist, grid),
            "constraint_residual": clebsch.cdb_constraint_residual(
                alg, clebsch.CDBState(hist.m[-1], hist.w_t[-1], hist.w_s[-1]), grid),
        },
    }
    header = (["t", "s"] + [f"m{i}" for i in range(3)]
              + [f"wt{i}" for i in range(3)] + [f"ws{i}" for i in range(3)])
    rows = _field_rows(hist, grid, [hist.m, hist.w_t, hist.w_s])
    return header, rows, diag


def run_symm_rigid(cfg: ScenarioConfig):
    grid = make_grid(cfg)
    alg, lag, state = symm_rigid_setup(cfg, grid)
    hist = clebsch.symm_rigid_simulate(alg, lag, state, grid)
    n_so = cfg.params["n_so"]
    diag = {"series": {}, "summary": {}}
    if grid.n_s >= 8:
        diag["summary"]["strand_residual"] = clebsch.symm_rigid_strand_residual(
            alg, lag, hist, grid)
    names = [f"{nm}{i}{j}" for nm in ("Q", "M", "N") for i in range(n_so) for j in range(n_so)]
    header = ["t", "s"] + names
    rows = _field_rows(hist, grid, [hist.q, hist.mw, hist.nw])
    return header, rows, diag


def run_linear_rep(cfg: ScenarioConfig):
    grid = make_grid(cfg)
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
    rd, ad = rep.rep_dim, rep.alg.dim
    header = (["t", "s"] + [f"v{i}" for i in range(rd)] + [f"m{i}" for i in range(rd)]
              + [f"n{i}" for i in range(rd)])
    rows = _field_rows(hist, grid, [hist.v, hist.m, hist.n])
    return header, rows, diag


def _linear_sigma_history(rep, lag, hist):
    """Velocity fields recovered through the momentum map, as a strand History."""
    xi, gam = clebsch.recover_velocities(rep, lag, hist)
    return gstrand.History(hist.times, nu=xi, gamma=gam)


def run_peakon_strand(cfg: ScenarioConfig):
    grid = make_grid(cfg)
    kernel, state = peakon_setup(cfg, grid)
    hist = peakon.simulate(state, kernel, grid)
    h_tot, cons = [], []
    for k in range(len(hist.times)):
        st = peakon.PeakonState(hist.q[k], hist.mw[k], hist.nw[k])
        h_tot.append(float(np.sum(peakon.collective_hamiltonian(st, kernel)) * grid.ds))
        cons.append(peakon.s_constraint_residual(st, kernel, grid))
    diag = {
        "series": {"hamiltonian_integral": _series(hist.times, h_tot),
                   "s_constraint": _series(hist.times, cons)},
        "summary": {
            "max_s_constraint": float(np.max(cons)),
            "cross_derivative_residual": peakon.cross_derivative_residual(hist, kernel, grid),
            "compatibility_residual": peakon.compatibility_residual(hist, kernel, grid),
        },
    }
    header = ["t", "s", "a", "Q", "M", "N"]
    rows = []
    for k, t in enumerate(hist.times):
        for j in range(grid.n_s):
            for a in range(hist.q.shape[2]):
                rows.append([float(t), float(j * grid.ds), a,
                             float(hist.q[k, j, a]), float(hist.mw[k, j, a]),
                             float(hist.nw[k, j, a])])
    extras = {"fields": peakon_snapshot_csv(hist, kernel, grid)}
    return header, rows, diag, extras


def peakon_snapshot_csv(hist, kernel, grid):
    """Field samples nu, gamma at the first and last stored times, on an
    m-grid spanning the peakons plus six kernel lengths."""
    lo = float(np.min(hist.q)) - 6.0 * kernel.alpha
    hi = float(np.max(hist.q)) + 6.0 * kernel.alpha
    m_grid = np.linspace(lo, hi, 121)
    header = ["t", "s", "m", "nu", "gamma"]
    rows = []
    for k in (0, len(hist.times) - 1):
        st = peakon.PeakonState(hist.q[k], hist.mw[k], hist.nw[k])
        nu, gam = peakon.field_snapshot(st, kernel, m_grid)
        t = float(hist.times[k])
        for j in range(grid.n_s):
            for i, m in enumerate(m_grid):
                rows.append([t, float(j * grid.ds), float(m),
                             float(nu[j, i]), float(gam[j, i])])
    return header, rows


def _drift(name, values):
    """Largest change from values[0]: relative, or absolute (``<name>_abs_drift``)
    when the reference is zero."""
    ref = values[0]
    worst = max(abs(v - ref) for v in values)
    if ref == 0.0:
        return {f"{name}_abs_drift": float(worst)}
    return {f"{name}_rel_drift": float(worst / abs(ref))}


def run_ch_classical(cfg: ScenarioConfig):
    grid = make_grid(cfg)
    kernel, state = ch_setup(cfg, grid)
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
    header = ["t", "s", "a", "Q", "M", "N"]
    rows = []
    for k, t in enumerate(hist.times):
        for a in range(hist.q.shape[2]):
            rows.append([float(t), 0.0, a, float(hist.q[k, 0, a]),
                         float(hist.mw[k, 0, a]), float(hist.nw[k, 0, a])])
    return header, rows, diag


def run_verify_action(cfg: ScenarioConfig):
    grid = make_grid(cfg)
    result = verify_suite(cfg, grid)
    header = ["check", "value"]
    rows = [[k, float(v)] for k, v in sorted(result.items())]
    return header, rows, {"series": {}, "summary": result}


def verify_suite(cfg, grid) -> dict:
    """Stationarity and consistency checks at one resolution.

    The trajectory is a chiral-Lagrangian linear-representation strand: its
    recovered sigma solves the chiral field equations, and the Clebsch
    section it rides on is the stationary point the action gradient probes.
    """
    rep, lag, state = _verify_chiral_clebsch_state(grid)
    hist = clebsch.linear_strand_simulate(rep, lag, state, grid)
    agrid = verify.ActionGrid(len(hist.times), hist.dt_stored, grid.n_s, grid.ds)
    action = verify.clebsch_linear_action(rep, lag, agrid)
    fields = linear_history_fields(rep, lag, hist)
    grads = verify.fd_gradient(action, fields)
    gnorm = verify.interior_max(action, grads)

    energy = verify.clebsch_pontryagin_energy(rep, lag)
    pfields = {
        "y": fields["v"],
        "p": np.stack([fields["m"], fields["n"]], axis=2),
        "b": np.concatenate([fields["xi"], fields["gam"]], axis=2),
    }
    pres = verify.pontryagin_residual(energy, pfields, (agrid.dt, agrid.ds))

    hp = verify.hamilton_pontryagin_energy(1, lambda v: 0.5 * np.sum(v * v, axis=-1))
    n_t = 101
    tgrid = np.arange(n_t) * 0.01
    hp_fields = {"y": tgrid[:, None], "p": np.ones((n_t, 1, 1)), "b": np.ones((n_t, 1))}
    hp_res = verify.pontryagin_residual(hp, hp_fields, (0.01,))

    lag2 = verify.legendre_pair(lag).to_lagrangian()
    leg_gap = float(max(np.max(np.abs(lag2.a_t - lag.a_t)), np.max(np.abs(lag2.a_s - lag.a_s))))
    sig_hist = _linear_sigma_history(rep, lag, hist)
    lp_gap = verify.lp_ep_gap(rep.alg, lag, sig_hist, grid)

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
    alg = builtin("so3")
    rep = clebsch.defining_rep_so3(alg)
    lag = chiral_lagrangian(3)
    rot = clebsch.rotation_about_e3(2.0 * np.pi * grid.s_nodes / grid.s_extent)
    v = np.einsum("sab,b->sa", rot, np.array([1.0, 0.0, 0.5]))
    m = np.einsum("sab,b->sa", rot, np.array([0.2, 0.9, 0.1]))
    state = clebsch.LinearStrandState(v, m, np.zeros_like(v))
    return rep, lag, state


def linear_history_fields(rep, lag, hist) -> dict:
    """Clebsch section (v, m, n, xi, gam) on the action grid."""
    sig = _linear_sigma_history(rep, lag, hist)
    return {"v": hist.v, "m": hist.m, "n": hist.n, "xi": sig.nu, "gam": sig.gamma}


RUNNERS = {
    "chiral_so3": run_chiral,
    "se3_strand": run_se3,
    "cdb_so3": run_cdb,
    "symm_rigid_soN": run_symm_rigid,
    "linear_rep": run_linear_rep,
    "peakon_strand": run_peakon_strand,
    "ch_classical": run_ch_classical,
    "verify_action": run_verify_action,
}

# residuals a convergence study refines, keyed by scenario
STUDY_RESIDUALS = {
    "chiral_so3": ("ep_residual", "zcc_residual"),
    "se3_strand": ("ep_residual", "zcc_residual"),
    "cdb_so3": ("div_sigma_residual", "constraint_residual"),
    "symm_rigid_soN": ("strand_residual",),
    "linear_rep": ("constraint_drift", "ep_residual"),
    "peakon_strand": ("cross_derivative_residual", "compatibility_residual"),
    # optimality sits at the finite-difference noise floor from level 0, so
    # only the convergent residuals are refined here
    "verify_action": ("clebsch_gradient_interior_max", "pontryagin_constraint",
                      "pontryagin_divergence"),
}


def run_scenario(cfg: ScenarioConfig):
    """Run one scenario; returns (header, rows, diagnostics, extra_csvs)
    where extra_csvs maps a suffix to (header, rows)."""
    result = RUNNERS[cfg.scenario](cfg)
    if len(result) == 3:
        header, rows, diag = result
        return header, rows, diag, {}
    return result


def study_residuals(cfg: ScenarioConfig, level: int) -> dict:
    """Summary residuals of the scenario at refinement level ``level``
    (dt and ds both divided by 2**level)."""
    if cfg.scenario == "ch_classical":
        raise ConfigValidationError("ch_classical has no refinable residuals",
                                    code="out-of-range", field="scenario")
    factor = 2 ** level
    refined = ScenarioConfig(
        scenario=cfg.scenario, label=cfg.label, output_dir=cfg.output_dir,
        seed=cfg.seed, grid={**cfg.grid,
                             "n_s": cfg.grid["n_s"] * factor,
                             "dt": cfg.grid["dt"] / factor},
        params=cfg.params, initial=cfg.initial, raw=cfg.raw)
    if cfg.scenario == "verify_action":
        grid = make_grid(refined)
        summary = verify_suite(refined, grid)
    else:
        _, _, diag, _ = run_scenario(refined)
        summary = diag["summary"]
    return {k: summary[k] for k in STUDY_RESIDUALS[cfg.scenario]}
