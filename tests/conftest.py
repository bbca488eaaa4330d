import numpy as np

from gstrands import clebsch
from gstrands.gstrand import StrandField


def fit_order(residuals):
    """Least-squares slope of log2(residual) against refinement level."""
    residuals = np.asarray(residuals, dtype=float)
    levels = np.arange(len(residuals))
    slope = np.polyfit(levels, np.log2(residuals), 1)[0]
    return -slope


# stacked rotations about e3 by the given angles
rotation_field_z = clebsch.rotation_about_e3


def generic_chiral_field(grid, amplitude=1.0):
    """Smooth so(3) strand data, nu and gamma not parallel, periodic in s."""
    s = grid.s_nodes
    w = 2 * np.pi / grid.s_extent
    nu = amplitude * np.stack([0.8 + 0.3 * np.sin(w * s), 0.2 * np.cos(w * s),
                               0.1 * np.sin(2 * w * s)], axis=1)
    gam = amplitude * np.stack([0.1 * np.cos(w * s), 0.7 - 0.2 * np.sin(w * s),
                                0.3 * np.cos(2 * w * s)], axis=1)
    return StrandField(nu, gam)


SLAVED_FAMILIES = ("peakon", "cdb", "linear", "symm")


def slaved_family(name, grid):
    """One constrained solver family on ``grid``: (module, name of its slaved
    solve in that module, name of its per-step function, initial state,
    simulate(state), step(state))."""
    from gstrands import liealg, peakon
    from gstrands.gstrand import QuadraticLagrangian, chiral_lagrangian
    from gstrands.kernels import HelmholtzKernel
    from gstrands.liealg import hat_so_n

    s = grid.s_nodes
    if name == "peakon":
        kernel = HelmholtzKernel(1.0)
        q0 = np.stack([-1.5 + 0.2 * np.sin(s), 1.5 + 0.2 * np.cos(s)], axis=1)
        m0 = np.stack([1.0 + 0.3 * np.cos(s), 0.8 - 0.24 * np.sin(s)], axis=1)
        return (peakon, "tridiag_solve_sorted", "step",
                peakon.PeakonState(q0, m0, np.zeros_like(q0)),
                lambda st: peakon.simulate(st, kernel, grid),
                lambda st: peakon.step(st, kernel, grid))
    so3 = liealg.builtin("so3")
    if name == "cdb":
        return (clebsch, "solve_cdb_ws", "cdb_step",
                clebsch.cdb_rotating_state(so3, grid, [1.0, 0.4, 0.0], [0.3, 0.2, 0.1]),
                lambda st: clebsch.cdb_simulate(so3, st, grid),
                lambda st: clebsch.cdb_step(so3, st, grid))
    if name == "linear":
        rep, lag = clebsch.defining_rep_so3(so3), chiral_lagrangian(3)
        rot = rotation_field_z(s)
        v = np.einsum("sab,b->sa", rot, [1.0, 0.0, 0.5])
        m = np.einsum("sab,b->sa", rot, [0.2, 0.9, 0.1])
        return (clebsch, "solve_linear_n", "linear_strand_step",
                clebsch.LinearStrandState(v, m, np.zeros_like(v)),
                lambda st: clebsch.linear_strand_simulate(rep, lag, st, grid),
                lambda st: clebsch.linear_strand_step(rep, lag, st, grid))
    lag = QuadraticLagrangian(np.diag([1.0, 2.0, 3.0]), -np.eye(3))
    q = rotation_field_z(0.3 * np.sin(s))
    mw = q @ hat_so_n(3, (0.2 + 0.3 * np.cos(s)[:, None] * [0.5, 0.6, 0.7]) @ lag.a_t.T)
    return (clebsch, "symm_rigid_velocities", "symm_rigid_step",
            clebsch.SymmRigidState(q, mw, np.zeros_like(q)),
            lambda st: clebsch.symm_rigid_simulate(lag, st, grid),
            lambda st: clebsch.symm_rigid_step(lag, st, grid))
