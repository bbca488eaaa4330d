"""Each force term has a physical check that fails when its sign flips.

A flip swaps one family's right-hand side, the module global its step reads
at call time, for a copy of it with one term times ``sign``; at ``sign = 1``
the copy is the module's function bit for bit, which
``test_each_copy_at_plus_one_steps_as_the_module_does`` holds.  Each row
names its check and bound: the check passes as built, and under the flip
the same check fails at its bound.  Where a term vanishes at isotropic
inertia (``skew(Q^T Nw V)`` and ``ad*_gamma n`` on so(3)), the row runs
anisotropic data.  The peakon N-N force has no row yet: the sign the code
gives it is itself in question (the energy law and the Pontryagin
divergence both favour the other one), so its row waits for that fix.
"""

from functools import partial

import numpy as np
import pytest
from conftest import fit_order, generic_chiral_field, rotation_field_z, slaved_family
from oracles import (cdb_so3_reduced_rhs, clebsch_so3_reduced_rhs,
                     symm_rigid_pontryagin_energy, symm_rigid_pontryagin_fields)
from scipy.integrate import solve_ivp

from gstrands import clebsch, config, gstrand, liealg, scenarios, verify
from gstrands.clebsch import act, act_dual, recover_velocities
from gstrands.gstrand import QuadraticLagrangian, StrandField, StrandGrid, d_s
from gstrands.liealg import ad_star, bracket

SO3 = liealg.builtin("so3")


# ---------------------------------------------------------------------------
# the right-hand sides, one term times sign

def symm_rhs(grid, q, mw, aux, sign=1.0):
    """clebsch._symm_rhs with its Nw V term times ``sign``."""
    u_hat, v_hat, nw = aux
    return q @ u_hat, -d_s(nw, grid) + mw @ u_hat + sign * (nw @ v_hat)


def ep_rhs(alg, lag, f, grid, sign=1.0):
    """gstrand.ep_rhs with its ad*_gamma n term times ``sign``."""
    m = f.nu @ lag.a_t.T
    n = f.gamma @ lag.a_s.T
    return -d_s(n, grid) - ad_star(alg, f.nu, m) - sign * ad_star(alg, f.gamma, n)


def linear_rhs(rep, lag, grid, v, m, aux, sign=1.0):
    """clebsch._linear_rhs with its rho*(gamma) n term times ``sign``."""
    (n,) = aux
    xi, gam = recover_velocities(rep, lag, v, m, n)
    return act(rep, xi, v), -d_s(n, grid) + act_dual(rep, xi, m) + sign * act_dual(rep, gam, n)


def cdb_rhs(alg, grid, m, w_t, aux, sign=1.0):
    """clebsch._cdb_rhs with its [sigma_s, w_s] term times ``sign``."""
    (w_s,) = aux
    s_t = bracket(alg, m, w_t)
    s_s = bracket(alg, m, w_s)
    dwt = -d_s(w_s, grid) + bracket(alg, s_t, w_t) + sign * bracket(alg, s_s, w_s)
    return bracket(alg, s_t, m), dwt


# term: (module, the global its step reads, the copy)
TERMS = {
    "symm Nw V": (clebsch, "_symm_rhs", symm_rhs),
    "ep ad*_gamma n": (gstrand, "ep_rhs", ep_rhs),
    "linear rho*(gamma) n": (clebsch, "_linear_rhs", linear_rhs),
    "cdb [sigma_s, w_s]": (clebsch, "_cdb_rhs", cdb_rhs),
}


def flip(monkeypatch, term, sign=-1.0):
    module, name, copy = TERMS[term]
    monkeypatch.setattr(module, name, partial(copy, sign=sign))


# ---------------------------------------------------------------------------
# the checks: each asserts its bound, and its message names what it read

def symm_anisotropic_strand_residual():
    """symm_rigid_soN with a_s_diag [1, 2, 3], where skew(Q^T Nw V) is not 0:
    strand_residual 2.78e-2, 8.02e-3, 2.11e-3 at n_s 16, 32, 64, order 1.86
    (0.287, 0.297, 0.303 flipped).  With the bundled a_s = -I both signs
    read 6.39e-3, 1.74e-3, 4.52e-4, equal to 9 digits."""
    errs = []
    for n_s, dt in ((16, 0.004), (32, 0.002), (64, 0.001)):
        cfg = config.parse_config("scenario: symm_rigid_soN\nparams: {a_s_diag: [1, 2, 3]}\n"
                                  f"grid: {{n_s: {n_s}, dt: {dt}, t_end: 0.5}}\n")
        errs.append(scenarios.run_symm_rigid(cfg, scenarios.make_grid(cfg))[2]["summary"][
            "strand_residual"])
    assert fit_order(errs) >= 1.8, f"strand_residual {errs} order {fit_order(errs):.2f}"


def symm_pontryagin():
    """The bundled symm_rigid_strand at n_s 32 and 64 (dt 0.002 and 0.001,
    every step stored) against the covariant Pontryagin principle:
    divergence 5.26e-7 -> 1.35e-7 (0.22-0.24 flipped, isotropic
    inertia and all), constraint 2.16e-3 -> 5.45e-4, and optimality at the
    FD floor, 1.6e-10 and 1.8e-10, by the construction of U and V."""
    res = []
    for n_s, dt in ((32, 0.002), (64, 0.001)):
        cfg = config.parse_config(f"scenario: symm_rigid_soN\ngrid: {{n_s: {n_s}, dt: {dt}}}\n")
        grid = scenarios.make_grid(cfg)
        lag, state = scenarios.symm_rigid_setup(cfg, grid)
        hist = clebsch.symm_rigid_simulate(lag, state, grid)
        res.append(verify.pontryagin_residual(
            symm_rigid_pontryagin_energy(lag, 3), symm_rigid_pontryagin_fields(lag, hist, grid),
            (hist.dt_stored, grid.ds)))
    for key in ("divergence", "constraint"):
        coarse, fine = res[0][key], res[1][key]
        order = np.log2(coarse / fine)
        assert 1.9 <= order <= 2.1, f"{key} {coarse:.3e} -> {fine:.3e}, order {order:.2f}"
    worst = max(r["optimality"] for r in res)
    assert worst <= 1e-8, f"optimality {worst:.3e}"


def chiral_anisotropic_ep_residual():
    """A chiral so(3) strand with a_t = I, a_s = -diag(1, 2, 3), where
    ad*_gamma n is not 0: ep_residual 1.44e-3, 3.82e-4, 9.67e-5 at n_s 32, 64,
    128, order 1.95 (0.534-0.539 flipped).  At isotropy both signs agree."""
    lag = QuadraticLagrangian(np.eye(3), -np.diag([1.0, 2.0, 3.0]))
    errs = []
    for level, n_s in enumerate((32, 64, 128)):
        grid = StrandGrid(n_s, 2 * np.pi, 0.01 / 2**level, 0.5, store_every=2)
        hist = gstrand.simulate(SO3, lag, generic_chiral_field(grid), grid)
        errs.append(gstrand.ep_residual(SO3, lag, hist, grid))
    assert fit_order(errs) >= 1.9, f"ep_residual {errs} order {fit_order(errs):.2f}"


def se3_energy_law():
    """test_se3_strand_residual_orders' strand at n_s 32: the energy, exact
    for the semidiscretization, drifts 1.9e-10 relative under RK4 at dt 0.02
    (1.5e-3 flipped)."""
    alg = liealg.builtin("se3")
    lag = QuadraticLagrangian(np.diag([1.0, 2, 3, 1, 1, 1]), np.diag([-1.0, -1, -2, -1, -1, -2]))
    grid = StrandGrid(32, 2 * np.pi, 0.02, 0.4)
    s = grid.s_nodes
    nu = 0.2 * np.stack([np.sin(s), 0.5 * np.cos(s), 0.2 + 0.1 * np.sin(2 * s),
                         0.3 * np.cos(s), 0.2 * np.sin(s), 0.1 * np.cos(2 * s)], axis=1)
    gam = 0.2 * np.stack([0.2 * np.cos(s), 0.3 * np.sin(s), 0.1 * np.cos(2 * s),
                          0.5 + 0.2 * np.sin(s), 0.1 * np.cos(s), 0.2 * np.sin(2 * s)], axis=1)
    hist = gstrand.simulate(alg, lag, StrandField(nu, gam), grid)
    energy = gstrand.hamiltonian_energy(alg, lag, hist, grid)
    drift = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    assert drift <= 1e-8, f"energy drift {drift:.3e}"


def _reduced_ode_error(rhs, y0, hist, rot, fields):
    """Max error of the ``fields`` of ``hist`` against R(zeta s) y(t), with
    y the DOP853 solution of the reduced ODE ``rhs`` from ``y0``."""
    y = solve_ivp(rhs, (0.0, hist.times[-1]), y0, method="DOP853", t_eval=hist.times,
                  rtol=1e-13, atol=1e-14).y.T
    return max(float(np.max(np.abs(f - np.einsum("sab,tb->tsa", rot, y[:, 3 * i:3 * i + 3]))))
               for i, f in enumerate(fields))


def linear_reduced_ode():
    """verify_action's Clebsch strand on n_s 16, dt 0.02 against the reduced
    ODE of its grid: 2.9e-8 (2.7 flipped)."""
    grid = StrandGrid(16, 6.4, 0.02, 2.0)
    rep, lag, state = scenarios._verify_chiral_clebsch_state(grid)
    hist = clebsch.linear_strand_simulate(rep, lag, state, grid)
    zeta = 2 * np.pi / 6.4
    err = _reduced_ode_error(clebsch_so3_reduced_rhs(np.sin(zeta * grid.ds) / grid.ds),
                             [1.0, 0.0, 0.5, 0.2, 0.9, 0.1], hist,
                             rotation_field_z(zeta * grid.s_nodes), (hist.v, hist.m))
    assert err <= 1e-7, f"reduced-ODE error {err:.3e}"


def cdb_reduced_ode():
    """cdb_so3's rotating preset on n_s 64, dt 0.02 against the reduced ODE of
    its grid: 9.7e-11 (1.8 flipped)."""
    grid = StrandGrid(64, 2 * np.pi, 0.02, 1.0)
    y0 = [1.0, 0.4, 0.0, 0.3, 0.2, 0.1]
    hist = clebsch.cdb_simulate(SO3, clebsch.cdb_rotating_state(SO3, grid, y0[:3], y0[3:]), grid)
    err = _reduced_ode_error(cdb_so3_reduced_rhs(np.sin(grid.ds) / grid.ds), y0, hist,
                             rotation_field_z(grid.s_nodes), (hist.m, hist.w_t))
    assert err <= 1e-9, f"reduced-ODE error {err:.3e}"


# (term, check, what the failure names)
ROWS = [
    ("symm Nw V", symm_anisotropic_strand_residual, "strand_residual"),
    ("symm Nw V", symm_pontryagin, "divergence"),
    ("ep ad*_gamma n", chiral_anisotropic_ep_residual, "ep_residual"),
    ("ep ad*_gamma n", se3_energy_law, "energy drift"),
    ("linear rho*(gamma) n", linear_reduced_ode, "reduced-ODE error"),
    ("cdb [sigma_s, w_s]", cdb_reduced_ode, "reduced-ODE error"),
]
IDS = [check.__name__ for _, check, _ in ROWS]


@pytest.mark.parametrize("term, check, named", ROWS, ids=IDS)
def test_the_check_holds_as_built(term, check, named):
    check()


@pytest.mark.parametrize("term, check, named", ROWS, ids=IDS)
def test_the_check_fails_under_the_flip(term, check, named, monkeypatch):
    flip(monkeypatch, term)
    with pytest.raises(AssertionError, match=named):
        check()


# the family whose one step exercises each copy
STEPS = {"symm Nw V": "symm", "linear rho*(gamma) n": "linear", "cdb [sigma_s, w_s]": "cdb",
         "ep ad*_gamma n": "strand"}


@pytest.mark.parametrize("term", TERMS)
def test_each_copy_at_plus_one_steps_as_the_module_does(term, monkeypatch):
    # one step with the copy at sign +1 is bitwise the module's: a copy that
    # drifted from the module would flip a stale term
    grid = StrandGrid(16, 2 * np.pi, 0.01, 0.01)
    if STEPS[term] == "strand":
        lag = QuadraticLagrangian(np.eye(3), -np.diag([1.0, 2.0, 3.0]))
        state, step = generic_chiral_field(grid), lambda f: gstrand.step(SO3, lag, f, grid)
    else:
        _, _, _, state, _, step = slaved_family(STEPS[term], grid)
    want = step(state)
    flip(monkeypatch, term, sign=1.0)
    got = step(state)
    for name in want.__match_args__:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
