import dataclasses
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg
from conftest import SLAVED_FAMILIES, fit_order, generic_chiral_field, slaved_family
from oracles import ReconstructionRefused, dense_times, reconstruct, to_matrix

from gstrands import clebsch, gstrand, kernels, liealg, peakon
from gstrands.errors import BlowUpError, DimensionMismatchError, NearCollisionError
from gstrands.gstrand import (QuadraticLagrangian, StrandField, StrandGrid,
                              chiral_lagrangian)
from gstrands.kernels import HelmholtzKernel

SO3 = liealg.builtin("so3")
CHIRAL = chiral_lagrangian(3)


def test_grid_validation():
    with pytest.raises(DimensionMismatchError):
        StrandGrid(4, 1.0, 1e-3, 1.0)
    with pytest.raises(DimensionMismatchError):
        StrandGrid(8, 1.0, -1e-3, 1.0)
    with pytest.raises(DimensionMismatchError):
        StrandGrid(8, 1.0, 1e-3, 1.0, bc="reflecting")
    g = StrandGrid(1, 1.0, 1e-3, 1.0)     # classical degenerate mode
    assert g.ds == 1.0


def test_ep_rhs_constant_field_vanishes():
    grid = StrandGrid(16, 2 * np.pi, 1e-3, 1.0)
    xi = np.array([0.4, -0.3, 0.8])
    f = StrandField(np.tile(xi, (16, 1)), np.tile(xi, (16, 1)))
    assert np.max(np.abs(gstrand.ep_rhs(SO3, CHIRAL, f, grid))) < 1e-14


def test_zcc_rhs_commuting_constant_fields():
    grid = StrandGrid(16, 2 * np.pi, 1e-3, 1.0)
    xi = np.array([0.4, -0.3, 0.8])
    f = StrandField(np.tile(xi, (16, 1)), np.tile(2.0 * xi, (16, 1)))
    assert np.max(np.abs(gstrand.zcc_rhs(SO3, f, grid))) < 1e-14


def test_pure_gauge_rates_vanish():
    grid = StrandGrid(32, 2 * np.pi, 1e-3, 1.0)
    xi = np.array([0.0, 0.0, 1.0])
    f = StrandField(np.tile(xi, (32, 1)), np.tile(xi, (32, 1)))
    assert np.max(np.abs(gstrand.zcc_rhs(SO3, f, grid))) < 1e-14
    assert np.max(np.abs(gstrand.ep_rhs(SO3, CHIRAL, f, grid))) < 1e-14


def traveling_wave(grid, t=0.0, width=0.4):
    s = grid.s_nodes
    f = np.exp(width * (np.cos(2 * np.pi * (s + t) / grid.s_extent) - 1.0))
    xi = np.array([0.0, 0.0, 1.0])
    prof = f[:, None] * xi
    return StrandField(prof, prof.copy())


def test_traveling_wave_rhs_matches_exact_rate():
    # U = V = f(s + t) e3 solves dU/dt = dV/ds; the discrete rhs converges
    # to the analytic rate at second order in ds
    errs = []
    for n_s in (64, 128):
        grid = StrandGrid(n_s, 20.0, 1e-3, 1.0)
        f = traveling_wave(grid, width=1.0)
        s = grid.s_nodes
        w = 2 * np.pi / grid.s_extent
        prof = np.exp(1.0 * (np.cos(w * s) - 1.0))
        dfds = -w * np.sin(w * s) * prof
        exact = dfds[:, None] * np.array([0.0, 0.0, 1.0])
        errs.append(np.max(np.abs(gstrand.ep_rhs(SO3, CHIRAL, f, grid) - exact)))
        assert np.max(np.abs(gstrand.zcc_rhs(SO3, f, grid) - exact)) == pytest.approx(
            errs[-1], abs=1e-12)
    assert np.log2(errs[0] / errs[1]) >= 1.9


def test_manufactured_rhs_second_order_in_ds():
    # smooth analytic field with the exact momentum rate inserted
    def residual(n_s):
        grid = StrandGrid(n_s, 2 * np.pi, 1e-3, 1.0)
        s = grid.s_nodes
        nu = np.stack([np.sin(s), np.cos(2 * s), 0.5 * np.sin(3 * s)], axis=1)
        gam = np.stack([np.cos(s), 0.3 * np.sin(2 * s), 0.2 * np.cos(3 * s)], axis=1)
        f = StrandField(nu, gam)
        n = gam @ CHIRAL.a_s.T
        dn_ds = np.stack([-np.sin(s), 0.6 * np.cos(2 * s), -0.6 * np.sin(3 * s)], axis=1) \
            @ CHIRAL.a_s.T
        exact = -dn_ds - liealg.ad_star(SO3, nu, nu) - liealg.ad_star(SO3, gam, n)
        return np.max(np.abs(gstrand.ep_rhs(SO3, CHIRAL, f, grid) - exact))

    errs = [residual(32), residual(64), residual(128)]
    assert fit_order(errs) >= 1.9


def test_zero_field_stays_zero():
    grid = StrandGrid(16, 2 * np.pi, 1e-2, 0.1)
    f = StrandField(np.zeros((16, 3)), np.zeros((16, 3)))
    out = gstrand.step(SO3, CHIRAL, f, grid)
    assert np.all(out.nu == 0.0) and np.all(out.gamma == 0.0)


def test_energy_conservation_against_reference_run():
    # semidiscrete energy is exactly conserved; RK4 leaves only O(dt^4) drift,
    # cross-checked against a dt/10 reference trajectory
    grid = StrandGrid(64, 2 * np.pi, 2e-3, 0.5, store_every=50)
    f0 = generic_chiral_field(grid)
    hist = gstrand.simulate(SO3, CHIRAL, f0, grid)
    e0 = gstrand.hamiltonian_energy(SO3, CHIRAL, f0, grid)
    drift = max(abs(gstrand.hamiltonian_energy(
        SO3, CHIRAL, StrandField(hist.nu[k], hist.gamma[k]), grid) - e0)
        for k in range(len(hist.times))) / abs(e0)
    assert drift < 1e-6

    fine = StrandGrid(64, 2 * np.pi, 2e-4, 0.5, store_every=500)
    ref = gstrand.simulate(SO3, CHIRAL, f0, fine)
    assert np.max(np.abs(ref.nu[-1] - hist.nu[-1])) < 1e-9


def test_rk4_step_matches_richardson_order():
    grid = StrandGrid(32, 2 * np.pi, 0.02, 1.0)
    f0 = generic_chiral_field(grid)

    def advance(dt, steps):
        g = StrandGrid(32, 2 * np.pi, dt, 1.0)
        f = f0
        for _ in range(steps):
            f = gstrand.step(SO3, CHIRAL, f, g)
        return np.concatenate([f.nu.ravel(), f.gamma.ravel()])

    y1 = advance(0.02, 1)
    y2 = advance(0.01, 2)
    y4 = advance(0.005, 4)
    ratio = np.max(np.abs(y1 - y2)) / np.max(np.abs(y2 - y4))
    # successive halved-step differences shrink by 2^4 for a 4th-order method
    assert 3.8 <= np.log2(ratio) <= 4.3


def test_blow_up_detected():
    grid = StrandGrid(16, 2 * np.pi, 1e-2, 0.1)
    f = StrandField(np.full((16, 3), 1e200), np.full((16, 3), 1e200))
    # a library call warns as numpy does; only cli.main silences the overflow
    with pytest.raises(BlowUpError) as exc, pytest.warns(RuntimeWarning):
        gstrand.step(SO3, CHIRAL, f, grid)
    assert (exc.value.step_index, exc.value.t) == (None, None)  # integrate locates


def test_residual_report_orders():
    def level(i):
        grid = StrandGrid(32 * 2**i, 2 * np.pi, 0.02 / 2**i, 0.4, store_every=1)
        hist = gstrand.simulate(SO3, CHIRAL, generic_chiral_field(grid), grid)
        return gstrand.residual_report(SO3, CHIRAL, hist, grid), grid, hist

    reports = [level(i)[0] for i in range(3)]
    assert fit_order([r["ep_residual"] for r in reports]) >= 1.9
    assert fit_order([r["zcc_residual"] for r in reports]) >= 1.9


def test_residual_report_flags_corruption():
    grid = StrandGrid(32, 2 * np.pi, 5e-3, 0.2, store_every=1)
    hist = gstrand.simulate(SO3, CHIRAL, generic_chiral_field(grid), grid)
    bad = gstrand.History(hist.times, nu=hist.nu, gamma=hist.gamma * 1.1)
    assert gstrand.zcc_residual(SO3, bad, grid) > 1e-2


def test_residual_report_pure_gauge_constant():
    grid = StrandGrid(16, 2 * np.pi, 1e-2, 0.1, store_every=1)
    xi = np.array([0.0, 0.0, 1.0])
    f = StrandField(np.tile(xi, (16, 1)), np.tile(xi, (16, 1)))
    hist = gstrand.simulate(SO3, CHIRAL, f, grid)
    rep = gstrand.residual_report(SO3, CHIRAL, hist, grid)
    assert rep["ep_residual"] < 1e-10 and rep["zcc_residual"] < 1e-10


def test_bi_invariance_identity_per_gridpoint():
    grid = StrandGrid(16, 2 * np.pi, 1e-3, 1.0)
    f = generic_chiral_field(grid)
    rng = np.random.default_rng(9)
    eta = rng.standard_normal(3)
    m = f.nu @ CHIRAL.a_t.T
    lhs = liealg.pair(SO3, liealg.ad_star(SO3, f.nu, m), np.tile(eta, (16, 1)))
    rhs = liealg.pair(SO3, m, liealg.bracket(SO3, f.nu, np.tile(eta, (16, 1))))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_reconstruct_constant_generator():
    xi = np.array([0.3, -0.2, 0.9])
    grid = StrandGrid(8, 2 * np.pi, 1e-2, 0.5, store_every=1)
    f = StrandField(np.tile(xi, (8, 1)), np.zeros((8, 3)))
    hist = gstrand.History(
        np.arange(51) * 1e-2,
        nu=np.tile(xi, (51, 8, 1)),
        gamma=np.zeros((51, 8, 3)))
    g, _ = reconstruct(SO3, np.eye(3), hist, grid)
    expected = scipy.linalg.expm(0.5 * to_matrix(SO3, xi))
    assert np.max(np.abs(g[-1] - expected)) < 1e-12


def test_reconstruct_zero_generator_stays_put():
    grid = StrandGrid(8, 2 * np.pi, 1e-2, 0.2, store_every=1)
    f = StrandField(np.zeros((8, 3)), np.zeros((8, 3)))
    hist = gstrand.simulate(SO3, CHIRAL, f, grid)
    g0 = scipy.linalg.expm(to_matrix(SO3, np.array([0.1, 0.2, 0.3])))
    g, _ = reconstruct(SO3, g0, hist, grid)
    assert np.max(np.abs(g[-1] - g0)) < 1e-14


def test_reconstruct_pure_gauge_closed_form():
    # unit generator: one full turn across the periodic strand, so the gauge
    # g = exp((t + s) xi_hat) is single valued
    xi = np.array([0.3, -0.2, 0.9])
    xi /= np.linalg.norm(xi)
    grid = StrandGrid(32, 2 * np.pi, 1e-3, 1.0, store_every=1)
    f = StrandField(np.tile(xi, (32, 1)), np.tile(xi, (32, 1)))
    hist = gstrand.simulate(SO3, CHIRAL, f, grid)
    xihat = to_matrix(SO3, xi)
    g0 = np.array([scipy.linalg.expm(s * xihat) for s in grid.s_nodes])
    g, gamma_mismatch = reconstruct(SO3, g0, hist, grid)
    g_end = np.array([scipy.linalg.expm((1.0 + s) * xihat) for s in grid.s_nodes])
    assert np.max(np.abs(g[-1] - g_end)) < 1e-8
    assert gamma_mismatch < 0.05 * np.max(np.abs(hist.gamma))


def test_reconstruct_refuses_broken_curvature():
    grid = StrandGrid(32, 2 * np.pi, 5e-3, 0.2, store_every=1)
    hist = gstrand.simulate(SO3, CHIRAL, generic_chiral_field(grid), grid)
    bad = gstrand.History(hist.times, nu=hist.nu, gamma=hist.gamma * 1.1)
    with pytest.raises(ReconstructionRefused):
        reconstruct(SO3, np.eye(3), bad, grid)


def test_se3_strand_residual_orders():
    alg = liealg.builtin("se3")
    lag = QuadraticLagrangian(np.diag([1.0, 2, 3, 1, 1, 1]),
                              np.diag([-1.0, -1, -2, -1, -1, -2]))

    def level(i):
        grid = StrandGrid(32 * 2**i, 2 * np.pi, 0.02 / 2**i, 0.4, store_every=1)
        s = grid.s_nodes
        a = 0.2
        nu = a * np.stack([np.sin(s), 0.5 * np.cos(s), 0.2 + 0.1 * np.sin(2 * s),
                           0.3 * np.cos(s), 0.2 * np.sin(s), 0.1 * np.cos(2 * s)], axis=1)
        gam = a * np.stack([0.2 * np.cos(s), 0.3 * np.sin(s), 0.1 * np.cos(2 * s),
                            0.5 + 0.2 * np.sin(s), 0.1 * np.cos(s), 0.2 * np.sin(2 * s)], axis=1)
        hist = gstrand.simulate(alg, lag, StrandField(nu, gam), grid)
        return gstrand.ep_residual(alg, lag, hist, grid)

    errs = [level(i) for i in range(3)]
    assert fit_order(errs) >= 1.9


def _strand_run(grid):
    f0 = generic_chiral_field(grid)
    return f0, gstrand.simulate(SO3, CHIRAL, f0, grid)


def _peakon_run(grid):
    s = grid.s_nodes
    q0 = np.stack([-1.5 + 0.2 * np.sin(s), 1.5 + 0.2 * np.cos(s)], axis=1)
    m0 = np.stack([1.0 + 0.3 * np.cos(s), 0.8 - 0.3 * np.sin(s)], axis=1)
    st = peakon.PeakonState(q0, m0, np.zeros_like(q0))
    return st, peakon.simulate(st, HelmholtzKernel(1.0, 1), grid)


def _linear_run(grid):
    rot = clebsch.rotation_about_e3(grid.s_nodes)
    v = rot @ np.array([1.0, 0.0, 0.5])
    st = clebsch.LinearStrandState(v, rot @ np.array([0.2, 0.9, 0.1]), np.zeros_like(v))
    return st, clebsch.linear_strand_simulate(clebsch.defining_rep_so3(SO3), CHIRAL, st, grid)


def _cdb_run(grid):
    st = clebsch.cdb_rotating_state(SO3, grid, [1.0, 0.4, 0.0], [0.3, 0.2, 0.1])
    return st, clebsch.cdb_simulate(SO3, st, grid)


def _symm_run(grid):
    q = clebsch.rotation_about_e3(0.3 * np.sin(grid.s_nodes))
    st = clebsch.SymmRigidState(q, q @ liealg.hat_so_n(3, [0.2, 0.5, 0.3]), np.zeros_like(q))
    return st, clebsch.symm_rigid_simulate(CHIRAL, st, grid)


@pytest.mark.parametrize("run, evolved", [
    (_strand_run, ("nu", "gamma")),
    (_peakon_run, ("q", "mw")),
    (_linear_run, ("v", "m")),
    (_cdb_run, ("m", "w_t")),
    (_symm_run, ("q", "mw")),
], ids=["strand", "peakon", "linear", "cdb", "symm"])
def test_fixed_bc_freezes_endpoints(run, evolved):
    grid = StrandGrid(16, 2 * np.pi, 1e-2, 0.1, bc="fixed")
    state0, hist = run(grid)
    for name in evolved:
        start = getattr(state0, name)
        assert np.allclose(getattr(hist, name)[-1][[0, -1]], start[[0, -1]], rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_s, bc", [(16, "periodic"), (16, "fixed"), (1, "periodic")],
                         ids=["periodic", "fixed", "n_s=1"])
def test_stacked_d_s_matches_per_slice(n_s, bc):
    grid = StrandGrid(n_s, 2 * np.pi, 1e-2, 0.1, bc=bc)
    stack = np.random.default_rng(0).standard_normal((5, n_s, 3, 2))
    assert np.array_equal(gstrand.d_s(stack, grid, axis=1),
                          np.stack([gstrand.d_s(a, grid) for a in stack]))


def _d_s_reference(arr, grid, axis):
    """d_s through a pair of np.roll copies (periodic) or one-sided ends (fixed)."""
    if grid.n_s == 1:
        return np.zeros_like(arr)
    if grid.bc == "periodic":
        return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * grid.ds)
    a = np.moveaxis(arr, axis, 0)
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - a[:-2]) / (2.0 * grid.ds)
    out[0] = (-3.0 * a[0] + 4.0 * a[1] - a[2]) / (2.0 * grid.ds)
    out[-1] = (3.0 * a[-1] - 4.0 * a[-2] + a[-3]) / (2.0 * grid.ds)
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("n_s, bc", [(8, "periodic"), (9, "periodic"), (64, "periodic"),
                                     (9, "fixed"), (1, "periodic")])
@pytest.mark.parametrize("axis", [0, 1])
def test_d_s_is_bitwise_the_reference_stencil(n_s, bc, axis):
    grid = StrandGrid(n_s, 2 * np.pi, 1e-2, 0.1, bc=bc)
    rng = np.random.default_rng(n_s)
    shape = (n_s, 3, 2) if axis == 0 else (5, n_s, 3)
    arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    ref = _d_s_reference(arr, grid, axis)
    out = gstrand.d_s(arr, grid, axis=axis)
    assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
    # integer input differentiates as its float copy
    ints = rng.integers(-50, 50, shape)
    assert (gstrand.d_s(ints, grid, axis=axis).tobytes()
            == gstrand.d_s(ints.astype(float), grid, axis=axis).tobytes())


def test_residuals_on_fixed_bc_history_match_per_slice_reference():
    grid = StrandGrid(16, 2 * np.pi, 1e-2, 0.1, bc="fixed")
    _, hist = _strand_run(grid)
    dt = hist.dt_stored
    m = hist.nu @ CHIRAL.a_t.T
    n = hist.gamma @ CHIRAL.a_s.T
    ep, zcc = [], []
    for k in range(1, len(hist.times) - 1):
        nu, gam = hist.nu[k], hist.gamma[k]
        ep.append((m[k + 1] - m[k - 1]) / (2.0 * dt)
                  + (gstrand.d_s(n[k], grid) + liealg.ad_star(SO3, nu, m[k])
                     + liealg.ad_star(SO3, gam, n[k])))
        zcc.append((hist.gamma[k + 1] - hist.gamma[k - 1]) / (2.0 * dt)
                   - (gstrand.d_s(nu, grid) + liealg.bracket(SO3, nu, gam)))
    assert gstrand.ep_residual(SO3, CHIRAL, hist, grid) == np.max(np.abs(ep))
    assert gstrand.zcc_residual(SO3, hist, grid) == np.max(np.abs(zcc))


@pytest.mark.parametrize("residual", [
    lambda hist, grid: gstrand.ep_residual(SO3, CHIRAL, hist, grid),
    lambda hist, grid: gstrand.zcc_residual(SO3, hist, grid),
    lambda hist, grid: clebsch.cdb_div_sigma_residual(SO3, hist, grid),
    lambda hist, grid: peakon.cross_derivative_residual(hist, HelmholtzKernel(1.0, 1), grid),
    lambda hist, grid: peakon.compatibility_residual(hist, HelmholtzKernel(1.0, 1), grid),
], ids=["ep", "zcc", "cdb_div_sigma", "cross_derivative", "compatibility"])
def test_residuals_need_three_stored_slices(residual):
    grid = StrandGrid(16, 2 * np.pi, 1e-2, 0.01)
    f0 = generic_chiral_field(grid)

    def twice(a):
        return np.stack([a, a])

    q = np.tile([-1.0, 1.0], (16, 1))
    two = gstrand.History([0.0, 0.01], nu=twice(f0.nu), gamma=twice(f0.gamma),
                          m=twice(f0.nu), w_t=twice(f0.gamma), w_s=twice(f0.gamma),
                          q=twice(q), mw=twice(q), nw=twice(q))
    with pytest.raises(DimensionMismatchError, match="at least 3 stored slices"):
        residual(two, grid)


@pytest.mark.parametrize("a_t, a_s", [(np.diag([0.0, 1.0, 1.0]), -np.eye(3)),
                                      (np.eye(3), np.diag([0.0, -1.0, -1.0]))],
                         ids=["a_t", "a_s"])
def test_singular_inertia_is_a_dimension_error(a_t, a_s):
    with pytest.raises(DimensionMismatchError, match="invertible"):
        QuadraticLagrangian(a_t, a_s)


def _state(n_s=8):
    return clebsch.CDBState(np.ones((n_s, 3)), np.ones((n_s, 3)), np.ones((n_s, 3)))


def _failing_step(k_fail, fail):
    """A step function that calls fail() on its call number k_fail (0-based)."""
    calls = []

    def step(state):
        if len(calls) == k_fail:
            fail()
        calls.append(None)
        return state

    return step


def test_integrate_locates_linalg_error_as_blow_up():
    grid = StrandGrid(8, 2 * np.pi, 0.01, 0.05)
    step = _failing_step(3, lambda: np.linalg.solve(np.zeros((2, 2)), np.ones(2)))
    with pytest.raises(BlowUpError, match="Singular matrix") as exc:
        gstrand.integrate(step, _state(), grid)
    assert exc.value.step_index == 3
    assert exc.value.t == pytest.approx(0.04)


@pytest.mark.parametrize("error, where", [
    (BlowUpError("singular configuration matrix"), (2, 0.03)),
    (NearCollisionError("peakons 0 and 1 crossed", step_index=1, t=0.02), (1, 0.02)),
], ids=["unlocated", "located"])
def test_integrate_locates_solver_errors(error, where):
    grid = StrandGrid(8, 2 * np.pi, 0.01, 0.05)

    def fail():
        raise error

    step = _failing_step(2, fail)
    with pytest.raises(type(error)) as exc:
        gstrand.integrate(step, _state(), grid)
    assert exc.value.step_index == where[0]
    assert exc.value.t == pytest.approx(where[1])


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("SVD did not converge"),
                                   BlowUpError("singular configuration matrix")],
                         ids=["linalg", "unlocated"])
def test_integrate_locates_initial_slave_failure(error):
    grid = StrandGrid(8, 2 * np.pi, 0.01, 0.05)

    def slave(state):
        raise error

    with pytest.raises(BlowUpError) as exc:
        gstrand.integrate(lambda state: state, _state(), grid, slave=slave)
    assert exc.value.step_index is None
    assert exc.value.t == 0.0


# ---------------------------------------------------------------------------
# the slaved step: stage 1 reuses the accepted state's solve

STEPS = 3


def _counting(monkeypatch, module, attr):
    calls = []
    real = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


@pytest.mark.parametrize("family", SLAVED_FAMILIES)
def test_simulate_makes_four_slaved_solves_per_step(monkeypatch, family):
    grid = StrandGrid(16, 2 * np.pi, 5e-3, STEPS * 5e-3)
    module, solve, _, state, simulate, _ = slaved_family(family, grid)
    calls = _counting(monkeypatch, module, solve)
    simulate(state)
    # the initial state once, then stages 2-4 and the accepted state
    assert len(calls) == 1 + 4 * STEPS


@pytest.mark.parametrize("family", SLAVED_FAMILIES)
def test_stage_one_reuse_is_bitwise_a_fresh_solve(family):
    grid = StrandGrid(16, 2 * np.pi, 5e-3, STEPS * 5e-3)
    _, _, _, state, simulate, step = slaved_family(family, grid)
    hist = simulate(state)
    names = [f.name for f in fields(state) if f.name != "aux"]
    st = type(state)(*(getattr(hist, n)[0] for n in names))
    for k in range(STEPS):
        assert st.aux is None  # so step k solves its stage 1 afresh
        st = step(st)
        for n in names:
            assert np.array_equal(getattr(st, n), getattr(hist, n)[k + 1]), (k, n)
        st = dataclasses.replace(st, aux=None)


@pytest.mark.parametrize("family", SLAVED_FAMILIES)
def test_every_slaved_state_states_the_protocol_through_its_base(family):
    # positional fields: the evolved arrays, then the multiplier, each
    # coerced to float; aux is keyword-only and out of repr and equality
    grid = StrandGrid(16, 2 * np.pi, 5e-3, 5e-3)
    state = slaved_family(family, grid)[3]
    cls = type(state)
    assert issubclass(cls, gstrand.SlavedState)
    assert [f.name for f in fields(cls) if f.name != "aux"] == list(cls.__match_args__)
    built = cls(*(np.ones(getattr(state, n).shape, dtype=int) for n in cls.__match_args__))
    assert [getattr(built, n).dtype for n in cls.__match_args__] == [np.float64] * 3
    (aux,) = [f for f in fields(cls) if f.name == "aux"]
    assert (aux.kw_only, aux.repr, aux.compare, aux.default) == (True, False, False, None)


def _counting_inverses(monkeypatch):
    """Calls of helmholtz_1d_inverse from peakon: the exact conditioning
    check and the solve of every slaved stage at n_s > 1."""
    return _counting(monkeypatch, peakon, "helmholtz_1d_inverse")


def test_classical_peakon_n_is_positive_zero_without_a_solve(monkeypatch):
    grid = StrandGrid(1, 1.0, 1e-2, 0.2)
    st = peakon.PeakonState(np.array([[-1.0, 1.0]]), np.array([[0.5, 1.0]]), np.ones((1, 2)))
    checked = _counting(monkeypatch, peakon, "_check_conditioning")
    inverses = _counting_inverses(monkeypatch)
    hist = peakon.simulate(st, HelmholtzKernel(1.0), grid)
    assert np.array_equal(hist.nw, np.zeros_like(hist.nw))
    assert not np.signbit(hist.nw).any()
    # the gap and conditioning checks still run at every slaved solve; far
    # from a collision the bound passes the latter without an inverse, and
    # the zero rhs needs no solve
    assert len(checked) == 1 + 4 * grid.n_steps
    assert len(inverses) == 0


@pytest.mark.parametrize("n_s", [1, 8])
def test_near_a_collision_each_solve_builds_one_inverse(monkeypatch, n_s):
    # a gap of 1e-6 alpha puts the bound for two points at 4e6, which clears
    # every stage with no exact check: each slaved solve at n_s = 8 builds
    # the one inverse it applies, and the classical mode (n_s = 1) builds none
    grid = StrandGrid(n_s, 2 * np.pi, 1e-2, 0.1)
    x = 0.1 * np.sin(grid.s_nodes)[:, None]
    st = peakon.PeakonState(x + [[0.0, 1e-6]], np.ones((n_s, 2)), np.zeros((n_s, 2)))
    inverses = _counting_inverses(monkeypatch)
    hist = peakon.simulate(st, HelmholtzKernel(1.0), grid)
    assert len(inverses) == (1 + 4 * grid.n_steps if n_s > 1 else 0)
    assert np.any(hist.nw != 0.0) == (n_s > 1)


def test_an_s_constant_strand_builds_one_inverse_per_solve(monkeypatch):
    # -d_s Q is all zero, so N is +0, yet each of the slaved solves at
    # n_s = 8 builds its inverse: the solve takes the inverse it would apply
    grid = StrandGrid(8, 2 * np.pi, 1e-2, 0.1)
    st = peakon.PeakonState(np.tile([[-1.0, 1.0]], (8, 1)), np.ones((8, 2)), np.zeros((8, 2)))
    solves = _counting(monkeypatch, peakon, "tridiag_solve_sorted")
    inverses = _counting_inverses(monkeypatch)
    hist = peakon.simulate(st, HelmholtzKernel(1.0), grid)
    assert len(inverses) == len(solves) == 1 + 4 * grid.n_steps
    assert np.array_equal(hist.nw, np.zeros_like(hist.nw)) and not np.signbit(hist.nw).any()


def test_tridiag_solve_of_zero_rhs_is_positive_zero():
    k = HelmholtzKernel(1.0)
    q = np.array([[0.3, -1.0, 2.0], [0.0, 1.0, -2.0]])
    qs = np.sort(q, axis=1)
    gram = kernels.eval(k, qs[..., :, None], qs[..., None, :])
    inverse = kernels.helmholtz_1d_inverse(k, np.diff(qs, axis=1))
    x = kernels.tridiag_solve_sorted(dense_times(gram), inverse, -np.zeros_like(q))
    assert np.array_equal(x, np.zeros_like(q)) and not np.signbit(x).any()

    def never(b):
        raise AssertionError("a zero rhs needs no solve")

    x = kernels._refined_solve(np.full((2, 3, 3), np.nan), never, -np.zeros_like(q))
    assert np.array_equal(x, np.zeros_like(q)) and not np.signbit(x).any()
