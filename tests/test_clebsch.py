import inspect

import numpy as np
import pytest
import scipy.linalg
from conftest import fit_order, rotation_field_z
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (adjoint_rep, cdb_so3_reduced_rhs, classical_ep_trajectory,
                     clebsch_so3_reduced_rhs, dense_c, matrix_basis)
from scipy.integrate import solve_ivp

from gstrands import clebsch, config, gstrand, liealg, scenarios
from gstrands.errors import DimensionMismatchError
from gstrands.gstrand import QuadraticLagrangian, StrandField, StrandGrid, chiral_lagrangian
from gstrands.liealg import hat_so_n, vee_so_n

SO3 = liealg.builtin("so3")
REP3 = clebsch.defining_rep_so3(SO3)

e1, e2, e3 = np.eye(3)


# ---------------------------------------------------------------------------
# diamond map

def test_diamond_defining_rep_example():
    # <v <> p, eta> = p . (eta x v); v = e1, p = e2 gives e3
    out = clebsch.diamond(REP3, e1, e2)
    assert np.allclose(out, e3)


def test_diamond_adjoint_rep_example():
    rep = adjoint_rep(SO3)
    out = clebsch.diamond(rep, e1, e2)
    assert np.allclose(out, e3)


def test_diamond_zero_momentum():
    assert np.allclose(clebsch.diamond(REP3, np.array([1.0, 2.0, 3.0]), np.zeros(3)), 0.0)


def test_diamond_momentum_map_identity_random():
    rng = np.random.default_rng(21)
    reps = [REP3, adjoint_rep(liealg.builtin("soN(4)"))]
    for rep in reps:
        basis = np.eye(rep.alg.dim)
        for _ in range(200):
            v = rng.standard_normal(rep.rep_dim)
            p = rng.standard_normal(rep.rep_dim)
            d = clebsch.diamond(rep, v, p)
            for eta in basis:
                lhs = liealg.pair(rep.alg, d, eta)
                rhs = p @ clebsch.act(rep, eta, v)
                assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def test_diamond_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        clebsch.diamond(REP3, np.zeros(4), np.zeros(3))


def test_representation_property_enforced():
    rho = REP3.rho.copy()
    rho[0][0, 1] += 1e-3
    with pytest.raises(DimensionMismatchError):
        clebsch.LinearRepSpec(SO3, rho)


@pytest.mark.parametrize("shape", [(3, 3, 2), (3, 2, 3), (2, 3, 3), (3, 3), (3,), ()])
def test_rho_of_the_wrong_shape_is_refused(shape):
    with pytest.raises(DimensionMismatchError, match=r"rho must have shape \(dim, n, n\)"):
        clebsch.LinearRepSpec(SO3, np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rho_is_refused(bad):
    rho = REP3.rho.copy()
    rho[1][2, 0] = bad
    with pytest.raises(DimensionMismatchError, match="finite"):
        clebsch.LinearRepSpec(SO3, rho)


def test_complex_rho_is_refused():
    # used to be cast to its real part with a ComplexWarning
    with pytest.raises(DimensionMismatchError, match="rho must be real"):
        clebsch.LinearRepSpec(SO3, REP3.rho + 0.5j)


def test_representation_check_keeps_a_nan_mismatch():
    # finite entries whose commutators overflow: the mismatch is inf - inf = NaN
    # in some rows, which must not read as a perfect representation
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DimensionMismatchError, match="not a representation"):
            clebsch.LinearRepSpec(SO3, 1e300 * REP3.rho)


# ---------------------------------------------------------------------------
# linear-representation strands

def rotating_linear_state(grid, v0=(1.0, 0.0, 0.5), m0=(0.2, 0.9, 0.1), winds=1):
    ang = 2 * np.pi * winds * grid.s_nodes / grid.s_extent
    rot = rotation_field_z(ang)
    v = np.einsum("sab,b->sa", rot, np.asarray(v0))
    m = np.einsum("sab,b->sa", rot, np.asarray(m0))
    return clebsch.LinearStrandState(v, m, np.zeros_like(v))


def test_linear_strand_zero_state_static():
    grid = StrandGrid(16, 2 * np.pi, 1e-2, 0.1)
    lag = chiral_lagrangian(3)
    st = clebsch.LinearStrandState(np.zeros((16, 3)), np.zeros((16, 3)), np.zeros((16, 3)))
    hist = clebsch.linear_strand_simulate(REP3, lag, st, grid)
    assert np.all(hist.v[-1] == 0.0) and np.all(hist.m[-1] == 0.0)


def test_linear_strand_classical_reduction_matches_ep_oracle():
    # s-independent data: the strand collapses to the classical Clebsch pair,
    # whose momentum-map image obeys the reduced equations on the algebra
    lag = QuadraticLagrangian(np.diag([1.0, 2.0, 3.0]), -np.eye(3))
    v0 = np.array([1.0, 0.0, 0.5])
    m0 = np.array([0.2, 0.9, 0.1])
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0, store_every=10)
    st = clebsch.LinearStrandState(np.tile(v0, (8, 1)), np.tile(m0, (8, 1)),
                                   np.zeros((8, 3)))
    hist = clebsch.linear_strand_simulate(REP3, lag, st, grid)
    xi_traj = clebsch.diamond(REP3, hist.v, hist.m) @ lag.a_t_inv.T
    mu0 = clebsch.diamond(REP3, v0, m0)
    _, _, xi_oracle = classical_ep_trajectory(SO3, lag.a_t, mu0, 1e-3, 1.0)
    assert np.max(np.abs(xi_traj[-1, 0] - xi_oracle[-1])) < 1e-6


def test_linear_strand_constraint_drift_second_order():
    lag = chiral_lagrangian(3)

    def drift(i):
        grid = StrandGrid(16 * 2**i, 6.4, 0.05 / 2**i, 0.5, store_every=2**i)
        st = rotating_linear_state(grid)
        hist = clebsch.linear_strand_simulate(REP3, lag, st, grid)
        last = clebsch.LinearStrandState(hist.v[-1], hist.m[-1], hist.n[-1])
        return clebsch.linear_constraint_drift(REP3, lag, last, grid)

    drifts = [drift(i) for i in range(3)]
    # slaved n keeps the consistent part exact; what remains is the
    # roundoff-level inconsistency, already far below O(dt^2 + ds^2)
    assert max(drifts) < 1e-10


def test_linear_strand_momentum_relation_exact():
    lag = chiral_lagrangian(3)
    grid = StrandGrid(16, 6.4, 0.05, 0.2, store_every=1)
    st = rotating_linear_state(grid)
    hist = clebsch.linear_strand_simulate(REP3, lag, st, grid)
    last = clebsch.LinearStrandState(hist.v[-1], hist.m[-1], hist.n[-1])
    xi, gam = clebsch.recover_velocities(REP3, lag, last.v, last.m, last.n)
    assert np.max(np.abs(xi @ lag.a_t.T - clebsch.diamond(REP3, last.v, last.m))) < 1e-12
    assert np.max(np.abs(gam @ lag.a_s.T - clebsch.diamond(REP3, last.v, last.n))) < 1e-12


def test_linear_strand_sigma_solves_field_equations():
    # the recovered sigma of a Clebsch trajectory satisfies the strand
    # field equations at second order
    lag = chiral_lagrangian(3)

    def level(i):
        grid = StrandGrid(16 * 2**i, 6.4, 0.05 / 2**i, 0.5, store_every=1)
        st = rotating_linear_state(grid)
        hist = clebsch.linear_strand_simulate(REP3, lag, st, grid)
        xi = clebsch.diamond(REP3, hist.v, hist.m) @ lag.a_t_inv.T
        gam = clebsch.diamond(REP3, hist.v, hist.n) @ lag.a_s_inv.T
        sig = gstrand.History(hist.times, nu=xi, gamma=gam)
        return gstrand.ep_residual(SO3, lag, sig, grid)

    errs = [level(i) for i in range(3)]
    assert fit_order(errs) >= 1.9


def test_linear_strand_curvature_on_orbit_residual():
    # (d sigma - [sigma, sigma]) v -> 0 along solutions at second order
    lag = chiral_lagrangian(3)

    def level(i):
        grid = StrandGrid(16 * 2**i, 6.4, 0.05 / 2**i, 0.5, store_every=1)
        st = rotating_linear_state(grid)
        hist = clebsch.linear_strand_simulate(REP3, lag, st, grid)
        xi = clebsch.diamond(REP3, hist.v, hist.m) @ lag.a_t_inv.T
        gam = clebsch.diamond(REP3, hist.v, hist.n) @ lag.a_s_inv.T
        dt = hist.dt_stored
        worst = 0.0
        for k in range(1, len(hist.times) - 1):
            dgam_dt = (gam[k + 1] - gam[k - 1]) / (2 * dt)
            dxi_ds = gstrand.d_s(xi[k], grid)
            curv = dgam_dt - dxi_ds - liealg.bracket(SO3, xi[k], gam[k])
            worst = max(worst, np.max(np.abs(clebsch.act(REP3, curv, hist.v[k]))))
        return worst

    errs = [level(i) for i in range(3)]
    assert fit_order(errs) >= 1.9


# verify_action's v0, m0 and one wind over its s_extent 6.4
CLEBSCH_Y0, CLEBSCH_ZETA = [1.0, 0.0, 0.5, 0.2, 0.9, 0.1], 2 * np.pi / 6.4


def _clebsch_rotating_run(grid):
    """(hist, rot): verify_action's Clebsch strand on ``grid`` and the
    rotations R(zeta s) of its gridpoints."""
    rep, lag, st = scenarios._verify_chiral_clebsch_state(grid)
    hist = clebsch.linear_strand_simulate(rep, lag, st, grid)
    return hist, rotation_field_z(CLEBSCH_ZETA * grid.s_nodes)


def _clebsch_reduced_trajectory(zeta, times):
    sol = solve_ivp(clebsch_so3_reduced_rhs(zeta), (0.0, times[-1]), CLEBSCH_Y0,
                    method="DOP853", t_eval=times, rtol=1e-13, atol=1e-14)
    return sol.y.T  # (n_t, 6)


def test_verify_action_clebsch_strand_matches_the_reduced_ode_of_the_grid():
    # verify_action's grid at dt 0.02; RK4 against DOP853 measured 2.9e-8
    # (1.8e-9 at dt 0.01).  n is compared through the slave of the ODE's v.
    grid = StrandGrid(16, 6.4, 0.02, 2.0)
    hist, rot = _clebsch_rotating_run(grid)
    zeta_h = np.sin(CLEBSCH_ZETA * grid.ds) / grid.ds
    y = _clebsch_reduced_trajectory(zeta_h, hist.times)
    v, m = y[:, :3], y[:, 3:]
    n = -zeta_h * np.cross(e3, v) / np.sum(v * v, axis=1)[:, None]
    for field, ref in ((hist.v, v), (hist.m, m), (hist.n, n)):
        assert np.max(np.abs(field - np.einsum("sab,tb->tsa", rot, ref))) <= 1e-7


def test_verify_action_clebsch_strand_keeps_the_rotating_ansatz():
    # max |f(t, s) - R(zeta s) f(t, 0)|, measured at most 9e-15
    grid = StrandGrid(16, 6.4, 0.02, 2.0)
    hist, rot = _clebsch_rotating_run(grid)
    for field in (hist.v, hist.m, hist.n):
        assert np.max(np.abs(field - np.einsum("sab,tb->tsa", rot, field[:, 0]))) <= 1e-13


def test_verify_action_clebsch_strand_converges_at_second_order_in_ds():
    # against the continuum zeta ODE: orders 1.98, 2.00 at n_s 16-64
    errs = []
    for n_s in (16, 32, 64):
        hist, _ = _clebsch_rotating_run(StrandGrid(n_s, 6.4, 0.02, 2.0))
        y = _clebsch_reduced_trajectory(CLEBSCH_ZETA, hist.times[-1:])[-1]
        errs.append(np.max(np.abs(np.concatenate([hist.v[-1, 0], hist.m[-1, 0]]) - y)))
    assert 1.9 <= fit_order(errs) <= 2.1


# ---------------------------------------------------------------------------
# coupled double bracket

def test_cdb_parallel_multipliers_static():
    grid = StrandGrid(16, 2 * np.pi, 1e-3, 0.05)
    m0 = np.tile([1.0, 0.4, 0.0], (16, 1))
    st = clebsch.CDBState(m0, 0.7 * m0, 0.3 * m0)
    hist = clebsch.cdb_simulate(SO3, st, grid)
    assert np.max(np.abs(hist.m[-1] - m0)) == 0.0
    assert np.max(np.abs(hist.w_t[-1] - 0.7 * m0)) == 0.0
    # slaved w_s picks the zero gauge representative and keeps it
    assert np.max(np.abs(hist.w_s[-1])) == 0.0


def test_cdb_norm_conservation():
    grid = StrandGrid(64, 2 * np.pi, 1e-3, 1.0, store_every=100)
    st = clebsch.cdb_rotating_state(SO3, grid, [1.0, 0.4, 0.0], [0.3, 0.2, 0.1])
    hist = clebsch.cdb_simulate(SO3, st, grid)
    norms = np.linalg.norm(hist.m, axis=2)
    assert np.max(np.abs(norms - norms[0])) < 1e-8


def test_cdb_div_sigma_residual_orders():
    def level(i):
        grid = StrandGrid(32 * 2**i, 2 * np.pi, 0.02 / 2**i, 0.4, store_every=1)
        st = clebsch.cdb_rotating_state(SO3, grid, [1.0, 0.4, 0.0], [0.3, 0.2, 0.1])
        hist = clebsch.cdb_simulate(SO3, st, grid)
        return clebsch.cdb_div_sigma_residual(SO3, hist, grid)

    errs = [level(i) for i in range(3)]
    assert fit_order(errs) >= 1.9


def test_cdb_constraint_exact_after_slaving():
    grid = StrandGrid(32, 2 * np.pi, 2e-3, 0.1, store_every=10)
    st = clebsch.cdb_rotating_state(SO3, grid, [1.0, 0.4, 0.0], [0.3, 0.2, 0.1])
    hist = clebsch.cdb_simulate(SO3, st, grid)
    last = clebsch.CDBState(hist.m[-1], hist.w_t[-1], hist.w_s[-1])
    assert clebsch.cdb_constraint_residual(SO3, last, grid) < 1e-12


CDB_Y0 = [1.0, 0.4, 0.0, 0.3, 0.2, 0.1]  # the cdb_so3 defaults m0, wt0


def _cdb_rotating_run(grid):
    """(hist, rot): a cdb_so3 run from the rotating preset on ``grid`` and
    the rotations R(zeta s) of its gridpoints (one wind)."""
    st = clebsch.cdb_rotating_state(SO3, grid, CDB_Y0[:3], CDB_Y0[3:])
    return clebsch.cdb_simulate(SO3, st, grid), rotation_field_z(grid.s_nodes)


def _reduced_trajectory(zeta, times):
    sol = solve_ivp(cdb_so3_reduced_rhs(zeta), (0.0, times[-1]), CDB_Y0, method="DOP853",
                    t_eval=times, rtol=1e-13, atol=1e-14)
    return sol.y.T  # (n_t, 6)


def test_cdb_so3_matches_the_reduced_ode_of_the_grid():
    # the cdb_so3 grid at dt 0.02; RK4 against DOP853 measured 9.7e-11
    grid = StrandGrid(64, 2 * np.pi, 0.02, 1.0)
    hist, rot = _cdb_rotating_run(grid)
    y = _reduced_trajectory(np.sin(grid.ds) / grid.ds, hist.times)
    for field, ref in ((hist.m, y[:, :3]), (hist.w_t, y[:, 3:])):
        assert np.max(np.abs(field - np.einsum("sab,tb->tsa", rot, ref))) <= 1e-9


def test_cdb_so3_keeps_the_rotating_ansatz():
    # max |f(t, s) - R(zeta s) f(t, 0)|, measured 1.6e-11
    grid = StrandGrid(64, 2 * np.pi, 0.02, 1.0)
    hist, rot = _cdb_rotating_run(grid)
    for field in (hist.m, hist.w_t, hist.w_s):
        assert np.max(np.abs(field - np.einsum("sab,tb->tsa", rot, field[:, 0]))) <= 1e-10


def test_cdb_so3_converges_at_second_order_in_ds_to_the_continuum_ode():
    # against zeta itself the grid's zeta_h is off by O(ds^2): orders 1.98, 1.99
    errs = []
    for n_s in (16, 32, 64):
        hist, _ = _cdb_rotating_run(StrandGrid(n_s, 2 * np.pi, 5e-3, 0.5))
        y = _reduced_trajectory(1.0, hist.times[-1:])[-1]
        errs.append(np.max(np.abs(np.concatenate([hist.m[-1, 0], hist.w_t[-1, 0]]) - y)))
    assert 1.9 <= fit_order(errs) <= 2.1


def test_cdb_rotating_state_rejects_bad_axis():
    grid = StrandGrid(16, 2 * np.pi, 1e-3, 0.1)
    with pytest.raises(DimensionMismatchError):
        clebsch.cdb_rotating_state(SO3, grid, [1.0, 0.0, 0.5], [0.1, 0.0, 0.0])


def test_cdb_rotating_state_at_zero_m0_is_finite_and_slaved():
    # m0 = 0 passes the axis check; the preset's w_s is zero, not 0/0
    grid = StrandGrid(16, 2 * np.pi, 1e-2, 0.02)
    with np.errstate(all="raise"):
        st = clebsch.cdb_rotating_state(SO3, grid, [0.0, 0.0, 0.0], [0.3, 0.2, 0.1])
        assert all(np.isfinite(x).all() for x in (st.m, st.w_t, st.w_s))
        hist = clebsch.cdb_simulate(SO3, st, grid)
    assert np.array_equal(hist.w_s[0], np.zeros((16, 3)))


@pytest.mark.parametrize("k_ds", [np.pi / 4, np.pi / 2], ids=["pi/4", "pi/2"])
def test_cdb_grid_mode_grows_at_the_rate_of_the_centered_d_s_symbol(k_ds):
    # The Cauchy problem is of Laplace type: a grid mode cos(k s) of m_3 grows
    # about e^(T sin(k ds)/ds), less about ln 2 (half of it goes into the
    # decaying mode).  Measured ratios 0.886 (growth 591) and 0.923 (1.21e4);
    # on n_s 32 the ln 2 offset weighs more and they read 0.74 and 0.83.
    grid = StrandGrid(64, 2 * np.pi, 2e-3, 1.0, store_every=500)
    base = clebsch.cdb_rotating_state(SO3, grid, [1.0, 0.4, 0.0], [0.3, 0.2, 0.1])
    m = base.m.copy()
    m[:, 2] += 1e-10 * np.cos(k_ds / grid.ds * grid.s_nodes)
    ends = [clebsch.cdb_simulate(SO3, st, grid).m[-1]
            for st in (base, clebsch.CDBState(m, base.w_t, base.w_s))]
    growth = np.max(np.abs(ends[1] - ends[0])) / 1e-10
    ratio = np.log(growth) / (grid.t_end * np.sin(k_ds) / grid.ds)
    assert 0.85 <= ratio <= 0.95, (growth, ratio)


def _pinv_cdb_ws(alg, m, dsm):
    """The general solve_cdb_ws: pinv of -ad_m^2 with the module's cutoff."""
    ad_m = np.einsum("kij,...i->...kj", dense_c(alg), m)
    a = -np.einsum("...ki,...ij->...kj", ad_m, ad_m)
    return np.einsum("...ij,...j->...i", np.linalg.pinv(a, rcond=clebsch.PINV_RCOND), dsm)


def _assert_matches_pinv(m, dsm):
    w = clebsch.solve_cdb_ws(SO3, m, dsm)
    ref = _pinv_cdb_ws(SO3, m, dsm)
    mm = np.sum(m * m, axis=-1)
    scale = np.linalg.norm(dsm, axis=-1) / np.where(mm > 0.0, mm, 1.0)
    assert np.all(np.abs(w - ref) <= 1e-13 * scale[..., None])
    assert np.all(w[mm == 0.0] == 0.0)


_direction = st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.floats(-1.0, -0.01))
_rows = st.tuples(st.tuples(_direction, _direction, _direction), st.integers(-150, 150),
                  st.tuples(_direction, _direction, _direction), st.integers(-150, 150))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_rows, min_size=1, max_size=4))
def test_so3_cdb_ws_closed_form_matches_pinv(rows):
    # scales 1e-150..1e150 for m and d_s m, kept where w itself is a normal float
    for _, e_m, _, e_d in rows:
        assume(abs(e_d - 2 * e_m) <= 250)
    m = np.array([np.array(dm) * 10.0 ** e_m for dm, e_m, _, _ in rows])
    dsm = np.array([np.array(dd) * 10.0 ** e_d for _, _, dd, e_d in rows])
    _assert_matches_pinv(m, dsm)


def test_so3_cdb_ws_is_zero_where_m_is_zero():
    dsm = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [-1e100, 0.0, 1.0], [1e-100, 5.0, 0.0]])
    assert np.all(clebsch.solve_cdb_ws(SO3, np.zeros((4, 3)), dsm) == 0.0)
    _assert_matches_pinv(np.zeros((4, 3)), dsm)


def test_so3_cdb_ws_is_zero_for_d_s_m_parallel_to_m():
    # d_s m in the centralizer of m is pure gauge: the minimum-norm w is 0
    m = np.array([[0.3, -1.2, 0.5], [1e120, 1e119, 0.0], [0.0, 0.0, 2e-140]])
    dsm = np.array([3.0, -3e-130, -5e99])[:, None] * m
    _assert_matches_pinv(m, dsm)
    w = clebsch.solve_cdb_ws(SO3, m, dsm)
    scale = np.linalg.norm(dsm, axis=-1) / np.sum(m * m, axis=-1)
    assert np.all(np.abs(w) <= 1e-13 * scale[:, None])


def test_so3_cdb_ws_mixed_zero_rows():
    m = np.array([[0.0, 0.0, 0.0], [1.0, 0.4, 0.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    dsm = np.array([[1.0, 1.0, 1.0], [0.1, 0.2, 0.3], [0.0, 0.0, 0.0], [0.0, 0.0, 7.0]])
    _assert_matches_pinv(m, dsm)


@pytest.mark.parametrize("m, dsm", [
    ([[1.0, np.inf, 0.0]], [[0.1, 0.2, 0.3]]),
    ([[np.nan, 0.4, 0.0]], [[0.1, 0.2, 0.3]]),
    ([[1.0, 0.4, 0.0]], [[0.1, -np.inf, 0.3]]),
    ([[1.0, 0.4, 0.0]], [[np.nan, 0.2, 0.3]]),
    ([[1e200, 1e200, 0.0]], [[0.1, 0.2, 0.3]]),    # |m|^2 overflows
], ids=["m-inf", "m-nan", "dsm-inf", "dsm-nan", "mm-overflow"])
def test_so3_cdb_ws_refuses_non_finite_input(m, dsm):
    with pytest.raises(np.linalg.LinAlgError):
        clebsch.solve_cdb_ws(SO3, np.array(m), np.array(dsm))


def decision_specs():
    """The builtin so3 and se3, the so(3) constants under another name, and
    doubled so(3) constants named "so3", which are not the Levi-Civita entries."""
    k, i, j, value = SO3.constants
    return {"so3": SO3, "se3": liealg.builtin("se3"),
            "renamed-so3": liealg.LieAlgebraSpec(3, SO3.constants, name="not-so3"),
            "doubled-so3": liealg.LieAlgebraSpec(3, (k, i, j, 2.0 * value), name="so3")}


def test_cdb_ws_closed_form_is_chosen_by_constants_not_name(monkeypatch):
    rng = np.random.default_rng(3)
    m, dsm = rng.standard_normal((2, 8, 3))
    specs = decision_specs()
    renamed, doubled, se3 = specs["renamed-so3"], specs["doubled-so3"], specs["se3"]
    m6, dsm6 = rng.standard_normal((2, 8, 6))
    # the general path, bitwise as before: pinv for every other spec
    assert clebsch.solve_cdb_ws(se3, m6, dsm6).tobytes() == _pinv_cdb_ws(se3, m6, dsm6).tobytes()
    assert (clebsch.solve_cdb_ws(doubled, m, dsm).tobytes()
            == _pinv_cdb_ws(doubled, m, dsm).tobytes())

    def no_pinv(*args, **kwargs):
        raise AssertionError("pinv called")

    monkeypatch.setattr(np.linalg, "pinv", no_pinv)
    assert np.array_equal(clebsch.solve_cdb_ws(renamed, m, dsm), clebsch.solve_cdb_ws(SO3, m, dsm))
    with pytest.raises(AssertionError, match="pinv called"):
        clebsch.solve_cdb_ws(doubled, m, dsm)
    with pytest.raises(AssertionError, match="pinv called"):
        clebsch.solve_cdb_ws(se3, m6, dsm6)


@pytest.mark.parametrize("spec", ["so3", "se3", "renamed-so3", "doubled-so3"])
def test_cdb_run_decides_the_closed_form_once(monkeypatch, spec):
    # the spec decides when it is built (alg.levi_civita); a run compares no
    # constants, and every slave solve of a Levi-Civita spec skips pinv
    alg = decision_specs()[spec]
    closed_form = spec in ("so3", "renamed-so3")
    assert alg.levi_civita is closed_form
    grid = StrandGrid(16, 2 * np.pi, 1e-3, 5e-3)
    m0 = np.zeros((16, alg.dim))
    m0[:, :3] = np.stack([np.cos(grid.s_nodes), np.sin(grid.s_nodes), np.ones(16)], axis=1)
    state = clebsch.CDBState(m0, 0.5 * m0, np.zeros_like(m0))
    solves, pinvs = [], []
    real_solve, real_pinv = clebsch.solve_cdb_ws, np.linalg.pinv

    def no_compare(*args, **kwargs):
        raise AssertionError("constants compared during the run")

    monkeypatch.setattr(np, "array_equal", no_compare)
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **kw: pinvs.append(1) or real_pinv(*a, **kw))
    monkeypatch.setattr(clebsch, "solve_cdb_ws",
                        lambda a, m, dsm: solves.append(a) or real_solve(a, m, dsm))
    clebsch.cdb_simulate(alg, state, grid)
    assert len(solves) == 1 + 4 * grid.n_steps
    assert all(a is alg for a in solves)
    assert len(pinvs) == (0 if closed_form else len(solves))


def test_cdb_slave_solve_takes_no_so3_override():
    # the closed form cannot be forced onto a spec without the Levi-Civita
    # constants: on se3 it would be a wrong w_s, with no error
    assert list(inspect.signature(clebsch.solve_cdb_ws).parameters) == ["alg", "m", "dsm"]
    assert list(inspect.signature(clebsch.cdb_step).parameters) == ["alg", "state", "grid"]


# ---------------------------------------------------------------------------
# symmetric rigid-body representation

RIGID_LAG = QuadraticLagrangian(np.diag([1.0, 2.0, 3.0]), -np.eye(3))


def test_symm_rigid_symmetric_product_static():
    # Q^T M symmetric kills the antisymmetrization: U = V = 0
    grid = StrandGrid(1, 1.0, 1e-2, 0.1)
    q = np.eye(3)[None]
    mw = np.diag([1.0, 2.0, 0.5])[None]       # symmetric => W_t = 0
    st = clebsch.SymmRigidState(q, mw, np.zeros((1, 3, 3)))
    hist = clebsch.symm_rigid_simulate(RIGID_LAG, st, grid)
    assert np.max(np.abs(hist.q[-1] - q)) < 1e-14
    assert np.max(np.abs(hist.mw[-1] - mw)) < 1e-14


def symm_strand_state(grid, amp=0.3):
    s = grid.s_nodes
    q = np.empty((grid.n_s, 3, 3))
    mw = np.empty_like(q)
    for j in range(grid.n_s):
        theta = amp * np.sin(s[j]) * (1.0 + 0.1 * np.arange(3))
        q[j] = scipy.linalg.expm(hat_so_n(3, theta))
        u = 0.2 + amp * np.cos(s[j]) * (0.5 + 0.1 * np.arange(3))
        mw[j] = q[j] @ hat_so_n(3, u @ RIGID_LAG.a_t.T)
    return clebsch.SymmRigidState(q, mw, np.zeros_like(q))


def test_symm_rigid_strand_residual_orders():
    def level(i):
        grid = StrandGrid(24 * 2**i, 2 * np.pi, 0.015 / 2**i, 0.3, store_every=1)
        hist = clebsch.symm_rigid_simulate(RIGID_LAG, symm_strand_state(grid), grid)
        return clebsch.symm_rigid_strand_residual(RIGID_LAG, hist, grid)

    errs = [level(i) for i in range(3)]
    assert fit_order(errs) >= 1.9


def test_symm_rigid_simulate_slaves_initial_nw():
    grid = StrandGrid(16, 2 * np.pi, 1e-2, 0.1)
    st = symm_strand_state(grid)
    hist = clebsch.symm_rigid_simulate(RIGID_LAG, st, grid)
    _, _, nw0 = clebsch.symm_rigid_velocities(RIGID_LAG, st.q, st.mw, gstrand.d_s(st.q, grid))
    assert np.max(np.abs(nw0)) > 0.1
    assert np.array_equal(hist.nw[0], nw0)


def test_symm_rigid_momentum_relation_exact():
    grid = StrandGrid(16, 2 * np.pi, 1e-2, 0.1, store_every=1)
    hist = clebsch.symm_rigid_simulate(RIGID_LAG, symm_strand_state(grid), grid)
    q, mw, nw = hist.q[-1], hist.mw[-1], hist.nw[-1]
    u, v, _ = clebsch.symm_rigid_velocities(RIGID_LAG, q, mw, gstrand.d_s(q, grid))
    # s-momentum relation skew(Q^T N) = A_s V realized by the slaved N
    w_s = hat_so_n(3, vee_so_n(3, v) @ RIGID_LAG.a_s.T)
    assert np.max(np.abs(clebsch._skew(np.swapaxes(q, -1, -2) @ nw) - w_s)) < 1e-12
    # t-momentum relation holds by definition of U
    w_t = hat_so_n(3, vee_so_n(3, u) @ RIGID_LAG.a_t.T)
    assert np.max(np.abs(clebsch._skew(np.swapaxes(q, -1, -2) @ mw) - w_t)) < 1e-12


@pytest.mark.parametrize("amplitude", [0.3, 3.0])
@pytest.mark.parametrize("n_so", [2, 3, 4, 5, 6])
def test_symm_rigid_strand_preset_q_is_the_exponential(n_so, amplitude):
    # the preset's batched eigh exponential against expm, point by point
    cfg = config.parse_config(f"scenario: symm_rigid_soN\nparams: {{n_so: {n_so}}}\n"
                              f"initial: {{preset: strand, amplitude: {amplitude}}}\n")
    grid = scenarios.make_grid(cfg)
    q = scenarios.symm_rigid_setup(cfg, grid)[1].q
    dim = n_so * (n_so - 1) // 2
    phase = 2.0 * np.pi / grid.s_extent * grid.s_nodes
    expected = [scipy.linalg.expm(hat_so_n(n_so, amplitude * np.sin(p) * (1.0 + 0.1 * np.arange(dim))))
                for p in phase]
    assert q.shape == (grid.n_s, n_so, n_so)
    assert np.max(np.abs(q - expected)) <= 1e-13
    assert np.max(np.abs(np.swapaxes(q, 1, 2) @ q - np.eye(n_so))) <= 1e-13
    assert np.max(np.abs(np.linalg.det(q) - 1.0)) <= 1e-13


# ---------------------------------------------------------------------------
# sparse rho tables against the dense einsums they replace

INTEGER_BUILTINS = (["so3", "se3"] + [f"soN({n})" for n in range(3, 9)]
                    + [f"glN({n})" for n in range(2, 5)])
REP_SHAPES = [((), ()), ((5,), (5,)), ((3, 5), (3, 5)), ((), (3, 5))]


def dense_rep_ops(rho, xi, v, p):
    """act, act_dual and diamond as the dense einsums over rho."""
    return (np.einsum("kab,...k,...b->...a", rho, xi, v),
            -np.einsum("kba,...k,...b->...a", rho, xi, p),
            np.einsum("kab,...a,...b->...k", rho, p, v))


def sparse_rep_ops(rep, xi, v, p):
    return clebsch.act(rep, xi, v), clebsch.act_dual(rep, xi, p), clebsch.diamond(rep, v, p)


def rep_inputs(rep, xi_shape, v_shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(xi_shape + (rep.alg.dim,)),
            rng.standard_normal(v_shape + (rep.rep_dim,)),
            rng.standard_normal(v_shape + (rep.rep_dim,)))


@pytest.mark.parametrize("shapes", REP_SHAPES, ids=["point", "batch", "batch2", "broadcast"])
@pytest.mark.parametrize("name", ["defining-so3"] + INTEGER_BUILTINS)
def test_rep_tables_match_dense_einsum(name, shapes):
    if name == "defining-so3":
        rep = REP3
    else:
        rep = adjoint_rep(liealg.builtin(name))
    xi, v, p = rep_inputs(rep, *shapes, seed=len(name))
    got = sparse_rep_ops(rep, xi, v, p)
    want = dense_rep_ops(rep.rho, xi, v, p)
    # per-entry sums of absolute terms (the sign of act_dual's does not matter)
    bound = dense_rep_ops(np.abs(rep.rho), np.abs(xi), np.abs(v), np.abs(p))
    for op, g, w, b in zip(("act", "act_dual", "diamond"), got, want, bound):
        assert g.shape == w.shape
        if name.startswith("glN") and op == "act":
            # einsum sums these rows in an order no sequential sum reproduces
            assert np.all(np.abs(g - w) <= 1e-14 * np.abs(b)), op
        else:
            assert np.array_equal(g, w), op


@pytest.mark.parametrize("shapes", REP_SHAPES, ids=["point", "batch", "batch2", "broadcast"])
def test_rep_tables_non_integer_rep(shapes):
    rng = np.random.default_rng(8)
    s = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    rep = clebsch.LinearRepSpec(SO3, s @ REP3.rho @ np.linalg.inv(s))
    xi, v, p = rep_inputs(rep, *shapes, seed=9)
    got = sparse_rep_ops(rep, xi, v, p)
    want = dense_rep_ops(rep.rho, xi, v, p)
    bound = dense_rep_ops(np.abs(rep.rho), np.abs(xi), np.abs(v), np.abs(p))
    for g, w, b in zip(got, want, bound):
        assert g.shape == w.shape
        assert np.all(np.abs(g - w) <= 1e-14 * np.abs(b))


def rep_dim_cases():
    """Reps whose rep_dim differs from the algebra's dim."""
    gl2 = liealg.builtin("glN(2)")
    return {"glN(2)-on-R2": clebsch.LinearRepSpec(gl2, matrix_basis(gl2)),
            "so3-trivial": clebsch.LinearRepSpec(SO3, np.zeros((3, 1, 1)))}


@pytest.mark.parametrize("shapes", REP_SHAPES, ids=["point", "batch", "batch2", "broadcast"])
@pytest.mark.parametrize("name", ["glN(2)-on-R2", "so3-trivial"])
def test_rep_tables_when_rep_dim_differs_from_dim(name, shapes):
    rep = rep_dim_cases()[name]
    xi, v, p = rep_inputs(rep, *shapes, seed=13)
    got = sparse_rep_ops(rep, xi, v, p)
    want = dense_rep_ops(rep.rho, xi, v, p)
    lead = np.broadcast_shapes(shapes[0], shapes[1])
    for g, w, d in zip(got, want, (rep.rep_dim, rep.rep_dim, rep.alg.dim)):
        assert g.shape == w.shape == lead + (d,)
        assert np.array_equal(g, w)


@pytest.mark.parametrize("op", ["act", "act_dual"])
def test_action_refuses_wrong_coordinate_counts(op):
    fn = getattr(clebsch, op)
    gl2 = rep_dim_cases()["glN(2)-on-R2"]
    for xi, v in ((np.zeros(3), np.zeros(2)), (np.zeros(5), np.zeros(2)),
                  (np.zeros(4), np.zeros(1)), (np.zeros(4), np.zeros(3))):
        with pytest.raises(DimensionMismatchError):
            fn(gl2, xi, v)
