import numpy as np
import pytest
import scipy.linalg
from conftest import fit_order, rotation_field_z
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gstrands import clebsch, gstrand, liealg
from gstrands.errors import DimensionMismatchError
from gstrands.gstrand import QuadraticLagrangian, StrandField, StrandGrid, chiral_lagrangian
from gstrands.liealg import hat_so_n, vee_so_n

SO3 = liealg.builtin("so3")
REP3 = clebsch.defining_rep_so3(SO3)

e1, e2, e3 = np.eye(3)


# ---------------------------------------------------------------------------
# diamond map

def test_diamond_defining_rep_example():
    # kappa(v <> p, eta) = p . (eta x v); v = e1, p = e2 gives e3
    out = clebsch.diamond(REP3, e1, e2)
    assert np.allclose(out, e3)


def test_diamond_adjoint_rep_example():
    rep = clebsch.adjoint_rep(SO3)
    out = clebsch.diamond(rep, e1, e2)
    assert np.allclose(out, e3)


def test_diamond_zero_momentum():
    assert np.allclose(clebsch.diamond(REP3, np.array([1.0, 2.0, 3.0]), np.zeros(3)), 0.0)


def test_diamond_momentum_map_identity_random():
    rng = np.random.default_rng(21)
    reps = [REP3, clebsch.adjoint_rep(liealg.builtin("soN(4)"))]
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
    rho = np.stack([m.copy() for m in SO3.basis_matrices])
    rho[0][0, 1] += 1e-3
    with pytest.raises(DimensionMismatchError):
        clebsch.LinearRepSpec(SO3, 3, rho)


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
    _, _, xi_oracle = clebsch.classical_ep_trajectory(SO3, lag.a_t, mu0, 1e-3, 1.0)
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
    xi, gam = clebsch.recover_velocities(REP3, lag, last)
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


def test_cdb_rotating_state_rejects_bad_axis():
    grid = StrandGrid(16, 2 * np.pi, 1e-3, 0.1)
    with pytest.raises(DimensionMismatchError):
        clebsch.cdb_rotating_state(SO3, grid, [1.0, 0.0, 0.5], [0.1, 0.0, 0.0])


def _pinv_cdb_ws(alg, m, dsm):
    """The general solve_cdb_ws: pinv of -ad_m^2 with the module's cutoff."""
    ad_m = np.einsum("kij,...i->...kj", alg.c, m)
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


def test_cdb_ws_closed_form_is_chosen_by_constants_not_name(monkeypatch):
    rng = np.random.default_rng(3)
    m, dsm = rng.standard_normal((2, 8, 3))
    renamed = liealg.LieAlgebraSpec(3, SO3.c, np.eye(3), name="not-so3")
    rescaled = liealg.LieAlgebraSpec(3, SO3.c, 2.0 * np.eye(3), name="so3")
    se3 = liealg.builtin("se3")
    m6, dsm6 = rng.standard_normal((2, 8, 6))
    # the general path, bitwise as before: pinv for every other spec
    assert clebsch.solve_cdb_ws(se3, m6, dsm6).tobytes() == _pinv_cdb_ws(se3, m6, dsm6).tobytes()
    assert (clebsch.solve_cdb_ws(rescaled, m, dsm).tobytes()
            == _pinv_cdb_ws(rescaled, m, dsm).tobytes())

    def no_pinv(*args, **kwargs):
        raise AssertionError("pinv called")

    monkeypatch.setattr(np.linalg, "pinv", no_pinv)
    assert np.array_equal(clebsch.solve_cdb_ws(renamed, m, dsm), clebsch.solve_cdb_ws(SO3, m, dsm))
    with pytest.raises(AssertionError, match="pinv called"):
        clebsch.solve_cdb_ws(rescaled, m, dsm)
    with pytest.raises(AssertionError, match="pinv called"):
        clebsch.solve_cdb_ws(se3, m6, dsm6)


# ---------------------------------------------------------------------------
# symmetric rigid-body representation

SO3N = liealg.builtin("soN(3)")
RIGID_LAG = QuadraticLagrangian(np.diag([1.0, 2.0, 3.0]), -np.eye(3))


def test_symm_rigid_symmetric_product_static():
    # Q^T M symmetric kills the antisymmetrization: U = V = 0
    grid = StrandGrid(1, 1.0, 1e-2, 0.1)
    q = np.eye(3)[None]
    mw = np.diag([1.0, 2.0, 0.5])[None]       # symmetric => W_t = 0
    st = clebsch.SymmRigidState(q, mw, np.zeros((1, 3, 3)))
    hist = clebsch.symm_rigid_simulate(SO3N, RIGID_LAG, st, grid)
    assert np.max(np.abs(hist.q[-1] - q)) < 1e-14
    assert np.max(np.abs(hist.mw[-1] - mw)) < 1e-14


def test_symm_rigid_classical_matches_rigid_body_oracle():
    u0 = np.array([0.7, 0.3, 0.5])
    w0 = u0 @ RIGID_LAG.a_t.T
    grid = StrandGrid(1, 1.0, 1e-3, 1.0, store_every=1)
    st = clebsch.SymmRigidState(np.eye(3)[None], hat_so_n(3, w0)[None],
                                np.zeros((1, 3, 3)))
    hist = clebsch.symm_rigid_simulate(SO3N, RIGID_LAG, st, grid)
    u_traj = np.array([
        vee_so_n(3, clebsch._skew(np.swapaxes(hist.q[k], -1, -2) @ hist.mw[k]))[0]
        @ RIGID_LAG.a_t_inv.T
        for k in range(len(hist.times))])
    _, _, u_oracle = clebsch.rigid_body_oracle(SO3N, RIGID_LAG.a_t, w0, 1e-3, 1.0)
    assert np.max(np.abs(u_traj - u_oracle)) < 1e-6


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
        hist = clebsch.symm_rigid_simulate(SO3N, RIGID_LAG, symm_strand_state(grid), grid)
        return clebsch.symm_rigid_strand_residual(SO3N, RIGID_LAG, hist, grid)

    errs = [level(i) for i in range(3)]
    assert fit_order(errs) >= 1.9


def test_symm_rigid_simulate_slaves_initial_nw():
    grid = StrandGrid(16, 2 * np.pi, 1e-2, 0.1)
    st = symm_strand_state(grid)
    hist = clebsch.symm_rigid_simulate(SO3N, RIGID_LAG, st, grid)
    _, _, nw0 = clebsch.symm_rigid_velocities(3, RIGID_LAG, st.q, st.mw, gstrand.d_s(st.q, grid))
    assert np.max(np.abs(nw0)) > 0.1
    assert np.array_equal(hist.nw[0], nw0)


def test_symm_rigid_momentum_relation_exact():
    grid = StrandGrid(16, 2 * np.pi, 1e-2, 0.1, store_every=1)
    hist = clebsch.symm_rigid_simulate(SO3N, RIGID_LAG, symm_strand_state(grid), grid)
    q, mw, nw = hist.q[-1], hist.mw[-1], hist.nw[-1]
    u, v, _ = clebsch.symm_rigid_velocities(3, RIGID_LAG, q, mw, gstrand.d_s(q, grid))
    # s-momentum relation skew(Q^T N) = A_s V realized by the slaved N
    w_s = hat_so_n(3, vee_so_n(3, v) @ RIGID_LAG.a_s.T)
    assert np.max(np.abs(clebsch._skew(np.swapaxes(q, -1, -2) @ nw) - w_s)) < 1e-12
    # t-momentum relation holds by definition of U
    w_t = hat_so_n(3, vee_so_n(3, u) @ RIGID_LAG.a_t.T)
    assert np.max(np.abs(clebsch._skew(np.swapaxes(q, -1, -2) @ mw) - w_t)) < 1e-12


# ---------------------------------------------------------------------------
# sparse rho tables against the dense einsums they replace

INTEGER_BUILTINS = (["so3", "se3"] + [f"soN({n})" for n in range(3, 9)]
                    + [f"glN({n})" for n in range(2, 5)])
REP_SHAPES = [((), ()), ((5,), (5,)), ((3, 5), (3, 5)), ((), (3, 5))]


def dense_rep_ops(rho, kappa_inv, xi, v, p):
    """act, act_dual and diamond as the dense einsums over rho."""
    return (np.einsum("kab,...k,...b->...a", rho, xi, v),
            -np.einsum("kba,...k,...b->...a", rho, xi, p),
            np.einsum("kab,...a,...b->...k", rho, p, v) @ kappa_inv)


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
        rep = clebsch.adjoint_rep(liealg.builtin(name))
    xi, v, p = rep_inputs(rep, *shapes, seed=len(name))
    got = sparse_rep_ops(rep, xi, v, p)
    want = dense_rep_ops(rep.rho, rep.alg.kappa_inv, xi, v, p)
    # per-entry sums of absolute terms (the sign of act_dual's does not matter)
    bound = dense_rep_ops(np.abs(rep.rho), np.abs(rep.alg.kappa_inv), np.abs(xi), np.abs(v),
                          np.abs(p))
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
    rep = clebsch.LinearRepSpec(SO3, 3, s @ REP3.rho @ np.linalg.inv(s))
    xi, v, p = rep_inputs(rep, *shapes, seed=9)
    got = sparse_rep_ops(rep, xi, v, p)
    want = dense_rep_ops(rep.rho, rep.alg.kappa_inv, xi, v, p)
    bound = dense_rep_ops(np.abs(rep.rho), np.abs(rep.alg.kappa_inv), np.abs(xi), np.abs(v),
                          np.abs(p))
    for g, w, b in zip(got, want, bound):
        assert g.shape == w.shape
        assert np.all(np.abs(g - w) <= 1e-14 * np.abs(b))
