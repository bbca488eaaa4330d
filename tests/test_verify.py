import numpy as np
import pytest
from conftest import fit_order, generic_chiral_field, rotation_field_z
from oracles import assemble, clebsch_adjoint_action, hamiltonian_value

from gstrands import clebsch, gstrand, liealg, verify
from gstrands.errors import DimensionMismatchError
from gstrands.gstrand import QuadraticLagrangian, StrandGrid, chiral_lagrangian
from gstrands.scenarios import linear_history_fields

SO3 = liealg.builtin("so3")
REP3 = clebsch.defining_rep_so3(SO3)
CHIRAL = chiral_lagrangian(3)


QUAD_D = 0.25   # dt and ds of the 4 x 4 grid of the quadratic action


def quadratic_action(a=1.5):
    def integrand(vals, dts, dss):
        return a * vals["x"][..., 0] ** 2

    return integrand


def test_assemble_zero_fields():
    fields = {"x": np.zeros((4, 4, 1))}
    assert assemble(quadratic_action(), fields, QUAD_D, QUAD_D) == 0.0


def test_assemble_constant_field_matches_area():
    # constant field: integrand a x^2 integrates to a x^2 (T L)
    fields = {"x": np.full((4, 4, 1), 3.0)}
    area = (4 - 1) * QUAD_D * 4 * QUAD_D
    assert assemble(quadratic_action(a=2.0), fields, QUAD_D, QUAD_D) \
        == pytest.approx(2.0 * 9.0 * area)


def test_assemble_clebsch_constant_section_is_lagrangian_times_area():
    # constant fields whose velocity annihilates v: the constraint terms
    # vanish identically and only l(xi, gam) survives
    action = verify.clebsch_linear_action(REP3, CHIRAL)
    v0 = np.array([0.0, 0.0, 2.0])
    xi0 = np.array([0.0, 0.0, 0.7])     # parallel: rho(xi) v = xi x v = 0
    gam0 = np.array([0.0, 0.0, -0.4])
    shape = (5, 4, 1)
    fields = {"v": np.tile(v0, shape), "m": np.tile([0.3, 0.1, 0.2], shape),
              "n": np.tile([0.1, 0.5, 0.0], shape),
              "xi": np.tile(xi0, shape), "gam": np.tile(gam0, shape)}
    area = 4 * 0.2 * 4 * 0.3
    l_val = 0.5 * (xi0 @ xi0) - 0.5 * (gam0 @ gam0)
    assert assemble(action, fields, 0.2, 0.3) == pytest.approx(l_val * area, rel=1e-12)


def test_assemble_rotating_wave_matches_analytic_integral():
    # uniformly rotating Clebsch section: the constraints hold with constant
    # (xi, gam), so the assembled value converges to l * area at O(delta^2)
    v0 = np.array([1.0, 0.0, 0.0])
    m0 = np.array([0.0, 0.4, 0.1])
    omega, k = 0.7, 1.0

    def assembled(n):
        n_t, n_s = n + 1, 2 * n
        dt, ds = 1.0 / n, 2 * np.pi / (k * 2 * n)
        t = np.arange(n_t) * dt
        s = np.arange(n_s) * ds
        ang = omega * t[:, None] + k * s[None, :]
        rot = rotation_field_z(ang)
        fields = {
            "v": np.einsum("tsab,b->tsa", rot, v0),
            "m": np.einsum("tsab,b->tsa", rot, m0),
            "n": np.einsum("tsab,b->tsa", rot, 0.5 * m0),
            "xi": np.tile([0.0, 0.0, omega], (n_t, n_s, 1)),
            "gam": np.tile([0.0, 0.0, k], (n_t, n_s, 1)),
        }
        action = verify.clebsch_linear_action(REP3, CHIRAL)
        area = n * dt * n_s * ds
        exact = 0.5 * (omega**2 - k**2) * area
        return abs(assemble(action, fields, dt, ds) - exact)

    e1, e2 = assembled(16), assembled(32)
    assert np.log2(e1 / e2) >= 1.9


def test_fd_gradient_quadratic_exact():
    fields = {"x": np.ones((4, 4, 1))}
    grads = verify.fd_gradient(quadratic_action(a=1.5), fields, QUAD_D, QUAD_D)
    # each interior node sits in 4 cells with weight 1/4 each: d/dx of the
    # nodal sum is 2 a x times the cell area
    interior = grads["x"][1:-1, :, 0]
    assert np.max(np.abs(interior - 2.0 * 1.5 * QUAD_D * QUAD_D)) < 1e-8


def test_fd_gradient_matches_directional_derivative():
    rng = np.random.default_rng(4)

    def integrand(vals, dts, dss):
        u = vals["u"]
        return np.sin(u[..., 0]) * u[..., 1] + dts["u"][..., 0] ** 2 \
            + 0.5 * dss["u"][..., 1] ** 2

    fields = {"u": rng.standard_normal((5, 4, 2))}
    grads = verify.fd_gradient(integrand, fields, 0.2, 0.3)
    direction = rng.standard_normal((5, 4, 2))
    eps = 1e-6
    plus = assemble(integrand, {"u": fields["u"] + eps * direction}, 0.2, 0.3)
    minus = assemble(integrand, {"u": fields["u"] - eps * direction}, 0.2, 0.3)
    directional = (plus - minus) / (2 * eps)
    assert directional == pytest.approx(float(np.sum(grads["u"] * direction)), rel=1e-5)


def chiral_clebsch_run(n_s, dt, t_end=2.0, s_extent=6.4):
    grid = StrandGrid(n_s, s_extent, dt, t_end, store_every=1)
    ang = 2 * np.pi * grid.s_nodes / s_extent
    rot = rotation_field_z(ang)
    v = np.einsum("sab,b->sa", rot, np.array([1.0, 0.0, 0.5]))
    m = np.einsum("sab,b->sa", rot, np.array([0.2, 0.9, 0.1]))
    st = clebsch.LinearStrandState(v, m, np.zeros_like(v))
    hist = clebsch.linear_strand_simulate(REP3, CHIRAL, st, grid)
    return grid, hist


def test_clebsch_action_gradient_orders():
    # interior stationarity of the assembled action at solver trajectories
    errs = []
    for i in range(3):
        grid, hist = chiral_clebsch_run(16 * 2**i, 0.1 / 2**i)
        action = verify.clebsch_linear_action(REP3, CHIRAL)
        fields = linear_history_fields(REP3, CHIRAL, hist)
        grads = verify.fd_gradient(action, fields, hist.dt_stored, grid.ds)
        errs.append(verify.interior_max(grads, hist.dt_stored, grid.ds))
    assert fit_order(errs) >= 1.9


def test_adjoint_action_gradient_orders():
    # same check for the coupled double-bracket trajectory and its action
    errs = []
    for i in range(3):
        grid = StrandGrid(16 * 2**i, 2 * np.pi, 0.05 / 2**i, 1.0, store_every=1)
        st = clebsch.cdb_rotating_state(SO3, grid, [1.0, 0.4, 0.0], [0.3, 0.2, 0.1])
        hist = clebsch.cdb_simulate(SO3, st, grid)
        action = clebsch_adjoint_action(SO3)
        s_t = liealg.bracket(SO3, hist.m, hist.w_t)
        s_s = liealg.bracket(SO3, hist.m, hist.w_s)
        fields = {"m": hist.m, "w_t": hist.w_t, "w_s": hist.w_s,
                  "s_t": s_t, "s_s": s_s}
        grads = verify.fd_gradient(action, fields, hist.dt_stored, grid.ds)
        errs.append(verify.interior_max(grads, hist.dt_stored, grid.ds))
    assert fit_order(errs) >= 1.9


def test_interior_max_keeps_a_nan_gradient():
    assert np.isnan(verify.interior_max({"x": np.full((4, 4, 1), np.nan)}, QUAD_D, QUAD_D))
    # one NaN in one field, after a field of zeros
    grads = {name: np.zeros((5, 4, 3)) for name in ("v", "m", "n", "xi", "gam")}
    grads["gam"][2, 1, 0] = np.nan
    assert np.isnan(verify.interior_max(grads, 0.1, 0.1))


def test_pontryagin_constraint_keeps_a_nan_derivative():
    hp = verify.hamilton_pontryagin_energy(lambda v: 0.5 * np.sum(v * v, axis=-1))
    n_t = 11
    y = (np.arange(n_t) * 0.01)[:, None]
    y[5, 0] = np.nan
    res = verify.pontryagin_residual(hp, {"y": y, "p": np.ones((n_t, 1, 1)),
                                          "b": np.ones((n_t, 1))}, (0.01,))
    assert np.isnan(res["constraint"])
    assert np.isnan(res["divergence"])


def test_pontryagin_hamilton_pontryagin_exact_line():
    # e = p.v - |v|^2/2 on q(t) = t, p = v = 1: all residuals at roundoff
    hp = verify.hamilton_pontryagin_energy(lambda v: 0.5 * np.sum(v * v, axis=-1))
    n_t = 101
    fields = {"y": (np.arange(n_t) * 0.01)[:, None],
              "p": np.ones((n_t, 1, 1)),
              "b": np.ones((n_t, 1))}
    res = verify.pontryagin_residual(hp, fields, (0.01,))
    assert res["constraint"] < 1e-8
    assert res["divergence"] < 1e-8
    assert res["optimality"] < 1e-8


def test_pontryagin_hamilton_phase_space_oscillator():
    # harmonic oscillator H = (q^2 + p^2)/2 on the exact circle: both
    # canonical residuals converge at second order in dt.  e = H(q, p) with
    # no auxiliary bundle (n_b = 0, b = None) is the phase-space principle
    def e_loc(q, p, b):
        p0 = p[..., 0, :]
        return 0.5 * (np.sum(q * q, axis=-1) + np.sum(p0 * p0, axis=-1))

    def residuals(dt):
        t = np.arange(int(round(2.0 / dt)) + 1) * dt
        fields = {"y": np.sin(t)[:, None], "p": np.cos(t)[:, None, None], "b": None}
        return verify.pontryagin_residual(e_loc, fields, (dt,))

    r1, r2 = residuals(0.02), residuals(0.01)
    for key in ("constraint", "divergence"):
        assert np.log2(r1[key] / r2[key]) >= 1.9


def test_pontryagin_clebsch_residual_orders():
    errs = {"constraint": [], "divergence": []}
    for i in range(3):
        grid, hist = chiral_clebsch_run(16 * 2**i, 0.1 / 2**i)
        fields = linear_history_fields(REP3, CHIRAL, hist)
        energy = verify.clebsch_pontryagin_energy(REP3, CHIRAL)
        pf = {"y": fields["v"],
              "p": np.stack([fields["m"], fields["n"]], axis=2),
              "b": np.concatenate([fields["xi"], fields["gam"]], axis=2)}
        res = verify.pontryagin_residual(energy, pf, (hist.dt_stored, grid.ds))
        for key in errs:
            errs[key].append(res[key])
        assert res["optimality"] < 1e-8     # holds by construction of xi, gam
    for key, vals in errs.items():
        assert fit_order(vals) >= 1.9


def test_pontryagin_flags_perturbed_multiplier():
    grid, hist = chiral_clebsch_run(16, 0.1, t_end=1.0)
    fields = linear_history_fields(REP3, CHIRAL, hist)
    energy = verify.clebsch_pontryagin_energy(REP3, CHIRAL)
    pf = {"y": fields["v"],
          "p": np.stack([fields["m"], fields["n"]], axis=2),
          "b": np.concatenate([1.1 * fields["xi"], fields["gam"]], axis=2)}
    res = verify.pontryagin_residual(energy, pf, (hist.dt_stored, grid.ds))
    assert res["optimality"] > 1e-2


def test_gradient_and_pontryagin_track_each_other():
    # the discrete stationarity statements measure the same defect up to a
    # scheme constant; the constant is a measured property of this pairing
    ratios = []
    for i in range(3):
        grid, hist = chiral_clebsch_run(16 * 2**i, 0.1 / 2**i)
        action = verify.clebsch_linear_action(REP3, CHIRAL)
        fields = linear_history_fields(REP3, CHIRAL, hist)
        grads = verify.fd_gradient(action, fields, hist.dt_stored, grid.ds)
        gnorm = verify.interior_max(grads, hist.dt_stored, grid.ds)
        energy = verify.clebsch_pontryagin_energy(REP3, CHIRAL)
        pf = {"y": fields["v"],
              "p": np.stack([fields["m"], fields["n"]], axis=2),
              "b": np.concatenate([fields["xi"], fields["gam"]], axis=2)}
        res = verify.pontryagin_residual(energy, pf, (hist.dt_stored, grid.ds))
        ratios.append(gnorm / max(res["constraint"], res["divergence"]))
    ratios = np.array(ratios)
    # stable across refinements and within the recorded bound (~18 here)
    assert np.max(ratios) / np.min(ratios) < 2.0
    assert np.all((ratios > 1.0 / 32.0) & (ratios < 32.0))


def test_pontryagin_residual_refuses_a_mis_shaped_p():
    hp = verify.hamilton_pontryagin_energy(lambda v: 0.5 * np.sum(v * v, axis=-1))
    n_t = 11
    fields = {"y": np.zeros((n_t, 1)), "p": np.ones((n_t, 2, 1)), "b": np.ones((n_t, 1))}
    with pytest.raises(DimensionMismatchError, match="p must have shape"):
        verify.pontryagin_residual(hp, fields, (0.01,))


def test_pontryagin_residual_without_b_has_zero_optimality():
    # no b, or an empty one: there is no optimality equation to check
    def e_loc(y, p, b):
        return 0.5 * np.sum(p[..., 0, :] ** 2, axis=-1) - np.sum(y, axis=-1)

    t = np.arange(11) * 0.01
    for b in (None, np.zeros((11, 0))):
        fields = {"y": t[:, None], "p": np.ones((11, 1, 1)), "b": b}
        assert verify.pontryagin_residual(e_loc, fields, (0.01,))["optimality"] == 0.0


def test_legendre_pair_identity_inertia():
    dual = verify.legendre_pair(chiral_lagrangian(3))
    nu_t = np.array([1.0, 2.0, 2.0])
    nu_s = np.array([0.0, 3.0, 4.0])
    assert hamiltonian_value(dual, nu_t, nu_s) == pytest.approx(0.5 * 9.0 - 0.5 * 25.0)


def test_legendre_pair_inverse_on_random_points():
    rng = np.random.default_rng(12)
    lag = QuadraticLagrangian(np.diag([1.0, 2.0, 3.0]), np.diag([-1.0, -2.0, -0.5]))
    dual = verify.legendre_pair(lag)
    for _ in range(100):
        xi, gam = rng.standard_normal((2, 3))
        m = xi @ lag.a_t.T
        n = gam @ lag.a_s.T
        xi2, gam2 = m @ dual.a_t.T, n @ dual.a_s.T
        assert np.max(np.abs(xi2 - xi)) < 1e-12
        assert np.max(np.abs(gam2 - gam)) < 1e-12


def test_legendre_involution():
    lag = QuadraticLagrangian(np.diag([1.0, 2.0, 3.0]), np.diag([-2.0, -1.0, -0.5]))
    back = verify.legendre_pair(verify.legendre_pair(lag))
    assert np.max(np.abs(back.a_t - lag.a_t)) < 1e-12
    assert np.max(np.abs(back.a_s - lag.a_s)) < 1e-12


def test_lie_poisson_matches_field_equation_residual_pointwise():
    grid = StrandGrid(32, 2 * np.pi, 5e-3, 0.2, store_every=1)
    lag = QuadraticLagrangian(np.diag([1.0, 2.0, 3.0]), -np.eye(3))
    hist = gstrand.simulate(SO3, lag, generic_chiral_field(grid), grid)
    assert verify.lp_ep_gap(SO3, lag, hist) < 1e-12


def test_action_grid_validation():
    # fd_gradient refuses fields that do not make one (n_t, n_s) grid with
    # n_t >= 3 and an even periodic n_s >= 4 (the parity phases need it)
    refused = {
        "not 3-D": {"x": np.zeros((5, 4))},
        "disagree on (n_t, n_s)": {"x": np.zeros((5, 4, 1)), "y": np.zeros((5, 6, 1))},
        "n_t < 3": {"x": np.zeros((2, 4, 1))},
        "odd n_s": {"x": np.zeros((4, 5, 1))},
        "n_s < 4": {"x": np.zeros((4, 2, 1))},
    }
    for case, fields in refused.items():
        with pytest.raises(DimensionMismatchError):
            verify.fd_gradient(quadratic_action(), fields, 0.1, 0.1)
            pytest.fail(case)


def reference_fd_gradient(integrand, fields, dt, ds):
    """fd_gradient as it was first written: every perturbed evaluation
    rebuilds the cell views of every field."""
    n_t, n_s = next(iter(fields.values())).shape[:2]

    def cells(flds):
        views = {name: verify._cell_views(arr, dt, ds) for name, arr in flds.items()}
        return integrand(*({n: v[i] for n, v in views.items()} for i in range(3)))

    cii, cjj = np.meshgrid(np.arange(n_t - 1), np.arange(n_s), indexing="ij")
    grads = {}
    for name, base in fields.items():
        grad = np.zeros_like(base)
        h_all = verify.FD_SCALE * (1.0 + np.abs(base))
        for comp in range(base.shape[-1]):
            for pa in (0, 1):
                for pb in (0, 1):
                    mask = np.zeros(base.shape[:2])
                    mask[pa::2, pb::2] = 1.0
                    h = h_all[..., comp] * mask
                    fp, fm = base.copy(), base.copy()
                    fp[..., comp] += h
                    fm[..., comp] -= h
                    diff = (cells({**fields, name: fp})
                            - cells({**fields, name: fm})) * (dt * ds)
                    ii = cii + (pa - cii) % 2
                    jj = (cjj + (pb - cjj) % 2) % n_s
                    np.add.at(grad[..., comp], (ii.ravel(), jj.ravel()),
                              (diff / (2.0 * h[ii, jj])).ravel())
        grads[name] = grad
    return grads


@pytest.mark.parametrize("which", ["linear", "adjoint"])
def test_fd_gradient_is_bitwise_the_all_views_reference(which):
    if which == "linear":
        lag = QuadraticLagrangian(np.diag([1.0, 2.0, 3.0]), -np.diag([1.5, 1.0, 0.5]))
        action = verify.clebsch_linear_action(REP3, lag)
        names = ("v", "m", "n", "xi", "gam")
    else:
        action = clebsch_adjoint_action(SO3)
        names = ("m", "w_t", "w_s", "s_t", "s_s")
    rng = np.random.default_rng(12)
    fields = {name: rng.standard_normal((5, 6, 3)) for name in names}
    got = verify.fd_gradient(action, fields, 0.2, 0.3)
    want = reference_fd_gradient(action, fields, 0.2, 0.3)
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name
