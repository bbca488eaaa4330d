import numpy as np
import pytest
from conftest import fit_order, rotation_field_z

from gstrands import clebsch, gstrand, liealg, verify
from gstrands.gstrand import QuadraticLagrangian, StrandGrid, chiral_lagrangian
from gstrands.scenarios import linear_history_fields

SO3 = liealg.builtin("so3")
REP3 = clebsch.defining_rep_so3(SO3)
CHIRAL = chiral_lagrangian(3)


def quadratic_action(a=1.5):
    grid = verify.ActionGrid(4, 0.25, 4, 0.25)
    spec = (verify.FieldSpec("x", 1),)

    def integrand(tt, ss, vals, dts, dss):
        return a * vals["x"][..., 0] ** 2

    return verify.DiscreteAction(grid, spec, integrand), grid


def test_assemble_zero_fields():
    action, grid = quadratic_action()
    fields = {"x": np.zeros((4, 4, 1))}
    assert verify.assemble(action, fields) == 0.0


def test_assemble_constant_field_matches_area():
    # constant field: integrand a x^2 integrates to a x^2 (T L)
    action, grid = quadratic_action(a=2.0)
    fields = {"x": np.full((4, 4, 1), 3.0)}
    area = (grid.n_t - 1) * grid.dt * grid.n_s * grid.ds
    assert verify.assemble(action, fields) == pytest.approx(2.0 * 9.0 * area)


def test_assemble_clebsch_constant_section_is_lagrangian_times_area():
    # constant fields whose velocity annihilates v: the constraint terms
    # vanish identically and only l(xi, gam) survives
    agrid = verify.ActionGrid(5, 0.2, 4, 0.3)
    action = verify.clebsch_linear_action(REP3, CHIRAL, agrid)
    v0 = np.array([0.0, 0.0, 2.0])
    xi0 = np.array([0.0, 0.0, 0.7])     # parallel: rho(xi) v = xi x v = 0
    gam0 = np.array([0.0, 0.0, -0.4])
    shape = (5, 4, 1)
    fields = {"v": np.tile(v0, shape), "m": np.tile([0.3, 0.1, 0.2], shape),
              "n": np.tile([0.1, 0.5, 0.0], shape),
              "xi": np.tile(xi0, shape), "gam": np.tile(gam0, shape)}
    area = 4 * 0.2 * 4 * 0.3
    l_val = 0.5 * (xi0 @ xi0) - 0.5 * (gam0 @ gam0)
    assert verify.assemble(action, fields) == pytest.approx(l_val * area, rel=1e-12)


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
        agrid = verify.ActionGrid(n_t, dt, n_s, ds)
        action = verify.clebsch_linear_action(REP3, CHIRAL, agrid)
        area = n * dt * n_s * ds
        exact = 0.5 * (omega**2 - k**2) * area
        return abs(verify.assemble(action, fields) - exact)

    e1, e2 = assembled(16), assembled(32)
    assert np.log2(e1 / e2) >= 1.9


def test_fd_gradient_quadratic_exact():
    action, grid = quadratic_action(a=1.5)
    fields = {"x": np.ones((4, 4, 1))}
    grads = verify.fd_gradient(action, fields)
    # each interior node sits in 4 cells with weight 1/4 each: d/dx of the
    # nodal sum is 2 a x times the cell area
    interior = grads["x"][1:-1, :, 0]
    assert np.max(np.abs(interior - 2.0 * 1.5 * grid.dt * grid.ds)) < 1e-8


def test_fd_gradient_matches_directional_derivative():
    rng = np.random.default_rng(4)
    grid = verify.ActionGrid(5, 0.2, 4, 0.3)
    spec = (verify.FieldSpec("u", 2),)

    def integrand(tt, ss, vals, dts, dss):
        u = vals["u"]
        return np.sin(u[..., 0]) * u[..., 1] + dts["u"][..., 0] ** 2 \
            + 0.5 * dss["u"][..., 1] ** 2

    action = verify.DiscreteAction(grid, spec, integrand)
    fields = {"u": rng.standard_normal((5, 4, 2))}
    grads = verify.fd_gradient(action, fields)
    direction = rng.standard_normal((5, 4, 2))
    eps = 1e-6
    plus = verify.assemble(action, {"u": fields["u"] + eps * direction})
    minus = verify.assemble(action, {"u": fields["u"] - eps * direction})
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
    agrid = verify.ActionGrid(len(hist.times), hist.dt_stored, grid.n_s, grid.ds)
    return grid, hist, agrid


def test_clebsch_action_gradient_orders():
    # interior stationarity of the assembled action at solver trajectories
    errs = []
    for i in range(3):
        grid, hist, agrid = chiral_clebsch_run(16 * 2**i, 0.1 / 2**i)
        action = verify.clebsch_linear_action(REP3, CHIRAL, agrid)
        fields = linear_history_fields(REP3, CHIRAL, hist)
        errs.append(verify.interior_max(action, verify.fd_gradient(action, fields)))
    assert fit_order(errs) >= 1.9


def test_adjoint_action_gradient_orders():
    # same check for the coupled double-bracket trajectory and its action
    errs = []
    for i in range(3):
        grid = StrandGrid(16 * 2**i, 2 * np.pi, 0.05 / 2**i, 1.0, store_every=1)
        st = clebsch.cdb_rotating_state(SO3, grid, [1.0, 0.4, 0.0], [0.3, 0.2, 0.1])
        hist = clebsch.cdb_simulate(SO3, st, grid)
        agrid = verify.ActionGrid(len(hist.times), hist.dt_stored, grid.n_s, grid.ds)
        action = verify.clebsch_adjoint_action(SO3, agrid)
        s_t = liealg.bracket(SO3, hist.m, hist.w_t)
        s_s = liealg.bracket(SO3, hist.m, hist.w_s)
        fields = {"m": hist.m, "w_t": hist.w_t, "w_s": hist.w_s,
                  "s_t": s_t, "s_s": s_s}
        errs.append(verify.interior_max(action, verify.fd_gradient(action, fields)))
    assert fit_order(errs) >= 1.9


def test_pontryagin_hamilton_pontryagin_exact_line():
    # e = p.v - |v|^2/2 on q(t) = t, p = v = 1: all residuals at roundoff
    hp = verify.hamilton_pontryagin_energy(1, lambda v: 0.5 * np.sum(v * v, axis=-1))
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
    # canonical residuals converge at second order in dt
    energy = verify.hamilton_phase_energy(
        1, lambda q, p: 0.5 * (np.sum(q * q, axis=-1) + np.sum(p * p, axis=-1)))

    def residuals(dt):
        t = np.arange(int(round(2.0 / dt)) + 1) * dt
        fields = {"y": np.sin(t)[:, None], "p": np.cos(t)[:, None, None], "b": None}
        return verify.pontryagin_residual(energy, fields, (dt,))

    r1, r2 = residuals(0.02), residuals(0.01)
    for key in ("constraint", "divergence"):
        assert np.log2(r1[key] / r2[key]) >= 1.9


def test_pontryagin_clebsch_residual_orders():
    errs = {"constraint": [], "divergence": []}
    for i in range(3):
        grid, hist, agrid = chiral_clebsch_run(16 * 2**i, 0.1 / 2**i)
        fields = linear_history_fields(REP3, CHIRAL, hist)
        energy = verify.clebsch_pontryagin_energy(REP3, CHIRAL)
        pf = {"y": fields["v"],
              "p": np.stack([fields["m"], fields["n"]], axis=2),
              "b": np.concatenate([fields["xi"], fields["gam"]], axis=2)}
        res = verify.pontryagin_residual(energy, pf, (agrid.dt, agrid.ds))
        for key in errs:
            errs[key].append(res[key])
        assert res["optimality"] < 1e-8     # holds by construction of xi, gam
    for key, vals in errs.items():
        assert fit_order(vals) >= 1.9


def test_pontryagin_flags_perturbed_multiplier():
    grid, hist, agrid = chiral_clebsch_run(16, 0.1, t_end=1.0)
    fields = linear_history_fields(REP3, CHIRAL, hist)
    energy = verify.clebsch_pontryagin_energy(REP3, CHIRAL)
    pf = {"y": fields["v"],
          "p": np.stack([fields["m"], fields["n"]], axis=2),
          "b": np.concatenate([1.1 * fields["xi"], fields["gam"]], axis=2)}
    res = verify.pontryagin_residual(energy, pf, (agrid.dt, agrid.ds))
    assert res["optimality"] > 1e-2


def test_gradient_and_pontryagin_track_each_other():
    # the discrete stationarity statements measure the same defect up to a
    # scheme constant; the constant is a measured property of this pairing
    ratios = []
    for i in range(3):
        grid, hist, agrid = chiral_clebsch_run(16 * 2**i, 0.1 / 2**i)
        action = verify.clebsch_linear_action(REP3, CHIRAL, agrid)
        fields = linear_history_fields(REP3, CHIRAL, hist)
        gnorm = verify.interior_max(action, verify.fd_gradient(action, fields))
        energy = verify.clebsch_pontryagin_energy(REP3, CHIRAL)
        pf = {"y": fields["v"],
              "p": np.stack([fields["m"], fields["n"]], axis=2),
              "b": np.concatenate([fields["xi"], fields["gam"]], axis=2)}
        res = verify.pontryagin_residual(energy, pf, (agrid.dt, agrid.ds))
        ratios.append(gnorm / max(res["constraint"], res["divergence"]))
    ratios = np.array(ratios)
    # stable across refinements and within the recorded bound (~18 here)
    assert np.max(ratios) / np.min(ratios) < 2.0
    assert np.all((ratios > 1.0 / 32.0) & (ratios < 32.0))


def test_legendre_pair_identity_inertia():
    ham = verify.legendre_pair(chiral_lagrangian(3))
    nu_t = np.array([1.0, 2.0, 2.0])
    nu_s = np.array([0.0, 3.0, 4.0])
    assert ham.value(nu_t, nu_s) == pytest.approx(0.5 * 9.0 - 0.5 * 25.0)


def test_legendre_pair_inverse_on_random_points():
    rng = np.random.default_rng(12)
    lag = QuadraticLagrangian(np.diag([1.0, 2.0, 3.0]), np.diag([-1.0, -2.0, -0.5]))
    ham = verify.legendre_pair(lag)
    for _ in range(100):
        xi, gam = rng.standard_normal((2, 3))
        m = xi @ lag.a_t.T
        n = gam @ lag.a_s.T
        xi2, gam2 = ham.velocity(m, n)
        assert np.max(np.abs(xi2 - xi)) < 1e-12
        assert np.max(np.abs(gam2 - gam)) < 1e-12


def test_legendre_involution():
    lag = QuadraticLagrangian(np.diag([1.0, 2.0, 3.0]), np.diag([-2.0, -1.0, -0.5]))
    back = verify.legendre_pair(lag).to_lagrangian()
    assert np.max(np.abs(back.a_t - lag.a_t)) < 1e-12
    assert np.max(np.abs(back.a_s - lag.a_s)) < 1e-12


def test_lie_poisson_matches_field_equation_residual_pointwise():
    grid = StrandGrid(32, 2 * np.pi, 5e-3, 0.2, store_every=1)
    s = grid.s_nodes
    nu = np.stack([0.8 + 0.3 * np.sin(s), 0.2 * np.cos(s), 0.1 * np.sin(2 * s)], axis=1)
    gam = np.stack([0.1 * np.cos(s), 0.7 - 0.2 * np.sin(s), 0.3 * np.cos(2 * s)], axis=1)
    lag = QuadraticLagrangian(np.diag([1.0, 2.0, 3.0]), -np.eye(3))
    hist = gstrand.simulate(SO3, lag, gstrand.StrandField(nu, gam), grid)
    assert verify.lp_ep_gap(SO3, lag, hist, grid) < 1e-12


def test_ep_action_gradient_matches_residual_study():
    errs = []
    for i in range(3):
        grid = StrandGrid(32 * 2**i, 2 * np.pi, 0.02 / 2**i, 0.4, store_every=1)
        s = grid.s_nodes
        nu = np.stack([0.8 + 0.3 * np.sin(s), 0.2 * np.cos(s),
                       0.1 * np.sin(2 * s)], axis=1)
        gam = np.stack([0.1 * np.cos(s), 0.7 - 0.2 * np.sin(s),
                        0.3 * np.cos(2 * s)], axis=1)
        hist = gstrand.simulate(SO3, CHIRAL, gstrand.StrandField(nu, gam), grid)
        errs.append(verify.ep_action_gradient(SO3, CHIRAL, hist, grid))
    assert fit_order(errs) >= 1.9


def test_action_grid_validation():
    with pytest.raises(Exception):
        verify.ActionGrid(2, 0.1, 4, 0.1)
    with pytest.raises(Exception):
        verify.ActionGrid(4, 0.1, 5, 0.1)   # odd periodic direction


def reference_fd_gradient(action, fields, h_scale=verify.FD_SCALE):
    """fd_gradient as it was first written: every perturbed evaluation
    rebuilds the cell views of every field."""
    g = action.grid

    def cells(flds):
        views = {s.name: verify._cell_views(action, flds[s.name]) for s in action.fields}
        tt, ss = np.meshgrid((np.arange(g.n_cells_t) + 0.5) * g.dt,
                             (np.arange(g.n_cells_s) + 0.5) * g.ds, indexing="ij")
        return action.integrand(tt, ss, *({n: v[i] for n, v in views.items()} for i in range(3)))

    cii, cjj = np.meshgrid(np.arange(g.n_cells_t), np.arange(g.n_cells_s), indexing="ij")
    grads = {}
    for spec in action.fields:
        base = fields[spec.name]
        grad = np.zeros_like(base)
        h_all = h_scale * (1.0 + np.abs(base))
        for comp in range(spec.ncomp):
            for pa in (0, 1):
                for pb in (0, 1):
                    mask = np.zeros(base.shape[:2])
                    mask[pa::2, pb::2] = 1.0
                    h = h_all[..., comp] * mask
                    fp, fm = base.copy(), base.copy()
                    fp[..., comp] += h
                    fm[..., comp] -= h
                    diff = (cells({**fields, spec.name: fp})
                            - cells({**fields, spec.name: fm})) * (g.dt * g.ds)
                    ii = cii + (pa - cii) % 2
                    jj = cjj + (pb - cjj) % 2
                    if g.periodic_s:
                        jj %= g.n_s
                    np.add.at(grad[..., comp], (ii.ravel(), jj.ravel()),
                              (diff / (2.0 * h[ii, jj])).ravel())
        grads[spec.name] = grad
    return grads


@pytest.mark.parametrize("periodic", [True, False], ids=["periodic", "fixed"])
@pytest.mark.parametrize("which", ["linear", "adjoint"])
def test_fd_gradient_is_bitwise_the_all_views_reference(which, periodic):
    grid = verify.ActionGrid(5, 0.2, 6 if periodic else 5, 0.3, periodic_s=periodic)
    if which == "linear":
        lag = QuadraticLagrangian(np.diag([1.0, 2.0, 3.0]), -np.diag([1.5, 1.0, 0.5]))
        action = verify.clebsch_linear_action(REP3, lag, grid)
    else:
        action = verify.clebsch_adjoint_action(SO3, grid)
    rng = np.random.default_rng(12)
    fields = {s.name: rng.standard_normal((grid.n_t, grid.n_s, s.ncomp)) for s in action.fields}
    got = verify.fd_gradient(action, fields)
    want = reference_fd_gradient(action, fields)
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name
