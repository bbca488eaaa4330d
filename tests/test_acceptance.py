"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import json

import numpy as np
import pytest
from conftest import fit_order, generic_chiral_field, rotation_field_z
from oracles import discrete_green_1d, gram, jacobi_residual, rigid_body_oracle, solve_gram

from gstrands import clebsch, cli, gstrand, kernels, liealg, peakon, verify
from gstrands.gstrand import (QuadraticLagrangian, StrandField, StrandGrid,
                              chiral_lagrangian)
from gstrands.kernels import HelmholtzKernel
from gstrands.liealg import hat_so_n, vee_so_n
from gstrands.scenarios import linear_history_fields

SO3 = liealg.builtin("so3")
CHIRAL = chiral_lagrangian(3)
K1 = HelmholtzKernel(1.0, 1)


def report(num, name, passed, detail=""):
    print(f"[criterion {num:02d}] {name}: {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


# -- shared runs ------------------------------------------------------------

_cache = {}


def peakon_strand_study():
    if "peakon_study" not in _cache:
        def level(i):
            grid = StrandGrid(16 * 2**i, 2 * np.pi, 0.02 / 2**i, 0.4, store_every=1)
            s = grid.s_nodes
            q0 = np.stack([-1.5 + 0.2 * np.sin(s), 1.5 + 0.2 * np.cos(s)], axis=1)
            m0 = np.stack([1.0 + 0.3 * np.cos(s), 0.8 - 0.24 * np.sin(s)], axis=1)
            st = peakon.PeakonState(q0, m0, np.zeros_like(q0))
            hist = peakon.simulate(st, K1, grid)
            return (peakon.cross_derivative_residual(hist, K1, grid),
                    peakon.compatibility_residual(hist, K1, grid))
        _cache["peakon_study"] = [level(i) for i in range(3)]
    return _cache["peakon_study"]


# -- criteria ---------------------------------------------------------------

def test_criterion_1_single_peakon_translation():
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0, store_every=1000)
    m0 = 1.0
    st = peakon.PeakonState(np.zeros((8, 1)), np.full((8, 1), m0), np.zeros((8, 1)))
    hist = peakon.simulate(st, K1, grid)
    q_err = float(np.max(np.abs(hist.q[-1] - m0 * 1.0 / 2.0)))
    m_err = float(np.max(np.abs(hist.mw[-1] - m0)))
    report(1, "single-peakon translation", q_err < 1e-6 and m_err < 1e-10,
           f"|Q - Q0 - M0 t/(2a)| = {q_err:.2e}, |M - M0| = {m_err:.2e}")


def test_criterion_2_classical_ch_conservation():
    grid = StrandGrid(1, 1.0, 1e-3, 5.0, store_every=100)
    st = peakon.PeakonState(np.array([[-2.5, 2.5]]), np.array([[1.0, 0.8]]),
                            np.zeros((1, 2)))
    hist = peakon.simulate(st, K1, grid)
    h_vals = np.array([peakon.collective_hamiltonian(
        peakon.PeakonState(hist.q[i], hist.mw[i], hist.nw[i]), K1)[0]
        for i in range(len(hist.times))])
    p_vals = np.array([peakon.total_momentum(
        peakon.PeakonState(hist.q[i], hist.mw[i], hist.nw[i]))[0]
        for i in range(len(hist.times))])
    h_drift = float(np.max(np.abs(h_vals - h_vals[0])) / abs(h_vals[0]))
    p_drift = float(np.max(np.abs(p_vals - p_vals[0])) / abs(p_vals[0]))
    report(2, "classical CH two-peakon conservation",
           h_drift < 1e-6 and p_drift < 1e-6,
           f"H drift = {h_drift:.2e}, P drift = {p_drift:.2e}")


def test_criterion_3_s_constraint_and_cross_derivative():
    grid = StrandGrid(16, 2 * np.pi, 5e-3, 0.25, store_every=1)
    s = grid.s_nodes
    q0 = np.stack([-1.5 + 0.2 * np.sin(s), 1.5 + 0.2 * np.cos(s)], axis=1)
    m0 = np.stack([1.0 + 0.3 * np.cos(s), 0.8 - 0.24 * np.sin(s)], axis=1)
    state = peakon.PeakonState(q0, m0, peakon.solve_n_constraint(
        peakon.PeakonState(q0, m0, np.zeros_like(q0)), K1, grid))
    worst = 0.0
    for _ in range(grid.n_steps):
        state = peakon.step(state, K1, grid)
        worst = max(worst, peakon.s_constraint_residual(state, K1, grid))
    cross = [c for c, _ in peakon_strand_study()]
    order = fit_order(cross)
    report(3, "peakon strand s-constraint + cross-derivative order",
           worst <= 1e-10 and order >= 1.9,
           f"max residual = {worst:.2e}, order = {order:.2f}")


def test_criterion_4_compatibility_residual_order():
    comp = [c for _, c in peakon_strand_study()]
    order = fit_order(comp)
    report(4, "compatibility-condition residual order", order >= 1.9,
           f"residuals = {[f'{c:.2e}' for c in comp]}, order = {order:.2f}")


def test_criterion_5_chiral_strand():
    # (a) energy drift at the pinned resolution
    grid = StrandGrid(128, 2 * np.pi, 1e-3, 1.0, store_every=100)
    f0 = generic_chiral_field(grid)
    hist = gstrand.simulate(SO3, CHIRAL, f0, grid)
    e0 = gstrand.hamiltonian_energy(SO3, CHIRAL, f0, grid)
    drift = max(abs(gstrand.hamiltonian_energy(
        SO3, CHIRAL, StrandField(hist.nu[k], hist.gamma[k]), grid) - e0)
        for k in range(len(hist.times))) / abs(e0)

    # (b) residual convergence
    def level(i):
        g = StrandGrid(32 * 2**i, 2 * np.pi, 0.02 / 2**i, 0.4, store_every=1)
        h = gstrand.simulate(SO3, CHIRAL, generic_chiral_field(g), g)
        return gstrand.residual_report(SO3, CHIRAL, h, g)
    reps = [level(i) for i in range(3)]
    ep_order = fit_order([r["ep_residual"] for r in reps])
    zcc_order = fit_order([r["zcc_residual"] for r in reps])

    # (c) exact traveling wave U = V = f(s + t) e3, unit-amplitude smooth bump
    extent = 200.0
    gw = StrandGrid(128, extent, 1e-3, 1.0, store_every=1000)
    sw = gw.s_nodes

    def bump(x):
        return np.exp(0.4 * (np.cos(2 * np.pi * x / extent) - 1.0))

    xi = np.array([0.0, 0.0, 1.0])
    prof = bump(sw)[:, None] * xi
    hw = gstrand.simulate(SO3, CHIRAL, StrandField(prof, prof.copy()), gw)
    exact = bump(sw + 1.0)[:, None] * xi
    wave_err = max(float(np.max(np.abs(hw.nu[-1] - exact))),
                   float(np.max(np.abs(hw.gamma[-1] - exact))))

    report(5, "chiral strand energy/orders/traveling wave",
           drift < 1e-6 and ep_order >= 1.9 and zcc_order >= 1.9 and wave_err < 1e-5,
           f"drift = {drift:.2e}, EP order = {ep_order:.2f}, "
           f"ZCC order = {zcc_order:.2f}, wave err = {wave_err:.2e}")


def test_criterion_6_coupled_double_bracket():
    grid = StrandGrid(64, 2 * np.pi, 1e-3, 1.0, store_every=100)
    st = clebsch.cdb_rotating_state(SO3, grid, [1.0, 0.4, 0.0], [0.3, 0.2, 0.1])
    hist = clebsch.cdb_simulate(SO3, st, grid)
    norms = np.linalg.norm(hist.m, axis=2)
    drift = float(np.max(np.abs(norms - norms[0])))

    def level(i):
        g = StrandGrid(32 * 2**i, 2 * np.pi, 0.02 / 2**i, 0.4, store_every=1)
        s0 = clebsch.cdb_rotating_state(SO3, g, [1.0, 0.4, 0.0], [0.3, 0.2, 0.1])
        h = clebsch.cdb_simulate(SO3, s0, g)
        return clebsch.cdb_div_sigma_residual(SO3, h, g)
    order = fit_order([level(i) for i in range(3)])
    report(6, "double-bracket |m| drift + div sigma order",
           drift < 1e-8 and order >= 1.9,
           f"|m| drift = {drift:.2e}, div order = {order:.2f}")


def test_criterion_7_symmetric_rigid_body_vs_direct_integration():
    alg = liealg.builtin("soN(3)")
    lag = QuadraticLagrangian(np.diag([1.0, 2.0, 3.0]), -np.eye(3))
    u0 = np.array([0.7, 0.3, 0.5])
    w0 = u0 @ lag.a_t.T
    grid = StrandGrid(1, 1.0, 1e-3, 1.0, store_every=1)
    st = clebsch.SymmRigidState(np.eye(3)[None], hat_so_n(3, w0)[None],
                                np.zeros((1, 3, 3)))
    hist = clebsch.symm_rigid_simulate(lag, st, grid)
    u_traj = np.array([
        vee_so_n(3, clebsch._skew(np.swapaxes(hist.q[k], -1, -2) @ hist.mw[k]))[0]
        @ lag.a_t_inv.T for k in range(len(hist.times))])
    _, _, u_oracle = rigid_body_oracle(alg, lag.a_t, w0, 1e-3, 1.0)
    dev = float(np.max(np.abs(u_traj - u_oracle)))
    report(7, "symmetric rigid body vs direct integration", dev < 1e-6,
           f"max |U - U_oracle| = {dev:.2e}")


def test_criterion_8_kernel_oracle():
    x, sol = discrete_green_1d(h=1e-3, extent=20.0)
    sel = np.abs(x) < 5.0
    kernel_err = float(np.max(np.abs(sol[sel] - kernels.eval(K1, x[sel], 0.0))))

    rng = np.random.default_rng(123)
    pts = np.sort(rng.uniform(-4, 4, 8))
    g = gram(K1, pts)
    xv = rng.standard_normal(8)
    rhs2 = g.matrix @ xv
    resid = float(np.max(np.abs(g.matrix @ solve_gram(g, rhs2) - rhs2)))
    report(8, "kernel impulse oracle + Gram round trip",
           kernel_err < 1e-4 and resid < 1e-10,
           f"impulse err = {kernel_err:.2e}, solve residual = {resid:.2e}")


def test_criterion_9_discrete_stationarity():
    rep = clebsch.defining_rep_so3(SO3)

    def level(i):
        grid = StrandGrid(16 * 2**i, 6.4, 0.1 / 2**i, 2.0, store_every=1)
        ang = 2 * np.pi * grid.s_nodes / grid.s_extent
        rot = rotation_field_z(ang)
        v = np.einsum("sab,b->sa", rot, np.array([1.0, 0.0, 0.5]))
        m = np.einsum("sab,b->sa", rot, np.array([0.2, 0.9, 0.1]))
        st = clebsch.LinearStrandState(v, m, np.zeros_like(v))
        hist = clebsch.linear_strand_simulate(rep, CHIRAL, st, grid)
        action = verify.clebsch_linear_action(rep, CHIRAL)
        fields = linear_history_fields(rep, CHIRAL, hist)
        grads = verify.fd_gradient(action, fields, hist.dt_stored, grid.ds)
        return verify.interior_max(grads, hist.dt_stored, grid.ds)

    order = fit_order([level(i) for i in range(3)])

    hp = verify.hamilton_pontryagin_energy(lambda v: 0.5 * np.sum(v * v, axis=-1))
    n_t = 101
    fields = {"y": (np.arange(n_t) * 0.01)[:, None],
              "p": np.ones((n_t, 1, 1)), "b": np.ones((n_t, 1))}
    res = verify.pontryagin_residual(hp, fields, (0.01,))
    hp_worst = max(res.values())
    report(9, "discrete stationarity (action gradient + exact line)",
           order >= 1.9 and hp_worst < 1e-8,
           f"gradient order = {order:.2f}, exact-line residual = {hp_worst:.2e}")


def test_criterion_10_algebra_layer_identities():
    jacobi_worst = max(jacobi_residual(liealg.builtin(n))
                       for n in ("so3", "se3", "soN(4)", "glN(3)"))
    rng = np.random.default_rng(77)
    dual_worst = 0.0
    for name in ("so3", "se3"):
        spec = liealg.builtin(name)
        for _ in range(200):
            xi, mu, eta = rng.standard_normal((3, spec.dim))
            lhs = liealg.pair(spec, liealg.ad_star(spec, xi, mu), eta)
            rhs = liealg.pair(spec, mu, liealg.bracket(spec, xi, eta))
            dual_worst = max(dual_worst, abs(lhs - rhs) / (1 + abs(rhs)))
    rep = clebsch.defining_rep_so3(SO3)
    basis = np.eye(3)
    dia_worst = 0.0
    for _ in range(200):
        v, p = rng.standard_normal((2, 3))
        d = clebsch.diamond(rep, v, p)
        for eta in basis:
            lhs = liealg.pair(SO3, d, eta)
            rhs = p @ clebsch.act(rep, eta, v)
            dia_worst = max(dia_worst, abs(lhs - rhs) / (1 + abs(rhs)))
    report(10, "algebra-layer identities",
           jacobi_worst < 1e-12 and dual_worst < 1e-12 and dia_worst < 1e-12,
           f"jacobi = {jacobi_worst:.2e}, duality = {dual_worst:.2e}, "
           f"diamond = {dia_worst:.2e}")


def test_criterion_11_determinism(tmp_path):
    def one_run(tag, text):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.yaml"
        cfg.write_text(text.format(out=out))
        assert cli.main(["run", str(cfg)]) == 0
        return ((out / "d.csv").read_bytes(), (out / "d.json").read_bytes())

    configs = {
        "ch": "scenario: ch_classical\nlabel: d\noutput_dir: {out}\n"
              "grid:\n  t_end: 5.0\n",
        "pk": "scenario: peakon_strand\nlabel: d\noutput_dir: {out}\n"
              "grid:\n  n_s: 16\n  dt: 0.005\n  t_end: 0.25\n",
    }
    identical = True
    for tag, text in configs.items():
        a = one_run(tag + "1", text)
        b = one_run(tag + "2", text)
        identical = identical and a == b
    report(11, "byte-identical reruns", identical, "CSV and JSON compared")
