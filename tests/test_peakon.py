import numpy as np
import pytest
from conftest import fit_order

from gstrands import kernels, peakon
from gstrands.errors import NearCollisionError
from gstrands.gstrand import StrandGrid
from gstrands.kernels import HelmholtzKernel

K1 = HelmholtzKernel(1.0, 1)


def two_peakon_wave(grid, amp=0.2):
    s = grid.s_nodes
    w = 2 * np.pi / grid.s_extent
    q0 = np.stack([-1.5 + amp * np.sin(w * s), 1.5 + amp * np.cos(w * s)], axis=1)
    m0 = np.stack([1.0 * (1 + 0.3 * np.cos(w * s)), 0.8 * (1 - 0.3 * np.sin(w * s))], axis=1)
    return peakon.PeakonState(q0, m0, np.zeros_like(q0))


# ---------------------------------------------------------------------------
# velocity and constraint solve

def test_velocity_single_peakon_at_peak():
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0)
    st = peakon.PeakonState(np.zeros((8, 1)), np.ones((8, 1)), np.zeros((8, 1)))
    nu, gam = peakon.velocity(st, K1, 0, 0.0)
    assert nu == pytest.approx(0.5)
    assert gam == 0.0


def test_velocity_zero_momenta():
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0)
    st = peakon.PeakonState(np.zeros((8, 2)) + [[-1.0, 1.0]], np.zeros((8, 2)),
                            np.zeros((8, 2)))
    nu, gam = peakon.velocity(st, K1, 3, 0.3)
    assert nu == 0.0 and gam == 0.0


def test_velocity_linear_in_momenta():
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0)
    st = two_peakon_wave(grid)
    nu1, _ = peakon.velocity(st, K1, 2, 0.4)
    st2 = peakon.PeakonState(st.q, 2.0 * st.mw, st.nw)
    nu2, _ = peakon.velocity(st2, K1, 2, 0.4)
    assert nu2 == 2.0 * nu1


def test_solve_n_s_independent_is_zero():
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0)
    st = peakon.PeakonState(np.tile([-1.0, 1.0], (8, 1)), np.ones((8, 2)),
                            np.zeros((8, 2)))
    assert np.max(np.abs(peakon.solve_n_constraint(st, K1, grid))) == 0.0


def test_solve_n_round_trip():
    # plant N*, synthesize d_s Q := -G N*, and recover N* through the solve
    grid = StrandGrid(16, 2 * np.pi, 1e-3, 1.0)
    rng = np.random.default_rng(8)
    st = two_peakon_wave(grid)
    n_star = rng.standard_normal((16, 2))
    gram = peakon._gram_all(K1, st.q)
    dsq = -np.einsum("sab,sb->sa", gram, n_star)
    recovered = kernels.chol_solve_batched(gram, -dsq)
    assert np.max(np.abs(recovered - n_star)) < 1e-10


def test_solve_n_single_peakon_scalar():
    # one peakon: N = -d_s Q / G(0) = -2 alpha d_s Q
    grid = StrandGrid(16, 2 * np.pi, 1e-3, 1.0)
    s = grid.s_nodes
    q0 = (0.3 * np.sin(s))[:, None]
    st = peakon.PeakonState(q0, np.ones_like(q0), np.zeros_like(q0))
    n = peakon.solve_n_constraint(st, K1, grid)
    from gstrands.gstrand import d_s
    expected = -2.0 * d_s(q0, grid)
    assert np.max(np.abs(n - expected)) < 1e-12


# ---------------------------------------------------------------------------
# stepping

def test_single_peakon_uniform_translation():
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0, store_every=100)
    st = peakon.PeakonState(np.zeros((8, 1)), np.ones((8, 1)), np.zeros((8, 1)))
    hist = peakon.simulate(st, K1, grid)
    assert np.max(np.abs(hist.q[-1] - 0.5)) < 1e-6
    assert np.max(np.abs(hist.mw[-1] - 1.0)) < 1e-10


def test_classical_two_peakon_conservation_and_reference():
    grid = StrandGrid(1, 1.0, 1e-3, 1.0, store_every=100)
    st = peakon.PeakonState(np.array([[-2.5, 2.5]]), np.array([[1.0, 0.8]]),
                            np.zeros((1, 2)))
    hist = peakon.simulate(st, K1, grid)
    h_vals = [peakon.collective_hamiltonian(
        peakon.PeakonState(hist.q[i], hist.mw[i], hist.nw[i]), K1)[0]
        for i in range(len(hist.times))]
    p_vals = [peakon.total_momentum(
        peakon.PeakonState(hist.q[i], hist.mw[i], hist.nw[i]))[0]
        for i in range(len(hist.times))]
    assert max(abs(h - h_vals[0]) for h in h_vals) / abs(h_vals[0]) < 1e-6
    assert max(abs(p - p_vals[0]) for p in p_vals) / abs(p_vals[0]) < 1e-6
    # dt/10 reference trajectory
    fine = StrandGrid(1, 1.0, 1e-4, 1.0, store_every=1000)
    ref = peakon.simulate(st, K1, fine)
    assert np.max(np.abs(ref.q[-1] - hist.q[-1])) < 1e-8


def test_s_constraint_maintained_every_step():
    grid = StrandGrid(16, 2 * np.pi, 5e-3, 0.1, store_every=1)
    state = peakon.PeakonState(*map(np.copy, (two_peakon_wave(grid).q,
                                              two_peakon_wave(grid).mw,
                                              two_peakon_wave(grid).nw)))
    state = peakon.PeakonState(state.q, state.mw,
                               peakon.solve_n_constraint(state, K1, grid))
    for k in range(grid.n_steps):
        state = peakon.step(state, K1, grid, step_index=k)
        assert peakon.s_constraint_residual(state, K1, grid) <= 1e-10


def test_cross_derivative_residual_orders():
    def level(i):
        grid = StrandGrid(16 * 2**i, 2 * np.pi, 0.02 / 2**i, 0.4, store_every=1)
        hist = peakon.simulate(two_peakon_wave(grid), K1, grid)
        return peakon.cross_derivative_residual(hist, K1, grid)

    errs = [level(i) for i in range(3)]
    assert fit_order(errs) >= 1.9


def test_compatibility_residual_orders():
    def level(i):
        grid = StrandGrid(16 * 2**i, 2 * np.pi, 0.02 / 2**i, 0.4, store_every=1)
        hist = peakon.simulate(two_peakon_wave(grid), K1, grid)
        return peakon.compatibility_residual(hist, K1, grid)

    errs = [level(i) for i in range(3)]
    assert fit_order(errs) >= 1.9


def test_compatibility_residual_static_zero():
    grid = StrandGrid(8, 2 * np.pi, 1e-2, 0.05, store_every=1)
    st = peakon.PeakonState(np.tile([-1.0, 1.0], (8, 1)), np.zeros((8, 2)),
                            np.zeros((8, 2)))
    hist = peakon.simulate(st, K1, grid)
    assert peakon.compatibility_residual(hist, K1, grid) == 0.0


def test_compatibility_residual_single_moving_peakon():
    grid = StrandGrid(8, 2 * np.pi, 1e-2, 0.1, store_every=1)
    st = peakon.PeakonState(np.zeros((8, 1)), np.full((8, 1), 0.9), np.zeros((8, 1)))
    hist = peakon.simulate(st, K1, grid)
    assert peakon.compatibility_residual(hist, K1, grid) < 1e-8


def test_near_collision_halts():
    grid = StrandGrid(8, 2 * np.pi, 1e-2, 1.0)
    st = peakon.PeakonState(np.tile([0.0, 1e-9], (8, 1)), np.ones((8, 2)),
                            np.zeros((8, 2)))
    with pytest.raises(NearCollisionError):
        peakon.simulate(st, K1, grid)


def test_gap_check_names_pair_and_s_index():
    grid = StrandGrid(8, 2 * np.pi, 1e-2, 1.0)
    q = np.tile([3.0, -1.0, 1.0, -2.0], (8, 1))
    q[5, 3] = -1.0 - 5e-9          # peakons 1 and 3 nearly touch at s-index 5
    st = peakon.PeakonState(q, np.ones((8, 4)), np.zeros((8, 4)))
    with pytest.raises(NearCollisionError) as exc:
        peakon.solve_n_constraint(st, K1, grid)
    assert "peakons 1 and 3 within 5.000e-09 of collision at s-index 5" in str(exc.value)
    assert exc.value.step_index is None


def test_crossing_between_stages_halts_with_step():
    # head-on peakon-antipeakon: at dt = 0.01 the stages hop across the
    # collision (the last gap before the flip is 1.6e-4), so only the
    # step-start order reveals it
    grid = StrandGrid(1, 1.0, 1e-2, 5.0)
    st = peakon.PeakonState(np.array([[-2.5, 2.5]]), np.array([[2.0, -2.0]]),
                            np.zeros((1, 2)))
    with pytest.raises(NearCollisionError) as exc:
        peakon.simulate(st, K1, grid)
    assert "peakons 0 and 1 crossed at s-index 0" in str(exc.value)
    assert exc.value.step_index == 319
    assert exc.value.t == pytest.approx(3.2)


def test_one_gram_build_per_stage(monkeypatch):
    # 4 RK stages + the accepted state; the slaved solve reuses the stage's G
    grid = StrandGrid(16, 2 * np.pi, 5e-3, 0.1)
    st = two_peakon_wave(grid)
    calls = []
    real = peakon.kernel_eval
    monkeypatch.setattr(peakon, "kernel_eval", lambda *a: calls.append(1) or real(*a))
    peakon.step(st, K1, grid, step_index=0)
    assert len(calls) == 5


# ---------------------------------------------------------------------------
# energies and snapshots

def test_collective_hamiltonian_single_peakon():
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0)
    st = peakon.PeakonState(np.zeros((8, 1)), np.ones((8, 1)), np.zeros((8, 1)))
    h = peakon.collective_hamiltonian(st, K1)
    assert np.allclose(h, 0.25)


def test_collective_hamiltonian_zero_and_scaling():
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0)
    st = two_peakon_wave(grid)
    st0 = peakon.PeakonState(st.q, np.zeros_like(st.mw), np.zeros_like(st.nw))
    assert np.max(np.abs(peakon.collective_hamiltonian(st0, K1))) == 0.0
    h1 = peakon.collective_hamiltonian(st, K1)
    st3 = peakon.PeakonState(st.q, 3.0 * st.mw, 3.0 * st.nw)
    h3 = peakon.collective_hamiltonian(st3, K1)
    assert np.allclose(h3, 9.0 * h1)


def test_field_snapshot_values():
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0)
    st = two_peakon_wave(grid)
    m_grid = np.linspace(-6, 6, 41)
    nu, gam = peakon.field_snapshot(st, K1, m_grid)
    assert nu.shape == (8, 41)
    # peak value at m = Q_a equals the kernel sum
    j = 3
    nu_at_q, _ = peakon.velocity(st, K1, j, st.q[j, 0])
    gram = kernels.eval(K1, st.q[j, 0], st.q[j])
    assert nu_at_q == pytest.approx(float(gram @ st.mw[j]))
    # decay bound: |nu(m)| <= sum |M_a| G(distance to nearest peakon)
    for i, m in enumerate(m_grid):
        bound = np.sum(np.abs(st.mw[j])) * kernels.eval(
            K1, 0.0, np.min(np.abs(m - st.q[j])))
        assert abs(nu[j, i]) <= bound + 1e-14


def test_field_snapshot_single_peakon_profile():
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0)
    st = peakon.PeakonState(np.full((8, 1), 0.7), np.full((8, 1), 1.3),
                            np.zeros((8, 1)))
    m_grid = np.linspace(-4, 4, 31)
    nu, _ = peakon.field_snapshot(st, K1, m_grid)
    assert np.max(np.abs(nu[0] - 1.3 * kernels.eval(K1, m_grid, 0.7))) < 1e-14


def test_momentum_map_superposition_identity():
    # field values re-summed independently match the snapshot
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0)
    st = two_peakon_wave(grid)
    m_grid = np.linspace(-5, 5, 17)
    nu, gam = peakon.field_snapshot(st, K1, m_grid)
    for j in (0, 5):
        for i, m in enumerate(m_grid):
            direct_nu = sum(st.mw[j, a] * kernels.eval(K1, m, st.q[j, a])
                            for a in range(2))
            direct_gam = -sum(st.nw[j, a] * kernels.eval(K1, m, st.q[j, a])
                              for a in range(2))
            assert abs(nu[j, i] - direct_nu) < 1e-14
            assert abs(gam[j, i] - direct_gam) < 1e-14
