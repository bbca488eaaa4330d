import math
import tracemalloc
from functools import partial

import numpy as np
import oracles
import pytest
from conftest import S_CROSSING, fit_order
from hypothesis import example, given, settings, strategies
from scipy.integrate import solve_ivp
from test_output_digests import CONFIGS, INLINE

from gstrands import config, kernels, peakon, scenarios
from gstrands.errors import BlowUpError, DimensionMismatchError, NearCollisionError
from gstrands.gstrand import History, StrandGrid, centered_dt, d_s, integrate
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
    nu, gam = peakon.field_snapshot(st, K1, [0.0])
    assert nu[0, 0] == pytest.approx(0.5)
    assert gam[0, 0] == 0.0


def test_velocity_zero_momenta():
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0)
    st = peakon.PeakonState(np.zeros((8, 2)) + [[-1.0, 1.0]], np.zeros((8, 2)),
                            np.zeros((8, 2)))
    nu, gam = peakon.field_snapshot(st, K1, [0.3])
    assert nu[3, 0] == 0.0 and gam[3, 0] == 0.0


def test_velocity_linear_in_momenta():
    grid = StrandGrid(8, 2 * np.pi, 1e-3, 1.0)
    st = two_peakon_wave(grid)
    nu1, _ = peakon.field_snapshot(st, K1, [0.4])
    st2 = peakon.PeakonState(st.q, 2.0 * st.mw, st.nw)
    nu2, _ = peakon.field_snapshot(st2, K1, [0.4])
    assert nu2[2, 0] == 2.0 * nu1[2, 0]


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
    for _ in range(grid.n_steps):
        state = peakon.step(state, K1, grid)
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


def test_a_run_scales_with_alpha():
    # q = alpha Q, t = alpha^2 T maps the alpha-kernel system onto the
    # alpha = 1 one, collision gap included: the pair 50 alpha apart runs at
    # alpha 1e-10 as it does at alpha 1
    def run(alpha):
        grid = StrandGrid(1, 1.0, 0.1 * alpha ** 2, 4.0 * alpha ** 2)
        state = peakon.PeakonState([[0.0, 50.0 * alpha]], [[1.0, 0.8]], [[0.0, 0.0]])
        return peakon.simulate(state, HelmholtzKernel(alpha), grid)

    small, unit = run(1e-10), run(1.0)
    np.testing.assert_allclose(small.q / 1e-10, unit.q, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(small.mw, unit.mw, rtol=1e-12)


@pytest.mark.parametrize("solve", [peakon.simulate, peakon.solve_n_constraint])
def test_peakons_that_cross_along_s_halt_at_t_0(solve):
    # one order per run: the rows that do not share row 0's order fail the
    # gap check at the initial slave solve, the deepest crossing first
    cfg = config.parse_config(S_CROSSING)
    grid = scenarios.make_grid(cfg)
    kernel, state = scenarios.peakon_setup(cfg, grid)
    with pytest.raises(NearCollisionError) as exc:
        solve(state, kernel, grid)
    assert str(exc.value) == "peakons 0 and 1 crossed at s-index 5"
    assert exc.value.step_index is None


def test_step_takes_ascending_rows():
    # a state built by hand is labeled 0..n_p-1 and must already be ascending
    grid = StrandGrid(1, 1.0, 1e-2, 0.1)
    state = peakon.PeakonState([[1.0, -1.0]], [[1.0, 0.8]], [[0.0, 0.0]])
    with pytest.raises(NearCollisionError, match="peakons 0 and 1 crossed at s-index 0"):
        peakon.step(state, K1, grid)
    # simulate relabels it once and returns the history in its own labels
    hist = peakon.simulate(state, K1, grid)
    assert np.all(hist.q[:, 0, 0] > hist.q[:, 0, 1])


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


# ---------------------------------------------------------------------------
# the per-s Gram conditioning check

def exact_conditioning_error(kernel, qs):
    """The message of the exact per-s cond_1 check at sorted positions qs,
    run with no bound, or None when it passes."""
    gram = kernels.eval(kernel, qs[:, :, None], qs[:, None, :])
    diag, off = kernels.helmholtz_1d_inverse(kernel, np.diff(qs, axis=1))
    cond = np.einsum("sab->sa", gram).max(axis=-1) * kernels.tridiag_norm_1(diag, off)
    if cond.max() <= kernels.COND_LIMIT:
        return None
    j = int(np.argmin(cond <= kernels.COND_LIMIT))
    return f"per-s Gram conditioning {cond[j]:.3e} exceeds 1e+12 at s-index {j}"


@pytest.mark.parametrize("n_s, j", [(1, 0), (8, 0), (8, 5), (8, 7)])
def test_ill_conditioned_close_pair_halts_at_its_s_index(n_s, j):
    # at alpha = 2e7 the gap 1e-7 is 5e-15 alpha, under the collision gap
    # COLLISION_GAP * alpha (the pair's cond_1 there is 4e14)
    grid = StrandGrid(n_s, 2 * np.pi, 1e-2, 0.1)
    q = np.tile([[-1.0, 1.0]], (n_s, 1))
    q[j] = [0.3, 0.3 + 1e-7]
    state = peakon.PeakonState(q, np.ones((n_s, 2)), np.zeros((n_s, 2)))
    with pytest.raises(NearCollisionError) as exc:
        peakon.simulate(state, HelmholtzKernel(2e7), grid)
    assert str(exc.value) == f"peakons 0 and 1 within 1.000e-07 of collision at s-index {j}"
    assert (exc.value.step_index, exc.value.t) == (None, 0.0)


def test_non_finite_stage_positions_fail_the_conditioning_check():
    grid = StrandGrid(8, 2 * np.pi, 1e-2, 0.1)
    q = np.tile([[-1.0, 1.0]], (8, 1))
    # a NaN momentum puts NaN positions into stage 2 of a step at s-index 3
    m = np.ones((8, 2))
    m[3, 0] = np.nan
    with pytest.raises(NearCollisionError) as exc:
        peakon.step(peakon.PeakonState(q, m, np.zeros((8, 2))), K1, grid)
    assert str(exc.value) == "per-s Gram conditioning nan exceeds 1e+12 at s-index 3"
    # a run from that state halts at t = 0, before any stage, and so does
    # one with +inf in a row, which is not a near-collision
    with pytest.raises(BlowUpError) as exc:
        peakon.simulate(peakon.PeakonState(q, m, np.zeros((8, 2))), K1, grid)
    assert str(exc.value) == "non-finite mw at s-index 3"
    assert (exc.value.step_index, exc.value.t) == (None, 0.0)
    q[6, 1] = np.inf
    with pytest.raises(BlowUpError) as exc:
        peakon.simulate(peakon.PeakonState(q, np.ones((8, 2)), np.zeros((8, 2))), K1, grid)
    assert str(exc.value) == "non-finite q at s-index 6"
    assert exc.value.category == "blow-up" and exc.value.t == 0.0


@settings(max_examples=150, deadline=None)
@given(n_s=strategies.integers(1, 4), n_p=strategies.integers(1, 12),
       log_alpha=strategies.floats(-1.0, 10.0),
       log_gaps=strategies.lists(strategies.floats(-8.0, 2.0), min_size=48, max_size=48))
@example(n_s=2, n_p=2, log_alpha=math.log10(2e7), log_gaps=[0.0, -7.0] + [0.0] * 46)
@example(n_s=1, n_p=3, log_alpha=0.0, log_gaps=[0.0, -6.0, -6.5] + [0.0] * 45)
def test_the_check_raises_exactly_when_the_exact_cond_does(n_s, n_p, log_alpha, log_gaps):
    """Gaps from the collision gap to 100 (absolute) and alpha up to 1e10
    reach exact conds far past the limit: the check keeps the exact
    check's outcome and message, with the dense Gram and, matrix-free
    (None), with the row sums of the prefix sums."""
    kernel = HelmholtzKernel(10.0 ** log_alpha)
    gaps = np.maximum(10.0 ** np.array(log_gaps[:n_s * n_p]).reshape(n_s, n_p),
                      peakon.COLLISION_GAP)
    qs = np.cumsum(gaps, axis=1)
    gram = kernels.eval(kernel, qs[:, :, None], qs[:, None, :])
    row_gaps = np.diff(qs, axis=1)
    expected = exact_conditioning_error(kernel, qs)
    for side in (gram, None):
        try:
            peakon._check_conditioning(kernel, qs, row_gaps, row_gaps.min(initial=np.inf), side)
        except NearCollisionError as exc:
            assert str(exc) == expected
        else:
            assert expected is None


def ch_classical(dt, t_end, p0, q0=(-2.5, 2.5)):
    """(state, kernel, grid) of a ch_classical config with n_s = 1."""
    cfg = config.parse_config(
        f"scenario: ch_classical\ngrid: {{n_s: 1, dt: {dt}, t_end: {t_end}}}\n"
        f"initial: {{q0: {list(q0)}, p0: {list(p0)}}}\n")
    kernel, state = scenarios.ch_setup(cfg)
    return state, kernel, scenarios.make_grid(cfg)


@pytest.mark.parametrize("dt", [0.02, 0.01, 0.005, 0.0025])
def test_head_on_halt_precedes_the_exact_collision(dt):
    # peakon-antipeakon p0 = (2, -2), gap x0 = 5: with G = e^-|x| / 2 the gap
    # obeys x' = -sqrt(2 H (1 - e^-x)), H = p0^2 (1 - e^-x0) / 2, so the
    # peakons collide at T = 2 artanh(sqrt(1 - e^-x0)) / sqrt(2 H) = 3.202265
    x0 = 5.0
    energy = 2.0 ** 2 * (1.0 - np.exp(-x0)) / 2.0
    collision = 2.0 * np.arctanh(np.sqrt(1.0 - np.exp(-x0))) / np.sqrt(2.0 * energy)
    with pytest.raises(NearCollisionError, match="crossed") as exc:
        peakon.simulate(*ch_classical(dt, 5.0, (2.0, -2.0)))
    # the halt comes 0.002265 early on every dt: near T a stage overshoots
    # and flips the order while the exact gap is still about 5e-6
    assert 0.0 < collision - exc.value.t <= 0.003


def test_interacting_two_peakons_converge_at_fourth_order():
    # the reference is a DOP853 solution of the same ODE, G = e^-|x| / 2
    def rhs(_t, y):
        q, p = np.split(y, 2)
        d = q[:, None] - q[None, :]
        g = np.exp(-np.abs(d)) / 2.0
        return np.concatenate([g @ p, p * ((np.sign(d) * g) @ p)])

    cases = [
        # two peakons exchange momenta by t = 60, (1.0, 0.8) -> (0.777, 1.023);
        # dt 0.05 (error 3e-12) would sit at the reference's own error floor
        ((-2.5, 2.5), (1.0, 0.8), 60.0, (0.4, 0.2, 0.1), (3.8, 4.3)),
        # three peakons overtaking, errors 9.5e-7 at dt 0.4 to 1.4e-10 at 0.05
        ((-3.0, 0.0, 2.5), (1.2, 0.7, 0.4), 40.0, (0.4, 0.2, 0.1, 0.05), (4.0, 4.5)),
    ]
    for q0, p0, t_end, dts, (low, high) in cases:
        ref = solve_ivp(rhs, (0.0, t_end), [*q0, *p0], method="DOP853",
                        rtol=1e-13, atol=1e-14).y[:, -1]
        errs = []
        for dt in dts:
            hist = peakon.simulate(*ch_classical(dt, t_end, p0, q0))
            errs.append(np.max(np.abs(np.concatenate([hist.q[-1, 0], hist.mw[-1, 0]]) - ref)))
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.all((low <= orders) & (orders <= high)), (q0, errs, orders)


def test_a_strand_constant_in_s_is_the_classical_trajectory_on_every_row():
    # s-independent data make every d_s zero, so each of the 16 rows steps
    # exactly as the n_s = 1 run does and N stays +0
    q0, p0 = (-3.0, 0.0, 2.5), (1.2, 0.7, 0.4)
    classical = peakon.simulate(*ch_classical(0.05, 10.0, p0, q0))
    q_rows, m_rows = ([[x] * 16 for x in v] for v in (q0, p0))
    cfg = config.parse_config(
        "scenario: peakon_strand\nparams: {n_p: 3}\ngrid: {n_s: 16, dt: 0.05, t_end: 10.0}\n"
        f"initial: {{preset: inline, q0: {q_rows}, m0: {m_rows}}}\n")
    kernel, state = scenarios.peakon_setup(cfg, scenarios.make_grid(cfg))
    strand = peakon.simulate(state, kernel, scenarios.make_grid(cfg))
    assert len(strand.times) == len(classical.times) == 201
    for name in ("q", "mw"):
        expected = np.broadcast_to(getattr(classical, name), getattr(strand, name).shape)
        assert np.array_equal(getattr(strand, name), expected), name
    assert np.all(strand.nw == 0.0) and not np.signbit(strand.nw).any()


def test_one_gram_build_per_stage(monkeypatch):
    # 4 RK stages + the accepted state; the slaved solve reuses the stage's G
    grid = StrandGrid(16, 2 * np.pi, 5e-3, 0.1)
    st = two_peakon_wave(grid)
    calls = []
    real = peakon.kernel_eval
    monkeypatch.setattr(peakon, "kernel_eval", lambda *a: calls.append(1) or real(*a))
    peakon.step(st, K1, grid)
    assert len(calls) == 5


def test_simulate_sorts_the_positions_once(monkeypatch):
    # the labels and their inverse, once per run; no step or stage sorts
    grid = StrandGrid(16, 2 * np.pi, 5e-3, 3 * 5e-3)
    st = two_peakon_wave(grid)
    calls = []
    real = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    peakon.simulate(peakon.PeakonState(st.q[:, ::-1], st.mw[:, ::-1], st.nw), K1, grid)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the stage tables of the slaved solve, against the dense original-order oracles

def shuffled_positions(rng, n_s, n_p):
    """Rows of n_p positions 0.3-2 apart, the peakons listed in one random
    order that every row shares."""
    pts = np.cumsum(rng.uniform(0.3, 2.0, (n_s, n_p)), axis=1) - n_p
    return pts.take(rng.permutation(n_p), axis=1)


def sorted_oracle(mats, labels):
    """(n_s, n_p, n_p) mats with rows and columns in the order ``labels``."""
    return mats[:, labels][:, :, labels]


# (1, 128) and (16, 32) are past peakon.MATRIX_FREE_ENTRIES, the others below it
STAGE_SHAPES = [(n_s, n_p) for n_s in (1, 16) for n_p in (1, 2, 32)] + [(1, 128)]


def matrix_free(n_s, n_p):
    """Whether a stage of n_s rows of n_p peakons runs matrix-free."""
    return n_s * n_p * n_p >= peakon.MATRIX_FREE_ENTRIES


def test_the_stage_shapes_sit_on_both_sides_of_the_switch():
    for n_s in (1, 16):
        assert {matrix_free(*shape) for shape in STAGE_SHAPES if shape[0] == n_s} == {False, True}


@pytest.mark.parametrize("n_s, n_p", STAGE_SHAPES)
@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
def test_stage_tables_are_the_permuted_dense_matrices(n_s, n_p, alpha):
    k = HelmholtzKernel(alpha)
    grid = StrandGrid(n_s, 2 * np.pi, 1e-3, 1.0)
    q = shuffled_positions(np.random.default_rng(n_s * 100 + n_p), n_s, n_p)
    labels, ordered, back = peakon._relabeled(peakon.PeakonState(q, 0.0 * q, 0.0 * q))
    tables, gram, grad, nw = peakon._slave(k, grid, labels, (ordered.q,))
    assert tables is labels
    dense = sorted_oracle(peakon._gram_all(k, q), labels)
    if matrix_free(n_s, n_p):
        # the prefix factors, none of them an (n_p, n_p) array, apply G column
        # by column as the permuted dense matrix does, each entry to eps times
        # the |t| <= REBASE_SPAN / 2 of each of its two factors plus the dense
        # exponent |Q_a - Q_b| / alpha
        assert grad is None and isinstance(gram, kernels.PrefixFactors)
        assert max(x.size for x in (gram.up, gram.down, gram.decay)) == n_s * n_p
        cols = np.stack([peakon._prefix_times(gram, np.broadcast_to(e, q.shape))
                         for e in np.eye(n_p)], axis=-1)
        exponent = np.abs(ordered.q[:, :, None] - ordered.q[:, None, :]) / alpha
        bound = np.finfo(float).eps * (kernels.REBASE_SPAN + exponent)
        assert np.all(np.abs(cols - dense) <= bound * dense)
    else:
        assert np.array_equal(gram, dense)
        oracle = sorted_oracle(kernels.grad_q(k, q[..., :, None], q[..., None, :]), labels)
        # G / alpha and grad_q's e / (2 alpha^2) each round twice
        ulps = np.abs(grad - oracle) / np.spacing(np.abs(oracle))
        assert ulps.max() <= (0.0 if alpha == 1.0 else 2.0)
        diagonal = np.diagonal(grad, axis1=1, axis2=2)
        assert np.array_equal(diagonal, np.zeros_like(diagonal)) and not np.signbit(diagonal).any()
    expected = kernels.chol_solve_batched(peakon._gram_all(k, q), -d_s(q, grid))
    nw = nw.take(back, axis=1)
    assert np.max(np.abs(nw - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1e-300)


@pytest.mark.parametrize("n_p", [1, 2, 32, 128])
def test_the_classical_slave_n_is_positive_zero(n_p):
    # _rhs at n_s = 1 drops the N-N force, which is exactly +0 only for this N
    q = shuffled_positions(np.random.default_rng(n_p), 1, n_p)
    labels, ordered, _ = peakon._relabeled(peakon.PeakonState(q, 0.0 * q, 0.0 * q))
    nw = peakon._slave(K1, StrandGrid(1, 2 * np.pi, 1e-3, 1.0), labels, (ordered.q,))[-1]
    assert nw.shape == q.shape and not nw.any() and not np.signbit(nw).any()


@pytest.mark.parametrize("n_s, n_p", STAGE_SHAPES)
def test_rhs_from_the_tables_matches_the_dense_coupling(monkeypatch, n_s, n_p):
    grid = StrandGrid(n_s, 2 * np.pi, 1e-3, 1.0)
    rng = np.random.default_rng(7 + n_s * 100 + n_p)
    q = shuffled_positions(rng, n_s, n_p)
    mw, nw = rng.standard_normal((2, n_s, n_p))
    if n_s == 1:
        nw = np.zeros_like(nw)  # the only N a run has at n_s = 1: _slave sets it
    labels, ordered, back = peakon._relabeled(peakon.PeakonState(q, mw, nw))
    aux = peakon._slave(K1, grid, labels, (ordered.q,))[:-1] + (ordered.nw,)
    gram, grad = peakon._gram_all(K1, q), kernels.grad_q(K1, q[..., :, None], q[..., None, :])
    coupling = nw[:, :, None] * nw[:, None, :] + mw[:, :, None] * mw[:, None, :]
    dq_oracle = np.einsum("sab,sb->sa", gram, mw)
    dm_oracle = -d_s(nw, grid) - np.einsum("sab,sab->sa", coupling, grad)
    dq_scale = np.einsum("sab,sb->sa", gram, np.abs(mw))
    dm_scale = np.abs(d_s(nw, grid)) + np.einsum("sab,sab->sa", np.abs(coupling), np.abs(grad))

    def refuse(*args):
        raise AssertionError("the right-hand side evaluates no kernel")

    monkeypatch.setattr(peakon, "kernel_eval", refuse)
    monkeypatch.setattr(peakon, "grad_q", refuse)
    dq, dm = (x.take(back, axis=1) for x in peakon._rhs(grid, ordered.q, ordered.mw, aux))
    assert np.all(np.abs(dq - dq_oracle) <= 1e-14 * dq_scale)
    assert np.all(np.abs(dm - dm_oracle) <= 1e-14 * dm_scale)


def bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("n_s, n_p", STAGE_SHAPES)
@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
def test_an_ordered_run_skips_its_gathers_with_the_same_bytes(n_s, n_p, layout):
    # simulate takes one C copy of the state in its order and no stage
    # gathers: the peakons listed in any order, in either layout (an inline
    # config's state is a transposed view), run with the bytes of the
    # C-ordered ascending rows stepped with no relabelling at all
    grid = StrandGrid(n_s, 2 * np.pi, 1e-3, 5e-3)
    rng = np.random.default_rng(11 + n_s * 100 + n_p)
    q = np.sort(shuffled_positions(rng, n_s, n_p), axis=1)
    mw = rng.uniform(0.5, 1.5, (n_s, n_p))
    ref = integrate(lambda st: peakon.step(st, K1, grid), peakon.PeakonState(q, mw, 0.0 * q),
                    grid, slave=partial(peakon._slave, K1, grid, np.arange(n_p)))
    labels = rng.permutation(n_p)
    got = peakon.simulate(peakon.PeakonState(*(layout(x[:, labels]) for x in (q, mw, 0.0 * q))),
                          K1, grid)
    for name in ("q", "mw", "nw"):
        assert bitwise_equal(getattr(got, name), getattr(ref, name)[..., labels]), name


def test_a_row_out_of_the_run_order_is_crossed():
    q = np.array([[0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
    with pytest.raises(NearCollisionError, match="peakons 1 and 2 crossed at s-index 1"):
        peakon._ordered_gaps(q, np.arange(3), 1.0)
    # the labels of the run name the pair
    with pytest.raises(NearCollisionError, match="peakons 0 and 2 crossed at s-index 1"):
        peakon._ordered_gaps(q, np.array([1, 2, 0]), 1.0)


# ---------------------------------------------------------------------------
# the matrix-free stage (peakon.MATRIX_FREE_ENTRIES and up)

@pytest.mark.parametrize("n_s, n_p, n_spans", [(1, 1000, 32), (8, 400, 13)])
def test_rows_of_many_rebase_spans_match_the_dense_gram(n_s, n_p, n_spans):
    # peakons about 2 alpha apart: some 2000 (800) alpha of spread, which the
    # prefix sums cut into 32 (13) rebase spans per row
    alpha = 0.7
    k = HelmholtzKernel(alpha)
    grid = StrandGrid(n_s, 2 * np.pi, 1e-3, 1.0)
    rng = np.random.default_rng(1000 + n_s)
    q = alpha * (np.cumsum(rng.uniform(1.9, 2.1, (n_s, n_p)), axis=1) - n_p)
    mw, nw = rng.standard_normal((2, n_s, n_p))
    if n_s == 1:
        nw = np.zeros_like(nw)  # the only N a run has at n_s = 1
    labels = np.arange(n_p)
    _, prefix, grad, ns = peakon._slave(k, grid, labels, (q,))
    assert grad is None and prefix.decay.shape[-1] + 1 == n_spans
    gram = peakon._gram_all(k, q)
    expected = np.linalg.solve(gram, -d_s(q, grid)[..., None])[..., 0]
    assert np.max(np.abs(ns - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1e-300)
    grad = kernels.grad_q(k, q[..., :, None], q[..., None, :])

    def times(mat, v):
        return np.einsum("sab,sb->sa", mat, v)

    dq_oracle, dq_scale = times(gram, mw), times(gram, np.abs(mw))
    dm_oracle = -d_s(nw, grid) - (nw * times(grad, nw) + mw * times(grad, mw))
    grad = np.abs(grad)
    dm_scale = np.abs(d_s(nw, grid)) + np.abs(nw) * times(grad, np.abs(nw)) \
        + np.abs(mw) * times(grad, np.abs(mw))
    dq, dm = peakon._rhs(grid, q, mw, (labels, prefix, None, nw))
    assert np.all(np.abs(dq - dq_oracle) <= 1e-14 * dq_scale)
    assert np.all(np.abs(dm - dm_oracle) <= 1e-14 * dm_scale)


def _strand_on_a_lattice(n_s, n_p):
    """Peakon a at 2a - n_p, moved 0.1 ((j mod 4) - 1.5) at s-index j, with
    m = 1 + 0.5 a / n_p: the large-n_p inline config, 20 steps of 0.01."""
    q = [[2.0 * a - n_p + 0.1 * ((j % 4) - 1.5) for j in range(n_s)] for a in range(n_p)]
    m = [[1.0 + 0.5 * a / n_p] * n_s for a in range(n_p)]
    cfg = config.parse_config(
        f"scenario: peakon_strand\nparams: {{n_p: {n_p}}}\n"
        f"grid: {{n_s: {n_s}, dt: 0.01, t_end: 0.2}}\n"
        f"initial: {{preset: inline, q0: {q}, m0: {m}}}\n")
    grid = scenarios.make_grid(cfg)
    kernel, state = scenarios.peakon_setup(cfg, grid)
    return state, kernel, grid


WHOLE_RUNS = {
    "strand_16x32": lambda: _strand_on_a_lattice(16, 32),
    "strand_16x64": lambda: _strand_on_a_lattice(16, 64),
    # 64 peakons 2 apart, 126 of spread: two rebase spans
    "classical_64": lambda: ch_classical(0.05, 10.0,
                                         [float(1.0 + 0.5 * np.sin(a)) for a in range(64)],
                                         [2.0 * a - 64.0 for a in range(64)]),
}


def _on_both_sides(monkeypatch, run):
    """{side: run()} with every stage dense, then every stage matrix-free,
    and the number of stages that built prefix factors on each side."""
    out, built = {}, {}
    real = peakon.exp_prefix
    for side, entries in (("dense", 1 << 62), ("matrix-free", 0)):
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(peakon, "MATRIX_FREE_ENTRIES", entries)
            patch.setattr(peakon, "exp_prefix", lambda *a: calls.append(1) or real(*a))
            out[side] = run()
        built[side] = len(calls)
    return out, built


@pytest.mark.parametrize("name", sorted(WHOLE_RUNS))
def test_a_run_agrees_on_both_sides_of_the_switch(monkeypatch, name):
    state, kernel, grid = WHOLE_RUNS[name]()
    runs, built = _on_both_sides(monkeypatch, lambda: peakon.simulate(state, kernel, grid))
    assert built == {"dense": 0, "matrix-free": 1 + 4 * grid.n_steps}
    dense, free = runs["dense"], runs["matrix-free"]
    # measured: at most 9.6e-15 (N of the 32-peakon strand)
    for field in ("q", "mw", "nw"):
        assert np.max(np.abs(getattr(free, field) - getattr(dense, field))) <= 5e-14, field
    if grid.n_s == 1:
        # the classical invariants drift no more than on the dense side, up to
        # the 1e-14 to which the two runs agree (RK4's H drift is 1.1e-10)
        drifts = {side: [np.max(np.abs(x - x[0])) / abs(x[0]) for x in
                         (peakon.collective_hamiltonian(h, kernel)[:, 0],
                          peakon.total_momentum(h)[:, 0])] for side, h in runs.items()}
        assert drifts["dense"][0] > 1e-11
        for free_drift, dense_drift in zip(drifts["matrix-free"], drifts["dense"]):
            assert free_drift <= dense_drift + 1e-14


def test_a_crossed_pair_is_named_on_both_sides(monkeypatch):
    state, kernel, grid = _strand_on_a_lattice(16, 32)
    q = state.q.copy()
    q[5, [7, 8]] = q[5, [8, 7]]  # peakons 7 and 8 swap at s-index 5
    crossed = peakon.PeakonState(q, state.mw, state.nw)

    def halt():
        with pytest.raises(NearCollisionError) as exc:
            peakon.simulate(crossed, kernel, grid)
        return str(exc.value), exc.value.category, exc.value.step_index

    runs, _ = _on_both_sides(monkeypatch, halt)
    assert runs["matrix-free"] == runs["dense"] == \
        ("peakons 7 and 8 crossed at s-index 5", "near-collision", None)


@pytest.mark.parametrize("bad", ["nan_momentum", "nan_position"])
def test_a_non_finite_stage_fails_the_check_on_both_sides(monkeypatch, bad):
    state, kernel, grid = _strand_on_a_lattice(16, 32)
    q, mw = state.q.copy(), state.mw.copy()
    if bad == "nan_momentum":
        mw[3, 0] = np.nan  # NaN positions from stage 2 on, at s-index 3
    else:
        q[3, 5] = np.nan  # a NaN gap is not a near-collision
    stepped = peakon.PeakonState(q, mw, state.nw)

    def halt():
        with pytest.raises(NearCollisionError) as exc:
            peakon.step(stepped, kernel, grid)
        return str(exc.value), exc.value.category

    runs, _ = _on_both_sides(monkeypatch, halt)
    assert runs["matrix-free"] == runs["dense"] == \
        ("per-s Gram conditioning nan exceeds 1e+12 at s-index 3", "near-collision")


def test_the_exact_cond_of_a_matrix_free_stage_is_the_dense_one(monkeypatch):
    # 3000 peakons 0.5 alpha apart but for one gap of 1.1e-8 alpha: past the
    # collision gap, yet cond_1_bound (5.5e11) fails, so the stage takes the
    # exact cond, G 1 from the prefix sums over 24 rebase spans
    alpha, n_p = 0.8, 3000
    k = HelmholtzKernel(alpha)
    gaps = np.full(n_p - 1, 0.5 * alpha)
    gaps[1700] = 1.1e-8 * alpha
    q = np.concatenate([[0.0], np.cumsum(gaps)])[None, :] - 700.0
    assert kernels.cond_1_bound(k, gaps.min(), n_p) > 0.5 * kernels.COND_LIMIT
    rows = np.concatenate([kernels.eval(k, q[0, a:a + 500, None], q[0, None, :]).sum(axis=-1)
                           for a in range(0, n_p, 500)])
    row_gaps = q[:, 1:] - q[:, :-1]
    dense = rows.max() * kernels.tridiag_norm_1(*kernels.helmholtz_1d_inverse(k, row_gaps))[0]
    cond = peakon._cond_1(k, q, row_gaps, None)
    assert cond.shape == (1,) and abs(cond[0] / dense - 1.0) <= 1e-12
    grid = StrandGrid(1, 1.0, 1e-3, 1e-3)
    state = peakon.PeakonState(q, np.ones(q.shape), np.zeros(q.shape))
    exact = []
    real = peakon._cond_1
    monkeypatch.setattr(peakon, "_cond_1", lambda *a: exact.append(a[3]) or real(*a))
    peakon.step(state, k, grid)  # a cond of 4.6e8 passes
    assert len(exact) == 5 and all(gram is None for gram in exact)
    # under a limit the cond passes, the stage halts as the dense check does
    monkeypatch.setattr(peakon, "COND_LIMIT", 1e8)
    with pytest.raises(NearCollisionError) as exc:
        peakon.step(state, k, grid)
    assert str(exc.value) == f"per-s Gram conditioning {dense:.3e} exceeds 1e+08 at s-index 0"
    assert exc.value.category == "near-collision"


def test_a_matrix_free_step_holds_no_gram():
    # one (n_s, n_p, n_p) array of n_s = 16 rows of 512 peakons is 32 MB; a
    # matrix-free step holds a few (n_s, n_p) ones of 64 KB
    state, kernel, grid = _strand_on_a_lattice(16, 512)
    state = peakon.PeakonState(*(np.ascontiguousarray(x) for x in (state.q, state.mw, state.nw)))
    tracemalloc.start()
    try:
        peakon.step(state, kernel, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2 ** 20


def compatibility_oracle(hist, kernel, grid):
    """The compatibility sum of peakon.compatibility_residual as the direct
    three-operand double sums, and the same sums of absolute values."""
    dtn = centered_dt(hist, hist.nw)
    q, mw, nw = hist.q[1:-1], hist.mw[1:-1], hist.nw[1:-1]
    gram = peakon._gram_all(kernel, q)
    grad = kernels.grad_q(kernel, q[..., :, None], q[..., None, :])
    lead_rhs = dtn + d_s(mw, grid, axis=1)
    mn = np.einsum("tsb,tsc->tsbc", mw, nw)
    anti = mn - np.swapaxes(mn, -1, -2)

    def sums(f):
        return (np.einsum("tsab,tsb->tsa", f(gram), f(lead_rhs)),
                np.einsum("tsbc,tsab,tsac->tsa", f(anti), f(gram), f(grad)),
                np.einsum("tsbc,tsbc,tsba->tsa", f(anti), f(gram), f(grad)))

    lead, term1, term2 = sums(np.asarray)
    return lead + term1 - term2, sum(sums(np.abs))


def force_block(monkeypatch, q, slices):
    """Make each block of the history diagnostics hold ``slices`` slices of
    positions q (n_t, n_s, n_p); None keeps peakon._BLOCK."""
    if slices is not None:
        monkeypatch.setattr(peakon, "_BLOCK", slices * q[0].size * q.shape[-1])


@pytest.mark.parametrize("n_p", [1, 2, 32])
def test_factored_compatibility_sum_matches_the_double_sums(monkeypatch, n_p):
    grid = StrandGrid(16, 2 * np.pi, 1e-2, 1.0)
    rng = np.random.default_rng(n_p)
    q = np.stack([shuffled_positions(rng, 16, n_p) for _ in range(6)])
    mw, nw = rng.standard_normal((2, 6, 16, n_p))
    hist = History(np.arange(6) * 0.01, q=q, mw=mw, nw=nw)
    oracle, scale = compatibility_oracle(hist, K1, grid)
    for block in (None, 1, 2, 3):
        with monkeypatch.context() as patch:
            force_block(patch, q, block)
            got = peakon._compatibility_sum(hist, K1, grid)
            assert np.all(np.abs(got - oracle) <= 1e-13 * scale), block
            assert peakon.compatibility_residual(hist, K1, grid) == np.max(np.abs(got))


def _config_history(text):
    cfg = config.parse_config(text)
    grid = scenarios.make_grid(cfg)
    kernel, state = scenarios.peakon_setup(cfg, grid)
    return peakon.simulate(state, kernel, grid), kernel, grid


def _many_peakon_history(n_p):
    grid = StrandGrid(8, 2 * np.pi, 1e-2, 0.1)
    rng = np.random.default_rng(n_p)
    q = shuffled_positions(rng, 1, n_p) + 0.1 * np.sin(grid.s_nodes)[:, None]
    mw = 0.5 + 0.1 * rng.standard_normal((8, n_p))
    return peakon.simulate(peakon.PeakonState(q, mw, 0.0 * q), K1, grid), K1, grid


def _classical_history():
    state, kernel, grid = ch_classical(0.01, 0.2, (1.0, 0.8))
    return peakon.simulate(state, kernel, grid), kernel, grid


DIAGNOSTIC_HISTORIES = {
    "peakon_strand": lambda: _config_history((CONFIGS / "peakon_strand.yaml").read_text()),
    "five_peakon": lambda: _config_history(INLINE["five_peakon"]),
    "single_peakon": lambda: _config_history(INLINE["single_peakon"]),
    "32_peakons": lambda: _many_peakon_history(32),
    # slices of one (t, s) row each: numpy's three-operand einsum sums a lone
    # row in another order than a stack of rows, so each is a block alone
    "n_s_1": _classical_history,
}


@pytest.mark.parametrize("block", [None, 1, 2, 3, 7])
@pytest.mark.parametrize("name", sorted(DIAGNOSTIC_HISTORIES))
def test_blocked_history_diagnostics_equal_the_whole_history(monkeypatch, name, block):
    hist, kernel, grid = DIAGNOSTIC_HISTORIES[name]()
    n_t, n_s, _ = hist.q.shape
    whole = oracles.whole_history_peakon_diagnostics(hist, kernel, grid)
    if n_s == 1:
        # a History row sums as its state does, not as the whole-history einsum
        whole = whole._replace(hamiltonian=np.stack([
            peakon.collective_hamiltonian(peakon.PeakonState(q, mw, nw), kernel)
            for q, mw, nw in zip(hist.q, hist.mw, hist.nw)]))
    force_block(monkeypatch, hist.q, block)
    built = []
    real = peakon.kernel_eval
    monkeypatch.setattr(peakon, "kernel_eval",
                        lambda k, m, m_prime: built.append(len(m)) or real(k, m, m_prime))
    got = oracles.PeakonDiagnostics(
        peakon.collective_hamiltonian(hist, kernel), peakon.s_constraint_residual(hist, kernel, grid),
        peakon.cross_derivative_residual(hist, kernel, grid),
        peakon._compatibility_sum(hist, kernel, grid))
    for field, expected, value in zip(whole._fields, whole, got):
        assert bitwise_equal(np.asarray(value), np.asarray(expected)), field
    # each slice's Gram is built once per diagnostic (the interior ones only for
    # the compatibility sum), at most the forced number of slices at a time,
    # and exactly one at n_s = 1
    assert sum(built) == 3 * n_t + n_t - 2
    if n_s == 1:
        assert set(built) == {1}, built
    elif block is not None:
        assert all(1 <= size <= block for size in built), built


def test_single_state_diagnostics_are_one_slice_of_the_history():
    for name in ("32_peakons", "n_s_1"):
        hist, kernel, grid = DIAGNOSTIC_HISTORIES[name]()
        hamiltonian = peakon.collective_hamiltonian(hist, kernel)
        momentum = peakon.total_momentum(hist)
        s_constraint = peakon.s_constraint_residual(hist, kernel, grid)
        for k in range(len(hist.times)):
            st = peakon.PeakonState(hist.q[k], hist.mw[k], hist.nw[k])
            energy = peakon.collective_hamiltonian(st, kernel)
            assert bitwise_equal(energy, hamiltonian[k]), (name, k)
            assert bitwise_equal(peakon.total_momentum(st), momentum[k]), (name, k)
            assert peakon.s_constraint_residual(st, kernel, grid) == s_constraint[k], (name, k)


@pytest.mark.parametrize("residual", [peakon.cross_derivative_residual,
                                      peakon.compatibility_residual])
def test_one_slice_blocks_still_need_three_stored_slices(monkeypatch, residual):
    # tests/test_gstrand.py checks the default blocks
    hist, kernel, grid = _many_peakon_history(4)
    two = History(hist.times[:2], q=hist.q[:2], mw=hist.mw[:2], nw=hist.nw[:2])
    force_block(monkeypatch, two.q, 1)
    with pytest.raises(DimensionMismatchError, match="^residuals need at least 3 stored slices$"):
        residual(two, kernel, grid)


def test_history_diagnostics_hold_one_block_of_the_gram():
    # 41 slices of n_s = 16, n_p = 64: the whole-history Gram alone is 21.5 MB,
    # one block's 512 KB (peakon._BLOCK entries, here one slice)
    n_t, n_s, n_p = 41, 16, 64
    rng = np.random.default_rng(41)
    q = np.stack([shuffled_positions(rng, n_s, n_p) for _ in range(n_t)])
    mw, nw = rng.standard_normal((2, n_t, n_s, n_p))
    hist = History(np.arange(n_t) * 0.01, q=q, mw=mw, nw=nw)
    grid = StrandGrid(n_s, 2 * np.pi, 0.01, 0.4)
    # the block's Gram and the compatibility sum's gradient, and eight arrays
    # the size of one field of the history (matrix-vector products, sums)
    bound = 2 * 8 * peakon._BLOCK + 8 * q.nbytes
    peaks = []
    for diagnostic in (lambda: peakon.collective_hamiltonian(hist, K1),
                       lambda: peakon.s_constraint_residual(hist, K1, grid),
                       lambda: peakon.cross_derivative_residual(hist, K1, grid),
                       lambda: peakon.compatibility_residual(hist, K1, grid)):
        tracemalloc.start()
        try:
            diagnostic()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < bound < 8 * q.size * n_p


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
    nu_at_q, _ = peakon.field_snapshot(st, K1, [st.q[j, 0]])
    gram = kernels.eval(K1, st.q[j, 0], st.q[j])
    assert nu_at_q[j, 0] == pytest.approx(float(gram @ st.mw[j]))
    # decay bound: |nu(m)| <= sum |M_a| G(distance to nearest peakon)
    for i, m in enumerate(m_grid):
        bound = np.sum(np.abs(st.mw[j])) * kernels.eval(
            K1, 0.0, np.min(np.abs(m - st.q[j])))
        assert abs(nu[j, i]) <= bound + 1e-14


@pytest.mark.parametrize("n_s, n_p", [(1, 2), (16, 2), (16, 32)])
def test_field_snapshot_of_stacked_slices_is_the_per_slice_calls(n_s, n_p):
    # the two end slices in one call, as the fields CSV takes them, bit for bit
    rng = np.random.default_rng(n_s + n_p)
    q = np.sort(rng.uniform(-3.0, 3.0, (2, n_s, n_p)), axis=-1)
    mw, nw = rng.standard_normal((2, 2, n_s, n_p))
    m_grid = np.linspace(-9.0, 9.0, 121)
    nu, gam = peakon.field_snapshot(History(np.array([0.0, 1.0]), q=q, mw=mw, nw=nw), K1, m_grid)
    assert nu.shape == gam.shape == (2, n_s, 121)
    for k in range(2):
        one = peakon.field_snapshot(peakon.PeakonState(q[k], mw[k], nw[k]), K1, m_grid)
        assert nu[k].tobytes() == one[0].tobytes() and gam[k].tobytes() == one[1].tobytes()


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
