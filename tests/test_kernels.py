import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _cond_1, dense_times, discrete_green_1d, gram, norm_1, solve_gram

from gstrands import kernels
from gstrands.errors import InvalidParameterError, NearCollisionError

K1 = kernels.HelmholtzKernel(1.0, 1)


def test_eval_1d_at_origin_matches_discrete_solve():
    x, g = discrete_green_1d()
    i0 = len(x) // 2
    assert abs(g[i0] - 0.5) < 1e-4
    assert abs(kernels.eval(K1, 0.0, 0.0) - 0.5) < 1e-12
    # and along the profile
    idx = np.abs(x) < 5.0
    assert np.max(np.abs(g[idx] - kernels.eval(K1, x[idx], 0.0))) < 1e-4


def test_eval_symmetric():
    rng = np.random.default_rng(0)
    xs, ys = rng.uniform(-5, 5, (2, 100))
    assert np.array_equal(kernels.eval(K1, xs, ys), kernels.eval(K1, ys, xs))


def test_grad_q_matches_central_difference():
    h = 1e-6
    fd = (kernels.eval(K1, 1.0 + h, 0.0) - kernels.eval(K1, 1.0 - h, 0.0)) / (2 * h)
    val = kernels.grad_q(K1, 1.0, 0.0)
    assert abs(val - fd) < 1e-6
    assert abs(val - (-0.5 * math.exp(-1.0))) < 1e-12


def test_grad_q_coincidence_convention():
    assert kernels.grad_q(K1, 0.7, 0.7) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(-8, 8, allow_nan=False), st.floats(-8, 8, allow_nan=False))
def test_grad_q_antisymmetric(q, qp):
    assert kernels.grad_q(K1, q, qp) == -kernels.grad_q(K1, qp, q)


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 5.0), st.floats(-10, 10), st.floats(0, 10))
def test_eval_nonnegative_and_monotone(alpha, x, d):
    k = kernels.HelmholtzKernel(alpha, 1)
    near = kernels.eval(k, x, x + d)
    far = kernels.eval(k, x, x + d + 0.5)
    assert near >= far >= 0.0


def test_gram_single_point():
    g = gram(K1, [0.0])
    assert np.allclose(g.matrix, [[0.5]])
    assert solve_gram(g, np.array([1.0]))[0] == pytest.approx(2.0)


def test_gram_off_diagonal_value():
    g = gram(K1, [0.0, math.log(4.0)])
    assert abs(g.matrix[0, 1] - 0.125) < 1e-15


def test_gram_coincident_points_flagged():
    g = gram(K1, [1.0, 1.0])
    assert not np.isfinite(g.cond_estimate) or g.cond_estimate > kernels.COND_LIMIT
    with pytest.raises(NearCollisionError):
        solve_gram(g, np.array([1.0, 1.0]))


def test_solve_gram_round_trip():
    rng = np.random.default_rng(1)
    pts = np.sort(rng.uniform(-4, 4, 7))
    g = gram(K1, pts)
    x = rng.standard_normal(7)
    rhs = g.matrix @ x
    sol = solve_gram(g, rhs)
    assert np.max(np.abs(sol - x)) < 1e-10
    assert np.max(np.abs(g.matrix @ sol - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_gram_positive_definite_for_distinct_points():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = rng.integers(2, 7)
        pts = rng.uniform(-10, 10, n)
        while np.min(np.diff(np.sort(pts))) < 1e-3:
            pts = rng.uniform(-10, 10, n)
        g = gram(K1, pts)
        np.linalg.cholesky(g.matrix)   # raises if not positive definite


def shuffled_rows(rng, n_rows, n, alpha, gap_lo, gap_hi):
    """Rows of n points with adjacent gaps in [gap_lo, gap_hi] * alpha, each
    row in a random (unsorted) order."""
    gaps = rng.uniform(gap_lo, gap_hi, (n_rows, n)) * alpha
    pts = np.cumsum(gaps, axis=1) - 3.0
    return np.stack([rng.permutation(row) for row in pts])


def sorted_gaps(pts):
    """(order, gaps): the ascending order of each row of pts, and the
    adjacent gaps of the rows taken in it."""
    order = np.argsort(pts, axis=-1)
    return order, np.diff(np.take_along_axis(pts, order, -1), axis=-1)


def sorted_inverse(k, pts):
    order, gaps = sorted_gaps(pts)
    return order, kernels.helmholtz_1d_inverse(k, gaps)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_tridiagonal_solve_matches_dense_oracles(n, alpha):
    k = kernels.HelmholtzKernel(alpha, 1)
    rng = np.random.default_rng(n)
    pts = shuffled_rows(rng, 5, n, alpha, 0.5, 2.0)
    mats = kernels.eval(k, pts[:, :, None], pts[:, None, :])
    rhs = rng.standard_normal((5, n))
    order, gaps = sorted_gaps(pts)
    back = np.argsort(order, axis=-1)
    sorted_pts, sorted_rhs = (np.take_along_axis(a, order, -1) for a in (pts, rhs))
    sorted_mats = kernels.eval(k, sorted_pts[:, :, None], sorted_pts[:, None, :])
    inverse = kernels.helmholtz_1d_inverse(k, gaps)
    x = np.take_along_axis(
        kernels.tridiag_solve_sorted(dense_times(sorted_mats), inverse, sorted_rhs), back, -1)
    for oracle in (np.linalg.solve(mats, rhs[..., None])[..., 0],
                   kernels.chol_solve_batched(mats, rhs)):
        assert np.max(np.abs(x - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_tridiagonal_inverse_condition_matches_cond_1(n):
    # gaps down to 0.01 alpha make conditioning up to ~1e4 per close pair
    rng = np.random.default_rng(100 + n)
    for alpha in (0.3, 1.0, 2.5):
        k = kernels.HelmholtzKernel(alpha, 1)
        pts = shuffled_rows(rng, 4, n, alpha, 0.01, 2.0)
        mats = kernels.eval(k, pts[:, :, None], pts[:, None, :])
        _, (diag, off) = sorted_inverse(k, pts)
        cond = norm_1(mats) * kernels.tridiag_norm_1(diag, off)
        assert np.max(np.abs(cond / _cond_1(mats) - 1.0)) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.1, 10.0),
       log_gaps=st.lists(st.floats(-7.0, math.log10(50.0)), min_size=0, max_size=39),
       equal=st.booleans())
def test_cond_1_bound_holds_at_the_smallest_gap(alpha, log_gaps, equal):
    # n_p = 1-40 points with gaps 1e-7 alpha to 50 alpha; equal gaps come
    # closest to the bound, whose row-sum half assumes endless neighbours
    # until the n_p points cap it
    k = kernels.HelmholtzKernel(alpha, 1)
    gaps = alpha * 10.0 ** np.array(log_gaps)
    if equal:
        gaps = np.full_like(gaps, gaps.min(initial=1.0))
    pts = np.concatenate([[0.0], np.cumsum(gaps)])[None, :] - 1.0
    row_gaps = np.diff(pts, axis=1)
    mats = kernels.eval(k, pts[:, :, None], pts[:, None, :])
    cond = norm_1(mats) * kernels.tridiag_norm_1(*kernels.helmholtz_1d_inverse(k, row_gaps))
    bound = kernels.cond_1_bound(k, row_gaps.min(initial=np.inf), pts.shape[1])
    assert cond[0] <= bound * (1.0 + 1e-12)
    # so a bound at half the limit never clears a row past the limit
    assert not (bound <= 0.5 * kernels.COND_LIMIT and cond[0] > kernels.COND_LIMIT)


def test_cond_1_bound_edges():
    assert kernels.cond_1_bound(K1, np.inf, 1) == 1.0
    assert kernels.cond_1_bound(K1, np.nan, 2) == math.inf
    assert kernels.cond_1_bound(K1, 0.0, 2) == math.inf
    assert kernels.cond_1_bound(kernels.HelmholtzKernel(1e300), 1e-8, 2) == math.inf
    # far apart, coth^2(gap / 2 alpha); two points have cond_1 = coth(gap / 2 alpha)
    coth = 1.0 / math.tanh(1.0)
    assert kernels.cond_1_bound(K1, 2.0, 40) == pytest.approx(coth ** 2, rel=1e-15)
    # close together, n_p coth(gap / 2 alpha): at the collision gap 1e-8 alpha
    # the bound passes COND_LIMIT / 2 only above about 2500 points
    assert kernels.cond_1_bound(K1, 2.0, 1) == pytest.approx(coth, rel=1e-15)
    assert kernels.cond_1_bound(K1, 1e-8, 2499) <= 0.5 * kernels.COND_LIMIT
    assert kernels.cond_1_bound(K1, 1e-8, 2501) > 0.5 * kernels.COND_LIMIT


@pytest.mark.parametrize("solver", ["tridiag_solve_sorted", "chol_solve_batched"])
def test_nan_rhs_fails_the_gram_solve_residual_check(solver):
    q = np.array([[0.0, 1.0, 2.5]])  # the 3-peakon Gram, in sorted order
    mats = kernels.eval(K1, q[:, :, None], q[:, None, :])
    inverse = kernels.helmholtz_1d_inverse(K1, np.diff(q, axis=1))
    rhs = np.array([[1.0, np.nan, 0.5]])
    with pytest.raises(NearCollisionError, match="residual above tolerance"):
        if solver == "tridiag_solve_sorted":
            kernels.tridiag_solve_sorted(dense_times(mats), inverse, rhs)
        else:
            kernels.chol_solve_batched(mats, rhs)
    # a finite rhs on the same system passes, and an all-zero one is +0
    x = kernels.tridiag_solve_sorted(dense_times(mats), inverse, np.array([[1.0, -0.5, 0.5]]))
    assert np.all(np.isfinite(x))
    zero = kernels.tridiag_solve_sorted(dense_times(mats), inverse, -np.zeros((1, 3)))
    assert np.array_equal(zero, np.zeros((1, 3))) and not np.signbit(zero).any()


def _prefix_rows(layout, alpha):
    """Ascending rows (..., n) of one kind, in units of alpha."""
    rng = np.random.default_rng(len(layout))
    if layout == "one span":
        return alpha * np.cumsum(rng.uniform(0.3, 2.0, (5, 30)), axis=1)
    if layout == "many spans":
        return alpha * (np.cumsum(rng.uniform(0.3, 2.0, (4, 300)), axis=1) - 100.0)
    if layout == "clustered":
        # 100 points within alpha at each end of 600 alpha: the spans
        # between them are empty, the end spans full
        ends = np.sort(rng.uniform(0.0, 1.0, (3, 2, 100)), axis=-1) + [[0.0], [600.0]]
        return alpha * ends.reshape(3, 200)
    if layout == "one point":
        return alpha * rng.uniform(-1.0, 1.0, (4, 1))
    if layout == "a repeated point":
        # a row of one repeated point, of no spread, beside a row of many spans
        return alpha * np.stack([np.zeros(80), np.cumsum(rng.uniform(1.0, 3.0, 80))])
    return alpha * (np.cumsum(rng.uniform(0.3, 2.0, 200)) + 1e3)  # one row, no batch axis


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("layout", ["one span", "many spans", "clustered", "one point",
                                    "a repeated point", "unbatched"])
def test_prefix_sums_are_the_dense_triangles(layout, alpha):
    k = kernels.HelmholtzKernel(alpha, 1)
    q = _prefix_rows(layout, alpha)
    w = np.random.default_rng(7).standard_normal(q.shape)
    factors = kernels.exp_prefix(k, q)
    n_spans = factors.decay.shape[-1] + 1
    assert (n_spans == 1) == (layout in ("one span", "one point"))
    lower, upper = kernels.prefix_sums(factors, w)
    g = kernels.eval(k, q[..., :, None], q[..., None, :])
    # each term's error is eps times: the |t| <= REBASE_SPAN / 2 of each of
    # its two factors, the dense path's own exponent |q_a - q_b| / alpha, and
    # the |a - b| partial sums that carry it, plus two roundings
    n = q.shape[-1]
    weight = g * np.finfo(float).eps * (
        kernels.REBASE_SPAN + np.abs(q[..., :, None] - q[..., None, :]) / alpha
        + np.abs(np.arange(n)[:, None] - np.arange(n)) + 2.0)
    for got, part in ((lower, np.tril), (upper, np.triu)):
        oracle = np.einsum("...ab,...b->...a", part(g, -1 if part is np.tril else 1), w)
        bound = np.einsum("...ab,...b->...a", part(weight, -1 if part is np.tril else 1), np.abs(w))
        assert got.shape == w.shape and np.all(np.abs(got - oracle) <= bound)


def test_quadrature_identity_second_order():
    # sum_j G(x_i, x_j) ((1 - D^2) f)(x_j) h reproduces f at second order
    def err(h):
        extent = 40.0
        n = int(round(extent / h))
        x = (np.arange(n) - n // 2) * h
        f = np.exp(-(x**2))
        lap = (np.roll(f, -1) - 2 * f + np.roll(f, 1)) / h**2
        g = kernels.eval(K1, x[:, None], x[None, :])
        recon = g @ (f - lap) * h
        sel = np.abs(x) < 3.0
        return np.max(np.abs(recon[sel] - f[sel]))

    e1, e2 = err(0.05), err(0.025)
    assert math.log2(e1 / e2) >= 1.9


def test_invalid_kernel_parameters():
    with pytest.raises(InvalidParameterError):
        kernels.HelmholtzKernel(-1.0, 1)
    with pytest.raises(InvalidParameterError):
        kernels.HelmholtzKernel(1.0, 4)
    for dim in (2, 3):  # their Green's functions are infinite on the Gram diagonal
        with pytest.raises(InvalidParameterError):
            kernels.HelmholtzKernel(1.0, dim)
    # a subnormal alpha: 1/(2 alpha) overflows, and the Gram would be inf and NaN
    with pytest.raises(InvalidParameterError, match="1/\\(2 alpha\\) finite"):
        kernels.HelmholtzKernel(1e-320, 1)


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_a_non_finite_alpha_is_refused(alpha):
    # 1/(2 inf) is finite, yet G would be 0 everywhere: without this check a
    # classical pair 3 apart halts as "within 3.000e+00 of collision", its
    # collision gap being 1e-8 inf
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        kernels.HelmholtzKernel(alpha)
