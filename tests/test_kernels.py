import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _cond_1, discrete_green_1d, gram, norm_1, solve_gram

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
    srt = kernels.sort_rows(pts)
    sorted_pts = pts.take(srt[0])
    return srt, sorted_pts[:, 1:] - sorted_pts[:, :-1]


def sorted_inverse(k, pts):
    srt, gaps = sorted_gaps(pts)
    return srt, kernels.helmholtz_1d_inverse(k, gaps)


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_tridiagonal_solve_matches_dense_oracles(n, alpha):
    k = kernels.HelmholtzKernel(alpha, 1)
    rng = np.random.default_rng(n)
    pts = shuffled_rows(rng, 5, n, alpha, 0.5, 2.0)
    mats = kernels.eval(k, pts[:, :, None], pts[:, None, :])
    rhs = rng.standard_normal((5, n))
    (perm, inv), gaps = sorted_gaps(pts)
    sorted_pts = pts.take(perm)
    sorted_mats = kernels.eval(k, sorted_pts[:, :, None], sorted_pts[:, None, :])
    x = kernels.tridiag_solve_sorted(sorted_mats, k, gaps, rhs.take(perm)).take(inv)
    # an inverse handed in is the one the solve would build
    given_inverse = kernels.tridiag_solve_sorted(sorted_mats, k, gaps, rhs.take(perm),
                                                 kernels.helmholtz_1d_inverse(k, gaps))
    assert given_inverse.take(inv).tobytes() == x.tobytes()
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
    k = kernels.HelmholtzKernel(alpha, 1)
    gaps = alpha * 10.0 ** np.array(log_gaps)
    if equal:
        gaps = np.full_like(gaps, gaps.min(initial=1.0))
    pts = np.concatenate([[0.0], np.cumsum(gaps)])[None, :] - 1.0
    row_gaps = np.diff(pts, axis=1)
    mats = kernels.eval(k, pts[:, :, None], pts[:, None, :])
    cond = norm_1(mats) * kernels.tridiag_norm_1(*kernels.helmholtz_1d_inverse(k, row_gaps))
    bound = kernels.cond_1_bound(k, row_gaps.min(initial=np.inf))
    assert cond[0] <= bound * (1.0 + 1e-12)
    # so a bound at half the limit never clears a row past the limit
    assert not (bound <= 0.5 * kernels.COND_LIMIT and cond[0] > kernels.COND_LIMIT)


def test_cond_1_bound_edges():
    assert kernels.cond_1_bound(K1, np.inf) == 1.0
    assert kernels.cond_1_bound(K1, np.nan) == math.inf
    assert kernels.cond_1_bound(K1, 0.0) == math.inf
    assert kernels.cond_1_bound(kernels.HelmholtzKernel(1e300), 1e-8) == math.inf
    # two points: cond_1 = coth(gap / 2 alpha), the square root of the bound
    assert kernels.cond_1_bound(K1, 2.0) == pytest.approx(1.0 / math.tanh(1.0) ** 2, rel=1e-15)


@pytest.mark.parametrize("solver", ["tridiag_solve_sorted", "chol_solve_batched"])
def test_nan_rhs_fails_the_gram_solve_residual_check(solver):
    q = np.array([[0.0, 1.0, 2.5]])  # the 3-peakon Gram, in sorted order
    mats = kernels.eval(K1, q[:, :, None], q[:, None, :])
    gaps = np.diff(q, axis=1)
    rhs = np.array([[1.0, np.nan, 0.5]])
    with pytest.raises(NearCollisionError, match="residual above tolerance"):
        if solver == "tridiag_solve_sorted":
            kernels.tridiag_solve_sorted(mats, K1, gaps, rhs)
        else:
            kernels.chol_solve_batched(mats, rhs)
    # a finite rhs on the same system passes, and an all-zero one is +0
    x = kernels.tridiag_solve_sorted(mats, K1, gaps, np.array([[1.0, -0.5, 0.5]]))
    assert np.all(np.isfinite(x))
    zero = kernels.tridiag_solve_sorted(mats, K1, gaps, -np.zeros((1, 3)))
    assert np.array_equal(zero, np.zeros((1, 3))) and not np.signbit(zero).any()


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
