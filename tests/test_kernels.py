import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gstrands import kernels
from gstrands.errors import InvalidParameterError, NearCollisionError, SingularKernelError

K1 = kernels.HelmholtzKernel(1.0, 1)
K3 = kernels.HelmholtzKernel(1.0, 3)


def discrete_green_1d(alpha=1.0, h=1e-3, extent=20.0):
    """Impulse response of the second-difference (1 - alpha^2 D^2) operator."""
    n = int(round(extent / h))
    main = np.full(n, 1.0 + 2.0 * alpha**2 / h**2)
    off = np.full(n - 1, -(alpha**2) / h**2)
    mat = scipy.sparse.diags([off, main, off], [-1, 0, 1], format="lil")
    mat[0, -1] = -(alpha**2) / h**2
    mat[-1, 0] = -(alpha**2) / h**2
    rhs = np.zeros(n)
    rhs[n // 2] = 1.0 / h
    sol = scipy.sparse.linalg.spsolve(mat.tocsc(), rhs)
    x = (np.arange(n) - n // 2) * h
    return x, sol


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


def test_eval_3d_closed_form():
    p = np.zeros(3)
    q = np.array([1.0, 0.0, 0.0])
    val = kernels.eval(K3, p, q)
    assert abs(val - math.exp(-1.0) / (4.0 * math.pi)) < 1e-12
    # radial check: (1 - Lap) annihilates the kernel away from the source
    r = np.linspace(0.5, 4.0, 2000)
    g = np.exp(-r) / (4 * math.pi * r)
    h = r[1] - r[0]
    lap = np.gradient(r**2 * np.gradient(g, h), h) / r**2
    assert np.max(np.abs((g - lap)[2:-2])) < 1e-4


def test_eval_3d_singular_at_coincidence():
    with pytest.raises(SingularKernelError):
        kernels.eval(K3, np.zeros(3), np.zeros(3))


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
    g = kernels.gram(K1, [0.0])
    assert np.allclose(g.matrix, [[0.5]])
    assert kernels.solve_gram(g, np.array([1.0]))[0] == pytest.approx(2.0)


def test_gram_off_diagonal_value():
    g = kernels.gram(K1, [0.0, math.log(4.0)])
    assert abs(g.matrix[0, 1] - 0.125) < 1e-15


def test_gram_coincident_points_flagged():
    g = kernels.gram(K1, [1.0, 1.0])
    assert not np.isfinite(g.cond_estimate) or g.cond_estimate > kernels.COND_LIMIT
    with pytest.raises(NearCollisionError):
        kernels.solve_gram(g, np.array([1.0, 1.0]))


def test_solve_gram_round_trip():
    rng = np.random.default_rng(1)
    pts = np.sort(rng.uniform(-4, 4, 7))
    g = kernels.gram(K1, pts)
    x = rng.standard_normal(7)
    rhs = g.matrix @ x
    sol = kernels.solve_gram(g, rhs)
    assert np.max(np.abs(sol - x)) < 1e-10
    assert np.max(np.abs(g.matrix @ sol - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_gram_positive_definite_for_distinct_points():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = rng.integers(2, 7)
        pts = rng.uniform(-10, 10, n)
        while np.min(np.diff(np.sort(pts))) < 1e-3:
            pts = rng.uniform(-10, 10, n)
        g = kernels.gram(K1, pts)
        np.linalg.cholesky(g.matrix)   # raises if not positive definite


def shuffled_rows(rng, n_rows, n, alpha, gap_lo, gap_hi):
    """Rows of n points with adjacent gaps in [gap_lo, gap_hi] * alpha, each
    row in a random (unsorted) order."""
    gaps = rng.uniform(gap_lo, gap_hi, (n_rows, n)) * alpha
    pts = np.cumsum(gaps, axis=1) - 3.0
    return np.stack([rng.permutation(row) for row in pts])


def sorted_inverse(k, pts):
    srt = kernels.sort_rows(pts)
    sorted_pts = pts.take(srt[0])
    return srt, kernels.helmholtz_1d_inverse(k, sorted_pts[:, 1:] - sorted_pts[:, :-1])


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("n", [1, 2, 3, 8, 64])
def test_tridiagonal_solve_matches_dense_oracles(n, alpha):
    k = kernels.HelmholtzKernel(alpha, 1)
    rng = np.random.default_rng(n)
    pts = shuffled_rows(rng, 5, n, alpha, 0.5, 2.0)
    mats = kernels.eval(k, pts[:, :, None], pts[:, None, :])
    rhs = rng.standard_normal((5, n))
    srt, (diag, off) = sorted_inverse(k, pts)
    x = kernels.tridiag_solve_sorted(mats, diag, off, srt, rhs)
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
        cond = kernels.norm_1(mats) * kernels.tridiag_norm_1(diag, off)
        assert np.max(np.abs(cond / kernels._cond_1(mats) - 1.0)) <= 1e-10


def test_tridiagonal_inverse_refuses_non_1d_kernel():
    with pytest.raises(InvalidParameterError):
        kernels.helmholtz_1d_inverse(K3, np.ones((1, 2)))


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


def test_dim2_kernel_behind_flag():
    with pytest.raises(InvalidParameterError):
        kernels.HelmholtzKernel(1.0, 2)
    k2 = kernels.HelmholtzKernel(1.0, 2, allow_dim2=True)
    # spot check against the modified Bessel profile via its integral identity:
    # (1 - Lap) G = 0 away from the origin, checked radially
    r = np.linspace(0.4, 3.0, 400)
    pts = np.stack([r, np.zeros_like(r)], axis=1)
    g = kernels.eval(k2, pts, np.zeros(2))
    h = r[1] - r[0]
    lap = np.gradient(r * np.gradient(g, h), h) / r
    assert np.max(np.abs((g - lap)[3:-3])) < 5e-3
    with pytest.raises(SingularKernelError):
        kernels.eval(k2, np.zeros(2), np.zeros(2))


def test_invalid_kernel_parameters():
    with pytest.raises(InvalidParameterError):
        kernels.HelmholtzKernel(-1.0, 1)
    with pytest.raises(InvalidParameterError):
        kernels.HelmholtzKernel(1.0, 4)
