"""Green's functions of (1 - alpha^2 Lap) and Gram-matrix machinery.

The 1D and 3D kernels are closed-form; the 2D kernel (a modified Bessel K0
profile) is an optional extension behind the ``allow_dim2`` flag and uses the
classical 9.8.5/9.8.6 polynomial fits.

Every Gram solve is one application of an inverse, one refinement sweep
against the dense matrix and a residual check at SOLVE_RTOL.  General
systems go through a Cholesky factorization whose substitutions run in a
fixed loop order.  The 1D kernel at sorted points has a tridiagonal inverse
in closed form (helmholtz_1d_inverse), applied by elementwise products.
Neither path uses a BLAS call whose summation order depends on threading,
so repeated runs are bitwise identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NearCollisionError, SingularKernelError

COND_LIMIT = 1e12
SOLVE_RTOL = 1e-10

# K0 polynomial fits on (0, 2] and [2, inf); abs error < 1e-7
_K0_SMALL = (-0.57721566, 0.42278420, 0.23069756, 0.03488590,
             0.00262698, 0.00010750, 0.00000740)
_K0_LARGE = (1.25331414, -0.07832358, 0.02189568, -0.01062446,
             0.00587872, -0.00251540, 0.00053208)
_I0_SMALL = (1.0, 3.5156229, 3.0899424, 1.2067492,
             0.2659732, 0.0360768, 0.0045813)


def _poly(coeffs, x):
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _k0(x):
    x = np.asarray(x, dtype=float)
    small = x <= 2.0
    out = np.empty_like(x)
    xs = np.where(small, x, 1.0)
    i0 = _poly(_I0_SMALL, (xs / 3.75) ** 2)
    out_s = -np.log(xs / 2.0) * i0 + _poly(_K0_SMALL, (xs / 2.0) ** 2)
    xl = np.where(small, 2.0, x)
    out_l = np.exp(-xl) / np.sqrt(xl) * _poly(_K0_LARGE, 2.0 / xl)
    out[...] = np.where(small, out_s, out_l)
    return out


@dataclass(frozen=True)
class HelmholtzKernel:
    """Green's function of (1 - alpha^2 Lap) in dimension 1, 2 (optional) or 3."""

    alpha: float
    dim: int = 1
    allow_dim2: bool = False

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise InvalidParameterError(f"alpha must be positive, got {self.alpha}")
        if self.dim not in (1, 2, 3):
            raise InvalidParameterError(f"unsupported kernel dimension {self.dim}")
        if self.dim == 2 and not self.allow_dim2:
            raise InvalidParameterError("dim=2 kernel is optional; pass allow_dim2=True")


def _separation(k, m, m_prime):
    m = np.asarray(m, dtype=float)
    m_prime = np.asarray(m_prime, dtype=float)
    if k.dim == 1:
        return np.abs(m - m_prime)
    return np.linalg.norm(m - m_prime, axis=-1)


def eval(k: HelmholtzKernel, m, m_prime):
    """G(m, m') >= 0, monotone decreasing in |m - m'|; batched."""
    r = _separation(k, m, m_prime)
    a = k.alpha
    if k.dim == 1:
        return np.exp(-r / a) / (2.0 * a)
    if np.any(r == 0.0):
        raise SingularKernelError(f"{k.dim}D kernel is singular at coincident points")
    if k.dim == 3:
        return np.exp(-r / a) / (4.0 * math.pi * a * a * r)
    return _k0(r / a) / (2.0 * math.pi * a * a)


def grad_q(k: HelmholtzKernel, q, q_prime):
    """d/dq G(q, q'); at q = q' the 1D kernel returns 0 (peakon convention)."""
    if k.dim == 1:
        q = np.asarray(q, dtype=float)
        q_prime = np.asarray(q_prime, dtype=float)
        d = q - q_prime
        a = k.alpha
        # np.sign(0) = 0 realizes the coincidence convention
        return -np.sign(d) * np.exp(-np.abs(d) / a) / (2.0 * a * a)
    if k.dim == 3:
        q = np.asarray(q, dtype=float)
        q_prime = np.asarray(q_prime, dtype=float)
        d = q - q_prime
        r = np.linalg.norm(d, axis=-1)
        if np.any(r == 0.0):
            raise SingularKernelError("3D kernel gradient is singular at coincident points")
        g = eval(k, q, q_prime)
        return (-g * (1.0 / k.alpha + 1.0 / r) / r)[..., None] * d
    raise InvalidParameterError("gradient of the 2D kernel is not provided")


@dataclass(frozen=True)
class GramSystem:
    points: np.ndarray
    matrix: np.ndarray
    cond_estimate: float


def norm_1(mats):
    """Matrix 1-norm (largest absolute column sum), batched."""
    return np.abs(mats).sum(axis=-2).max(axis=-1)


def _cond_1(mats):
    """1-norm condition number, batched; inf marks singular matrices."""
    norm = norm_1(mats)
    try:
        inv_norm = np.abs(np.linalg.inv(mats)).sum(axis=-2).max(axis=-1)
    except np.linalg.LinAlgError:
        return np.full(mats.shape[:-2], np.inf) if mats.ndim > 2 else np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        return norm * inv_norm


def gram(k: HelmholtzKernel, points) -> GramSystem:
    """Kernel matrix G(points[a], points[b]) with a 1-norm conditioning estimate."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 0:
        points = points[None]
    if points.shape[0] < 1:
        raise InvalidParameterError("gram needs at least one point")
    left = points[:, None] if k.dim == 1 else points[:, None, :]
    right = points[None, :] if k.dim == 1 else points[None, :, :]
    matrix = eval(k, left, right)
    return GramSystem(points, matrix, float(_cond_1(matrix)))


def chol_solve_batched(mats, rhs):
    """Cholesky solve of (..., n, n) systems with one refinement sweep.

    The forward/back substitutions run in a fixed loop order so the result
    does not depend on BLAS threading.
    """
    mats = np.asarray(mats, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    try:
        low = np.linalg.cholesky(mats)
    except np.linalg.LinAlgError as exc:
        raise NearCollisionError(f"Gram matrix not positive definite: {exc}") from exc

    def substitute(b):
        n = mats.shape[-1]
        y = np.zeros_like(b)
        for i in range(n):
            acc = b[..., i].copy()
            for j in range(i):
                acc -= low[..., i, j] * y[..., j]
            y[..., i] = acc / low[..., i, i]
        x = np.zeros_like(b)
        for i in range(n - 1, -1, -1):
            acc = y[..., i].copy()
            for j in range(i + 1, n):
                acc -= low[..., j, i] * x[..., j]
            x[..., i] = acc / low[..., i, i]
        return x

    return _refined_solve(mats, substitute, rhs)


def _refined_solve(mats, apply_inv, rhs):
    """x = apply_inv(rhs), one refinement sweep against the dense mats, and
    a residual check at SOLVE_RTOL relative to max |rhs|.  An all-zero rhs
    (the classical mode's -d_s Q) has the exact solution +0, returned as is."""
    if not rhs.any():
        return np.zeros_like(rhs)
    x = apply_inv(rhs)
    resid = rhs - np.einsum("...ij,...j->...i", mats, x)
    x = x + apply_inv(resid)
    resid = rhs - np.einsum("...ij,...j->...i", mats, x)
    scale = np.abs(rhs).max(initial=0.0)
    if np.abs(resid).max(initial=0.0) > SOLVE_RTOL * max(scale, 1e-300):
        raise NearCollisionError("Gram solve residual above tolerance; system near singular")
    return x


def sort_rows(x):
    """Flat gather indices (perm, inv) of the 2D array x: x.take(perm) is x
    with each row in ascending order, and y.take(inv) puts a row-sorted y
    back in the original order."""
    order = np.argsort(x, axis=-1)
    perm = order + x.shape[-1] * np.arange(x.shape[0])[:, None]
    inv = np.empty_like(perm)
    inv.reshape(-1)[perm.reshape(-1)] = np.arange(perm.size)
    return perm, inv


def helmholtz_1d_inverse(k: HelmholtzKernel, gaps):
    """Tridiagonal inverse of the 1D Gram matrix at ascending points.

    ``gaps`` (..., n-1) are the adjacent gaps of the sorted points.  For
    sorted points e^{-|x_a - x_b|/alpha} is an Ornstein-Uhlenbeck covariance,
    whose inverse is tridiagonal (the Markov property).  With
    d_i = 1 - e^{-2 gap_i/alpha}:

        diag_i = 2 alpha (1/d_{i-1} + 1/d_i - 1)   interior points,
                 2 alpha / d                         the two ends,
                 2 alpha                             a single point;
        off_i  = -2 alpha e^{-gap_i/alpha} / d_i.

    Returns (diag (..., n), off (..., n-1)) in sorted order.
    """
    if k.dim != 1:
        raise InvalidParameterError("the tridiagonal Gram inverse needs the 1D kernel")
    two_a = 2.0 * k.alpha
    d = -np.expm1((-2.0 / k.alpha) * gaps)
    # 1/d padded with 1 at both ends, where the -1 then cancels
    inv_d = np.ones(gaps.shape[:-1] + (gaps.shape[-1] + 2,))
    inv_d[..., 1:-1] = 1.0 / d
    diag = two_a * (inv_d[..., :-1] + inv_d[..., 1:] - 1.0)
    off = -two_a * np.exp(-gaps / k.alpha) / d
    return diag, off


def tridiag_norm_1(diag, off):
    """1-norm of the symmetric tridiagonal (diag, off), batched."""
    col = np.abs(diag)
    col[..., 1:] -= off
    col[..., :-1] -= off
    return col.max(axis=-1)


def tridiag_solve_sorted(mats, diag, off, sort, rhs):
    """Solve the (m, n, n) systems mats @ x = rhs (rhs (m, n)) given the
    tridiagonal inverse (diag, off) of each matrix in the row order of
    ``sort = sort_rows(points)``: one refinement sweep and the SOLVE_RTOL
    residual check, as chol_solve_batched."""
    perm, inv = sort

    def apply_inv(b):
        bs = b.take(perm)
        ys = diag * bs
        ys[:, 1:] += off * bs[:, :-1]
        ys[:, :-1] += off * bs[:, 1:]
        return ys.take(inv)

    return _refined_solve(mats, apply_inv, np.asarray(rhs, dtype=float))


def solve_gram(g: GramSystem, rhs):
    """SPD solve of g.matrix @ x = rhs; refuses ill-conditioned systems."""
    if not np.isfinite(g.cond_estimate) or g.cond_estimate > COND_LIMIT:
        raise NearCollisionError(
            f"Gram conditioning {g.cond_estimate:.3e} exceeds {COND_LIMIT:.0e}")
    return chol_solve_batched(g.matrix, np.asarray(rhs, dtype=float))
