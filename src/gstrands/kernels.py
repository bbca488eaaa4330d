"""Green's function of (1 - alpha^2 d^2/dx^2) on the line and Gram solves.

Every Gram solve is one application of an inverse, one refinement sweep
against the dense matrix and a residual check at SOLVE_RTOL.  The kernel at
sorted points has a tridiagonal inverse in closed form
(helmholtz_1d_inverse), which tridiag_solve_sorted takes from its caller and
applies by elementwise products with no BLAS call, so repeated runs are
bitwise identical.  The same closed form bounds the 1-norm condition number
of n_p points by min(n_p, c) c with c = coth(g / 2 alpha) at the smallest
gap g (cond_1_bound), so a conditioning check needs the inverse only near a
collision of more than about 2500 points.  Nothing in the package calls the fixed-order Cholesky
chol_solve_batched: perfbench/spans.py wraps it as
peakon.chol_solve_batched, and the tests use it as the dense reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NearCollisionError

COND_LIMIT = 1e12
SOLVE_RTOL = 1e-10


@dataclass(frozen=True)
class HelmholtzKernel:
    """Green's function e^{-|x|/alpha} / (2 alpha) of (1 - alpha^2 d^2/dx^2).

    ``dim`` is 1, the only dimension provided: the 2D and 3D Green's
    functions are infinite at coincident points, so no Gram matrix of point
    particles exists for them."""

    alpha: float
    dim: int = 1

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(0.5 / self.alpha)):
            raise InvalidParameterError(
                f"alpha must be positive with 1/(2 alpha) finite, got {self.alpha}")
        if self.dim != 1:
            raise InvalidParameterError(
                f"unsupported kernel dimension {self.dim}; only dim=1 is provided")


def eval(k: HelmholtzKernel, m, m_prime):
    """G(m, m') >= 0, monotone decreasing in |m - m'|; batched.  One array
    is allocated, for m - m', and every later step runs in place in it."""
    g = np.asarray(np.subtract(m, m_prime, dtype=float))
    np.abs(g, out=g)
    np.divide(g, -k.alpha, out=g)  # = -|d| / alpha, bit for bit
    np.exp(g, out=g)
    np.divide(g, 2.0 * k.alpha, out=g)
    return g


def grad_q(k: HelmholtzKernel, q, q_prime):
    """d/dq G(q, q'); at q = q' it returns 0 (peakon convention)."""
    d = np.subtract(q, q_prime, dtype=float)
    a = k.alpha
    # np.sign(0) = 0 realizes the coincidence convention
    return -np.sign(d) * np.exp(-np.abs(d) / a) / (2.0 * a * a)


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
    a residual check at SOLVE_RTOL relative to max |rhs|, which a NaN
    residual or rhs fails.  An all-zero rhs (the classical mode's -d_s Q) has
    the exact solution +0, returned as is."""
    scale = np.abs(rhs).max(initial=0.0)
    if scale == 0.0:
        return np.zeros(rhs.shape)
    x = apply_inv(rhs)
    resid = rhs - np.einsum("...ij,...j->...i", mats, x)
    x = x + apply_inv(resid)
    resid = rhs - np.einsum("...ij,...j->...i", mats, x)
    if not np.abs(resid).max(initial=0.0) <= SOLVE_RTOL * max(scale, 1e-300):
        raise NearCollisionError("Gram solve residual above tolerance; system near singular")
    return x


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
    two_a = 2.0 * k.alpha
    d = -np.expm1((-2.0 / k.alpha) * gaps)
    # 1/d padded with 1 at both ends, where the -1 then cancels
    inv_d = np.ones(gaps.shape[:-1] + (gaps.shape[-1] + 2,))
    inv_d[..., 1:-1] = 1.0 / d
    diag = two_a * (inv_d[..., :-1] + inv_d[..., 1:] - 1.0)
    off = -two_a * np.exp(-gaps / k.alpha) / d
    return diag, off


def cond_1_bound(k: HelmholtzKernel, gap, n_p):
    """min(n_p, c) c with c = coth(gap / 2 alpha), an upper bound on the
    1-norm condition number of the Gram matrix of n_p ascending points whose
    adjacent gaps are all at least ``gap``.  With r = e^{-gap/alpha}: the
    k-th neighbour on either side lies at least k gap away, so no row of G
    sums to more than (1 + r) / (2 alpha (1 - r)) = c / (2 alpha), nor, with
    every entry at most 1 / (2 alpha), to more than n_p / (2 alpha); and a
    column of helmholtz_1d_inverse sums to 2 alpha (1/(1 - e_{i-1}) +
    1/(1 - e_i) - 1) with e_i = e^{-gap_i/alpha}, at most 2 alpha c.  1 for
    a single point (gap inf), inf for a NaN gap or one too small for the
    bound to be a finite float."""
    t = math.tanh(0.5 * gap / k.alpha)
    return min(n_p, 1.0 / t) / t if t > 0.0 else math.inf


def tridiag_norm_1(diag, off):
    """1-norm of the symmetric tridiagonal (diag, off), batched."""
    col = np.abs(diag)
    col[..., 1:] -= off
    col[..., :-1] -= off
    return col.max(axis=-1)


def tridiag_solve_sorted(mats, inverse, rhs):
    """Solve the (m, n, n) Gram systems mats @ x = rhs (rhs (m, n)) at
    ascending points with their tridiagonal inverse = (diag, off) of
    helmholtz_1d_inverse, everything in that order: one application of the
    inverse, one refinement sweep and the SOLVE_RTOL residual check."""
    diag, off = inverse

    def apply_inv(b):
        y = diag * b
        y[:, 1:] += off * b[:, :-1]
        y[:, :-1] += off * b[:, 1:]
        return y

    return _refined_solve(mats, apply_inv, np.asarray(rhs, dtype=float))
