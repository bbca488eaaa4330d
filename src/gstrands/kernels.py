"""Green's function of (1 - alpha^2 d^2/dx^2) on the line and Gram solves.

Every Gram solve is one application of an inverse, one refinement sweep
against a mat-vec x -> G x and a residual check at SOLVE_RTOL.  The kernel
at sorted points has a tridiagonal inverse in closed form
(helmholtz_1d_inverse), which tridiag_solve_sorted takes from its caller and
applies by elementwise products with no BLAS call, so repeated runs are
bitwise identical.  The same closed form bounds the 1-norm condition number
of n_p points by min(n_p, c) c with c = coth(g / 2 alpha) at the smallest
gap g (cond_1_bound), so a conditioning check needs the inverse only near a
collision of more than about 2500 points.

The mat-vec is the dense einsum, or, with no n x n array, the prefix sums:
at ascending points e^{-|x_a - x_b|/alpha} = e^{-t_a} e^{t_b} (a > b), so
L_a = sum_{b<a} G_ab w_b and U_a = sum_{b>a} G_ab w_b are one exclusive
cumsum each (exp_prefix, prefix_sums; Camassa, Holm & Hyman, Adv. Appl.
Mech. 31 (1994)).  The exponents t are taken from the center of a span of
at most REBASE_SPAN alpha, so no factor nears overflow or the subnormals,
and a row of wider spread is cut into spans whose sums are carried from one
to the next.  Nothing in the package calls the fixed-order Cholesky
chol_solve_batched: perfbench/spans.py wraps it as
peakon.chol_solve_batched, and the tests use it as the dense reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidParameterError, NearCollisionError

COND_LIMIT = 1e12
SOLVE_RTOL = 1e-10
# Largest spread, in kernel lengths, of one span of the prefix sums
# (exp_prefix): their factors e^t and e^-t keep |t| <= 32, far from overflow
# and from the subnormals, and each adds a relative error of at most about
# |t| eps (7e-15) to a product, where the dense e^{-|x_a - x_b|/alpha} adds
# |x_a - x_b| eps / alpha
REBASE_SPAN = 64.0


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

    return _refined_solve(_dense_times(mats), substitute, rhs)


def _dense_times(mats):
    """The mat-vec x -> mats @ x of a dense (..., n, n) stack."""
    return partial(np.einsum, "...ij,...j->...i", mats)


def _refined_solve(times, apply_inv, rhs):
    """x = apply_inv(rhs), one refinement sweep against the mat-vec
    times(x) = G x, and a residual check at SOLVE_RTOL relative to max |rhs|,
    which a NaN residual or rhs fails.  An all-zero rhs (the classical
    mode's -d_s Q) has the exact solution +0, returned as is."""
    scale = np.abs(rhs).max(initial=0.0)
    if scale == 0.0:
        return np.zeros(rhs.shape)
    x = apply_inv(rhs)
    resid = rhs - times(x)
    x = x + apply_inv(resid)
    resid = rhs - times(x)
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


def tridiag_solve_sorted(gram, inverse, rhs):
    """Solve the (m, n) Gram systems G x = rhs at ascending points with their
    tridiagonal inverse = (diag, off) of helmholtz_1d_inverse, everything in
    that order: one application of the inverse, one refinement sweep and the
    SOLVE_RTOL residual check.  ``gram`` is the dense (m, n, n) stack, or the
    mat-vec x -> G x of a matrix-free caller (prefix_sums)."""
    diag, off = inverse

    def apply_inv(b):
        y = diag * b
        y[:, 1:] += off * b[:, :-1]
        y[:, :-1] += off * b[:, 1:]
        return y

    times = gram if callable(gram) else _dense_times(gram)
    return _refined_solve(times, apply_inv, np.asarray(rhs, dtype=float))


@dataclass(frozen=True)
class PrefixFactors:
    """The Gram of ascending rows q (..., n) in factored form (exp_prefix).
    Each row is cut into n_spans spans of equal spread, at most
    REBASE_SPAN alpha; a point in the span of center c has t = (q - c) /
    alpha, so |t| <= REBASE_SPAN / 2, and G_ab = down_a up_b for a > b in
    one span, up_a down_b for a < b."""

    alpha: float
    up: np.ndarray      # e^t / (2 alpha)
    down: np.ndarray    # e^-t
    decay: np.ndarray   # (..., n_spans - 1): e^{-(c_{j+1} - c_j) / alpha}
    # with more than one span: (index, rindex, pad), the flat position of
    # each point in the (rows * n_spans, pad) buffer whose row r * n_spans + j
    # holds span j of row r, in ascending order (index) or descending order
    # with the spans reversed (rindex)
    layout: tuple | None


def exp_prefix(k: HelmholtzKernel, q) -> PrefixFactors:
    """The factors of the Gram G of the finite ascending rows q (..., n)
    that prefix_sums applies.  Every row has n_spans = floor(S / (REBASE_SPAN
    alpha)) + 1 spans, S the largest spread of a row: up to 64 alpha of
    spread one span, centered midway between a row's first and last points."""
    q = np.asarray(q, dtype=float)
    first = q[..., :1]
    spread = q[..., -1:] - first
    n_spans = int(spread.max(initial=0.0) // (REBASE_SPAN * k.alpha)) + 1
    if n_spans == 1:
        t = (q - (first + 0.5 * spread)) / k.alpha
        return PrefixFactors(k.alpha, np.exp(t) / (2.0 * k.alpha), np.exp(-t),
                             np.empty(q.shape[:-1] + (0,)), None)
    width = spread / n_spans
    # a row of one repeated point has width 0: all of it in span 0
    x = np.divide(q - first, width, out=np.zeros(q.shape), where=width > 0.0)
    span = np.minimum(x.astype(np.intp), n_spans - 1)
    t = (q - (first + (span + 0.5) * width)) / k.alpha
    centers = first + (np.arange(n_spans) + 0.5) * width
    decay = np.exp((centers[..., 1:] - centers[..., :-1]) / -k.alpha)
    # segment ids r * n_spans + j ascend over the flattened rows
    rows = np.arange(q.size // q.shape[-1]).reshape(q.shape[:-1] + (1,))
    ids = (span + n_spans * rows).ravel()
    starts = np.searchsorted(ids, np.arange(n_spans * rows.size + 1))
    size = starts[1:] - starts[:-1]
    pad = int(size.max())
    pos = np.arange(ids.size) - starts[ids]
    rids = ids + (n_spans - 1) - 2 * span.ravel()
    layout = (ids * pad + pos, rids * pad + (size[ids] - 1 - pos), pad)
    return PrefixFactors(k.alpha, np.exp(t) / (2.0 * k.alpha), np.exp(-t), decay, layout)


def prefix_sums(f: PrefixFactors, w):
    """(L, U) with L_a = sum_{b<a} G_ab w_b and U_a = sum_{b>a} G_ab w_b over
    the last axis, from the factors f of exp_prefix, so G w = L + w / 2 alpha
    + U and the gradient sum_b dG/dQ_a(Q_a, Q_b) w_b = (U - L) / alpha.
    O(n) per row, with no loop over points: one exclusive cumsum per
    direction, over each span at once, and with more than one span a loop
    over the spans that carries each span's sum to the next."""
    w = np.asarray(w, dtype=float)
    if f.layout is None:
        flip = np.s_[..., ::-1]
        return _exclusive(f.up * w, f.down), _exclusive((f.down * w)[flip], f.up[flip])[flip]
    index, rindex, pad = f.layout
    decay = f.decay.reshape(-1, f.decay.shape[-1])
    return (_spanned(f.up * w, f.down, index, pad, decay),
            _spanned(f.down * w, f.up, rindex, pad, decay[:, ::-1]))


def _exclusive(v, outer):
    """outer_a sum_{b<a} v_b along the last axis."""
    out = np.zeros(v.shape)
    v[..., :-1].cumsum(axis=-1, out=out[..., 1:])
    out *= outer
    return out


def _spanned(v, outer, index, pad, decay):
    """outer_a (C_a + sum_{b<a} v_b) over the points b of a's segment in the
    padded buffer (PrefixFactors.layout), with C_a the carry of the segments
    before it in its row: segment j's sum, decayed by decay[:, j] to the
    center of segment j + 1 and added to that segment's carry."""
    n_spans = decay.shape[1] + 1
    buf = np.zeros((decay.shape[0] * n_spans, pad))
    buf.ravel()[index] = v.ravel()
    sums = _exclusive(buf, 1.0)
    carry = np.zeros((decay.shape[0], n_spans))
    totals = (sums[:, -1] + buf[:, -1]).reshape(carry.shape)
    for j in range(1, n_spans):
        carry[:, j] = (carry[:, j - 1] + totals[:, j - 1]) * decay[:, j - 1]
    return outer * (sums.ravel()[index] + carry.ravel()[index // pad]).reshape(v.shape)
