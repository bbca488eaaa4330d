"""Singular (peakon) solutions of the Diff(R)-strand field equations.

Each of the n_p peakons carries a position Q_a(t, s), a t-momentum M_a and an
s-momentum N_a.  Velocities are kernel superpositions

    nu(t, s, m)    =  sum_a M_a G(m, Q_a),
    gamma(t, s, m) = -sum_a N_a G(m, Q_a),

N is slaved to the s-constraint d_s Q_a = gamma(Q_a) by per-gridpoint Gram
solves, and (Q, M) obey the canonical equations for the collective
Hamiltonian.  n_s = 1 with s-derivatives defined as zero is the classical
Camassa-Holm peakon mode on the identical code path.

A run has one peakon order.  simulate labels the peakons once, in the
ascending order of their positions at s-index 0 and t = 0, integrates in
that order and returns the history in the original labels; step takes rows
that are ascending, and keeps the labels only to name a pair in an error.
Collisions are analytically singular where two peakon curves meet, in t or
in s, so a stage halts with a near-collision error when an adjacent gap of
a row is negative ("crossed"), under COLLISION_GAP · alpha (the Gram
conditioning depends on gap / alpha), or when a per-s Gram system passes
the conditioning limit.  So a strand whose rows do not share the order of
row 0 halts at t = 0, and a crossing in t that a fixed step hops over shows
as a negative gap even when no evaluated stage lands within the collision
gap.  The error names the pair and the s-index; gstrand.integrate adds the
step.

A stage's Gram is chosen once (_gram); the slaved solve, the right-hand side
and the conditioning check use it through the same four products on either
side.  At n_s = 1 the right-hand side -d_s Q of the solve is all -0, so N is
+0 with no solve, and the stage right-hand side skips the N-N force, which
is +0 there.  A row with a non-finite position has no Gram: after the gap
check it halts as a per-s conditioning of NaN.  The conditioning check
(_check_conditioning) needs an exact cond only near a collision of more
than about 2500 peakons.  At n_s > 1 each slaved solve builds the inverse it
applies (a second one on that exact path); the classical mode builds none.

The history diagnostics (collective_hamiltonian, s_constraint_residual,
cross_derivative_residual, compatibility_residual) build the Gram one block
of stored slices at a time (_gram_blocks), at most _BLOCK = 2**16 entries
but at least one slice, and at n_s = 1 exactly one, so each row of the
History sums as a single state does.  They hold the O(n_t n_s n_p) history,
a few arrays of its size (G M, G N, the per-slice outputs) and one block's
Gram, never an (n_t, n_s, n_p, n_p) array.  Their bytes are those of one
Gram over the whole history, except the n_s = 1 Hamiltonian, whose bytes
are those of its states.  They stay dense on either side of the switch,
O(n_s n_p^2) per stored slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import DimensionMismatchError, NearCollisionError
from .gstrand import History, SlavedState, StrandGrid, centered_dt, d_s, integrate, slaved_step
from .kernels import (COND_LIMIT, HelmholtzKernel, cond_1_bound, eval as kernel_eval, exp_prefix,
                      helmholtz_1d_inverse, tridiag_norm_1, tridiag_solve_sorted)
# not called here: bound so perfbench/spans.py can still wrap peakon.chol_solve_batched
# and peakon.grad_q
from .kernels import chol_solve_batched, grad_q  # noqa: F401

COLLISION_GAP = 1e-8
# Gram entries n_s n_p^2 from which a stage runs matrix-free (_gram): the
# crossover of one step's time, n_p 22-24 at n_s = 16 and 96-128 at n_s = 1
MATRIX_FREE_ENTRIES = 10000
# Gram entries per block of stored slices in the history diagnostics
# (_gram_blocks): 512 KB, whatever the number of stored slices
_BLOCK = 1 << 16


@dataclass
class PeakonState(SlavedState):
    q: np.ndarray   # (n_s, n_p) positions
    mw: np.ndarray  # (n_s, n_p) t-momenta
    nw: np.ndarray  # (n_s, n_p) s-momenta (slaved); aux: see _slave

    def __post_init__(self):
        super().__post_init__()
        self.q, self.mw, self.nw = np.atleast_2d(self.q, self.mw, self.nw)
        if not (self.q.shape == self.mw.shape == self.nw.shape):
            raise DimensionMismatchError("Q, M, N must share shape (n_s, n_p)")


def _relabeled(state):
    """(labels, ordered, back): the peakons of ``state`` labeled once, in
    the ascending order ``labels`` of their positions at s-index 0;
    ``ordered``, its state with each array gathered into that order (take
    returns C arrays, so every stage sums in one order whatever the layout
    handed in); and ``back``, the inverse permutation, for
    x.take(back, axis=-1) to put a result in the original labels."""
    labels = np.argsort(state.q[0], kind="stable")
    ordered = PeakonState(*(x.take(labels, axis=1) for x in (state.q, state.mw, state.nw)))
    return labels, ordered, np.argsort(labels)


def _ordered_gaps(q, labels, alpha):
    """Adjacent gaps of the ascending rows q and the smallest of them that
    is not NaN (inf when there is none).  A gap under COLLISION_GAP · alpha,
    relative to the kernel length alpha (negative when the pair crossed),
    raises NearCollisionError naming the pair by its ``labels`` and the
    s-index; a NaN gap is not one.  Then the first row with a non-finite
    position raises it as a per-s Gram conditioning of NaN."""
    finite = np.isfinite(q).all()
    if finite:
        gaps = q[:, 1:] - q[:, :-1]
    else:
        with np.errstate(invalid="ignore"):  # inf - inf: a NaN gap
            gaps = q[:, 1:] - q[:, :-1]
    low = np.fmin.reduce(gaps, axis=None, initial=np.inf)
    collision_gap = COLLISION_GAP * alpha
    if low < collision_gap:
        bad = gaps < collision_gap
        j, i = np.unravel_index(np.argmin(np.where(bad, gaps, np.inf)), gaps.shape)
        a, b = sorted((int(labels[i]), int(labels[i + 1])))
        gap = gaps[j, i]
        what = "crossed" if gap < 0.0 else f"within {gap:.3e} of collision"
        raise NearCollisionError(f"peakons {a} and {b} {what} at s-index {j}")
    if not finite:
        j = int(np.argmin(np.isfinite(q).all(axis=1)))
        raise NearCollisionError(
            f"per-s Gram conditioning nan exceeds {COND_LIMIT:.0e} at s-index {j}")
    return gaps, low


@lru_cache(maxsize=8)
def _grad_factor(n_p, alpha):
    """sign(b - a) / alpha over (a, b): dG/dQ_a(Q_a, Q_b) = G_ab times this
    at strictly ascending points (0 on the diagonal, the coincidence
    convention of kernels.grad_q)."""
    idx = np.arange(n_p)
    factor = np.sign(idx[None, :] - idx[:, None]) / alpha
    factor.flags.writeable = False  # one cached array serves every caller
    return factor


def _gram_all(kernel, q):
    """Pairwise kernel matrices G(Q_a, Q_b) over the last axis of q."""
    return kernel_eval(kernel, q[..., :, None], q[..., None, :])


def solve_n_constraint(state: PeakonState, kernel: HelmholtzKernel,
                       grid: StrandGrid) -> np.ndarray:
    """N fields making d_s Q_a = gamma(Q_a) hold exactly at every gridpoint."""
    labels, ordered, back = _relabeled(state)
    return _slave(kernel, grid, labels, (ordered.q,))[-1].take(back, axis=1)


def _check_conditioning(kernel, q, gaps, low, gram):
    """The per-s 1-norm conditioning check of the Gram ``gram`` (_gram) at
    the finite ascending positions q, whose smallest gap is ``low``.  With
    kernels.cond_1_bound(kernel, low, n_p) <= COND_LIMIT / 2, a bound that
    clears every such stage of up to about 2500 peakons, it passes with no
    exact cond; the factor 2 keeps the roundoff of the exact value far from
    the limit.  Otherwise the exact per-s cond is the largest row sum of G
    (it is nonnegative and symmetric) times the 1-norm of the tridiagonal
    closed-form inverse (kernels.helmholtz_1d_inverse)."""
    if cond_1_bound(kernel, low, q.shape[1]) <= 0.5 * COND_LIMIT:
        return
    cond = gram.row_sums().max(axis=-1) * tridiag_norm_1(*helmholtz_1d_inverse(kernel, gaps))
    if not cond.max() <= COND_LIMIT:
        j = int(np.argmin(cond <= COND_LIMIT))
        raise NearCollisionError(
            f"per-s Gram conditioning {cond[j]:.3e} exceeds {COND_LIMIT:.0e} at s-index {j}")


@dataclass(frozen=True)
class _Table:
    """The dense side of _gram: G (n_s, n_p, n_p) and dG = dG/dQ_a."""

    gram: np.ndarray
    grad: np.ndarray

    def times(self, w):
        return np.einsum("sab,sb->sa", self.gram, w)

    def grad_times(self, w):
        return np.einsum("sab,sb->sa", self.grad, w)

    def products(self, w):
        return self.times(w), self.grad_times(w)

    def row_sums(self):
        return np.einsum("sab->sa", self.gram)


def _gram(kernel, q):
    """The Gram of the finite ascending rows q (n_s, n_p) with times(w) = G w,
    grad_times(w) = dG w, products(w) = (G w, dG w) and row_sums() = G 1.
    Below MATRIX_FREE_ENTRIES Gram entries n_s n_p^2, the measured crossover
    of one step (n_p 22-24 at n_s = 16, 96-128 at n_s = 1), a _Table: one
    kernel evaluation and dG_ab = sign(b - a) G_ab / alpha (the rows are
    strictly ascending), multiplied by einsum.  From it on, the factors of
    kernels.exp_prefix, whose G w = L + w / 2 alpha + U and dG w = (U - L) /
    alpha come from one kernels.prefix_sums: O(n_s n_p) work and no n_p x n_p
    array.  Neither side loops over peakons or gathers."""
    if q.size * q.shape[1] < MATRIX_FREE_ENTRIES:
        gram = _gram_all(kernel, q)
        return _Table(gram, gram * _grad_factor(q.shape[1], kernel.alpha))
    return exp_prefix(kernel, q)


def _slave(kernel, grid, labels, y):
    """(labels, G, N) of the ascending positions q = y[0]: the Gram G
    (_gram) and N solving G N = -d_s Q.  Before the solve come the gap check
    (_ordered_gaps), which names a pair by its ``labels`` and refuses a
    non-finite row, and the conditioning check (_check_conditioning)."""
    q = y[0]
    gaps, low = _ordered_gaps(q, labels, kernel.alpha)
    gram = _gram(kernel, q)
    _check_conditioning(kernel, q, gaps, low, gram)
    if grid.n_s == 1:
        # -d_s Q is all -0, and _refined_solve returns +0 for it with no solve
        ns = np.zeros(q.shape)
    else:
        ns = tridiag_solve_sorted(gram.times, helmholtz_1d_inverse(kernel, gaps), -d_s(q, grid))
    return labels, gram, ns


def _rhs(grid, q, mw, aux):
    """(dQ, dM) from the Gram of _slave: dQ = G M and the force
    sum_b (N_a N_b + M_a M_b) dG_ab = N_a (dG N)_a + M_a (dG M)_a."""
    _, gram, nw = aux
    dq, dgm = gram.products(mw)
    m_force = mw * dgm
    if grid.n_s == 1:
        # N is all +0 (_slave): the N-N force is +0, which only turns -0 into
        # +0, and -d_s N is all -0, which (-0) - f leaves -f bit for bit
        return dq, -(m_force + 0.0)
    return dq, -d_s(nw, grid) - (nw * gram.grad_times(nw) + m_force)


def step(state: PeakonState, kernel: HelmholtzKernel, grid: StrandGrid) -> PeakonState:
    """One RK4 step of the canonical (Q, M) system, whose rows must be
    ascending, with N slaved to every stage and to the accepted state
    (gstrand.slaved_step).  The labels that name a pair in an error come
    from ``state.aux``; a state built by hand (``aux`` None) has labels
    0..n_p-1."""
    labels = np.arange(state.q.shape[1]) if state.aux is None else state.aux[0]
    return slaved_step(partial(_slave, kernel, grid, labels), partial(_rhs, grid), state, grid,
                       "peakon state")


def _stacked(x):
    """x as stored slices (n_t, n_s, n_p): a state's (n_s, n_p) array is a
    one-slice view."""
    return x.reshape(-1, *x.shape[-2:])


def _gram_blocks(kernel, q):
    """(block, G) over the stored slices q (n_t, n_s, n_p): ``block`` slices
    the leading axis and G is the Gram of q[block], so each slice's Gram is
    built once.  A block holds at most _BLOCK entries of G but at least one
    slice, and at n_s = 1 exactly one: numpy's three-operand einsum sums a
    lone (t, s) row in another order than a stack of rows, so a History row
    then sums as a single state does."""
    n_t, n_s, n_p = q.shape
    size = 1 if n_s == 1 else max(_BLOCK // (n_s * n_p * n_p), 1)
    for start in range(0, n_t, size):
        block = slice(start, start + size)
        yield block, _gram_all(kernel, q[block])


def s_constraint_residual(state, kernel, grid):
    """Max-norm of d_s Q_a + sum_b G(Q_a, Q_b) N_b; for a History, one value
    per stored slice."""
    q, nw = _stacked(state.q), _stacked(state.nw)
    gn = np.empty(q.shape)
    for block, gram in _gram_blocks(kernel, q):
        gn[block] = np.einsum("...ab,...b->...a", gram, nw[block])
    res = d_s(state.q, grid, axis=state.q.ndim - 2) + gn.reshape(state.q.shape)
    return np.max(np.abs(res), axis=(-2, -1))


def collective_hamiltonian(state, kernel) -> np.ndarray:
    """Per-s energy density (N G N + M G M)/2; shape (n_t, n_s) for a History."""
    q, mw, nw = (_stacked(x) for x in (state.q, state.mw, state.nw))
    dens = np.empty(q.shape[:-1])
    for block, gram in _gram_blocks(kernel, q):
        m, n = mw[block], nw[block]
        dens[block] = 0.5 * (np.einsum("...a,...ab,...b->...", n, gram, n)
                             + np.einsum("...a,...ab,...b->...", m, gram, m))
    return dens.reshape(state.q.shape[:-1])


def total_momentum(state) -> np.ndarray:
    """Per-s sum of the t-momenta (conserved in the classical mode)."""
    return state.mw.sum(axis=-1)


def field_snapshot(state, kernel, m_grid):
    """nu and gamma sampled on m_grid, shape (n_s, len(m_grid)); for a
    History, (n_t, n_s, len(m_grid)), one per stored slice."""
    m_grid = np.asarray(m_grid, dtype=float)
    g = kernel_eval(kernel, m_grid[:, None], state.q[..., None, :])
    nu = np.einsum("...ma,...a->...m", g, state.mw)
    gamma = -np.einsum("...ma,...a->...m", g, state.nw)
    return nu, gamma


def simulate(state: PeakonState, kernel, grid: StrandGrid) -> History:
    """Integrate to t_end with the peakons relabeled once (_relabeled); the
    stored history is in the labels of ``state``."""
    labels, ordered, back = _relabeled(state)
    hist = integrate(lambda st: step(st, kernel, grid), ordered, grid,
                     slave=partial(_slave, kernel, grid, labels))
    for name in PeakonState.__match_args__:  # field by field, so one field at most is held twice
        setattr(hist, name, getattr(hist, name).take(back, axis=-1))
    return hist


def cross_derivative_residual(hist: History, kernel, grid) -> float:
    """Max-norm of d_t[gamma(Q_a)] - d_s[nu(Q_a)] over interior stored slices.

    Equality of the mixed partials of Q is the scalar form of the
    compatibility condition satisfied along canonical trajectories.
    """
    nu_at_q, gam_at_q = np.empty(hist.q.shape), np.empty(hist.q.shape)
    for block, gram in _gram_blocks(kernel, hist.q):
        nu_at_q[block] = np.einsum("tsab,tsb->tsa", gram, hist.mw[block])
        gam_at_q[block] = -np.einsum("tsab,tsb->tsa", gram, hist.nw[block])
    res = centered_dt(hist, gam_at_q) - d_s(nu_at_q[1:-1], grid, axis=1)
    return float(np.max(np.abs(res)))


def compatibility_residual(hist: History, kernel, grid) -> float:
    """Max-norm of the kernel-expanded compatibility sum over interior slices:

        sum_b (d_t N_b + d_s M_b) G(Q_a, Q_b)
      + sum_bc (M_b N_c - N_b M_c) [ G(Q_a, Q_b) dG/dQ_a(Q_a, Q_c)
                                     - G(Q_b, Q_c) dG/dQ_b(Q_b, Q_a) ]  = 0,

    the evaluation of the zero-curvature defect along the peakon orbit.
    """
    return float(np.max(np.abs(_compatibility_sum(hist, kernel, grid))))


def _compatibility_sum(hist, kernel, grid):
    """The sum of compatibility_residual per interior slice, s-index and
    peakon, with both double sums factored into matrix-vector products:
    O(n_s n_p^2) per slice, over blocks of slices (_gram_blocks)."""
    # d_t N + d_s M, which each block replaces by its sum
    out = centered_dt(hist, hist.nw)
    out += d_s(hist.mw[1:-1], grid, axis=1)
    q, mw, nw = hist.q[1:-1], hist.mw[1:-1], hist.nw[1:-1]

    def times(mat, v):
        return np.einsum("tsab,tsb->tsa", mat, v)

    for block, gram in _gram_blocks(kernel, q):
        qb, m, n = q[block], mw[block], nw[block]
        # dG/dQ_a (Q_a, Q_b) = sign(Q_b - Q_a) G_ab / alpha, from G with no
        # second exponential; in place, one temporary the size of G
        grad = np.subtract(qb[..., None, :], qb[..., :, None])
        np.sign(grad, out=grad)
        np.multiply(grad, gram, out=grad)
        np.divide(grad, kernel.alpha, out=grad)
        gm, gn = times(gram, m), times(gram, n)
        # sum_bc (M_b N_c - N_b M_c) G_ab dG_ac = (G M)_a (dG N)_a - (G N)_a (dG M)_a
        term1 = gm * times(grad, n) - gn * times(grad, m)
        # sum_bc (M_b N_c - N_b M_c) G_bc dG_ba = sum_b dG_ba (M_b (G N)_b - N_b (G M)_b)
        term2 = np.einsum("tsba,tsb->tsa", grad, m * gn - n * gm)
        out[block] = times(gram, out[block]) + term1 - term2
    return out
