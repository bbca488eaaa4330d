"""Finite-dimensional Lie algebra arithmetic.

Algebra elements (and dual elements, identified through the pairing kappa)
are plain coordinate arrays of length ``dim``.  Operations accept batched
arrays with the coordinate axis last, so a strand field of shape
``(n_s, dim)`` goes through ``bracket``/``ad_star`` in one call.

``bracket`` and ``ad_star`` contract through sparse index tables built once
from the nonzero structure constants, so a point costs O(nnz) multiply-adds
rather than O(dim^3); the dense ``c`` stays the constructor input.  ``pair``
contracts through the one-row table of kappa.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, UnsupportedAlgebraError

JACOBI_TOL = 1e-12


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants and pairing of a finite-dimensional Lie algebra.

    c[k, i, j] is the coefficient of e_k in [e_i, e_j].  kappa is a symmetric
    positive-definite matrix identifying the dual with the algebra; all
    builtins use kappa = identity in their documented basis.
    ``basis_matrices``, when present, is a faithful matrix representation
    (stacked along axis 0).
    ``bracket_table`` and ``coad_table`` are the sparse forms of ``c`` that
    ``bracket`` and ``ad_star`` contract with, and ``pair_table`` the one-row
    form of kappa that ``pair`` contracts with (see ``_contraction_table``).
    """

    dim: int
    c: np.ndarray
    kappa: np.ndarray
    name: str = ""
    basis_matrices: np.ndarray | None = None
    kappa_inv: np.ndarray = field(init=False, repr=False)
    bracket_table: tuple = field(init=False, repr=False)
    coad_table: tuple = field(init=False, repr=False)
    pair_table: tuple = field(init=False, repr=False)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        kappa = np.asarray(self.kappa, dtype=float)
        if c.shape != (self.dim,) * 3:
            raise DimensionMismatchError(
                f"structure constants must have shape {(self.dim,) * 3}, got {c.shape}")
        if not np.array_equal(c, -np.swapaxes(c, 1, 2)):
            raise DimensionMismatchError("structure constants must be antisymmetric in (i, j)")
        if kappa.shape != (self.dim, self.dim) or not np.array_equal(kappa, kappa.T):
            raise DimensionMismatchError("kappa must be a symmetric dim x dim matrix")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "kappa_inv", np.linalg.inv(kappa))
        # bracket: row k lists (i, j, c_kij); coadjoint: row j lists (k, i, c_kij).
        # Both orders are the dense einsums' summation orders.
        object.__setattr__(self, "bracket_table", _contraction_table(c))
        object.__setattr__(self, "coad_table", _contraction_table(c.transpose(2, 0, 1)))
        object.__setattr__(self, "pair_table", _contraction_table(kappa[None]))


class _Table(NamedTuple):
    """Sparse form of out[..., o] = sum_ab t[o, a, b] x[..., a] y[..., b].

    Row o lists the nonzero t[o, a, b] in (a, b) order, zero-padded (index 0)
    to the widest row, at least one column.  Flat entry w * d + o is column w
    of row o; ``val`` is a (width * d, 1) column that scales gathered rows.
    """

    idx_a: np.ndarray
    idx_b: np.ndarray
    val: np.ndarray
    width: int
    d: int


def _contraction_table(t) -> _Table:
    """The ``_Table`` of a (d, n_a, n_b) coefficient array."""
    o, a, b = np.nonzero(t)
    d = t.shape[0]
    counts = np.bincount(o, minlength=d)
    col = np.arange(o.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = max(int(counts.max(initial=0)), 1)
    flat = col * d + o
    idx_a = np.zeros(width * d, dtype=np.intp)
    idx_b = np.zeros(width * d, dtype=np.intp)
    val = np.zeros((width * d, 1))
    idx_a[flat], idx_b[flat], val[flat, 0] = a, b, t[o, a, b]
    return _Table(idx_a, idx_b, val, width, d)


# Gathered entries per block of points: the temporaries stay near 512 KB.
# One gather over a whole history (soN(8): 39 x 128 points, 13 MB) falls out
# of cache and is slower.
_BLOCK = 1 << 16


def _contract_block(table, xt, yt, buf):
    """Contract (coords, points) operands into a (d, points) result: one
    gather per operand for all columns, into buf[0] and buf[1], then the
    columns summed in order.  The value multiplies before y, so a padded zero
    stays zero for any finite x and y; seeding with 0.0 + the first column
    turns -0.0 into +0.0, as adding to zeros did."""
    idx_a, idx_b, val, width, d = table
    terms = xt.take(idx_a, axis=0, out=buf[0], mode="clip")
    terms *= val
    terms *= yt.take(idx_b, axis=0, out=buf[1], mode="clip")
    out = np.add(0.0, terms[:d])
    for w in range(d, width * d, d):
        out += terms[w:w + d]
    return out


def _contract(table, x, y):
    """out[..., o] = sum_ab t[o, a, b] x[..., a] y[..., b] for the ``_Table``
    of t, broadcast over the leading axes; the output has the table's d
    coordinates and is C-contiguous.  Every point sums the columns in the
    order of a per-column loop, so the result is bitwise that loop's,
    whatever the blocking.  The gathers clip their indices, so callers check
    the coordinate counts."""
    lead = x.shape[:-1]
    if lead != y.shape[:-1]:
        lead = np.broadcast_shapes(lead, y.shape[:-1])
        x = np.broadcast_to(x, lead + x.shape[-1:])
        y = np.broadcast_to(y, lead + y.shape[-1:])
    xt = x.reshape(-1, x.shape[-1]).T
    yt = y.reshape(-1, y.shape[-1]).T
    n = xt.shape[1]
    size = table.idx_a.size
    step = max(_BLOCK // size, 1)
    # Both gathers share one allocation that every block reuses: two
    # block-sized temporaries freed together went back to the OS and were
    # page-faulted in again on the next call, which cost more than the work.
    if n <= step:
        out = _contract_block(table, xt, yt, np.empty((2, size, n))).T.copy()
    else:
        out = np.empty((n, table.d))
        buf = np.empty(2 * size * step)
        for s in range(0, n, step):
            m = min(step, n - s)
            out[s:s + m] = _contract_block(table, xt[:, s:s + m], yt[:, s:s + m],
                                           buf[:2 * size * m].reshape(2, size, m)).T
    return out.reshape(lead + (table.d,))


def _check_coords(spec, *elements):
    for x in elements:
        if x.shape[-1] != spec.dim:
            raise DimensionMismatchError(
                f"element has {x.shape[-1]} coordinates, algebra '{spec.name}' has dim {spec.dim}")


def bracket(spec: LieAlgebraSpec, xi, eta):
    """[xi, eta]^k = c^k_ij xi^i eta^j, batched over leading axes."""
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    _check_coords(spec, xi, eta)
    return _contract(spec.bracket_table, xi, eta)


def ad_star(spec: LieAlgebraSpec, xi, mu):
    """Coadjoint operator: the unique nu with kappa(nu, eta) = kappa(mu, [xi, eta])."""
    xi = np.asarray(xi, dtype=float)
    mu = np.asarray(mu, dtype=float)
    _check_coords(spec, xi, mu)
    return _contract(spec.coad_table, mu @ spec.kappa, xi) @ spec.kappa_inv


def pair(spec: LieAlgebraSpec, mu, xi):
    """Duality pairing kappa(mu, xi), batched."""
    mu = np.asarray(mu, dtype=float)
    xi = np.asarray(xi, dtype=float)
    _check_coords(spec, mu, xi)
    # [()] makes a point's 0-d result a scalar
    return _contract(spec.pair_table, mu, xi)[..., 0][()]


def jacobi_residual(spec: LieAlgebraSpec) -> float:
    """Max-norm of the Jacobi identity over all index quadruples."""
    c = spec.c
    r = (np.einsum("kij,mkl->ijlm", c, c)
         + np.einsum("kjl,mki->ijlm", c, c)
         + np.einsum("kli,mkj->ijlm", c, c))
    return float(np.max(np.abs(r)))


def validate(spec: LieAlgebraSpec):
    """Raise unless the spec is a genuine Lie algebra with admissible pairing."""
    res = jacobi_residual(spec)
    if res >= JACOBI_TOL:
        raise DimensionMismatchError(f"Jacobi residual {res:.3e} exceeds {JACOBI_TOL}")
    if np.min(np.linalg.eigvalsh(spec.kappa)) <= 0.0:
        raise DimensionMismatchError("kappa must be positive definite")


def _hat_so3(v):
    return np.array([[0.0, -v[2], v[1]],
                     [v[2], 0.0, -v[0]],
                     [-v[1], v[0], 0.0]])


def so_n_index_pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def vee_so_n(n, mats):
    """Coordinates of (batched) so(n) matrices in the E_ab basis."""
    mats = np.asarray(mats, dtype=float)
    pairs = so_n_index_pairs(n)
    return np.stack([mats[..., a, b] for a, b in pairs], axis=-1)


def hat_so_n(n, coords):
    """(Batched) so(n) matrices of the coordinates in the E_ab basis.

    E_ab (a < b, lexicographic) is +1 at (a, b) and -1 at (b, a); the basis
    is orthonormal under <A, B> = -tr(AB)/2, which kappa = I represents.
    """
    coords = np.asarray(coords, dtype=float)
    out = np.zeros(coords.shape[:-1] + (n, n))
    for k, (a, b) in enumerate(so_n_index_pairs(n)):
        out[..., a, b] = coords[..., k]
        out[..., b, a] = -coords[..., k]
    return out


def _levi_civita():
    """c^k_ij = epsilon_ijk: [e1, e2] = e3 cyclically."""
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[k, i, j] = 1.0
        c[k, j, i] = -1.0
    return c


def _builtin_so3():
    # hat-map basis, in which c^k_ij is the Levi-Civita symbol
    basis = np.array([_hat_so3(v) for v in np.eye(3)])
    return LieAlgebraSpec(3, _levi_civita(), np.eye(3), name="so3", basis_matrices=basis)


def _builtin_so_n(n):
    # [E_ab, E_cd] = d_bc E_ad - d_bd E_ac - d_ac E_bd + d_ad E_bc, with
    # E_yx = -E_xy and E_xx = 0
    a, b = np.array(so_n_index_pairs(n)).T
    dim = a.size
    slot = np.zeros((n, n), dtype=int)
    slot[a, b] = slot[b, a] = np.arange(dim)
    sign = np.zeros((n, n))
    sign[a, b], sign[b, a] = 1.0, -1.0
    i, j = np.indices((dim, dim))
    c = np.zeros((dim,) * 3)
    for hit, x, y, s in ((b[i] == a[j], a[i], b[j], 1.0), (b[i] == b[j], a[i], a[j], -1.0),
                         (a[i] == a[j], b[i], b[j], -1.0), (a[i] == b[j], b[i], a[j], 1.0)):
        np.add.at(c, (slot[x, y][hit], i[hit], j[hit]), s * sign[x, y][hit])
    return LieAlgebraSpec(dim, c, np.eye(dim), name=f"soN({n})",
                          basis_matrices=hat_so_n(n, np.eye(dim)))


def _builtin_se3():
    # block order (rotation, translation), embedded as 4x4 homogeneous matrices:
    # [(w, v), (w', v')] = (w x w', w x v' - w' x v)
    basis = np.zeros((6, 4, 4))
    for i, v in enumerate(np.eye(3)):
        basis[i, :3, :3] = _hat_so3(v)
        basis[3 + i, :3, 3] = v
    eps = _levi_civita()
    c = np.zeros((6, 6, 6))
    c[:3, :3, :3] = c[3:, :3, 3:] = c[3:, 3:, :3] = eps
    return LieAlgebraSpec(6, c, np.eye(6), name="se3", basis_matrices=basis)


def _builtin_gl_n(n):
    # matrix units E_ab at index a*n + b, row-major; Frobenius pairing is the
    # identity on them.  [E_ab, E_cd] = d_bc E_ad - d_ad E_cb
    a, b = np.divmod(np.arange(n * n), n)
    i, j = np.indices((n * n, n * n))
    c = np.zeros((n * n,) * 3)
    for hit, k, s in ((b[i] == a[j], a[i] * n + b[j], 1.0), (a[i] == b[j], a[j] * n + b[i], -1.0)):
        np.add.at(c, (k[hit], i[hit], j[hit]), s)
    basis = np.zeros((n * n, n, n))
    basis[np.arange(n * n), a, b] = 1.0
    return LieAlgebraSpec(n * n, c, np.eye(n * n), name=f"glN({n})", basis_matrices=basis)


def builtin(name: str) -> LieAlgebraSpec:
    """Builtin algebras: "so3", "se3", "soN(n)", "glN(n)" with n >= 2."""
    if name == "so3":
        return _builtin_so3()
    if name == "se3":
        return _builtin_se3()
    m = re.fullmatch(r"(soN|glN)\((\d+)\)", name)
    if m:
        n = int(m.group(2))
        if n < 2:
            raise UnsupportedAlgebraError(f"{m.group(1)} requires n >= 2, got {n}")
        return _builtin_so_n(n) if m.group(1) == "soN" else _builtin_gl_n(n)
    raise UnsupportedAlgebraError(f"unknown builtin algebra '{name}'")
