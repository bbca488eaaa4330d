"""Finite-dimensional Lie algebra arithmetic.

Algebra elements and dual elements are coordinate arrays of length ``dim``
in a basis e_i and its dual basis, so <mu, xi> = mu_i xi^i.  Operations
accept batched arrays with the coordinate axis last, so a strand field of
shape ``(n_s, dim)`` goes through ``bracket``/``ad_star`` in one call.  They
contract through sparse index tables built once from the nonzero structure
constants, O(nnz) multiply-adds a point; no ``dim^3`` array is ever built.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, UnsupportedAlgebraError


class StructureConstants(NamedTuple):
    """The nonzero c^k_ij, the coefficient of e_k in [e_i, e_j], one entry
    per position of the four equal-length arrays, sorted by (k, i, j)."""

    k: np.ndarray
    i: np.ndarray
    j: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants of a finite-dimensional Lie algebra.

    ``constants`` is a (k, i, j, value) tuple of the nonzero c^k_ij in any
    order, kept as a sorted ``StructureConstants``; each (k, i, j) appears
    once, and (k, j, i) with the opposite value.  ``bracket`` and ``ad_star``
    contract with ``bracket_table`` and ``coad_table`` (see ``_Table``).
    """

    dim: int
    constants: StructureConstants
    name: str = ""
    bracket_table: tuple = field(init=False, repr=False)
    coad_table: tuple = field(init=False, repr=False)

    def __post_init__(self):
        k, i, j, value = (np.asarray(a) for a in self.constants)
        if not (k.ndim == 1 and k.shape == i.shape == j.shape == value.shape):
            raise DimensionMismatchError("k, i, j and value must be 1-D arrays of one length")
        index = np.stack([k, i, j])
        if ((index.size and not np.issubdtype(index.dtype, np.integer))
                or np.any((index < 0) | (index >= self.dim))):
            raise DimensionMismatchError(f"structure constant indices must be integers "
                                         f"in 0..{self.dim - 1}")
        k, i, j, value = *index.astype(np.intp), value.astype(float)
        if not np.all(np.isfinite(value) & (value != 0.0)):
            raise DimensionMismatchError("structure constant entries must be finite and nonzero")
        order = np.lexsort((j, i, k))
        k, i, j, value = k[order], i[order], j[order], value[order]
        key = (k * self.dim + i) * self.dim + j
        if np.any(np.diff(key) == 0):
            raise DimensionMismatchError("structure constant entry listed twice")
        # antisymmetry: the entries sorted by (k, j, i) are the partners
        # (k, j, i, -value) of the entries in (k, i, j) order
        partner = np.lexsort((i, j, k))
        if not (np.array_equal(((k * self.dim + j) * self.dim + i)[partner], key)
                and np.array_equal(value[partner], -value)):
            raise DimensionMismatchError("structure constants must be antisymmetric in (i, j)")
        object.__setattr__(self, "constants", StructureConstants(k, i, j, value))
        # bracket: row k lists (i, j, c_kij); coadjoint: row j lists (k, i, c_kij).
        # Both orders are the dense einsums' summation orders.
        object.__setattr__(self, "bracket_table", _table(k, i, j, value, self.dim))
        by_j = np.lexsort((i, k, j))
        object.__setattr__(self, "coad_table",
                           _table(j[by_j], k[by_j], i[by_j], value[by_j], self.dim))


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


def _table(o, a, b, v, d) -> _Table:
    """The ``_Table`` of the entries t[o, a, b] = v, sorted by (o, a, b)."""
    counts = np.bincount(o, minlength=d)
    col = np.arange(o.size) - np.repeat(np.cumsum(counts) - counts, counts)
    width = max(int(counts.max(initial=0)), 1)
    flat = col * d + o
    idx_a = np.zeros(width * d, dtype=np.intp)
    idx_b = np.zeros(width * d, dtype=np.intp)
    val = np.zeros((width * d, 1))
    idx_a[flat], idx_b[flat], val[flat, 0] = a, b, v
    return _Table(idx_a, idx_b, val, width, d)


def _contraction_table(t) -> _Table:
    """The ``_Table`` of a dense (d, n_a, n_b) coefficient array."""
    o, a, b = np.nonzero(t)
    return _table(o, a, b, t[o, a, b], t.shape[0])


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
    """Coadjoint operator (ad*_xi mu)_j = c^k_ij xi^i mu_k, the unique nu
    with <nu, eta> = <mu, [xi, eta]>, batched."""
    xi = np.asarray(xi, dtype=float)
    mu = np.asarray(mu, dtype=float)
    _check_coords(spec, xi, mu)
    return _contract(spec.coad_table, mu, xi)


def pair(spec: LieAlgebraSpec, mu, xi):
    """Duality pairing <mu, xi> = mu_i xi^i, batched."""
    mu = np.asarray(mu, dtype=float)
    xi = np.asarray(xi, dtype=float)
    _check_coords(spec, mu, xi)
    # summed one coordinate at a time, in order, from 0.0 + the first (so
    # -0.0 becomes +0.0); [()] makes a point's 0-d result a scalar
    terms = mu * xi
    out = np.add(0.0, terms[..., 0])
    for i in range(1, spec.dim):
        out += terms[..., i]
    return out[()]


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
    is orthonormal under <A, B> = -tr(AB)/2, the plain sum of coordinate products.
    """
    coords = np.asarray(coords, dtype=float)
    out = np.zeros(coords.shape[:-1] + (n, n))
    for k, (a, b) in enumerate(so_n_index_pairs(n)):
        out[..., a, b] = coords[..., k]
        out[..., b, a] = -coords[..., k]
    return out


# c^k_ij = epsilon_ijk, [e1, e2] = e3 cyclically, as (k, i, j, value)
_EPSILON = (np.array([0, 0, 1, 1, 2, 2]), np.array([1, 2, 0, 2, 0, 1]),
            np.array([2, 1, 2, 0, 1, 0]), np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0]))


def _builtin_so3():
    return LieAlgebraSpec(3, _EPSILON, name="so3")


def _builtin_so_n(n):
    # With F_xy = e_x e_y^T - e_y e_x^T, E_ab = F_ab (a < b) and F_yx = -F_xy.
    # [F_xs, F_sy] = F_xy for distinct x, s, y, and pairs sharing no index
    # commute, so each ordered triple of distinct indices is one entry.
    a, b = np.array(so_n_index_pairs(n)).T
    dim = a.size
    slot = np.zeros((n, n), dtype=int)
    slot[a, b] = slot[b, a] = np.arange(dim)
    r = np.arange(n)
    sign = np.sign(r[None, :] - r[:, None]).astype(float)  # F_xy = sign[x, y] E_slot[x, y]
    x, s, y = np.indices((n,) * 3).reshape(3, -1)
    x, s, y = (t[(x != s) & (s != y) & (x != y)] for t in (x, s, y))
    constants = (slot[x, y], slot[x, s], slot[s, y], sign[x, s] * sign[s, y] * sign[x, y])
    return LieAlgebraSpec(dim, constants, name=f"soN({n})")


def _builtin_se3():
    # block order (rotation, translation):
    # [(w, v), (w', v')] = (w x w', w x v' - w' x v), so epsilon fills the
    # (k, i, j) blocks (rot, rot, rot), (trans, rot, trans) and (trans, trans, rot)
    offset = np.repeat([[0, 3, 3], [0, 0, 3], [0, 3, 0]], 6, axis=1)  # k, i, j of the blocks
    constants = (*(np.tile(_EPSILON[:3], 3) + offset), np.tile(_EPSILON[3], 3))
    return LieAlgebraSpec(6, constants, name="se3")


def _builtin_gl_n(n):
    # matrix units E_ab at index a*n + b, row-major, orthonormal under the
    # Frobenius product.  [E_ab, E_cd] = d_bc E_ad - d_ad E_cb: over all
    # (a, b, d), [E_ab, E_bd] = E_ad and [E_ab, E_da] = -E_db.  The two terms
    # meet only in [E_aa, E_aa] = 0, which is left out.
    a, b, d = np.indices((n,) * 3).reshape(3, -1)
    a, b, d = (t[(a != b) | (b != d)] for t in (a, b, d))
    constants = (np.concatenate([a * n + d, d * n + b]), np.tile(a * n + b, 2),
                 np.concatenate([b * n + d, d * n + a]), np.repeat([1.0, -1.0], a.size))
    return LieAlgebraSpec(n * n, constants, name=f"glN({n})")


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
