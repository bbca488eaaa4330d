import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (adjoint_rep, dense_c, jacobi_residual, matrix_basis,
                     structure_constants_from_matrices, to_matrix, validate)

from gstrands import liealg
from gstrands.errors import DimensionMismatchError, UnsupportedAlgebraError

SO3 = liealg.builtin("so3")
SE3 = liealg.builtin("se3")

e1, e2, e3 = np.eye(3)


def coords(st_dim):
    return st.lists(st.floats(-10, 10, allow_nan=False), min_size=st_dim, max_size=st_dim)


def test_so3_bracket_is_cross_product():
    assert np.allclose(liealg.bracket(SO3, e1, e2), e3)
    assert np.allclose(liealg.bracket(SO3, e2, e3), e1)


def test_bracket_of_element_with_itself_vanishes():
    xi = np.array([0.3, -1.2, 0.5])
    assert np.allclose(liealg.bracket(SO3, xi, xi), 0.0)


def test_se3_bracket_rotation_acts_on_translation():
    # [(e3, 0), (0, e1)] = (0, e3 x e1) = (0, e2)
    a = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    out = liealg.bracket(SE3, a, b)
    assert np.allclose(out, [0, 0, 0, 0, 1, 0])


def test_se3_bracket_matches_matrix_commutator():
    # oracle: the 4x4 homogeneous representation
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = rng.standard_normal((2, 6))
        lhs = to_matrix(SE3, liealg.bracket(SE3, x, y))
        xm, ym = to_matrix(SE3, x), to_matrix(SE3, y)
        assert np.max(np.abs(lhs - (xm @ ym - ym @ xm))) < 1e-12


def test_ad_star_so3():
    # ad*_{e1} e2 = e2 x e1 = -e3 under the identity pairing
    out = liealg.ad_star(SO3, e1, e2)
    assert np.allclose(out, [0, 0, -1])


def test_ad_star_zero_velocity():
    mu = np.array([1.0, 2.0, 3.0])
    assert np.allclose(liealg.ad_star(SO3, np.zeros(3), mu), 0.0)


def test_ad_star_self_annihilates_for_bi_invariant_pairing():
    mu = np.array([0.4, -1.1, 2.2])
    assert np.max(np.abs(liealg.ad_star(SO3, mu, mu))) < 1e-15


@settings(max_examples=50, deadline=None)
@given(coords(3), coords(3), coords(3))
def test_duality_identity_so3(xi, mu, eta):
    xi, mu, eta = map(np.array, (xi, mu, eta))
    lhs = liealg.pair(SO3, liealg.ad_star(SO3, xi, mu), eta)
    rhs = liealg.pair(SO3, mu, liealg.bracket(SO3, xi, eta))
    assert abs(lhs - rhs) < 1e-10 * (1 + abs(rhs))


@settings(max_examples=30, deadline=None)
@given(coords(6), coords(6), coords(6), st.floats(-3, 3), st.floats(-3, 3))
def test_bracket_bilinear_se3(xi, eta, zeta, a, b):
    xi, eta, zeta = map(np.array, (xi, eta, zeta))
    lhs = liealg.bracket(SE3, a * xi + b * eta, zeta)
    rhs = a * liealg.bracket(SE3, xi, zeta) + b * liealg.bracket(SE3, eta, zeta)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1 + np.max(np.abs(rhs)))


@pytest.mark.parametrize("name", ["so3", "se3", "soN(3)", "soN(4)", "soN(5)", "glN(2)", "glN(3)"])
def test_builtin_jacobi(name):
    spec = liealg.builtin(name)
    assert jacobi_residual(spec) < 1e-12
    validate(spec)


def test_builtin_dims():
    assert liealg.builtin("so3").dim == 3
    assert liealg.builtin("soN(4)").dim == 6
    assert liealg.builtin("glN(3)").dim == 9
    assert SE3.dim == 6


def test_duality_identity_all_builtins_random():
    rng = np.random.default_rng(11)
    for name in ("so3", "se3", "soN(4)", "glN(2)"):
        spec = liealg.builtin(name)
        for _ in range(200):
            xi, mu, eta = rng.standard_normal((3, spec.dim))
            lhs = liealg.pair(spec, liealg.ad_star(spec, xi, mu), eta)
            rhs = liealg.pair(spec, mu, liealg.bracket(spec, xi, eta))
            assert abs(lhs - rhs) < 1e-12 * (1 + abs(rhs))


def perturbed_so3():
    """so3 constants plus an antisymmetric perturbation: every entry nonzero."""
    rng = np.random.default_rng(1)
    pert = 0.1 * rng.standard_normal((3, 3, 3))
    pert = 0.5 * (pert - np.swapaxes(pert, 1, 2))     # keep antisymmetry exact
    c = dense_c(SO3) + pert
    k, i, j = np.nonzero(c)
    return liealg.LieAlgebraSpec(3, (k, i, j, c[k, i, j]), name="broken")


def test_jacobi_residual_of_perturbed_constants():
    spec = perturbed_so3()
    res = jacobi_residual(spec)
    assert res > 0.1
    with pytest.raises(DimensionMismatchError):
        validate(spec)


def test_unsupported_name():
    with pytest.raises(UnsupportedAlgebraError):
        liealg.builtin("sp4")
    with pytest.raises(UnsupportedAlgebraError):
        liealg.builtin("soN(1)")


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        liealg.bracket(SO3, np.zeros(4), np.zeros(3))


def test_antisymmetry_enforced_exactly():
    k, i, j, value = SO3.constants
    assert (k[0], i[0], j[0]) == (0, 1, 2)
    value = value.copy()
    value[0] += 1e-14
    with pytest.raises(DimensionMismatchError, match="antisymmetric"):
        liealg.LieAlgebraSpec(3, (k, i, j, value))


def so3_constants_with(**changes):
    """so3's (k, i, j, value) as lists, with some arrays replaced."""
    entries = {name: list(arr) for name, arr in SO3.constants._asdict().items()}
    entries.update(changes)
    return tuple(entries.values())


@pytest.mark.parametrize("constants, message", [
    (so3_constants_with(k=[0, 0, 1, 1, 2, 3]), "indices"),
    (so3_constants_with(j=[2, 1, 2, 0, 1, -1]), "indices"),
    ((SO3.constants.k[[0, 1, 1]], SO3.constants.i[[0, 1, 1]], SO3.constants.j[[0, 1, 1]],
      SO3.constants.value[[0, 1, 1]]), "twice"),
    (so3_constants_with(value=[1.0, -1.0, -1.0, 1.0, 1.0]), "one length"),
    (so3_constants_with(i=[1, 2, 0, 2, 0]), "one length"),
    (so3_constants_with(value=[[1.0, -1.0, -1.0, 1.0, 1.0, -1.0]]), "one length"),
    (tuple(a[:5] for a in SO3.constants), "antisymmetric"),
    (so3_constants_with(value=[1.0, -1.0, -1.0, 1.0, 1.0, 1.0]), "antisymmetric"),
    ((np.array([0]), np.array([1]), np.array([1]), np.array([1.0])), "antisymmetric"),
    (so3_constants_with(value=[0.0, -0.0, -1.0, 1.0, 1.0, -1.0]), "nonzero"),
    (so3_constants_with(value=[np.nan, np.nan, -1.0, 1.0, 1.0, -1.0]), "finite"),
    (so3_constants_with(k=[0.0, 0.0, 1.0, 1.0, 2.0, 2.0]), "integers"),
], ids=["k-out-of-range", "j-negative", "listed-twice", "short-value", "short-i", "2d-value",
        "missing-partner", "partner-same-sign", "diagonal", "zero-value", "nan-value",
        "float-index"])
def test_malformed_constants_are_refused(constants, message):
    with pytest.raises(DimensionMismatchError, match=message):
        liealg.LieAlgebraSpec(3, constants)


@pytest.mark.parametrize("name", ["so3", "se3", "soN(4)", "glN(3)"])
def test_constants_are_kept_sorted_whatever_the_input_order(name):
    spec = liealg.builtin(name)
    shuffle = np.random.default_rng(4).permutation(spec.constants.k.size)
    again = liealg.LieAlgebraSpec(spec.dim, tuple(a[shuffle] for a in spec.constants))
    for got, want in zip(again.constants, spec.constants):
        assert np.array_equal(got, want) and got.dtype == want.dtype
    for table in ("bracket_table", "coad_table"):
        for got, want in zip(getattr(again, table), getattr(spec, table)):
            assert np.array_equal(got, want), table


def test_levi_civita_is_decided_by_the_constants():
    # the so(3) constants in any order and under any name; not so(3) in
    # another basis (soN(3)), scaled, or with a fourth, central coordinate
    k, i, j, value = SO3.constants
    shuffle = np.random.default_rng(5).permutation(k.size)
    flags = {"so3": SO3.levi_civita,
             "shuffled-renamed": liealg.LieAlgebraSpec(
                 3, tuple(a[shuffle] for a in SO3.constants), name="x").levi_civita,
             "soN(3)": liealg.builtin("soN(3)").levi_civita,
             "doubled": liealg.LieAlgebraSpec(3, (k, i, j, 2.0 * value), name="so3").levi_civita,
             "so3+R": liealg.LieAlgebraSpec(4, SO3.constants, name="so3").levi_civita,
             "se3": SE3.levi_civita, "glN(2)": liealg.builtin("glN(2)").levi_civita}
    assert flags == {"so3": True, "shuffled-renamed": True, "soN(3)": False, "doubled": False,
                     "so3+R": False, "se3": False, "glN(2)": False}


@pytest.mark.parametrize("n, bound_mib", [(24, 32), (32, 64)])
def test_son_builds_without_a_dim_cubed_array(n, bound_mib):
    # a dense c would be dim^3 doubles: 160 MiB at n = 24, 931 MiB at n = 32
    tracemalloc.start()
    try:
        spec = liealg.builtin(f"soN({n})")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.constants.k.size == n * (n - 1) * (n - 2)   # ordered pairs sharing one index
    assert peak < bound_mib * 2**20


def test_batched_operations_match_loop():
    rng = np.random.default_rng(5)
    xis = rng.standard_normal((17, 6))
    mus = rng.standard_normal((17, 6))
    batched = liealg.ad_star(SE3, xis, mus)
    for i in range(17):
        assert np.allclose(batched[i], liealg.ad_star(SE3, xis[i], mus[i]))


def test_ad_star_self_annihilates_so_n():
    # bi-invariance of the trace pairing on so(N)
    so4 = liealg.builtin("soN(4)")
    rng = np.random.default_rng(14)
    for _ in range(20):
        mu = rng.standard_normal(so4.dim)
        assert np.max(np.abs(liealg.ad_star(so4, mu, mu))) < 1e-12


BUILTINS = (["so3", "se3"] + [f"soN({n})" for n in range(3, 9)]
            + [f"glN({n})" for n in range(2, 5)])


def dense_bracket(c, xi, eta):
    return np.einsum("kij,...i,...j->...k", c, xi, eta)


def skewed_kappa():
    """A symmetric positive-definite, non-identity pairing matrix on se3."""
    a = np.random.default_rng(3).standard_normal((6, 6))
    return 0.5 * (a + a.T) + 6.0 * np.eye(6)


def dense_ad_star(c, kappa, kappa_inv, xi, mu):
    """The nu with kappa(nu, eta) = kappa(mu, [xi, eta])."""
    return np.einsum("kij,...i,...k->...j", c, xi, mu @ kappa) @ kappa_inv


@pytest.mark.parametrize("shapes", [((), ()), ((5,), (5,)), ((3, 5), (3, 5)), ((), (3, 5))],
                         ids=["point", "batch", "history", "broadcast"])
@pytest.mark.parametrize("name", BUILTINS + ["perturbed", "kappa"])
def test_tables_match_dense_einsum(name, shapes):
    spec = {"perturbed": perturbed_so3, "kappa": lambda: SE3}.get(
        name, lambda: liealg.builtin(name))()
    rng = np.random.default_rng(21)
    x = rng.standard_normal(shapes[0] + (spec.dim,))
    y = rng.standard_normal(shapes[1] + (spec.dim,))
    if name == "kappa":
        # a non-identity pairing lives in the caller's coordinates:
        # ad*_kappa(xi, mu) = ad*(xi, mu kappa) kappa^-1
        kappa = skewed_kappa()
        kappa_inv = np.linalg.inv(kappa)
        got_ad = liealg.ad_star(spec, x, y @ kappa) @ kappa_inv
    else:
        kappa = kappa_inv = np.eye(spec.dim)
        got_ad = liealg.ad_star(spec, x, y)
    c = dense_c(spec)
    got = (liealg.bracket(spec, x, y), got_ad)
    want = (dense_bracket(c, x, y), dense_ad_star(c, kappa, kappa_inv, x, y))
    # roundoff scale of each output entry: the same sums over absolute values
    c, ax, ay = np.abs(c), np.abs(x), np.abs(y)
    scale = (dense_bracket(c, ax, ay),
             dense_ad_star(c, np.abs(kappa), np.abs(kappa_inv), ax, ay))
    for g, w, sc in zip(got, want, scale):
        assert g.shape == w.shape
        assert np.all(np.abs(g - w) <= 1e-14 * sc)
        if name == "so3":
            assert np.array_equal(g, w)


def test_abelian_algebra_contracts_to_zero():
    none = np.array([], dtype=int)
    spec = liealg.LieAlgebraSpec(4, (none, none, none, np.array([])))
    x = np.random.default_rng(2).standard_normal((7, 4))
    assert np.array_equal(liealg.bracket(spec, x, x), np.zeros((7, 4)))
    assert np.array_equal(liealg.ad_star(spec, x, x), np.zeros((7, 4)))


@pytest.mark.parametrize("name", BUILTINS)
def test_closed_form_constants_match_matrix_commutators(name):
    spec = liealg.builtin(name)
    c = dense_c(spec)
    assert np.array_equal(c, np.round(c))
    oracle = structure_constants_from_matrices(matrix_basis(spec))
    assert np.max(np.abs(c - oracle)) <= 1e-15
    assert jacobi_residual(spec) == 0.0


@pytest.mark.parametrize("n", range(2, 9))
def test_son_basis_is_the_elementary_antisymmetric_pairs(n):
    # E_ab (a < b, lexicographic): +1 at (a, b), -1 at (b, a)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    basis = np.zeros((len(pairs), n, n))
    for k, (a, b) in enumerate(pairs):
        basis[k, a, b], basis[k, b, a] = 1.0, -1.0
    assert np.array_equal(liealg.hat_so_n(n, np.eye(len(pairs))), basis)


# ---------------------------------------------------------------------------
# blocked contraction against the per-column loop it replaced

def column_table(t):
    """The per-column table: a tuple of (A[:, w], B[:, w], V[:, w]) columns,
    row o listing the nonzero t[o, a, b] in (a, b) order, zero-padded."""
    o, a, b = np.nonzero(t)
    counts = np.bincount(o, minlength=t.shape[0])
    col = np.arange(o.size) - np.repeat(np.cumsum(counts) - counts, counts)
    shape = (max(int(counts.max(initial=0)), 1), t.shape[0])
    idx_a = np.zeros(shape, dtype=np.intp)
    idx_b = np.zeros(shape, dtype=np.intp)
    val = np.zeros(shape)
    idx_a[col, o], idx_b[col, o], val[col, o] = a, b, t[o, a, b]
    return tuple(zip(idx_a, idx_b, val))


def column_contract(columns, x, y, d):
    """One column at a time, zeros += x[a] * v * y[b]: the oracle's order."""
    lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    x = np.broadcast_to(x, lead + x.shape[-1:])
    y = np.broadcast_to(y, lead + y.shape[-1:])
    out = np.zeros(lead + (d,))
    for a, b, v in columns:
        term = x.take(a, axis=-1)
        term *= v
        term *= y.take(b, axis=-1)
        out += term
    return out


def spec_tables(name):
    """(table, dense t) of every contraction a builtin and its adjoint rep use."""
    spec = liealg.builtin(name)
    rep = adjoint_rep(spec)
    c = dense_c(spec)
    return {"bracket": (spec.bracket_table, c),
            "coad": (spec.coad_table, c.transpose(2, 0, 1)),
            "act": (rep.act_table, rep.rho.transpose(1, 0, 2)),
            "act_dual": (rep.dual_table, rep.rho.transpose(2, 0, 1)),
            "diamond": (rep.diamond_table, rep.rho)}


def seeded_operand(rng, lead, k, fill):
    """Random entries with the first point all -0.0 and, for "inf", the last
    point's first coordinate infinite (0 * inf makes NaN in padded terms)."""
    a = rng.standard_normal(lead + (k,))
    flat = a.reshape(-1, k)
    flat[0] = -0.0
    if fill == "inf":
        flat[-1, 0] = np.inf
    return a


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


# points per block of the soN(8) bracket table: one block less a point, one
# full block, and one point into a second block
SON8_STEP = liealg._BLOCK // liealg.builtin("soN(8)").bracket_table.idx_a.size


@pytest.mark.parametrize("fill", ["signed-zero", "inf"])
@pytest.mark.parametrize("shapes", [((), ()), ((1,), (1,)), ((128,), (128,)),
                                    ((39, 128), (39, 128)), ((5, 1), (1, 7)),
                                    *(((SON8_STEP + k,),) * 2 for k in (-1, 0, 1))],
                         ids=["point", "one", "strand", "history", "broadcast",
                              "step-1", "step", "step+1"])
@pytest.mark.parametrize("name", BUILTINS)
def test_blocked_contract_is_bitwise_the_column_loop(name, shapes, fill):
    rng = np.random.default_rng(len(name) + len(shapes[0]))
    for op, (table, t) in spec_tables(name).items():
        x = seeded_operand(rng, shapes[0], t.shape[1], fill)
        y = seeded_operand(rng, shapes[1], t.shape[2], "signed-zero")
        with np.errstate(invalid="ignore"):
            got = liealg._contract(table, x, y)
            want = column_contract(column_table(t), x, y, t.shape[0])
        assert got.shape == want.shape, op
        assert got.flags.c_contiguous, op
        assert np.array_equal(bits(got), bits(want)), op


@pytest.mark.parametrize("fill", ["signed-zero", "inf"])
@pytest.mark.parametrize("shapes", [((), ()), ((1,), (1,)), ((128,), (128,)),
                                    ((39, 128), (39, 128)), ((5, 1), (1, 7))],
                         ids=["point", "one", "strand", "history", "broadcast"])
@pytest.mark.parametrize("name", BUILTINS)
def test_pair_is_bitwise_the_column_loop(name, shapes, fill):
    spec = liealg.builtin(name)
    rng = np.random.default_rng(len(name) + len(shapes[0]))
    mu = seeded_operand(rng, shapes[0], spec.dim, fill)
    xi = seeded_operand(rng, shapes[1], spec.dim, "signed-zero")
    with np.errstate(invalid="ignore"):
        got = liealg.pair(spec, mu, xi)
        want = column_contract(column_table(np.eye(spec.dim)[None]), mu, xi, 1)[..., 0]
    assert np.shape(got) == want.shape
    assert np.array_equal(bits(got), bits(want))


def test_history_spans_several_blocks():
    # the soN(8) history case above must take the blocked path
    spec = liealg.builtin("soN(8)")
    for table in (spec.bracket_table, spec.coad_table):
        assert 39 * 128 * table.idx_a.size > 2 * liealg._BLOCK


def test_contract_of_empty_batch():
    x = np.zeros((0, 3))
    assert liealg.bracket(SO3, x, x).shape == (0, 3)
    assert liealg.pair(SO3, x, x).shape == (0,)


@pytest.mark.parametrize("shapes", [((), ()), ((5,), (5,)), ((3, 5), (3, 5)), ((), (3, 5))],
                         ids=["point", "batch", "history", "broadcast"])
@pytest.mark.parametrize("name", BUILTINS + ["kappa"])
def test_pair_matches_dense_einsum(name, shapes):
    spec = SE3 if name == "kappa" else liealg.builtin(name)
    kappa = skewed_kappa() if name == "kappa" else np.eye(spec.dim)
    rng = np.random.default_rng(31)
    mu = rng.standard_normal(shapes[0] + (spec.dim,))
    xi = rng.standard_normal(shapes[1] + (spec.dim,))
    want = np.einsum("...i,ij,...j->...", mu, kappa, xi)
    if name == "kappa":
        # kappa(mu, xi) = <mu kappa, xi>
        got = liealg.pair(spec, mu @ kappa, xi)
        scale = np.einsum("...i,ij,...j->...", np.abs(mu), np.abs(kappa), np.abs(xi))
        assert np.all(np.abs(got - want) <= 1e-14 * scale)
    else:
        got = liealg.pair(spec, mu, xi)
        assert np.array_equal(got, want)
    assert np.shape(got) == np.shape(want) and type(got) is type(want)
