"""Reference implementations the tests compare the library against; none of
them is reached by ``gstrands run``, ``study`` or ``validate``."""

import math
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from gstrands import clebsch, gstrand, kernels, liealg, peakon, verify
from gstrands.errors import BlowUpError, DimensionMismatchError, NearCollisionError

JACOBI_TOL = 1e-12

# ---------------------------------------------------------------------------
# classical reductions: one RK4 loop, independent of gstrand.rk4_advance

def _rk4(rhs, y0, dt, t_end):
    """Classical RK4 of dy/dt = rhs(y) from y0; returns (times, stacked y)."""
    y = np.asarray(y0, dtype=float).copy()
    n_steps = int(round(t_end / dt))
    times = [0.0]
    ys = [y.copy()]
    for k in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times.append((k + 1) * dt)
        ys.append(y.copy())
    return np.array(times), np.array(ys)


def classical_ep_trajectory(alg, a_t, mu0, dt, t_end):
    """RK4 integration of d(mu)/dt = -ad*_xi mu, xi = A_t^-1 mu.

    Independent oracle for the s-independent mode of the Clebsch solvers.
    Returns (times, mu, xi).
    """
    a_t_inv = np.linalg.inv(np.atleast_2d(np.asarray(a_t, dtype=float)))
    times, mus = _rk4(lambda m: -liealg.ad_star(alg, m @ a_t_inv.T, m), mu0, dt, t_end)
    return times, mus, mus @ a_t_inv.T


def rigid_body_oracle(alg_so_n, a_t, w0_coords, dt, t_end):
    """Direct rigid-body integration dW/dt = [W, U], U = A_t^-1 W, in so(N)
    coordinates; the oracle for the classical mode of the symmetric pair."""
    a_t_inv = np.linalg.inv(np.atleast_2d(np.asarray(a_t, dtype=float)))
    times, ws = _rk4(lambda wc: liealg.bracket(alg_so_n, wc, wc @ a_t_inv.T),
                     w0_coords, dt, t_end)
    return times, ws, ws @ a_t_inv.T


E3 = np.array([0.0, 0.0, 1.0])


def cdb_so3_reduced_rhs(zeta):
    """Right-hand side f(t, y), y = (m, w_t), of the so(3) coupled
    double-bracket strand restricted to fields R(zeta s) y(t) that rotate
    about e3 along s, written with cross products ([a, b] = a x b).  The
    s-derivative of R(zeta s) x is R(zeta s)(zeta e3 x x); the centered
    difference on a periodic grid maps it exactly to the same with
    zeta_h = sin(zeta ds) / ds in place of zeta.  w_s is the part of d_s m
    orthogonal to m over |m|^2."""
    def rhs(t, y):
        m, w_t = y[:3], y[3:]
        dsm = zeta * np.cross(E3, m)
        mm = m @ m
        w_s = (dsm - m * (m @ dsm) / mm) / mm
        s_t, s_s = np.cross(m, w_t), np.cross(m, w_s)
        dw_t = -zeta * np.cross(E3, w_s) + np.cross(s_t, w_t) + np.cross(s_s, w_s)
        return np.concatenate([np.cross(s_t, m), dw_t])
    return rhs


def clebsch_so3_reduced_rhs(zeta):
    """Right-hand side f(t, y), y = (v, m), of the chiral so(3) Clebsch
    strand of verify_action (defining rep xi v = xi x v, A_t = I, A_s = -I)
    restricted to fields R(zeta s) y(t) that rotate about e3 along s, in
    cross products; zeta_h = sin(zeta ds) / ds gives the grid solution, as
    in ``cdb_so3_reduced_rhs``.  The slaved n is the minimum-norm (orthogonal
    to v) solution of d_s v = gamma x v with gamma = -v x n."""
    def rhs(t, y):
        v, m = y[:3], y[3:]
        n = -zeta * np.cross(E3, v) / (v @ v)
        xi, gamma = np.cross(v, m), -np.cross(v, n)
        dm = -zeta * np.cross(E3, n) + np.cross(xi, m) + np.cross(gamma, n)
        return np.concatenate([np.cross(xi, v), dm])
    return rhs


# ---------------------------------------------------------------------------
# matrices of algebra elements and group reconstruction

class ReconstructionRefused(Exception):
    """Zero-curvature residual too large for group reconstruction to be well posed."""


def matrix_basis(alg):
    """A faithful matrix basis of a builtin algebra, stacked along axis 0, in
    which its structure constants are the spec's: the so(3) hat map, the
    so(n) E_ab, se(3) as 4x4 homogeneous matrices (rotations, then
    translations) and the gl(n) matrix units E_ab at index a*n + b."""
    if alg.name == "so3":
        return clebsch.defining_rep_so3(alg).rho
    if alg.name == "se3":
        basis = np.zeros((6, 4, 4))
        basis[:3, :3, :3] = matrix_basis(liealg.builtin("so3"))
        basis[3:, :3, 3] = np.eye(3)
        return basis
    n = int(alg.name[4:-1])
    if alg.name.startswith("soN"):
        return liealg.hat_so_n(n, np.eye(alg.dim))
    unit = np.arange(n * n)
    basis = np.zeros((n * n, n, n))
    basis[unit, unit // n, unit % n] = 1.0
    return basis


def to_matrix(alg, xi):
    """Matrix of an element in the builtin representation, batched."""
    return np.einsum("...i,iab->...ab", np.asarray(xi, dtype=float), matrix_basis(alg))


def reconstruct(alg, g0, hist, grid, tol=1e-6):
    """Exponential-Euler reconstruction g <- exp(dt nu) g from stored history:
    g (n_stored, n_s, N, N) and max |(d_s g) g^-1 - gamma_hat|.

    Requires the zero-curvature residual of the history to be below ``tol``;
    otherwise a group-valued field with d g g^-1 = sigma does not exist and
    the call is refused.
    """
    zr = gstrand.zcc_residual(alg, hist, grid)
    if zr > tol:
        raise ReconstructionRefused(
            f"zero-curvature residual {zr:.3e} exceeds {tol:.1e}; reconstruction is ill-posed")
    g0 = np.asarray(g0, dtype=float)
    nmat = matrix_basis(alg).shape[-1]
    if g0.ndim == 2:
        g0 = np.broadcast_to(g0, (grid.n_s, nmat, nmat))
    out = [g0]
    for k in range(len(hist.times) - 1):
        out.append(scipy.linalg.expm(hist.dt_stored * to_matrix(alg, hist.nu[k])) @ out[-1])
    gs = np.array(out)
    dsg_ginv = np.einsum("tjab,tjbc->tjac", gstrand.d_s(gs, grid, axis=1), np.linalg.inv(gs))
    mismatch = float(np.max(np.abs(dsg_ginv - to_matrix(alg, hist.gamma))))
    return gs, mismatch


# ---------------------------------------------------------------------------
# dense structure constants: the only dim^3 arrays, built here for the checks

def dense_c(spec) -> np.ndarray:
    """c[k, i, j] of a spec, zero where it lists no entry."""
    c = np.zeros((spec.dim,) * 3)
    k, i, j, value = spec.constants
    c[k, i, j] = value
    return c


def jacobi_residual(spec) -> float:
    """Max-norm of the Jacobi identity over all index quadruples."""
    c = dense_c(spec)
    r = (np.einsum("kij,mkl->ijlm", c, c)
         + np.einsum("kjl,mki->ijlm", c, c)
         + np.einsum("kli,mkj->ijlm", c, c))
    return float(np.max(np.abs(r)))


def validate(spec):
    """Raise unless the spec's constants satisfy the Jacobi identity."""
    res = jacobi_residual(spec)
    if res >= JACOBI_TOL:
        raise DimensionMismatchError(f"Jacobi residual {res:.3e} exceeds {JACOBI_TOL}")


def structure_constants_from_matrices(basis) -> np.ndarray:
    """c[k, i, j] from pairwise commutators, expanding in the given basis by
    least squares.  The builtins fill c in closed form; this is their oracle."""
    basis = np.asarray(basis, dtype=float)
    dim = basis.shape[0]
    flat = basis.reshape(dim, -1).T
    c = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            coeff = np.linalg.lstsq(flat, comm.ravel(), rcond=None)[0]
            c[:, i, j] = coeff
            c[:, j, i] = -coeff
    return c


# ---------------------------------------------------------------------------
# the kernel as an impulse response, and the dense Gram path

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


class GramSystem(NamedTuple):
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


def gram(k, points) -> GramSystem:
    """Kernel matrix G(points[a], points[b]) with a 1-norm conditioning estimate."""
    points = np.asarray(points, dtype=float)
    matrix = kernels.eval(k, points[:, None], points[None, :])
    return GramSystem(matrix, float(_cond_1(matrix)))


def solve_gram(g: GramSystem, rhs):
    """SPD solve of g.matrix @ x = rhs; refuses ill-conditioned systems."""
    if not np.isfinite(g.cond_estimate) or g.cond_estimate > kernels.COND_LIMIT:
        raise NearCollisionError(
            f"Gram conditioning {g.cond_estimate:.3e} exceeds {kernels.COND_LIMIT:.0e}")
    return kernels.chol_solve_batched(g.matrix, np.asarray(rhs, dtype=float))


class PeakonDiagnostics(NamedTuple):
    hamiltonian: np.ndarray    # (n_t, n_s)
    s_constraint: np.ndarray   # (n_t,)
    cross_derivative: float
    compatibility: np.ndarray  # (n_t - 2, n_s, n_p), the sum before its max-norm


def whole_history_peakon_diagnostics(hist, kernel, grid) -> PeakonDiagnostics:
    """The four peakon history diagnostics with one Gram over the whole
    history, (n_t, n_s, n_p, n_p): the reference the blocked ones in peakon
    must equal bit for bit."""
    gram = peakon._gram_all(kernel, hist.q)
    hamiltonian = 0.5 * (np.einsum("...a,...ab,...b->...", hist.nw, gram, hist.nw)
                         + np.einsum("...a,...ab,...b->...", hist.mw, gram, hist.mw))
    s_res = gstrand.d_s(hist.q, grid, axis=1) + np.einsum("...ab,...b->...a", gram, hist.nw)
    nu_at_q = np.einsum("tsab,tsb->tsa", gram, hist.mw)
    gam_at_q = -np.einsum("tsab,tsb->tsa", gram, hist.nw)
    cross = gstrand.centered_dt(hist, gam_at_q) - gstrand.d_s(nu_at_q[1:-1], grid, axis=1)

    dtn = gstrand.centered_dt(hist, hist.nw)
    q, mw, nw = hist.q[1:-1], hist.mw[1:-1], hist.nw[1:-1]
    gram = peakon._gram_all(kernel, q)
    grad = np.sign(q[..., None, :] - q[..., :, None]) * gram / kernel.alpha

    def times(mat, v):
        return np.einsum("tsab,tsb->tsa", mat, v)

    lead = times(gram, dtn + gstrand.d_s(mw, grid, axis=1))
    gm, gn = times(gram, mw), times(gram, nw)
    term1 = gm * times(grad, nw) - gn * times(grad, mw)
    term2 = np.einsum("tsba,tsb->tsa", grad, mw * gn - nw * gm)
    return PeakonDiagnostics(hamiltonian, np.max(np.abs(s_res), axis=(-2, -1)),
                             float(np.max(np.abs(cross))), lead + term1 - term2)


# ---------------------------------------------------------------------------
# representations, discrete actions and Hamiltonians only the tests evaluate

def adjoint_rep(alg):
    """ad_xi as matrices on the algebra's own coordinates:
    rho[i][k, j] = c^k_ij = [e_i, e_j]^k."""
    basis = np.eye(alg.dim)
    return clebsch.LinearRepSpec(alg, liealg.bracket(alg, basis[:, None], basis).transpose(0, 2, 1))


def assemble(integrand, fields, dt, ds) -> float:
    """Cell sum of the integrand times dt*ds, the sum verify.fd_gradient
    differentiates."""
    views = {name: verify._cell_views(arr, dt, ds) for name, arr in fields.items()}
    return float(np.sum(verify._integrand_cells(integrand, views)) * dt * ds)


def hamiltonian_value(dual, nu_t, nu_s):
    """h(nu_t, nu_s) of a Legendre dual, verify.legendre_pair(lag)."""
    return 0.5 * (np.einsum("...i,...i->...", nu_t @ dual.a_t.T, nu_t)
                  + np.einsum("...i,...i->...", nu_s @ dual.a_s.T, nu_s))


def clebsch_adjoint_action(alg):
    """Integrand |s_t|^2/2 + |s_s|^2/2 + w_t.(d_t m - [s_t, m]) + w_s.(d_s m - [s_s, m])
    over the fields m, w_t, w_s, s_t, s_s (alg.dim components each)."""

    def integrand(vals, dts, dss):
        m, s_t, s_s = vals["m"], vals["s_t"], vals["s_s"]
        lval = 0.5 * (liealg.pair(alg, s_t, s_t) + liealg.pair(alg, s_s, s_s))
        ct = dts["m"] - liealg.bracket(alg, s_t, m)
        cs = dss["m"] - liealg.bracket(alg, s_s, m)
        return lval + liealg.pair(alg, vals["w_t"], ct) + liealg.pair(alg, vals["w_s"], cs)

    return integrand


def symm_rigid_pontryagin_energy(lag, n_mat):
    """e = <p_t, QU> + <p_s, QV> - (u.A_t u + v.A_s v)/2 of the symmetric
    rigid-body strand on GL(n_mat), for verify.pontryagin_residual: y is Q
    flattened, p = (Mw, Nw)/2 flattened (the 1/2 is so(n)'s 1/2 tr pairing,
    which A_t u = vee(skew(Q^T Mw)) is written in) and b = (u, v) in so(n)
    coordinates, U = hat(u) and V = hat(v)."""
    dim = n_mat * (n_mat - 1) // 2

    def e_loc(y, p, b):
        q = y.reshape(y.shape[:-1] + (n_mat, n_mat))
        u, v = b[..., :dim], b[..., dim:]
        qu = (q @ liealg.hat_so_n(n_mat, u)).reshape(y.shape)
        qv = (q @ liealg.hat_so_n(n_mat, v)).reshape(y.shape)
        return (np.einsum("...a,...a->...", p[..., 0, :], qu)
                + np.einsum("...a,...a->...", p[..., 1, :], qv)
                - 0.5 * (np.einsum("...i,ij,...j->...", u, lag.a_t, u)
                         + np.einsum("...i,ij,...j->...", v, lag.a_s, v)))

    return e_loc


def symm_rigid_pontryagin_fields(lag, hist, grid) -> dict:
    """The (y, p, b) of ``symm_rigid_pontryagin_energy`` on a stored history,
    with U and V as the solver recovers them (clebsch.symm_rigid_velocities)."""
    n_mat = hist.q.shape[-1]
    u_hat, v_hat, _ = clebsch.symm_rigid_velocities(lag, hist.q, hist.mw,
                                                    gstrand.d_s(hist.q, grid, axis=1))
    flat = hist.q.shape[:2] + (n_mat * n_mat,)
    return {"y": hist.q.reshape(flat),
            "p": 0.5 * np.stack([hist.mw.reshape(flat), hist.nw.reshape(flat)], axis=2),
            "b": np.concatenate([liealg.vee_so_n(n_mat, u_hat),
                                 liealg.vee_so_n(n_mat, v_hat)], axis=-1)}


# ---------------------------------------------------------------------------
# CSV: the per-float writer and the row generators the float-table writer
# (output.write_csv) and its tables (scenarios._field_rows) replaced

def per_float_csv(path, header, rows):
    """Text of the CSV as the per-float writer made it: format(x, '.17g')
    for a float, str(x) for anything else.  A non-finite float raises
    BlowUpError with the writer's message, naming its row and column."""
    lines = [",".join(header)]
    for i, row in enumerate(rows):
        lines.append(",".join(format(x, ".17g") if isinstance(x, float) else str(x) for x in row))
        for k, x in zip(header, row):
            if isinstance(x, float) and not math.isfinite(x):
                raise BlowUpError(
                    f"non-finite value in '{path}' at row {i}, column '{k}'; nothing written")
    return "\n".join(lines) + "\n"


def slice_rows(hist, ds, comps):
    """Rows [t, s, *components] per stored slice and gridpoint."""
    flat = np.concatenate([a.reshape(a.shape[:2] + (-1,)) for a in comps], axis=2)
    for t, values in zip(hist.times.tolist(), flat.tolist()):
        for j, vals in enumerate(values):
            yield [t, j * ds] + vals


def peakon_rows(hist, ds):
    """Rows [t, s, a, Q, M, N] per stored slice, gridpoint and peakon; a is an int."""
    qmn = np.stack([hist.q, hist.mw, hist.nw], axis=3).tolist()
    for t, values in zip(hist.times.tolist(), qmn):
        for j, peakons in enumerate(values):
            for a, vals in enumerate(peakons):
                yield [t, j * ds, a] + vals


def snapshot_rows(hist, kernel, ds):
    """Rows [t, s, m, nu, gamma] at the first and last stored times."""
    lo = float(np.min(hist.q)) - 6.0 * kernel.alpha
    hi = float(np.max(hist.q)) + 6.0 * kernel.alpha
    m_grid = np.linspace(lo, hi, 121)
    for k in (0, len(hist.times) - 1):
        st = peakon.PeakonState(hist.q[k], hist.mw[k], hist.nw[k])
        nu, gam = peakon.field_snapshot(st, kernel, m_grid)
        t = float(hist.times[k])
        for j, (nu_j, gam_j) in enumerate(zip(nu.tolist(), gam.tolist())):
            for m, n_val, g_val in zip(m_grid.tolist(), nu_j, gam_j):
                yield [t, j * ds, m, n_val, g_val]
