"""Curvature of Kähler metric fields.

Tensor convention (all indices holomorphic/antiholomorphic alternating):

    R_{i jbar k lbar} = -d^2 g_{i jbar} / dz^k dzbar^l
                        + g^{p qbar} (d g_{i qbar}/dz^k)(d g_{p jbar}/dzbar^l)

stored as R[i, j, k, l].  Ricci is the trace g^{k lbar} R_{i jbar k lbar},
which for Kähler metrics equals -dd^c log det g.  Holomorphic sectional
curvature of a direction eta is

    H(eta) = R(eta, etabar, eta, etabar) / |eta|_g^4 .

In this normalization the scale-s Poincaré disk has H = -2/s and the
Fubini-Study chart has H = +2 with Ric = (n+1) g.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import DimensionMismatch
from .fields import TorusMetricField
from .linalg import Direction, inv, inverse_cholesky

# numpy.linalg's eigh and lstsq kernels without their wrappers, whose
# error-state context costs a single-point query more than LAPACK does;
# numpy 1.x splits the lstsq kernel in two, so there the wrapper is called
_eigh = partial(np.linalg._umath_linalg.eigh_lo, signature="d->dd")
_lstsq = (partial(np.linalg._umath_linalg.lstsq, signature="DDd->Ddid")
          if hasattr(np.linalg._umath_linalg, "lstsq") else np.linalg.lstsq)

SYMMETRY_RTOL = 1e-10
# The n = 3 extremizer policy (n <= 2 is exact): pencil lines, best lines
# (and at most as many lattice peaks) polished, and Newton steps per polish.
HSC_PENCIL_LINES = 400
HSC_PENCIL_STARTS = 2
HSC_REFINE_STEPS = 20
# The exact n = 2 kernel, in units of its form's largest entry.  Eigenvalues
# of the 3 x 3 block within _TOP_EIGEN_RTOL of the top one span the
# (possibly degenerate) top eigenspace of the hard case.  A linear part b/2
# of norm at most _FLAT_RTOL is rounding, and the problem a hard case:
# zeroing it moves Q by at most twice that, a few ulp.  A secular Newton
# step s <= _SECULAR_RTOL * delta is the last (1.5 s^2 / delta, the distance
# left, is then about eps * delta), and _SECULAR_ITERATIONS caps the steps,
# which take at most about 10 on random and near-constant forms.
_TOP_EIGEN_RTOL = 1e-12
_FLAT_RTOL = 4.0 * np.finfo(float).eps
_SECULAR_RTOL = np.sqrt(np.finfo(float).eps)
_SECULAR_ITERATIONS = 100


def curvature_from_derivatives(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """Assemble R[i, j, k, l] from pointwise metric derivatives.

    Works on single points (shapes (n,n), (n,n,n), (n,n,n,n)) and batched
    fields (leading grid axes) of positive definite g.
    """
    return _assemble(_frames(g), dg, ddg)


def _assemble(T: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """R from the frames T = _frames(g): G[p, q] = g^{p qbar} = conj(g^-1)[p, q]
    is T conj(T^t), so a sweep that needs the frames factors g once."""
    # R[i, j, k, l] = sum_p D[i, p, k] conj(dg[j, p, l]), D[i, p, k] = sum_q G[p, q] dg[i, q, k]
    D = ((T @ T.swapaxes(-1, -2).conj())[..., None, :, :] @ dg).swapaxes(-1, -2)
    return D[..., :, None, :, :] @ dg.conj()[..., None, :, :, :] - ddg


def _frames(g: np.ndarray) -> np.ndarray:
    """T = inverse_cholesky(g)^t over (..., n, n): T^t g conj(T) = I, the frames in
    which H is Q on the unit sphere (hsc_value contracts the unbarred slot
    unconjugated), and conj(g^-1) = T conj(T^t)."""
    return inverse_cholesky(g).swapaxes(-1, -2)


def ricci_from_derivatives(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """Ricci form -dd^c log det g via matrix calculus (no curvature tensor).

    Ric_{k lbar} = tr(g^{-1} (d_k g) g^{-1} (d_lbar g)) - tr(g^{-1} d_k d_lbar g).
    """
    return _ricci(inv(g), dg, ddg)


def _ricci(gi: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """ricci_from_derivatives(g, dg, ddg) for gi = g^{-1}, already inverted."""
    # (d_lbar g)_{i jbar} = conj(d_l g_{j ibar})
    dbar = np.conj(np.swapaxes(dg, -3, -2))  # dbar[i, j, l]
    first = np.einsum("...ab,...bck,...cd,...dal->...kl", gi, dg, gi, dbar)
    second = np.einsum("...ab,...bakl->...kl", gi, ddg)
    ric = first - second
    return (ric + np.conj(np.swapaxes(ric, -1, -2))) / 2.0


def constant_hsc_tensor(g: np.ndarray, c: float) -> np.ndarray:
    """The model tensor with H identically c for the metric g."""
    outer = np.einsum("...ij,...kl->...ijkl", g, g)
    swap = np.einsum("...il,...kj->...ijkl", g, g)
    return (c / 2.0) * (outer + swap)


_TENSOR_AXES = (-4, -3, -2, -1)


@cache
def _symmetry_partners(n: int) -> np.ndarray:
    """Flat indices (3, n^4): the partner of entry (i, j, k, l) under i <-> k,
    jbar <-> lbar and reality, (k, j, i, l), (i, l, k, j) and (j, i, l, k)."""
    idx = np.arange(n**4).reshape((n,) * 4)
    return np.stack([idx.transpose(2, 1, 0, 3), idx.transpose(0, 3, 2, 1),
                     idx.transpose(1, 0, 3, 2)]).reshape(3, -1)


def _symmetry_violations(R: np.ndarray) -> np.ndarray:
    """Per-tensor largest deviation from the Kähler symmetries, over leading axes:
    |R - partner| for the first two, |R - conj(partner)| for reality."""
    n = R.shape[-1]
    flat = R.reshape(R.shape[:-4] + (n**4,))
    partners = flat.take(_symmetry_partners(n), axis=-1)
    np.conjugate(partners[..., 2, :], out=partners[..., 2, :])
    return np.abs(flat[..., None, :] - partners).max(axis=(-2, -1))


def _check_symmetries(R: np.ndarray) -> None:
    """Raise ValueError at the first tensor of a stack breaking the symmetries.

    A tensor fails when its violation exceeds SYMMETRY_RTOL * max(1, max|R|).
    """
    scale = np.maximum(1.0, np.abs(R).max(axis=_TENSOR_AXES))
    v = _symmetry_violations(R)
    bad = np.flatnonzero(v > SYMMETRY_RTOL * scale)
    if bad.size:
        raise ValueError(f"curvature symmetries violated by {v.reshape(-1)[bad[0]]:.3e}")


# -- holomorphic sectional curvature ---------------------------------------


def hsc_value(R: np.ndarray, g: np.ndarray, eta: np.ndarray) -> float:
    """H(eta) for a single tensor/metric/direction triple."""
    eta = np.asarray(eta, dtype=complex).reshape(-1)
    norm2 = np.einsum("ij,i,j", g, eta, np.conj(eta)).real
    return float(_q_value(R, eta) / norm2**2)


def hsc(field, point, eta) -> float:
    """Holomorphic sectional curvature of a field at a point and direction
    (a Direction or its entries, checked as one, of length the field's n);
    a tensor breaking the Kähler symmetries raises ValueError.  A stack of
    points raises DimensionMismatch: sweeps go through sweep_hsc_extremes."""
    eta = eta if isinstance(eta, Direction) else Direction(eta)
    if eta.n != field.n:
        raise DimensionMismatch(f"direction length {eta.n} != field dimension {field.n}")
    if np.ndim(point) != 1:
        raise DimensionMismatch(f"hsc takes one point, got a stack of shape {np.shape(point)}")
    g, dg, ddg = field.jet_at(point)
    R = curvature_from_derivatives(g, dg, ddg)
    _check_symmetries(R)
    return hsc_value(R, g, eta.eta)


def transform_tensor(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Change of frame: unbarred slots contract T, barred slots conj(T);
    T (..., n, m) with m < n restricts R to the span of its columns.

    R is read as the (n^2, n^2) matrix of its slot pairs (i, j), (k, l),
    which changes by A^t R A with A[(i, j), (a, b)] = T[i, a] conj(T[j, b]).
    """
    n, m = T.shape[-2:]
    A = (T[..., :, None, :, None] * T.conj()[..., None, :, None, :]).reshape(
        T.shape[:-2] + (n * n, m * m))
    Rt = A.swapaxes(-1, -2) @ R.reshape(R.shape[:-4] + (n * n, n * n)) @ A
    return Rt.reshape(Rt.shape[:-2] + (m,) * 4)


# -- exact extremes on CP^1 ----------------------------------------------------

# Row a holds sigma_a[i, j] at column 2 i + j, for (sigma_0..3) = (I, X, Y, Z).
_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, -1j, 1j, 0], [1, 0, 0, -1]])


def _real_hopf_map() -> np.ndarray:
    """W (32, 16) with K = m @ W for m = Rt flattened to 16 entries, as floats.

    K is the real symmetric form (X + X^T) / 8 of X = Re(P M P^T), P =
    _PAULI and M = Rt as a 4 x 4 matrix; W's rows are K of the real and
    imaginary unit matrices, so one matrix product maps a stack of tensors.
    It is built with einsum, not matmul: a first matrix product allocates
    BLAS work buffers (about 0.5 MB resident), which importing the package
    should not do for programs that never multiply matrices.
    """
    def form(M):
        X = np.einsum("ab,kbc,dc->kad", _PAULI, M, _PAULI).real
        return ((X + np.swapaxes(X, -1, -2)) / 8.0).reshape(16, 16)

    E = np.eye(16).reshape(16, 4, 4)
    return np.stack([form(E), form(1j * E)], axis=1).reshape(32, 16)


_HOPF_FORM = _real_hopf_map()
# I + x . sigma for x = (x_1, x_2, x_3) is x @ _HOPF_COLUMNS[1:] + _HOPF_COLUMNS[0]:
# floats, real and imaginary parts interleaved, column 0 of the matrix first
_HOPF_COLUMNS = np.ascontiguousarray(_PAULI[:, [0, 2, 1, 3]]).view(float)
_SIGNS = np.array([1.0, -1.0])  # of Q in the two problems of _cp1_extremes
_SIGN_ROWS = _SIGNS[:, None]
_PROBLEMS = np.array([[0, 1, 2], [2, 1, 0]])
_E3 = np.array([0.0, 0.0, 1.0])
_TINY = np.finfo(float).tiny


# sum_i a_i b_i over the last axis, for stacks of short real vectors: the
# numpy.vecdot gufunc (numpy >= 2), else einsum (the package supports numpy >= 1.24)
_dot = getattr(np, "vecdot", partial(np.einsum, "...i,...i->..."))


def _inverse_hopf(x: np.ndarray) -> np.ndarray:
    """A unit u in C^2 with u u* = (I + x . sigma) / 2, for unit x of shape (..., 3).

    u is the normalized column of I + x . sigma whose real diagonal entry
    1 + |x_3| is the larger, so its norm is at least 1 and no division
    comes near zero.
    """
    P = (x @ _HOPF_COLUMNS[1:] + _HOPF_COLUMNS[0]).reshape(x.shape[:-1] + (2, 4))
    u = np.where(x[..., 2:] >= 0.0, P[..., 0, :], P[..., 1, :])
    return (u / np.sqrt(_dot(u, u))[..., None]).view(complex)


def _secular_point(beta: np.ndarray, gap: np.ndarray, root: np.ndarray) -> np.ndarray:
    """z_i = beta_i / (delta + gap_i) at the root delta of |z| = 1, per problem.

    beta, gap have shape (..., 3) with gap >= 0 and gap[..., 2] = 0 (the top
    eigenvalue); root is sqrt(max(1 - rest2, 0)) for rest2 = |z(0)|^2
    without the top eigenspace's terms, the hard case's stationary part.
    Newton runs on 1/|z(delta)| - 1, which is increasing and concave in
    delta (a power mean of exponent -2 of delta + gap), so a Newton step
    from any delta > 0 lands left of the root (Moré & Sorensen 1983).  delta
    is kept at least lo = max_k |beta[k:]| - gap[k], which is left of the
    root (gap is descending), so after the first step the iterates rise
    monotonically to it.  The first step starts from the root of |beta_3|^2
    / delta^2 + rest2 = 1, which holds the other terms at delta = 0: near
    the hard case, where Newton from lo creeps along the knee of 1/|z|, it
    is right to a few digits.  lo + gap_k >= |beta_k| keeps |z_k| <= 1.  A
    problem with |beta| <= _FLAT_RTOL (beta = 0 to rounding) is replaced by
    beta = e_3, whose point e_3 is the hard-case completion beta = 0 gets (a
    stack of only such problems returns e_3 at once).  The curvature of
    1/|z| is at most 3/delta times its slope, so a step s leaves at most 1.5
    s^2 / delta to go: a problem stops once |s| <= _SECULAR_RTOL * delta,
    with s taken, and its iterates do not depend on the problems stacked
    with it.  With no root (the hard case) delta stays at lo and z short of
    the unit sphere; the caller keeps the better of this point and the
    hard-case completion.
    """
    active = _dot(beta, beta) > _FLAT_RTOL**2
    if not active.any():
        return _E3 + np.zeros(beta.shape)
    beta = np.where(active[..., None], beta, _E3)
    tails = np.sqrt((beta * beta)[..., ::-1].cumsum(axis=-1)[..., ::-1])
    lo = np.maximum((tails - gap).max(axis=-1), _TINY)
    # the near-hard-case root (none if rest2 >= 1), kept within [lo, |beta|]:
    # |z(|beta|)| <= 1, so |beta| is not left of the root
    near_hard = np.divide(np.abs(beta[..., 2]), root, out=np.zeros(lo.shape), where=root > 0.0)
    delta = np.minimum(np.maximum(near_hard, lo), tails[..., 0])
    for _ in range(_SECULAR_ITERATIONS):
        shifted = delta[..., None] + gap
        z = beta / shifted
        if not active.any():
            break
        norm2 = _dot(z, z)
        step = norm2 * (np.sqrt(norm2) - 1.0) / _dot(z, z / shifted) * active
        moved = np.maximum(delta + step, lo)
        active = np.abs(moved - delta) > _SECULAR_RTOL * delta
        delta = moved
    return z


def _cp1_extremes(Rt: np.ndarray):
    """Exact extremes of Q(u) = Rt(u, ubar, u, ubar) on the unit sphere of C^2.

    Rt is a stack (..., 2, 2, 2, 2) of tensors in an orthonormal frame.
    Through the Hopf map u u* = (I + x . sigma) / 2, Q is the quadratic
    y^T K y with y = (1, x) on x in S^2, where K is the real symmetric form
    of Rt in the Pauli basis (one product with _HOPF_FORM): Q = c + b . x +
    x^T C x.  Its maximum is a trust-region boundary problem (Moré &
    Sorensen, SIAM J. Sci. Stat. Comput. 4, 1983): x = (lambda - C)^-1 b / 2
    with lambda >= the top eigenvalue of C, from the secular equation; in
    the hard case (b orthogonal to the top eigenspace, which may be
    degenerate) the stationary part off that eigenspace is completed to the
    unit sphere along a top eigenvector.  Both candidates are formed, Q is
    evaluated at each in C's eigenbasis, z = V^T x, as c + 2 beta . z +
    sum mu z^2 (beta = V^T b / 2, mu the eigenvalues), and the better one
    kept.  The minimum is the maximum for (-C, -b), stacked with it, so one
    batched eigh serves both.  The kept x is mapped back to u by the inverse
    Hopf map.  Returns (h_min, h_max, u_min, u_max).
    """
    lead = Rt.shape[:-4]
    # a product per tensor: one over the flattened stack would round differently
    K = Rt.reshape(lead + (1, 16)).view(float) @ _HOPF_FORM
    scale = np.maximum(np.maximum.reduce(np.abs(K), axis=-1), _TINY)
    unit = (K / scale[..., None]).reshape(lead + (4, 4))  # the same extremizers, O(1) entries
    mu, V = _eigh(unit[..., 1:, 1:])
    # axis -3: problem 0 maximizes Q, problem 1 maximizes -Q, whose
    # eigenvalues -mu, reversed by _PROBLEMS, keep the top one last
    Vt = V.swapaxes(-1, -2)[..., _PROBLEMS, :]  # rows: eigenvectors per problem
    mu = mu[..., _PROBLEMS] * _SIGN_ROWS
    beta = (Vt @ unit[..., None, 1:, :1])[..., 0] * _SIGN_ROWS  # V^T b / 2
    gap = mu[..., 2:] - mu

    # candidates z (..., problem, easy | hard, 3) in the eigenbasis: the secular
    # point, and the hard case's stationary part off the top eigenspace
    # completed along e_3
    rest = np.divide(beta, gap, out=np.zeros(beta.shape), where=gap > _TOP_EIGEN_RTOL)
    root = np.sqrt(np.maximum(1.0 - _dot(rest, rest), 0.0))
    z = np.empty(beta.shape[:-1] + (2, 3))
    z[..., 0, :] = _secular_point(beta, gap, root)
    z[..., 1, :] = rest
    z[..., 1, 2] = root
    z /= np.sqrt(_dot(z, z))[..., None]
    q = _dot(z, 2.0 * beta[..., None, :] + mu[..., None, :] * z)  # Q - c, per problem signed
    h = np.maximum.reduce(q, axis=-1) * (scale * _SIGNS) + K[..., 0, :1]
    z = np.where((q[..., 1] > q[..., 0])[..., None], z[..., 1, :], z[..., 0, :])
    u = _inverse_hopf((z[..., None, :] @ Vt)[..., 0, :])
    return h[..., 1], h[..., 0], u[..., 1, :], u[..., 0, :]


def _q_value(R: np.ndarray, u: np.ndarray) -> float:
    return float(np.einsum("ijkl,i,j,k,l", R, u, np.conj(u), u, np.conj(u)).real)


def _refine_direction(R: np.ndarray, u: np.ndarray, sign: float, steps: int) -> tuple:
    """Newton ascent of sign*Q on the unit sphere from u: at most steps steps,
    each kept only while it improves sign*Q by more than rounding (inside a
    basin about 3 reach rounding).  In a unitary frame F = (u, E), S = R in F,
    H(F (1, c)) = q + 4 Re(s.c) + 4 c^T A conj(c) + 2 Re(c^T B c) - 2 q |c|^2
    + O(c^3) with q = S_0000, s_a = S_a000, A_ab = S_ab00, B_ab = S_a0b0; it is
    stationary where (2 conj(A) - q) c + conj(B) conj(c) = -conj(s), solved
    with its conjugate by least squares, as it may be degenerate."""
    n = u.size
    u = u / np.linalg.norm(u)
    val = _q_value(R, u)
    for _ in range(steps):
        p = u[0] / abs(u[0]) if u[0] else 1.0  # F: p times the reflection of e_1 to u/p
        v = u + p * np.eye(n)[0]
        F = p * (np.outer(v, v.conj()) / (1.0 + abs(u[0])) - np.eye(n))  # F e_1 = u
        S = transform_tensor(R, F)
        q, s, A, B = S[0, 0, 0, 0].real, S[1:, 0, 0, 0], S[1:, 1:, 0, 0], S[1:, 0, 1:, 0]
        Ac = 2.0 * np.conj(A) - q * np.eye(n - 1)
        M = np.concatenate([np.hstack([Ac, np.conj(B)]), np.hstack([B, np.conj(Ac)])])
        rhs = -np.concatenate([np.conj(s), s])[:, None]
        c = _lstsq(M, rhs, np.finfo(float).eps * len(M))[0][: n - 1, 0]  # lstsq's rcond
        x = F @ np.concatenate([[1.0], c])
        x /= np.linalg.norm(x)
        xval = _q_value(R, x)
        if not sign * (xval - val) > 4.0 * np.finfo(float).eps * max(1.0, abs(val)):
            break
        u, val = x, xval
    return u, val


# -- n = 3: exact extremes on a pencil of lines through e_1 --------------------


@cache
def _pencil(count: int) -> tuple:
    """Bases (count, 3, 2) of the lines through e_1 and (0, v), v the inverse
    Hopf image of a Fibonacci lattice point of S^2, and each line's six
    nearest lattice neighbours."""
    k = np.arange(count) + 0.5
    z, phi = 1.0 - 2.0 * k / count, np.pi * (3.0 - np.sqrt(5.0)) * k
    x = np.stack([np.sqrt(1.0 - z * z) * np.cos(phi), np.sqrt(1.0 - z * z) * np.sin(phi), z], -1)
    P = np.zeros((count, 3, 2), dtype=complex)
    P[:, 0, 0] = 1.0
    P[:, 1:, 1] = _inverse_hopf(x)
    return P, np.array([np.argsort(x @ xj)[-7:-1] for xj in x])  # no count^2 temporary


def _pencil_extremes(Rt: np.ndarray) -> tuple:
    """(h_min, h_max, u_min, u_max) of n = 3 tensors in orthonormal frames.

    Every point of CP^2 lies on a line (a CP^1) through e_1.  Per tensor,
    one _cp1_extremes call gives the exact extremes of every _pencil line;
    the best lines and lattice peaks (other basins) start polishes, and the
    best polish is kept.  One tensor at a time, so memory stays bounded.
    """
    pencil, neighbours = _pencil(HSC_PENCIL_LINES)
    out = []
    for R in Rt.reshape((-1,) + Rt.shape[-4:]):
        lines = _cp1_extremes(transform_tensor(R, pencil))
        for k, sign in enumerate((-1.0, 1.0)):
            f = sign * lines[k]
            order = np.argsort(-f, kind="stable")
            rest = order[HSC_PENCIL_STARTS:]
            peaks = rest[f[rest] > np.max(f[neighbours[rest]], axis=1)]
            starts = np.concatenate([order[:HSC_PENCIL_STARTS], peaks[:HSC_PENCIL_STARTS]])
            polished = (_refine_direction(R, pencil[j] @ lines[k + 2][j], sign,
                                          HSC_REFINE_STEPS) for j in starts)
            out.append(max(polished, key=lambda p: sign * p[1]))
    u, h = (np.reshape(a, Rt.shape[:-4] + (2,) + np.shape(a[0])) for a in zip(*out))
    return h[..., 0], h[..., 1], u[..., 0, :], u[..., 1, :]


@dataclass(frozen=True)
class HscExtremes:
    """Extremal holomorphic sectional curvature at a point."""

    h_min: float
    h_max: float
    eta_min: np.ndarray
    eta_max: np.ndarray


def _extremes(R: np.ndarray, T: np.ndarray) -> list:
    """One HscExtremes per tensor of a stack R (m, n, n, n, n) with frames T = _frames(g).

    In these frames H is Q on the unit sphere: one direction,
    _cp1_extremes or _pencil_extremes at n = 1, 2, 3.
    """
    Rt, n = transform_tensor(R, T), T.shape[-1]
    if n == 1:
        h_min = h_max = Rt[:, 0, 0, 0, 0].real
        u_min = u_max = np.ones((len(T), 1))
    else:
        h_min, h_max, u_min, u_max = (_cp1_extremes if n == 2 else _pencil_extremes)(Rt)
    etas = (T @ u_min[..., None])[..., 0], (T @ u_max[..., None])[..., 0]
    return [HscExtremes(*e) for e in zip(h_min.tolist(), h_max.tolist(), *etas)]


def hsc_extremes_from_tensor(R: np.ndarray, g: np.ndarray, num_directions: int = None,
                             refine_steps: int = None) -> HscExtremes:
    """Extremize H over directions for one curvature tensor, a batch of one.

    In a g-orthonormal frame H = Q on the unit sphere.  n = 1 has one
    direction; n = 2 is exact, Q being a quadratic on S^2 through the Hopf
    map (_cp1_extremes); n = 3 polishes the best of these exact extremes on
    the lines of a pencil (_pencil_extremes): exact per line, but a scan
    over lines, not a certificate.  num_directions and refine_steps are not
    read."""
    return _extremes(np.asarray(R)[None], _frames(np.asarray(g)[None]))[0]


def hsc_extremes(field, point, num_directions: int = None,
                 refine_steps: int = None) -> HscExtremes:
    """HSC extremes of a field at a point: a sweep of one point (the budget
    arguments are accepted for old callers and not read)."""
    return sweep_hsc_extremes(field, [point])[0]


def default_sweep_points(field, max_points: int = 256):
    """Deterministic point sweep of a field.

    A torus field is swept at the grid multi-indices of its stride-2^k
    sublattice, the smallest power of two leaving at most max_points
    points; a chart field at a lattice of its trusted region.
    """
    if isinstance(field, TorusMetricField):
        grid = field.grid
        stride = 1
        while len(range(0, grid.N, stride)) ** (2 * grid.n) > max_points:
            stride *= 2
        return itertools.product(range(0, grid.N, stride), repeat=2 * grid.n)
    per_axis = 3 if field.n > 1 else 5
    return field.geometry.sample_points(per_axis=per_axis)


def _jet_extremes(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> list:
    """One HscExtremes per point of stacked jets (m, ...): one factorization of
    the metrics gives the frames and the assembly's inverse metric, the first
    point breaking the symmetries raises, and one kernel call extremizes all."""
    T = _frames(g)
    R = _assemble(T, dg, ddg)
    _check_symmetries(R)
    return _extremes(R, T)


def sweep_hsc_extremes(field, points=None, max_points: int = 256) -> list:
    """HSC extremes at every point of a sweep, one HscExtremes per point.

    points=None sweeps default_sweep_points(field, max_points).  The sweep
    is one batch: one jet_at query of the stacked points (grid
    multi-indices on a torus, chart points on a chart) through _jet_extremes.
    """
    points = list(default_sweep_points(field, max_points) if points is None else points)
    return _jet_extremes(*field.jet_at(points)) if points else []


def kappa_floor(field, points=None) -> float:
    """Uniform negativity floor kappa_0 = min over points of -sup_eta H.

    Positive only when H stays negative on the whole sweep; values <= 0
    mean downstream negativity-based bounds are not applicable.  With
    points=None a torus field is swept at no more than 256 grid points.
    An empty sweep certifies nothing and raises ValueError.
    """
    h_max = [ext.h_max for ext in sweep_hsc_extremes(field, points)]
    if not h_max:
        raise ValueError("kappa_floor needs at least one sweep point")
    return float(-max(h_max))
