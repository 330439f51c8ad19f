"""Pointwise Hermitian algebra for metric pairs, batched over fields.

Every (1,1)-form is represented by its Hermitian coefficient matrix in a
fixed holomorphic frame; the flat form is the identity.  All comparisons
between two metrics g, g' reduce to the relative eigenvalues of g^{-1}g',
their elementary symmetric functions sigma_k, and the reverse trace
S = tr_{g'} g.  Each function takes fields of shape (..., n, n) or
eigenvalue tuples (..., n); a single matrix or tuple is a batch of one.
The batched det / inv / eigvalsh that the diagnostics use are closed forms
for n <= 2 and LAPACK (numpy.linalg) for n = 3.

This module also owns the real component layout of a Hermitian field,
(n*n, ...) with row i*n + i its diagonal entry i and, for i < j, rows
i*n + j and j*n + i the real and imaginary parts of entry (i, j) (the
layout of TorusGrid.hessian_components), with `components` and
`hermitian` converting between the two, and the component kernels the
Monge-Ampere solver runs on: component_det, and trace_weights, the
cofactor inverse as the real weights of tr(M^{-1} H), both closed forms
through n = 3.  The one positive-definiteness policy (PD_RTOL) is
component_positivity; positivity applies it to a Hermitian field.  At
n <= 2 it reads only the trace and the determinant, and eigenvalues are
taken at the worst point alone, for the report.
Dimensions are capped at n = 3 (MAX_DIM): everything downstream (subset
expansions of mixed determinants, explicit e_k formulas) relies on that cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

MAX_DIM = 3

# Relative positive-definiteness threshold: at every point the smallest
# eigenvalue must exceed this multiple of the largest.  Scale-invariant, so
# metrics of any overall size are treated alike.
PD_RTOL = 1e-10


def _order(a: np.ndarray) -> int:
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected (..., n, n) matrices, got shape {a.shape}")
    return a.shape[-1]


def det(a: np.ndarray) -> np.ndarray:
    """Determinants of (..., n, n) matrices, Hermitian or not."""
    a = np.asarray(a)
    n = _order(a)
    if n == 1:
        return a[..., 0, 0].copy()
    if n == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return np.linalg.det(a)


def inv(a: np.ndarray) -> np.ndarray:
    """Inverses of nonsingular (..., n, n) matrices."""
    a = np.asarray(a)
    n = _order(a)
    if n == 1:
        return 1.0 / a
    if n == 2:
        r = 1.0 / det(a)
        out = np.empty(a.shape, dtype=r.dtype)
        out[..., 0, 0] = a[..., 1, 1] * r
        out[..., 1, 1] = a[..., 0, 0] * r
        out[..., 0, 1] = -a[..., 0, 1] * r
        out[..., 1, 0] = -a[..., 1, 0] * r
        return out
    return np.linalg.inv(a)


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., n) of Hermitian (..., n, n) matrices.

    Reads the diagonal and the lower triangle, as numpy.linalg.eigvalsh
    does.  For n = 2 with diagonal (a, d) and off-diagonal b, the
    eigenvalue of larger magnitude is (tr + s sqrt((a - d)^2 + 4|b|^2))/2
    with s the sign of the trace, a sum without cancellation, and the other
    is det divided by it, so a small eigenvalue keeps its accuracy.
    """
    a = np.asarray(a)
    n = _order(a)
    if n == 1:
        return a[..., :, 0].real.copy()
    if n == 2:
        return _eigvalsh2(a[..., 0, 0].real, a[..., 1, 1].real, np.abs(a[..., 1, 0]))
    return np.linalg.eigvalsh(a)


def _eigvalsh2(p, q, b):
    """Ascending eigenvalues (..., 2) of [[p, b], [b, q]], b = |off-diagonal|."""
    tr = p + q
    far = np.copysign(0.5 * (np.abs(tr) + np.hypot(p - q, 2.0 * b)), tr)
    w = np.zeros(np.shape(far) + (2,))
    near = np.divide(p * q - b * b, far, out=w[..., 0], where=far != 0.0)
    np.maximum(far, near, out=w[..., 1])
    np.minimum(far, near, out=w[..., 0])
    return w


def positivity(g: np.ndarray):
    """Positive-definiteness check of a Hermitian matrix or field (..., n, n):
    component_positivity of its components."""
    return component_positivity(components(g))


# -- the real component layout and its kernels -----------------------------------


def _component_order(c: np.ndarray) -> int:
    n = math.isqrt(c.shape[0]) if c.ndim else 0
    if not 1 <= n <= MAX_DIM or n * n != c.shape[0]:
        raise DimensionMismatch(f"expected (n*n, ...) components, n <= {MAX_DIM}, "
                                f"got shape {c.shape}")
    return n


def components(a: np.ndarray) -> np.ndarray:
    """The real components (n*n, ...) of Hermitian (..., n, n) matrices.

    Reads the diagonal and the lower triangle, as eigvalsh does: row
    i*n + i is Re a_ii, and for i < j row i*n + j is Re a_ji and row
    j*n + i is -Im a_ji, the real and imaginary parts of a_ij.
    """
    a = np.asarray(a)
    n = _order(a)
    re, im = a.real, a.imag
    c = np.empty((n * n,) + a.shape[:-2])
    for i in range(n):
        c[i * n + i] = re[..., i, i]
        for j in range(i + 1, n):
            c[i * n + j] = re[..., j, i]
            c[j * n + i] = -im[..., j, i]
    return c


def hermitian(c: np.ndarray) -> np.ndarray:
    """The Hermitian (..., n, n) field with components c (n*n, ...)."""
    c = np.asarray(c)
    n = _component_order(c)
    H = np.empty(c.shape[1:] + (n, n), dtype=complex)
    Hr, Hi = H.real, H.imag
    for i in range(n):
        Hr[..., i, i] = c[i * n + i]
        Hi[..., i, i] = 0.0
        for j in range(i + 1, n):
            Hr[..., i, j] = Hr[..., j, i] = c[i * n + j]
            Hi[..., i, j] = c[j * n + i]
            np.negative(c[j * n + i], out=Hi[..., j, i])
    return H


def component_det(c: np.ndarray) -> np.ndarray:
    """det M of the Hermitian field M with components c, a real field."""
    c = np.asarray(c)
    n = _component_order(c)
    if n == 1:
        return c[0]
    if n == 2:
        return c[0] * c[3] - (c[1] * c[1] + c[2] * c[2])
    # diagonal a, b, d; off-diagonal M01 = x1 + i y1, M02 = x2 + i y2, M12 = x3 + i y3
    a, b, d = c[0], c[4], c[8]
    x1, y1, x2, y2, x3, y3 = c[1], c[3], c[2], c[6], c[5], c[7]
    re_triple = (x1 * x3 - y1 * y3) * x2 + (x1 * y3 + y1 * x3) * y2  # Re M01 M12 conj(M02)
    return (a * (b * d - (x3 * x3 + y3 * y3)) - b * (x2 * x2 + y2 * y2)
            - d * (x1 * x1 + y1 * y1) + 2.0 * re_triple)


def trace_weights(c: np.ndarray) -> np.ndarray:
    """Real weights w (n*n, ...) with sum_k w[k] h[k] = tr(M^{-1} H).

    M is the Hermitian field with components c, H any Hermitian field, with
    components h.  M^{-1} = adj M / det M by cofactors; w holds the
    components of M^{-1}, doubled off the diagonal, since tr(M^{-1} H) sums
    M^{-1}_ij H_ji over both triangles.
    """
    c = np.asarray(c)
    n = _component_order(c)
    r = 1.0 / component_det(c)
    w = np.empty(c.shape)
    if n == 1:
        w[0] = r
    elif n == 2:
        w[0], w[3] = c[3] * r, c[0] * r
        r2 = -2.0 * r
        w[1], w[2] = c[1] * r2, c[2] * r2
    else:
        a, b, dd = c[0], c[4], c[8]
        x1, y1, x2, y2, x3, y3 = c[1], c[3], c[2], c[6], c[5], c[7]
        w[0] = (b * dd - (x3 * x3 + y3 * y3)) * r
        w[4] = (a * dd - (x2 * x2 + y2 * y2)) * r
        w[8] = (a * b - (x1 * x1 + y1 * y1)) * r
        r2 = 2.0 * r
        w[1] = (x2 * x3 + y2 * y3 - dd * x1) * r2  # adj01 = M02 conj(M12) - d M01
        w[3] = (y2 * x3 - x2 * y3 - dd * y1) * r2
        w[2] = (x1 * x3 - y1 * y3 - b * x2) * r2  # adj02 = M01 M12 - b M02
        w[6] = (x1 * y3 + y1 * x3 - b * y2) * r2
        w[5] = (x1 * x2 + y1 * y2 - a * x3) * r2  # adj12 = M02 conj(M01) - a M12
        w[7] = (x1 * y2 - x2 * y1 - a * y3) * r2
    return w


def component_positivity(c: np.ndarray):
    """The positive-definiteness policy on a Hermitian matrix or field given by
    its components c (n*n, ...): at every point the smallest eigenvalue must
    exceed PD_RTOL times the largest, and the largest must be positive.

    Returns (ok, worst, w): whether every point passes, the index of the point
    with the smallest margin (() for a single matrix), and its ascending
    eigenvalues.  For n = 1 the margin is the entry itself.  For n = 2, with
    r = PD_RTOL, it is det (1 + r)^2 - r tr^2 = (l_min - r l_max)(l_max - r l_min)
    where tr > 0 and -inf elsewhere, so no eigenvalue is taken but the worst
    point's.  For n = 3 it is l_min - r max(l_max, 0), the eigenvalues by
    LAPACK on the assembled Hermitian field.
    """
    c = np.asarray(c, dtype=float)
    n = _component_order(c)
    if n == 3:
        w = np.linalg.eigvalsh(hermitian(c))
        margin = w[..., 0] - PD_RTOL * np.maximum(w[..., -1], 0.0)
        worst = np.unravel_index(margin.argmin(), margin.shape)
        w_worst = w[worst]
        return bool(margin[worst] > 0.0 and w_worst[-1] > 0.0), worst, w_worst
    if n == 1:
        margin = c[0]
    else:
        tr = c[0] + c[3]
        margin = component_det(c) * (1.0 + PD_RTOL) ** 2 - PD_RTOL * (tr * tr)
        margin = np.where(tr > 0.0, margin, -np.inf)
    worst = np.unravel_index(margin.argmin(), margin.shape)
    at = c[(slice(None),) + worst]
    w_worst = (at.copy() if n == 1
               else _eigvalsh2(at[0], at[3], np.hypot(at[1], at[2])))
    return bool(margin[worst] > 0.0), worst, w_worst


@dataclass(frozen=True)
class Direction:
    """A nonzero holomorphic tangent vector."""

    eta: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.eta, dtype=complex).reshape(-1)
        if v.size < 1 or v.size > MAX_DIM:
            raise DimensionMismatch(f"direction length {v.size} outside 1..{MAX_DIM}")
        if not np.any(v):
            raise ValueError("direction must be nonzero")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "eta", v)

    @property
    def n(self) -> int:
        return self.eta.size


def elementary_symmetric_field(lam: np.ndarray) -> np.ndarray:
    """Batched e_k for eigenvalue arrays of shape (..., n); returns (..., n+1)."""
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    out = np.empty(lam.shape[:-1] + (n + 1,), dtype=float)
    out[..., 0] = 1.0
    if n == 1:
        out[..., 1] = lam[..., 0]
    elif n == 2:
        out[..., 1] = lam[..., 0] + lam[..., 1]
        out[..., 2] = lam[..., 0] * lam[..., 1]
    elif n == 3:
        s1 = lam.sum(axis=-1)
        s2 = (lam**2).sum(axis=-1)
        out[..., 1] = s1
        out[..., 2] = (s1**2 - s2) / 2.0
        out[..., 3] = lam[..., 0] * lam[..., 1] * lam[..., 2]
    else:
        raise DimensionMismatch(f"dimension {n} outside supported range 1..{MAX_DIM}")
    return out


def inverse_cholesky(g: np.ndarray) -> np.ndarray:
    """L^{-1} for g = L L^* (Cholesky) over (..., n, n); numpy.linalg.LinAlgError
    if g is not positive definite.  For n <= 2 the closed form [[p, 0], [m, q]],
    p = 1/sqrt(g00), l10 = g10 p, q = 1/sqrt(g11 - |l10|^2), m = -l10 p q."""
    g = np.asarray(g, dtype=complex)
    n = _order(g)
    if n == 3:
        return np.linalg.inv(np.linalg.cholesky(g))
    a00 = g[..., 0, 0].real
    if not (a00 > 0.0).all():
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    Li = np.zeros(g.shape, dtype=complex)
    Li[..., 0, 0] = p = 1.0 / np.sqrt(a00)
    if n == 2:
        l10 = g[..., 1, 0] * p
        schur = g[..., 1, 1].real - (l10.real**2 + l10.imag**2)
        if not (schur > 0.0).all():
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        Li[..., 1, 1] = q = 1.0 / np.sqrt(schur)
        Li[..., 1, 0] = -l10 * (p * q)
    return Li


def relative_eigenvalues_field(gA: np.ndarray, gB: np.ndarray) -> np.ndarray:
    """Eigenvalues of gA^{-1} gB, ascending, for fields of shape (..., n, n).

    All positive for a positive-definite pair.  The Hermitian eigenvalues
    of C = L^{-1} gB L^{-*} with L^{-1} = inverse_cholesky(gA); for n <= 2
    C is formed entry by entry from L^{-1} = [[p, 0], [m, q]].
    """
    gB = np.asarray(gB, dtype=complex)
    if np.shape(gA) != gB.shape:
        raise DimensionMismatch(f"field shapes differ: {np.shape(gA)} vs {gB.shape}")
    Li = inverse_cholesky(gA)
    if gB.shape[-1] == 3:
        return np.linalg.eigvalsh(Li @ gB @ np.conj(np.swapaxes(Li, -1, -2)))
    p = Li[..., 0, 0].real
    C = np.empty(gB.shape, dtype=complex)
    C[..., 0, 0] = p * p * gB[..., 0, 0].real
    if gB.shape[-1] == 2:
        m, q = Li[..., 1, 0], Li[..., 1, 1].real
        C[..., 1, 0] = p * (m * gB[..., 0, 0].real + q * gB[..., 1, 0])
        C[..., 1, 1] = ((m.real**2 + m.imag**2) * gB[..., 0, 0].real
                        + 2.0 * q * (m * gB[..., 0, 1]).real + q * q * gB[..., 1, 1].real)
    return eigvalsh(C)


def newton_maclaurin_margin_field(lam: np.ndarray, k: int) -> np.ndarray:
    """Margin of the Newton-MacLaurin chain between levels n and k.

    Over eigenvalue tuples (..., n) returns
    sigma_n^{1/n} - (sigma_n / (sigma_k/binom(n,k)))^{1/(n-k)}, which is >= 0
    for positive tuples, with equality exactly at equal eigenvalues.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.shape[-1]
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must satisfy 1 <= k <= n-1 = {n - 1}, got {k}")
    e = elementary_symmetric_field(lam)
    lhs = e[..., n] ** (1.0 / n)
    rhs = (e[..., n] * math.comb(n, k) / e[..., k]) ** (1.0 / (n - k))
    return lhs - rhs


def trace_s_field(g: np.ndarray, g_prime: np.ndarray) -> np.ndarray:
    """Reverse trace S = tr_{g'} g for fields of shape (..., n, n).

    Equals the sum of 1/lambda over the relative eigenvalues lambda of
    (g, g'), i.e. sigma_{n-1}/sigma_n.
    """
    g = np.asarray(g, dtype=complex)
    g_prime = np.asarray(g_prime, dtype=complex)
    if g.shape != g_prime.shape:
        raise DimensionMismatch(f"field shapes differ: {g.shape} vs {g_prime.shape}")
    return np.einsum("...ij,...ji->...", inv(g_prime), g).real
