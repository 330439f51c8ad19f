"""Pointwise Hermitian algebra for metric pairs, batched over fields.

Every (1,1)-form is represented by its Hermitian coefficient matrix in a
fixed holomorphic frame; the flat form is the identity.  All comparisons
between two metrics g, g' reduce to the relative eigenvalues of g^{-1}g',
their elementary symmetric functions sigma_k, and the reverse trace
S = tr_{g'} g.  Each function takes fields of shape (..., n, n) or
eigenvalue tuples (..., n); a single matrix or tuple is a batch of one.
This module also holds the one positive-definiteness policy (PD_RTOL,
positivity) that every metric field and solver candidate is held to, and
the batched det / inv / eigvalsh that the solver and the diagnostics use:
closed forms for n <= 2, LAPACK (numpy.linalg) for n = 3.
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
        p, q, b = a[..., 0, 0].real, a[..., 1, 1].real, np.abs(a[..., 1, 0])
        tr = p + q
        far = np.copysign(0.5 * (np.abs(tr) + np.hypot(p - q, 2.0 * b)), tr)
        with np.errstate(invalid="ignore", divide="ignore"):
            near = np.where(far != 0.0, (p * q - b * b) / far, 0.0)
        return np.stack([np.minimum(far, near), np.maximum(far, near)], axis=-1)
    return np.linalg.eigvalsh(a)


def positivity(g: np.ndarray):
    """Positive-definiteness check of a Hermitian matrix or field (..., n, n).

    Returns (ok, worst, w): whether every point passes (smallest eigenvalue
    > PD_RTOL * largest, largest > 0), the index of the point with the
    smallest margin (() for a single matrix), and its ascending eigenvalues.
    """
    w = eigvalsh(g)
    ratio = w[..., 0] - PD_RTOL * np.maximum(w[..., -1], 0.0)
    worst = np.unravel_index(ratio.argmin(), ratio.shape)
    w_worst = w[worst]
    ok = bool(ratio[worst] > 0.0 and w_worst[-1] > 0.0)
    return ok, worst, w_worst


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
