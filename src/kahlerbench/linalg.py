"""Pointwise Hermitian algebra for metric pairs, batched over fields.

Every (1,1)-form is represented by its Hermitian coefficient matrix in a
fixed holomorphic frame; the flat form is the identity.  All comparisons
between two metrics g, g' reduce to the relative eigenvalues of g^{-1}g',
their elementary symmetric functions sigma_k, and the reverse trace
S = tr_{g'} g.  A grid field is its real components (n*n, ...), row i*n + i
diagonal entry i and, for i < j, rows i*n + j and j*n + i the real and
imaginary parts of entry (i, j) (TorusGrid.hessian_components' layout), and
every function over fields takes them; Hermitian (..., n, n) matrices are
the layout of point queries (jets, frames), which inv and inverse_cholesky
take.  A single matrix or tuple is a batch of one.  Determinants, inverses
and traces have one implementation, closed-form kernels through n = 3 on
components (component_det; adjugate, which component_inverse, trace_weights
and integrals' mixed_determinants read; trace_pairing); `components` and
`hermitian` convert.  component_eigvalsh takes every Hermitian eigenvalue,
by LAPACK at n = 3 only.  The one positive-definiteness policy (PD_RTOL) is
component_positivity, on components: Sylvester's criterion on
A - PD_RTOL tr(A) I, from component_det of its leading blocks at every n,
with eigenvalues taken only at the worst point of a field that fails, for
the report.  require_positive is the one place that raises PositivityLoss
for it: every metric the program holds to the policy goes through it.
Dimensions are capped at n = 3 (MAX_DIM), which the closed forms rely on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DimensionMismatch, PositivityLoss

MAX_DIM = 3

# Relative positive-definiteness threshold: at every point the smallest
# eigenvalue must exceed this multiple of the trace.  Scale-invariant, so
# metrics of any overall size are treated alike.
PD_RTOL = 1e-10

SLAB_POINTS = 2**14  # points per slab of a field streamed through a transform or LAPACK


def inv(a: np.ndarray) -> np.ndarray:
    """Inverses of nonsingular Hermitian (..., n, n) matrices."""
    return hermitian(component_inverse(components(a)))


# -- the real component layout and its kernels -----------------------------------


def _component_order(c) -> int:
    shape = (len(c),) if isinstance(c, list) else c.shape  # a list of rows, or an array
    n = math.isqrt(shape[0]) if shape else 0
    if not 1 <= n <= MAX_DIM or n * n != shape[0]:
        raise DimensionMismatch(f"expected (n*n, ...) components, n <= {MAX_DIM}, "
                                f"got shape {shape}")
    return n


@cache
def _layout(n: int) -> tuple:
    """(source, sign) rows of the strided copies: the components among a
    matrix's floats (Re, Im per entry), and the floats among its components."""
    pairs = list(itertools.product(range(n), repeat=2))
    to = [(2 * max(i * n + j, j * n + i) + (i > j), -1.0 if i > j else 1.0) for i, j in pairs]
    frm = [(k, sign) for i, j in pairs for k, sign in
           ((min(i, j) * n + max(i, j), 1.0), (max(i, j) * n + min(i, j), np.sign(j - i)))]
    return tuple((np.array(src), np.array(sign)[:, None]) for src, sign in (zip(*to), zip(*frm)))


def _signed(rows: np.ndarray, sign: np.ndarray, source: np.ndarray) -> np.ndarray:
    """rows (k, P) times their signs (k, 1) plus 0.0, so every zero is +0.0,
    with column p all NaN where column p of source (one matrix) is not finite."""
    rows *= sign
    rows += 0.0
    if not math.isfinite(source.sum()):
        rows[:, ~np.isfinite(source).all(axis=0)] = np.nan
    return rows


def components(a: np.ndarray) -> np.ndarray:
    """The real components (n*n, ...) of Hermitian (..., n, n) matrices.

    Reads the diagonal and the lower triangle, as LAPACK's eigvalsh does: row
    i*n + i is Re a_ii, and for i < j row i*n + j is Re a_ji and row
    j*n + i is -Im a_ji, the real and imaginary parts of a_ij.  A strided
    copy, no matrix product: zeros are +0.0, and a matrix with a non-finite
    entry anywhere, the upper triangle too, has NaN components.
    """
    a = np.ascontiguousarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected (..., n, n) matrices, got shape {a.shape}")
    n = a.shape[-1]
    floats = a.reshape(-1, n * n).view(float).T
    (source, sign), _ = _layout(n)
    return _signed(floats[source], sign, floats).reshape((n * n,) + a.shape[:-2])


def hermitian(c: np.ndarray) -> np.ndarray:
    """The Hermitian (..., n, n) field with components c (n*n, ...), by strided
    copies as in components: zeros +0.0, NaN where a component is not finite."""
    c = np.asarray(c, dtype=float)
    n = _component_order(c)
    flat = c.reshape(n * n, -1)
    _, (source, sign) = _layout(n)
    H = np.ascontiguousarray(_signed(flat[source], sign, flat).T)
    return H.view(complex).reshape(c.shape[1:] + (n, n))


def component_det(c) -> np.ndarray:
    """det M of the Hermitian field M with components c, a real field; a list
    of the n*n component rows (fields, or series) is read as it is, unstacked."""
    c = c if isinstance(c, list) else np.asarray(c)
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


def adjugate(c: np.ndarray) -> np.ndarray:
    """Components (n*n, ...) of adj M, M the Hermitian field with components c:
    the cofactor matrix, Hermitian again, with M adj M = det M I."""
    c = np.asarray(c, dtype=float)
    n = _component_order(c)
    if n == 1:
        return np.ones(c.shape)
    if n == 2:  # [[a, z], [conj z, d]] -> [[d, -z], [-conj z, a]]
        adj = -c
        adj[0], adj[3] = c[3], c[0]
        return adj
    a, b, d = c[0], c[4], c[8]  # named as in component_det
    x1, y1, x2, y2, x3, y3 = c[1], c[3], c[2], c[6], c[5], c[7]
    adj = np.empty(c.shape)
    adj[0] = b * d - (x3 * x3 + y3 * y3)
    adj[4] = a * d - (x2 * x2 + y2 * y2)
    adj[8] = a * b - (x1 * x1 + y1 * y1)
    adj[1] = x2 * x3 + y2 * y3 - d * x1  # adj01 = M02 conj(M12) - d M01
    adj[3] = y2 * x3 - x2 * y3 - d * y1
    adj[2] = x1 * x3 - y1 * y3 - b * x2  # adj02 = M01 M12 - b M02
    adj[6] = x1 * y3 + y1 * x3 - b * y2
    adj[5] = x1 * x2 + y1 * y2 - a * x3  # adj12 = M02 conj(M01) - a M12
    adj[7] = x1 * y2 - x2 * y1 - a * y3
    return adj


def component_inverse(c: np.ndarray) -> np.ndarray:
    """Components of M^{-1} = adj M / det M, M the Hermitian field with components c."""
    return adjugate(c) / component_det(c)


def component_pair(a, b) -> tuple:
    """(a, b, n) for two fields' components (n*n, ...) of one shape, as floats;
    complex input (Hermitian matrices, a point query's layout) raises DimensionMismatch."""
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        raise DimensionMismatch("fields are real components (n*n, ...), got a complex array")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"field shapes differ: {a.shape} vs {b.shape}")
    return a, b, _component_order(b)


def _doubled(w: np.ndarray) -> np.ndarray:
    """P's components w (n*n, ...) with the off-diagonal rows doubled in place:
    sum_k w[k] q[k] = tr(P Q), as tr(P Q) sums P_ij Q_ji over both triangles."""
    n = _component_order(w)
    for k in range(0, n * n - 1, n + 1):  # the n rows between diagonal rows k and k + n + 1
        w[k + 1:k + n + 1] *= 2.0
    return w


def trace_pairing(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """tr(P Q) of Hermitian fields P, Q given by their components (n*n, ...)."""
    return np.einsum("k...,k...->...", _doubled(np.array(p, dtype=float)), q)


def trace_weights(c: np.ndarray) -> np.ndarray:
    """Real weights w (n*n, ...) with sum_k w[k] h[k] = tr(M^{-1} H), M, H the Hermitian
    fields with components c, h: adj M / det M, off-diagonal rows doubled, in one array."""
    w = adjugate(c)
    return _doubled(np.divide(w, component_det(c), out=w))


def component_eigvalsh(c: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (..., n) of the Hermitian matrix or field with
    components c (n*n, ...), the one route to a Hermitian eigenvalue.

    For n = 2, diagonal (p, q) and off-diagonal b (|b| numpy's complex
    abs), the eigenvalue of larger magnitude is (tr + s sqrt((p - q)^2 +
    4|b|^2))/2, s the sign of the trace, a sum without cancellation, and the
    other is det divided by it, so a small eigenvalue keeps its accuracy.
    For n = 3 they are LAPACK's, on one slab of SLAB_POINTS assembled
    matrices at a time, so no complex field is built.
    """
    c = np.asarray(c, dtype=float)
    n = _component_order(c)
    w = np.empty(c.shape[1:] + (n,))
    if n == 1:
        w[..., 0] = c[0]
    elif n == 2:
        p, q, b = c[0], c[3], np.abs(c[1] + 1j * c[2])
        tr = p + q
        far = np.copysign(0.5 * (abs(tr) + np.hypot(p - q, 2.0 * b)), tr)
        near = (p * q - b * b) / (far + (far == 0.0))  # far = 0 only where p = q = b = 0
        np.minimum(far, near, out=w[..., 0])
        np.maximum(far, near, out=w[..., 1])
    else:
        flat, rows = c.reshape(n * n, -1), w.reshape(-1, n)
        for s in range(0, flat.shape[1], SLAB_POINTS):
            rows[s:s + SLAB_POINTS] = np.linalg.eigvalsh(hermitian(flat[:, s:s + SLAB_POINTS]))
    return w


def component_positivity(c: np.ndarray):
    """The positive-definiteness policy on a Hermitian matrix or field A given
    by its components c (n*n, ...): at every point the smallest eigenvalue
    must exceed PD_RTOL times the trace (so it is positive), that is,
    S = A - PD_RTOL tr(A) I must be positive definite: by Sylvester's
    criterion, the component_det of each leading k x k block of S must be
    positive, and the margin is the least of them.  Returns (ok, worst, w):
    whether every point passes, the point with the smallest margin (() for a
    single matrix), and that point's ascending eigenvalues
    (component_eigvalsh) for a field that fails, None for one that passes.
    """
    c = np.asarray(c, dtype=float)
    n = _component_order(c)
    shift = PD_RTOL * c[:: n + 1].sum(axis=0)
    s = [c[r] - shift if r % (n + 1) == 0 else c[r] for r in range(n * n)]  # S's rows
    margin = component_det(s)
    for k in range(1, n):  # the leading k x k block: rows i*n + j of S, i, j < k
        block = [s[i * n + j] for i in range(k) for j in range(k)]
        margin = np.minimum(margin, component_det(block))
    worst = np.unravel_index(margin.argmin(), margin.shape)
    ok = bool(margin[worst] > 0.0)
    return ok, worst, None if ok else component_eigvalsh(c[(slice(None),) + worst])


def require_positive(c: np.ndarray, what: str, points=None) -> None:
    """Hold the Hermitian matrix or field with components c (n*n, ...) to
    component_positivity, or raise PositivityLoss naming `what`, with its
    worst point and that point's smallest eigenvalue.  The point is the
    worst index as plain ints (() for a single matrix), or points[worst]
    as a tuple when the stack of points the field was taken at is given."""
    ok, worst, w = component_positivity(c)
    if not ok:
        point = tuple(int(i) for i in worst) if points is None else tuple(points[worst].tolist())
        raise PositivityLoss(f"{what} not positive definite at {point}: eigenvalues {w}",
                             point=point, min_eigenvalue=float(w[0]))


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


def _cholesky_entries(a: np.ndarray, g10=None, g11=None) -> tuple:
    """(p, m, q), L^{-1} = [[p, 0], [m, q]] for g = L L^*, from g00 = a and, at n = 2, g10
    (complex) and g11 (m = q = None at n = 1): p = 1/sqrt(a), q = a / sqrt(a d) = 1/sqrt(d/a)
    with d = det g, m = -g10 / sqrt(a d); numpy.linalg.LinAlgError unless a, d > 0."""
    d = a if g10 is None else a * g11 - (g10 * g10.conj()).real
    if not (np.minimum(a, d) > 0.0).all():
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    if g10 is None:
        return 1.0 / np.sqrt(a), None, None
    root = np.sqrt(a * d)
    return 1.0 / np.sqrt(a), -g10 / root, a / root


def inverse_cholesky(g: np.ndarray) -> np.ndarray:
    """L^{-1} for g = L L^* (Cholesky) over Hermitian (..., n, n) matrices, LinAlgError
    if g is not positive definite: _cholesky_entries for n <= 2, and for n = 3
    LAPACK's L, inverted by forward substitution."""
    g = np.asarray(g, dtype=complex)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise DimensionMismatch(f"expected (..., n, n) matrices, got shape {g.shape}")
    n, Li = g.shape[-1], np.zeros(g.shape, dtype=complex)
    if n == 3:
        L = np.linalg.cholesky(g)
        for i in range(3):
            Li[..., i, i] = 1.0 / L[..., i, i].real
            for j in range(i):
                Li[..., i, j] = -(L[..., i, j:i] * Li[..., j:i, j]).sum(-1) * Li[..., i, i]
        return Li
    lower = (g[..., 1, 0], g[..., 1, 1].real) if n == 2 else ()
    Li[..., 0, 0], m, q = _cholesky_entries(g[..., 0, 0].real, *lower)
    if n == 2:
        Li[..., 1, 0], Li[..., 1, 1] = m, q
    return Li


def relative_eigenvalues_field(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues (..., n) of A^{-1} B, ascending, A, B the Hermitian fields
    with components a, b (n*n, ...); all positive for a positive-definite pair:
    component_eigvalsh of the components of C = L^{-1} B L^{-*} with
    A = L L^*; for n <= 2 formed entry by entry from L^{-1} = [[p, 0], [m, q]]
    (_cholesky_entries of a), and for n = 3 one slab of SLAB_POINTS points at a
    time, inverse_cholesky, C and its eigenvalues, so no complex field is built.
    """
    a, b, n = component_pair(a, b)
    if n == 3:
        A, B, w = a.reshape(9, -1), b.reshape(9, -1), np.empty(b.shape[1:] + (3,))
        for s in range(0, A.shape[1], SLAB_POINTS):
            slab = slice(s, s + SLAB_POINTS)
            Li = inverse_cholesky(hermitian(A[:, slab]))
            C = Li @ hermitian(B[:, slab]) @ np.conj(np.swapaxes(Li, -1, -2))
            w.reshape(-1, 3)[slab] = component_eigvalsh(components(C))
        return w
    p, m, q = _cholesky_entries(a[0], *((a[1] - 1j * a[2], a[3]) if n == 2 else ()))
    C = np.empty(b.shape)
    C[0] = p * p * b[0]
    if n == 2:
        b01 = b[1] + 1j * b[2]
        C10 = p * (m * b[0] + q * b01.conj())
        C[1], C[2] = C10.real, -C10.imag
        C[3] = (m.real**2 + m.imag**2) * b[0] + 2.0 * q * (m * b01).real + q * q * b[3]
    return component_eigvalsh(C)


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


def trace_s_field(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reverse trace S = tr_B A = tr(B^{-1} A) of the Hermitian fields A, B with
    components a, b (n*n, ...): the sum of 1/lambda over the relative
    eigenvalues lambda of (A, B), i.e. sigma_{n-1}/sigma_n."""
    a, b, _ = component_pair(a, b)
    return trace_pairing(component_inverse(b), a)
