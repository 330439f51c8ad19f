"""Geometry substrates: periodic torus grids with spectral calculus, and
analytic chart boxes.

Torus conventions.  Complex coordinates z^j = x^j + i y^j, each real
coordinate running over the unit interval [0, 1).  A grid of resolution N
stores samples on the lattice (k/N) in every real axis, so a scalar field
is an array of shape (N,) * (2n) with axis 2j holding x^j and axis 2j+1
holding y^j.  Derivatives are spectral: a field is expanded in
exp(2*pi*i k.x) and the multipliers

    d/dz^j   ->  pi * (k_y + i k_x)
    d/dzbar^j -> pi * (i k_x - k_y)

act on the coefficients.  Nyquist wavenumbers are zeroed inside derivative
multipliers so odd derivatives of real fields stay real.

Every derivative acts on the half spectrum of a real-input transform
(rfftn, last axis cut to N//2 + 1 bins): the spectrum of a real field is
Hermitian symmetric, and so is its product with a real multiplier even in
the wavenumber, or with i times one that is odd.  So each derivative is a
set of real fields, each one inverse real transform (the real-input FFT
structure of Frigo & Johnson, Proc. IEEE 93, 2005).  The n^2 real
components of the complex Hessian are transformed one row at a time
(hessian_rows), so a caller that reduces over them, like the solver's
Krylov matvec, never holds all n^2; the distinct real components of its
third and fourth derivatives (the metric jets) come from one batched
inverse transform.  There is no complex-spectrum derivative route.  Grid
transfer (prolong/restrict) and the dealiased residual's fine transforms
pass through the band block of the coarser grid, pruned to the lines that
can hold its bins (Markel, IEEE Trans. Audio Electroacoust. 19, 1971) and
streamed over slabs of SLAB_POINTS fine points; they keep the axis order
and scaling of irfftn and rfftn, so each value they keep is the full one.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .errors import DimensionMismatch
from .linalg import MAX_DIM, SLAB_POINTS, hermitian


def _band_ifft(X: np.ndarray, axis: int, bins: np.ndarray) -> np.ndarray:
    """Unscaled inverse FFT along axis of the band X placed at bins, zeros between."""
    Z = np.zeros(X.shape[:axis] + (bins[-1] + 1,) + X.shape[axis + 1:], dtype=complex)
    Z[(slice(None),) * axis + (bins,)] = X
    return scipy.fft.ifft(Z, axis=axis, norm="forward", overwrite_x=True)


def _check_nested(coarse: "TorusGrid", fine: "TorusGrid") -> None:
    if fine.n != coarse.n or fine.N < coarse.N or fine.N % coarse.N != 0:
        raise DimensionMismatch(
            f"cannot transfer between {coarse.n}/{coarse.N} and {fine.n}/{fine.N}"
        )


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on an n-dimensional complex torus."""

    n: int
    N: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise DimensionMismatch(f"complex dimension {self.n} outside 1..{MAX_DIM}")
        if self.N < 8 or self.N % 2 != 0:
            raise ValueError(f"grid resolution must be even and >= 8, got {self.N}")

    @property
    def shape(self) -> tuple:
        return (self.N,) * (2 * self.n)

    @property
    def num_points(self) -> int:
        return self.N ** (2 * self.n)

    @cached_property
    def axis_coords(self) -> np.ndarray:
        return np.arange(self.N) / self.N

    @cached_property
    def _wavenumbers(self) -> np.ndarray:
        # Integer wavenumbers in FFT layout.
        return np.fft.fftfreq(self.N, d=1.0 / self.N)

    def _axis_view(self, arr: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * (2 * self.n)
        shape[axis] = arr.size
        return arr.reshape(shape)

    @cached_property
    def _half_wavenumbers(self) -> tuple:
        """Per-axis derivative wavenumbers of the rfftn half spectrum, each
        broadcastable along its axis; the Nyquist bin is zeroed and the last
        axis keeps its first N//2 + 1 bins."""
        k = self._wavenumbers.copy()
        k[self.N // 2] = 0.0  # Nyquist bin dropped from derivatives
        return self._on_half_axes(k)

    def _on_half_axes(self, k: np.ndarray) -> tuple:
        last = 2 * self.n - 1
        return tuple(self._axis_view(k[: self.N // 2 + 1] if axis == last else k, axis)
                     for axis in range(2 * self.n))

    @cached_property
    def hessian_multipliers(self) -> np.ndarray:
        """Real multipliers of the complex Hessian on the rfftn half spectrum.

        Shape (n*n,) + the half spectrum's shape (last axis N//2 + 1).

        d2/dz^i dzbar^j multiplies by pi^2 (k_yi + i k_xi)(i k_xj - k_yj).
        Row i*n + i holds the diagonal -pi^2 (k_xi^2 + k_yi^2); for i < j,
        row i*n + j holds the real part -pi^2 (k_xi k_xj + k_yi k_yj) of
        entry (i, j) and row j*n + i its imaginary part
        pi^2 (k_yi k_xj - k_xi k_yj).
        """
        return self._hessian_multipliers(self._half_wavenumbers)

    def _hessian_multipliers(self, k: tuple) -> np.ndarray:
        """The Hessian multipliers at per-axis wavenumbers k (broadcastable)."""
        n = self.n
        out = np.empty((n * n,) + np.broadcast_shapes(*(a.shape for a in k)))
        for i in range(n):
            kxi, kyi = k[2 * i], k[2 * i + 1]
            out[i * n + i] = -np.pi**2 * (kxi**2 + kyi**2)
            for j in range(i + 1, n):
                kxj, kyj = k[2 * j], k[2 * j + 1]
                out[i * n + j] = -np.pi**2 * (kxi * kxj + kyi * kyj)
                out[j * n + i] = np.pi**2 * (kyi * kxj - kxi * kyj)
        out.setflags(write=False)
        return out

    @cached_property
    def flat_laplacian_multiplier(self) -> np.ndarray:
        """Half-spectrum multiplier of the flat Laplacian sum_j d2/dz^j dzbar^j."""
        out = self.hessian_multipliers[:: self.n + 1].sum(axis=0)
        out.setflags(write=False)
        return out

    # -- transforms -------------------------------------------------------

    def rfft(self, f: np.ndarray) -> np.ndarray:
        """Half spectrum of a real field (scipy.fft.rfftn)."""
        f = np.asarray(f)
        if f.shape != self.shape:
            raise DimensionMismatch(f"field shape {f.shape} != grid shape {self.shape}")
        return scipy.fft.rfftn(f)

    def irfft(self, F: np.ndarray) -> np.ndarray:
        """Real field(s) from half spectra over the last 2n axes; leading axes batch."""
        return scipy.fft.irfftn(F, s=self.shape, axes=tuple(range(-2 * self.n, 0)),
                                overwrite_x=True)

    def hessian_components(self, f: np.ndarray) -> np.ndarray:
        """The n*n real components of the complex Hessian of a real field.

        Shape (n*n,) + grid shape, in linalg's component layout (rows as in
        hessian_multipliers): row i*n + i is H_ii, and for i < j row i*n + j
        is Re H_ij and row j*n + i is Im H_ij.
        """
        f = np.asarray(f)
        return self.hessian_of_spectrum(self.rfft(f - np.mean(f)))  # mean out for round-off

    def hessian_of_spectrum(self, F: np.ndarray) -> np.ndarray:
        """Hessian components of the real field whose half spectrum is F.

        The rows of hessian_rows(F), each written into one preallocated
        (n*n,) + grid shape output (at n = 1 the one row is the output, not
        copied); bit for bit the rows of one batched inverse transform of F
        times the multipliers.
        """
        rows = self.hessian_rows(F)
        if self.n == 1:
            return next(rows)[None]
        out = np.empty((self.n * self.n,) + self.shape)
        for r, row in enumerate(rows):
            out[r] = row
        return out

    def hessian_rows(self, F: np.ndarray):
        """The Hessian components of the real field whose half spectrum is F,
        one row at a time in hessian_multipliers' order: each is one inverse
        real transform of F times its multiplier row, written into one
        spectrum buffer that every row reuses (irfft may overwrite it)."""
        buf = np.empty(F.shape, dtype=complex)
        for m in self.hessian_multipliers:
            yield self.irfft(np.multiply(F, m, out=buf))

    def complex_hessian(self, f: np.ndarray) -> np.ndarray:
        """H[..., i, j] = d^2 f / dz^i dzbar^j of a real field: hessian_components as Hermitian."""
        return hermitian(self.hessian_components(f))

    def _fold(self, P: np.ndarray, stride: int) -> np.ndarray:
        """The (N/stride)^2n half spectrum (scaled as irfftn's) of irfftn(P) at
        stride stride.  irfftn keeps the real part of P's field with the bins
        0 < k < N/2 of the last axis doubled: that field's aliases summed
        (bin k onto k mod N/stride), their Hermitian part cut to its half."""
        N, d, M = self.N, 2 * self.n, self.N // stride
        A = P.reshape((stride, M) * (d - 1) + (N // 2 + 1,)).sum(axis=tuple(range(0, 2 * d - 2, 2)))
        Z = np.zeros(A.shape[:-1] + (N,), dtype=complex)
        Z[..., : N // 2 + 1] = A
        Z[..., 1 : N // 2] *= 2.0
        Z = Z.reshape(A.shape[:-1] + (stride, M)).sum(axis=-2)
        minus = np.ix_(*[-np.arange(M) % M] * d)
        return (Z + Z[minus].conj())[..., : M // 2 + 1] * (0.5 / stride**d)

    def hessian_jets(self, f: np.ndarray, stride: int = 1) -> tuple:
        """(T, Q), the third and fourth derivatives of the complex Hessian of a
        real field: T[..., i, j, k] = d/dz^k H_{i jbar} and
        Q[..., i, j, k, l] = d^2/dz^k dzbar^l H_{i jbar}, over the grid, or
        over its sublattice of a stride s dividing N: T and Q then have the
        leading shape (N/s,) * 2n, position m holding the jets at grid
        index s * m.

        T is symmetric in (i, k); Q is symmetric in (i, k) and in (j, l), and
        Q[i, j, k, l] = conj Q[j, i, l, k].  Only the distinct entries are
        transformed, each as two real fields (one for a real entry of Q):
        an entry's multiplier m is odd in the wavenumber for T, so the half
        spectrum times i Im m gives its real part and times -i Re m its
        imaginary part; for Q it is even, and Re m, Im m give them.  One
        rfftn and one batched irfftn make every part, plus a last part that
        is zero, the imaginary part of a real entry.  T and Q are then
        gathered from the parts, point-major, by one table of (real,
        imaginary) part rows per entry, so that each symmetry holds exactly;
        the imaginary parts of Q's conjugate partners change sign.  At a
        stride s > 1 each part's half spectrum is folded onto the
        sublattice's (_fold) as it is made, and the batched irfftn is the
        sublattice's, so no part is transformed over the whole grid.
        """
        if stride < 1 or self.N % stride:
            raise ValueError(f"stride {stride} does not divide the resolution {self.N}")
        n, kw, M = self.n, self._half_wavenumbers, self.N // stride
        F = self.rfft(np.asarray(f) - np.mean(f))  # mean out for round-off
        dz = [np.pi * (kw[2 * j + 1] + 1j * kw[2 * j]) for j in range(n)]
        dzbar = [np.pi * (1j * kw[2 * j] - kw[2 * j + 1]) for j in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        # per distinct entry: its indices, the indices of its conjugate
        # partner (none in T; None for a real entry of Q), and the d/dz and
        # d/dzbar directions of its multiplier
        entries = [({(i, j, k), (k, j, i)}, (), (i, k), (j,))
                   for i, k in pairs for j in range(n)]
        for s, (i, k) in enumerate(pairs):
            for j, l in pairs[s:]:
                idx = {(a, b, c, d) for a, c in ((i, k), (k, i)) for b, d in ((j, l), (l, j))}
                conj = None if (j, l) == (i, k) else [(b, a, d, c) for a, b, c, d in idx]
                entries.append((idx, conj, (i, k), (j, l)))
        zero = sum(1 if e[1] is None else 2 for e in entries)
        spectra = np.empty((zero + 1,) + (M,) * (2 * n - 1) + (M // 2 + 1,), dtype=complex)
        spectra[zero] = 0.0
        table = {3: np.empty((n,) * 3 + (2,), dtype=np.intp),
                 4: np.empty((n,) * 4 + (2,), dtype=np.intp)}
        sign = np.ones((n,) * 4 + (2,))
        row = 0
        for idx, conj, hol, anti in entries:
            m = math.prod([dz[a] for a in hol] + [dzbar[b] for b in anti])
            if len(anti) == 1:  # an entry of T
                mults = (1j * m.imag, -1j * m.real)
            else:
                mults = (m.real,) if conj is None else (m.real, m.imag)
            for r, mult in enumerate(mults):
                if stride == 1:
                    np.multiply(F, mult, out=spectra[row + r])
                else:
                    spectra[row + r] = self._fold(F * mult, stride)
            re_im = (row, row + 1 if len(mults) == 2 else zero)
            for e in idx:
                table[len(e)][e] = re_im
            for e in conj or ():
                table[4][e] = re_im
                sign[e + (1,)] = -1.0
            row += len(mults)
        parts = scipy.fft.irfftn(spectra, s=(M,) * (2 * n), axes=tuple(range(-2 * n, 0)),
                                 overwrite_x=True)
        del spectra  # free the spectra before T and Q are gathered
        parts = np.moveaxis(parts, 0, -1)
        T = np.take(parts, table[3], axis=-1).view(complex)[..., 0]
        Q = np.take(parts, table[4], axis=-1)
        Q *= sign
        return T, Q.view(complex)[..., 0]

    def mean(self, f: np.ndarray) -> float:
        """Torus average; the trapezoid rule is exact on periodic data."""
        return float(np.mean(np.asarray(f).real))

    # -- the band: grid transfer and the dealiased residual -----------------

    def prolong(self, f: np.ndarray, fine: "TorusGrid") -> np.ndarray:
        """Trigonometric prolongation of a real field onto a finer grid.

        Zero-pads the half spectrum through the band; exact for band-limited
        fields.  The fine grid must have the same complex dimension and a
        resolution that is a multiple of this grid's.
        """
        _check_nested(self, fine)
        f = np.asarray(f, dtype=float)
        if fine.N == self.N:
            return f.copy()
        mean = np.mean(f)  # carried around the transform, not through it
        return self._prolonged(self.rfft(f - mean), fine.N) + mean

    def restrict(self, f: np.ndarray, coarse: "TorusGrid") -> np.ndarray:
        """Spectral restriction onto a coarser grid (crop the half spectrum).

        Keeps only wavenumbers the coarse grid resolves; adjoint of
        prolongation up to normalization.
        """
        _check_nested(coarse, self)
        f = np.asarray(f, dtype=float)
        if coarse.N == self.N:
            return f.copy()
        return coarse.irfft(coarse.restricted_spectrum(f)) + np.mean(f)

    def prolonged_hessian(self, F: np.ndarray, combine) -> np.ndarray:
        """combine(c) on the 3N/2 grid (odd when N/2 is), c the Hessian
        components (as in hessian_components) of the interpolant with half
        spectrum F; combine maps each slab of c, shape (n*n, rows, 3N/2, ...),
        to that slab of one real field, so no fine component field is built."""
        return self._prolonged(F, 3 * self.N // 2, self._band_multipliers, combine)

    @cached_property
    def _band_multipliers(self) -> np.ndarray:
        """hessian_multipliers at the band bins, where the finer grid has no Nyquist bin."""
        h = self.N // 2
        return self._hessian_multipliers(self._on_half_axes(np.r_[0:h + 1, -h:0].astype(float)))

    @cached_property
    def _band_index(self) -> tuple:
        """(plus, minus): open-mesh indices of this grid's half spectrum in
        its band block, the bins of a finer half spectrum that it reaches
        (wavenumbers 0..N/2, -N/2..-1 on the first 2n - 1 axes, 0..N/2 on
        the last).  plus places the Nyquist bin at +N/2; minus places it at
        -N/2 and cuts the last axis before it, which stores +N/2 only.
        Padding splits a coefficient at the Nyquist wavenumber in some axes
        in halves between these two placements and cropping averages them,
        the real part of the centred complex pad and crop."""
        h = self.N // 2
        minus = self._wavenumbers.astype(int) % (self.N + 1)
        plus = np.where(minus == h + 1, h, minus)
        axes = 2 * self.n - 1
        return np.ix_(*[plus] * axes, np.arange(h + 1)), np.ix_(*[minus] * axes, np.arange(h))

    def _prolonged(self, F: np.ndarray, M: int, multipliers=1.0, combine=None) -> np.ndarray:
        """combine of the resolution-M real field(s) of the band block of F
        times multipliers (one field per row of them): the first axis is
        transformed whole, the others in slabs of its rows."""
        h, d = self.N // 2, 2 * self.n
        plus, minus = self._band_index
        B = np.zeros((self.N + 1,) * (d - 1) + (h + 1,), dtype=complex)
        B[plus] = half = F * (0.5 * (M / self.N) ** d)
        B[minus] += half[..., :h]
        B = B * multipliers
        lead, bins = B.ndim - d, np.r_[0:h + 1, M - h:M]  # the band's bins of M
        X = _band_ifft(B, lead, bins)
        del B, half  # the slabs read X only
        out = np.empty((M,) * d)
        rows = max(1, SLAB_POINTS // M ** (d - 1))
        for r in range(0, M, rows):
            Y = X[(slice(None),) * lead + (slice(r, r + rows),)]
            for axis in range(lead + 1, X.ndim - 1):
                Y = _band_ifft(Y, axis, bins)
            Y = scipy.fft.irfft(Y, n=M, axis=-1, norm="forward") * (1.0 / M**d)
            out[r:r + rows] = combine(Y) if combine else Y
        return out

    def restricted_spectrum(self, f: np.ndarray) -> np.ndarray:
        """This grid's half spectrum of the restriction of a finer real field
        f less its mean (taken out of each slab, for round-off): the last
        axis first, then the others, slabs of the last of them."""
        h, M, s = self.N // 2, f.shape[0], 2 * self.n - 2
        bins = np.r_[0:h + 1, M - h:M]
        mean = np.mean(f)
        Y = np.empty((self.N + 1,) * s + (M, h + 1), dtype=complex)
        rows = max(1, SLAB_POINTS // M ** (s + 1))
        for r in range(0, M, rows):
            slab = (slice(None),) * s + (slice(r, r + rows),)
            Z = scipy.fft.rfft(f[slab] - mean, axis=-1)[..., : h + 1]
            for axis in range(s):
                Z = np.take(scipy.fft.fft(Z, axis=axis), bins, axis=axis)
            Y[slab] = Z
        B = np.take(scipy.fft.fft(Y, axis=s, overwrite_x=True), bins, axis=s)
        plus, minus = self._band_index
        scale = (self.N / M) ** (2 * self.n)
        out = B[plus] * scale
        out[..., :h] = 0.5 * (out[..., :h] + B[minus] * scale)
        return out

    # -- grid points and the trigonometric interpolant ---------------------

    def index(self, index) -> tuple:
        """A grid multi-index of 2n integers, or a stack of them (..., 2n),
        checked and taken modulo N: the 2n integer arrays, of the stack's
        shape, that read it from a grid array.

        Real coordinates are rejected (TypeError): torus points are grid
        points, addressed by index.
        """
        idx = np.asarray(index)
        if not np.issubdtype(idx.dtype, np.integer):
            raise TypeError(f"a torus point is a grid multi-index of integers, got {index!r}")
        if idx.shape[-1:] != (2 * self.n,):
            raise DimensionMismatch(f"index has shape {idx.shape}, expected (..., {2 * self.n})")
        return tuple(np.moveaxis(idx % self.N, -1, 0))

    def coords(self, index) -> np.ndarray:
        """Real coordinates (x1, y1, ..., xn, yn) of grid multi-indices, (..., 2n)."""
        return self.axis_coords[np.stack(self.index(index), axis=-1)]

    def eval_spectral(self, F: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate the trigonometric interpolant with coefficients F.

        F is a full fftn-layout coefficient array (unnormalized, as
        np.fft.fftn returns it); points is an (m, 2n) array of real
        coordinates.  Exact on band-limited data.  No library route calls
        it: torus point queries are grid indices.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != 2 * self.n:
            raise DimensionMismatch(f"points must have {2 * self.n} columns")
        k = self._wavenumbers
        phases = [np.exp(2j * np.pi * np.outer(pts[:, a], k)) for a in range(2 * self.n)]
        letters = string.ascii_lowercase[: 2 * self.n]
        spec = letters + "," + ",".join("m" + c for c in letters) + "->m"
        vals = np.einsum(spec, F, *phases, optimize=True)
        return vals / self.num_points


@dataclass(frozen=True)
class ChartGeometry:
    """A polydisk-shaped coordinate box centred at the origin, for
    closed-form metrics.

    Points are complex n-vectors; the trusted region keeps an interior
    margin away from the box boundary so derivative formulas stay tame.
    """

    n: int
    radii: tuple
    margin: float

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise DimensionMismatch(f"complex dimension {self.n} outside 1..{MAX_DIM}")
        radii = tuple(float(r) for r in np.atleast_1d(self.radii))
        if len(radii) == 1:
            radii = radii * self.n
        if len(radii) != self.n:
            raise DimensionMismatch(f"need {self.n} radii, got {len(radii)}")
        if self.margin <= 0:
            raise ValueError("trusted-region margin must be positive")
        if any(r <= self.margin for r in radii):
            raise ValueError("each radius must exceed the margin")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "_reach", np.subtract(radii, self.margin))

    def trusted(self, z) -> bool:
        """Whether the point z, or every point of a stack (..., n), is trusted."""
        z = np.asarray(z, dtype=complex)
        if z.shape[-1:] != (self.n,):
            raise DimensionMismatch(f"point has shape {z.shape}, expected (..., {self.n})")
        return bool((np.abs(z) <= self._reach).all())

    def sample_points(self, per_axis: int = 3, radius_fraction: float = 0.5) -> np.ndarray:
        """Deterministic lattice of trusted points (for sweeps and demos)."""
        axes = []
        for i in range(self.n):
            r = (self.radii[i] - self.margin) * radius_fraction
            re = np.linspace(-r, r, per_axis)
            axes.append([a + 1j * b for a in re for b in re])
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
        return pts
