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

The complex Hessian of a real field, and the flat Laplacian, act through
real multipliers on the half spectrum of a real-input transform (rfftn,
last axis cut to N//2 + 1 bins): the spectrum of a real field is Hermitian
symmetric, and so is its product with an even real multiplier, so each
real component of the Hessian is one inverse real transform (the
real-input FFT structure of Frigo & Johnson, Proc. IEEE 93, 2005).
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .errors import DimensionMismatch
from .linalg import MAX_DIM


def real_pair_symmetrize(Q: np.ndarray) -> np.ndarray:
    """Project Q[..., i, j, k, l] onto Q[i, j, k, l] = conj(Q[j, i, l, k]).

    The fourth derivatives of a real potential have this symmetry exactly;
    spectral round-off breaks it by an amount that grows with N, enough to
    trip the curvature symmetry check on fine grids.
    """
    pair = np.conj(np.swapaxes(np.swapaxes(Q, -4, -3), -2, -1))
    return (Q + pair) / 2.0


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

    kind = "periodic-torus"

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

    @cached_property
    def _deriv_wavenumbers(self) -> np.ndarray:
        k = self._wavenumbers.copy()
        k[self.N // 2] = 0.0  # Nyquist bin dropped from derivatives
        return k

    def _axis_view(self, arr: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * (2 * self.n)
        shape[axis] = self.N
        return arr.reshape(shape)

    def dz_multiplier(self, j: int) -> np.ndarray:
        """Spectral multiplier of d/dz^j (broadcastable to grid shape)."""
        kx = self._axis_view(self._deriv_wavenumbers, 2 * j)
        ky = self._axis_view(self._deriv_wavenumbers, 2 * j + 1)
        return np.pi * (ky + 1j * kx)

    def dzbar_multiplier(self, j: int) -> np.ndarray:
        kx = self._axis_view(self._deriv_wavenumbers, 2 * j)
        ky = self._axis_view(self._deriv_wavenumbers, 2 * j + 1)
        return np.pi * (1j * kx - ky)

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
        n, half = self.n, self.N // 2 + 1
        k = []
        for axis in range(2 * n):
            ka = self._deriv_wavenumbers[:half] if axis == 2 * n - 1 else self._deriv_wavenumbers
            shape = [1] * (2 * n)
            shape[axis] = ka.size
            k.append(ka.reshape(shape))
        out = np.empty((n * n,) + self.shape[:-1] + (half,))
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

    def fft(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f)
        if f.shape != self.shape:
            raise DimensionMismatch(f"field shape {f.shape} != grid shape {self.shape}")
        return np.fft.fftn(f)

    def ifft(self, F: np.ndarray) -> np.ndarray:
        return np.fft.ifftn(F)

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

    def _deriv_fft(self, f: np.ndarray) -> np.ndarray:
        # The mean never survives a derivative multiplier, but removing it
        # before the transform keeps FFT round-off proportional to the
        # oscillating part (the potentials here ride on large constants).
        f = np.asarray(f)
        return self.fft(f - np.mean(f))

    def dz(self, f: np.ndarray, j: int) -> np.ndarray:
        return self.ifft(self._deriv_fft(f) * self.dz_multiplier(j))

    def dzbar(self, f: np.ndarray, j: int) -> np.ndarray:
        return self.ifft(self._deriv_fft(f) * self.dzbar_multiplier(j))

    def complex_hessian(self, f: np.ndarray) -> np.ndarray:
        """H[..., i, j] = d^2 f / dz^i dzbar^j of a real field; Hermitian, real diagonal.

        One real-input transform of f, then one inverse real transform per
        real component: n diagonal entries and the real and imaginary parts
        of the n(n-1)/2 entries above the diagonal.
        """
        f = np.asarray(f)
        F = self.rfft(f - np.mean(f))  # mean removed for round-off, as in _deriv_fft
        mult = self.hessian_multipliers
        n = self.n
        H = np.empty(self.shape + (n, n), dtype=complex)
        Hr, Hi = H.real, H.imag
        for i in range(n):
            Hr[..., i, i] = self.irfft(F * mult[i * n + i])
            Hi[..., i, i] = 0.0
            for j in range(i + 1, n):
                Hr[..., i, j] = Hr[..., j, i] = self.irfft(F * mult[i * n + j])
                Hi[..., i, j] = self.irfft(F * mult[j * n + i])
                np.negative(Hi[..., i, j], out=Hi[..., j, i])
        return H

    def hessian_third(self, f: np.ndarray) -> np.ndarray:
        """T[..., i, j, k] = d/dz^k of the complex Hessian entry (i, j)."""
        F = self._deriv_fft(f)
        n = self.n
        T = np.empty(self.shape + (n, n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                Fij = F * self.dz_multiplier(i) * self.dzbar_multiplier(j)
                for k in range(n):
                    T[..., i, j, k] = self.ifft(Fij * self.dz_multiplier(k))
        return T

    def hessian_fourth(self, f: np.ndarray) -> np.ndarray:
        """Q[..., i, j, k, l] = d^2/dz^k dzbar^l of the Hessian entry (i, j)."""
        F = self._deriv_fft(f)
        n = self.n
        Q = np.empty(self.shape + (n, n, n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                Fij = F * self.dz_multiplier(i) * self.dzbar_multiplier(j)
                for k in range(n):
                    Fijk = Fij * self.dz_multiplier(k)
                    for l in range(n):
                        Q[..., i, j, k, l] = self.ifft(Fijk * self.dzbar_multiplier(l))
        return real_pair_symmetrize(Q)

    def mean(self, f: np.ndarray) -> float:
        """Torus average; the trapezoid rule is exact on periodic data."""
        return float(np.mean(np.asarray(f).real))

    def prolong(self, f: np.ndarray, fine: "TorusGrid") -> np.ndarray:
        """Trigonometric prolongation of a real field onto a finer grid.

        Zero-pads the spectrum; exact for band-limited fields, and the real
        part handles the split of Nyquist modes.  The fine grid must have
        the same complex dimension and a resolution that is a multiple of
        this grid's.
        """
        if fine.n != self.n or fine.N < self.N or fine.N % self.N != 0:
            raise DimensionMismatch(
                f"cannot prolong {self.n}/{self.N} onto {fine.n}/{fine.N}"
            )
        if fine.N == self.N:
            return np.asarray(f, dtype=float).copy()
        f = np.asarray(f, dtype=float)
        mean = np.mean(f)  # carried around the transform, not through it
        F = np.fft.fftshift(self.fft(f - mean))
        pad = (fine.N - self.N) // 2
        F = np.pad(F, pad)
        out = np.fft.ifftn(np.fft.ifftshift(F)).real
        return out * (fine.N / self.N) ** (2 * self.n) + mean

    def restrict(self, f: np.ndarray, coarse: "TorusGrid") -> np.ndarray:
        """Spectral restriction onto a coarser grid (crop the spectrum).

        Keeps only wavenumbers the coarse grid resolves; adjoint of
        prolongation up to normalization.  Real fields stay real.
        """
        if coarse.n != self.n or coarse.N > self.N or self.N % coarse.N != 0:
            raise DimensionMismatch(
                f"cannot restrict {self.n}/{self.N} onto {coarse.n}/{coarse.N}"
            )
        if coarse.N == self.N:
            return np.asarray(f, dtype=float).copy()
        f = np.asarray(f, dtype=float)
        mean = np.mean(f)
        F = np.fft.fftshift(self.fft(f - mean))
        crop = (self.N - coarse.N) // 2
        sl = tuple(slice(crop, crop + coarse.N) for _ in range(2 * self.n))
        out = np.fft.ifftn(np.fft.ifftshift(F[sl])).real
        return out * (coarse.N / self.N) ** (2 * self.n) + mean

    # -- grid points and the trigonometric interpolant ---------------------

    def index(self, index) -> tuple:
        """A grid multi-index of 2n integers, checked and taken modulo N.

        Real coordinates are rejected (TypeError): torus points are grid
        points, addressed by index.
        """
        idx = tuple(index)
        if not all(isinstance(a, (int, np.integer)) for a in idx):
            raise TypeError(f"a torus point is a grid multi-index of integers, got {index!r}")
        if len(idx) != 2 * self.n:
            raise DimensionMismatch(f"index length {len(idx)} != {2 * self.n}")
        return tuple(int(a) % self.N for a in idx)

    def coords(self, index) -> np.ndarray:
        """Real coordinates (x1, y1, ..., xn, yn) of a grid multi-index."""
        return self.axis_coords[list(self.index(index))]

    def eval_spectral(self, F: np.ndarray, points: np.ndarray) -> np.ndarray:
        """Evaluate the trigonometric interpolant with coefficients F.

        F is an fftn-layout coefficient array (unnormalized, as returned by
        self.fft, possibly multiplied by spectral multipliers); points is an
        (m, 2n) array of real coordinates.  Exact on band-limited data.
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
    """A polydisk-shaped coordinate box for closed-form metrics.

    Points are complex n-vectors; the trusted region keeps an interior
    margin away from the box boundary so derivative formulas stay tame.
    """

    n: int
    radii: tuple
    margin: float
    center: tuple = None

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
        center = self.center
        if center is None:
            center = (0j,) * self.n
        center = tuple(complex(c) for c in np.atleast_1d(center))
        if len(center) != self.n:
            raise DimensionMismatch(f"need {self.n} center components")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "center", center)

    kind = "analytic-chart"

    def trusted(self, z) -> bool:
        z = np.asarray(z, dtype=complex).reshape(-1)
        if z.size != self.n:
            raise DimensionMismatch(f"point has {z.size} components, expected {self.n}")
        return all(
            abs(z[i] - self.center[i]) <= self.radii[i] - self.margin
            for i in range(self.n)
        )

    def sample_points(self, per_axis: int = 3, radius_fraction: float = 0.5) -> np.ndarray:
        """Deterministic lattice of trusted points (for sweeps and demos)."""
        axes = []
        for i in range(self.n):
            r = (self.radii[i] - self.margin) * radius_fraction
            re = np.linspace(-r, r, per_axis)
            axes.append([self.center[i] + a + 1j * b for a in re for b in re])
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
        return pts
