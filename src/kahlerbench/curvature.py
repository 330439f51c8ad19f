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

import numpy as np
from scipy.special import ndtri

from .fields import TorusMetricField
from .linalg import Direction

SYMMETRY_RTOL = 1e-10


def _inverse_metric_upper(g: np.ndarray) -> np.ndarray:
    """Matrix G with G[p, q] = g^{p qbar} (so that g^{p qbar} g_{m qbar} = delta)."""
    return np.conj(np.linalg.inv(g))


def curvature_from_derivatives(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """Assemble R[i, j, k, l] from pointwise metric derivatives.

    Works on single points (shapes (n,n), (n,n,n), (n,n,n,n)) and batched
    fields (leading grid axes).
    """
    G = _inverse_metric_upper(g)
    quad = np.einsum("...pq,...iqk,...jpl->...ijkl", G, dg, np.conj(dg))
    return -ddg + quad


def ricci_from_curvature(g: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Ricci form by tensor contraction g^{k lbar} R_{i jbar k lbar}."""
    G = _inverse_metric_upper(g)
    return np.einsum("...kl,...ijkl->...ij", G, R)


def ricci_from_derivatives(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """Ricci form -dd^c log det g via matrix calculus (no curvature tensor).

    Ric_{k lbar} = tr(g^{-1} (d_k g) g^{-1} (d_lbar g)) - tr(g^{-1} d_k d_lbar g).
    """
    n = g.shape[-1]
    gi = np.linalg.inv(g)
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


def symmetry_violation(R: np.ndarray) -> float:
    """Largest deviation from the Kähler curvature symmetries."""
    v1 = np.max(np.abs(R - np.swapaxes(R, -4, -2)))          # i <-> k
    v2 = np.max(np.abs(R - np.swapaxes(R, -3, -1)))          # jbar <-> lbar
    pair = np.conj(np.swapaxes(np.swapaxes(R, -4, -3), -2, -1))
    v3 = np.max(np.abs(R - pair))                            # reality
    return float(max(v1, v2, v3))


@dataclass(frozen=True)
class KahlerCurvature:
    """Curvature data of a metric at a point: tensor, Ricci, and the metric."""

    n: int
    g: np.ndarray
    tensor: np.ndarray
    ricci: np.ndarray

    def __post_init__(self):
        scale = max(1.0, float(np.max(np.abs(self.tensor))))
        v = symmetry_violation(self.tensor)
        if v > SYMMETRY_RTOL * scale:
            raise ValueError(f"curvature symmetries violated by {v:.3e}")

    @classmethod
    def from_derivatives(cls, g, dg, ddg) -> "KahlerCurvature":
        R = curvature_from_derivatives(g, dg, ddg)
        ric = ricci_from_curvature(g, R)
        return cls(g.shape[-1], np.asarray(g), R, ric)


def curvature_tensor(field, point) -> KahlerCurvature:
    """Curvature of a metric field at a point (a grid multi-index on a torus)."""
    return KahlerCurvature.from_derivatives(*field.jet_at(point))


def curvature_field(field) -> np.ndarray:
    """R over the whole torus grid, shape grid + (n, n, n, n)."""
    return curvature_from_derivatives(field.g, field.dg, field.ddg)


def ricci_form(field, points=None):
    """Ricci form of a metric field.

    Torus fields with points=None return the full grid matrix field
    (spectral -dd^c log det g).  Otherwise returns one Ricci matrix per
    point (grid multi-indices on a torus), stacked.
    """
    if points is None:
        if hasattr(field, "ricci"):
            return field.ricci
        raise TypeError("chart fields need explicit points for ricci_form")
    return np.stack([ricci_from_derivatives(*field.jet_at(p)) for p in points])


# -- holomorphic sectional curvature ---------------------------------------


def hsc_value(R: np.ndarray, g: np.ndarray, eta: np.ndarray) -> float:
    """H(eta) for a single tensor/metric/direction triple."""
    eta = np.asarray(eta, dtype=complex).reshape(-1)
    q = np.einsum("ijkl,i,j,k,l", R, eta, np.conj(eta), eta, np.conj(eta)).real
    norm2 = np.einsum("ij,i,j", g, eta, np.conj(eta)).real
    return float(q / norm2**2)


def hsc(field, point, eta) -> float:
    """Holomorphic sectional curvature of a field at a point and direction."""
    if isinstance(eta, Direction):
        eta = eta.eta
    curv = curvature_tensor(field, point)
    return hsc_value(curv.tensor, curv.g, eta)


def _orthonormal_frame(g: np.ndarray) -> np.ndarray:
    """Columns t_a with sum_{ij} g_ij (t_a)_i conj((t_b)_j) = delta_ab.

    The unbarred metric slot contracts the direction unconjugated
    (hsc_value convention), so the frame condition is T^t g conj(T) = I,
    met by the transposed inverse Cholesky factor.
    """
    L = np.linalg.cholesky(g)
    return np.linalg.inv(L).T


def transform_tensor(R: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Change of frame: unbarred slots contract T, barred slots conj(T)."""
    return np.einsum("ijkl,ia,jb,kc,ld->abcd", R, T, np.conj(T), T, np.conj(T))


def kronecker_directions(n: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy directions on the unit sphere of C^n.

    A Kronecker lattice with generalized golden-ratio increments is mapped
    through the Gaussian quantile and normalized; each direction is gauged
    so its largest component is real positive (H only sees eta up to phase).
    """
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    d = 2 * n
    # root of x^(d+1) = x + 1
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    alphas = phi ** -np.arange(1, d + 1)
    idx = np.arange(1, count + 1)[:, None]
    u = np.mod(0.5 + idx * alphas[None, :], 1.0)
    gauss = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    vecs = gauss[:, :n] + 1j * gauss[:, n:]
    norms = np.linalg.norm(vecs, axis=1)
    norms[norms == 0.0] = 1.0
    vecs = vecs / norms[:, None]
    lead = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=1)[:, None], axis=1)
    phase = lead / np.abs(lead)
    return vecs * np.conj(phase)


def _q_value(R: np.ndarray, u: np.ndarray) -> float:
    return float(np.einsum("ijkl,i,j,k,l", R, u, np.conj(u), u, np.conj(u)).real)


def _q_gradient(R: np.ndarray, u: np.ndarray) -> np.ndarray:
    return 2.0 * np.einsum("imkl,i,k,l->m", R, u, u, np.conj(u))


def _refine_direction(R: np.ndarray, u: np.ndarray, sign: float, steps: int) -> tuple:
    """Projected-gradient ascent of sign*Q on the unit sphere.

    Adaptive step: halve on non-improvement (retrying within the same
    step), grow modestly on success.
    """
    u = u / np.linalg.norm(u)
    val = _q_value(R, u)
    alpha = 0.5
    for _ in range(steps):
        grad = sign * _q_gradient(R, u)
        tangent = grad - np.real(np.vdot(u, grad)) * u
        gnorm = np.linalg.norm(tangent)
        if gnorm < 1e-16 * max(1.0, abs(val)):
            break
        improved = False
        while alpha > 1e-16:
            trial = u + alpha * tangent
            trial = trial / np.linalg.norm(trial)
            tval = _q_value(R, trial)
            if sign * (tval - val) > 0.0:
                u, val = trial, tval
                alpha = min(alpha * 1.5, 1e3)
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
    return u, val


@dataclass(frozen=True)
class HscExtremes:
    """Extremal holomorphic sectional curvature at a point."""

    h_min: float
    h_max: float
    eta_min: np.ndarray
    eta_max: np.ndarray


def hsc_extremes_from_tensor(R: np.ndarray, g: np.ndarray,
                             num_directions: int = 10000,
                             refine_steps: int = 50) -> HscExtremes:
    """Extremize H over directions for one curvature tensor.

    Reduces to a g-orthonormal frame (where H = Q on the unit sphere),
    scans a deterministic direction sample, then refines the best minimizer
    and maximizer by projected gradient.  Ties in the scan go to the lowest
    sample index.
    """
    n = g.shape[-1]
    T = _orthonormal_frame(g)
    Rt = transform_tensor(R, T)
    if n == 1:
        h = float(Rt[0, 0, 0, 0].real)
        eta = T @ np.ones(1, dtype=complex)
        return HscExtremes(h, h, eta, eta)
    dirs = kronecker_directions(n, num_directions)
    q = np.einsum("ijkl,bi,bj,bk,bl->b", Rt, dirs, np.conj(dirs), dirs, np.conj(dirs),
                  optimize=True).real
    u_max, h_max = _refine_direction(Rt, dirs[int(np.argmax(q))], +1.0, refine_steps)
    u_min, h_min = _refine_direction(Rt, dirs[int(np.argmin(q))], -1.0, refine_steps)
    return HscExtremes(h_min, h_max, T @ u_min, T @ u_max)


def hsc_extremes(field, point, num_directions: int = 10000,
                 refine_steps: int = 50) -> HscExtremes:
    """Extremal holomorphic sectional curvatures of a field at a point."""
    curv = curvature_tensor(field, point)
    return hsc_extremes_from_tensor(curv.tensor, curv.g, num_directions, refine_steps)


def default_sweep_points(field, max_points: int = 256):
    """Deterministic point sweep of a field.

    A torus field is swept at the grid multi-indices of its stride-2^k
    sublattice, the smallest power of two leaving at most max_points
    points; a chart field at a lattice of its trusted region.
    """
    if isinstance(field, TorusMetricField):
        grid = field.grid
        stride = 1
        while grid.num_points // stride ** (2 * grid.n) > max_points:
            stride *= 2
        return itertools.product(range(0, grid.N, stride), repeat=2 * grid.n)
    per_axis = 3 if field.n > 1 else 5
    return field.geometry.sample_points(per_axis=per_axis)


def sweep_hsc_extremes(field, points=None, max_points: int = 256,
                       num_directions: int = 2000, refine_steps: int = 40):
    """HSC extremes at every point of a sweep, one HscExtremes per point.

    points=None sweeps default_sweep_points(field, max_points).
    """
    if points is None:
        points = default_sweep_points(field, max_points)
    for p in points:
        curv = curvature_tensor(field, p)
        yield hsc_extremes_from_tensor(curv.tensor, curv.g, num_directions, refine_steps)


def kappa_floor(field, points=None, num_directions: int = 2000,
                refine_steps: int = 40) -> float:
    """Uniform negativity floor kappa_0 = min over points of -sup_eta H.

    Positive only when H stays negative on the whole sweep; values <= 0
    mean downstream negativity-based bounds are not applicable.  With
    points=None a torus field is swept at no more than 256 grid points.
    """
    exts = sweep_hsc_extremes(field, points, num_directions=num_directions,
                              refine_steps=refine_steps)
    return float(-max((ext.h_max for ext in exts), default=-np.inf))
