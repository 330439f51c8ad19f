"""Curvature tensors, holomorphic sectional curvature, and extremal sweeps."""

import itertools

import numpy as np
import pytest
import sympy as sp

from kahlerbench.curvature import (
    KahlerCurvature,
    constant_hsc_tensor,
    curvature_field,
    curvature_from_derivatives,
    curvature_tensor,
    default_sweep_points,
    hsc,
    hsc_extremes,
    hsc_value,
    kappa_floor,
    kronecker_directions,
    ricci_form,
    ricci_from_curvature,
    ricci_from_derivatives,
    symmetry_violation,
    transform_tensor,
)
from kahlerbench.fields import ChartMetricField, TorusMetricField
from kahlerbench.grids import ChartGeometry, TorusGrid
from kahlerbench.linalg import Direction
from kahlerbench.zoo import perturbed_torus_potential


def random_pd(n, rng, scale=0.3):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.eye(n) + scale * (A @ A.conj().T)


def polydisk_field(n=2, scale=2.0):
    zs = sp.symbols(f"z1:{n + 1}")
    zbs = sp.symbols(f"z1:{n + 1}bar")
    potential = -scale * sum(sp.log(1 - zs[i] * zbs[i]) for i in range(n))
    geo = ChartGeometry(n=n, radii=(1.0,) * n, margin=0.2)
    return ChartMetricField(geo, potential, zs, zbs)


# -- model tensors -----------------------------------------------------------------


def test_constant_hsc_tensor_has_constant_h():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        g = random_pd(n, rng)
        R = constant_hsc_tensor(g, -1.7)
        assert symmetry_violation(R) < 1e-12
        for _ in range(5):
            eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert hsc_value(R, g, eta) == pytest.approx(-1.7, abs=1e-12)


def test_curvature_symmetries_are_enforced():
    rng = np.random.default_rng(7)
    g = random_pd(2, rng)
    R = constant_hsc_tensor(g, -1.0)
    KahlerCurvature(2, g, R, ricci_from_curvature(g, R))  # fine
    bad = R.copy()
    bad[0, 1, 1, 0] += 0.05
    assert symmetry_violation(bad) > 1e-3
    with pytest.raises(ValueError, match="symmetries"):
        KahlerCurvature(2, g, bad, ricci_from_curvature(g, bad))


def test_transform_tensor_preserves_hsc():
    rng = np.random.default_rng(11)
    n = 3
    g = random_pd(n, rng)
    R = constant_hsc_tensor(g, -0.8) + 0.1 * constant_hsc_tensor(random_pd(n, rng), 0.5)
    T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gt = np.einsum("ij,ia,jb->ab", g, T, np.conj(T))
    Rt = transform_tensor(R, T)
    for _ in range(4):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert hsc_value(Rt, gt, u) == pytest.approx(hsc_value(R, g, T @ u), abs=1e-10)


# -- Ricci routes ------------------------------------------------------------------


def test_ricci_contraction_matches_matrix_calculus():
    grid = TorusGrid(2, 8)
    x1 = grid._axis_view(grid.axis_coords, 0)
    y2 = grid._axis_view(grid.axis_coords, 3)
    psi = 0.004 * np.broadcast_to(
        np.cos(2.0 * np.pi * x1) + np.cos(2.0 * np.pi * (x1 + y2)), grid.shape
    ).copy()
    field = TorusMetricField(grid, psi)
    idx = (1, 6, 3, 2)
    g, dg, ddg = field.g[idx], field.dg[idx], field.ddg[idx]
    R = curvature_from_derivatives(g, dg, ddg)
    via_trace = ricci_from_curvature(g, R)
    via_matrix = ricci_from_derivatives(g, dg, ddg)
    assert np.max(np.abs(via_trace - via_matrix)) < 1e-11


def test_ricci_form_dispatch():
    grid = TorusGrid(1, 16)
    field = TorusMetricField(grid, np.zeros(grid.shape))
    full = ricci_form(field)
    assert full.shape == grid.shape + (1, 1)
    assert np.max(np.abs(full)) < 1e-14
    stacked = ricci_form(field, [(1, 3), (6, 14)])
    assert stacked.shape == (2, 1, 1)

    disk = polydisk_field(n=1, scale=1.0)
    with pytest.raises(TypeError):
        ricci_form(disk)
    ric = ricci_form(disk, [[0.2]])
    g = disk.metric_matrix_at([0.2])
    assert np.max(np.abs(ric[0] + 2.0 * g)) < 1e-10


def test_curvature_field_matches_pointwise():
    grid = TorusGrid(1, 16)
    x = grid._axis_view(grid.axis_coords, 0)
    psi = 0.01 * np.broadcast_to(np.cos(2.0 * np.pi * x), grid.shape).copy()
    field = TorusMetricField(grid, psi)
    R = curvature_field(field)
    assert R.shape == grid.shape + (1, 1, 1, 1)
    idx = (4, 11)
    curv = curvature_tensor(field, idx)
    assert np.max(np.abs(curv.tensor - R[idx])) < 1e-11
    assert symmetry_violation(R[idx]) < 1e-12


# -- holomorphic sectional curvature ------------------------------------------------


def test_flat_torus_hsc_is_zero():
    grid = TorusGrid(2, 8)
    field = TorusMetricField(grid, np.zeros(grid.shape))
    p = (1, 2, 5, 1)
    assert abs(hsc(field, p, [1.0, 2.0j])) < 1e-13
    assert abs(hsc(field, p, Direction(np.array([1.0, 0.0])))) < 1e-13


def test_disk_hsc_is_minus_two_over_scale():
    disk = polydisk_field(n=1, scale=1.0)
    assert hsc(disk, [0.25], [1.0]) == pytest.approx(-2.0, abs=1e-11)
    ext = hsc_extremes(disk, [0.3 + 0.1j])
    assert ext.h_min == pytest.approx(-2.0, abs=1e-11)
    assert ext.h_max == pytest.approx(-2.0, abs=1e-11)


def test_polydisk_hsc_extremes():
    field = polydisk_field(n=2, scale=2.0)
    ext = hsc_extremes(field, [0.1, -0.05], num_directions=4000, refine_steps=60)
    # factor directions minimize (-2/scale), balanced diagonals halve that
    assert ext.h_min == pytest.approx(-1.0, abs=1e-6)
    assert ext.h_max == pytest.approx(-0.5, abs=1e-6)
    for eta in (ext.eta_min, ext.eta_max):
        got = hsc(field, [0.1, -0.05], eta)
        assert got == pytest.approx(hsc_value(
            curvature_tensor(field, [0.1, -0.05]).tensor,
            field.metric_matrix_at([0.1, -0.05]), eta), abs=1e-12)


def test_kappa_floor_signs():
    field = polydisk_field(n=2, scale=2.0)
    pts = [[0.0, 0.0], [0.2, 0.1j], [-0.3, 0.25]]
    k0 = kappa_floor(field, points=pts, num_directions=1500, refine_steps=40)
    assert k0 == pytest.approx(0.5, abs=1e-5)

    grid = TorusGrid(1, 16)
    flat = TorusMetricField(grid, np.zeros(grid.shape))
    assert kappa_floor(flat, points=[(0, 0)], num_directions=10) <= 1e-12


def _strided_grid_indices(grid, stride):
    return list(itertools.product(range(0, grid.N, stride), repeat=2 * grid.n))


@pytest.mark.parametrize("n, N, amplitude, stride", [
    (2, 12, 0.01, 4),  # 81 of 12^4 points
    (1, 16, 0.01, 1),  # all 256 points
    (1, 16, 0.0, 1),   # flat torus
])
def test_torus_kappa_floor_grid_sweep_matches_pointwise(n, N, amplitude, stride):
    grid = TorusGrid(n, N)
    field = TorusMetricField(grid, perturbed_torus_potential(grid, amplitude))
    points = _strided_grid_indices(grid, stride)
    assert list(default_sweep_points(field)) == points
    swept = kappa_floor(field, num_directions=300, refine_steps=20)
    pointwise = kappa_floor(field, points=points, num_directions=300, refine_steps=20)
    assert swept == pointwise
    if amplitude == 0.0:
        assert abs(swept) <= 1e-12


@pytest.mark.parametrize("N", [64, 128])
def test_fine_torus_kappa_floor_keeps_curvature_symmetries(N):
    # FFT round-off breaks ddg[i,j,k,l] = conj(ddg[j,i,l,k]) by an amount
    # growing with N; the grid's fourth derivatives project it away before
    # the curvature symmetry check.
    grid = TorusGrid(1, N)
    field = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    swept = kappa_floor(field, num_directions=300, refine_steps=20)
    points = _strided_grid_indices(grid, N // 16)  # the sweep's 256 points
    assert len(points) == 256
    pointwise = kappa_floor(field, points=points, num_directions=300, refine_steps=20)
    assert swept == pointwise


def test_kronecker_directions_are_deterministic_unit_gauged():
    a = kronecker_directions(3, 400)
    b = kronecker_directions(3, 400)
    assert np.array_equal(a, b)
    assert a.shape == (400, 3)
    assert np.max(np.abs(np.linalg.norm(a, axis=1) - 1.0)) < 1e-12
    lead = np.take_along_axis(a, np.argmax(np.abs(a), axis=1)[:, None], axis=1)
    assert np.max(np.abs(lead.imag)) < 1e-12
    assert np.min(lead.real) > 0.0
    assert np.array_equal(kronecker_directions(1, 17), np.ones((1, 1)))
