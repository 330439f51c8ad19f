"""Metric fields from potentials: grid-sampled and closed-form charts."""

import functools

import numpy as np
import pytest
import sympy as sp

from kahlerbench.curvature import curvature_tensor, ricci_form, ricci_from_derivatives
from kahlerbench.errors import DimensionMismatch, PositivityLoss
from kahlerbench.fields import (
    ChartMetricField,
    TorusMetricField,
    metric_from_potential,
)
from kahlerbench.grids import ChartGeometry, TorusGrid
from kahlerbench.zoo import make_example


def single_mode_potential(grid, amplitude):
    x = grid._axis_view(grid.axis_coords, 0)
    return amplitude * np.broadcast_to(np.cos(2.0 * np.pi * x), grid.shape).copy()


# -- torus fields ----------------------------------------------------------------


def test_flat_torus_field():
    grid = TorusGrid(2, 8)
    field = TorusMetricField(grid, np.zeros(grid.shape))
    eye = np.broadcast_to(np.eye(2), grid.shape + (2, 2))
    assert np.max(np.abs(field.g - eye)) == 0.0
    assert np.max(np.abs(field.det_g - 1.0)) == 0.0
    assert np.max(np.abs(field.log_det_g)) == 0.0
    assert np.max(np.abs(field.ricci)) < 1e-14
    g, dg, ddg = field.jet_at((1, 2, 3, 4))
    assert np.array_equal(g, np.eye(2)) and not dg.any() and not ddg.any()


def test_metric_matches_manual_hessian():
    grid = TorusGrid(1, 32)
    a = 0.02
    field = TorusMetricField(grid, single_mode_potential(grid, a))
    x = grid._axis_view(grid.axis_coords, 0)
    want = 1.0 - np.pi**2 * a * np.broadcast_to(np.cos(2.0 * np.pi * x), grid.shape)
    assert np.max(np.abs(field.g[..., 0, 0] - want)) < 1e-13
    assert np.max(np.abs(field.det_g - want)) < 1e-13
    assert np.max(np.abs(np.linalg.inv(field.g)[..., 0, 0] - 1.0 / want)) < 1e-13


def test_potential_mean_is_gauge():
    grid = TorusGrid(1, 16)
    psi = single_mode_potential(grid, 0.003)
    a = TorusMetricField(grid, psi)
    b = TorusMetricField(grid, psi + 11.0)
    assert abs(b.psi.mean()) < 1e-12
    assert np.max(np.abs(a.g - b.g)) < 1e-12


def test_point_queries_match_grid_fields_on_lattice():
    grid = TorusGrid(2, 8)
    x1 = grid._axis_view(grid.axis_coords, 0)
    y2 = grid._axis_view(grid.axis_coords, 3)
    psi = 0.004 * np.broadcast_to(
        np.cos(2.0 * np.pi * x1) + np.cos(2.0 * np.pi * (x1 + y2)), grid.shape
    ).copy()
    field = TorusMetricField(grid, psi)
    idx = (2, 5, 1, 7)
    g, dg, ddg = field.jet_at(idx)
    assert np.array_equal(g, field.g[idx])
    assert np.array_equal(dg, field.dg[idx])
    assert np.array_equal(ddg, field.ddg[idx])
    assert np.array_equal(field.metric_matrix_at(np.array(idx)), field.g[idx])
    # indices are periodic, as are grid.coords
    wrapped = (2 + 8, 5 - 8, 1, 7 + 16)
    assert np.array_equal(field.jet_at(wrapped)[2], ddg)
    assert np.array_equal(grid.coords(wrapped), grid.coords(idx))


def test_pointwise_ricci_matches_spectral_ricci():
    grid = TorusGrid(1, 32)
    field = TorusMetricField(grid, single_mode_potential(grid, 0.01))
    idx = (3, 9)
    got = ricci_form(field, [idx])
    assert got.shape == (1, 1, 1)
    assert np.max(np.abs(got[0] - field.ricci[idx])) < 1e-10


def test_torus_point_queries_take_grid_indices_only():
    grid = TorusGrid(2, 8)
    field = TorusMetricField(grid, np.zeros(grid.shape))
    for query in (field.jet_at, field.metric_matrix_at):
        with pytest.raises(TypeError, match="multi-index"):
            query(grid.coords((1, 2, 3, 4)))  # real coordinates
        with pytest.raises(TypeError):
            query([1, 2, 3.0, 4])
        with pytest.raises(DimensionMismatch):
            query((1, 2, 3))
        with pytest.raises(DimensionMismatch):
            query((1, 2, 3, 4, 5))


def test_large_amplitude_loses_positivity():
    grid = TorusGrid(1, 16)
    with pytest.raises(PositivityLoss) as err:
        TorusMetricField(grid, single_mode_potential(grid, 0.2))
    assert err.value.min_eigenvalue < 0


def test_potential_shape_is_checked():
    grid = TorusGrid(1, 16)
    with pytest.raises(DimensionMismatch):
        TorusMetricField(grid, np.zeros((8, 8)))


# -- chart fields ----------------------------------------------------------------


@pytest.fixture
def disk_field():
    z, zb = sp.symbols("z zbar")
    geo = ChartGeometry(n=1, radii=(1.0,), margin=0.2)
    return ChartMetricField(geo, -sp.log(1 - z * zb), (z,), (zb,))


def test_disk_metric_closed_form(disk_field):
    z = 0.3
    g, dg, ddg = disk_field.jet_at([z])
    assert g[0, 0] == pytest.approx(1.0 / (1.0 - z**2) ** 2, abs=1e-13)
    assert np.array_equal(disk_field.metric_matrix_at([z]), g)
    assert dg[0, 0, 0] == pytest.approx(2.0 * z / (1.0 - z**2) ** 3, abs=1e-13)
    want = 2.0 / (1.0 - z**2) ** 3 + 6.0 * z**2 / (1.0 - z**2) ** 4
    assert ddg[0, 0, 0, 0] == pytest.approx(want, abs=1e-12)


def test_disk_is_einstein(disk_field):
    for z in (0.1, 0.35 + 0.2j, -0.5j):
        g, dg, ddg = disk_field.jet_at([z])
        ric = ricci_from_derivatives(g, dg, ddg)
        assert np.max(np.abs(ric + 2.0 * g)) < 1e-10


def test_chart_point_guards(disk_field):
    with pytest.raises(ValueError):
        disk_field.metric_matrix_at([0.95])  # outside trusted region
    with pytest.raises(DimensionMismatch):
        disk_field.metric_matrix_at([0.1, 0.2])
    disk_field.jet_at([0.5])  # inside the trusted radius 0.8
    with pytest.raises(ValueError, match="trusted"):
        disk_field.jet_at([0.85])


def test_chart_detects_non_real_potential():
    z, zb = sp.symbols("z zbar")
    geo = ChartGeometry(n=1, radii=(1.0,), margin=0.2)
    field = ChartMetricField(geo, z**2 * zb, (z,), (zb,))
    with pytest.raises(ValueError, match="Hermitian"):
        field.metric_matrix_at([0.4j])


def test_chart_detects_positivity_loss():
    z, zb = sp.symbols("z zbar")
    geo = ChartGeometry(n=1, radii=(1.0,), margin=0.2)
    field = ChartMetricField(geo, -z * zb, (z,), (zb,))
    with pytest.raises(PositivityLoss):
        field.metric_matrix_at([0.1])


def test_chart_symbol_count_is_checked():
    z, zb, w = sp.symbols("z zbar w")
    geo = ChartGeometry(n=2, radii=(1.0, 1.0), margin=0.2)
    with pytest.raises(DimensionMismatch):
        ChartMetricField(geo, z * zb, (z,), (zb,))


# -- dispatch ----------------------------------------------------------------------


def test_metric_from_potential_dispatch():
    grid = TorusGrid(1, 16)
    field = metric_from_potential(grid, np.zeros(grid.shape))
    assert isinstance(field, TorusMetricField)

    z, zb = sp.symbols("z zbar")
    geo = ChartGeometry(n=1, radii=(1.0,), margin=0.2)
    chart = metric_from_potential(geo, z * zb, (z,), (zb,))
    assert isinstance(chart, ChartMetricField)

    with pytest.raises(ValueError):
        metric_from_potential(geo, z * zb)  # symbols missing
    with pytest.raises(TypeError):
        metric_from_potential(42, None)


# -- chart metric jet --------------------------------------------------------------


def _exact_jet(psi, z, zb, point):
    """g, dg, ddg by sympy differentiation straight from the potential,
    evaluated to 30 digits at an exact point."""
    n = len(z)
    subs = {}
    for i, p in enumerate(point):
        subs[z[i]] = p
        subs[zb[i]] = sp.conjugate(p)

    @functools.cache
    def partial(hol, anti):
        variables = [z[i] for i in hol] + [zb[j] for j in anti]
        return complex(sp.N(sp.diff(psi, *variables), 30, subs=subs))

    def value(hol, anti):  # partials commute
        return partial(tuple(sorted(hol)), tuple(sorted(anti)))

    r = range(n)
    g = np.array([[value((i,), (j,)) for j in r] for i in r])
    dg = np.array([[[value((i, k), (j,)) for k in r] for j in r] for i in r])
    ddg = np.array([[[[value((i, k), (j, l)) for l in r] for k in r]
                     for j in r] for i in r])
    return g, dg, ddg


@pytest.mark.parametrize("name, params, point", [
    ("fubini-study", dict(n=2),
     (sp.Rational(1, 10) + sp.I / 5, sp.Rational(1, 4) - sp.I / 10)),
    ("fermat-chart", dict(degree=5),
     (sp.Rational(1, 10) + sp.I / 20, -sp.Rational(2, 25) + sp.I * sp.Rational(3, 25))),
])
def test_chart_jet_matches_exact_sympy(name, params, point):
    field = make_example(name, **params).field
    want = _exact_jet(field.potential, field.z, field.zbar, point)
    z = np.array([complex(p) for p in point])
    got = field.jet_at(z)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_chart_lambdifies_once_per_field(monkeypatch):
    calls = []
    lambdify = sp.lambdify

    def counting(*args, **kwargs):
        calls.append(args)
        return lambdify(*args, **kwargs)

    monkeypatch.setattr(sp, "lambdify", counting)
    for name, params in (("fubini-study", dict(n=2)), ("poincare-disk", dict(scale=1.5))):
        example = make_example(name, **params)
        field = example.field
        calls.clear()
        for z in example.geometry.sample_points(per_axis=3, radius_fraction=0.5)[:3]:
            field.metric_matrix_at(z)
            field.jet_at(z)
            ricci_form(field, [z])
            curvature_tensor(field, z)
        assert len(calls) == 1
