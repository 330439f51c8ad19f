"""Metric fields from potentials: grid-sampled and closed-form charts."""

import itertools
import re

import numpy as np
import pytest
import sympy as sp
from sympy.utilities.iterables import multiset_partitions

from kahlerbench.curvature import hsc, kappa_floor, ricci_from_derivatives
from kahlerbench.errors import DimensionMismatch, PositivityLoss
from kahlerbench.fields import ChartMetricField, TorusMetricField, _component, _faa_di_bruno
from kahlerbench.grids import ChartGeometry, TorusGrid
from kahlerbench.linalg import hermitian
from kahlerbench.inequalities import (SchwarzHypotheses, laplacian_identity_check,
                                      schwarz_conclusion_check)
from kahlerbench.zoo import make_example, poincare_polydisk_terms

from exact_chart import exact_jet


def single_mode_potential(grid, amplitude):
    x = grid._axis_view(grid.axis_coords, 0)
    return amplitude * np.broadcast_to(np.cos(2.0 * np.pi * x), grid.shape).copy()


# -- torus fields ----------------------------------------------------------------


def test_flat_torus_field():
    grid = TorusGrid(2, 8)
    field = TorusMetricField(grid, np.zeros(grid.shape))
    eye = np.broadcast_to(np.eye(2).reshape((4,) + (1,) * 4), (4,) + grid.shape)
    assert field.g.shape == (4,) + grid.shape  # linalg's components
    assert field.g.nbytes == 8 * 4 * grid.num_points  # real, half a Hermitian field's bytes
    assert np.max(np.abs(field.g - eye)) == 0.0
    assert np.max(np.abs(field.det_g - 1.0)) == 0.0
    assert np.max(np.abs(field.log_det_g)) == 0.0
    assert np.max(np.abs(grid.complex_hessian(field.log_det_g))) < 1e-14  # Ricci
    g, dg, ddg = field.jet_at((1, 2, 3, 4))
    assert np.array_equal(g, np.eye(2)) and not dg.any() and not ddg.any()


def test_metric_matches_manual_hessian():
    grid = TorusGrid(1, 32)
    a = 0.02
    field = TorusMetricField(grid, single_mode_potential(grid, a))
    x = grid._axis_view(grid.axis_coords, 0)
    want = 1.0 - np.pi**2 * a * np.broadcast_to(np.cos(2.0 * np.pi * x), grid.shape)
    assert np.max(np.abs(field.g[0] - want)) < 1e-13
    assert np.max(np.abs(field.det_g - want)) < 1e-13
    assert np.max(np.abs(np.linalg.inv(hermitian(field.g))[..., 0, 0] - 1.0 / want)) < 1e-13


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
    T, Q = grid.hessian_jets(field.psi)
    assert np.array_equal(g, hermitian(field.g)[idx])
    assert np.array_equal(dg, T[idx])
    assert np.array_equal(ddg, Q[idx])
    assert np.array_equal(field.metric_matrix_at(np.array(idx)), hermitian(field.g)[idx])
    # indices are periodic, as are grid.coords
    wrapped = (2 + 8, 5 - 8, 1, 7 + 16)
    assert np.array_equal(field.jet_at(wrapped)[2], ddg)
    assert np.array_equal(grid.coords(wrapped), grid.coords(idx))


def test_pointwise_ricci_matches_spectral_ricci():
    grid = TorusGrid(1, 32)
    field = TorusMetricField(grid, single_mode_potential(grid, 0.01))
    idx = (3, 9)
    got = ricci_from_derivatives(*field.jet_at(idx))
    assert got.shape == (1, 1)
    spectral = -grid.complex_hessian(field.log_det_g)  # -dd^c log det g on the grid
    assert np.max(np.abs(got - spectral[idx])) < 1e-10


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
        with pytest.raises(TypeError, match="multi-index"):
            query(grid.coords([(1, 2, 3, 4), (0, 0, 0, 1)]))  # a stack of real coordinates
        with pytest.raises(DimensionMismatch):
            query(np.zeros((3, 5), dtype=int))  # a stack with the wrong last axis


def test_torus_point_queries_take_stacks():
    grid = TorusGrid(2, 8)
    field = TorusMetricField(grid, single_mode_potential(grid, 0.004))
    stack = np.random.default_rng(2).integers(-8, 16, size=(3, 5, 4))  # wraps modulo N
    g, dg, ddg = field.jet_at(stack)
    assert (g.shape, dg.shape, ddg.shape) == ((3, 5, 2, 2), (3, 5, 2, 2, 2), (3, 5) + (2,) * 4)
    assert np.array_equal(field.metric_matrix_at(stack), g)
    assert grid.coords(stack).shape == (3, 5, 4)
    assert field.jet_at(np.zeros((0, 4), dtype=int))[0].shape == (0, 2, 2)
    for k in np.ndindex(3, 5):
        single = field.jet_at(tuple(int(a) for a in stack[k]))
        assert all(np.array_equal(a[k], b) for a, b in zip((g, dg, ddg), single))
        wrapped = tuple(int(a) % 8 for a in stack[k])
        assert np.array_equal(single[0], hermitian(field.g)[wrapped])
        assert np.array_equal(grid.coords(stack)[k], np.array(wrapped) / 8)


def test_torus_jets_come_from_each_points_sublattice(monkeypatch):
    # a point of stride s = gcd(N, its indices) reads the jets of the stride-s
    # sublattice: one fold per distinct stride, kept on the field, stride 1
    # the full jets, and a point's jets are those of the point queried alone
    grid = TorusGrid(2, 12)
    field = TorusMetricField(grid, single_mode_potential(grid, 0.004) + 0.001 * np.cos(
        2.0 * np.pi * grid._axis_view(grid.axis_coords, 3)))
    strides = []
    hessian_jets = TorusGrid.hessian_jets

    def counting(self, f, stride=1):
        strides.append(stride)
        return hessian_jets(self, f, stride)

    monkeypatch.setattr(TorusGrid, "hessian_jets", counting)
    kappa = kappa_floor(field)  # 80 points of stride 4 and the origin, of stride 12
    assert strides == [4, 12]
    # a repeated sweep reads the kept folds, to the bit
    assert kappa_floor(field) == kappa and strides == [4, 12]
    stack = np.array([(0, 4, 8, 4), (1, 2, 3, 4), (6, 0, 6, 3), (2, 4, 6, 8), (0, 0, 0, 0),
                      (3, 9, 0, 6), (12, 24, -12, 0), (5, 7, 11, 1)])
    strides.clear()
    g, dg, ddg = field.jet_at(stack)
    assert strides == [1, 2, 3]  # strides 4 and 12 were kept from the sweep
    T, Q = hessian_jets(grid, field.psi)
    for k, p in enumerate(stack):
        single = field.jet_at(tuple(int(a) for a in p))
        assert all(np.array_equal(a[k], b) for a, b in zip((g, dg, ddg), single))
        at = tuple(p % 12)
        if np.gcd.reduce(p, initial=12) == 1:
            assert np.array_equal(dg[k], T[at]) and np.array_equal(ddg[k], Q[at])
        assert np.max(np.abs(dg[k] - T[at])) < 1e-13 * np.max(np.abs(T))
        assert np.max(np.abs(ddg[k] - Q[at])) < 1e-13 * np.max(np.abs(Q))


@pytest.mark.parametrize("substrate", ["torus", "chart"])
def test_an_empty_stack_has_empty_jets(substrate):
    if substrate == "torus":
        field = TorusMetricField(TorusGrid(2, 8), np.zeros((8,) * 4))
        empty = np.zeros((0, 4), dtype=int)  # no indices: its stride would be N
    else:
        field = make_example("poincare-polydisk", n=2).field
        empty = np.zeros((0, 2), dtype=complex)
    g, dg, ddg = field.jet_at(empty)
    assert (g.shape, dg.shape, ddg.shape) == ((0, 2, 2), (0, 2, 2, 2), (0, 2, 2, 2, 2))
    assert field.jet_at(empty.reshape(0, 3, empty.shape[-1]))[2].shape == (0, 3) + (2,) * 4
    assert laplacian_identity_check(field, field, empty) == []
    assert schwarz_conclusion_check(field, field, SchwarzHypotheses(kappa=0.5, lam=1.0),
                                    empty) == []


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

X = sp.Symbol("x")  # the variable of the term functions


@pytest.fixture
def disk_field():
    z = sp.Symbol("z")
    geo = ChartGeometry(n=1, radii=(1.0,), margin=0.2)
    return ChartMetricField(geo, [(-sp.log(1 - X), (z,))], (z,))


def bumped_polydisk():
    """Criterion 06's comparison metric: the scale-2 bidisk plus |z1 z2|^2 / 50."""
    terms, z = poincare_polydisk_terms(2, 2.0)
    bump = (sp.Rational(1, 50) * X, (z[0] * z[1],))
    return ChartMetricField(ChartGeometry(2, (1.0, 1.0), margin=0.25), terms + [bump], z)


def chart_fields():
    """The four gallery charts and criterion 06's bumped bidisk."""
    gallery = [make_example(name, **params).field for name, params in (
        ("poincare-disk", dict(scale=1.5)), ("poincare-polydisk", dict(n=2, scale=2.0)),
        ("fubini-study", dict(n=2)), ("fermat-chart", dict(degree=5)))]
    return gallery + [bumped_polydisk()]


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
    with pytest.raises(ValueError, match="trusted"):
        disk_field.jet_at([[0.5], [0.85]])  # one bad point fails a batch


def test_chart_detects_positivity_loss():
    z = sp.Symbol("z")
    geo = ChartGeometry(n=1, radii=(1.0,), margin=0.2)
    field = ChartMetricField(geo, [(-X, (z,))], (z,))
    with pytest.raises(PositivityLoss):
        field.metric_matrix_at([0.1])


def test_chart_symbol_count_is_checked():
    z = sp.Symbol("z")
    geo = ChartGeometry(n=2, radii=(1.0, 1.0), margin=0.2)
    with pytest.raises(DimensionMismatch):
        ChartMetricField(geo, [(X, (z,))], (z,))


def test_chart_terms_are_checked():
    z, w = sp.symbols("z w")
    geo = ChartGeometry(n=1, radii=(1.0,), margin=0.2)
    with pytest.raises(ValueError, match="holomorphic"):
        ChartMetricField(geo, [(X, (z * w,))], (z,))
    with pytest.raises(ValueError, match="one variable"):
        ChartMetricField(geo, [(w * X, (z,))], (z,))
    with pytest.raises(ValueError, match="real coefficients"):
        ChartMetricField(geo, [(sp.I * X, (z,))], (z,))


@pytest.mark.parametrize("ell, F, named", [
    (X**2, "z", "x**2"), (sp.exp(X), "z", "exp(x)"),
    (X, "exp(z)", "exp(z)"), (X, "z + sin(z)", "z + sin(z)"),
])
def test_terms_outside_the_closed_form_class_are_rejected(ell, F, named):
    z = sp.Symbol("z")
    geo = ChartGeometry(n=1, radii=(1.0,), margin=0.2)
    with pytest.raises(ValueError, match=re.escape(named)):
        ChartMetricField(geo, [(ell, (sp.sympify(F, locals={"z": z}),))], (z,))


def cube_graph_field():
    """log(1 + |z2|^2 + |h|^2) with the one-coordinate degree-3 graph
    h = exp(i pi / 3) (1 + z1^3)^(1/3)."""
    z = sp.symbols("z1:3")
    h = sp.exp(sp.I * sp.pi / 3) * (1 + z[0] ** 3) ** sp.Rational(1, 3)
    geo = ChartGeometry(n=2, radii=(1.0, 1.0), margin=0.2)
    return ChartMetricField(geo, [(sp.Lambda(X, sp.log(1 + X)), (z[1], h))], z)


def test_chart_potential_is_the_sum_of_its_terms():
    field = cube_graph_field()
    z, zb = field.z, field.zbar
    h = sp.exp(sp.I * sp.pi / 3) * (1 + z[0] ** 3) ** sp.Rational(1, 3)
    hb = sp.exp(-sp.I * sp.pi / 3) * (1 + zb[0] ** 3) ** sp.Rational(1, 3)
    assert sp.simplify(field.potential - sp.log(1 + z[1] * zb[1] + h * hb)) == 0


def test_a_scaled_term_is_its_scaled_term_function():
    z = sp.symbols("z1:3")
    geo = ChartGeometry(n=2, radii=(1.0, 1.0), margin=0.2)
    bump = (sp.Rational(1, 50) * X, (z[0] * z[1],))
    scaled = ChartMetricField(geo, [(-1.7, sp.log(1 - X), (z[0],)),
                                    (2.5, -sp.log(1 - X), (z[1],)), bump], z)
    folded = ChartMetricField(geo, [(-1.7 * sp.log(1 - X), (z[0],)),
                                    (-2.5 * sp.log(1 - X), (z[1],)), bump], z)
    assert sp.simplify(scaled.potential - folded.potential) == 0
    points = geo.sample_points(per_axis=3, radius_fraction=0.6)
    for a, b in zip(scaled.jet_at(points), folded.jet_at(points)):
        assert np.array_equal(a, b)


# -- chart metric jet --------------------------------------------------------------


def assert_jet_matches_exact(field, point):
    want = exact_jet(field, point)
    got = field.jet_at(np.array([complex(p) for p in point]))
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("name, params, point", [
    ("fubini-study", dict(n=2),
     (sp.Rational(1, 10) + sp.I / 5, sp.Rational(1, 4) - sp.I / 10)),
    ("fermat-chart", dict(degree=5),
     (sp.Rational(1, 10) + sp.I / 20, -sp.Rational(2, 25) + sp.I * sp.Rational(3, 25))),
    ("poincare-disk", dict(scale=1.5), (sp.Rational(3, 10) - sp.I / 5,)),
    ("poincare-polydisk", dict(n=2, scale=2.0),
     (sp.Rational(1, 5) + sp.I / 10, -sp.Rational(1, 10) + sp.I / 5)),
])
def test_chart_jet_matches_exact_sympy(name, params, point):
    assert_jet_matches_exact(make_example(name, **params).field, point)


def test_bumped_polydisk_jet_matches_exact_sympy():
    point = (sp.Rational(3, 10) + sp.I / 10, -sp.Rational(1, 5) + sp.I * sp.Rational(3, 10))
    assert_jet_matches_exact(bumped_polydisk(), point)


def test_cube_graph_jet_matches_exact_sympy():
    """A rational power of a polynomial in a subset of the coordinates."""
    point = (sp.Rational(1, 5) + sp.I / 10, -sp.Rational(3, 10) + sp.I / 5)
    assert_jet_matches_exact(cube_graph_field(), point)


def test_chart_metric_is_hermitian_bit_for_bit():
    for field in chart_fields():
        points = field.geometry.sample_points(per_axis=3, radius_fraction=0.6)
        g = field.jet_at(points)[0]
        assert np.array_equal(g, np.conj(np.swapaxes(g, -1, -2)))
        g = field.metric_matrix_at(points[-1])
        assert np.array_equal(g, g.conj().T)


def reference_faa_di_bruno(n):
    """_faa_di_bruno's gather tables from sympy's multiset_partitions, which
    lists the set partitions of range(m) in the order the tables keep."""
    r = range(n)
    slots = [()] + [(i,) for i in r] + [(i, k) for i in r for k in r]
    slot, K = {s: m for m, s in enumerate(slots)}, len(slots)
    table, starts = [], []
    for entry in (e for m in (2, 3, 4) for e in itertools.product(r, repeat=m)):
        starts.append(len(table))
        for partition in multiset_partitions(list(range(len(entry)))):
            flat = [slot[tuple(sorted(entry[q] for q in block if q % 2 == 0))] * K
                    + slot[tuple(sorted(entry[q] for q in block if q % 2 == 1))]
                    for block in partition]
            table.append(flat + [K * K] * (4 - len(flat)) + [K * K + len(partition)])
    return np.array(table).T, np.array(starts)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_faa_di_bruno_tables_match_the_sympy_partition_reference(n):
    table, starts = _faa_di_bruno(n)
    want_table, want_starts = reference_faa_di_bruno(n)
    assert table.shape == want_table.shape and np.array_equal(table, want_table)
    assert starts.shape == want_starts.shape and np.array_equal(starts, want_starts)


def test_chart_batch_matches_single_points_bit_for_bit():
    for field in chart_fields():
        points = field.geometry.sample_points(per_axis=2, radius_fraction=0.6)
        points = points[: len(points) // 2 * 2].reshape(2, -1, field.n)
        batch = field.jet_at(points)
        assert batch[0].shape == points.shape[:2] + (field.n, field.n)
        for idx in np.ndindex(points.shape[:2]):
            for a, b in zip(batch, field.jet_at(points[idx])):
                assert np.array_equal(a[idx], b)


def test_charts_build_and_query_without_sympy_derivation(monkeypatch):
    calls = []

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    for name in ("diff", "lambdify"):
        monkeypatch.setattr(sp, name, counting(name, getattr(sp, name)))
    _component.cache_clear()  # every component is read afresh
    z = sp.symbols("z1:3")
    readme = ChartMetricField(ChartGeometry(2, (1.0, 1.0), margin=0.2),
                              [(sp.log(1 + X), z)], z)  # the README's Fubini-Study field
    for field in chart_fields() + [readme]:
        points = field.geometry.sample_points(per_axis=3, radius_fraction=0.5)
        field.jet_at(points)
        for p in points[:3]:
            field.metric_matrix_at(p)
            ricci_from_derivatives(*field.jet_at(p))
            hsc(field, p, np.eye(field.n)[0])
    assert calls == []


@pytest.mark.parametrize("n", [1, 2])
def test_scaled_charts_share_one_derivation_and_match_closed_forms(n):
    _component.cache_clear()
    e1 = np.eye(n)[0]
    for scale in (0.5, 1.3, 2.7):
        field = (make_example("poincare-disk", scale=scale) if n == 1 else
                 make_example("poincare-polydisk", n=n, scale=scale)).field
        points = field.geometry.sample_points(per_axis=3, radius_fraction=0.7)
        g = field.jet_at(points)[0]
        want = np.zeros(g.shape)
        want[..., range(n), range(n)] = scale / (1.0 - np.abs(points) ** 2) ** 2
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(want)
        for z in points:
            assert abs(hsc(field, z, e1) + 2.0 / scale) <= 1e-12 * 2.0 / scale
    assert _component.cache_info().misses == n  # one reading per component


def test_cold_and_warm_chart_derivations_give_the_same_jets():
    for name, params in (("fermat-chart", dict(degree=5)), ("fubini-study", dict(n=2)),
                         ("poincare-polydisk", dict(n=2, scale=1.7))):
        make_example(name, **params)  # the shape is in the memo
        warm = make_example(name, **params).field
        _component.cache_clear()
        cold = make_example(name, **params).field
        points = cold.geometry.sample_points(per_axis=3, radius_fraction=0.7)
        for a, b in zip(warm.jet_at(points), cold.jet_at(points)):
            assert np.array_equal(a, b)
