"""Tests for the example gallery and its self-verifying facts."""

import numpy as np
import pytest
import sympy as sp

from kahlerbench import zoo
from kahlerbench.curvature import curvature_from_derivatives
from kahlerbench.errors import DimensionMismatch, PositivityLoss
from kahlerbench.fields import ChartMetricField, TorusMetricField
from kahlerbench.grids import ChartGeometry, TorusGrid
from kahlerbench.linalg import hermitian
from kahlerbench.zoo import (
    Fact,
    chart_symbols,
    fubini_study_terms,
    list_examples,
    make_example,
    perturbed_torus_potential,
    poincare_polydisk_terms,
    verify_example_facts,
    verify_fact,
)

from exact_chart import exact_hsc, exact_ricci_ratio


def make_fact(mode, oracle, measured, tol=0.0):
    return Fact(
        name="synthetic", provenance="test", mode=mode, tol=tol,
        oracle=oracle, measure=lambda f: measured,
    )


# -- verify_fact mechanics ----------------------------------------------------


def test_verify_fact_equal_mode_respects_tolerance():
    assert verify_fact(make_fact("equal", 1.0, 1.0 + 5e-9, tol=1e-8), None)["ok"]
    assert not verify_fact(make_fact("equal", 1.0, 1.0 + 2e-8, tol=1e-8), None)["ok"]


def test_verify_fact_weak_inequalities_use_tol_as_slack():
    # ge passes when measured dips below the oracle by at most tol
    assert verify_fact(make_fact("ge", 2.0, 2.0 - 5e-7, tol=1e-6), None)["ok"]
    assert not verify_fact(make_fact("ge", 2.0, 2.0 - 2e-6, tol=1e-6), None)["ok"]
    assert verify_fact(make_fact("le", 2.0, 2.0 + 5e-7, tol=1e-6), None)["ok"]
    assert not verify_fact(make_fact("le", 2.0, 2.0 + 2e-6, tol=1e-6), None)["ok"]


def test_verify_fact_strict_inequalities_ignore_tol():
    assert verify_fact(make_fact("lt", 0.0, -1e-300, tol=5.0), None)["ok"]
    assert not verify_fact(make_fact("lt", 0.0, 0.0, tol=5.0), None)["ok"]
    assert verify_fact(make_fact("gt", 0.0, 1e-300, tol=5.0), None)["ok"]
    assert not verify_fact(make_fact("gt", 0.0, 0.0, tol=5.0), None)["ok"]


def test_verify_fact_unknown_mode_rejected():
    with pytest.raises(ValueError, match="mode"):
        verify_fact(make_fact("approx", 0.0, 0.0), None)


def test_verify_fact_report_is_self_describing():
    row = verify_fact(make_fact("equal", 3.0, 3.0, tol=1e-12), None)
    assert set(row) == {"fact", "provenance", "mode", "oracle", "measured",
                        "tol", "ok"}
    assert row["oracle"] == 3.0
    assert row["measured"] == 3.0
    assert row["ok"] is True


# -- registry -----------------------------------------------------------------


def test_list_examples_is_sorted_and_complete():
    names = list_examples()
    assert names == sorted(names)
    assert names == ["fermat-chart", "flat-torus", "fubini-study",
                     "perturbed-torus", "poincare-disk", "poincare-polydisk"]


def test_make_example_unknown_name_lists_alternatives():
    with pytest.raises(KeyError, match="flat-torus"):
        make_example("moebius-strip")


@pytest.mark.parametrize("name", ["fermat-chart", "flat-torus", "fubini-study",
                                  "perturbed-torus", "poincare-disk",
                                  "poincare-polydisk"])
def test_every_example_passes_its_own_facts(name):
    example = make_example(name)
    rows = verify_example_facts(example)
    assert rows, "every example must carry at least one fact"
    for row in rows:
        assert row["ok"], f"{name}: fact {row['fact']} failed ({row})"


def test_perturbed_torus_sweeps_each_field_once(monkeypatch):
    import kahlerbench.curvature as curvature

    example = make_example("perturbed-torus", n=2, resolution=8)
    points = list(curvature.default_sweep_points(example.field, max_points=64))
    calls = []
    jet_at = TorusMetricField.jet_at

    def counting(field, index):
        calls.append(list(index))
        return jet_at(field, index)

    monkeypatch.setattr(TorusMetricField, "jet_at", counting)
    rows = verify_example_facts(example)
    assert all(row["ok"] for row in rows)
    assert calls == [points]  # the sign facts share one batched sweep


def test_flat_torus_facts_are_exact():
    rows = verify_example_facts(make_example("flat-torus"))
    by_name = {r["fact"]: r for r in rows}
    assert by_name["curvature-vanishes"]["measured"] == 0.0
    assert by_name["volume-unit"]["measured"] == 1.0


@pytest.mark.parametrize("n, N", [(1, 16), (2, 8)])
def test_flat_curvature_fact_reads_every_grid_point(n, N):
    # on a curved field the fact's measure, R from jet_at at every grid
    # index, is max|R| of the full-grid jets, so a route reading zeros fails
    grid = TorusGrid(n, N)
    field = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    fact, = (f for f in make_example("flat-torus", n=n, resolution=N).facts
             if f.name == "curvature-vanishes")
    R = curvature_from_derivatives(hermitian(field.g), *grid.hessian_jets(field.psi))
    assert fact.measure(field) == pytest.approx(np.max(np.abs(R)), rel=1e-14, abs=0.0)
    assert not verify_fact(fact, field)["ok"]


def test_scale_must_be_positive():
    with pytest.raises(ValueError, match="scale"):
        make_example("poincare-disk", scale=-1.0)
    with pytest.raises(ValueError, match="scale"):
        make_example("poincare-polydisk", scale=0.0)


def test_fermat_low_degree_carries_a_warning():
    assert make_example("fermat-chart").warnings == ()
    warned = make_example("fermat-chart", degree=3)
    assert len(warned.warnings) == 1
    assert "degree 3" in warned.warnings[0]
    with pytest.raises(ValueError, match="degree"):
        make_example("fermat-chart", degree=0)


# -- torus potential recipes --------------------------------------------------


def test_perturbed_potential_amplitude_cap():
    grid = TorusGrid(1, 32)
    TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    with pytest.raises(PositivityLoss) as err:
        TorusMetricField(grid, perturbed_torus_potential(grid, 0.05))
    assert err.value.min_eigenvalue < 0.0


def test_perturbed_potential_rejects_misshapen_modes():
    grid = TorusGrid(2, 16)
    with pytest.raises(DimensionMismatch):
        perturbed_torus_potential(grid, 0.01, modes=[((1, 0), 0.0, 1.0)])


def test_perturbed_potential_is_deterministic_and_scales_linearly():
    grid = TorusGrid(1, 16)
    a = perturbed_torus_potential(grid, 0.01)
    b = perturbed_torus_potential(grid, 0.01)
    c = perturbed_torus_potential(grid, 0.02)
    assert np.array_equal(a, b)
    assert np.allclose(c, 2.0 * a, rtol=0.0, atol=1e-15)


# -- closed-form oracles against the exact route ----------------------------


def chart_field(terms, z):
    """A chart field built from gallery terms, for the exact route."""
    return ChartMetricField(ChartGeometry(len(z), (1.0,), margin=0.2), terms, z)


def test_chart_symbols_are_distinct():
    z = chart_symbols(3)
    field = chart_field(*poincare_polydisk_terms(3, 1.0))
    assert field.z == z and len(field.zbar) == 3
    assert len(set(z) | set(field.zbar)) == 6
    assert field.potential.free_symbols == set(z) | set(field.zbar)


def test_symbolic_hsc_closed_forms():
    pt = (sp.Rational(3, 10) + sp.I * sp.Rational(1, 10),)
    field = chart_field(*poincare_polydisk_terms(1, 2.0))
    assert exact_hsc(field, pt, [1.0]) == pytest.approx(-1.0, abs=1e-12)

    field = chart_field(*fubini_study_terms(1))
    assert exact_hsc(field, pt, [1.0]) == pytest.approx(2.0, abs=1e-12)

    # the -2/n extremum needs equal *metric* weights across the factors,
    # i.e. eta_i proportional to 1 - |z_i|^2, not equal coefficients
    pt2 = (sp.Rational(1, 5), -sp.Rational(1, 10) + sp.I * sp.Rational(1, 5))
    field = chart_field(*poincare_polydisk_terms(2, 1.0))
    balanced = np.array([1.0 - 0.04, 1.0 - 0.05])
    assert exact_hsc(field, pt2, balanced) == pytest.approx(-1.0, abs=1e-12)


def test_symbolic_ricci_ratio_matches_einstein_constants():
    pt = (sp.Rational(1, 4) - sp.I * sp.Rational(1, 8),)
    field = chart_field(*poincare_polydisk_terms(1, 1.0))
    assert exact_ricci_ratio(field, pt) == pytest.approx(-2.0, abs=1e-12)

    field = chart_field(*fubini_study_terms(1))
    assert exact_ricci_ratio(field, pt) == pytest.approx(2.0, abs=1e-12)


def _hsc_along(direction):
    """The exact H at a point along direction(point)."""
    return lambda field, z: exact_hsc(field, z, direction(z))


def _first_axis(z):
    return np.eye(len(z))[0]


def _balanced(z):
    """The polydisk's equal-weight direction: eta_i proportional to 1 - |z_i|^2."""
    return 1.0 - np.abs(z) ** 2


# each chart example's fact point, and per fact the exact quantity its
# closed-form oracle stands for
CLOSED_FORM_FACTS = {
    "poincare-disk": (zoo._DISK_POINT, {"hsc-constant": _hsc_along(_first_axis),
                                        "einstein-ratio": exact_ricci_ratio}),
    "poincare-polydisk": (zoo._POLYDISK_POINT,
                          {"hsc-factor-direction": _hsc_along(_first_axis),
                           "hsc-max-diagonal": _hsc_along(_balanced)}),
    "fubini-study": (zoo._FS_POINT, {"hsc-constant": _hsc_along(_first_axis)}),
}


@pytest.mark.parametrize("name, params", [
    ("poincare-disk", dict(scale=1.0)),            # the CLI's parameters
    ("poincare-disk", dict(scale=0.7)),
    ("poincare-polydisk", dict(n=2, scale=2.0)),   # the CLI's parameters
    ("poincare-polydisk", dict(n=2, scale=1.3)),
    ("poincare-polydisk", dict(n=3, scale=0.8)),
    ("fubini-study", dict(n=2)),                   # the CLI's parameters
    ("fubini-study", dict(n=3)),
], ids=["disk-s1", "disk-s0.7", "polydisk-n2-s2", "polydisk-n2-s1.3", "polydisk-n3-s0.8",
        "fubini-study-n2", "fubini-study-n3"])
def test_closed_form_oracles_equal_the_exact_route(name, params):
    example = make_example(name, **params)
    base, exact = CLOSED_FORM_FACTS[name]
    point = np.array(base[:example.field.n])
    oracles = {fact.name: fact.oracle for fact in example.facts}
    for fact, value in exact.items():
        assert abs(oracles[fact] - value(example.field, point)) <= 1e-12, fact
    rows = verify_example_facts(example)
    assert all(row["ok"] for row in rows), rows
