"""Wedge integrals, the eps-expansion of path volumes, and volume floors."""

import dataclasses
import math

import numpy as np
import pytest

from kahlerbench.errors import DimensionMismatch
from kahlerbench.fields import TorusMetricField
from kahlerbench.grids import TorusGrid
from kahlerbench.integrals import (
    bigness_bound_report,
    epsilon_expansion_check,
    fit_epsilon_expansion,
    mixed_determinants,
    nef_lower_bound_check,
    volume,
    wedge_integral,
)
from kahlerbench.linalg import components, elementary_symmetric_field, relative_eigenvalues_field
from kahlerbench.solver import continuity_path


def cosine_potential(grid, amplitude, axis=0, k=1):
    t = grid._axis_view(grid.axis_coords, axis)
    return amplitude * np.broadcast_to(np.cos(2.0 * np.pi * k * t), grid.shape).copy()


# -- mixed determinants ----------------------------------------------------------------


def test_mixed_determinants_diagonal_oracle():
    A = np.diag([2.0, 3.0]).astype(complex)
    B = np.diag([5.0, 7.0]).astype(complex)
    D = mixed_determinants(components(A), components(B))
    assert np.allclose(D, [35.0, 29.0, 6.0], atol=1e-12)


def test_mixed_determinants_generate_char_poly():
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A, B = X @ X.conj().T, np.eye(n) + 0.2 * (Y @ Y.conj().T)
        D = mixed_determinants(components(A), components(B))
        for t in (0.0, 0.7, 2.3):
            want = np.linalg.det(t * A + B).real
            got = sum(D[k] * t**k for k in range(n + 1))
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("rank", [1, 2])
def test_mixed_determinants_n3_with_singular_a(rank):
    # adj A enters D_2 = tr(adj A B) without any division by det A = 0
    rng = np.random.default_rng(14 + rank)
    X = rng.standard_normal((3, rank)) + 1j * rng.standard_normal((3, rank))
    Y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A, B = X @ X.conj().T, np.eye(3) + 0.2 * (Y @ Y.conj().T)
    D = mixed_determinants(components(A), components(B))
    scale = np.abs(np.linalg.eigvalsh(A)).max() + np.abs(np.linalg.eigvalsh(B)).max()
    assert abs(D[3]) <= 1e-13 * scale**3
    if rank == 1:
        assert abs(D[2]) <= 1e-13 * scale**3  # adj A = 0
    for t in (0.0, 0.7, 2.3):
        want = np.linalg.det(t * A + B).real
        assert sum(D[k] * t**k for k in range(4)) == pytest.approx(want, rel=1e-12)


def test_mixed_determinants_guards():
    with pytest.raises(DimensionMismatch):
        mixed_determinants(components(np.eye(2)), components(np.eye(3)))
    with pytest.raises(DimensionMismatch):
        mixed_determinants(np.ones(16), np.ones(16))  # n = 4


def test_mixed_determinants_match_eigenvalue_route():
    grid = TorusGrid(2, 8)
    psi = cosine_potential(grid, 0.004) + cosine_potential(grid, 0.003, axis=3)
    field = TorusMetricField(grid, psi)
    g_eps = 0.5 * field.g + 0.25 * np.eye(2).reshape((4,) + (1,) * 4)
    D = mixed_determinants(g_eps, field.g)
    lam = relative_eigenvalues_field(field.g, g_eps)
    e = elementary_symmetric_field(lam)
    want = field.det_g[..., None] * e
    assert np.max(np.abs(D - want)) < 1e-12


# -- wedge integrals ---------------------------------------------------------------------


def test_wedge_integral_flat_powers():
    grid = TorusGrid(2, 8)
    flat = TorusMetricField(grid, np.zeros(grid.shape))
    eye = np.broadcast_to(np.eye(2).reshape((4,) + (1,) * 4), (4,) + grid.shape)
    for k in range(3):
        assert wedge_integral(flat.g, flat.g, k) == pytest.approx(1.0, abs=1e-14)
        got = wedge_integral(0.3 * eye, flat.g, k)
        assert got == pytest.approx(0.3**k, rel=1e-13)
    with pytest.raises(ValueError):
        wedge_integral(flat.g, flat.g, 3)
    with pytest.raises(DimensionMismatch):
        other = TorusMetricField(TorusGrid(2, 16), np.zeros(TorusGrid(2, 16).shape))
        wedge_integral(flat.g, other.g, 1)


def test_wedge_integral_ignores_ddc_shifts():
    grid = TorusGrid(2, 32)
    psi_a = cosine_potential(grid, 0.005) + cosine_potential(grid, 0.004, axis=2)
    A = TorusMetricField(grid, psi_a)
    B = TorusMetricField(grid, np.zeros(grid.shape))
    shift = cosine_potential(grid, 0.006, axis=1) + cosine_potential(
        grid, 0.002, axis=3, k=2)
    B_shifted = TorusMetricField(grid, shift)
    for k in range(3):
        base = wedge_integral(A.g, B.g, k)
        moved = wedge_integral(A.g, B_shifted.g, k)
        assert abs(base - moved) < 1e-10


def test_volume_is_a_class_invariant():
    grid = TorusGrid(2, 16)
    flat = TorusMetricField(grid, np.zeros(grid.shape))
    assert volume(flat) == 1.0
    bumped = TorusMetricField(grid, cosine_potential(grid, 0.01)
                              + cosine_potential(grid, 0.008, axis=3))
    assert volume(bumped) == pytest.approx(1.0, abs=1e-12)


# -- eps-expansion fits --------------------------------------------------------------------


def test_fit_recovers_polynomial():
    eps = [1.0, 0.8, 0.6, 0.4, 0.2, 0.1]
    vals = [3.0 - 2.0 * e + 0.5 * e**2 for e in eps]
    coeffs, cond, resid = fit_epsilon_expansion(eps, vals, degree=2)
    assert np.allclose(coeffs, [3.0, -2.0, 0.5], atol=1e-10)
    assert cond < 100.0
    assert resid < 1e-12


def test_fit_guards():
    with pytest.raises(ValueError, match="at least"):
        fit_epsilon_expansion([1.0, 0.5], [1.0, 0.5], degree=2)
    with pytest.raises(DimensionMismatch):
        fit_epsilon_expansion([1.0, 0.5, 0.25], [1.0, 0.5], degree=1)
    clustered = [1.0, 1.0 - 1e-9, 1.0 - 2e-9, 1.0 - 3e-9]
    with pytest.raises(ValueError, match="ill-conditioned"):
        fit_epsilon_expansion(clustered, [1.0] * 4, degree=2)


@pytest.fixture(scope="module")
def flat_path():
    grid = TorusGrid(1, 16)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    return omega, continuity_path(omega, [1.0, 0.75, 0.5, 0.375, 0.25])


def test_expansion_on_flat_path(flat_path):
    omega, path = flat_path
    report = epsilon_expansion_check(path, omega)
    assert report.values == pytest.approx([s.epsilon for s in path], rel=1e-12)
    assert abs(report.coefficients[0]) < 1e-10  # class pieces below the top vanish
    assert report.coefficients[1] == pytest.approx(1.0, abs=1e-10)
    assert report.implied_class_integrals[-1] == pytest.approx(1.0, abs=1e-10)
    assert report.reference_volume == 1.0
    assert report.fit_residual < 1e-12
    assert set(dataclasses.asdict(report)) >= {"coefficients", "condition_number", "note"}


def test_expansion_detects_injected_constant(flat_path):
    omega, path = flat_path
    # sigma_n + 0.01 adds 0.01 * volume(omega) = 0.01 to W_n
    shifted = [dataclasses.replace(s, wedge_integrals=(*s.wedge_integrals[:-1],
                                                       s.wedge_integrals[-1] + 0.01))
               for s in path]
    report = epsilon_expansion_check(shifted, omega)
    assert report.coefficients[0] == pytest.approx(0.01, abs=1e-8)


# -- volume floors ----------------------------------------------------------------------


def test_bigness_report_not_applicable_without_floor(flat_path):
    omega, path = flat_path
    for kappa0 in (0.0, -0.3):
        rep = bigness_bound_report(kappa0, omega, path)
        assert not rep.applicable
        assert rep.per_state[0].status == "not-applicable"
        assert rep.extrapolated.status == "not-applicable"
        assert rep.kappa0 == kappa0


def test_bigness_synthetic_equality(flat_path):
    omega, path = flat_path
    kappa0 = 0.8
    c = ((omega.n + 1) * kappa0 / 2.0) ** omega.n
    # sigma_n = c everywhere gives W_n = c * volume(omega)
    pinned = [dataclasses.replace(s, wedge_integrals=(*s.wedge_integrals[:-1],
                                                      c * volume(omega)))
              for s in path]
    rep = bigness_bound_report(kappa0, omega, pinned)
    assert rep.applicable
    for r in rep.per_state:
        assert r.status == "pass"
        assert r.margin == pytest.approx(0.0, abs=1e-12)
    assert rep.extrapolated.status == "pass"
    assert rep.extrapolated.margin == pytest.approx(0.0, abs=1e-9)


def test_bigness_extrapolation_needs_states(flat_path):
    omega, path = flat_path
    rep = bigness_bound_report(0.8, omega, path[:2])
    assert rep.applicable
    assert rep.extrapolated.status == "not-applicable"
    assert "states" in rep.extrapolated.note


# -- nef wedge bounds ---------------------------------------------------------------------


def test_nef_bound_flat_closed_form(flat_path):
    grid = TorusGrid(2, 8)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    path = continuity_path(omega, [1.0, 0.5, 0.25])
    reports = nef_lower_bound_check(path, omega)
    assert len(reports) == len(path) * omega.n
    i = 0
    for s in path:
        for k in range(1, omega.n + 1):
            r = reports[i]
            # flat family: lhs = eps^k, ceiling C = 1, rhs = eps^n
            assert r.lhs == pytest.approx(s.epsilon**k, rel=1e-12)
            assert r.rhs == pytest.approx(s.epsilon**omega.n, rel=1e-12)
            assert r.status == "pass"
            if k == omega.n:
                assert r.margin == pytest.approx(0.0, abs=1e-14)
            i += 1


def test_nef_bound_explicit_ceilings(flat_path):
    # exp(log C) underflows to 0 for a very negative recorded log C: no
    # ceiling, so the state's row is not-applicable rather than a failure.
    omega, path = flat_path
    underflow = dataclasses.replace(path[0], log_c_bound=-1e4)
    reports = nef_lower_bound_check([underflow, path[1]], omega)
    assert reports[0].status == "not-applicable"
    assert "ceiling 0 <= 0" in reports[0].note
    assert len(reports) == 1 + omega.n
    assert all(r.status == "pass" for r in reports[1:])


def test_nef_bound_on_perturbed_path():
    grid = TorusGrid(1, 32)
    omega = TorusMetricField(grid, cosine_potential(grid, 0.05))
    path = continuity_path(omega, [1.0, 0.5, 0.25], tol=1e-10)
    for r in nef_lower_bound_check(path, omega):
        assert r.margin >= -1e-8, r.note
