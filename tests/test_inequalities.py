"""Trace-inequality chain: reports, pointwise bounds, and the Laplacian identity.

The library differentiates S = tr_{omega'} omega in closed form; the
central-difference stencil below is the independent oracle it is checked
against.
"""

import itertools
import math

import numpy as np
import pytest
import sympy as sp

from kahlerbench.curvature import (
    constant_hsc_tensor,
    hsc_extremes_from_tensor,
    symmetry_violation,
)
from kahlerbench.errors import DimensionMismatch
from kahlerbench.fields import ChartMetricField, TorusMetricField
from kahlerbench.grids import ChartGeometry, TorusGrid
from kahlerbench.inequalities import (
    SchwarzHypotheses,
    conditioned_negative_tensor,
    laplacian_identity_check,
    make_report,
    max_principle_s_bound,
    not_applicable,
    random_kahler_tensor,
    ricci_term_margin,
    royden_margin,
    schwarz_conclusion_check,
)


def poincare_field(n=1, scale=1.0):
    zs = sp.symbols(f"z1:{n + 1}")
    zbs = sp.symbols(f"z1:{n + 1}bar")
    potential = -scale * sum(sp.log(1 - zs[i] * zbs[i]) for i in range(n))
    geo = ChartGeometry(n=n, radii=(1.0,) * n, margin=0.2)
    return ChartMetricField(geo, potential, zs, zbs)


def random_pd(n, rng, scale=0.3):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.eye(n) + scale * (A @ A.conj().T)


# -- finite-difference oracle ------------------------------------------------------


def fd_complex_hessian(fun, x0, h):
    """Central differences (error O(h^2)) for d^2 f / dz^i dzbar^j.

    fun takes the 2n real coordinates laid out (x_1, y_1, ..., x_n, y_n).
    """
    E = h * np.eye(x0.size)
    R = np.empty((x0.size, x0.size))
    for a, b in itertools.product(range(x0.size), repeat=2):
        if a == b:
            R[a, a] = (fun(x0 + E[a]) - 2.0 * fun(x0) + fun(x0 - E[a])) / h**2
        else:
            R[a, b] = (fun(x0 + E[a] + E[b]) - fun(x0 + E[a] - E[b])
                       - fun(x0 - E[a] + E[b]) + fun(x0 - E[a] - E[b])) / (4.0 * h**2)
    xx, yy, xy, yx = R[0::2, 0::2], R[1::2, 1::2], R[0::2, 1::2], R[1::2, 0::2]
    return 0.25 * (xx + yy + 1j * (xy - yx))


def fd_laplacian(fun, x0, gp, h, richardson=False):
    """tr(g'^-1 H) with H the stencil Hessian; Richardson-extrapolated on request."""
    lap = lambda step: float(np.trace(np.linalg.solve(gp, fd_complex_hessian(fun, x0, step))).real)
    return (4.0 * lap(h / 2.0) - lap(h)) / 3.0 if richardson else lap(h)


def trace_function(omega, omega_prime):
    """S(x) = tr_{omega'} omega at real coordinates x, from metric values only.

    Chart metrics are evaluated in closed form.  Torus metrics are known on
    the grid only, so each entry of g is interpolated trigonometrically,
    which is exact for band-limited potentials.
    """
    def metric(field):
        if isinstance(field, ChartMetricField):
            return lambda x: field.metric_matrix_at(x[0::2] + 1j * x[1::2])
        grid, n = field.grid, field.n
        spectra = [[grid.fft(field.g[..., i, j]) for j in range(n)] for i in range(n)]
        return lambda x: np.array([[grid.eval_spectral(F, x)[0] for F in row]
                                   for row in spectra])

    g_of, gp_of = metric(omega), metric(omega_prime)

    def s_of(x):
        return float(np.trace(np.linalg.solve(gp_of(x), g_of(x))).real)

    return s_of


def real_coords(point):
    z = np.asarray(point, dtype=complex).reshape(-1)
    return np.stack([z.real, z.imag], axis=-1).reshape(-1)


# -- report plumbing ---------------------------------------------------------------


def test_report_margin_and_status():
    r = make_report("demo", 2.0, 1.5, 0.1)
    assert r.margin == pytest.approx(0.5)
    assert r.passed and r.status == "pass"
    assert make_report("demo", 1.0, 1.5, 0.1).status == "fail"
    # two-sided checks fail on either side
    assert make_report("id", 1.0, 1.0, 1e-9, two_sided=True).passed
    assert not make_report("id", 2.0, 1.0, 1e-9, two_sided=True).passed


def test_not_applicable_reports_never_fail():
    r = not_applicable("demo", "hypothesis absent")
    assert r.passed and r.status == "not-applicable"
    assert math.isnan(r.margin)
    d = r.as_dict()
    assert d["margin"] is None and d["status"] == "not-applicable"
    assert d["note"] == "hypothesis absent"


def test_report_point_normalization():
    r = make_report("demo", 1.0, 0.0, 1e-9, point=[0.3 + 0.4j])
    assert r.point == (0.3, 0.4)
    r2 = make_report("demo", 1.0, 0.0, 1e-9, point=[0.1, 0.2])
    assert r2.point == (0.1, 0.2)
    assert r2.as_dict()["point"] == [0.1, 0.2]


def test_hypotheses_validate_signs():
    SchwarzHypotheses(kappa=0.5, lam=-1.0, mu=0.0)  # lam may be negative
    with pytest.raises(ValueError):
        SchwarzHypotheses(kappa=-0.1, lam=1.0)
    with pytest.raises(ValueError):
        SchwarzHypotheses(kappa=0.1, lam=1.0, mu=-2.0)


# -- curvature-term lower bound ------------------------------------------------------


def test_royden_margin_equality_n1():
    g = np.array([[2.5]], dtype=complex)
    R = constant_hsc_tensor(g, -0.7)
    r = royden_margin(R, g, g, kappa=0.7, tol=1e-12)
    assert r.status == "pass"
    assert r.margin == pytest.approx(0.0, abs=1e-12)


def test_royden_margin_equality_constant_hsc():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        g = random_pd(n, rng)
        R = constant_hsc_tensor(g, -1.3)
        r = royden_margin(R, g, g, kappa=1.3, tol=1e-11)
        assert r.margin == pytest.approx(0.0, abs=1e-11)


def test_royden_margin_conditioned_sweep():
    rng = np.random.default_rng(23)
    eye = np.eye(2, dtype=complex)
    for _ in range(15):
        R = conditioned_negative_tensor(2, rng, gap=0.5)
        kappa = -hsc_extremes_from_tensor(R, eye, 2000, 40).h_max
        assert kappa > 0.0
        gp = random_pd(2, rng)
        r = royden_margin(R, eye, gp, kappa)
        assert r.margin >= -1e-9, r.note


def test_royden_margin_rejects_negative_kappa():
    g = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        royden_margin(constant_hsc_tensor(g, -1.0), g, g, kappa=-0.2)


# -- Ricci-term lower bound -----------------------------------------------------------


def test_ricci_term_margin_equality_when_mu_zero():
    rng = np.random.default_rng(31)
    gp = random_pd(3, rng)
    lam = 0.8
    ric = -lam * gp
    r = ricci_term_margin(ric, gp, lam=lam, mu=0.0)
    assert r.status == "pass"
    assert r.margin == pytest.approx(0.0, abs=1e-12)


def test_ricci_term_margin_mu_gap_closes_for_round_metrics():
    gp = 2.0 * np.eye(2, dtype=complex)
    lam, mu = 0.5, 0.7
    ric = -lam * gp + mu * np.eye(2)
    r = ricci_term_margin(ric, gp, lam=lam, mu=mu)
    assert r.margin == pytest.approx(0.0, abs=1e-12)

    rng = np.random.default_rng(37)
    gp2 = random_pd(2, rng)
    r2 = ricci_term_margin(-lam * gp2 + mu * np.eye(2), gp2, lam=lam, mu=mu)
    assert r2.margin >= -1e-12  # Cauchy-Schwarz slack is one-sided


def test_ricci_term_margin_hypothesis_violation_is_not_applicable():
    gp = np.eye(2, dtype=complex)
    ric = -1.5 * gp
    r = ricci_term_margin(ric, gp, lam=1.0, mu=0.0)
    assert r.status == "not-applicable"
    assert "Ricci hypothesis fails" in r.note
    with pytest.raises(ValueError):
        ricci_term_margin(ric, gp, lam=2.0, mu=-0.5)


def test_ricci_term_margin_accepts_external_trace():
    gp = np.diag([1.0, 4.0]).astype(complex)
    ric = -0.3 * gp
    via_internal = ricci_term_margin(ric, gp, lam=0.3, mu=0.0)
    via_external = ricci_term_margin(ric, gp, lam=0.3, mu=0.0, S=1.25)
    assert via_external.rhs == pytest.approx(via_internal.rhs, abs=1e-14)


# -- Laplacian identity ---------------------------------------------------------------


@pytest.fixture(scope="module")
def torus_pair():
    grid = TorusGrid(2, 12)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    x1 = grid._axis_view(grid.axis_coords, 0)
    y1 = grid._axis_view(grid.axis_coords, 1)
    x2 = grid._axis_view(grid.axis_coords, 2)
    psi = 0.008 * np.broadcast_to(
        np.cos(2.0 * np.pi * x1)
        + np.cos(2.0 * np.pi * (y1 + x2))
        + np.sin(2.0 * np.pi * x2),
        grid.shape,
    ).copy()
    return omega, TorusMetricField(grid, psi)


def test_laplacian_identity_converges_at_second_order(torus_pair):
    omega, omega_p = torus_pair
    idx = (3, 5, 7, 1)
    point = omega.grid.coords(idx)
    identity, cs = laplacian_identity_check(omega, omega_p, idx)
    assert identity.point == cs.point == tuple(point)
    assert identity.status == "pass"
    assert identity.two_sided
    assert abs(identity.margin) <= 1e-10 * max(1.0, abs(identity.rhs))
    assert identity.tol == pytest.approx(1e-10 * max(1.0, abs(identity.rhs)))
    assert cs.status == "pass"
    # the stencil oracle converges to the exact Delta' S at second order
    s_of = trace_function(omega, omega_p)
    gp = omega_p.metric_matrix_at(idx)
    errs = [abs(fd_laplacian(s_of, point, gp, h) - identity.lhs) for h in (0.02, 0.01)]
    assert errs[0] / errs[1] > 3.5


def test_laplacian_identity_guards(torus_pair):
    omega, omega_p = torus_pair
    idx = (1, 2, 3, 4)
    with pytest.raises(ValueError, match="flat"):
        laplacian_identity_check(omega_p, omega_p, idx)
    with pytest.raises(TypeError):
        laplacian_identity_check(poincare_field(), poincare_field(), [0.1])
    other = TorusMetricField(TorusGrid(2, 8), np.zeros(TorusGrid(2, 8).shape))
    with pytest.raises(DimensionMismatch):
        laplacian_identity_check(omega, other, idx)
    # torus points are grid multi-indices
    with pytest.raises(TypeError, match="multi-index"):
        laplacian_identity_check(omega, omega_p, omega.grid.coords((1, 2, 3, 4)))
    for bad in ((1, 2, 3), (1, 2, 3, 4, 5)):
        with pytest.raises(DimensionMismatch):
            laplacian_identity_check(omega, omega_p, bad)


def test_cauchy_schwarz_holds_across_points(torus_pair):
    omega, omega_p = torus_pair
    for idx in ((0, 0, 0, 0), (5, 2, 9, 4), (11, 11, 3, 8)):
        _, cs = laplacian_identity_check(omega, omega_p, idx)
        assert cs.margin >= -1e-9


# -- assembled conclusion --------------------------------------------------------------


def test_schwarz_conclusion_on_negatively_curved_product():
    field = poincare_field(n=2, scale=2.0)
    hyp = SchwarzHypotheses(kappa=0.5, lam=1.0, mu=0.0)
    pts = field.geometry.sample_points(per_axis=2, radius_fraction=0.4)
    r = schwarz_conclusion_check(field, field, hyp, pts[0])
    assert r.status == "pass"
    assert r.margin >= 0.0


def test_schwarz_conclusion_equality_on_disk():
    field = poincare_field(n=1, scale=1.0)
    hyp = SchwarzHypotheses(kappa=2.0, lam=2.0, mu=0.0)
    r = schwarz_conclusion_check(field, field, hyp, [0.2 + 0.1j])
    assert r.status == "pass"
    assert abs(r.margin) < 1e-7  # equality case: identical metrics, S = n


def test_schwarz_conclusion_screens_hypotheses():
    grid = TorusGrid(1, 16)
    flat = TorusMetricField(grid, np.zeros(grid.shape))
    hyp = SchwarzHypotheses(kappa=0.5, lam=1.0, mu=0.0)
    r = schwarz_conclusion_check(flat, flat, hyp, (2, 3))
    assert r.status == "not-applicable"
    assert "HSC hypothesis fails" in r.note
    assert r.point == tuple(grid.coords((2, 3)))

    field = poincare_field(n=2, scale=2.0)
    weak = SchwarzHypotheses(kappa=0.5, lam=0.25, mu=0.0)  # needs lam >= 1
    r2 = schwarz_conclusion_check(field, field, weak, [0.1, 0.1])
    assert r2.status == "not-applicable"
    assert "Ricci hypothesis fails" in r2.note


def test_max_principle_ceiling():
    r = max_principle_s_bound(2.0 / 3.0, [1.7, 2.0, 0.4], n=2)
    assert r.status == "pass"
    assert r.margin == pytest.approx(0.0, abs=1e-12)  # sup S hits the ceiling

    assert max_principle_s_bound(0.0, [1.0], n=2).status == "not-applicable"
    assert max_principle_s_bound(-1.0, [1.0], n=2).status == "not-applicable"
    assert max_principle_s_bound(2.0 / 3.0, [2.5], n=2).status == "fail"
    with pytest.raises(ValueError):
        max_principle_s_bound(1.0, [], n=2)


# -- random tensor factories ------------------------------------------------------------


def test_random_tensors_have_curvature_symmetries():
    rng = np.random.default_rng(41)
    for n in (2, 3):
        R = random_kahler_tensor(n, rng)
        assert symmetry_violation(R) < 1e-12
        C = conditioned_negative_tensor(n, rng, gap=0.5)
        assert symmetry_violation(C) < 1e-12
        ext = hsc_extremes_from_tensor(C, np.eye(n, dtype=complex), 2000, 40)
        assert ext.h_max < -0.4
