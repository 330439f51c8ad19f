"""Trace-inequality chain: reports, pointwise bounds, and the Laplacian identity.

The library differentiates S = tr_{omega'} omega in closed form; the
central-difference stencil below is the independent oracle it is checked
against.
"""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import sympy as sp

from kahlerbench.curvature import (
    _symmetry_violations,
    constant_hsc_tensor,
    hsc_extremes_from_tensor,
)
from kahlerbench.errors import DimensionMismatch, PositivityLoss
from kahlerbench.fields import ChartMetricField, TorusMetricField
from kahlerbench.grids import ChartGeometry, TorusGrid
from kahlerbench.inequalities import (
    IDENTITY_RTOL,
    MARGIN_TOL,
    SchwarzHypotheses,
    _trace_jet,
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
from kahlerbench.linalg import PD_RTOL, hermitian, inv
from kahlerbench.zoo import _TORUS_MODES, perturbed_torus_potential, poincare_polydisk_terms


def poincare_field(n=1, scale=1.0):
    geo = ChartGeometry(n=n, radii=(1.0,) * n, margin=0.2)
    return ChartMetricField(geo, *poincare_polydisk_terms(n, scale))


def symmetry_violation(R):
    return float(np.max(_symmetry_violations(R)))


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
        spectra = [[np.fft.fftn(hermitian(field.g)[..., i, j]) for j in range(n)] for i in range(n)]
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
    assert r.status == "pass" and r.slack == pytest.approx(0.6)
    assert make_report("demo", 1.0, 1.5, 0.1).status == "fail"
    # two-sided checks fail on either side
    assert make_report("id", 1.0, 1.0, 1e-9, two_sided=True).status == "pass"
    assert make_report("id", 2.0, 1.0, 1e-9, two_sided=True).status == "fail"
    assert make_report("id", 0.0, 1.0, 1e-9, two_sided=True).status == "fail"
    # a NaN in an applicable check is a failure, never a pass
    assert make_report("demo", float("nan"), 0.0, 1.0).status == "fail"


def test_not_applicable_reports_never_fail():
    r = not_applicable("demo", "hypothesis absent")
    assert r.status == "not-applicable"
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
    r = royden_margin(R, g, g, kappa=0.7)
    assert r.status == "pass"
    assert r.margin == pytest.approx(0.0, abs=1e-12)


def test_royden_margin_equality_constant_hsc():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        g = random_pd(n, rng)
        R = constant_hsc_tensor(g, -1.3)
        r = royden_margin(R, g, g, kappa=1.3)
        assert r.margin == pytest.approx(0.0, abs=1e-11)


def test_royden_margin_conditioned_sweep():
    rng = np.random.default_rng(23)
    eye = np.eye(2, dtype=complex)
    for _ in range(15):
        R = conditioned_negative_tensor(2, rng, gap=0.5)
        kappa = -hsc_extremes_from_tensor(R, eye).h_max
        assert kappa > 0.0
        gp = random_pd(2, rng)
        r = royden_margin(R, eye, gp, kappa)
        assert r.margin >= -1e-9, r.note


def test_royden_margin_rejects_negative_kappa():
    g = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        royden_margin(constant_hsc_tensor(g, -1.0), g, g, kappa=-0.2)


def test_royden_margin_screens_both_metrics():
    g = np.eye(2, dtype=complex)
    R = constant_hsc_tensor(g, -1.0)
    with pytest.raises(PositivityLoss, match="g_prime"):
        royden_margin(R, g, np.diag([1.0, 1e-12]).astype(complex), kappa=1.0)
    with pytest.raises(PositivityLoss, match="^g not"):
        royden_margin(R, np.diag([1.0, -1.0]).astype(complex), g, kappa=1.0)


# -- eigenframe oracle for the trace-chain contractions ---------------------------------


def royden_frame_oracle(R, g, gp):
    """(lhs, S) of the curvature-term bound in a frame with T^H g T = I, T^H g' T = diag(d).

    The unbarred tensor slots contract the frame unconjugated, so the
    frame enters the contraction as conj(T).
    """
    Li = np.linalg.inv(np.linalg.cholesky(g))
    C = Li @ gp @ Li.conj().T
    d, U = np.linalg.eigh((C + C.conj().T) / 2.0)
    T = Li.conj().T @ U
    Tc = np.conj(T)
    Rt = np.einsum("ijkl,ia,jb,kc,ld->abcd", R, Tc, T, Tc, T)
    return -float((np.einsum("iikk->ik", Rt).real / np.outer(d, d)).sum()), float((1.0 / d).sum())


def ricci_frame_oracle(ric, gp):
    """(lhs, S) of the Ricci-term bound in an eigenframe g' = U diag(d) U^H (g = I)."""
    d, U = np.linalg.eigh(gp)
    ric_t = U.conj().T @ ric @ U
    return float((np.diag(ric_t).real / d**2).sum()), float((1.0 / d).sum())


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_chain_matches_eigenframe_oracle(n):
    rng = np.random.default_rng(100 + n)
    eye = np.eye(n)
    for _ in range(20):
        g, gp = random_pd(n, rng), random_pd(n, rng, scale=1.5)
        R = random_kahler_tensor(n, rng)
        kappa = float(rng.uniform(0.1, 2.0))
        report = royden_margin(R, g, gp, kappa)
        lhs, S = royden_frame_oracle(R, g, gp)
        assert report.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)
        assert report.rhs == pytest.approx((n + 1) * kappa / (2.0 * n) * S**2, rel=1e-12)

        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ric = (raw + raw.conj().T) / 2.0
        mu = float(rng.uniform(0.0, 0.5))
        lam = 0.1 - float(scipy.linalg.eigh(ric - mu * eye, gp, eigvals_only=True)[0])
        report = ricci_term_margin(ric, gp, lam, mu)
        assert report.applicable
        lhs, S = ricci_frame_oracle(ric, gp)
        assert report.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)
        assert report.rhs == pytest.approx(-lam * S + mu / n * S**2, rel=1e-12, abs=1e-12)


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


def test_ricci_term_margin_takes_the_trace_of_g_prime_inverse():
    gp = np.diag([1.0, 4.0]).astype(complex)
    ric = -0.3 * gp
    report = ricci_term_margin(ric, gp, lam=0.3, mu=0.0)
    assert report.rhs == pytest.approx(-0.3 * 1.25, abs=1e-14)  # S = 1 + 1/4
    assert "S=1.25 " in report.note


def test_ricci_term_margin_holds_g_prime_to_positivity():
    # Ric' + g' >= 0 holds here, so before this check the pair passed with S = -1
    with pytest.raises(PositivityLoss, match="^g_prime not"):
        ricci_term_margin(np.eye(2), np.diag([1.0, -0.5]), 1.0, 0.0)
    rng = np.random.default_rng(41)
    gp = np.stack([random_pd(2, rng) for _ in range(4)])
    gp[2] = np.diag([1.0, 0.5 * PD_RTOL])
    with pytest.raises(PositivityLoss, match="^g_prime not"):
        ricci_term_margin(-0.5 * gp, gp, 1.0, 0.0)


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


@pytest.fixture(scope="module")
def curved_torus_pair():
    grid = TorusGrid(2, 12)
    shifted = [(m, ph + 0.9, w) for (m, ph, w) in _TORUS_MODES[2]]
    return (TorusMetricField(grid, perturbed_torus_potential(grid, 0.008)),
            TorusMetricField(grid, perturbed_torus_potential(grid, 0.006, modes=shifted)))


@pytest.fixture(scope="module")
def chart_pair():
    """Criterion 06's pair: the scale-2 bidisk and its |z1 z2|^2 / 50 bump."""
    terms, z = poincare_polydisk_terms(2, 2.0)
    bump = (sp.Rational(1, 50) * sp.Symbol("x"), (z[0] * z[1],))
    geom = ChartGeometry(2, (1.0, 1.0), margin=0.25)
    return ChartMetricField(geom, terms, z), ChartMetricField(geom, terms + [bump], z)


def chart_points(rng, count):
    pts = rng.uniform(-0.4, 0.4, size=(count, 2, 2))
    return pts[..., 0] + 1j * pts[..., 1]


def assert_identity_holds(pairs):
    for identity, cs in pairs:
        assert identity.status == "pass" and identity.two_sided
        assert identity.tol == IDENTITY_RTOL * max(1.0, abs(identity.rhs))
        assert cs.status == "pass" and cs.tol == MARGIN_TOL


def test_laplacian_identity_holds_on_a_curved_torus_pair(curved_torus_pair):
    # Both metrics curved: all three Chern-Lu terms are live.
    omega, omega_p = curved_torus_pair
    indices = np.random.default_rng(5).integers(0, 12, size=(40, 4))
    pairs = laplacian_identity_check(omega, omega_p, indices)
    assert len(pairs) == 40
    assert_identity_holds(pairs)
    assert [identity.point for identity, _ in pairs] == [
        tuple(omega.grid.coords(idx)) for idx in indices]


def test_laplacian_identity_holds_on_a_chart_pair(chart_pair):
    omega, omega_p = chart_pair
    points = chart_points(np.random.default_rng(6), 30)
    pairs = laplacian_identity_check(omega, omega_p, points)
    assert len(pairs) == 30
    assert_identity_holds(pairs)
    # the stencil oracle of criterion 06 sees the same Delta' S
    s_of = trace_function(omega, omega_p)
    gp = omega_p.metric_matrix_at(points[0])
    fd = fd_laplacian(s_of, real_coords(points[0]), gp, 0.02, richardson=True)
    assert abs(fd - pairs[0][0].lhs) <= 1e-8


# -- a single point is a batch of one ---------------------------------------------------


def assert_same_report(batched, single):
    assert (batched.name, batched.status, batched.point) == (
        single.name, single.status, single.point)
    for a, b in ((batched.lhs, single.lhs), (batched.rhs, single.rhs),
                 (batched.margin, single.margin)):
        assert (math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-14 * max(1.0, abs(b))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_royden_margin_stack_is_its_points(n):
    rng = np.random.default_rng(60 + n)
    kappa = rng.uniform(0.2, 1.0, 6)
    R = conditioned_negative_tensor(n, rng, gap=kappa)
    g = np.stack([random_pd(n, rng) for _ in kappa])
    gp = np.stack([random_pd(n, rng, scale=1.5) for _ in kappa])
    stack = royden_margin(R, g, gp, kappa)
    assert len(stack) == 6
    for i, report in enumerate(stack):
        assert_same_report(report, royden_margin(R[i], g[i], gp[i], kappa[i]))
    # one ambient metric broadcasts over the stack
    shared = royden_margin(R, np.eye(n), gp, kappa)
    for i, report in enumerate(shared):
        assert_same_report(report, royden_margin(R[i], np.eye(n), gp[i], kappa[i]))


def test_conditioned_tensor_stack_has_the_stated_gaps():
    gap = np.array([[0.2, 0.5], [0.7, 1.0]])
    R = conditioned_negative_tensor(2, np.random.default_rng(8), gap=gap)
    assert R.shape == (2, 2, 2, 2, 2, 2)
    for idx in np.ndindex(gap.shape):
        h_max = hsc_extremes_from_tensor(R[idx], np.eye(2)).h_max
        assert h_max == pytest.approx(-gap[idx], abs=1e-12)


def test_ricci_term_margin_stack_is_its_points():
    rng = np.random.default_rng(70)
    gp = np.stack([random_pd(2, rng) for _ in range(5)])
    raw = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    ric = (raw + np.conj(np.swapaxes(raw, -1, -2))) / 2.0
    lam = np.array([3.0, 3.0, 0.0, 3.0, 3.0])  # the third violates the hypothesis
    stack = ricci_term_margin(ric, gp, lam, 0.1)
    assert [r.status for r in stack].count("not-applicable") >= 1
    for i, report in enumerate(stack):
        assert_same_report(report, ricci_term_margin(ric[i], gp[i], lam[i], 0.1))


def test_trace_jet_stack_is_its_points(curved_torus_pair, chart_pair):
    indices = np.random.default_rng(9).integers(0, 12, size=(8, 4))
    points = chart_points(np.random.default_rng(10), 5)
    for (omega, omega_p), stack in ((curved_torus_pair, indices), (chart_pair, points)):
        jet_p = omega_p.jet_at(stack)
        batched = _trace_jet(omega.jet_at(stack), jet_p, inv(jet_p[0]))
        for i, p in enumerate(stack):
            single = _trace_jet(omega.jet_at(p), omega_p.jet_at(p), inv(omega_p.jet_at(p)[0]))
            for a, b in zip(batched, single):
                assert abs(a[i] - b) <= 1e-14 * max(1.0, abs(b))


def test_laplacian_identity_stack_is_its_points(curved_torus_pair, chart_pair):
    indices = np.random.default_rng(11).integers(0, 12, size=(6, 4))
    points = chart_points(np.random.default_rng(12), 4)
    for (omega, omega_p), stack in ((curved_torus_pair, indices), (chart_pair, points)):
        for pair, p in zip(laplacian_identity_check(omega, omega_p, stack), stack):
            for batched, single in zip(pair, laplacian_identity_check(omega, omega_p, p)):
                assert_same_report(batched, single)


def test_schwarz_conclusion_stack_is_its_points(chart_pair):
    omega, omega_bumped = chart_pair
    points = chart_points(np.random.default_rng(13), 6)
    for hyp in (SchwarzHypotheses(kappa=0.5, lam=1.2, mu=0.0),
                SchwarzHypotheses(kappa=0.6, lam=1.2, mu=0.0)):  # screened out
        stack = schwarz_conclusion_check(omega, omega_bumped, hyp, points)
        assert len(stack) == 6
        for report, p in zip(stack, points):
            assert_same_report(report, schwarz_conclusion_check(omega, omega_bumped, hyp, p))
    grid = TorusGrid(1, 16)
    flat = TorusMetricField(grid, np.zeros(grid.shape))
    hyp = SchwarzHypotheses(kappa=0.5, lam=1.0, mu=0.0)
    indices = [(2, 3), (0, 0), (15, 7)]
    for report, idx in zip(schwarz_conclusion_check(flat, flat, hyp, indices), indices):
        assert_same_report(report, schwarz_conclusion_check(flat, flat, hyp, idx))


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
        ext = hsc_extremes_from_tensor(C, np.eye(n, dtype=complex))
        assert ext.h_max < -0.4
