"""Acceptance suite: ten end-to-end checks of the workbench, each printing
a single verdict line.

Every check freezes its configuration (grids, seeds, schedules, tolerances)
so the printed numbers are reproducible run to run.  The checks exercise:
manufactured-solution recovery, the flat-background closed form, identity
residuals under grid refinement, the eigenvalue-inequality sweep, the
curvature-trace bound, the log-trace differential inequality against a
finite-difference oracle, the exact Laplacian identity and the oracle's
second-order convergence to it, exactness of wedge pairings, per-state wedge floors, and honest not-applicable reporting.
"""

import time

import numpy as np
import pytest
import sympy as sp

from kahlerbench.curvature import constant_hsc_tensor, hsc_extremes_from_tensor, kappa_floor
from kahlerbench.fields import ChartMetricField, TorusMetricField
from kahlerbench.grids import ChartGeometry, TorusGrid
from kahlerbench.inequalities import (
    SchwarzHypotheses,
    conditioned_negative_tensor,
    laplacian_identity_check,
    max_principle_s_bound,
    royden_margin,
    schwarz_conclusion_check,
)
from kahlerbench.integrals import (
    bigness_bound_report,
    epsilon_expansion_check,
    nef_lower_bound_check,
    volume,
    wedge_integral,
)
from kahlerbench.linalg import hermitian, newton_maclaurin_margin_field
from kahlerbench.solver import continuity_path, manufactured_problem, solve_ma
from kahlerbench.zoo import (
    _TORUS_MODES,
    make_example,
    perturbed_torus_potential,
    poincare_polydisk_terms,
    verify_example_facts,
)

from test_inequalities import fd_laplacian, real_coords, trace_function
from test_solver import rough_torus_potential


def verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion-{num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def perturbed_path():
    """Shared two-dimensional shrinking-coefficient run for checks 8-10."""
    grid = TorusGrid(2, 12)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.008))
    eps = [0.6**j for j in range(6)]
    states = continuity_path(omega, eps, tol=1e-10)
    return grid, omega, states


def test_criterion_01_manufactured_solution_recovery():
    """Newton solves recover a known potential to sup-norm 1e-8 in budget."""
    results = []
    for n, N, amp, budget in ((1, 32, 0.01, 5.0), (2, 16, 0.008, 60.0)):
        grid = TorusGrid(n, N)
        v_star = perturbed_torus_potential(grid, amp)
        t0 = time.perf_counter()
        v, info = solve_ma(manufactured_problem(grid, v_star), tol=1e-10,
                           return_info=True)
        elapsed = time.perf_counter() - t0
        err = float(np.max(np.abs(v - v_star)))
        results.append((n, N, err, elapsed, budget, info["newton_steps"]))
    ok = all(err <= 1e-8 and t < budget for _, _, err, t, budget, _ in results)
    detail = "; ".join(
        f"n={n} N={N}: sup err {err:.2e} in {t:.2f}s (<{budget:.0f}s)"
        for n, N, err, t, budget, _ in results)
    assert verdict(1, ok, detail)


def test_criterion_02_flat_background_closed_form():
    """On a flat background the path solution is u = n log(eps) exactly and
    stays below the volume-ratio ceiling."""
    drifts, ceilings = [], []
    for n, N in ((1, 16), (2, 8)):
        grid = TorusGrid(n, N)
        omega = TorusMetricField(grid, np.zeros(grid.shape))
        states = continuity_path(omega, [0.5**j for j in range(10)], tol=1e-12)
        drifts.append(max(float(np.max(np.abs(
            s.v - omega.log_det_g - n * np.log(s.epsilon)))) for s in states))
        ceilings.append(max(s.sup_u - s.log_c_bound for s in states))
    ok = max(drifts) <= 1e-10 and max(ceilings) <= 1e-12
    assert verdict(
        2, ok,
        f"sup|u - n log eps| {max(drifts):.2e} (tol 1e-10) over 10-step "
        f"schedules, n in {{1,2}}; max(sup u - log C) {max(ceilings):.2e}")


def test_criterion_03_ricci_identity_residual_refines():
    """The solved-state Ricci identity residual is small at N=64 and drops
    by >= 10x at N=128 on a potential with slowly decaying spectrum."""
    residual = {}
    for N in (64, 128):
        grid = TorusGrid(1, N)
        omega = TorusMetricField(
            grid, rough_torus_potential(grid, 0.002, sharpness=0.25))
        (state,) = continuity_path(omega, [1.0], tol=1e-10)
        residual[N] = state.ricci_residual_sup
    ratio = residual[64] / residual[128]
    ok = residual[64] <= 1e-6 and ratio >= 10.0
    assert verdict(
        3, ok,
        f"residual {residual[64]:.3e} at N=64 (tol 1e-6), "
        f"{residual[128]:.3e} at N=128, ratio {ratio:.1f} (>= 10)")


def test_criterion_04_eigenvalue_inequality_sweep():
    """10^5 random eigenvalue tuples satisfy the symmetric-mean chain to
    -1e-12; equality is flagged exactly for near-equal tuples."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = np.inf
    for n in (2, 3):
        lam = np.exp(rng.normal(0.0, 1.0, size=(50_000, n)))
        for k in range(1, n):
            worst = min(worst, float(newton_maclaurin_margin_field(lam, k).min()))
    elapsed = time.perf_counter() - t0

    # margins scale like spread^2, so a 2e-13 threshold separates relative
    # spreads of 1e-7 (equality) from 1e-5 (strict inequality)
    threshold = 2e-13
    detection_ok = True
    for n, pattern in ((2, [-1.0, 1.0]), (3, [-1.0, 0.0, 1.0])):
        u = np.array(pattern)
        for spread, expect_equal in ((1e-7, True), (1e-5, False)):
            base = np.exp(rng.normal(0.0, 0.5, size=(10_000, 1)))
            lam = base * (1.0 + (spread / 2.0) * u)
            per_tuple = np.max(
                [np.abs(newton_maclaurin_margin_field(lam, k))
                 for k in range(1, n)], axis=0)
            flagged_equal = per_tuple < threshold
            detection_ok &= bool(np.all(flagged_equal == expect_equal))

    ok = worst >= -1e-12 and elapsed < 5.0 and detection_ok
    assert verdict(
        4, ok,
        f"min margin {worst:.3e} over 1e5 tuples (n in {{2,3}}) in "
        f"{elapsed:.2f}s (<5s); equality detection at spread 1e-6 "
        f"{'correct' if detection_ok else 'WRONG'}")


def test_criterion_05_curvature_trace_lower_bound():
    """1e3 negatively-curved random tensors (n=2) with brute-forced kappa
    satisfy the trace lower bound; both equality models sit at zero."""
    rng = np.random.default_rng(314)
    min_margin = np.inf
    trials = 0
    for _ in range(1000):
        R = conditioned_negative_tensor(2, rng, gap=float(rng.uniform(0.2, 1.0)))
        ext = hsc_extremes_from_tensor(R, np.eye(2))
        kappa = -ext.h_max
        if kappa < 0.0:
            continue
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g_prime = np.eye(2) + 0.3 * A @ A.conj().T
        report = royden_margin(R, np.eye(2), g_prime, kappa)
        min_margin = min(min_margin, report.margin)
        trials += 1

    exact_line = royden_margin(np.full((1, 1, 1, 1), -0.7, dtype=complex),
                               np.eye(1), np.eye(1), 0.7)
    model = constant_hsc_tensor(np.eye(2, dtype=complex), -1.3)
    ext = hsc_extremes_from_tensor(model, np.eye(2))
    constant_h = royden_margin(model, np.eye(2), np.eye(2), -ext.h_max)
    eq_worst = max(abs(exact_line.margin), abs(constant_h.margin))

    ok = trials == 1000 and min_margin >= -1e-9 and eq_worst <= 1e-12
    assert verdict(
        5, ok,
        f"min margin {min_margin:.3e} over {trials} tensors (tol -1e-9); "
        f"equality cases |margin| <= {eq_worst:.1e} (tol 1e-12)")


def test_criterion_06_log_trace_conclusion():
    """The log-trace differential inequality holds at 100 interior chart
    points with a bumped comparison metric; the one-dimensional constant
    curvature case degenerates to 0 >= 0."""
    terms, z = poincare_polydisk_terms(2, 2.0)
    bump = (sp.Rational(1, 50) * sp.Symbol("x"), (z[0] * z[1],))  # |z1 z2|^2 / 50
    geom = ChartGeometry(2, (1.0, 1.0), margin=0.25)
    omega = ChartMetricField(geom, terms, z)
    omega_bumped = ChartMetricField(geom, terms + [bump], z)

    rng = np.random.default_rng(99)
    pts = rng.uniform(-0.4, 0.4, size=(100, 2, 2))
    points = pts[..., 0] + 1j * pts[..., 1]
    hyp = SchwarzHypotheses(kappa=0.5, lam=1.2, mu=0.0)
    s_of = trace_function(omega, omega_bumped)
    log_s = lambda x: np.log(s_of(x))
    reports = schwarz_conclusion_check(omega, omega_bumped, hyp, points)
    margins = [r.margin for r in reports if r.applicable]
    inapplicable = len(reports) - len(margins)
    fd_gap = 0.0
    for p, report in zip(points[::10], reports[::10]):
        fd = fd_laplacian(log_s, real_coords(p), omega_bumped.metric_matrix_at(p),
                          0.02, richardson=True)
        fd_gap = max(fd_gap, abs(fd - report.lhs))

    disk = ChartMetricField(ChartGeometry(1, (1.0,), margin=0.25),
                            *poincare_polydisk_terms(1, 1.0))
    equality = schwarz_conclusion_check(
        disk, disk, SchwarzHypotheses(kappa=2.0, lam=2.0, mu=0.0),
        np.array([0.3 + 0.1j]))
    sides = max(abs(equality.lhs), abs(equality.rhs))

    ok = (inapplicable == 0 and len(margins) == 100
          and min(margins) >= -1e-6 and fd_gap <= 1e-9
          and equality.applicable and sides <= 1e-8)
    assert verdict(
        6, ok,
        f"min margin {min(margins):.3e} at 100 points (tol -1e-6), "
        f"{inapplicable} screened out; Richardson stencil gap {fd_gap:.1e} at 10 "
        f"points (tol 1e-9); n=1 equality |sides| <= {sides:.1e} (tol 1e-8)")


def test_criterion_07_laplacian_identity_convergence():
    """The exact Laplacian identity holds to round-off, a finite-difference
    stencil converges to its Delta' S at second order, and the internal
    Cauchy-Schwarz step never goes negative."""
    grid = TorusGrid(2, 12)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    omega_p = TorusMetricField(grid, perturbed_torus_potential(grid, 0.008))
    s_of = trace_function(omega, omega_p)
    indices = [(3, 5, 7, 1), (0, 2, 9, 4), (6, 6, 1, 10)]
    id_worst, min_ratio, cs_min = 0.0, np.inf, np.inf
    for idx, (identity, cs) in zip(indices, laplacian_identity_check(omega, omega_p, indices)):
        point = grid.coords(idx)
        id_worst = max(id_worst, abs(identity.margin) / max(1.0, abs(identity.rhs)))
        cs_min = min(cs_min, cs.margin)
        gp = omega_p.metric_matrix_at(idx)
        residuals = [abs(fd_laplacian(s_of, point, gp, h) - identity.lhs)
                     for h in (0.02, 0.01, 0.005)]
        min_ratio = min(min_ratio,
                        *(residuals[i] / residuals[i + 1] for i in range(2)))
    ok = id_worst <= 1e-10 and min_ratio >= 3.5 and cs_min >= -1e-9
    assert verdict(
        7, ok,
        f"identity residual {id_worst:.1e} x max(1, |rhs|) (tol 1e-10); worst "
        f"stencil halving ratio {min_ratio:.2f} (>= 3.5) over 3 points x steps "
        f"0.02/0.01/0.005; Cauchy-Schwarz margin {cs_min:.3e} (tol -1e-9)")


def test_criterion_08_wedge_integral_exactness(perturbed_path):
    """Wedge pairings ignore Hessian shifts, follow the eps^n volume law,
    and the polynomial fit in eps recovers vanishing low-order terms."""
    grid, omega, states = perturbed_path
    n = grid.n
    other = TorusMetricField(grid, perturbed_torus_potential(
        grid, 0.004, modes=[(m, ph + 0.9, w) for (m, ph, w) in _TORUS_MODES[n]]))
    shift = grid.hessian_components(perturbed_torus_potential(grid, 0.003))
    worst_shift = 0.0
    for k in range(n + 1):
        base = wedge_integral(other.g, omega.g, k)
        worst_shift = max(
            worst_shift,
            abs(wedge_integral(other.g + shift, omega.g, k) - base),
            abs(wedge_integral(other.g, omega.g + shift, k) - base))

    vref = volume(omega)
    law_err = max(abs(grid.mean(np.linalg.det(s.epsilon * hermitian(omega.g)
                                              + grid.complex_hessian(s.v)))
                      - s.epsilon**n * vref) for s in states)
    expansion = epsilon_expansion_check(states, omega)
    low = max(abs(c) for c in expansion.coefficients[:n])
    top_err = abs(expansion.coefficients[n] - vref)

    ok = worst_shift <= 1e-10 and law_err <= 1e-8 and low <= 1e-8 \
        and top_err <= 1e-8
    assert verdict(
        8, ok,
        f"shift invariance {worst_shift:.1e} (tol 1e-10); volume law "
        f"{law_err:.1e} (tol 1e-8); low-order coefficients {low:.1e}, "
        f"top vs volume {top_err:.1e} (tol 1e-8)")


def test_criterion_09_per_state_wedge_floor(perturbed_path):
    """Every (state, k) wedge integral stays above its scaled floor."""
    grid, omega, states = perturbed_path
    reports = nef_lower_bound_check(states, omega)
    margins = [r.margin for r in reports if r.applicable]
    ok = len(margins) == grid.n * len(states) and min(margins) >= -1e-8
    assert verdict(
        9, ok,
        f"min margin {min(margins):.3e} over {len(margins)} (state, k) rows, "
        f"k = 1..{grid.n} (tol -1e-8)")


def test_criterion_10_hypothesis_honesty(perturbed_path):
    """Substrates without a negativity floor yield not-applicable reports,
    never a fabricated pass; the contained-line example reports H > 0."""
    grid, omega, states = perturbed_path
    kappa0 = kappa_floor(omega)
    ceiling = max_principle_s_bound(kappa0, [2.0], grid.n)
    bigness = bigness_bound_report(kappa0, omega, states)
    statuses = {r.status for r in bigness.per_state}
    statuses.add(bigness.extrapolated.status)
    honest = (kappa0 <= 0.0
              and ceiling.status == "not-applicable"
              and not bigness.applicable
              and statuses == {"not-applicable"})

    fermat = verify_example_facts(make_example("fermat-chart"))
    line = next(r for r in fermat
                if r["fact"] == "line-direction-hsc-at-least-projective")
    ok = honest and line["ok"] and line["measured"] > 0.0
    assert verdict(
        10, ok,
        f"kappa_0 {kappa0:.2f} <= 0 -> ceiling/bigness not-applicable "
        f"({'yes' if honest else 'NO'}); contained-line H "
        f"{line['measured']:.4f} > 0")
