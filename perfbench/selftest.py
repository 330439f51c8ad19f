"""Self-test of the benchmark's checks: each accepts a true output and
rejects the same output corrupted.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Prints one line per case and
exits 1 if any check accepts a corrupted output or rejects a true one.
It also confirms that the hand-written chart metrics in checks.py agree
with the program's charts, and that BENCHMARK.json names the metrics the
benchmark prints.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import run

kb, _ = run.import_program()

import numpy as np  # noqa: E402  (after the program, as in run.py)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

failures = []


def case(name: str, problems: list, expect_rejected: bool) -> None:
    ok = bool(problems) == expect_rejected
    verdict = "rejects" if problems else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}"
          + (f" ({problems[0]})" if problems else ""))
    if not ok:
        failures.append(name)


def ma_cases():
    rng = np.random.default_rng(0)
    v_star = workloads.cosine_field(rng, 1, 32, modes=4, kmax=2, hessian_sup=0.6)
    grid = kb.grids.TorusGrid(1, 32)
    v = kb.solver.solve_ma(kb.solver.manufactured_problem(grid, v_star), tol=workloads.TOL)
    case("ma-solve true solution", checks.ma_solution(v, v_star, workloads.TOL), False)
    case("ma-solve v* + 1e-6", checks.ma_solution(v_star + 1e-6, v_star, workloads.TOL), True)
    bumped = v.copy()
    bumped[3, 5] += 1e-6
    case("ma-solve one point + 1e-6", checks.ma_solution(bumped, v_star, workloads.TOL), True)


def path_cases():
    rng = np.random.default_rng(1)
    psi = workloads.cosine_field(rng, 1, 16, modes=3, kmax=1, hessian_sup=0.3)
    grid = kb.grids.TorusGrid(1, 16)
    omega = kb.fields.TorusMetricField(grid, psi)
    eps = [1.0, 0.5, 0.25, 0.125]
    states = kb.solver.continuity_path(omega, eps)
    ref = checks.TorusReference(psi, eps[0])
    state = states[-1]
    case("path state true", checks.path_state(ref, state), False)
    wiggle = 1e-6 * np.cos(2 * np.pi * grid.axis_coords)[:, None]
    for label, bad in (("v + 1e-6 cos", replace(state, v=state.v + wiggle)),
                       ("sup u + 1e-6", replace(state, sup_u=state.sup_u + 1e-6)),
                       ("log C - 1e-6", replace(state, log_c_bound=state.log_c_bound - 1e-6)),
                       ("Ricci residual 1e-3", replace(state, ricci_residual_sup=1e-3))):
        case(f"path state {label}", checks.path_state(ref, bad), True)

    kappa0 = kb.curvature.kappa_floor(omega)
    expansion = kb.integrals.epsilon_expansion_check(states, omega)
    nef = kb.integrals.nef_lower_bound_check(states, omega)
    bigness = kb.integrals.bigness_bound_report(kappa0, omega, states)
    args = dict(expansion=expansion, nef=nef, kappa0=kappa0, bigness=bigness)
    case("path reports true", checks.path_reports(ref, states, **args), False)
    coeffs = list(expansion.coefficients)
    coeffs[-1] += 1e-6
    nef_bad = list(nef)
    nef_bad[1] = replace(nef[1], lhs=nef[1].lhs + 1e-6)
    for label, change in (("c_n + 1e-6", dict(expansion=replace(expansion, coefficients=coeffs))),
                          ("kappa_0 sign flipped", dict(kappa0=-kappa0)),
                          ("bigness applicable", dict(bigness=replace(bigness, applicable=True))),
                          ("nef lhs + 1e-6", dict(nef=nef_bad))):
        case(f"path reports {label}", checks.path_reports(ref, states, **{**args, **change}),
             True)

    case("reload true", checks.reloaded_state(state, replace(state)), False)
    case("reload v changed",
         checks.reloaded_state(state, replace(state, v=state.v + wiggle)), True)
    case("reload Ricci residual changed",
         checks.reloaded_state(state, replace(state, ricci_residual_sup=2 * state.ricci_residual_sup)),
         True)


def stall_cases():
    """Only the line-search stall at eps = 2^-8 may fail the deep path."""
    stall = "line search stalled at residual 1.444e-10"
    NonConvergence, PositivityLoss = kb.errors.NonConvergence, kb.errors.PositivityLoss
    for label, err, known in (
            ("known stall", NonConvergence(stall, epsilon=2.0**-8), True),
            ("stall at eps=1", NonConvergence(stall, epsilon=1.0), False),
            ("stall at eps=2^-3", NonConvergence(stall, epsilon=2.0**-3), False),
            ("Newton stall at eps=2^-8",
             NonConvergence("Newton stalled at residual 1e-9 after 30 steps", epsilon=2.0**-8),
             False),
            ("positivity loss at eps=2^-8", PositivityLoss(stall, epsilon=2.0**-8), False)):
        problems = [] if workloads.is_known_stall(kb, err) else [f"unexpected {err!r}"]
        case(f"deep path {label}", problems, not known)
    ledger = workloads.Ledger()
    ledger.raised("deep path", NonConvergence(stall, epsilon=1.0), ops=13, expected=False)
    case("ledger after an unexpected failure", [] if ledger.correct else ["incorrect"], True)


def screen_cases():
    rng = np.random.default_rng(2)
    R, g, gp, gap = (a[0] for a in workloads._negative_tensors(rng, (1,), 2))
    ext = kb.curvature.hsc_extremes_from_tensor(R, g, 2000, 40)
    directions = checks.random_directions(rng, 2, 256)
    case("extremes true", checks.extremes(R, g, ext, directions, 1e-8), False)
    case("extremes h_max sign flipped",
         checks.extremes(R, g, replace(ext, h_max=-ext.h_max), directions, 1e-8), True)
    case("extremes h_min + 0.01",
         checks.extremes(R, g, replace(ext, h_min=ext.h_min + 0.01), directions, 1e-8), True)
    case("extremes eta_max swapped",
         checks.extremes(R, g, replace(ext, eta_max=ext.eta_min), directions, 1e-8), True)
    report = kb.inequalities.royden_margin(R, g, gp, -ext.h_max)
    case("Royden true", checks.royden(report), False)
    case("Royden margin -1e-6", checks.royden(replace(report, margin=-1e-6)), True)

    c = -1.7
    model = checks.model_tensor(g, c)
    ext = kb.curvature.hsc_extremes_from_tensor(model, g, 2000, 40)
    case("model tensor h = c", checks.closed_form(ext, c, c, tol=1e-9), False)
    case("model tensor h = -c", checks.closed_form(replace(ext, h_max=-c), c, c, tol=1e-9),
         True)

    scale = 1.3
    field = kb.zoo.make_example("poincare-polydisk", n=2, scale=scale).field
    z = np.array([0.2 + 0.1j, -0.15j])
    ext = kb.curvature.hsc_extremes(field, z, 2000, 40)
    R, g = checks.fd_curvature(checks.disk_metric(scale), z)
    closed = (-2.0 / scale, -1.0 / scale)
    case("polydisk closed form", checks.closed_form(ext, *closed), False)
    case("polydisk FD extremes", checks.extremes(R, g, ext, directions, 1e-6), False)
    case("polydisk h_max sign flipped",
         checks.closed_form(replace(ext, h_max=-ext.h_max), *closed), True)
    case("polydisk FD h_max - 1e-4",
         checks.extremes(R, g, replace(ext, h_max=ext.h_max - 1e-4), directions, 1e-6), True)
    hyp = kb.inequalities.SchwarzHypotheses(kappa=1.0 / scale, lam=2.0 / scale)
    report = kb.inequalities.schwarz_conclusion_check(field, field, hyp, z, fd_step=0.02)
    case("Schwarz true", checks.schwarz_polydisk(report, scale), False)
    case("Schwarz rhs + 1e-6",
         checks.schwarz_polydisk(replace(report, rhs=report.rhs + 1e-6), scale), True)


def chart_metric_cases():
    """checks.py's chart metrics are written by hand; they must match the gallery."""
    z = np.array([0.1 + 0.05j, -0.07 + 0.12j])
    for name, params, metric in (
            ("poincare-disk", dict(scale=1.7), checks.disk_metric(1.7)),
            ("poincare-polydisk", dict(n=2, scale=0.8), checks.disk_metric(0.8)),
            ("fubini-study", dict(n=2), checks.fubini_study_metric),
            ("fermat-chart", dict(degree=5), checks.fermat_metric(5))):
        field = kb.zoo.make_example(name, **params).field
        point = z[: field.n]
        err = float(np.abs(field.metric_matrix_at(point) - metric(point)).max())
        case(f"{name} metric matches", [f"off by {err:.2e}"] if err > 1e-12 else [], False)


def benchmark_json_case():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in spec["end_to_end"]] != [name for name, _ in run.END_TO_END]:
        problems.append("end_to_end names differ from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != spans.PER_LAYER:
        problems.append("per_layer entries differ from spans.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    case("BENCHMARK.json matches the benchmark", problems, False)


if __name__ == "__main__":
    ma_cases()
    path_cases()
    stall_cases()
    screen_cases()
    chart_metric_cases()
    benchmark_json_case()
    print(f"{len(failures)} failing case(s)")
    sys.exit(1 if failures else 0)
