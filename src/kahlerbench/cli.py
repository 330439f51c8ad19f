"""Command-line pipelines wrapping the library into reproducible runs.

Usage:

    kahlerbench <pipeline> [--config cfg.yaml] [--out DIR] [--seed S]
                [--trials T] [--grid N] [--eps-steps K]

with pipelines: solve-ma, continuity-path, hsc-extremes,
verify-inequalities, integrals, all.

Configuration is YAML validated against the shipped JSON schema
(schema/config.schema.json); CLI flags override the file, each flag sets
its key in every config section that has it, and the merged config is
validated again (a bad flag exits 2 with a config error).  Check
tolerances are not configurable, nor is the Newton tolerance of the
solves: each threshold is a module constant, stated once in the report
that applies it (listed in the inequalities and integrals docstrings, and
the five constants below).  Every pipeline writes
reports.jsonl (one inequality report per line), summary.json, summary.csv,
and pipeline-specific artifacts under <out>/<pipeline>/.
Runs are deterministic for a fixed seed: report files contain no
timestamps (timings live in meta.json only).

Every summary row takes its status from its reports (_row): fail if any
applicable report fails, not-applicable if none applies, pass otherwise.
Rows with no number to compare keep their own verdict: a pipeline's
failing input-metric or solve row, normalized-limit-drift (not-applicable
on a one-state path, which has no drift), the zoo fact rows
(zoo.verify_fact decides them) and schwarz-hypothesis-screen (which passes
when its report is not-applicable).  A runner that raises PositivityLoss
or NonConvergence leaves its pipeline one failing row, its note the error
and the eps it carries: input-metric when the metric the pipeline starts
from is not positive definite, solve for a failed solve or path-state
diagnosis; main writes the pipeline's files as usual and runs the rest.
An example's warning row has no report and so reads not-applicable.  A
non-finite config number is a config error (exit 2).  Exit status is 0
exactly when no row fails; not-applicable rows never fail a run.

verify-inequalities makes one call per check, or one per dimension for
its random trials: every pointwise check takes a stack of points.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import shutil
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import yaml

from .curvature import (constant_hsc_tensor, hsc_extremes_from_tensor, kappa_floor,
                        sweep_hsc_extremes)
from .errors import NonConvergence, PositivityLoss
from .fields import ChartMetricField, TorusMetricField
from .grids import TorusGrid
from .inequalities import (
    MARGIN_TOL,
    SchwarzHypotheses,
    conditioned_negative_tensor,
    laplacian_identity_check,
    make_report,
    max_principle_s_bound,
    ricci_term_margin,
    royden_margin,
    schwarz_conclusion_check,
)
from .integrals import (
    INTEGRAL_TOL,
    bigness_bound_report,
    epsilon_expansion_check,
    mixed_determinants,
    nef_lower_bound_check,
    volume,
    wedge_integrals,
)
from .io import (
    rows_to_csv,
    save_scalar_field,
    save_state,
    write_json,
    write_reports_jsonl,
)
from .linalg import (
    components,
    elementary_symmetric_field,
    newton_maclaurin_margin_field,
    relative_eigenvalues_field,
)
from .solver import (
    continuity_path,
    limit_probe,
    manufactured_problem,
    solve_ma,
)
from .zoo import (
    _TORUS_MODES,
    make_example,
    perturbed_torus_potential,
    verify_example_facts,
)

# Thresholds of the CLI's own checks: the Newton tolerance of every solve,
# held by the manufactured residual (and 1e3 times it by the recovery); the
# slack of each path state's sup u under log C and its dealiased Ricci
# identity residual; the equality cases of the Newton-MacLaurin chain and of
# the HSC trace bound, and the algebraic identities of the integrals
# pipeline (dd^c-shift invariance, sigma against mixed determinants).
SOLVER_TOL = 1e-10
SUP_U_TOL = 1e-8
RICCI_RESIDUAL_TOL = 1e-6
EQUALITY_TOL = 1e-12
ALGEBRAIC_TOL = 1e-10

DEFAULTS = {
    "seed": 7,
    "out": None,
    "solve_ma": {"n": 1, "grid": 32, "amplitude": 0.01},
    "continuity_path": {
        "example": "flat-torus", "n": 1, "grid": 64, "amplitude": 0.01,
        "eps0": 1.0, "ratio": 0.5, "steps": 11,
    },
    "hsc_extremes": {
        "examples": ["poincare-disk", "poincare-polydisk", "fubini-study",
                     "fermat-chart", "perturbed-torus"],
    },
    "verify_inequalities": {"trials": 20000, "royden_trials": 200},
    "integrals": {
        "n": 2, "grid": 12, "amplitude": 0.008,
        "eps0": 1.0, "ratio": 0.6, "steps": 6,
    },
}

PIPELINES = ("solve-ma", "continuity-path", "hsc-extremes",
             "verify-inequalities", "integrals", "all")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def validate_config(cfg: dict) -> None:
    """Raise jsonschema.ValidationError unless cfg matches the shipped schema.

    Two rules the schema cannot state: every number is finite (its number
    type admits NaN and infinities), and, spanning two keys, the integrals
    schedule needs integrals.steps >= integrals.n + 2 states for its
    degree-n expansion fit and cross-check.
    """
    schema = json.loads(
        resources.files("kahlerbench").joinpath("schema/config.schema.json").read_text()
    )
    jsonschema.validate(cfg, schema)
    for section, c in cfg.items():
        for key, value in c.items() if isinstance(c, dict) else ():
            if isinstance(value, float) and not math.isfinite(value):
                raise jsonschema.ValidationError(f"{value} is not a finite number",
                                                 path=(section, key))
    c = cfg.get("integrals", {})
    if "steps" in c and "n" in c and c["steps"] < c["n"] + 2:
        raise jsonschema.ValidationError(
            f"{c['steps']} is less than n + 2 = {c['n'] + 2}",
            path=("integrals", "steps"))


def load_config(path=None) -> dict:
    """Defaults merged with an optional YAML file, schema-validated."""
    user = {}
    if path is not None:
        with open(path) as fh:
            user = yaml.safe_load(fh) or {}
    validate_config(user)
    cfg = _deep_merge(DEFAULTS, user)
    validate_config(cfg)
    return cfg


def _row(pipeline, check, reports, note=""):
    """One summary row for a check, taken from the reports behind it.

    The status is fail if any applicable report fails, not-applicable if no
    report applies (or there is none), and pass otherwise.  value, margin
    and tol are the lhs, margin and tol of the worst applicable report: a
    failing one if any fails, else the one with the least slack; all three
    are None when no report applies.  A row that keeps its own verdict
    overrides status (and value, tol) with a dict union.
    """
    worst = min((r for r in reports if r.applicable),
                key=lambda r: (r.status == "pass", r.slack), default=None)
    value = margin = tol = None
    if worst is not None:
        value, margin, tol = (float(x) for x in (worst.lhs, worst.margin, worst.tol))
    return {"pipeline": pipeline, "check": check,
            "status": "not-applicable" if worst is None else worst.status,
            "value": value, "margin": margin, "tol": tol, "note": note}


def _input_metric(build, *args):
    """build(*args), a pipeline's input metric: a PositivityLoss it raises
    names the input-metric stage, which main makes the failing row's check."""
    try:
        return build(*args)
    except PositivityLoss as err:
        err.stage = "input-metric"
        raise


# --------------------------------------------------------------------------
# pipelines
# --------------------------------------------------------------------------


def run_solve_ma(cfg, out_dir, seed):
    c = cfg["solve_ma"]
    grid = TorusGrid(c["n"], c["grid"])
    v_star = perturbed_torus_potential(grid, c["amplitude"])
    problem = _input_metric(manufactured_problem, grid, v_star)
    v, info = solve_ma(problem, tol=SOLVER_TOL, return_info=True)
    err = float(np.max(np.abs(v - v_star)))
    reports = [
        make_report("manufactured-residual", info["final_residual"], 0.0, SOLVER_TOL,
                    two_sided=True, note=f"newton_steps={info['newton_steps']}"),
        make_report("manufactured-recovery", err, 0.0, 1e3 * SOLVER_TOL,
                    two_sided=True, note="sup |v - v*| against 1000x solver tol"),
    ]
    rows = [_row("solve-ma", r.name, [r], r.note) for r in reports]
    save_scalar_field(out_dir / "v.kwb", grid, v, "solution-v")
    save_scalar_field(out_dir / "v_star.kwb", grid, v_star, "potential")
    write_json(out_dir / "newton.json", {
        "residual_history": info["residual_history"],
        "newton_steps": info["newton_steps"],
        "forcing": info["forcing"],
        "krylov_matvecs": info["krylov_matvecs"],
    })
    return rows, reports


def run_continuity_path(cfg, out_dir, seed):
    c = cfg["continuity_path"]
    grid = TorusGrid(c["n"], c["grid"])
    if c["example"] == "flat-torus":
        psi = np.zeros(grid.shape)
    else:
        psi = perturbed_torus_potential(grid, c["amplitude"])
    omega = _input_metric(TorusMetricField, grid, psi)
    eps = [c["eps0"] * c["ratio"] ** j for j in range(c["steps"])]
    states = continuity_path(omega, eps, tol=SOLVER_TOL)
    ceilings = [make_report("sup-u-ceiling", s.log_c_bound, s.sup_u, SUP_U_TOL,
                            note=f"eps={s.epsilon:.6g}") for s in states]
    residuals = [make_report("ricci-identity-residual", s.ricci_residual_sup, 0.0,
                             RICCI_RESIDUAL_TOL, two_sided=True,
                             note=f"eps={s.epsilon:.6g}") for s in states]
    series = [{f.name: getattr(s, f.name) for f in dataclasses.fields(s)
               if np.isscalar(getattr(s, f.name))} for s in states]
    probe = limit_probe(states)
    rows = [
        _row("continuity-path", "sup-u-ceiling", ceilings,
             f"{len(states)} states, eps {eps[0]:.3g}..{eps[-1]:.3g}"),
        _row("continuity-path", "ricci-identity-residual", residuals, "worst state"),
        _row("continuity-path", "normalized-limit-drift", [], probe.note) | ({
            "status": "pass" if probe.converging else "fail",
            "value": probe.drifts[-1]} if probe.drifts else {}),
    ]
    for i, s in enumerate(states):
        save_state(out_dir / "states" / f"state-{i:02d}", s, grid)
    rows_to_csv(out_dir / "series.csv", series, list(series[0].keys()))
    write_json(out_dir / "limit_probe.json", dataclasses.asdict(probe))
    return rows, ceilings + residuals


_EXAMPLE_CLI_PARAMS = {"poincare-polydisk": {"scale": 2.0}}


def run_hsc_extremes(cfg, out_dir, seed):
    c = cfg["hsc_extremes"]
    rows, reports, table = [], [], []
    for name in c["examples"]:
        example = make_example(name, **_EXAMPLE_CLI_PARAMS.get(name, {}))
        for fact in verify_example_facts(example):
            rows.append(_row("hsc-extremes", f"{name}:{fact['fact']}", [],
                             f"oracle={fact['oracle']:.9g} [{fact['provenance']}]") | {
                "status": "pass" if fact["ok"] else "fail",
                "value": float(fact["measured"]), "tol": float(fact["tol"])})
        rows.extend(_row("hsc-extremes", f"{name}:warning", [], warning)
                    for warning in example.warnings)
        if isinstance(example.field, ChartMetricField):
            pts = example.field.geometry.sample_points(per_axis=2)
            for p, ext in zip(pts, sweep_hsc_extremes(example.field, pts)):
                entry = {"example": name, "h_min": ext.h_min, "h_max": ext.h_max}
                for i, zc in enumerate(np.asarray(p, dtype=complex)):
                    entry[f"re_z{i + 1}"] = zc.real
                    entry[f"im_z{i + 1}"] = zc.imag
                table.append(entry)
    if table:
        cols = sorted({k for row in table for k in row}, key=str)
        rows_to_csv(out_dir / "extremes.csv", table, cols)
    return rows, reports


def run_verify_inequalities(cfg, out_dir, seed):
    c = cfg["verify_inequalities"]
    rng = np.random.default_rng(seed)
    rows, reports = [], []

    # Newton-MacLaurin sweep: generic spreads, then near-equal spreads.
    worst = np.inf
    for n in (2, 3):
        lam = np.exp(rng.normal(0.0, 1.0, size=(c["trials"] // 2, n)))
        for k in range(1, n):
            worst = min(worst, float(newton_maclaurin_margin_field(lam, k).min()))
    base = np.exp(rng.normal(0.0, 0.5, size=(c["trials"] // 10, 1)))
    spread = 1e-9 * rng.standard_normal((c["trials"] // 10, 2))
    lam_eq = base * (1.0 + spread)
    eq_worst = float(np.max(np.abs(newton_maclaurin_margin_field(lam_eq, 1))))
    chain = [
        make_report("newton-maclaurin-sweep", worst, 0.0, MARGIN_TOL,
                    note=f"{c['trials']} eigenvalue tuples, n in {{2,3}}"),
        make_report("newton-maclaurin-equality", eq_worst, 0.0, EQUALITY_TOL,
                    two_sided=True, note="near-equal eigenvalues collapse the chain"),
    ]
    reports.extend(chain)
    rows.extend(_row("verify-inequalities", r.name, [r], r.note) for r in chain)

    # curvature-term bound on conditioned random tensors, one stack per dimension
    dims = rng.integers(1, 4, size=c["royden_trials"])
    royden = []
    for n in np.unique(dims):
        kappa = rng.uniform(0.2, 1.0, np.count_nonzero(dims == n))
        R = conditioned_negative_tensor(n, rng, gap=kappa)  # sup H = -kappa
        d = np.exp(rng.normal(0.0, 0.7, (kappa.size, n)))
        royden += royden_margin(R, np.eye(n), d[..., None] * np.eye(n), kappa)
    reports.extend(royden)
    rows.append(_row("verify-inequalities", "hsc-trace-lower-bound", royden,
                     f"{c['royden_trials']} conditioned random tensors"))

    # equality cases: the bound holds with equality, to either side
    kappa_eq = 0.7
    r1 = royden_margin(np.full((1, 1, 1, 1), -kappa_eq, dtype=complex),
                       np.eye(1), np.eye(1), kappa_eq)
    R_model = constant_hsc_tensor(np.eye(2, dtype=complex), -1.3)
    ext = hsc_extremes_from_tensor(R_model, np.eye(2))
    r2 = royden_margin(R_model, np.eye(2), np.eye(2), -ext.h_max)
    equality = [make_report("hsc-trace-equality-cases", r.lhs, r.rhs, EQUALITY_TOL,
                            two_sided=True, note=r.note) for r in (r1, r2)]
    reports.extend(equality)
    rows.append(_row("verify-inequalities", "hsc-trace-equality-cases", equality,
                     "exact-kappa line and constant-H model"))

    # Ricci-term bound with hypothesis-satisfying and violating data
    dims = rng.integers(1, 4, size=max(1, c["royden_trials"] // 2))
    ricci = []
    for n in np.unique(dims):
        m = np.count_nonzero(dims == n)
        gp = np.exp(rng.normal(0.0, 0.7, (m, n)))[..., None] * np.eye(n)
        raw = rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))
        ric = (raw + np.conj(np.swapaxes(raw, -1, -2))) / 2.0
        lam_min = relative_eigenvalues_field(components(gp), components(ric))[..., 0]
        lam = np.maximum(0.0, -lam_min) + 0.1
        ricci += ricci_term_margin(ric, gp, lam, 0.0)
    bad = ricci_term_margin(-3.0 * np.eye(2), np.eye(2), 1.0, 0.0)
    reports.extend(ricci + [bad])
    rows.append(_row(
        "verify-inequalities", "ricci-trace-lower-bound", ricci,
        f"hypothesis-violating data -> {int(not bad.applicable)} not-applicable"))

    # Laplacian identity, exact from the two metric jets, and its
    # Cauchy-Schwarz step
    grid = TorusGrid(2, 12)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    omega_p = TorusMetricField(grid, perturbed_torus_potential(grid, 0.008))
    identity, cs = laplacian_identity_check(omega, omega_p, (3, 5, 7, 1))
    reports.extend((identity, cs))
    rows.extend(_row("verify-inequalities", r.name, [r], r.note) for r in (identity, cs))

    # Schwarz conclusion on the normalized polydisk (omega' = omega)
    polydisk = make_example("poincare-polydisk", n=2, scale=2.0).field
    hyp = SchwarzHypotheses(kappa=0.5, lam=1.0, mu=0.0)
    points = polydisk.geometry.sample_points(per_axis=2, radius_fraction=0.4)
    schwarz = schwarz_conclusion_check(polydisk, polydisk, hyp, points)
    reports.extend(schwarz)
    rows.append(_row("verify-inequalities", "schwarz-log-trace-conclusion",
                     schwarz, "normalized polydisk, omega' = omega"))
    too_strong = schwarz_conclusion_check(polydisk, polydisk,
                                          SchwarzHypotheses(kappa=0.6, lam=1.0, mu=0.0),
                                          polydisk.geometry.sample_points(per_axis=1)[0])
    reports.append(too_strong)
    rows.append(_row("verify-inequalities", "schwarz-hypothesis-screen", [],
                     "overclaimed kappa must be screened out as not-applicable")
                | {"status": "pass" if not too_strong.applicable else "fail"})

    # max-principle ceiling: applicable on the polydisk, vacuous on the torus
    kappa0 = kappa_floor(polydisk, points=polydisk.geometry.sample_points(per_axis=2))
    mp = max_principle_s_bound(kappa0, [2.0], 2)
    torus_field = TorusMetricField(TorusGrid(1, 16),
                                   perturbed_torus_potential(TorusGrid(1, 16), 0.01))
    mp_torus = max_principle_s_bound(kappa_floor(torus_field), [1.0], 1)
    reports.extend((mp, mp_torus))
    rows.append(_row("verify-inequalities", "max-principle-polydisk", [mp], mp.note))
    rows.append(_row("verify-inequalities", "max-principle-torus", [mp_torus], mp_torus.note))
    return rows, reports


def run_integrals(cfg, out_dir, seed):
    c = cfg["integrals"]
    rng = np.random.default_rng(seed)
    rows = []
    n, N = c["n"], c["grid"]
    grid = TorusGrid(n, N)
    omega = _input_metric(TorusMetricField, grid,
                          perturbed_torus_potential(grid, c["amplitude"]))

    # dd^c-shift invariance of every wedge pairing
    other = perturbed_torus_potential(
        grid, c["amplitude"] / 2.0,
        modes=[(m, ph + 0.9, w) for (m, ph, w) in _TORUS_MODES[n]],
    )
    A_field = _input_metric(TorusMetricField, grid, other)
    shift = grid.hessian_components(perturbed_torus_potential(grid, c["amplitude"] / 3.0))
    base = wedge_integrals(A_field.g, omega.g)
    shifted = (wedge_integrals(A_field.g + shift, omega.g)
               + wedge_integrals(A_field.g, omega.g + shift))
    shift_reports = [make_report("ddc-shift-invariance", w, b, ALGEBRAIC_TOL, two_sided=True)
                     for w, b in zip(shifted, base + base)]
    rows.append(_row("integrals", "ddc-shift-invariance", shift_reports,
                     "both slots, k = 0..n"))

    # pointwise sigma consistency: mixed determinants vs relative eigenvalues
    idx = tuple(rng.integers(0, N, size=(5, 2 * n)).T)
    ga, gb = omega.g[(slice(None),) + idx], A_field.g[(slice(None),) + idx]
    D = mixed_determinants(gb, ga)
    D = D / D[:, :1]  # D_0 = det ga
    e = elementary_symmetric_field(relative_eigenvalues_field(ga, gb))
    sigma_reports = [make_report("sigma-mixed-determinant-consistency", d, e_k, ALGEBRAIC_TOL,
                                 two_sided=True, note=f"k={k}")
                     for D_p, e_p in zip(D, e) for k, (d, e_k) in enumerate(zip(D_p, e_p))]
    rows.append(_row("integrals", "sigma-mixed-determinant-consistency", sigma_reports))

    # short continuity path: expansion fit, volume law, nef floors, bigness
    eps = [c["eps0"] * c["ratio"] ** j for j in range(c["steps"])]
    states = continuity_path(omega, eps, tol=SOLVER_TOL)
    expansion = epsilon_expansion_check(states, omega)
    vref = volume(omega)
    coeffs = expansion.coefficients
    low = [make_report("expansion-low-coefficients-vanish", coeffs[k], 0.0, INTEGRAL_TOL,
                       two_sided=True, note=f"c_{k}") for k in range(n)]
    top = make_report("expansion-top-coefficient-volume", coeffs[n], vref, INTEGRAL_TOL,
                      two_sided=True, note=f"c_{n}")
    law = [make_report("volume-power-law", s.wedge_integrals[n], s.epsilon ** n * vref,
                       INTEGRAL_TOL, two_sided=True, note=f"eps={s.epsilon:.6g}")
           for s in states]
    rows.append(_row("integrals", "expansion-low-coefficients-vanish", low,
                     "class of the eps-independent piece is zero here"))
    rows.append(_row("integrals", "expansion-top-coefficient-volume", [top],
                     f"reference volume {vref:.12g}"))
    rows.append(_row("integrals", "volume-power-law", law,
                     "V(eps) = eps^n * V(omega) exactly in class"))
    nef_reports = nef_lower_bound_check(states, omega)
    rows.append(_row("integrals", "nef-wedge-lower-bound", nef_reports,
                     f"{len(nef_reports)} (state, k) rows"))
    kappa0 = kappa_floor(omega)
    bigness = bigness_bound_report(kappa0, omega, states)
    # a floor that does not apply is one report, shared by states and limit
    floor = (bigness.per_state + [bigness.extrapolated] if bigness.applicable
             else bigness.per_state)
    rows.append(_row("integrals", "bigness-volume-floor", floor,
                     f"kappa0={kappa0:.6g}; the floor needs kappa0 > 0"))
    reports = shift_reports + sigma_reports + low + [top] + law + nef_reports + floor
    write_json(out_dir / "expansion.json", dataclasses.asdict(expansion))
    return rows, reports


RUNNERS = {
    "solve-ma": run_solve_ma,
    "continuity-path": run_continuity_path,
    "hsc-extremes": run_hsc_extremes,
    "verify-inequalities": run_verify_inequalities,
    "integrals": run_integrals,
}


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = copy.deepcopy(cfg)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.trials is not None:
        cfg["verify_inequalities"]["trials"] = args.trials
        cfg["verify_inequalities"]["royden_trials"] = max(1, args.trials // 100)
    if args.grid is not None:
        cfg["solve_ma"]["grid"] = args.grid
        cfg["continuity_path"]["grid"] = args.grid
        cfg["integrals"]["grid"] = args.grid
    if args.eps_steps is not None:
        cfg["continuity_path"]["steps"] = args.eps_steps
        cfg["integrals"]["steps"] = args.eps_steps
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kahlerbench",
        description="verification pipelines for Kähler metric families",
    )
    sub = parser.add_subparsers(dest="pipeline", required=True)
    for name in PIPELINES:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", type=str, default=None,
                       help="YAML configuration file")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (default: $KAHLERBENCH_OUT or "
                            "./kahlerbench-out)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None,
                       help="override randomized-trial counts")
        p.add_argument("--grid", type=int, default=None,
                       help="override grid resolutions")
        p.add_argument("--eps-steps", type=int, default=None,
                       help="override continuity-schedule lengths")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        validate_config(cfg)
    except (jsonschema.ValidationError, yaml.YAMLError) as err:
        msg = getattr(err, "message", None) or str(err)
        where = ""
        if getattr(err, "absolute_path", None):
            where = "/".join(str(p) for p in err.absolute_path) + ": "
        print(f"config error: {where}{msg}", file=sys.stderr)
        return 2
    out_root = Path(
        args.out or cfg["out"] or os.environ.get("KAHLERBENCH_OUT")
        or "kahlerbench-out"
    )
    names = list(RUNNERS) if args.pipeline == "all" else [args.pipeline]
    all_rows = []
    pipeline_seconds = {}
    t_start = time.perf_counter()
    for name in names:
        t_pipeline = time.perf_counter()
        out_dir = out_root / name
        if out_dir.exists():  # no artifact of an earlier run may survive
            shutil.rmtree(out_dir)
        out_dir.mkdir(parents=True)
        try:
            rows, reports = RUNNERS[name](cfg, out_dir, cfg["seed"])
        except (NonConvergence, PositivityLoss) as err:
            note = f"{err}" + ("" if err.epsilon is None else f" at eps={err.epsilon:.6g}")
            stage = getattr(err, "stage", "solve")
            rows, reports = [_row(name, stage, [], note) | {"status": "fail"}], []
        write_reports_jsonl(out_dir / "reports.jsonl", reports)
        write_json(out_dir / "summary.json", {
            "pipeline": name, "seed": cfg["seed"], "rows": rows,
        })
        rows_to_csv(out_dir / "summary.csv", rows,
                    ["pipeline", "check", "status", "value", "margin", "tol", "note"])
        all_rows.extend(rows)
        pipeline_seconds[name] = time.perf_counter() - t_pipeline
    write_json(out_root / "meta.json", {
        "pipelines": names,
        "seconds": time.perf_counter() - t_start,
        "pipeline_seconds": pipeline_seconds,
        "argv": list(argv) if argv is not None else sys.argv[1:],
    })

    width = max(len(r["check"]) for r in all_rows) + 2
    print(f"{'check':<{width}} {'status':<15} detail")
    print("-" * (width + 40))
    for r in all_rows:
        detail = ""
        if r["margin"] is not None:
            detail = f"margin={r['margin']:.3e}"
        elif r["value"] is not None:
            detail = f"value={r['value']:.3e}"
        elif r["status"] == "fail":
            detail = r["note"]
        print(f"{r['check']:<{width}} {r['status']:<15} {detail}")
    n_fail = sum(1 for r in all_rows if r["status"] == "fail")
    n_na = sum(1 for r in all_rows if r["status"] == "not-applicable")
    print("-" * (width + 40))
    print(f"{len(all_rows)} checks: {len(all_rows) - n_fail - n_na} pass, "
          f"{n_fail} fail, {n_na} not-applicable -> {out_root}")
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
