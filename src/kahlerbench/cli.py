"""Command-line pipelines wrapping the library into reproducible runs.

Usage:

    kahlerbench <pipeline> [--config cfg.yaml] [--out DIR] [--seed S]
                [--trials T] [--grid N] [--eps-steps K]

with pipelines: solve-ma, continuity-path, hsc-extremes,
verify-inequalities, integrals, all.

Configuration is YAML validated against the shipped JSON schema
(schema/config.schema.json); CLI flags override the file, each flag sets
its key in every config section that has it, and the merged config is
validated again (a bad flag exits 2 with a config error).  Every pipeline
writes reports.jsonl (one inequality report per line), summary.json,
summary.csv, and pipeline-specific artifacts under <out>/<pipeline>/.
Runs are deterministic for a fixed seed: report files contain no
timestamps (timings live in meta.json only).  Exit status is 0 exactly
when no enabled check fails; not-applicable rows never fail a run.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import yaml

from .curvature import constant_hsc_tensor, hsc_extremes, kappa_floor
from .errors import NonConvergence, PositivityLoss
from .fields import TorusMetricField
from .grids import TorusGrid
from .inequalities import (
    SchwarzHypotheses,
    conditioned_negative_tensor,
    hsc_extremes_from_tensor,
    laplacian_identity_check,
    make_report,
    max_principle_s_bound,
    ricci_term_margin,
    royden_margin,
    schwarz_conclusion_check,
)
from .integrals import (
    bigness_bound_report,
    epsilon_expansion_check,
    mixed_determinants,
    nef_lower_bound_check,
    volume,
    wedge_integral,
)
from .io import (
    rows_to_csv,
    save_scalar_field,
    save_state,
    write_json,
    write_reports_jsonl,
)
from .linalg import (
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

DEFAULTS = {
    "seed": 7,
    "out": None,
    "tolerances": {
        "algebraic": 1e-9,
        "ricci_residual": 1e-6,
        "integral": 1e-8,
    },
    "solve_ma": {
        "n": 1, "grid": 32, "amplitude": 0.01, "tol": 1e-10, "max_steps": 50,
    },
    "continuity_path": {
        "example": "flat-torus", "n": 1, "grid": 64, "amplitude": 0.01,
        "eps0": 1.0, "ratio": 0.5, "steps": 11, "tol": 1e-10,
    },
    "hsc_extremes": {
        "examples": ["poincare-disk", "poincare-polydisk", "fubini-study",
                     "fermat-chart", "perturbed-torus"],
        "directions": 2000,
        "refine_steps": 40,
    },
    "verify_inequalities": {
        "trials": 20000, "royden_trials": 200, "directions": 2000,
    },
    "integrals": {
        "n": 2, "grid": 12, "amplitude": 0.008,
        "eps0": 1.0, "ratio": 0.6, "steps": 6, "tol": 1e-8,
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
    """Raise jsonschema.ValidationError unless cfg matches the shipped schema."""
    schema = json.loads(
        resources.files("kahlerbench").joinpath("schema/config.schema.json").read_text()
    )
    jsonschema.validate(cfg, schema)


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


def _row(pipeline, check, status, value=None, margin=None, tol=None, note=""):
    return {
        "pipeline": pipeline, "check": check, "status": status,
        "value": None if value is None else float(value),
        "margin": None if margin is None else float(margin),
        "tol": None if tol is None else float(tol),
        "note": note,
    }


def _report_row(pipeline, report, check=None):
    d = report.as_dict()
    return _row(pipeline, check or d["name"], d["status"],
                value=d["lhs"], margin=d["margin"], tol=d["tol"], note=d["note"])


# --------------------------------------------------------------------------
# pipelines
# --------------------------------------------------------------------------


def run_solve_ma(cfg, out_dir, seed):
    c = cfg["solve_ma"]
    grid = TorusGrid(c["n"], c["grid"])
    v_star = perturbed_torus_potential(grid, c["amplitude"])
    problem = manufactured_problem(grid, v_star)
    v, info = solve_ma(problem, tol=c["tol"], max_steps=c["max_steps"],
                       return_info=True)
    err = float(np.max(np.abs(v - v_star)))
    reports = [
        make_report("manufactured-residual", c["tol"], info["final_residual"], 0.0,
                    note=f"newton_steps={info['newton_steps']}"),
        make_report("manufactured-recovery", 1e3 * c["tol"], err, 0.0,
                    note="sup |v - v*| against 1000x solver tol"),
    ]
    rows = [_report_row("solve-ma", r) for r in reports]
    save_scalar_field(out_dir / "v.kwb", grid, v, "solution-v")
    save_scalar_field(out_dir / "v_star.kwb", grid, v_star, "potential")
    write_json(out_dir / "newton.json", {
        "residual_history": info["residual_history"],
        "newton_steps": info["newton_steps"],
    })
    return rows, reports


def run_continuity_path(cfg, out_dir, seed):
    c = cfg["continuity_path"]
    tols = cfg["tolerances"]
    grid = TorusGrid(c["n"], c["grid"])
    if c["example"] == "flat-torus":
        psi = np.zeros(grid.shape)
    else:
        psi = perturbed_torus_potential(grid, c["amplitude"])
    omega = TorusMetricField(grid, psi)
    eps = [c["eps0"] * c["ratio"] ** j for j in range(c["steps"])]
    try:
        states = continuity_path(omega, eps, tol=c["tol"])
    except (NonConvergence, PositivityLoss) as err:
        e_at = getattr(err, "epsilon", None)
        note = f"{err}" + (f" at eps={e_at:.6g}" if e_at is not None else "")
        return [_row("continuity-path", "solve", "fail", note=note)], []

    reports, rows, series = [], [], []
    for s in states:
        ceiling = make_report("sup-u-ceiling", s.log_c_bound, s.sup_u, 1e-8,
                              note=f"eps={s.epsilon:.6g}")
        ricci = make_report("ricci-identity-residual", tols["ricci_residual"],
                            s.ricci_residual_sup, 0.0,
                            note=f"eps={s.epsilon:.6g}")
        reports.extend((ceiling, ricci))
        series.append({
            "epsilon": s.epsilon, "sup_u": s.sup_u, "log_c_bound": s.log_c_bound,
            "ricci_residual": s.ricci_residual_sup,
            "rel_eig_min": s.rel_eig_min, "rel_eig_max": s.rel_eig_max,
            "s_max": s.s_max, "newton_steps": s.newton_steps,
        })
    rows.append(_row("continuity-path", "sup-u-ceiling",
                     "pass" if all(r.passed for r in reports[0::2]) else "fail",
                     margin=min(r.margin for r in reports[0::2]), tol=1e-8,
                     note=f"{len(states)} states, eps {eps[0]:.3g}..{eps[-1]:.3g}"))
    rows.append(_row("continuity-path", "ricci-identity-residual",
                     "pass" if all(r.passed for r in reports[1::2]) else "fail",
                     value=max(s.ricci_residual_sup for s in states),
                     tol=tols["ricci_residual"], note="sup over states"))
    probe = limit_probe(states)
    rows.append(_row("continuity-path", "normalized-limit-drift",
                     "pass" if probe.converging else "fail",
                     value=probe.drifts[-1] if probe.drifts else 0.0,
                     note=probe.note))
    for i, s in enumerate(states):
        save_state(out_dir / "states" / f"state-{i:02d}", s, grid)
    rows_to_csv(out_dir / "series.csv", series, list(series[0].keys()))
    write_json(out_dir / "limit_probe.json", probe.as_dict())
    return rows, reports


_EXAMPLE_CLI_PARAMS = {
    "flat-torus": {"n": 1, "resolution": 16},
    "perturbed-torus": {"n": 1, "resolution": 32},
    "poincare-disk": {"scale": 1.0},
    "poincare-polydisk": {"n": 2, "scale": 2.0},
    "fubini-study": {"n": 2},
    "fermat-chart": {"degree": 5},
}


def run_hsc_extremes(cfg, out_dir, seed):
    c = cfg["hsc_extremes"]
    rows, reports, table = [], [], []
    for name in c["examples"]:
        example = make_example(name, **_EXAMPLE_CLI_PARAMS.get(name, {}))
        for fact in verify_example_facts(example):
            rows.append(_row("hsc-extremes", f"{name}:{fact['fact']}",
                             "pass" if fact["ok"] else "fail",
                             value=fact["measured"], tol=fact["tol"],
                             note=f"oracle={fact['oracle']:.9g} [{fact['provenance']}]"))
        for warning in example.spec.warnings:
            rows.append(_row("hsc-extremes", f"{name}:warning", "not-applicable",
                             note=warning))
        if example.field.kind == "analytic-chart":
            pts = example.geometry.sample_points(per_axis=2)
            for p in pts:
                ext = hsc_extremes(example.field, p, c["directions"],
                                   c["refine_steps"])
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
    tols = cfg["tolerances"]
    rng = np.random.default_rng(seed)
    rows, reports = [], []

    # Newton-MacLaurin sweep: generic spreads, then near-equal spreads.
    worst = np.inf
    for n in (2, 3):
        lam = np.exp(rng.normal(0.0, 1.0, size=(c["trials"] // 2, n)))
        for k in range(1, n):
            worst = min(worst, float(newton_maclaurin_margin_field(lam, k).min()))
    rows.append(_row("verify-inequalities", "newton-maclaurin-sweep",
                     "pass" if worst >= -tols["algebraic"] else "fail",
                     margin=worst, tol=tols["algebraic"],
                     note=f"{c['trials']} eigenvalue tuples, n in {{2,3}}"))
    base = np.exp(rng.normal(0.0, 0.5, size=(c["trials"] // 10, 1)))
    spread = 1e-9 * rng.standard_normal((c["trials"] // 10, 2))
    lam_eq = base * (1.0 + spread)
    eq_worst = float(np.max(np.abs(newton_maclaurin_margin_field(lam_eq, 1))))
    rows.append(_row("verify-inequalities", "newton-maclaurin-equality",
                     "pass" if eq_worst <= 1e-12 else "fail",
                     value=eq_worst, tol=1e-12,
                     note="near-equal eigenvalues collapse the chain"))

    # curvature-term bound on conditioned random tensors
    min_margin = np.inf
    for _ in range(c["royden_trials"]):
        n = int(rng.integers(1, 4))
        R = conditioned_negative_tensor(n, rng, gap=float(rng.uniform(0.2, 1.0)),
                                        num_directions=c["directions"])
        ext = hsc_extremes_from_tensor(R, np.eye(n), c["directions"], 50)
        kappa = -ext.h_max
        if kappa < 0.0:
            continue
        d = np.exp(rng.normal(0.0, 0.7, n))
        report = royden_margin(R, np.eye(n), np.diag(d).astype(complex), kappa,
                               tol=tols["algebraic"])
        reports.append(report)
        min_margin = min(min_margin, report.margin)
    rows.append(_row("verify-inequalities", "hsc-trace-lower-bound",
                     "pass" if min_margin >= -tols["algebraic"] else "fail",
                     margin=min_margin, tol=tols["algebraic"],
                     note=f"{c['royden_trials']} conditioned random tensors"))

    # equality cases
    kappa_eq = 0.7
    r1 = royden_margin(np.full((1, 1, 1, 1), -kappa_eq, dtype=complex),
                       np.eye(1), np.eye(1), kappa_eq, tol=1e-12)
    c_model = -1.3
    R_model = constant_hsc_tensor(np.eye(2, dtype=complex), c_model)
    ext = hsc_extremes_from_tensor(R_model, np.eye(2), 512, 30)
    r2 = royden_margin(R_model, np.eye(2), np.eye(2), -ext.h_max, tol=1e-12)
    reports.extend((r1, r2))
    eq_ok = abs(r1.margin) <= 1e-12 and abs(r2.margin) <= 1e-12
    rows.append(_row("verify-inequalities", "hsc-trace-equality-cases",
                     "pass" if eq_ok else "fail",
                     value=max(abs(r1.margin), abs(r2.margin)), tol=1e-12,
                     note="exact-kappa line and constant-H model"))

    # Ricci-term bound with hypothesis-satisfying and violating data
    ric_margin_min = np.inf
    na_count = 0
    for _ in range(max(1, c["royden_trials"] // 2)):
        n = int(rng.integers(1, 4))
        d = np.exp(rng.normal(0.0, 0.7, n))
        gp = np.diag(d).astype(complex)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ric = (raw + raw.conj().T) / 2.0
        gen = np.linalg.eigvalsh(np.linalg.solve(gp, ric))
        lam = max(0.0, float(-gen.min())) + 0.1
        report = ricci_term_margin(ric, gp, lam, 0.0, tol=tols["algebraic"])
        reports.append(report)
        if report.applicable:
            ric_margin_min = min(ric_margin_min, report.margin)
    bad = ricci_term_margin(-3.0 * np.eye(2), np.eye(2), 1.0, 0.0)
    reports.append(bad)
    na_count += int(not bad.applicable)
    rows.append(_row("verify-inequalities", "ricci-trace-lower-bound",
                     "pass" if ric_margin_min >= -tols["algebraic"] else "fail",
                     margin=ric_margin_min, tol=tols["algebraic"],
                     note=f"hypothesis-violating data -> {na_count} not-applicable"))

    # Laplacian identity, exact from the two metric jets, and its
    # Cauchy-Schwarz step
    grid = TorusGrid(2, 12)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    omega_p = TorusMetricField(grid, perturbed_torus_potential(grid, 0.008))
    identity, cs = laplacian_identity_check(omega, omega_p, (3, 5, 7, 1),
                                            tol_cs=tols["algebraic"])
    reports.extend((identity, cs))
    rows.append(_report_row("verify-inequalities", identity))
    rows.append(_report_row("verify-inequalities", cs))

    # Schwarz conclusion on the normalized polydisk (omega' = omega)
    example = make_example("poincare-polydisk", n=2, scale=2.0)
    hyp = SchwarzHypotheses(kappa=0.5, lam=1.0, mu=0.0)
    sc_min = np.inf
    for p in example.geometry.sample_points(per_axis=2, radius_fraction=0.4):
        report = schwarz_conclusion_check(example.field, example.field, hyp, p,
                                          tol=tols["algebraic"])
        reports.append(report)
        if report.applicable:
            sc_min = min(sc_min, report.margin)
    rows.append(_row("verify-inequalities", "schwarz-log-trace-conclusion",
                     "pass" if sc_min >= -tols["algebraic"] else "fail",
                     margin=sc_min, tol=tols["algebraic"],
                     note="normalized polydisk, omega' = omega"))
    too_strong = schwarz_conclusion_check(
        example.field, example.field,
        SchwarzHypotheses(kappa=0.6, lam=1.0, mu=0.0),
        example.geometry.sample_points(per_axis=1)[0],
    )
    reports.append(too_strong)
    rows.append(_row("verify-inequalities", "schwarz-hypothesis-screen",
                     "pass" if not too_strong.applicable else "fail",
                     note="overclaimed kappa must be screened out as not-applicable"))

    # max-principle ceiling: applicable on the polydisk, vacuous on the torus
    kappa0 = kappa_floor(example.field,
                         points=example.geometry.sample_points(per_axis=2),
                         num_directions=c["directions"])
    mp = max_principle_s_bound(kappa0, [2.0], 2, tol=tols["algebraic"])
    reports.append(mp)
    rows.append(_report_row("verify-inequalities", mp, check="max-principle-polydisk"))
    torus_field = TorusMetricField(TorusGrid(1, 16),
                                   perturbed_torus_potential(TorusGrid(1, 16), 0.01))
    kappa0_torus = kappa_floor(torus_field)
    mp_torus = max_principle_s_bound(kappa0_torus, [1.0], 1)
    reports.append(mp_torus)
    rows.append(_report_row("verify-inequalities", mp_torus,
                            check="max-principle-torus"))
    return rows, reports


def run_integrals(cfg, out_dir, seed):
    c = cfg["integrals"]
    tols = cfg["tolerances"]
    rng = np.random.default_rng(seed)
    rows, reports = [], []
    n, N = c["n"], c["grid"]
    grid = TorusGrid(n, N)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, c["amplitude"]))

    # dd^c-shift invariance of every wedge pairing
    other = perturbed_torus_potential(
        grid, c["amplitude"] / 2.0,
        modes=[(m, ph + 0.9, w) for (m, ph, w) in _TORUS_MODES[n]],
    )
    A_field = TorusMetricField(grid, other)
    shift = grid.complex_hessian(perturbed_torus_potential(grid, c["amplitude"] / 3.0))
    worst_shift = 0.0
    for k in range(n + 1):
        base_val = wedge_integral(A_field.g, omega.g, k, grid=grid)
        a_shifted = wedge_integral(A_field.g + shift, omega.g, k, grid=grid)
        b_shifted = wedge_integral(A_field.g, omega.g + shift, k, grid=grid)
        worst_shift = max(worst_shift, abs(a_shifted - base_val),
                          abs(b_shifted - base_val))
    rows.append(_row("integrals", "ddc-shift-invariance",
                     "pass" if worst_shift <= 1e-10 else "fail",
                     value=worst_shift, tol=1e-10,
                     note="both slots, k = 0..n"))

    # pointwise sigma consistency: mixed determinants vs relative eigenvalues
    flat_idx = rng.integers(0, N, size=(5, 2 * n))
    sigma_err = 0.0
    for idx in flat_idx:
        ga = omega.g[tuple(idx)]
        gb = A_field.g[tuple(idx)]
        D = mixed_determinants(gb, ga)
        lam = relative_eigenvalues_field(ga[None], gb[None])[0]
        e = elementary_symmetric_field(lam[None])[0]
        sigma_err = max(sigma_err, float(np.max(np.abs(
            D / np.linalg.det(ga).real - e
        ))))
    rows.append(_row("integrals", "sigma-mixed-determinant-consistency",
                     "pass" if sigma_err <= 1e-10 else "fail",
                     value=sigma_err, tol=1e-10))

    # short continuity path: expansion fit, volume law, nef floors, bigness
    steps = max(c["steps"], n + 2)
    eps = [c["eps0"] * c["ratio"] ** j for j in range(steps)]
    states = continuity_path(omega, eps, tol=1e-10)
    expansion = epsilon_expansion_check(states, omega)
    vref = volume(omega)
    low_order = max(abs(v) for v in expansion.coefficients[:n])
    rows.append(_row("integrals", "expansion-low-coefficients-vanish",
                     "pass" if low_order <= c["tol"] else "fail",
                     value=low_order, tol=c["tol"],
                     note="class of the eps-independent piece is zero here"))
    top_err = abs(expansion.coefficients[n] - vref)
    rows.append(_row("integrals", "expansion-top-coefficient-volume",
                     "pass" if top_err <= c["tol"] else "fail",
                     value=top_err, tol=c["tol"],
                     note=f"reference volume {vref:.12g}"))
    law_err = max(abs(omega.grid.mean(s.sigma_n_field * omega.det_g)
                      - s.epsilon ** n * vref) for s in states)
    rows.append(_row("integrals", "volume-power-law",
                     "pass" if law_err <= c["tol"] else "fail",
                     value=law_err, tol=c["tol"],
                     note="V(eps) = eps^n * V(omega) exactly in class"))
    nef_reports = nef_lower_bound_check(states, omega, tol=tols["integral"])
    reports.extend(nef_reports)
    nef_margins = [r.margin for r in nef_reports if r.applicable]
    rows.append(_row("integrals", "nef-wedge-lower-bound",
                     "pass" if all(r.passed for r in nef_reports) else "fail",
                     margin=min(nef_margins), tol=tols["integral"],
                     note=f"{len(nef_reports)} (state, k) rows"))
    kappa0 = kappa_floor(omega, num_directions=400, refine_steps=20)
    bigness = bigness_bound_report(kappa0, omega, states)
    reports.extend(bigness.per_state)
    reports.append(bigness.extrapolated)
    rows.append(_row("integrals", "bigness-volume-floor",
                     "pass" if all(r.passed for r in bigness.per_state) else "fail",
                     value=kappa0,
                     note="not-applicable on a torus (kappa0 <= 0)"
                     if not bigness.applicable else "floor active"))
    write_json(out_dir / "expansion.json", expansion.as_dict())
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
        out_dir.mkdir(parents=True, exist_ok=True)
        rows, reports = RUNNERS[name](cfg, out_dir, cfg["seed"])
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
