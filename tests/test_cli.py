"""End-to-end checks of the pipeline CLI: config handling, artifacts,
determinism, and exit codes."""

import csv
import dataclasses
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
import numpy as np
import pytest

from kahlerbench.cli import (
    DEFAULTS,
    EQUALITY_TOL,
    RUNNERS,
    _row,
    _apply_overrides,
    build_parser,
    load_config,
    main,
)
from kahlerbench.inequalities import make_report, not_applicable, royden_margin
from kahlerbench.integrals import BIGNESS_TOL, BignessReport
from kahlerbench.errors import NonConvergence, PositivityLoss
from kahlerbench.io import read_json
from kahlerbench.solver import ContinuityState


def run_cli(argv):
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


# -- configuration ------------------------------------------------------------


def test_load_config_without_file_gives_defaults():
    cfg = load_config(None)
    assert cfg == DEFAULTS
    assert cfg is not DEFAULTS  # caller may mutate freely


def test_load_config_merges_nested_sections(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("seed: 3\nsolve_ma:\n  grid: 16\n")
    cfg = load_config(path)
    assert cfg["seed"] == 3
    assert cfg["solve_ma"]["grid"] == 16
    assert cfg["solve_ma"]["amplitude"] == DEFAULTS["solve_ma"]["amplitude"]
    assert DEFAULTS["solve_ma"]["grid"] == 32  # defaults untouched


def test_load_config_rejects_unknown_keys_and_bad_types(tmp_path):
    bad_key = tmp_path / "bad_key.yaml"
    bad_key.write_text("bogus_section: {}\n")
    with pytest.raises(jsonschema.ValidationError):
        load_config(bad_key)

    bad_type = tmp_path / "bad_type.yaml"
    bad_type.write_text("seed: seven\n")
    with pytest.raises(jsonschema.ValidationError):
        load_config(bad_type)

    bad_range = tmp_path / "bad_range.yaml"
    bad_range.write_text("continuity_path:\n  ratio: 1.5\n")
    with pytest.raises(jsonschema.ValidationError):
        load_config(bad_range)

    for i, text in enumerate(("tolerances:\n  solver: 1.0e-10\n",
                              "tolerances:\n  fd: 1.0e-6\n",
                              "verify_inequalities:\n  fd_step: 0.02\n",
                              "hsc_extremes:\n  directions: 2000\n",
                              "hsc_extremes:\n  refine_steps: 40\n",
                              "verify_inequalities:\n  directions: 2000\n",
                              "tolerances:\n  algebraic: 1.0\n",
                              "integrals:\n  tol: 1.0\n",
                              "solve_ma:\n  tol: 1.0\n",
                              "continuity_path:\n  tol: 1.0e-6\n",
                              "solve_ma:\n  max_steps: 5\n")):
        removed_key = tmp_path / f"removed_key_{i}.yaml"
        removed_key.write_text(text)
        with pytest.raises(jsonschema.ValidationError):
            load_config(removed_key)


def test_flag_overrides_reach_every_consumer():
    args = build_parser().parse_args(
        ["all", "--seed", "3", "--trials", "1000", "--grid", "24",
         "--eps-steps", "4"]
    )
    cfg = _apply_overrides(load_config(None), args)
    assert cfg["seed"] == 3
    assert cfg["verify_inequalities"]["trials"] == 1000
    assert cfg["verify_inequalities"]["royden_trials"] == 10
    assert cfg["solve_ma"]["grid"] == 24
    assert cfg["continuity_path"]["grid"] == 24
    assert cfg["integrals"]["grid"] == 24
    assert cfg["continuity_path"]["steps"] == 4
    assert cfg["integrals"]["steps"] == 4


def test_parser_rejects_unknown_pipeline():
    with redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
        build_parser().parse_args(["make-coffee"])


# -- exit codes ---------------------------------------------------------------


def test_bad_config_exits_2_with_message(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("continuity_path:\n  ratio: 1.5\n")
    rc, _, err = run_cli(["solve-ma", "--config", str(cfg),
                          "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error:" in err
    assert "continuity_path/ratio" in err


@pytest.mark.parametrize("argv, where", [
    (["verify-inequalities", "--trials", "1"], "verify_inequalities/trials"),
    (["verify-inequalities", "--trials", "5"], "verify_inequalities/trials"),
    # --eps-steps sets both schedules; either may be reported first
    (["continuity-path", "--eps-steps", "0"], "(continuity_path|integrals)/steps"),
    (["solve-ma", "--grid", "7"], "solve_ma/grid"),
    (["solve-ma", "--grid", "9"], "(solve_ma|continuity_path|integrals)/grid"),
    (["solve-ma", "--seed", "-1"], "seed"),
    # the integrals expansion fit needs n + 2 = 4 states at the default n = 2
    (["integrals", "--eps-steps", "3"], "integrals/steps"),
])
def test_bad_flags_exit_2_with_message(tmp_path, argv, where):
    rc, out, err = run_cli(argv + ["--out", str(tmp_path / "o")])
    assert rc == 2
    assert re.match(f"config error: {where}: ", err)
    assert out == "" and not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, where", [
    ("continuity_path: {eps0: .inf}", "continuity_path/eps0"),
    ("continuity_path: {eps0: .nan}", "continuity_path/eps0"),
    ("integrals: {amplitude: .nan}", "integrals/amplitude"),
    ("solve_ma: {amplitude: -.inf}", "solve_ma/amplitude"),
])
def test_non_finite_numbers_exit_2(tmp_path, text, where):
    cfg = tmp_path / "nonfinite.yaml"
    cfg.write_text(text + "\n")
    rc, out, err = run_cli(["all", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert err.startswith(f"config error: {where}: ")
    assert "not a finite number" in err
    assert out == "" and not (tmp_path / "o").exists()


def test_removed_extremizer_key_exits_2(tmp_path):
    cfg = tmp_path / "old.yaml"
    cfg.write_text("hsc_extremes:\n  directions: 2000\n")
    rc, _, err = run_cli(["hsc-extremes", "--config", str(cfg),
                          "--out", str(tmp_path / "o")])
    assert rc == 2
    assert err.startswith("config error: hsc_extremes: ")
    assert not (tmp_path / "o").exists()


def test_smallest_trial_count_runs(tmp_path):
    rc, _, _ = run_cli(["verify-inequalities", "--trials", "10",
                        "--out", str(tmp_path)])
    assert rc == 0


def test_unparseable_yaml_exits_2(tmp_path):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("seed: [unclosed\n")
    rc, _, err = run_cli(["solve-ma", "--config", str(cfg),
                          "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error:" in err


# -- artifacts ----------------------------------------------------------------


def test_solve_ma_pipeline_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    rc, printed, _ = run_cli(["solve-ma", "--out", str(out), "--grid", "16"])
    assert rc == 0
    assert "manufactured-residual" in printed
    assert "0 fail" in printed

    pdir = out / "solve-ma"
    for artifact in ("reports.jsonl", "summary.json", "summary.csv",
                     "v.kwb", "v_star.kwb", "newton.json"):
        assert (pdir / artifact).exists(), artifact
    assert (out / "meta.json").exists()

    summary = read_json(pdir / "summary.json")
    assert summary["pipeline"] == "solve-ma"
    assert {r["check"] for r in summary["rows"]} == {
        "manufactured-residual", "manufactured-recovery"}
    assert all(r["status"] == "pass" for r in summary["rows"])

    with open(pdir / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["check"] for r in rows] == [r["check"] for r in summary["rows"]]

    newton = read_json(pdir / "newton.json")
    assert newton["newton_steps"] == len(newton["residual_history"]) - 1
    assert len(newton["forcing"]) == len(newton["krylov_matvecs"]) == newton["newton_steps"]
    assert all(m >= 1 for m in newton["krylov_matvecs"])

    meta = read_json(out / "meta.json")
    assert meta["pipelines"] == ["solve-ma"]
    assert meta["seconds"] > 0.0
    assert list(meta["pipeline_seconds"]) == ["solve-ma"]
    assert 0.0 < meta["pipeline_seconds"]["solve-ma"] <= meta["seconds"]


# Every row of `kahlerbench all --trials 400`, in order: a change to a row's
# check or status updates this list and says why.
ALL_ROWS = [
    ("solve-ma", "manufactured-residual", "pass"),
    ("solve-ma", "manufactured-recovery", "pass"),
    ("continuity-path", "sup-u-ceiling", "pass"),
    ("continuity-path", "ricci-identity-residual", "pass"),
    ("continuity-path", "normalized-limit-drift", "pass"),
    ("hsc-extremes", "poincare-disk:hsc-constant", "pass"),
    ("hsc-extremes", "poincare-disk:einstein-ratio", "pass"),
    ("hsc-extremes", "poincare-polydisk:hsc-factor-direction", "pass"),
    ("hsc-extremes", "poincare-polydisk:hsc-max-diagonal", "pass"),
    ("hsc-extremes", "poincare-polydisk:kappa-floor-positive", "pass"),
    ("hsc-extremes", "fubini-study:hsc-constant", "pass"),
    ("hsc-extremes", "fubini-study:ricci-proportional", "pass"),
    ("hsc-extremes", "fermat-chart:line-direction-hsc-at-least-projective", "pass"),
    ("hsc-extremes", "fermat-chart:hsc-at-most-projective", "pass"),
    ("hsc-extremes", "perturbed-torus:hsc-attains-negative", "pass"),
    ("hsc-extremes", "perturbed-torus:hsc-attains-positive", "pass"),
    ("hsc-extremes", "perturbed-torus:volume-unit", "pass"),
    ("verify-inequalities", "newton-maclaurin-sweep", "pass"),
    ("verify-inequalities", "newton-maclaurin-equality", "pass"),
    ("verify-inequalities", "hsc-trace-lower-bound", "pass"),
    ("verify-inequalities", "hsc-trace-equality-cases", "pass"),
    ("verify-inequalities", "ricci-trace-lower-bound", "pass"),
    ("verify-inequalities", "laplacian-trace-identity", "pass"),
    ("verify-inequalities", "third-order-cauchy-schwarz", "pass"),
    ("verify-inequalities", "schwarz-log-trace-conclusion", "pass"),
    ("verify-inequalities", "schwarz-hypothesis-screen", "pass"),
    ("verify-inequalities", "max-principle-polydisk", "pass"),
    ("verify-inequalities", "max-principle-torus", "not-applicable"),
    ("integrals", "ddc-shift-invariance", "pass"),
    ("integrals", "sigma-mixed-determinant-consistency", "pass"),
    ("integrals", "expansion-low-coefficients-vanish", "pass"),
    ("integrals", "expansion-top-coefficient-volume", "pass"),
    ("integrals", "volume-power-law", "pass"),
    ("integrals", "nef-wedge-lower-bound", "pass"),
    ("integrals", "bigness-volume-floor", "not-applicable"),
]


def test_all_pipelines_keep_their_rows(tmp_path):
    rc, _, _ = run_cli(["all", "--trials", "400", "--out", str(tmp_path)])
    assert rc == 0
    rows = [(r["pipeline"], r["check"], r["status"])
            for name in read_json(tmp_path / "meta.json")["pipelines"]
            for r in read_json(tmp_path / name / "summary.json")["rows"]]
    assert rows == ALL_ROWS
    assert set(read_json(tmp_path / "integrals" / "expansion.json")) >= {
        "coefficients", "condition_number", "note"}
    assert set(read_json(tmp_path / "continuity-path" / "limit_probe.json")) == {
        "epsilons", "drifts", "converging", "note"}


def test_verify_inequalities_is_deterministic_for_fixed_seed(tmp_path):
    outs = []
    for label in ("a", "b"):
        out = tmp_path / label
        rc, _, _ = run_cli(["verify-inequalities", "--out", str(out),
                            "--trials", "400", "--seed", "11"])
        assert rc == 0
        outs.append(out / "verify-inequalities")
    for artifact in ("reports.jsonl", "summary.json", "summary.csv"):
        a = (outs[0] / artifact).read_bytes()
        b = (outs[1] / artifact).read_bytes()
        assert a == b, f"{artifact} differs between identical runs"

    # report files carry no timestamps; only meta.json holds timings
    text = (outs[0] / "summary.json").read_text()
    assert "seconds" not in text
    assert "seconds" in (tmp_path / "a" / "meta.json").read_text()


def test_different_seed_changes_randomized_margins(tmp_path):
    for label, seed in (("a", "11"), ("c", "12")):
        rc, _, _ = run_cli(["verify-inequalities", "--out", str(tmp_path / label),
                            "--trials", "400", "--seed", seed])
        assert rc == 0
    a = (tmp_path / "a" / "verify-inequalities" / "summary.json").read_bytes()
    c = (tmp_path / "c" / "verify-inequalities" / "summary.json").read_bytes()
    assert a != c


def test_not_applicable_rows_do_not_fail_the_run(tmp_path):
    out = tmp_path / "run"
    rc, printed, _ = run_cli(["verify-inequalities", "--out", str(out),
                              "--trials", "400"])
    assert rc == 0
    assert "not-applicable" in printed

    summary = read_json(out / "verify-inequalities" / "summary.json")
    statuses = {r["check"]: r["status"] for r in summary["rows"]}
    assert statuses["max-principle-torus"] == "not-applicable"
    assert statuses["max-principle-polydisk"] == "pass"
    assert statuses["laplacian-trace-identity"] == "pass"
    assert "laplacian-identity-h2-rate" not in statuses
    assert "fail" not in statuses.values()

    lines = (out / "verify-inequalities" / "reports.jsonl").read_text().splitlines()
    reports = [json.loads(line) for line in lines if line.strip()]
    assert reports, "inequality reports should be logged line by line"
    for row in reports:
        assert row["status"] in {"pass", "fail", "not-applicable"}
        json.dumps(row)  # every row stays JSON-serializable


def test_ricci_trials_meet_their_own_hypothesis(tmp_path):
    # Each trial's lam comes from the relative eigenvalues of (g', Ric'), so
    # Ric' + lam g' > 0 holds and only the deliberately violating report is
    # not applicable; none is screened out.
    rc, _, _ = run_cli(["verify-inequalities", "--trials", "10000", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "verify-inequalities" / "reports.jsonl").read_text().splitlines()
    ricci = [r for r in map(json.loads, lines) if r["name"] == "ricci-trace-lower-bound"]
    assert len(ricci) == 51
    assert [r["status"] for r in ricci].count("not-applicable") == 1


def test_failing_check_fails_its_aggregate_row(tmp_path, monkeypatch):
    # The row takes its verdict from the reports: this one fails its own
    # 1e-12 tolerance although its margin is within the checks' 1e-9.
    def failing(ric_prime, g_prime, lam, mu):
        report = make_report("ricci-trace-lower-bound", 0.0, 1e-10, 1e-12)
        return report if np.ndim(g_prime) == 2 else [report] * len(g_prime)

    monkeypatch.setattr("kahlerbench.cli.ricci_term_margin", failing)
    rc, _, _ = run_cli(["verify-inequalities", "--trials", "10",
                        "--out", str(tmp_path)])
    assert rc == 1
    rows = read_json(tmp_path / "verify-inequalities" / "summary.json")["rows"]
    assert [r["check"] for r in rows if r["status"] == "fail"] == [
        "ricci-trace-lower-bound"]


def test_row_takes_its_status_from_its_reports():
    ok = make_report("c", 1.0, 0.0, 1e-9)
    bad = make_report("c", 0.0, 1.0, 1e-9)
    na = not_applicable("c", "hypothesis absent")
    assert _row("p", "c", [ok, na])["status"] == "pass"
    assert _row("p", "c", [na, ok, bad])["status"] == "fail"
    assert _row("p", "c", [na, na])["status"] == "not-applicable"
    assert _row("p", "c", [])["status"] == "not-applicable"
    assert _row("p", "c", [na])["value"] is None
    # the row shows the numbers of its worst applicable report
    row = _row("p", "c", [ok, bad, na], "note")
    assert (row["value"], row["margin"], row["tol"], row["note"]) == (0.0, -1.0, 1e-9, "note")
    near = make_report("c", 0.5e-8, 0.0, 1e-8, two_sided=True)
    far = make_report("c", -0.9e-8, 0.0, 1e-8, two_sided=True)
    assert _row("p", "c", [near, far])["margin"] == -0.9e-8


def test_bigness_row_reads_not_applicable_on_a_torus(tmp_path):
    # kappa_0 <= 0 on a torus, so no report of the volume floor applies: the
    # row says so, and the one not-applicable report is written once.
    rc, _, _ = run_cli(["integrals", "--out", str(tmp_path)])
    assert rc == 0
    rows = read_json(tmp_path / "integrals" / "summary.json")["rows"]
    (row,) = [r for r in rows if r["check"] == "bigness-volume-floor"]
    assert row["status"] == "not-applicable" and row["value"] is None
    lines = (tmp_path / "integrals" / "reports.jsonl").read_text().splitlines()
    floor = [r for r in map(json.loads, lines) if r["name"].startswith("bigness")]
    assert [r["status"] for r in floor] == ["not-applicable"]


def test_failing_bigness_limit_fails_the_row_and_the_run(tmp_path, monkeypatch):
    def floor_with_failing_limit(kappa0, omega, states):
        per_state = [make_report("bigness-volume-floor", 1.0, 0.5, BIGNESS_TOL)
                     for _ in states]
        limit = make_report("bigness-volume-floor-limit", 0.4, 0.5, BIGNESS_TOL)
        return BignessReport(0.5, per_state, limit, applicable=True)

    monkeypatch.setattr("kahlerbench.cli.bigness_bound_report", floor_with_failing_limit)
    rc, _, _ = run_cli(["integrals", "--out", str(tmp_path)])
    assert rc == 1
    rows = read_json(tmp_path / "integrals" / "summary.json")["rows"]
    assert [r["check"] for r in rows if r["status"] == "fail"] == ["bigness-volume-floor"]
    lines = (tmp_path / "integrals" / "reports.jsonl").read_text().splitlines()
    assert [r["name"] for r in map(json.loads, lines) if r["status"] == "fail"] == [
        "bigness-volume-floor-limit"]


def test_equality_cases_fail_on_either_side(tmp_path, monkeypatch):
    # Raising each lhs by 2e-12 keeps every one-sided bound but moves the
    # equality cases past EQUALITY_TOL on the passing side.
    def raised(R, g, g_prime, kappa):
        reports = royden_margin(R, g, g_prime, kappa)
        bump = lambda r: make_report(r.name, r.lhs + 2e-12, r.rhs, r.tol, note=r.note)
        return [bump(r) for r in reports] if isinstance(reports, list) else bump(reports)

    monkeypatch.setattr("kahlerbench.cli.royden_margin", raised)
    rc, _, _ = run_cli(["verify-inequalities", "--trials", "10", "--out", str(tmp_path)])
    assert rc == 1
    rows = read_json(tmp_path / "verify-inequalities" / "summary.json")["rows"]
    (row,) = [r for r in rows if r["status"] == "fail"]
    assert row["check"] == "hsc-trace-equality-cases"
    assert row["margin"] > EQUALITY_TOL


def test_one_state_path_has_no_drift_to_judge(tmp_path):
    # A one-state path is allowed by the schema; with no drift to measure the
    # drift row reads not-applicable, and the run passes.
    cfg = tmp_path / "one.yaml"
    cfg.write_text("continuity_path: {steps: 1}\n")
    rc, _, _ = run_cli(["continuity-path", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    rows = read_json(tmp_path / "continuity-path" / "summary.json")["rows"]
    (row,) = [r for r in rows if r["check"] == "normalized-limit-drift"]
    assert row["status"] == "not-applicable" and row["value"] is None
    assert row["note"] == "single-state path: no drift to measure"
    assert all(r["status"] == "pass" for r in rows if r is not row)


def test_continuity_path_replaces_earlier_states(tmp_path):
    for steps in ("6", "4"):
        rc, _, _ = run_cli(["continuity-path", "--grid", "16", "--eps-steps", steps,
                            "--out", str(tmp_path)])
        assert rc == 0
    pdir = tmp_path / "continuity-path"
    assert sorted(p.name for p in (pdir / "states").iterdir()) == [
        f"state-{i:02d}" for i in range(4)]
    with open(pdir / "series.csv", newline="") as fh:
        series = list(csv.DictReader(fh))
    assert len(series) == 4
    # one column per scalar field of a state, in the state's order
    assert list(series[0]) == [f.name for f in dataclasses.fields(ContinuityState)
                               if f.type in ("float", "int")]
    # the flat torus's series starts are exact: no Newton step, no matvec
    assert all(r["newton_steps"] == r["krylov_matvecs"] == "0" for r in series)


def test_run_replaces_its_pipeline_directory(tmp_path):
    stale = tmp_path / "solve-ma" / "stale.txt"
    stale.parent.mkdir()
    stale.write_text("left by an earlier run")
    rc, _, _ = run_cli(["solve-ma", "--grid", "8", "--out", str(tmp_path)])
    assert rc == 0
    assert not stale.exists()
    assert (tmp_path / "solve-ma" / "summary.json").exists()


def test_out_directory_falls_back_to_environment(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("KAHLERBENCH_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    rc, _, _ = run_cli(["solve-ma", "--grid", "16"])
    assert rc == 0
    assert (target / "solve-ma" / "summary.json").exists()


def test_failure_rows_print_their_cause(tmp_path, monkeypatch):
    note = "line search stalled at residual 3.450e-10 at eps=0.00390625"

    def failing(cfg, out_dir, seed):
        return [_row("continuity-path", "solve", [], note) | {"status": "fail"}], []

    monkeypatch.setitem(RUNNERS, "continuity-path", failing)
    rc, printed, _ = run_cli(["continuity-path", "--out", str(tmp_path)])
    assert rc == 1
    (line,) = [l for l in printed.splitlines() if l.startswith("solve ")]
    assert line.split()[1] == "fail"
    assert line.endswith(note)
    assert list(read_json(tmp_path / "meta.json")["pipeline_seconds"]) == ["continuity-path"]


@pytest.mark.parametrize("pipeline, text, check, note", [
    # the line-search stall at eps = 2^-8 of the perturbed integrals path
    ("integrals", "integrals: {ratio: 0.25, steps: 10}", "solve",
     r"^line search stalled at residual \S+ at eps=0\.00390625$"),
    # an input metric that is not positive definite fails before any solve
    ("continuity-path", "continuity_path: {example: perturbed-torus, amplitude: 1.0}",
     "input-metric", r"^metric not positive definite at \(\d+, \d+\): eigenvalues "),
    ("solve-ma", "solve_ma: {amplitude: 1.0}", "input-metric",
     r"^manufactured metric I \+ Hess v\* not positive definite at \(\d+, \d+\): "),
    ("integrals", "integrals: {amplitude: 1.0}", "input-metric",
     r"^metric not positive definite at \(\d+, \d+, \d+, \d+\): eigenvalues "),
])
def test_a_typed_failure_is_its_pipelines_one_failing_row(tmp_path, pipeline, text, check, note):
    cfg = tmp_path / "failing.yaml"
    cfg.write_text(text + "\n")
    rc, printed, _ = run_cli([pipeline, "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    (row,) = read_json(tmp_path / pipeline / "summary.json")["rows"]
    assert (row["pipeline"], row["check"], row["status"]) == (pipeline, check, "fail")
    assert re.match(note, row["note"])
    assert (tmp_path / pipeline / "reports.jsonl").read_text() == ""
    assert (tmp_path / pipeline / "summary.csv").exists()
    assert list(read_json(tmp_path / "meta.json")["pipeline_seconds"]) == [pipeline]
    assert row["note"] in printed


def test_all_runs_every_pipeline_past_a_failure(tmp_path, monkeypatch):
    def raising(err):
        def runner(cfg, out_dir, seed):
            raise err
        return runner

    def passing(cfg, out_dir, seed):
        return [_row("x", "check", [make_report("check", 1.0, 0.0, 0.0)])], []

    for name in RUNNERS:
        monkeypatch.setitem(RUNNERS, name, passing)
    monkeypatch.setitem(RUNNERS, "solve-ma", raising(PositivityLoss("lost")))
    monkeypatch.setitem(RUNNERS, "integrals",
                        raising(NonConvergence("stalled", epsilon=0.25)))
    rc, _, _ = run_cli(["all", "--out", str(tmp_path)])
    assert rc == 1
    assert read_json(tmp_path / "meta.json")["pipelines"] == list(RUNNERS)
    notes = {name: [r["note"] for r in read_json(tmp_path / name / "summary.json")["rows"]]
             for name in RUNNERS}
    assert notes["solve-ma"] == ["lost"] and notes["integrals"] == ["stalled at eps=0.25"]
    assert all(notes[name] == [""] for name in RUNNERS if name not in ("solve-ma", "integrals"))
