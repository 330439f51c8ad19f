"""End-to-end checks of the pipeline CLI: config handling, artifacts,
determinism, and exit codes."""

import csv
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
import pytest

from kahlerbench.cli import (
    DEFAULTS,
    RUNNERS,
    _row,
    _apply_overrides,
    build_parser,
    load_config,
    main,
)
from kahlerbench.io import read_json, read_reports_jsonl


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
                              "verify_inequalities:\n  fd_step: 0.02\n")):
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
])
def test_bad_flags_exit_2_with_message(tmp_path, argv, where):
    rc, out, err = run_cli(argv + ["--out", str(tmp_path / "o")])
    assert rc == 2
    assert re.match(f"config error: {where}: ", err)
    assert out == "" and not (tmp_path / "o").exists()


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

    meta = read_json(out / "meta.json")
    assert meta["pipelines"] == ["solve-ma"]
    assert meta["seconds"] > 0.0
    assert list(meta["pipeline_seconds"]) == ["solve-ma"]
    assert 0.0 < meta["pipeline_seconds"]["solve-ma"] <= meta["seconds"]


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

    reports = read_reports_jsonl(out / "verify-inequalities" / "reports.jsonl")
    assert reports, "inequality reports should be logged line by line"
    for row in reports:
        assert row["status"] in {"pass", "fail", "not-applicable"}
        json.dumps(row)  # every row stays JSON-serializable


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
        return [_row("continuity-path", "solve", "fail", note=note)], []

    monkeypatch.setitem(RUNNERS, "continuity-path", failing)
    rc, printed, _ = run_cli(["continuity-path", "--out", str(tmp_path)])
    assert rc == 1
    (line,) = [l for l in printed.splitlines() if l.startswith("solve ")]
    assert line.split()[1] == "fail"
    assert line.endswith(note)
    assert list(read_json(tmp_path / "meta.json")["pipeline_seconds"]) == ["continuity-path"]
