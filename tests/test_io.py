"""Round trips and failure modes of the persistence layer."""

import csv
import dataclasses
import json
import re
import struct

import numpy as np
import pytest

from kahlerbench.fields import TorusMetricField
from kahlerbench.grids import TorusGrid
from kahlerbench.inequalities import make_report
from kahlerbench.io import (
    KIND_CODES,
    MAGIC,
    load_scalar_field,
    load_state,
    read_json,
    rows_to_csv,
    save_scalar_field,
    save_state,
    write_json,
    write_reports_jsonl,
)
from kahlerbench.solver import (ContinuityState, MAProblem, make_state, solve_ma,
                               volume_ratio_ceiling)


def read_reports_jsonl(path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


@pytest.fixture()
def grid():
    return TorusGrid(1, 8)


@pytest.fixture()
def field(grid):
    rng = np.random.default_rng(7)
    return rng.normal(size=grid.shape)


# -- binary scalar fields -----------------------------------------------------


def test_scalar_field_round_trip_is_exact(tmp_path, grid, field):
    path = tmp_path / "field.kwb"
    save_scalar_field(path, grid, field, kind="potential")
    loaded_grid, loaded, kind = load_scalar_field(path)
    assert (loaded_grid.n, loaded_grid.N) == (grid.n, grid.N)
    assert kind == "potential"
    assert np.array_equal(loaded, field)
    assert loaded.dtype == np.float64


@pytest.mark.parametrize("kind", sorted(KIND_CODES))
def test_every_kind_round_trips(tmp_path, grid, field, kind):
    path = tmp_path / "k.kwb"
    save_scalar_field(path, grid, field, kind=kind)
    assert load_scalar_field(path)[2] == kind


def test_save_rejects_bad_shape_and_kind(tmp_path, grid, field):
    with pytest.raises(ValueError, match="shape"):
        save_scalar_field(tmp_path / "x.kwb", grid, field[:4], kind="scalar")
    with pytest.raises(ValueError, match="kind"):
        save_scalar_field(tmp_path / "x.kwb", grid, field, kind="tensor")


def test_load_rejects_corrupted_files(tmp_path, grid, field):
    good = tmp_path / "good.kwb"
    save_scalar_field(good, grid, field)
    blob = good.read_bytes()

    short = tmp_path / "short.kwb"
    short.write_bytes(blob[:5])
    with pytest.raises(ValueError, match="truncated"):
        load_scalar_field(short)

    magic = tmp_path / "magic.kwb"
    magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="magic"):
        load_scalar_field(magic)

    version = tmp_path / "version.kwb"
    version.write_bytes(MAGIC + bytes([9]) + blob[5:])
    with pytest.raises(ValueError, match="version"):
        load_scalar_field(version)

    kind = tmp_path / "kind.kwb"
    kind.write_bytes(blob[:5] + bytes([7]) + blob[6:])
    with pytest.raises(ValueError, match="kind code"):
        load_scalar_field(kind)

    # a header naming an impossible grid is reported against the file too
    for n, N in ((0, 8), (5, 8), (1, 7)):
        header = tmp_path / f"header_{n}_{N}.kwb"
        header.write_bytes(struct.pack("<4sBBBI", MAGIC, 1, 0, n, N) + blob[11:])
        with pytest.raises(ValueError, match=f"^{header}: "):
            load_scalar_field(header)

    padded = tmp_path / "padded.kwb"
    padded.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(ValueError, match="payload"):
        load_scalar_field(padded)


def test_header_layout_is_stable(tmp_path, grid, field):
    path = tmp_path / "h.kwb"
    save_scalar_field(path, grid, field, kind="solution-v")
    blob = path.read_bytes()
    magic, version, kind_code, n, N = struct.unpack_from("<4sBBBI", blob)
    assert magic == b"KWB1"
    assert (version, kind_code, n, N) == (1, KIND_CODES["solution-v"], 1, 8)
    assert len(blob) == 11 + 8 * grid.num_points


# -- CSV / JSON ---------------------------------------------------------------


def test_json_round_trip(tmp_path):
    payload = {"b": [1, 2, 3], "a": {"nested": 0.125}}
    path = tmp_path / "r.json"
    write_json(path, payload)
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')  # keys sorted
    assert read_json(path) == payload


def test_reports_jsonl_round_trip(tmp_path):
    reports = [
        make_report("hsc-trace-lower-bound", lhs=1.5, rhs=1.0, tol=1e-9,
                    point=(0.25, 0.5), note="trial 3"),
        {"name": "custom", "margin": -0.5, "status": "fail"},
    ]
    path = tmp_path / "reports.jsonl"
    write_reports_jsonl(path, reports)
    rows = read_reports_jsonl(path)
    assert len(rows) == 2
    assert rows[0]["name"] == "hsc-trace-lower-bound"
    assert rows[0]["margin"] == pytest.approx(0.5)
    assert rows[0]["status"] == "pass"
    assert rows[0]["point"] == [0.25, 0.5]
    assert rows[1] == {"name": "custom", "margin": -0.5, "status": "fail"}
    # every line parses on its own
    for line in path.read_text().splitlines():
        json.loads(line)


def test_reports_jsonl_maps_nan_to_null(tmp_path):
    report = make_report("hsc-trace-lower-bound", lhs=float("nan"), rhs=0.0,
                         tol=0.0)
    path = tmp_path / "nan.jsonl"
    write_reports_jsonl(path, [report])
    assert read_reports_jsonl(path)[0]["lhs"] is None


def test_reports_jsonl_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_reports_jsonl(path, [])
    assert path.read_text() == ""
    assert read_reports_jsonl(path) == []


def test_rows_to_csv_selects_columns(tmp_path):
    rows = [{"a": 1, "b": 2.5, "ignored": "x"}, {"a": 3, "b": -1.0}]
    path = tmp_path / "rows.csv"
    rows_to_csv(path, rows, columns=["a", "b"])
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed == [{"a": "1", "b": "2.5"}, {"a": "3", "b": "-1.0"}]


# -- continuity-state round trip ----------------------------------------------


@pytest.fixture(scope="module")
def solved():
    grid = TorusGrid(1, 16)
    x = grid._axis_view(grid.axis_coords, 0)
    psi = 0.01 * np.broadcast_to(np.cos(2.0 * np.pi * x), grid.shape).copy()
    omega = TorusMetricField(grid, psi)
    # the eps = 1 state solved from v0 = 0 rather than from the path's series
    # start, which is already converged, so the Newton and Krylov counts
    # that round-trip are not zero
    problem = MAProblem(grid, omega.g, np.zeros(grid.shape))
    v, info = solve_ma(problem, tol=1e-11, return_info=True)
    state = make_state(omega, 1.0, v, volume_ratio_ceiling(omega, 1.0),
                       newton_steps=info["newton_steps"],
                       krylov_matvecs=sum(info["krylov_matvecs"]))
    return omega, state


def test_state_round_trip(tmp_path, solved):
    omega, state = solved
    save_state(tmp_path / "state", state, omega.grid)
    rebuilt = load_state(tmp_path / "state", omega)
    assert rebuilt.epsilon == state.epsilon
    assert np.array_equal(rebuilt.v, state.v)
    assert rebuilt.sup_u == pytest.approx(state.sup_u, rel=1e-14)
    assert rebuilt.log_c_bound == state.log_c_bound
    assert rebuilt.wedge_integrals == state.wedge_integrals  # rebuilt, not saved
    assert rebuilt.ricci_residual_sup == pytest.approx(state.ricci_residual_sup,
                                                       rel=1e-9)
    assert rebuilt.newton_steps == state.newton_steps > 0
    assert rebuilt.krylov_matvecs == state.krylov_matvecs >= state.newton_steps


def test_load_state_rejects_wrong_field_kind(tmp_path, solved):
    omega, state = solved
    target = tmp_path / "state"
    save_state(target, state, omega.grid)
    save_scalar_field(target / "v.kwb", omega.grid, state.v, kind="scalar")
    with pytest.raises(ValueError, match="solution-v"):
        load_state(target, omega)


def test_save_state_writes_v_and_the_sidecar_only(tmp_path, solved):
    omega, state = solved
    save_state(tmp_path / "state", state, omega.grid)
    assert sorted(p.name for p in (tmp_path / "state").iterdir()) == [
        "diagnostics.json", "v.kwb"]


def test_sidecar_holds_every_state_field_but_v(tmp_path, solved):
    omega, state = solved
    save_state(tmp_path / "state", state, omega.grid)
    diag = read_json(tmp_path / "state" / "diagnostics.json")
    assert set(diag) == {f.name for f in dataclasses.fields(ContinuityState)} - {"v"}
    assert diag["wedge_integrals"] == list(state.wedge_integrals)


def test_load_state_detects_a_faulty_wedge_integral(tmp_path, solved):
    omega, state = solved
    target = tmp_path / "state"
    save_state(target, state, omega.grid)
    diag = read_json(target / "diagnostics.json")
    diag["wedge_integrals"][-1] *= 1.001
    write_json(target / "diagnostics.json", diag)
    with pytest.raises(ValueError, match="wedge_integrals"):
        load_state(target, omega)


@pytest.mark.parametrize("name", ["epsilon", "log_c_bound", "newton_steps", "krylov_matvecs"])
def test_load_state_needs_the_inputs_of_make_state(tmp_path, solved, name):
    omega, state = solved
    target = tmp_path / "state"
    save_state(target, state, omega.grid)
    diag = read_json(target / "diagnostics.json")
    del diag[name]
    write_json(target / "diagnostics.json", diag)
    with pytest.raises(ValueError, match=re.escape(f"{target}: sidecar lacks {name}")):
        load_state(target, omega)


def test_load_state_reads_a_sidecar_without_wedge_integrals(tmp_path, solved):
    # sidecars written before every field was saved hold no wedge integrals
    omega, state = solved
    target = tmp_path / "state"
    save_state(target, state, omega.grid)
    diag = read_json(target / "diagnostics.json")
    del diag["wedge_integrals"]
    write_json(target / "diagnostics.json", diag)
    rebuilt = load_state(target, omega)
    assert rebuilt.wedge_integrals == state.wedge_integrals
    assert rebuilt.krylov_matvecs == state.krylov_matvecs


def test_load_state_rejects_grid_mismatch(tmp_path, solved):
    omega, state = solved
    target = tmp_path / "state"
    save_state(target, state, omega.grid)
    other_grid = TorusGrid(1, 8)
    other = TorusMetricField(other_grid, np.zeros(other_grid.shape))
    with pytest.raises(ValueError, match="grid mismatch"):
        load_state(target, other)


def test_load_state_detects_tampered_sidecar(tmp_path, solved):
    omega, state = solved
    target = tmp_path / "state"
    save_state(target, state, omega.grid)
    diag = read_json(target / "diagnostics.json")
    diag["sup_u"] += 1e-6
    write_json(target / "diagnostics.json", diag)
    with pytest.raises(ValueError, match="sup_u"):
        load_state(target, omega)


def test_load_state_detects_tampered_ricci_residual(tmp_path, solved):
    omega, state = solved
    target = tmp_path / "state"
    save_state(target, state, omega.grid)
    diag = read_json(target / "diagnostics.json")
    diag["ricci_residual_sup"] = 2.0 * diag["ricci_residual_sup"] + 1e-6
    write_json(target / "diagnostics.json", diag)
    with pytest.raises(ValueError, match="ricci_residual_sup"):
        load_state(target, omega)
