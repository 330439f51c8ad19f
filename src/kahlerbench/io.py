"""Persistence: scalar-field binary format, CSV exports, JSON reports.

Binary scalar-field layout (little-endian throughout):

    bytes 0..3   magic b"KWB1"
    byte  4      format version (1)
    byte  5      kind code (see KIND_CODES)
    byte  6      complex dimension n
    bytes 7..10  grid resolution N (uint32)
    rest         float64 payload, C order, shape (N,)*(2n)

The format stores real scalar fields on torus grids: potentials, solved
potentials v and other scalars.  A continuity state is saved as its v and
a JSON sidecar holding every other field of solver.ContinuityState;
loading rebuilds the state from v, the reference metric and make_state's
inputs in the sidecar, and checks the rest of the sidecar against it.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import struct
from pathlib import Path

import numpy as np

from .grids import TorusGrid

MAGIC = b"KWB1"
VERSION = 1

KIND_CODES = {"potential": 0, "solution-v": 2, "scalar": 255}
CODE_KINDS = {v: k for k, v in KIND_CODES.items()}

_HEADER = struct.Struct("<4sBBBI")


def save_scalar_field(path, grid: TorusGrid, data: np.ndarray,
                      kind: str = "scalar") -> None:
    data = np.ascontiguousarray(np.asarray(data, dtype="<f8"))
    if data.shape != grid.shape:
        raise ValueError(f"data shape {data.shape} != grid shape {grid.shape}")
    if kind not in KIND_CODES:
        raise ValueError(f"unknown kind {kind!r}; known: {sorted(KIND_CODES)}")
    header = _HEADER.pack(MAGIC, VERSION, KIND_CODES[kind], grid.n, grid.N)
    Path(path).write_bytes(header + data.tobytes())


def load_scalar_field(path):
    """Returns (grid, data, kind)."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, version, kind_code, n, N = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported version {version}")
    if kind_code not in CODE_KINDS:
        raise ValueError(f"{path}: unknown kind code {kind_code}")
    try:
        grid = TorusGrid(int(n), int(N))
    except ValueError as err:  # DimensionMismatch is a ValueError
        raise type(err)(f"{path}: {err}") from err
    expect = grid.num_points * 8
    payload = blob[_HEADER.size:]
    if len(payload) != expect:
        raise ValueError(f"{path}: payload {len(payload)} bytes, expected {expect}")
    data = np.frombuffer(payload, dtype="<f8").reshape(grid.shape).copy()
    return grid, data, CODE_KINDS[kind_code]


def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())


def write_reports_jsonl(path, reports) -> None:
    """One JSON object per line; reports may be InequalityReport or dict."""
    lines = []
    for r in reports:
        d = r.as_dict() if hasattr(r, "as_dict") else dict(r)
        lines.append(json.dumps(d, sort_keys=True))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def rows_to_csv(path, rows, columns) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# the sidecar's fields that make_state takes, in its order after omega and v
STATE_INPUTS = ("epsilon", "log_c_bound", "newton_steps", "krylov_matvecs")


def save_state(directory, state, grid: TorusGrid) -> None:
    """Persist a continuity state: v.kwb plus a diagnostics.json sidecar with
    every other field of the state."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_scalar_field(directory / "v.kwb", grid, state.v, "solution-v")
    write_json(directory / "diagnostics.json", {
        f.name: getattr(state, f.name) for f in dataclasses.fields(state) if f.name != "v"})


def load_state(directory, omega):
    """Rebuild a continuity state saved by save_state.

    make_state rebuilds it from v, the reference metric and STATE_INPUTS
    read from the sidecar (ValueError if one is missing), with the same
    dealiased Ricci residual as the path's.  Every other field of the state
    in the sidecar is cross-checked against it, to 1e-12 max(1, |saved|);
    keys that name no field, like the relative-eigenvalue range of older
    sidecars, are not read, and their residuals (not on the 3N/2 grid) fail
    the check at n = 3.  Other files in the directory are not read.
    """
    from .solver import make_state

    directory = Path(directory)
    diag = read_json(directory / "diagnostics.json")
    missing = [name for name in STATE_INPUTS if name not in diag]
    if missing:
        raise ValueError(f"{directory}: sidecar lacks {', '.join(missing)}")
    grid_v, v, kind_v = load_scalar_field(directory / "v.kwb")
    if kind_v != "solution-v":
        raise ValueError(f"{directory}: expected a solution-v field, got {kind_v}")
    if grid_v.shape != omega.grid.shape:
        raise ValueError(f"{directory}: grid mismatch with reference metric")
    epsilon, log_c, steps, matvecs = (diag[name] for name in STATE_INPUTS)
    state = make_state(omega, epsilon, v, log_c, newton_steps=steps, krylov_matvecs=matvecs)
    for f in dataclasses.fields(state):
        if f.name not in diag or f.name in STATE_INPUTS:
            continue
        saved, rebuilt = diag[f.name], getattr(state, f.name)
        a, b = np.asarray(saved, dtype=float), np.asarray(rebuilt, dtype=float)
        if a.shape != b.shape or not np.all(np.abs(b - a) <= 1e-12 * np.maximum(1.0, np.abs(a))):
            raise ValueError(f"{directory}: sidecar {f.name} {saved!r} disagrees "
                             f"with rebuilt state ({rebuilt!r})")
    return state
