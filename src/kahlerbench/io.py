"""Persistence: scalar-field binary format, CSV exports, JSON reports.

Binary scalar-field layout (little-endian throughout):

    bytes 0..3   magic b"KWB1"
    byte  4      format version (1)
    byte  5      kind code (see KIND_CODES)
    byte  6      complex dimension n
    bytes 7..10  grid resolution N (uint32)
    rest         float64 payload, C order, shape (N,)*(2n)

The format stores real scalar fields on torus grids, such as potentials
and solved potentials v.  A continuity state is saved as its v and a JSON
diagnostics sidecar; everything else is rebuilt from v and the reference
metric.  The kind codes of the u and datum fields that earlier state
directories hold stay registered, so those files still load.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from .grids import TorusGrid

MAGIC = b"KWB1"
VERSION = 1

KIND_CODES = {
    "potential": 0,
    "solution-u": 1,
    "solution-v": 2,
    "datum": 3,
    "scalar": 255,
}
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


def save_state(directory, state, grid: TorusGrid) -> None:
    """Persist a continuity state: v.kwb plus a diagnostics.json sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_scalar_field(directory / "v.kwb", grid, state.v, "solution-v")
    write_json(directory / "diagnostics.json", {
        "epsilon": state.epsilon,
        "sup_u": state.sup_u,
        "log_c_bound": state.log_c_bound,
        "ricci_residual_sup": state.ricci_residual_sup,
        "rel_eig_min": state.rel_eig_min,
        "rel_eig_max": state.rel_eig_max,
        "s_max": state.s_max,
        "newton_steps": state.newton_steps,
        "krylov_matvecs": state.krylov_matvecs,
    })


def load_state(directory, omega):
    """Rebuild a continuity state saved by save_state.

    Diagnostics and wedge integrals are recomputed from (epsilon, v) and
    the reference metric by make_state (the same dealiased Ricci residual
    as the path's), every saved diagnostic is cross-checked against the
    sidecar, and newton_steps and krylov_matvecs are restored from it (0
    for a sidecar written before krylov_matvecs was recorded).  Other
    files in the directory are not read.
    """
    from .solver import make_state

    directory = Path(directory)
    diag = read_json(directory / "diagnostics.json")
    grid_v, v, kind_v = load_scalar_field(directory / "v.kwb")
    if kind_v != "solution-v":
        raise ValueError(f"{directory}: expected a solution-v field, got {kind_v}")
    if grid_v.shape != omega.grid.shape:
        raise ValueError(f"{directory}: grid mismatch with reference metric")
    state = make_state(omega, diag["epsilon"], v, diag["log_c_bound"],
                       newton_steps=diag["newton_steps"],
                       krylov_matvecs=diag.get("krylov_matvecs", 0))
    for name in ("sup_u", "ricci_residual_sup", "rel_eig_min", "rel_eig_max", "s_max"):
        saved, rebuilt = diag[name], getattr(state, name)
        if abs(rebuilt - saved) > 1e-12 * max(1.0, abs(saved)):
            raise ValueError(f"{directory}: sidecar {name} {saved!r} disagrees "
                             f"with rebuilt state ({rebuilt!r})")
    return state
