"""The three workloads: seeded inputs and the fixed list of operations.

A workload is built in two steps.  ``make_inputs(seed, rounds)`` generates
every input from the seed with numpy alone, without calling kahlerbench;
that is the set-up the benchmark times.  ``run_round(kb, inputs, r, ledger,
out_dir)`` then executes round r, calling kahlerbench only through module
attributes (so the traced mode's wrappers see every call), timing each
program call on the ledger and checking every output with :mod:`checks`.
A round is the same list of operations for every seed, so the share of
failed operations is a property of the program alone.
"""

from __future__ import annotations

import math
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

import checks

TOL = 1e-10


@dataclass
class Ledger:
    """Operation counts and the seconds spent inside program calls."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    busy_s: float = 0.0
    notes: list = field(default_factory=list)

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.busy_s += time.perf_counter() - t0

    def record(self, what: str, problems: list) -> None:
        """Count one op whose output was checked; a rejected output fails it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = False
            self.notes.extend(f"WRONG {what}: {p}" for p in problems)

    def raised(self, what: str, err: Exception, ops: int, expected: bool) -> None:
        """Count ops that the program gave up on with one of its own errors.

        Only a failure kept on purpose is expected; any other one also makes
        the run incorrect, so that a fault that cuts work short cannot read
        as a speed-up.
        """
        self.attempted += ops
        self.failed += ops
        self.notes.append(f"{'FAILED' if expected else 'WRONG'} {what}: "
                          f"{type(err).__name__} at eps={getattr(err, 'epsilon', None)}: {err}")
        if not expected:
            self.correct = False


def cosine_field(rng, n: int, N: int, modes: int, kmax: int, hessian_sup: float):
    """Sum of seeded cosine modes, scaled so sup |Hess f|_F = hessian_sup.

    The scaling keeps I + Hess f uniformly positive and the solver's work
    nearly the same from seed to seed.
    """
    axes = np.meshgrid(*([np.arange(N) / N] * (2 * n)), indexing="ij")
    f = np.zeros((N,) * (2 * n))
    for _ in range(modes):
        k = np.zeros(2 * n, dtype=int)
        while not k.any():
            k = rng.integers(-kmax, kmax + 1, size=2 * n)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        weight = rng.uniform(0.3, 1.0)
        f += weight * np.cos(2.0 * np.pi * sum(kk * ax for kk, ax in zip(k, axes)) + phase)
    return f * (hessian_sup / checks.frobenius_sup(checks.complex_hessian(f)))


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


# -- ma-solve --------------------------------------------------------------------

MA_CASES = ((2, 16), (1, 256))


def ma_inputs(seed: int, rounds: int) -> list:
    rng = _rng(seed, "ma-solve")
    return [(n, N, cosine_field(rng, n, N, modes=6, kmax=2, hessian_sup=0.6))
            for _ in range(rounds) for n, N in MA_CASES]


def ma_round(kb, inputs, r: int, ledger: Ledger, out_dir) -> None:
    for n, N, v_star in inputs[r * len(MA_CASES):(r + 1) * len(MA_CASES)]:
        grid = ledger.call(kb.grids.TorusGrid, n, N)
        problem = ledger.call(kb.solver.manufactured_problem, grid, v_star)
        v = ledger.call(kb.solver.solve_ma, problem, tol=TOL)
        ledger.record(f"solve n={n} N={N}", checks.ma_solution(v, v_star, TOL))


# -- path-collapse -----------------------------------------------------------------

PATH_GRID = (2, 12)
SHALLOW = [2.0**-k for k in range(7)]
DEEP = [2.0**-k for k in range(13)]
# The deep schedule runs on the gallery's perturbed torus, the same input
# for every seed: its solve stalls at eps = 2^-8 (the continuity path's
# residual floor), so its 13 states are attempted and failed in every round.
DEEP_AMPLITUDE = 0.01
STALL_EPSILON = DEEP[8]


def is_known_stall(kb, err: Exception) -> bool:
    """The one failure kept on purpose: the line-search stall at eps = 2^-8."""
    return (isinstance(err, kb.errors.NonConvergence) and err.epsilon == STALL_EPSILON
            and "line search stalled" in str(err))


def path_inputs(seed: int, rounds: int) -> list:
    """One seeded potential per round, as strong as the gallery's perturbed torus."""
    rng = _rng(seed, "path-collapse")
    n, N = PATH_GRID
    return [cosine_field(rng, n, N, modes=7, kmax=1, hessian_sup=0.36)
            for _ in range(rounds)]


def _path_diagnostics(kb, ledger: Ledger, omega, states):
    kappa0 = ledger.call(kb.curvature.kappa_floor, omega)
    expansion = ledger.call(kb.integrals.epsilon_expansion_check, states, omega)
    nef = ledger.call(kb.integrals.nef_lower_bound_check, states, omega)
    bigness = ledger.call(kb.integrals.bigness_bound_report, kappa0, omega, states)
    return dict(expansion=expansion, nef=nef, kappa0=kappa0, bigness=bigness)


def path_round(kb, inputs: list, r: int, ledger: Ledger, out_dir) -> None:
    grid = ledger.call(kb.grids.TorusGrid, *PATH_GRID)
    _shallow_path(kb, grid, inputs[r], r, ledger, out_dir)
    _deep_path(kb, grid, r, ledger)


def _shallow_path(kb, grid, psi, r: int, ledger: Ledger, out_dir) -> None:
    omega = ledger.call(kb.fields.TorusMetricField, grid, psi)
    try:
        states = ledger.call(kb.solver.continuity_path, omega, SHALLOW, tol=TOL)
    except (kb.errors.NonConvergence, kb.errors.PositivityLoss) as err:
        ledger.raised(f"round {r} shallow path", err, ops=len(SHALLOW), expected=False)
        return
    report = _path_diagnostics(kb, ledger, omega, states)
    ref = checks.TorusReference(psi, SHALLOW[0])
    path_problems = checks.path_reports(ref, states, **report)
    verified = []
    for state in states:
        problems = path_problems + checks.path_state(ref, state)
        ledger.record(f"round {r} eps={state.epsilon:g}", problems)
        if not problems:
            verified.append(state)
    if not verified:
        return
    for k, state in enumerate(verified):
        ledger.call(kb.io.save_state, out_dir / f"s{k}", state, grid)
    loaded = ledger.call(kb.io.load_state, out_dir / f"s{len(verified) - 1}", omega)
    shutil.rmtree(out_dir)
    problems = checks.reloaded_state(verified[-1], loaded)
    if problems:
        ledger.correct = False
        ledger.notes.extend(f"WRONG round {r} reload: {p}" for p in problems)


def _deep_path(kb, grid, r: int, ledger: Ledger) -> None:
    psi = ledger.call(kb.zoo.perturbed_torus_potential, grid, DEEP_AMPLITUDE)
    omega = ledger.call(kb.fields.TorusMetricField, grid, psi)
    try:
        states = ledger.call(kb.solver.continuity_path, omega, DEEP, tol=TOL)
    except (kb.errors.NonConvergence, kb.errors.PositivityLoss) as err:
        ledger.raised(f"round {r} deep path", err, ops=len(DEEP),
                      expected=is_known_stall(kb, err))
        return
    ref = checks.TorusReference(psi, DEEP[0])
    for state in states:
        ledger.record(f"round {r} deep eps={state.epsilon:g}", checks.path_state(ref, state))


# -- curvature-screen ----------------------------------------------------------------

SCREEN_DIRECTIONS = 2000
SCREEN_REFINE = 40
CHECK_DIRECTIONS = 256
TENSORS_PER_DIM = 32
POINTS_PER_CHART = 32
# Conditioned tensors for n = 2 and 3 are left out: the extremizer misses
# the global extreme on about 1 in 80 of them for n = 3 and on about 1 in
# 2000 for n = 2 (see CHANGES.md), so whether a run fails would depend on
# the seed.  Model tensors and the chart points cover n = 2 and 3.
TENSOR_DIMS = (1,)
# Trusted radii of the gallery charts (radius minus margin); points are drawn
# well inside them.
CHART_REACH = {"poincare-disk": 0.75, "poincare-polydisk": 0.75,
               "fubini-study": 0.8, "fermat-chart": 0.25}
CHART_DIM = {"poincare-disk": 1, "poincare-polydisk": 2,
             "fubini-study": 2, "fermat-chart": 2}


@dataclass
class ScreenInputs:
    """Per-round arrays: index r along the first axis belongs to round r."""

    disk_scale: np.ndarray
    polydisk_scale: np.ndarray
    tensors: dict  # n in TENSOR_DIMS -> (R, g, g', gap), shape (rounds, TENSORS_PER_DIM, ...)
    models: dict  # n -> (R, g, c), shape (rounds, ...)
    points: dict  # chart -> (rounds, POINTS_PER_CHART, dim) complex points
    seed: int


def _metrics(rng, shape: tuple, n: int) -> np.ndarray:
    A = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    return 0.3 * (A @ np.conj(np.swapaxes(A, -1, -2))) + np.eye(n)


def _negative_tensors(rng, shape: tuple, n: int):
    """(R, g, g', gap) with sup H <= -gap by construction.

    In a unit frame |Q(u)| <= |R|_F on the unit sphere, so subtracting the
    model tensor of constant curvature |R|_F + gap pushes every sectional
    value below -gap; a random change of frame P then hides the frame.
    """
    R0 = checks.kahler_tensors(rng, n, shape)
    gap = rng.uniform(0.2, 1.0, shape)
    eye = np.broadcast_to(np.eye(n, dtype=complex), shape + (n, n))
    R0 = R0 - checks.model_tensor(eye, np.sqrt((np.abs(R0) ** 2).sum(axis=(-4, -3, -2, -1)))
                                  + gap)
    G = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    P = eye + 0.3 * G
    g = np.swapaxes(P, -1, -2) @ np.conj(P)
    return checks.change_frame(R0, P), g, _metrics(rng, shape, n), gap


def screen_inputs(seed: int, rounds: int) -> ScreenInputs:
    rng = _rng(seed, "curvature-screen")
    tensors = {n: _negative_tensors(rng, (rounds, TENSORS_PER_DIM), n) for n in TENSOR_DIMS}
    models = {}
    for n in (1, 2, 3):
        g = _metrics(rng, (rounds,), n)
        c = rng.uniform(-3.0, 3.0, rounds)
        models[n] = (checks.model_tensor(g, c), g, c)
    points = {}
    for name, reach in CHART_REACH.items():
        shape = (rounds, POINTS_PER_CHART, CHART_DIM[name])
        radius = 0.6 * reach * np.sqrt(rng.uniform(size=shape))
        points[name] = radius * np.exp(2j * np.pi * rng.uniform(size=shape))
    return ScreenInputs(rng.uniform(0.5, 3.0, rounds), rng.uniform(0.5, 3.0, rounds),
                        tensors, models, points, seed)


def screen_round(kb, inputs: ScreenInputs, r: int, ledger: Ledger, out_dir) -> None:
    rng = np.random.default_rng([inputs.seed, r])  # the checks' own directions
    for n in TENSOR_DIMS:
        for R, g, gp, gap in zip(*(a[r] for a in inputs.tensors[n])):
            ext = ledger.call(kb.curvature.hsc_extremes_from_tensor, R, g,
                              SCREEN_DIRECTIONS, SCREEN_REFINE)
            report = ledger.call(kb.inequalities.royden_margin, R, g, gp, -ext.h_max)
            directions = checks.random_directions(rng, n, CHECK_DIRECTIONS)
            problems = checks.extremes(R, g, ext, directions, 1e-8) + checks.royden(report)
            if not ext.h_max <= -gap + 1e-9:
                problems.append(f"h_max {ext.h_max!r} above the built-in ceiling {-gap!r}")
            ledger.record(f"round {r} tensor n={n}", problems)
    for n in (1, 2, 3):
        R, g, c = (a[r] for a in inputs.models[n])
        ext = ledger.call(kb.curvature.hsc_extremes_from_tensor, R, g,
                          SCREEN_DIRECTIONS, SCREEN_REFINE)
        ledger.record(f"round {r} model n={n} c={c:.6g}",
                      checks.closed_form(ext, c, c, tol=1e-9))

    s_disk, s_poly = float(inputs.disk_scale[r]), float(inputs.polydisk_scale[r])
    charts = {  # gallery parameters, hand-written metric, closed-form (h_min, h_max)
        "poincare-disk": (dict(scale=s_disk), checks.disk_metric(s_disk),
                          (-2.0 / s_disk, -2.0 / s_disk)),
        "poincare-polydisk": (dict(n=2, scale=s_poly), checks.disk_metric(s_poly),
                              (-2.0 / s_poly, -2.0 / (2 * s_poly))),
        "fubini-study": (dict(n=2), checks.fubini_study_metric, (2.0, 2.0)),
        "fermat-chart": (dict(degree=5), checks.fermat_metric(5), None),
    }
    for name, (params, metric, closed) in charts.items():
        field = ledger.call(kb.zoo.make_example, name, **params).field
        for i, z in enumerate(inputs.points[name][r]):
            ext = ledger.call(kb.curvature.hsc_extremes, field, z,
                              SCREEN_DIRECTIONS, SCREEN_REFINE)
            R, g = checks.fd_curvature(metric, z)
            directions = checks.random_directions(rng, z.size, CHECK_DIRECTIONS)
            problems = checks.extremes(R, g, ext, directions, 1e-6)
            if closed is not None:
                problems += checks.closed_form(ext, *closed)
            if name == "poincare-polydisk" and i == 0:
                hyp = kb.inequalities.SchwarzHypotheses(kappa=1.0 / s_poly, lam=2.0 / s_poly)
                report = ledger.call(kb.inequalities.schwarz_conclusion_check, field, field,
                                     hyp, z, fd_step=0.02)
                problems += checks.schwarz_polydisk(report, s_poly)
            ledger.record(f"round {r} {name} z={np.round(z, 4)}", problems)


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    run_round: object
    round_s: float  # median seconds in program calls per round, sets rounds per run


WORKLOADS = {
    "ma-solve": Workload(ma_inputs, ma_round, round_s=3.1),
    "path-collapse": Workload(path_inputs, path_round, round_s=23.0),
    "curvature-screen": Workload(screen_inputs, screen_round, round_s=3.3),
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, math.floor(seconds / WORKLOADS[workload].round_s + 0.5))
