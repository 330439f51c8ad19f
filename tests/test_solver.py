"""Monge-Ampère solves, the shrinking-coefficient path, and its diagnostics."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
import scipy.sparse.linalg

from kahlerbench.errors import DimensionMismatch, NonConvergence, PositivityLoss
from kahlerbench.fields import TorusMetricField
from kahlerbench.grids import TorusGrid
from kahlerbench.integrals import trace_collapse_check, wedge_integral
from kahlerbench.io import load_state, save_state
from kahlerbench.linalg import (adjugate, component_det, component_inverse, components,
                                hermitian, trace_pairing, trace_weights)
from kahlerbench import linalg, solver
from kahlerbench.solver import (
    MAProblem,
    ContinuityState,
    _solve_linearized,
    continuity_path,
    make_state,
    ma_log_residual,
    manufactured_problem,
    path_series,
    ricci_residual_dealiased,
    solve_ma,
    volume_ratio_ceiling,
)
from kahlerbench.zoo import perturbed_torus_potential


def cosine_potential(grid, amplitude, k=1):
    x = grid._axis_view(grid.axis_coords, 0)
    return amplitude * np.broadcast_to(np.cos(2.0 * np.pi * k * x), grid.shape).copy()


def rough_torus_potential(grid, amplitude, sharpness=0.35):
    """Analytic potential with a slowly decaying (geometric) spectrum.

    Sums 1/(1 + sharpness - cos 2 pi t) over every real axis, so the
    Fourier coefficients fall off like rho^|k| with rho approaching 1 as
    sharpness -> 0.  Unlike a band-limited cosine recipe, no finite grid
    resolves it exactly, which makes it the substrate for grid-refinement
    studies: the aliasing error is tunably large.  Mean-removed, as the
    zero-mean potential gauge requires.
    """
    if sharpness <= 0.0:
        raise ValueError("sharpness must be positive")
    psi = np.zeros(grid.shape)
    for axis in range(2 * grid.n):
        t = grid._axis_view(grid.axis_coords, axis)
        psi = psi + 1.0 / (1.0 + sharpness - np.cos(2.0 * np.pi * t))
    psi = amplitude * psi
    return psi - psi.mean()


def test_rough_potential_has_geometric_fourier_decay():
    # 1/(1 + delta - cos 2 pi t) has coefficients ~ rho^|k| with
    # rho = 1 + delta - sqrt((1 + delta)^2 - 1); delta = 1/4 gives rho = 1/2.
    grid = TorusGrid(1, 32)
    psi = rough_torus_potential(grid, 1.0, sharpness=0.25)
    assert abs(psi.mean()) < 1e-14
    coeffs = np.abs(np.fft.rfft(psi[:, 0]) / grid.N)
    ratios = coeffs[2:8] / coeffs[1:7]
    assert ratios == pytest.approx(np.full(6, 0.5), abs=1e-5)


def test_rough_potential_rejects_nonpositive_sharpness():
    grid = TorusGrid(1, 16)
    with pytest.raises(ValueError, match="sharpness"):
        rough_torus_potential(grid, 0.01, sharpness=0.0)
    with pytest.raises(ValueError, match="sharpness"):
        rough_torus_potential(grid, 0.01, sharpness=-0.3)


def seeded_cosine_potential(grid, seed, modes=6, kmax=2, hessian_sup=0.6):
    """Sum of seeded cosine modes, scaled so sup |Hess f|_F = hessian_sup."""
    rng = np.random.default_rng(seed)
    x = np.meshgrid(*([grid.axis_coords] * (2 * grid.n)), indexing="ij", sparse=True)
    f = np.zeros(grid.shape)
    for _ in range(modes):
        k = np.zeros(2 * grid.n, dtype=int)
        while not k.any():
            k = rng.integers(-kmax, kmax + 1, size=2 * grid.n)
        phase, weight = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.3, 1.0)
        f = f + weight * np.cos(2.0 * np.pi * sum(kk * xx for kk, xx in zip(k, x)) + phase)
    return f * (hessian_sup / np.max(np.linalg.norm(grid.complex_hessian(f), axis=(-2, -1))))


def _g_eps(omega, state):
    """A state's Hermitian metric eps*g + Hess v, rebuilt from v."""
    return state.epsilon * hermitian(omega.g) + omega.grid.complex_hessian(state.v)


@pytest.fixture(scope="module")
def deep_path():
    """Cosine-perturbed background, eps halving from 1 down to 2^-10."""
    grid = TorusGrid(1, 64)
    omega = TorusMetricField(grid, cosine_potential(grid, 0.05))
    eps = [2.0**-k for k in range(11)]
    states = continuity_path(omega, eps, tol=5e-9)
    return omega, states


# -- single solves ------------------------------------------------------------------


def lapack_manufactured(grid, v_star):
    """The problem I, F = log det(I + Hess v*) - v* with det by numpy.linalg,
    a route apart from the component kernels the solver runs on, so a fault
    in those shows as a wrong solution."""
    eye = np.broadcast_to(np.eye(grid.n), grid.shape + (grid.n, grid.n))
    d = np.linalg.det(eye + grid.complex_hessian(v_star)).real
    return MAProblem(grid, components(eye), np.log(d) - v_star)


def test_manufactured_solution_is_recovered():
    grid = TorusGrid(1, 32)
    v_star = cosine_potential(grid, 0.08)
    problem = lapack_manufactured(grid, v_star)
    assert np.max(np.abs(manufactured_problem(grid, v_star).datum - problem.datum)) < 1e-14
    v, info = solve_ma(problem, tol=1e-12, return_info=True)
    assert np.max(np.abs(v - v_star)) < 1e-12
    assert info["final_residual"] <= 1e-12
    assert info["newton_steps"] >= 3
    hist = info["residual_history"]
    assert all(b < a for a, b in zip(hist, hist[1:]))
    # one forcing and one matvec count per Newton step
    assert info["forcing"] == [max(1e-10, min(0.5, r)) for r in hist[:-1]]
    assert len(info["krylov_matvecs"]) == info["newton_steps"]
    assert all(m >= 1 for m in info["krylov_matvecs"])


def test_manufactured_n3_solution_is_recovered(monkeypatch):
    # every component of M is live (seeded modes on all six axes), so the
    # n = 3 closed forms (det, the cofactor weights, the positivity policy's
    # minors) are exercised whole, and the solve calls no LAPACK routine
    grid = TorusGrid(3, 8)
    v_star = seeded_cosine_potential(grid, 1, modes=6, kmax=1)
    problem = lapack_manufactured(grid, v_star)
    assert np.max(np.abs(manufactured_problem(grid, v_star).datum - problem.datum)) < 1e-13

    def refused(*args, **kwargs):
        raise AssertionError("solve_ma called numpy.linalg")

    for name in ("eigvalsh", "eigh", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refused)
    v, info = solve_ma(problem, tol=1e-10, return_info=True)
    assert np.max(np.abs(v - v_star)) < 1e-11
    assert info["newton_steps"] >= 3


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
def test_newton_loop_assembles_no_hermitian_field(n, N, monkeypatch):
    # every step and trial stays on real components: nothing assembles a
    # Hermitian (..., n, n) field or inverts one
    grid = TorusGrid(n, N)
    problem = manufactured_problem(grid, seeded_cosine_potential(grid, 2, hessian_sup=0.3))

    def refused(*args, **kwargs):
        raise AssertionError("the Newton loop assembled or inverted a Hermitian field")

    for target in ("kahlerbench.linalg.hermitian", "kahlerbench.grids.hermitian",
                   "numpy.linalg.inv"):
        monkeypatch.setattr(target, refused)
    monkeypatch.setattr(TorusGrid, "complex_hessian", refused)
    _, info = solve_ma(problem, tol=1e-10, return_info=True)
    assert info["newton_steps"] >= 2


def test_newton_tail_contracts_quadratically():
    grid = TorusGrid(1, 32)
    problem = manufactured_problem(grid, cosine_potential(grid, 0.08))
    _, info = solve_ma(problem, tol=1e-12, return_info=True)
    hist = info["residual_history"]
    checked = 0
    for prev, nxt in zip(hist, hist[1:]):
        if 1e-8 <= prev <= 5e-2:  # window above the evaluation noise floor
            assert nxt <= 10.0 * prev**2
            checked += 1
    assert checked >= 2


def flat_laplacian_full_spectrum(n, N):
    """-pi^2 |k|^2 on the complex fftn spectrum, Nyquist zeroed."""
    k = np.fft.fftfreq(N, d=1.0 / N)
    k[N // 2] = 0.0
    ks = np.meshgrid(*([k] * (2 * n)), indexing="ij", sparse=True)
    return -np.pi**2 * sum(kk**2 for kk in ks)


def _capture_apply(monkeypatch, grid, w, rhs):
    """The apply that _solve_linearized hands to _bicgstab for (w, rhs)."""
    applies = []

    def capture(apply, b, rtol, maxiter):
        applies.append(apply)
        return np.zeros_like(b), 0

    monkeypatch.setattr(solver, "_bicgstab", capture)
    _solve_linearized(grid, w, rhs, 0.5)
    monkeypatch.undo()
    return applies[0]


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
def test_flat_preconditioner_matches_full_spectrum_multiplier(n, N, monkeypatch):
    """(Delta - sigma)^{-1} (f / s), sigma = mean(1/s), for a random positive
    s = tr(M^{-1})/n: the q^ of the Krylov apply, read from trace weights
    whose diagonal rows are s and whose off-diagonal rows are 0."""
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(N)
    s = rng.uniform(0.3, 3.0, grid.shape)
    f = rng.standard_normal(grid.shape)
    w = np.zeros((n * n,) + grid.shape)
    w[:: n + 1] = s
    mult = 1.0 / (flat_laplacian_full_spectrum(n, N) - np.mean(1.0 / s))
    expected = np.fft.ifftn(np.fft.fftn(f / s) * mult).real
    got, _ = _capture_apply(monkeypatch, grid, w, f)(f)
    assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8), (3, 8)])
def test_preconditioner_inverts_a_constant_trace_operator(n, N):
    """For M = I/c the preconditioned operator is the identity: BiCGSTAB
    stops after its first matvec, with the exact solution of c Delta - 1.
    The operator gets M's trace weights, as the Newton loop passes them."""
    grid = TorusGrid(n, N)
    c = 0.7
    M = np.broadcast_to(np.eye(n, dtype=complex) / c, grid.shape + (n, n))
    rhs = np.random.default_rng(N + n).standard_normal(grid.shape)
    delta, matvecs = _solve_linearized(grid, trace_weights(components(M)), rhs, rtol=1e-10)
    assert matvecs == 1
    lhs = np.fft.ifftn(np.fft.fftn(delta) * (c * flat_laplacian_full_spectrum(n, N) - 1.0))
    assert np.max(np.abs(lhs.real - rhs)) < 1e-12 * np.max(np.abs(rhs))


# Krylov matvecs of these seeded manufactured solves (tol 1e-10) under the
# former grid-mean preconditioner (c_bar Delta - 1)^{-1}, c_bar = mean tr(M^{-1})/n:
# (2, 16) seeds 1-3: 37, 36, 54; (1, 256) seeds 1-3: 62, 43, 44.
@pytest.mark.parametrize("n,N,seed,former,bound", [
    (2, 16, 1, 37, 0.8), (2, 16, 2, 36, 0.8), (2, 16, 3, 54, 0.8),
    (1, 256, 1, 62, 0.5), (1, 256, 2, 43, 0.5), (1, 256, 3, 44, 0.5),
])
def test_trace_scaled_preconditioner_cuts_krylov_matvecs(n, N, seed, former, bound):
    grid = TorusGrid(n, N)
    v_star = seeded_cosine_potential(grid, seed)
    v, info = solve_ma(manufactured_problem(grid, v_star), tol=1e-10, return_info=True)
    assert np.max(np.abs(v - v_star)) < 1e-12
    assert sum(info["krylov_matvecs"]) <= bound * former


# Krylov matvecs of the same solves under the former forcing
# max(1e-10, min(1e-4, 0.1 res)), which oversolves every early Newton step:
# (2, 16) seeds 1-3: 25, 22, 34; (1, 256) seeds 1-3: 20, 15, 15.
@pytest.mark.parametrize("n,N,seed,former", [
    (2, 16, 1, 25), (2, 16, 2, 22), (2, 16, 3, 34),
    (1, 256, 1, 20), (1, 256, 2, 15), (1, 256, 3, 15),
])
def test_residual_scaled_forcing_cuts_krylov_matvecs(n, N, seed, former):
    grid = TorusGrid(n, N)
    v_star = seeded_cosine_potential(grid, seed)
    v, info = solve_ma(manufactured_problem(grid, v_star), tol=1e-10, return_info=True)
    assert np.max(np.abs(v - v_star)) < 1e-12
    assert sum(info["krylov_matvecs"]) <= 0.7 * former


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8), (3, 8)])
def test_trace_weights_reproduce_the_full_trace(n, N):
    """sum_k w[k] * (Hessian component k of f), w the cofactor weights of a
    random positive Hermitian field M, against Re tr(M^{-1} H) with M^{-1}
    from numpy.linalg.inv."""
    grid = TorusGrid(n, N)
    rng = np.random.default_rng(N + n)
    A = (rng.standard_normal(grid.shape + (n, n))
         + 1j * rng.standard_normal(grid.shape + (n, n)))
    M = A @ np.conj(np.swapaxes(A, -1, -2)) + np.eye(n)
    f = rng.standard_normal(grid.shape)
    want = np.einsum("...ij,...ji->...", np.linalg.inv(M), grid.complex_hessian(f)).real
    got = np.einsum("c...,c...->...", trace_weights(components(M)), grid.hessian_components(f))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _linearized_system(n, N, rng):
    """The grid, trace weights and a right-hand side drawn from rng of a
    seeded Newton linearization: M = I + Hess v, v a seeded cosine potential."""
    grid = TorusGrid(n, N)
    M = grid.hessian_components(seeded_cosine_potential(grid, n))
    M[:: n + 1] += 1.0
    return grid, trace_weights(M), rng.standard_normal(grid.shape)


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8), (3, 8)])
def test_krylov_apply_is_the_direct_operator(n, N, monkeypatch):
    # apply(q) is (q^, (Delta_M - 1) q^) for q^ = P q, by the identity
    # s Delta q^ = q + s sigma q^: the image is the direct operator's to
    # rounding; the direct operator adds the weighted Hessian rows one at a
    # time, bit for bit the weighted sum over the whole component stack
    rng = np.random.default_rng(140 + n)
    grid, w, rhs = _linearized_system(n, N, rng)
    apply = _capture_apply(monkeypatch, grid, w, rhs)
    f = 3.0 + rng.standard_normal(grid.shape)
    qhat, image = apply(f)
    want = solver._operator(grid, w, qhat)
    assert np.max(np.abs(image - want)) <= 1e-13 * np.max(np.abs(want))
    einsum = np.einsum("c...,c...->...", w, grid.hessian_components(f)) - f
    assert solver._operator(grid, w, f).tobytes() == einsum.tobytes()


class _PackageReductions:
    """numpy as scipy's bicgstab module reads it, with np.dot and
    np.linalg.norm the solver's reductions."""

    dot = staticmethod(solver._dot)
    linalg = SimpleNamespace(norm=solver._norm)

    def __getattr__(self, name):
        return getattr(np, name)


@pytest.mark.parametrize("rtol", [0.5, 1e-3, 1e-10])
@pytest.mark.parametrize("n,N", [(1, 16), (2, 8), (3, 8)])
def test_package_bicgstab_is_scipys_bit_for_bit(n, N, rtol, monkeypatch):
    # scipy's bicgstab, with apply split into a psolve and a matvec that
    # returns the image apply made with it, and with the package's
    # reductions for its np.dot and np.linalg.norm, is the oracle: the same
    # iterate bytes and info
    grid, w, rhs = _linearized_system(n, N, np.random.default_rng(170 + n))
    package, runs = solver._bicgstab, []
    monkeypatch.setattr(sys.modules[scipy.sparse.linalg.bicgstab.__module__], "np",
                        _PackageReductions())

    def both(apply, b, rtol, maxiter):
        size, shape, made = b.size, b.shape, []

        def psolve(p):
            made.append(apply(p.reshape(shape)))
            return made[-1][0].reshape(size)

        def matvec(qhat):
            assert qhat.tobytes() == made[-1][0].tobytes()
            return made[-1][1].reshape(size)

        A, P = (scipy.sparse.linalg.LinearOperator((size, size), matvec=op, dtype=float)
                for op in (matvec, psolve))
        runs.append(scipy.sparse.linalg.bicgstab(A, b.reshape(size), M=P, rtol=rtol,
                                                 atol=0.0, maxiter=maxiter))
        runs.append(package(apply, b, rtol, maxiter))
        return runs[-1]

    monkeypatch.setattr(solver, "_bicgstab", both)
    kept = rhs.copy()
    delta, matvecs = _solve_linearized(grid, w, rhs, rtol)
    (want, want_info), (got, info) = runs
    assert info == want_info and got.shape == grid.shape
    assert got.tobytes() == want.tobytes() and delta is got
    assert rhs.tobytes() == kept.tobytes()
    assert 0 < matvecs and matvecs % 2 == 0  # both runs' applications


@pytest.mark.parametrize("info", [7, -10, -11])
def test_a_failed_krylov_solve_is_accepted_only_near_the_floor(info, monkeypatch):
    # a nonzero info with a converged iterate is accepted as it is, after one
    # application of the direct operator; with the zero iterate (relative
    # residual 1) it raises, naming info and residual
    grid, w, rhs = _linearized_system(2, 8, np.random.default_rng(180))
    package = solver._bicgstab
    want, want_matvecs = _solve_linearized(grid, w, rhs, 1e-10)
    monkeypatch.setattr(solver, "_bicgstab",
                        lambda *args, **kwargs: (package(*args, **kwargs)[0], info))
    delta, matvecs = _solve_linearized(grid, w, rhs, 1e-10)
    assert delta.tobytes() == want.tobytes() and matvecs == want_matvecs + 1
    monkeypatch.setattr(solver, "_bicgstab", lambda apply, b, rtol, maxiter:
                        (np.zeros_like(b), info))
    with pytest.raises(NonConvergence, match=rf"info={info}, rel residual 1\.00e\+00"):
        _solve_linearized(grid, w, rhs, 1e-10)


def test_iterates_do_not_depend_on_the_blas_thread_count():
    # the Krylov reductions are einsum's own loops, not BLAS: a seeded (2, 16)
    # solve gives the same bytes with one OpenBLAS thread and with two
    src = str(Path(solver.__file__).parents[1])
    code = ("import hashlib, numpy as np\n"
            "from kahlerbench.grids import TorusGrid\n"
            "from kahlerbench.solver import manufactured_problem, solve_ma\n"
            "grid = TorusGrid(2, 16)\n"
            "x = np.meshgrid(*[grid.axis_coords] * 4, indexing='ij', sparse=True)\n"
            "v = 0.004 * np.cos(2 * np.pi * (x[0] + 2 * x[1] - x[3])) "
            "+ 0.003 * np.sin(2 * np.pi * (x[2] - x[1]))\n"
            "v = solve_ma(manufactured_problem(grid, v), tol=1e-10)\n"
            "print(hashlib.sha256(v.tobytes()).hexdigest())")
    digests = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src,
                                               "OPENBLAS_NUM_THREADS": threads}).stdout
               for threads in ("1", "2")]
    assert digests[0] == digests[1] and len(digests[0]) == 65


def test_importing_the_package_loads_no_scipy_sparse():
    # the Krylov loop is the solver's own: nothing of scipy.sparse is loaded
    src = str(Path(solver.__file__).parents[1])
    code = ("import sys, kahlerbench\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'sparse']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_problem_holds_alpha_as_components():
    grid = TorusGrid(2, 8)
    alpha = TorusMetricField(grid, seeded_cosine_potential(grid, 3, hessian_sup=0.3)).g
    zero = np.zeros(grid.shape)
    problem = MAProblem(grid, alpha, zero)
    # given as real components, alpha is kept as it is
    assert problem.alpha is alpha
    assert problem.alpha.shape == (4,) + grid.shape and problem.alpha.dtype == np.float64
    eye = manufactured_problem(grid, seeded_cosine_potential(grid, 3)).alpha
    assert np.array_equal(eye, components(np.broadcast_to(np.eye(2), grid.shape + (2, 2))))
    for shape in [grid.shape + (2, 2), grid.shape + (2, 3), grid.shape + (1, 1),
                  (3,) + grid.shape, (4,) + grid.shape[1:], (4,) + grid.shape + (1,)]:
        with pytest.raises(DimensionMismatch):
            MAProblem(grid, np.zeros(shape), zero)


def test_problem_rejects_a_hermitian_alpha_before_any_cast():
    # a complex alpha, Hermitian or in the component shape, is refused before
    # it is cast to float, which would warn and drop its imaginary part
    grid = TorusGrid(2, 8)
    g = TorusMetricField(grid, seeded_cosine_potential(grid, 3, hessian_sup=0.3)).g
    zero = np.zeros(grid.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (hermitian(g), g.astype(complex)):
            with pytest.raises(DimensionMismatch, match="real components"):
                MAProblem(grid, alpha, zero)


def test_manufactured_solve_working_set():
    # in field-sizes (doubles over the grid): batched n*n-row Hessians of
    # every Krylov vector and a complex alpha with its components copy
    # peaked at 36.2 here
    grid = TorusGrid(2, 16)
    problem = manufactured_problem(grid, seeded_cosine_potential(grid, 1))
    solve_ma(problem)  # build the cached multipliers
    tracemalloc.start()
    try:
        solve_ma(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * 8 * grid.num_points, peak / (8 * grid.num_points)


def test_zero_datum_has_zero_solution():
    grid = TorusGrid(1, 16)
    eye = np.ones((1,) + grid.shape)
    problem = MAProblem(grid, eye, np.zeros(grid.shape))
    v, info = solve_ma(problem, return_info=True)
    assert np.max(np.abs(v)) == 0.0
    assert info["newton_steps"] == 0


def test_solver_guards():
    grid = TorusGrid(1, 16)
    eye = np.ones((1,) + grid.shape)

    indefinite = eye + grid.hessian_components(cosine_potential(grid, 0.2))
    with pytest.raises(PositivityLoss):
        solve_ma(MAProblem(grid, indefinite, np.zeros(grid.shape)))

    problem = MAProblem(grid, eye, np.zeros(grid.shape))
    with pytest.raises(DimensionMismatch):
        solve_ma(problem, v0=np.zeros((8, 8)))

    with pytest.raises(DimensionMismatch):
        MAProblem(grid, eye.reshape(grid.shape + (1,)), np.zeros(grid.shape))
    with pytest.raises(DimensionMismatch):
        MAProblem(grid, eye, np.zeros((8, 8)))


def test_manufactured_problem_rejects_nonpositive_potential():
    grid = TorusGrid(1, 16)
    with pytest.raises(PositivityLoss):
        manufactured_problem(grid, cosine_potential(grid, 0.2))


def test_manufactured_problem_holds_the_metric_to_the_policy():
    # I + Hess v* has eigenvalues (5e-11, 1) at x_1 = 0: det > 0 everywhere,
    # but the least eigenvalue is below PD_RTOL times the largest
    grid = TorusGrid(2, 8)
    v_star = cosine_potential(grid, (1.0 - 5e-11) / np.pi**2)
    M = grid.hessian_components(v_star)
    M[::3] += 1.0
    assert component_det(M).min() > 0.0
    with pytest.raises(PositivityLoss, match="^manufactured metric") as err:
        manufactured_problem(grid, v_star)
    assert err.value.point[0] == 0
    assert err.value.min_eigenvalue == pytest.approx(5e-11, rel=1e-3)


def test_nonconvergence_carries_diagnostics(monkeypatch):
    grid = TorusGrid(1, 32)
    problem = manufactured_problem(grid, cosine_potential(grid, 0.08))
    monkeypatch.setattr(solver, "MAX_NEWTON_STEPS", 1)
    with pytest.raises(NonConvergence) as err:
        solve_ma(problem)
    assert err.value.steps == 1
    assert err.value.residual > 0.0


# -- continuity path ----------------------------------------------------------------


def test_flat_path_is_exact():
    grid = TorusGrid(2, 8)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    eps = [1.0, 0.5, 0.25]
    states = continuity_path(omega, eps, tol=1e-10)
    assert volume_ratio_ceiling(omega, 1.0) == 0.0
    for e, s in zip(eps, states):
        assert s.newton_steps == 0  # the series start is already exact
        assert np.max(np.abs(s.v - omega.log_det_g - 2.0 * np.log(e))) < 1e-12
        assert s.sup_u == pytest.approx(2.0 * np.log(e), abs=1e-12)
        assert s.sup_u <= s.log_c_bound + 1e-8
        assert s.ricci_residual_sup < 1e-12
        assert s.s_max == pytest.approx(2.0 / e, rel=1e-12)
        sigma_n = np.linalg.det(_g_eps(omega, s)).real / omega.det_g
        assert np.max(np.abs(sigma_n - e**2)) < 1e-12
        # omega_eps = eps * omega, so W_k = eps^k
        assert len(s.wedge_integrals) == 3
        assert max(abs(w - e**k) for k, w in enumerate(s.wedge_integrals)) <= 1e-15


def test_state_wedge_integrals_are_the_wedge_pass():
    grid = TorusGrid(2, 8)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    for s in continuity_path(omega, [1.0, 0.5, 0.25], tol=1e-10):
        g_eps = _g_eps(omega, s)
        assert s.wedge_integrals == tuple(wedge_integral(components(g_eps), omega.g, k)
                                          for k in range(grid.n + 1))


def test_state_keeps_v_as_its_only_array():
    grid = TorusGrid(1, 16)
    omega = TorusMetricField(grid, cosine_potential(grid, 0.05))
    (state,) = continuity_path(omega, [0.5], tol=1e-10)
    arrays = [f.name for f in fields(state)
              if isinstance(getattr(state, f.name), np.ndarray)]
    assert arrays == ["v"]


def _hermitian_route_diagnostics(omega, epsilon, v, ricci_components):
    """make_state's diagnostics by the Hermitian route, the oracle of the
    component route: g and g_eps assembled as (..., n, n) fields, S and the
    mixed determinants from the components of the assembled fields, and the
    Ricci sup as numpy's complex abs of the assembled residual, whose
    components are ricci_components."""
    grid, n = omega.grid, omega.n
    g = hermitian(omega.g)
    g_eps = epsilon * g + grid.complex_hessian(v)
    a, b = components(g_eps), components(g)
    D = np.stack([component_det(b)] + [trace_pairing(adjugate(x), y)
                                       for x, y in [(b, a), (a, b)][: n - 1]]
                 + [component_det(a)], axis=-1)
    return dict(sup_u=float((v - omega.log_det_g).max()),
                ricci_residual_sup=float(np.max(np.abs(hermitian(ricci_components)))),
                s_max=float(trace_pairing(component_inverse(a), b).max()),
                wedge_integrals=tuple(float(np.mean(D[..., k] / math.comb(n, k)))
                                      for k in range(n + 1)))


@pytest.mark.parametrize("n, N, epsilons", [(1, 16, [1.0, 0.5, 0.25]), (2, 12, [1.0, 0.5, 0.25]),
                                            (3, 8, [1.0, 0.6])])
def test_state_diagnostics_are_the_hermitian_routes(n, N, epsilons, monkeypatch):
    # every field of each state the path returns is the Hermitian route's,
    # bit for bit; the Ricci residual's components are the last Hessian that
    # ricci_residual_dealiased takes, kept as the path diagnoses each state
    grid = TorusGrid(n, N)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.008))
    last, residuals = [None], []
    hessian_of_spectrum, dealiased = TorusGrid.hessian_of_spectrum, solver.ricci_residual_dealiased

    def kept(self, F):
        last[0] = hessian_of_spectrum(self, F)
        return last[0]

    def kept_residual(omega, epsilon, v):
        value = dealiased(omega, epsilon, v)
        residuals.append(last[0])
        return value

    monkeypatch.setattr(TorusGrid, "hessian_of_spectrum", kept)
    monkeypatch.setattr(solver, "ricci_residual_dealiased", kept_residual)
    states = continuity_path(omega, epsilons, tol=1e-10)
    assert len(residuals) == len(states)
    for s, r in zip(states, residuals):
        want = _hermitian_route_diagnostics(omega, s.epsilon, s.v, r)
        for name, value in want.items():
            got = getattr(s, name)
            assert got == value and np.asarray(got).tobytes() == np.asarray(value).tobytes()


@pytest.mark.parametrize("n, N", [(1, 16), (2, 8)])
def test_path_converts_no_field_between_layouts(n, N, monkeypatch):
    # at n <= 2 the metric field, the path and every state's diagnostics stay
    # on components: hermitian and components each see at most one matrix
    seen = []
    for name in ("hermitian", "components"):
        original = getattr(linalg, name)

        def counted(x, _name=name, _original=original):
            x = np.asarray(x)
            seen.append((_name, x[0].size if _name == "hermitian" else x[..., 0, 0].size))
            return _original(x)

        for module in [m for k, m in sys.modules.items() if k.startswith("kahlerbench")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    grid = TorusGrid(n, N)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.008))
    (state,) = continuity_path(omega, [0.5], tol=1e-10)
    make_state(omega, state.epsilon, state.v, state.log_c_bound)
    assert all(size <= 1 for _, size in seen), seen
    omega.jet_at(np.zeros((3, 2 * n), dtype=int))  # a point query assembles its points
    assert seen[-1] == ("hermitian", 3)


def test_schedule_validation():
    grid = TorusGrid(1, 16)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    with pytest.raises(ValueError):
        continuity_path(omega, [])
    with pytest.raises(ValueError):
        continuity_path(omega, [1.0, -0.5])
    with pytest.raises(ValueError):
        continuity_path(omega, [0.5, 0.5])
    with pytest.raises(ValueError):
        continuity_path(omega, [0.5, 1.0])
    for bad in ([np.inf, 0.5], [np.nan], [1.0, np.nan]):
        with pytest.raises(ValueError, match="positive and finite"):
            continuity_path(omega, bad)


def test_path_failures_name_the_epsilon():
    grid = TorusGrid(1, 32)
    omega = TorusMetricField(grid, cosine_potential(grid, 0.05))
    with pytest.raises(NonConvergence) as err:
        continuity_path(omega, [1.0, 0.5], tol=1e-300)
    assert err.value.epsilon == 1.0


def test_stalled_line_search_stops_once_the_step_rounds_away(monkeypatch):
    # solve_ma driven along the path from the former linear warm start
    # v0 = n log eps + (v_prev - n log eps_prev) * eps / eps_prev, so the line
    # search and the Krylov solve still see deep states
    grid = TorusGrid(1, 64)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    eps = [2.0**-k for k in range(12)]
    calls, krylov = [], []
    hessian, linearized = TorusGrid.hessian_components, solver._solve_linearized

    def counting(self, f):
        if not krylov:  # the Krylov matvecs make Hessian transforms of their own
            calls.append(1)
        return hessian(self, f)

    def in_krylov(*args, **kwargs):
        krylov.append(1)
        try:
            return linearized(*args, **kwargs)
        finally:
            krylov.pop()

    monkeypatch.setattr(TorusGrid, "hessian_components", counting)
    monkeypatch.setattr(solver, "_solve_linearized", in_krylov)
    zero = np.zeros(grid.shape)
    w_prev, e_prev = zero, eps[0]
    with pytest.raises(NonConvergence, match="line search stalled at residual") as err:
        for e in eps:
            v0 = grid.n * np.log(e) + w_prev * (e / e_prev)
            v = solve_ma(MAProblem(grid, e * omega.g, zero), tol=1e-10, v0=v0)
            w_prev, e_prev = v - grid.n * np.log(e), e
    # the same stall as with every trial evaluated
    assert e == 2.0**-6
    # 3.5185018017625663e-10 after 2 steps with BLAS reductions in the Krylov
    # loop: their rounding moves the floor, at the same eps, and one more
    # step (3.96e-10, then 3.54e-10) is accepted before the stall
    assert err.value.residual == 3.5358064458083927e-10
    assert err.value.steps == 3
    # the Hessian transforms of the solves' candidates (the first, each
    # line-search trial, the final check): 32 here, and evaluating all
    # LINE_SEARCH_HALVINGS + 1 trials made 61
    assert len(calls) <= 48
    monkeypatch.undo()
    # the series start stalls at the same state, at residual 3.394e-10
    with pytest.raises(NonConvergence, match="line search stalled at residual") as err:
        continuity_path(omega, eps, tol=1e-10)
    assert err.value.epsilon == 2.0**-6


def test_failing_path_diagnoses_nothing(monkeypatch):
    grid = TorusGrid(1, 64)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    diagnosed = []
    diagnose = solver.make_state

    def counting(*args, **kwargs):
        diagnosed.append(args[1])
        return diagnose(*args, **kwargs)

    monkeypatch.setattr(solver, "make_state", counting)
    with pytest.raises(NonConvergence) as err:
        continuity_path(omega, [2.0**-k for k in range(8)], tol=1e-10)
    assert err.value.epsilon == 2.0**-6  # after six converged states
    assert diagnosed == []


def test_path_states_are_their_make_state_calls():
    grid = TorusGrid(2, 8)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    eps = [1.0, 0.5, 0.25]
    states = continuity_path(omega, eps, tol=1e-10)
    log_c = volume_ratio_ceiling(omega, eps[0])
    for s in states:
        want = make_state(omega, s.epsilon, s.v, log_c, newton_steps=s.newton_steps,
                          krylov_matvecs=s.krylov_matvecs)
        for f in fields(ContinuityState):
            got, expected = getattr(s, f.name), getattr(want, f.name)
            if isinstance(got, np.ndarray):
                assert np.array_equal(got, expected)
            else:
                assert got == expected, f.name


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8), (3, 8)])
def test_dealiased_residual_rejects_a_degenerate_state(n, N):
    # eps*I + Hess v is indefinite: the slab of the 3N/2 grid that holds the
    # first nonpositive det raises
    grid = TorusGrid(n, N)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    v = cosine_potential(grid, 0.1)
    with pytest.raises(PositivityLoss, match="dealiasing grid"):
        ricci_residual_dealiased(omega, 0.01, v)


def test_diagnosis_failures_name_the_epsilon(monkeypatch):
    grid = TorusGrid(1, 16)
    omega = TorusMetricField(grid, cosine_potential(grid, 0.05))
    dealiased = solver.ricci_residual_dealiased

    def degenerate_at_half(omega, epsilon, v):
        if epsilon == 0.5:
            raise PositivityLoss("state metric degenerate on the dealiasing grid")
        return dealiased(omega, epsilon, v)

    monkeypatch.setattr(solver, "ricci_residual_dealiased", degenerate_at_half)
    with pytest.raises(PositivityLoss, match="dealiasing grid") as err:
        continuity_path(omega, [1.0, 0.5, 0.25], tol=1e-10)
    assert err.value.epsilon == 0.5


def test_deep_path_diagnostics(deep_path):
    omega, states = deep_path
    log_c = volume_ratio_ceiling(omega, 1.0)
    for s in states:
        assert s.sup_u <= log_c + 1e-8
        # discrete volume identity: integral of omega_eps^n = integral e^u omega^n
        assert _volume_identity_error(omega, s) < 1e-10
        if s.epsilon >= 2.0**-4:
            assert s.ricci_residual_sup <= 1e-6
        else:
            # float64 floor: the converged solver's white residual tail is
            # amplified by the measuring Hessian; stays bounded, not small
            assert s.ricci_residual_sup <= 5e-5


def _volume_identity_error(omega, state):
    """Relative gap of the discrete volume identity mean det g_eps = mean e^v."""
    vol_eps = float(np.mean(np.linalg.det(_g_eps(omega, state)).real))
    vol_u = float(np.mean(np.exp(state.v - omega.log_det_g) * omega.det_g))
    return abs(vol_eps - vol_u) / vol_eps


def test_volume_identity_holds_to_rounding(deep_path):
    # The solver fixes the constant of v by the identity itself, so it does
    # not depend on where Newton's last step lands (formerly up to 7e-12).
    grid = TorusGrid(2, 8)
    omega = TorusMetricField(grid, cosine_potential(grid, 0.05))
    path = (omega, continuity_path(omega, [2.0**-k for k in range(11)], tol=1e-10))
    for omega, states in (deep_path, path):
        for s in states:
            assert _volume_identity_error(omega, s) <= 1e-14, (omega.grid, s.epsilon)


# Warm starts from the previous state took 2 to 4 Newton steps per state on
# these seeded paths; the series start measured 0 on every state.
@pytest.mark.parametrize("seed", [1, 2])
def test_series_start_leaves_newton_at_most_one_step(seed):
    grid = TorusGrid(2, 12)
    omega = TorusMetricField(grid, seeded_cosine_potential(
        grid, seed, modes=7, kmax=1, hessian_sup=0.36))
    states = continuity_path(omega, [2.0**-k for k in range(7)], tol=1e-10)
    assert all(s.newton_steps <= 1 for s in states), [s.newton_steps for s in states]


def _series_start_residuals(omega, epsilons, series):
    """sup |log det(eps g + Hess w0) - w0 - n log eps| of the series start
    w0 = eps (u_K(eps) - psi), per eps: the path equation in the gauge
    w = v - n log eps, free of the constant n log eps."""
    grid, out = omega.grid, []
    for e in epsilons:
        u = sum(e**k * c for k, c in enumerate(series))
        problem = MAProblem(grid, e * omega.g,
                            np.full(grid.shape, grid.n * np.log(e)))
        out.append(float(np.abs(ma_log_residual(problem, e * (u - omega.psi))).max()))
    return out


# the worst residuals measured: 1.2e-13 on (1, 64), 1.1e-14 on (2, 12) and
# 1.4e-14 on (3, 8)
@pytest.mark.parametrize("n, N, amplitude, bound", [(1, 64, 0.01, 1e-12), (2, 12, 0.01, 1e-12),
                                                    (3, 8, 0.008, 1e-11)])
def test_series_start_solves_the_path_equation(n, N, amplitude, bound):
    grid = TorusGrid(n, N)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, amplitude))
    series = path_series(omega, 1.0, 1e-10)
    residuals = _series_start_residuals(omega, [2.0**-k for k in range(1, 21)], series)
    assert max(residuals) <= bound, residuals


@pytest.mark.parametrize("n, N", [(1, 64), (2, 12)])
def test_series_coefficients_shrink_by_the_first_flat_eigenvalue(n, N):
    # Delta - eps is singular first at eps = -pi^2, so the series in eps has
    # radius about pi^2: measured ratios 0.099-0.111.  The last coefficient
    # is left out, as nothing fixes its constant and Nyquist modes.
    grid = TorusGrid(n, N)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    sups = [float(np.abs(c).max()) for c in path_series(omega, 1.0, 1e-10)[1:-1]]
    ratios = [b / a for a, b in zip(sups, sups[1:])]
    assert len(ratios) >= 6
    assert ratios == pytest.approx(np.full(len(ratios), 1.0 / np.pi**2), rel=0.15)


def test_path_from_outside_the_series_radius_converges():
    # at eps = 16 > pi^2 the terms grow from the second on, and a first-order
    # start leaves the positive cone; the series ends at order 0 there
    grid = TorusGrid(2, 12)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.03))
    assert len(path_series(omega, 16.0, 1e-10)) == 1
    states = continuity_path(omega, [16.0, 8.0, 4.0, 2.0, 1.0], tol=1e-10)
    assert [s.epsilon for s in states] == [16.0, 8.0, 4.0, 2.0, 1.0]


def test_series_catches_a_fault_in_the_det_products(monkeypatch):
    grid = TorusGrid(2, 12)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    product = solver._Series.__mul__
    monkeypatch.setattr(solver._Series, "__mul__", lambda a, b: 1.001 * product(a, b))
    series = path_series(omega, 1.0, 1e-10)
    assert max(_series_start_residuals(omega, [2.0**-k for k in range(1, 21)], series)) > 1e-9


def test_deep_path_stalls_where_the_benchmark_expects(monkeypatch):
    # the deep path-collapse schedule on the gallery's perturbed torus stops
    # at eps = 2^-8, where the start's residual in v (which carries n log eps)
    # is above tol; the benchmark counts this failure as expected
    grid = TorusGrid(2, 12)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    diagnosed = []
    diagnose = solver.make_state

    def counting(*args, **kwargs):
        diagnosed.append(args[1])
        return diagnose(*args, **kwargs)

    monkeypatch.setattr(solver, "make_state", counting)
    with pytest.raises(NonConvergence, match="line search stalled") as err:
        continuity_path(omega, [2.0**-k for k in range(13)], tol=1e-10)
    assert err.value.epsilon == 2.0**-8
    assert diagnosed == []


# -- trace collapse: eps * sup S_eps -> sup tr g -------------------------------------


def test_flat_path_collapses_exactly():
    # S_eps = n / eps on the flat torus, so eps * s_max is n with no error
    grid = TorusGrid(1, 64)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    reports = trace_collapse_check(continuity_path(omega, [2.0**-k for k in range(11)]), omega)
    assert len(reports) == 10
    assert all(r.status == "pass" and r.lhs == r.rhs == 0.0 for r in reports)


def test_deep_path_trace_collapse(deep_path):
    omega, states = deep_path
    reports = trace_collapse_check(states, omega)
    assert len(reports) == len(states) - 1
    assert all(r.status == "pass" for r in reports), [r.note for r in reports if r.slack < 0]
    assert 0.0 < reports[-1].rhs < 1e-4  # e(2^-10)


def test_perturbed_path_trace_collapse():
    grid = TorusGrid(2, 12)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.03))
    states = continuity_path(omega, [2.0**-k for k in range(7)], tol=1e-10)
    reports = trace_collapse_check(states, omega)
    assert len(reports) == 6
    assert all(r.status == "pass" for r in reports), [r.note for r in reports if r.slack < 0]


def test_single_state_path_trace_collapse():
    # the rate is judged on consecutive pairs of states, so a one-state path
    # gives no report
    grid = TorusGrid(1, 16)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    assert trace_collapse_check(continuity_path(omega, [1.0]), omega) == []


def test_trace_collapse_fails_a_biased_trace(deep_path):
    # a relative bias of 1e-3 in every s_max adds about 1e-3 * sup tr g to
    # eps * s_max, a floor under e(eps) that the rate cannot hold
    omega, states = deep_path
    biased = [replace(s, s_max=s.s_max * (1.0 + 1e-3)) for s in states]
    assert any(r.status == "fail" for r in trace_collapse_check(biased, omega))


def test_path_is_deterministic():
    grid = TorusGrid(1, 32)
    omega = TorusMetricField(grid, cosine_potential(grid, 0.05))
    a = continuity_path(omega, [1.0, 0.5], tol=1e-10)
    b = continuity_path(omega, [1.0, 0.5], tol=1e-10)
    for s, t in zip(a, b):
        assert np.max(np.abs(s.v - t.v)) <= 1e-14  # and so u = v - log det g
        assert s.ricci_residual_sup == t.ricci_residual_sup


# -- Ricci residual instruments ------------------------------------------------------


def test_ricci_residual_flat_is_zero():
    grid = TorusGrid(2, 8)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    state = continuity_path(omega, [0.5])[0]
    assert _raw_residual(omega, state) < 1e-12
    assert ricci_residual_dealiased(omega, 0.5, state.v) < 1e-12


def test_ricci_residual_detects_corruption():
    grid = TorusGrid(1, 32)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    state = continuity_path(omega, [1.0])[0]
    v_bad = state.v + cosine_potential(grid, 1e-3, k=3)
    assert _raw_residual(omega, replace(state, v=v_bad)) >= 1e-4
    assert ricci_residual_dealiased(omega, 1.0, v_bad) >= 1e-4


def test_ricci_residual_refines_at_spectral_rate():
    values = {}
    for N in (32, 64):
        grid = TorusGrid(1, N)
        omega = TorusMetricField(grid, rough_torus_potential(
            grid, amplitude=0.002, sharpness=0.25))
        state = continuity_path(omega, [1.0], tol=1e-10)[0]
        values[N] = state.ricci_residual_sup
    assert values[32] / values[64] > 100.0


def _raw_residual(omega, state):
    """sup |Ric(omega_eps) + omega_eps - eps omega|, Ric = -dd^c log det g_eps
    taken spectrally on the solve grid itself."""
    g_eps = _g_eps(omega, state)
    ric = -omega.grid.complex_hessian(np.log(np.linalg.det(g_eps).real))
    return float(np.max(np.abs(ric + g_eps - state.epsilon * hermitian(omega.g))))


@pytest.mark.parametrize("n, N", [(1, 32), (2, 8), (2, 10), (3, 8)])
def test_make_state_selects_instrument_by_dimension(n, N):
    # One instrument at every n: log det g_eps on the 3N/2 grid (odd, 15, at
    # N = 10), not the raw residual of the solve grid.  The long-double
    # oracle (n <= 2; it would take gigabytes at (3, 8)) bounds the float64
    # round-off.  The float64 full fine-grid route (N/2 even) measured at most
    # 8.8e-7 relative from the band route, 1.5e-16 absolute at (1, 32), where
    # a 2N grid moves the value by 3.6e-4 relative, so the relative bound
    # pins the fine grid's size; at (2, 8) and (3, 8) 2N moves it by 8e-7 only.
    grid = TorusGrid(n, N)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    (state,) = continuity_path(omega, [1.0], tol=1e-10)
    got = state.ricci_residual_sup
    if n <= 2:
        assert abs(got - _dealiased_from_scratch(omega, state)) <= 1e-10
    if N % 4 == 0:
        full = _full_grid_dealiased(omega, state.epsilon, state.v, _g_eps(omega, state))
        assert abs(got - full) <= 1e-5 * full
    raw = _raw_residual(omega, state)
    assert abs(got - raw) > 1e-3 * raw


def test_make_state_calls_no_lapack_routine(monkeypatch):
    # every diagnosis is a closed form on components, at n = 3 too
    grid = TorusGrid(3, 8)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))

    def refused(*args, **kwargs):
        raise AssertionError("make_state called numpy.linalg")

    for name in ("eigvalsh", "cholesky", "det", "inv"):
        monkeypatch.setattr(np.linalg, name, refused)
    state = make_state(omega, 1.0, 0.5 * omega.psi, 0.0)
    assert 0.0 < state.ricci_residual_sup < np.inf


LD = np.longdouble


def _ld_hessian(f):
    """Complex Hessian of a real long-double field: complex fftn, the
    multipliers d/dz^i * d/dzbar^j (Nyquist zeroed), one ifftn per entry."""
    N, n = f.shape[0], f.ndim // 2
    k = np.fft.fftfreq(N, d=1.0 / N).astype(LD)
    k[N // 2] = 0
    ks = np.meshgrid(*([k] * (2 * n)), indexing="ij", sparse=True)
    pi = 4 * np.arctan(LD(1))
    F = scipy.fft.fftn(f - f.mean())
    H = np.empty(f.shape + (n, n), dtype=np.clongdouble)
    for i in range(n):
        for j in range(n):
            dz, dzbar = ks[2 * i + 1] + 1j * ks[2 * i], 1j * ks[2 * j] - ks[2 * j + 1]
            H[..., i, j] = scipy.fft.ifftn(F * (pi * pi) * dz * dzbar)
    return H


def _ld_resample(f, N_new):
    """Real part of the centred complex pad (or crop) of f's spectrum to
    resolution N_new, in long double; the real part is the Nyquist rule of
    prolong/restrict.  An odd N_new has one unpaired bin, at the top."""
    N, d = f.shape[0], f.ndim
    F = np.fft.fftshift(scipy.fft.fftn(f))
    if N_new > N:
        low = (N_new - N) // 2
        F = np.pad(F, (low, N_new - N - low))
    else:
        crop = (N - N_new) // 2
        F = F[(slice(crop, crop + N_new),) * d]
    return scipy.fft.ifftn(np.fft.ifftshift(F)).real * (N_new / N) ** d


def _dealiased_from_scratch(omega, state):
    """The dealiased residual from whole fields in extended precision: pad
    psi and the zero-mean v to 3N/2, form eps*g + Hess v on that grid, det
    and log, crop back, Ricci Hessian; all in np.longdouble through
    scipy.fft.  (A float64 oracle carries round-off of its own near the
    1e-10 tolerance.)  n <= 2."""
    grid = omega.grid
    N_fine = 3 * grid.N // 2
    eps = LD(state.epsilon)
    psi = omega.psi.astype(LD)
    v = state.v.astype(LD)
    v = v - v.mean()
    G = eps * _ld_hessian(_ld_resample(psi, N_fine)) + _ld_hessian(_ld_resample(v, N_fine))
    G[..., range(grid.n), range(grid.n)] += eps
    d = G[..., 0, 0].real
    if grid.n == 2:
        d = d * G[..., 1, 1].real - np.abs(G[..., 0, 1]) ** 2
    ldg = _ld_resample(np.log(d), grid.N)
    resid = -_ld_hessian(ldg) + _ld_hessian(v)  # Ric(g_eps) + g_eps - eps*g
    return float(np.max(np.abs(resid)))


def _half_band(grid, N_other, nyquist_sign, last):
    """Open-mesh index of grid's half-spectrum bins, cut to the first `last`
    bins of the last axis, in an N_other half spectrum, the Nyquist bin
    placed at nyquist_sign * N/2."""
    k = np.fft.fftfreq(grid.N, d=1.0 / grid.N).astype(int)
    k[grid.N // 2] = nyquist_sign * (grid.N // 2)
    return np.ix_(*[k % N_other] * (2 * grid.n - 1), np.arange(last))


def _embed_spectrum(grid, F, fine):
    """grid's half spectrum F zero-padded into fine's, scaled for fine.irfft;
    a Nyquist coefficient is split in halves between the all-(-N/2) and
    all-(+N/2) placements, and the last axis stores +N/2 only."""
    h = grid.N // 2
    out = np.zeros(fine.shape[:-1] + (fine.N // 2 + 1,), dtype=complex)
    half = F * (0.5 * (fine.N / grid.N) ** (2 * grid.n))
    out[_half_band(grid, fine.N, 1, h + 1)] = half
    out[_half_band(grid, fine.N, -1, h)] += half[..., :h]
    return out


def _crop_spectrum(fine, F, coarse):
    """coarse's half spectrum cut from fine's half spectrum F, scaled for
    coarse.irfft; a Nyquist coefficient is the mean of its two placements,
    and the last axis takes +N/2 alone."""
    h = coarse.N // 2
    scale = (coarse.N / fine.N) ** (2 * coarse.n)
    out = F[_half_band(coarse, fine.N, 1, h + 1)] * scale
    out[..., :h] = 0.5 * (out[..., :h] + F[_half_band(coarse, fine.N, -1, h)] * scale)
    return out


def _full_grid_dealiased(omega, epsilon, v, g_eps):
    """The dealiased residual the unpruned way, in float64: embed the half
    spectrum of eps*psi + (v - mean v) in the 3N/2 grid's (N/2 even), n*n
    full fine component fields by one irfftn, det(eps*I + H) written out
    (at n = 3 by products in place, two fine fields besides the det), log,
    a full fine rfftn, and crop back."""
    grid = omega.grid
    fine = TorusGrid(grid.n, 3 * grid.N // 2)
    W = _embed_spectrum(grid, grid.rfft(epsilon * omega.psi + (v - np.mean(v))), fine)
    c = fine.hessian_of_spectrum(W)
    del W
    c[:: grid.n + 1] += epsilon
    if grid.n == 1:
        d = c[0]
    elif grid.n == 2:
        d = c[0] * c[3] - (c[1] * c[1] + c[2] * c[2])
    else:  # H_01 = c1 + i c3, H_02 = c2 + i c6, H_12 = c5 + i c7
        d, t, u = c[0] * c[4], np.empty(c.shape[1:]), np.empty(c.shape[1:])
        d *= c[8]
        for k, re, im in ((0, 5, 7), (4, 2, 6), (8, 1, 3)):  # d -= H_kk |H_ij|^2
            np.multiply(c[re], c[re], out=t)
            t += np.multiply(c[im], c[im], out=u)
            t *= c[k]
            d -= t
        # d += 2 Re H_01 H_12 conj(H_02) = 2 (c1 c5 - c3 c7) c2 + 2 (c1 c7 + c3 c5) c6
        np.multiply(c[1], c[5], out=t)
        t -= np.multiply(c[3], c[7], out=u)
        t *= c[2]
        np.multiply(c[1], c[7], out=u)
        u += np.multiply(c[3], c[5], out=c[0])
        u *= c[6]
        t += u
        t *= 2.0
        d += t
        del t, u
    del c
    ldg = np.log(d)
    spectrum = _crop_spectrum(fine, fine.rfft(ldg - np.mean(ldg)), grid)
    ric = -hermitian(grid.hessian_of_spectrum(spectrum))
    return float(np.max(np.abs(ric + g_eps - epsilon * hermitian(omega.g))))


def _band_route_cases():
    grid = TorusGrid(2, 12)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    yield omega, continuity_path(omega, [2.0**-k for k in range(8)], tol=1e-10)
    grid = TorusGrid(1, 64)
    omega = TorusMetricField(grid, rough_torus_potential(grid, 0.002, sharpness=0.25))
    yield omega, continuity_path(omega, [2.0**-k for k in range(5)], tol=1e-10)
    grid = TorusGrid(2, 16)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    yield omega, continuity_path(omega, [1.0], tol=1e-10)


def test_band_residual_matches_full_grid_route():
    # The band transforms keep irfftn's and rfftn's axis order and scaling;
    # the full-grid route reassembles Ric + g_eps - eps*g where the band
    # route takes Hess(v - log det g_eps) once, so the 14 values here
    # (residuals 5.8e-11 to 6.3e-7) measured apart by at most 8.7e-7 relative.
    for omega, states in _band_route_cases():
        for s in states:
            want = _full_grid_dealiased(omega, s.epsilon, s.v, _g_eps(omega, s))
            got = ricci_residual_dealiased(omega, s.epsilon, s.v)
            assert s.ricci_residual_sup == got
            assert abs(got - want) <= 1e-5 * want, (omega.grid, s.epsilon, got, want)


def test_band_residual_working_set():
    # the full fine-grid route peaks at 11.3 MB here: n*n fine component
    # fields, their spectra and a full fine log-det spectrum; the band route
    # at 3.6 MB
    grid = TorusGrid(2, 12)
    omega = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    s = continuity_path(omega, [1.0], tol=1e-10)[0]
    ricci_residual_dealiased(omega, s.epsilon, s.v)  # build the cached tables
    tracemalloc.start()
    try:
        ricci_residual_dealiased(omega, s.epsilon, s.v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20, peak


def test_path_save_and_load_build_no_fine_field(tmp_path, monkeypatch):
    grid = TorusGrid(1, 16)
    omega = TorusMetricField(grid, cosine_potential(grid, 0.05))
    built = []
    init = TorusMetricField.__init__

    def counting_init(self, grid, psi):
        built.append(grid.N)
        init(self, grid, psi)

    monkeypatch.setattr(TorusMetricField, "__init__", counting_init)
    states = continuity_path(omega, [1.0, 0.5, 0.25], tol=1e-10)
    save_state(tmp_path / "s", states[-1], grid)
    loaded = load_state(tmp_path / "s", omega)
    monkeypatch.undo()
    assert built == []
    for state in states + [loaded]:
        assert abs(state.ricci_residual_sup - _dealiased_from_scratch(omega, state)) <= 1e-10


def test_dealiased_residual_ignores_the_log_eps_constant():
    # v carries n log eps; the residual depends on dd^c v only.  Routing that
    # constant through the fine transforms leaves ulp noise that the fine
    # Hessian amplifies by (2 pi N)^2, far above the residual at N = 64.
    grid = TorusGrid(1, 64)
    for psi in (rough_torus_potential(grid, 0.002, sharpness=0.25),
                perturbed_torus_potential(grid, 0.01)):
        omega = TorusMetricField(grid, psi)
        states = continuity_path(omega, [2.0**-k for k in range(5)], tol=1e-10)
        for state in states:
            err = abs(state.ricci_residual_sup - _dealiased_from_scratch(omega, state))
            assert err <= 1e-10, (state.epsilon, err)


def test_volume_ratio_ceiling_flat_scaling():
    grid = TorusGrid(2, 8)
    omega = TorusMetricField(grid, np.zeros(grid.shape))
    assert volume_ratio_ceiling(omega, 2.0) == pytest.approx(2.0 * np.log(2.0))
