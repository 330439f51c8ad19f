"""Curvature tensors, holomorphic sectional curvature, and extremal sweeps."""

import itertools
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from kahlerbench import curvature
from kahlerbench.curvature import (
    HSC_PENCIL_LINES,
    HSC_REFINE_STEPS,
    _check_symmetries,
    _cp1_extremes,
    _inverse_hopf,
    _jet_extremes,
    _pencil,
    _refine_direction,
    _symmetry_violations,
    constant_hsc_tensor,
    curvature_from_derivatives,
    default_sweep_points,
    hsc,
    hsc_extremes,
    hsc_extremes_from_tensor,
    hsc_value,
    kappa_floor,
    ricci_from_derivatives,
    sweep_hsc_extremes,
    transform_tensor,
)
from kahlerbench.errors import DimensionMismatch
from kahlerbench.fields import ChartMetricField, TorusMetricField
from kahlerbench.grids import ChartGeometry, TorusGrid
from kahlerbench.inequalities import conditioned_negative_tensor, random_kahler_tensor
from kahlerbench.linalg import Direction, hermitian, inv, inverse_cholesky
from kahlerbench.zoo import (make_example, perturbed_torus_potential, poincare_polydisk_terms,
                             verify_example_facts)


def random_pd(n, rng, scale=0.3):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return np.eye(n) + scale * (A @ A.conj().T)


def polydisk_field(n=2, scale=2.0):
    geo = ChartGeometry(n=n, radii=(1.0,) * n, margin=0.2)
    return ChartMetricField(geo, *poincare_polydisk_terms(n, scale))


def orthonormal_frame(g):
    """The extremizer's frame: columns t_a with T^t g conj(T) = I."""
    return np.swapaxes(inverse_cholesky(g), -1, -2)


def symmetry_violation(R):
    """Largest deviation from the Kähler curvature symmetries."""
    return float(np.max(_symmetry_violations(R)))


def ricci_from_curvature(g, R):
    """Ricci form by tensor contraction g^{k lbar} R_{i jbar k lbar}."""
    return np.einsum("...kl,...ijkl->...ij", np.conj(inv(g)), R)


# -- model tensors -----------------------------------------------------------------


def test_constant_hsc_tensor_has_constant_h():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        g = random_pd(n, rng)
        R = constant_hsc_tensor(g, -1.7)
        assert symmetry_violation(R) < 1e-12
        for _ in range(5):
            eta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert hsc_value(R, g, eta) == pytest.approx(-1.7, abs=1e-12)


def test_curvature_symmetries_are_enforced():
    rng = np.random.default_rng(7)
    g = random_pd(2, rng)
    R = constant_hsc_tensor(g, -1.0)
    _check_symmetries(R)  # fine
    bad = R.copy()
    bad[0, 1, 1, 0] += 0.05
    assert symmetry_violation(bad) > 1e-3
    with pytest.raises(ValueError, match="symmetries"):
        _check_symmetries(bad)


def test_transform_tensor_preserves_hsc():
    rng = np.random.default_rng(11)
    n = 3
    g = random_pd(n, rng)
    R = constant_hsc_tensor(g, -0.8) + 0.1 * constant_hsc_tensor(random_pd(n, rng), 0.5)
    T = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    gt = np.einsum("ij,ia,jb->ab", g, T, np.conj(T))
    Rt = transform_tensor(R, T)
    for _ in range(4):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert hsc_value(Rt, gt, u) == pytest.approx(hsc_value(R, g, T @ u), abs=1e-10)


# -- Ricci routes ------------------------------------------------------------------


def test_ricci_contraction_matches_matrix_calculus():
    grid = TorusGrid(2, 8)
    x1 = grid._axis_view(grid.axis_coords, 0)
    y2 = grid._axis_view(grid.axis_coords, 3)
    psi = 0.004 * np.broadcast_to(
        np.cos(2.0 * np.pi * x1) + np.cos(2.0 * np.pi * (x1 + y2)), grid.shape
    ).copy()
    field = TorusMetricField(grid, psi)
    idx = (1, 6, 3, 2)
    T, Q = grid.hessian_jets(field.psi)
    g, dg, ddg = hermitian(field.g)[idx], T[idx], Q[idx]
    R = curvature_from_derivatives(g, dg, ddg)
    via_trace = ricci_from_curvature(g, R)
    via_matrix = ricci_from_derivatives(g, dg, ddg)
    assert np.max(np.abs(via_trace - via_matrix)) < 1e-11


def test_ricci_vanishes_on_flat_torus_and_is_einstein_on_disk():
    grid = TorusGrid(1, 16)
    field = TorusMetricField(grid, np.zeros(grid.shape))
    spectral = -grid.complex_hessian(field.log_det_g)  # -dd^c log det g on the grid
    assert spectral.shape == grid.shape + (1, 1)
    assert np.max(np.abs(spectral)) < 1e-14
    for idx in ((1, 3), (6, 14)):
        assert np.max(np.abs(ricci_from_derivatives(*field.jet_at(idx)))) < 1e-14

    disk = polydisk_field(n=1, scale=1.0)
    ric = ricci_from_derivatives(*disk.jet_at([0.2]))
    g = disk.metric_matrix_at([0.2])
    assert np.max(np.abs(ric + 2.0 * g)) < 1e-10


def test_curvature_field_matches_pointwise():
    grid = TorusGrid(1, 16)
    x = grid._axis_view(grid.axis_coords, 0)
    psi = 0.01 * np.broadcast_to(np.cos(2.0 * np.pi * x), grid.shape).copy()
    field = TorusMetricField(grid, psi)
    R = curvature_from_derivatives(hermitian(field.g), *grid.hessian_jets(field.psi))
    assert R.shape == grid.shape + (1, 1, 1, 1)
    idx = (4, 11)
    pointwise = curvature_from_derivatives(*field.jet_at(idx))
    assert np.max(np.abs(pointwise - R[idx])) < 1e-11
    assert symmetry_violation(R[idx]) < 1e-12


# -- holomorphic sectional curvature ------------------------------------------------


def test_flat_torus_hsc_is_zero():
    grid = TorusGrid(2, 8)
    field = TorusMetricField(grid, np.zeros(grid.shape))
    p = (1, 2, 5, 1)
    assert abs(hsc(field, p, [1.0, 2.0j])) < 1e-13
    assert abs(hsc(field, p, Direction(np.array([1.0, 0.0])))) < 1e-13


def test_disk_hsc_is_minus_two_over_scale():
    disk = polydisk_field(n=1, scale=1.0)
    assert hsc(disk, [0.25], [1.0]) == pytest.approx(-2.0, abs=1e-11)
    ext = hsc_extremes(disk, [0.3 + 0.1j])
    assert ext.h_min == pytest.approx(-2.0, abs=1e-11)
    assert ext.h_max == pytest.approx(-2.0, abs=1e-11)


def test_polydisk_hsc_extremes():
    field = polydisk_field(n=2, scale=2.0)
    ext = hsc_extremes(field, [0.1, -0.05])
    # factor directions minimize (-2/scale), balanced diagonals halve that
    assert ext.h_min == pytest.approx(-1.0, abs=1e-6)
    assert ext.h_max == pytest.approx(-0.5, abs=1e-6)
    for eta in (ext.eta_min, ext.eta_max):
        got = hsc(field, [0.1, -0.05], eta)
        assert got == pytest.approx(hsc_value(
            curvature_from_derivatives(*field.jet_at([0.1, -0.05])),
            field.metric_matrix_at([0.1, -0.05]), eta), abs=1e-12)


def test_hsc_checks_its_direction():
    # a length-1 direction on an n = 2 field would broadcast to (1, 1)
    field = polydisk_field(n=2, scale=2.0)
    with pytest.raises(DimensionMismatch):
        hsc(field, [0.1, 0.2j], [1.0])
    with pytest.raises(DimensionMismatch):
        hsc(field, [0.1, 0.2j], [1.0, 0.0, 0.5j])
    with pytest.raises(ValueError, match="nonzero"):
        hsc(field, [0.1, 0.2j], [0.0, 0.0])


@pytest.mark.parametrize("substrate", ["torus", "chart"])
def test_hsc_rejects_a_stack_of_points(substrate):
    # a point stack has its own route, sweep_hsc_extremes
    if substrate == "torus":
        field, stack = TorusMetricField(TorusGrid(1, 16), np.zeros((16, 16))), [(1, 2), (3, 4)]
    else:
        field, stack = make_example("poincare-disk").field, [[0.1], [0.2j]]
    with pytest.raises(DimensionMismatch, match=r"stack of shape \(2, "):
        hsc(field, stack, [1.0])
    assert len(sweep_hsc_extremes(field, stack)) == 2


def test_extremizer_defaults_are_the_policy_constants():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        R = random_kahler_tensor(n, rng)
        g = random_pd(n, rng)
        default = hsc_extremes_from_tensor(R, g)
        for budget in [(2000, 40), (HSC_PENCIL_LINES, HSC_REFINE_STEPS)]:  # not read
            explicit = hsc_extremes_from_tensor(R, g, *budget)
            assert (default.h_min, default.h_max) == (explicit.h_min, explicit.h_max)
            assert np.array_equal(default.eta_min, explicit.eta_min)
            assert np.array_equal(default.eta_max, explicit.eta_max)
    # n = 3 scans HSC_PENCIL_LINES lines and polishes the best of them
    pencil = _pencil(HSC_PENCIL_LINES)[0]
    assert pencil.shape == (HSC_PENCIL_LINES, 3, 2)
    Rt = transform_tensor(R, orthonormal_frame(g))
    h_lo, h_hi, u_lo, u_hi = _cp1_extremes(transform_tensor(Rt, pencil))
    best = int(np.argmax(h_hi))
    assert h_hi[best] < default.h_max
    assert default.h_max >= _refine_direction(Rt, pencil[best] @ u_hi[best], +1.0,
                                              HSC_REFINE_STEPS)[1]


# -- exact n = 2 extremes -------------------------------------------------------------

PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def tensor_from_hopf_form(K):
    """A Kähler-symmetric tensor with Q(u) = y^T K y, y = (1, x) the Hopf image of u.

    sum R[i,j,k,l] P[i,j] P[k,l] = sum K[a,b] tr(sigma_a P) tr(sigma_b P) for
    P = u u*, and averaging over the symmetry group leaves Q unchanged.
    """
    R = np.einsum("ab,aji,blk->ijkl", K, PAULI, PAULI)
    R = (R + np.swapaxes(R, 0, 2)) / 2.0
    R = (R + np.swapaxes(R, 1, 3)) / 2.0
    return (R + np.conj(np.swapaxes(np.swapaxes(R, 0, 1), 2, 3))) / 2.0


def scan_route(Rt, etas):
    """Scan + refinement extremes of a tensor in an orthonormal frame: the
    best and worst of the unit directions etas, each polished by
    _refine_direction (the route n = 2 took before it was exact)."""
    q = batched_hsc(Rt[None], np.eye(Rt.shape[0])[None], etas)[0]
    h_max = _refine_direction(Rt, etas[int(np.argmax(q))], +1.0, HSC_REFINE_STEPS)[1]
    h_min = _refine_direction(Rt, etas[int(np.argmin(q))], -1.0, HSC_REFINE_STEPS)[1]
    return h_min, h_max


def random_directions(rng, count, n):
    etas = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return etas / np.linalg.norm(etas, axis=1)[:, None]


def batched_hsc(R, g, etas):
    """H of every tensor (m, ...) at every direction (d, 2): shape (m, d)."""
    ce = np.conj(etas)
    q = np.einsum("mijkl,di,dj,dk,dl->md", R, etas, ce, etas, ce, optimize=True).real
    return q / np.einsum("mij,di,dj->md", g, etas, ce).real ** 2


def test_n2_extremes_are_global_and_attained():
    rng = np.random.default_rng(2015)
    m = 600
    R = np.stack([conditioned_negative_tensor(2, rng, gap=float(rng.uniform(0.2, 1.0)))
                  for _ in range(m)])
    g = np.stack([random_pd(2, rng) for _ in range(m)])
    exts = [hsc_extremes_from_tensor(R[i], g[i]) for i in range(m)]
    h_min = np.array([e.h_min for e in exts])
    h_max = np.array([e.h_max for e in exts])
    scale = np.maximum(1.0, np.maximum(np.abs(h_min), np.abs(h_max)))

    etas = rng.standard_normal((4096, 2)) + 1j * rng.standard_normal((4096, 2))
    sampled = batched_hsc(R, g, etas)
    assert np.all(sampled.max(axis=1) <= h_max + 1e-12 * scale)
    assert np.all(sampled.min(axis=1) >= h_min - 1e-12 * scale)

    at_min = np.array([hsc_value(R[i], g[i], e.eta_min) for i, e in enumerate(exts)])
    at_max = np.array([hsc_value(R[i], g[i], e.eta_max) for i, e in enumerate(exts)])
    assert np.all(np.abs(at_min - h_min) <= 1e-12 * scale)
    assert np.all(np.abs(at_max - h_max) <= 1e-12 * scale)

    unit = random_directions(rng, 4000, 2)
    for i in range(m):
        T = orthonormal_frame(g[i])
        k_min, k_max = scan_route(transform_tensor(R[i], T), unit)
        assert h_max[i] >= k_max - 1e-14 * scale[i]
        assert h_min[i] <= k_min + 1e-14 * scale[i]


def test_n2_hard_cases_are_exact():
    rng = np.random.default_rng(8)
    for g in (np.eye(2, dtype=complex), random_pd(2, rng)):
        # constant H: b = 0 and C = 0, every direction is extremal
        for c in (-1.3, 0.4):
            ext = hsc_extremes_from_tensor(constant_hsc_tensor(g, c), g)
            assert abs(ext.h_min - c) <= 1e-14 * abs(c)
            assert abs(ext.h_max - c) <= 1e-14 * abs(c)
    for s in (2.0, 0.7):
        # polydisk: C has a double top eigenvalue with b orthogonal to it
        R = np.zeros((2,) * 4, dtype=complex)
        R[0, 0, 0, 0] = R[1, 1, 1, 1] = -2.0 / s
        ext = hsc_extremes_from_tensor(R, np.eye(2))
        assert ext.h_min == pytest.approx(-2.0 / s, abs=1e-14)
        assert ext.h_max == pytest.approx(-1.0 / s, abs=1e-14)
        assert hsc_value(R, np.eye(2), ext.eta_max) == pytest.approx(-1.0 / s, abs=1e-14)
    # C = diag(-1, 0, 0): a double top eigenvalue, with b inside that
    # eigenspace (not the hard case) along whichever vector eigh lists first
    for b in (np.array([0.0, 1e-3, 0.0]), np.array([0.0, 0.0, 1e-3])):
        K = np.zeros((4, 4))
        K[0, 0] = 0.2
        K[1:, 1:] = np.diag([-1.0, 0.0, 0.0])
        K[0, 1:] = K[1:, 0] = b / 2.0
        ext = hsc_extremes_from_tensor(tensor_from_hopf_form(K), np.eye(2))
        assert ext.h_max == pytest.approx(0.201, abs=1e-14)
        assert ext.h_min == pytest.approx(-0.8 - 1e-6 / 4.0, abs=1e-14)


def test_n2_extremes_find_the_higher_of_two_near_equal_maxima():
    # Q = -1 + eps x.e + x^T C x on S^2 has local maxima at x = +e and -e,
    # 2 eps apart: refinement that starts in the basin of -e ends at -1 - eps.
    eps = 1e-5
    e = np.ones(3) / np.sqrt(3.0)
    a = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    K = np.zeros((4, 4))
    K[0, 0] = -1.0
    K[0, 1:] = K[1:, 0] = eps / 2.0 * e
    K[1:, 1:] = -(np.eye(3) - np.outer(e, e)) - np.outer(a, a)
    R = tensor_from_hopf_form(K)
    g = np.eye(2)
    near = -e + 0.2 * a
    wrong = _refine_direction(R, _inverse_hopf(near / np.linalg.norm(near)), +1.0,
                              HSC_REFINE_STEPS)[1]
    assert wrong == pytest.approx(-1.0 - eps, abs=1e-14)
    ext = hsc_extremes_from_tensor(R, g)
    assert ext.h_max == pytest.approx(-1.0 + eps, abs=1e-14)
    assert hsc_value(R, g, ext.eta_max) == pytest.approx(-1.0 + eps, abs=1e-14)
    # the minimum is a hard case: b is orthogonal to the bottom eigenvector a
    assert ext.h_min == pytest.approx(-3.0 - eps**2 / 8.0, abs=1e-14)


def near_constant_tensors(rng, g, perturbations=(0.0, 1e-12, 1e-8, 1e-4)):
    """Model tensors of constant H = c for the metric g, plus eps times a
    random Kähler tensor for each eps: the (near-)hard cases of the kernel,
    where the secular root sits at or next to the top eigenvalue."""
    return [constant_hsc_tensor(g, c) + eps * random_kahler_tensor(2, rng)
            for c in (-1.3, 0.7) for eps in perturbations]


def test_n2_extremes_of_near_constant_tensors_match_scan_and_refine():
    rng = np.random.default_rng(34)
    unit = random_directions(rng, 4000, 2)
    for _ in range(6):
        g = random_pd(2, rng)
        T = orthonormal_frame(g)
        for R in near_constant_tensors(rng, g):
            ext = hsc_extremes_from_tensor(R, g)
            ref_min, ref_max = scan_route(transform_tensor(R, T), unit)
            scale = np.max(np.abs(R))
            assert abs(ext.h_max - ref_max) <= 1e-12 * scale
            assert abs(ext.h_min - ref_min) <= 1e-12 * scale


def test_stacked_kernel_equals_per_tensor_calls_bitwise():
    rng = np.random.default_rng(21)
    Rt = np.stack([conditioned_negative_tensor(2, rng) for _ in range(40)]
                  + near_constant_tensors(rng, np.eye(2, dtype=complex)))
    Rt[0] = constant_hsc_tensor(np.eye(2, dtype=complex), -0.9)  # a hard case
    stacked = _cp1_extremes(Rt.reshape((6, 8) + Rt.shape[1:]))
    for i in range(48):
        single = _cp1_extremes(Rt[i])
        for got, want in zip(stacked, single):
            assert np.array_equal(got.reshape((48,) + got.shape[2:])[i], want)


# -- n = 3 pencil extremes ------------------------------------------------------------


def reference_pencil(rng, lines=1000):
    """Lines through e_3 on a randomly rotated Fibonacci lattice of S^2.

    Returns frames (lines, 3, 2), columns e_3 and (v, 0) with v the inverse
    Hopf image of a lattice point x, and the six nearest lattice points of
    each (lines, 6).
    """
    k = np.arange(lines) + 0.5
    z = 1.0 - 2.0 * k / lines
    phi = np.pi * (3.0 - np.sqrt(5.0)) * k
    x = np.stack([np.sqrt(1.0 - z * z) * np.cos(phi), np.sqrt(1.0 - z * z) * np.sin(phi), z], 1)
    x = x @ np.linalg.qr(rng.standard_normal((3, 3)))[0]
    P = np.zeros((lines, 3, 2), dtype=complex)
    P[:, 2, 0] = 1.0
    P[:, :2, 1] = _inverse_hopf(x)
    return P, np.argsort(-x @ x.T, axis=1)[:, 1:7]


def reference_extremes(R, pencil, rng, directions=4096):
    """Test-only (h_min, h_max) of an n = 3 tensor in an orthonormal frame.

    Polishes (_refine_direction) start from the two best lines of a denser
    pencil through e_3 (extremes exact on each line), from every other line
    whose extreme is at least each neighbour's, and from the best of
    seeded random directions.
    """
    frames, neighbours = pencil
    lines = _cp1_extremes(transform_tensor(R, frames))
    etas = random_directions(rng, directions, 3)
    p = (etas[:, :, None] * np.conj(etas[:, None, :])).reshape(-1, 9)
    q = np.sum((p @ R.reshape(9, 9)) * p, axis=-1).real
    found = []
    for sign, h, u in ((-1.0, lines[0], lines[2]), (1.0, lines[1], lines[3])):
        f = sign * h
        peaks = np.all(f[:, None] >= f[neighbours], axis=1)
        peaks[np.argsort(-f)[:2]] = True
        starts = [frames[j] @ u[j] for j in np.flatnonzero(peaks)]
        starts.append(etas[int(np.argmax(sign * q))])
        found.append(sign * max(sign * _refine_direction(R, s, sign, HSC_REFINE_STEPS)[1]
                                for s in starts))
    return tuple(found)


def test_n3_extremes_match_a_denser_reference():
    rng = np.random.default_rng(2026)
    pencil = reference_pencil(rng)
    eye = np.eye(3, dtype=complex)
    for _ in range(150):
        R = random_kahler_tensor(3, rng)
        scale = np.max(np.abs(R))
        ext = hsc_extremes_from_tensor(R, eye)
        ref_min, ref_max = reference_extremes(R, pencil, rng)
        assert ext.h_max >= ref_max - 1e-12 * scale
        assert ext.h_min <= ref_min + 1e-12 * scale
        assert abs(hsc_value(R, eye, ext.eta_max) - ext.h_max) <= 1e-12 * scale
        assert abs(hsc_value(R, eye, ext.eta_min) - ext.h_min) <= 1e-12 * scale


def test_n3_polish_without_the_lstsq_kernel_finds_the_same_extremes():
    """numpy 1.x has no single lstsq kernel; curvature then binds numpy.linalg.lstsq,
    and the n = 3 extremes are the kernel's, bit for bit."""
    code = "\n".join([
        "import json, sys",
        "import numpy as np",
        "kernel = vars(np.linalg._umath_linalg).pop('lstsq', None)",
        "from kahlerbench import curvature",
        "assert curvature._lstsq is np.linalg.lstsq",
        "if kernel is not None:",
        "    np.linalg._umath_linalg.lstsq = kernel",
        "from kahlerbench.inequalities import random_kahler_tensor",
        "rng = np.random.default_rng(2028)",
        "ext = [curvature.hsc_extremes_from_tensor(random_kahler_tensor(3, rng), np.eye(3))",
        "       for _ in range(3)]",
        "print(json.dumps([[e.h_min, e.h_max] for e in ext]))",
    ])
    src = str(pathlib.Path(curvature.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    rng = np.random.default_rng(2028)
    ext = [hsc_extremes_from_tensor(random_kahler_tensor(3, rng), np.eye(3)) for _ in range(3)]
    assert json.loads(out) == [[e.h_min, e.h_max] for e in ext]


def test_conditioned_n3_tensors_have_the_stated_gap():
    rng = np.random.default_rng(2027)
    pencil = reference_pencil(rng)
    for _ in range(150):
        gap = float(rng.uniform(0.2, 1.0))
        R = conditioned_negative_tensor(3, rng, gap=gap)
        sup_h = reference_extremes(R, pencil, rng)[1]
        assert abs(sup_h + gap) <= 1e-12 * np.max(np.abs(R))


def test_n3_chart_sweeps_match_closed_forms():
    s = 1.5
    polydisk = make_example("poincare-polydisk", n=3, scale=s)
    assert all(row["ok"] for row in verify_example_facts(polydisk))
    fubini_study = make_example("fubini-study", n=3).field
    for field, (h_min, h_max) in ((polydisk.field, (-2.0 / s, -2.0 / (3.0 * s))),
                                  (fubini_study, (2.0, 2.0))):
        points = list(field.geometry.sample_points(per_axis=2))[::8]
        swept = sweep_hsc_extremes(field, points)
        assert len(swept) == len(points) == 8
        for p, ext in zip(points, swept):
            assert ext.h_min == pytest.approx(h_min, abs=1e-12)
            assert ext.h_max == pytest.approx(h_max, abs=1e-12)
            assert hsc(field, p, ext.eta_min) == pytest.approx(h_min, abs=1e-12)
            assert hsc(field, p, ext.eta_max) == pytest.approx(h_max, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_point_extremes_are_a_sweep_of_one_point(n):
    field = polydisk_field(n=n, scale=1.5)
    p = [0.1 + 0.2j, -0.05j, 0.3][:n]
    single = hsc_extremes(field, p)
    swept = sweep_hsc_extremes(field, [p])[0]
    assert (single.h_min, single.h_max) == (swept.h_min, swept.h_max)
    assert np.array_equal(single.eta_min, swept.eta_min)
    assert np.array_equal(single.eta_max, swept.eta_max)


@pytest.mark.parametrize("name, params", [
    ("poincare-disk", {}), ("poincare-polydisk", {"n": 2}), ("fubini-study", {"n": 2}),
    ("fermat-chart", {}), ("poincare-polydisk", {"n": 3}), ("fubini-study", {"n": 3}),
    ("perturbed-torus", {}),
], ids=["disk", "bidisk", "fubini-study-2", "fermat", "polydisk-3", "fubini-study-3", "torus-2-8"])
def test_point_extremes_equal_their_element_of_a_sweep(name, params):
    # a single point is a batch of one: its extremes are bit for bit those of
    # the same point inside a 32-point sweep
    rng = np.random.default_rng(30)
    if name == "perturbed-torus":
        grid = TorusGrid(2, 8)
        field = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
        points = [tuple(p) for p in rng.integers(0, grid.N, size=(32, 2 * grid.n))]
    else:
        field = make_example(name, **params).field
        reach = np.subtract(field.geometry.radii, field.geometry.margin)
        shape = (32, field.n)
        points = 0.6 * reach * np.sqrt(rng.uniform(size=shape)) * np.exp(
            2j * np.pi * rng.uniform(size=shape))
    swept = sweep_hsc_extremes(field, points)
    assert len(swept) == 32
    for p, ext in zip(points, swept):
        single = hsc_extremes(field, p)
        assert (single.h_min, single.h_max) == (ext.h_min, ext.h_max)
        assert np.array_equal(single.eta_min, ext.eta_min)
        assert np.array_equal(single.eta_max, ext.eta_max)


def test_kappa_floor_signs():
    field = polydisk_field(n=2, scale=2.0)
    pts = [[0.0, 0.0], [0.2, 0.1j], [-0.3, 0.25]]
    k0 = kappa_floor(field, points=pts)
    assert k0 == pytest.approx(0.5, abs=1e-5)

    grid = TorusGrid(1, 16)
    flat = TorusMetricField(grid, np.zeros(grid.shape))
    assert kappa_floor(flat, points=[(0, 0)]) <= 1e-12


def test_kappa_floor_rejects_an_empty_sweep():
    # An empty sweep would otherwise certify kappa_0 = inf.
    field = polydisk_field(n=2, scale=2.0)
    with pytest.raises(ValueError, match="at least one sweep point"):
        kappa_floor(field, points=[])
    with pytest.raises(ValueError, match="at least one sweep point"):
        kappa_floor(field, points=field.geometry.sample_points(per_axis=0))


def _strided_grid_indices(grid, stride):
    return list(itertools.product(range(0, grid.N, stride), repeat=2 * grid.n))


@pytest.mark.parametrize("n, N, amplitude, stride", [
    (2, 12, 0.01, 4),  # 81 of 12^4 points
    (1, 16, 0.01, 1),  # all 256 points
    (1, 16, 0.0, 1),   # flat torus
])
def test_torus_kappa_floor_grid_sweep_matches_pointwise(n, N, amplitude, stride):
    grid = TorusGrid(n, N)
    field = TorusMetricField(grid, perturbed_torus_potential(grid, amplitude))
    points = _strided_grid_indices(grid, stride)
    assert list(default_sweep_points(field)) == points
    swept = kappa_floor(field)
    pointwise = kappa_floor(field, points=points)
    assert swept == pointwise
    if amplitude == 0.0:
        assert abs(swept) <= 1e-12


@pytest.mark.parametrize("n, N, max_points, count", [
    (2, 10, 64, 16),    # stride 8 on 10 points per axis: 2^4; stride 4 would give 3^4 = 81
    (1, 10, 16, 9),     # stride 4: 3^2; stride 2 would give 5^2 = 25
    (2, 12, 256, 81),   # path-collapse's sweep, stride 4
    (1, 32, 64, 64),    # the zoo's sweep, stride 4
])
def test_default_sweep_stays_within_its_cap(n, N, max_points, count):
    grid = TorusGrid(n, N)
    field = TorusMetricField(grid, np.zeros(grid.shape))
    points = list(default_sweep_points(field, max_points))
    assert len(points) == count <= max_points
    assert len(set(points)) == count


@pytest.mark.parametrize("N", [64, 128])
def test_fine_torus_kappa_floor_keeps_curvature_symmetries(N):
    # Per-entry FFT round-off would break ddg[i,j,k,l] = conj(ddg[j,i,l,k])
    # by an amount growing with N; the grid's jets transform each distinct
    # real component once, so the symmetry holds by construction and the
    # curvature symmetry check passes on fine grids.
    grid = TorusGrid(1, N)
    field = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    swept = kappa_floor(field)
    points = _strided_grid_indices(grid, N // 16)  # the sweep's 256 points
    assert len(points) == 256
    pointwise = kappa_floor(field, points=points)
    assert swept == pointwise


@pytest.mark.parametrize("case", ["torus-2-12", "polydisk", "polydisk-3"])
def test_batched_sweep_matches_pointwise_extremes(case):
    if case == "polydisk":
        field = polydisk_field(n=2, scale=1.5)
        points = list(field.geometry.sample_points(per_axis=3))
    elif case == "polydisk-3":
        field = polydisk_field(n=3, scale=1.5)
        points = list(field.geometry.sample_points(per_axis=2))[::7]
    else:
        grid = TorusGrid(2, 12)
        field = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
        points = list(default_sweep_points(field))
    swept = sweep_hsc_extremes(field, points)
    assert len(swept) == len(points) > 1
    for p, ext in zip(points, swept):
        single = hsc_extremes(field, p)
        scale = max(1.0, abs(single.h_min), abs(single.h_max))
        assert abs(ext.h_min - single.h_min) <= 1e-14 * scale
        assert abs(ext.h_max - single.h_max) <= 1e-14 * scale
        assert abs(hsc(field, p, ext.eta_max) - ext.h_max) <= 1e-12 * scale


def test_n3_torus_kappa_floor_reads_its_sublattices_only():
    # the default sweep of a (3, 8) torus is its 64 points of stride 4 (and
    # the origin, of stride 8): two sublattice folds, not the full-grid T
    # and Q (727 MiB traced), give kappa_0 as the full jets do
    grid = TorusGrid(3, 8)
    field = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    tracemalloc.start()
    try:
        swept = kappa_floor(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak
    idx = grid.index(list(default_sweep_points(field)))
    T, Q = grid.hessian_jets(field.psi)
    full = -max(e.h_max for e in _jet_extremes(hermitian(field.g)[idx], T[idx], Q[idx]))
    assert swept == pytest.approx(full, rel=1e-12, abs=0.0)


def test_batched_sweep_rejects_the_first_corrupted_jet(monkeypatch):
    grid = TorusGrid(2, 8)
    field = TorusMetricField(grid, perturbed_torus_potential(grid, 0.01))
    points = list(default_sweep_points(field))
    first, later = points[5], points[9]
    hessian_jets = TorusGrid.hessian_jets

    def corrupted(self, f, stride=1):
        # the jets the sweep reads, from any sublattice holding the point
        T, Q = hessian_jets(self, f, stride)
        for point, bump in ((first, 0.05), (later, 0.5)):
            if not any(a % stride for a in point):
                Q[tuple(a // stride for a in point)][0, 1, 1, 0] += bump  # breaks i <-> k here only
        return T, Q

    monkeypatch.setattr(TorusGrid, "hessian_jets", corrupted)
    with pytest.raises(ValueError, match="symmetries") as pointwise:
        hsc(field, first, [1.0, 0.0])
    with pytest.raises(ValueError, match="symmetries") as swept:
        kappa_floor(field)
    assert str(swept.value) == str(pointwise.value)
    sweep_hsc_extremes(field, points[:5])  # the points before it still pass


# -- Gauss equation on a Fubini-Study pullback ----------------------------------


def fermat_gauss_hsc(z, X, d=5):
    """H(X) on the degree-d Fermat graph chart from the Gauss equation.

    The chart maps z to w = (z1, z2, h) with h = alpha (1 + z1^d + z2^d)^(1/d)
    in the affine chart of CP^3 whose potential log(1 + |w|^2) has H = 2,
    and the induced metric has H(X) = 2 - |II(X, X)|^2 / |X|^4
    (Kobayashi-Nomizu II, ch. IX).  II(X, X) is the normal part of
    D^2w(X, X) + Gamma(Dw X, Dw X) in the ambient metric, with the FS
    Christoffel symbols Gamma^c_ab = -(conj(w_a) delta_cb + conj(w_b)
    delta_ca) / (1 + |w|^2).  h's derivatives are written out by hand.
    """
    z, X = np.asarray(z, dtype=complex), np.asarray(X, dtype=complex)
    alpha = np.exp(1j * np.pi / d)
    u = 1.0 + z[0] ** d + z[1] ** d
    w = np.array([z[0], z[1], alpha * u ** (1.0 / d)])
    J = np.zeros((3, 2), dtype=complex)  # J[a, i] = d w_a / dz_i
    J[0, 0] = J[1, 1] = 1.0
    J[2] = alpha * z ** (d - 1) * u ** (1.0 / d - 1.0)
    hess = alpha * ((d - 1) * np.diag(z ** (d - 2)) * u ** (1.0 / d - 1.0)
                    + (1 - d) * np.outer(z ** (d - 1), z ** (d - 1)) * u ** (1.0 / d - 2.0))
    rho = 1.0 + np.vdot(w, w).real
    G = np.eye(3) / rho - np.outer(np.conj(w), w) / rho**2  # G[a, b] = g_{a bbar}
    v = J @ X
    V = np.array([0.0, 0.0, X @ hess @ X]) - 2.0 * np.vdot(w, v) * v / rho
    g = J.T @ G @ np.conj(J)  # the induced metric g_{i jbar}
    c = np.linalg.solve(g.T, V @ G @ np.conj(J))  # tangent part J c of V
    normal = V - J @ c
    ii2 = (normal @ G @ np.conj(normal)).real
    x2 = (X @ g @ np.conj(X)).real
    return 2.0 - ii2 / x2**2


def test_fermat_hsc_matches_the_gauss_equation():
    example = make_example("fermat-chart", degree=5)
    field = example.field
    rng = np.random.default_rng(11)
    reach = 0.24  # the trusted polydisk has radius 0.25 per axis
    for _ in range(60):
        z = reach * np.sqrt(rng.uniform(size=2)) * np.exp(2j * np.pi * rng.uniform(size=2))
        X = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        want = fermat_gauss_hsc(z, X)
        got = hsc(field, z, X)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert want <= 2.0 and got <= 2.0 + 1e-12
    line = np.array([1.0, np.exp(1j * np.pi / 5)])  # the contained line's direction
    origin = np.zeros(2, dtype=complex)
    assert abs(fermat_gauss_hsc(origin, line) - 2.0) <= 1e-12
    assert abs(hsc(field, origin, line) - 2.0) <= 1e-12


def test_fermat_sup_hsc_fact_reads_the_gauss_equation_at_its_sweep():
    example = make_example("fermat-chart", degree=5)
    points = list(default_sweep_points(example.field))
    swept = sweep_hsc_extremes(example.field, points)
    assert len(swept) == 81
    for z, ext in zip(points, swept):
        assert abs(fermat_gauss_hsc(z, ext.eta_max) - ext.h_max) <= 1e-12
    row, = (r for r in verify_example_facts(example) if r["fact"] == "hsc-at-most-projective")
    assert row["ok"] and (row["mode"], row["oracle"], row["tol"]) == ("le", 2.0, 1e-9)
    assert row["measured"] == max(ext.h_max for ext in swept)
