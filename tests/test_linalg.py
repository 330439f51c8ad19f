"""Pointwise Hermitian algebra: kernels, positivity, eigenvalues, sigma vectors, traces.

Every function is batched over fields, given by their components (n*n, ...)
or, for the point-query helpers, as Hermitian (..., n, n) matrices, or over
(..., n) tuples; the oracles are library routines applied one point at a time.
"""

import itertools
import re
import sys

import numpy as np
import pytest
import scipy.linalg
import sympy as sp

from kahlerbench import linalg, solver
from kahlerbench.curvature import hsc_extremes_from_tensor
from kahlerbench.errors import DimensionMismatch, PositivityLoss
from kahlerbench.fields import ChartMetricField, TorusMetricField
from kahlerbench.grids import ChartGeometry, TorusGrid
from kahlerbench.inequalities import ricci_term_margin, royden_margin
from kahlerbench.integrals import mixed_determinants, wedge_integral, wedge_integrals
from kahlerbench.linalg import (
    PD_RTOL,
    Direction,
    adjugate,
    component_det,
    component_eigvalsh,
    component_positivity,
    components,
    hermitian,
    inverse_cholesky,
    elementary_symmetric_field,
    inv,
    newton_maclaurin_margin_field,
    relative_eigenvalues_field,
    trace_pairing,
    trace_s_field,
    trace_weights,
)


def random_pd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a @ a.conj().T) + 0.1 * np.eye(n)


def eigh_oracle(gA, gB):
    return scipy.linalg.eigh(gB, gA, eigvals_only=True)


def det(a):
    """det of Hermitian (..., n, n) matrices by the component kernel."""
    return component_det(components(a))


def positivity(a):
    """The policy on Hermitian (..., n, n) matrices, by their components."""
    return component_positivity(components(a))


def eigvalsh(a):
    """Ascending eigenvalues of Hermitian (..., n, n) matrices, by their components."""
    return component_eigvalsh(components(a))


# -- batched kernels: det and inv are the component closed forms ------------------

KERNEL_RTOL = 1e-13


def hermitian_with_eigenvalues(rng, lam):
    n = len(lam)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return U @ np.diag(lam) @ U.conj().T


def kernel_cases(rng, n):
    """A batch (6, n, n) of Hermitian test matrices for one dimension."""
    cases = [random_pd(rng, n), random_pd(rng, n, scale=1e4), np.eye(n, dtype=complex),
             np.diag(rng.uniform(0.5, 2.0, n)).astype(complex),  # b = 0
             hermitian_with_eigenvalues(rng, [-3.0, 0.25, 1.5][:n]),
             -random_pd(rng, n)]
    return np.stack(cases)


def assert_kernels_match_lapack(a):
    """det, inv and eigvalsh of a (batch of) Hermitian matrices against numpy.linalg."""
    scale = np.max(np.abs(np.linalg.eigvalsh(a)), axis=-1)
    n = a.shape[-1]
    assert np.all(np.abs(det(a) - np.linalg.det(a)) <= KERNEL_RTOL * scale**n)
    w = eigvalsh(a)
    assert w.shape == a.shape[:-1]
    assert np.all(np.abs(w - np.linalg.eigvalsh(a)) <= KERNEL_RTOL * scale[..., None])
    a_inv = np.linalg.inv(a)
    inv_scale = np.max(np.abs(a_inv), axis=(-2, -1))[..., None, None]
    assert np.all(np.abs(inv(a) - a_inv) <= KERNEL_RTOL * inv_scale)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_kernels_match_lapack_on_batches(n):
    rng = np.random.default_rng(40 + n)
    batch = kernel_cases(rng, n)
    assert_kernels_match_lapack(batch)
    field = np.stack([random_pd(rng, n) for _ in range(60)]).reshape(3, 4, 5, n, n)
    assert_kernels_match_lapack(field)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_kernels_match_lapack_on_single_matrices(n):
    rng = np.random.default_rng(50 + n)
    for a in kernel_cases(rng, n):
        assert_kernels_match_lapack(a)
        assert det(a).shape == () and inv(a).shape == (n, n)


def test_closed_form_eigenvalues_of_identity_and_diagonal_are_exact():
    assert np.array_equal(eigvalsh(np.eye(2)), [1.0, 1.0])
    assert np.array_equal(eigvalsh(np.diag([3.0, -2.0])), [-2.0, 3.0])
    assert np.array_equal(eigvalsh(np.zeros((2, 2))), [0.0, 0.0])


def with_trace_ratio(rng, n, ratio):
    """A Hermitian n x n matrix on the policy's edge: for n >= 2 its least
    eigenvalue is ratio times its trace (the others 2, ..., 4); for n = 1,
    where that ratio is 1, its entry is 4 (ratio - PD_RTOL), as far above or
    below the threshold 0."""
    if n == 1:
        return np.array([[4.0 * (ratio - PD_RTOL)]], dtype=complex)
    rest = [2.0] * (n - 2) + [4.0]
    return hermitian_with_eigenvalues(rng, [ratio * sum(rest) / (1.0 - ratio)] + rest)


def policy_oracle(a):
    """The policy by LAPACK's eigenvalues: l_min > PD_RTOL tr, pointwise."""
    w = np.linalg.eigvalsh(a)
    return w[..., 0] > PD_RTOL * w.sum(axis=-1)


@pytest.mark.parametrize("ratio", [0.5 * PD_RTOL, 2.0 * PD_RTOL])
def test_closed_form_positivity_at_the_threshold_matches_eigvalsh(ratio):
    # a field whose one point on the edge passes with it, at every n; a
    # failing field reports that point and its eigenvalues, a passing one none
    rng = np.random.default_rng(70)
    for n in (1, 2, 3):
        edge = with_trace_ratio(rng, n, ratio)
        field = np.stack([random_pd(rng, n) for _ in range(20)]).reshape(4, 5, n, n)
        field[1, 3] = edge
        oracle = policy_oracle(field)
        assert oracle.sum() == 19 + (ratio > PD_RTOL)
        ok, worst, w_worst = positivity(field)
        assert ok == bool(oracle.all())
        assert tuple(int(i) for i in worst) == (1, 3)
        if ok:
            assert w_worst is None
        else:
            assert np.all(np.abs(w_worst - np.linalg.eigvalsh(edge)) <= KERNEL_RTOL * 4.0)
        assert positivity(edge)[0] == ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_det_inverse_and_mixed_determinants_call_no_lapack(n, monkeypatch):
    rng = np.random.default_rng(130 + n)
    a = np.stack([random_pd(rng, n) for _ in range(6)]).reshape(2, 3, n, n)
    b = np.stack([random_pd(rng, n) for _ in range(6)]).reshape(2, 3, n, n)

    def refused(*args, **kwargs):
        raise AssertionError("a numpy.linalg det or inv was called")

    for target in ("numpy.linalg.det", "numpy.linalg.inv"):
        monkeypatch.setattr(target, refused)
    for x, y in ((a, b), (a[1, 2], b[1, 2])):
        det(x)
        inv(x)
        trace_s_field(components(x), components(y))
        mixed_determinants(components(x), components(y))
    wedge_integrals(components(a), components(b))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eigenvalues_in_slabs_are_the_whole_field_bit_for_bit(n, monkeypatch):
    # 77 points in slabs of 10, the last one partial: at n = 3 against one
    # LAPACK call on the whole assembled field (the congruence's for the
    # relative eigenvalues); eigvalsh is component_eigvalsh at every n
    rng = np.random.default_rng(150 + n)
    a = hermitian_field(rng, (7, 11), n)
    gA = np.stack([random_pd(rng, n) for _ in range(77)]).reshape(7, 11, n, n)
    gB = np.stack([random_pd(rng, n) for _ in range(77)]).reshape(7, 11, n, n)
    monkeypatch.setattr(linalg, "SLAB_POINTS", 10)
    w = component_eigvalsh(components(a))
    assert w.shape == (7, 11, n)
    assert eigvalsh(a[2, 3]).tobytes() == w[2, 3].tobytes()
    if n == 3:
        assert w.tobytes() == np.linalg.eigvalsh(hermitian(components(a))).tobytes()
        cA, cB = components(gA), components(gB)  # the pair the components describe:
        Li, B = inverse_cholesky(hermitian(cA)), hermitian(cB)  # upper = conj(lower)
        want = np.linalg.eigvalsh(Li @ B @ np.conj(np.swapaxes(Li, -1, -2)))
        assert relative_eigenvalues_field(cA, cB).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_eigenvalue_call_is_component_eigvalsh_in_slabs(n, monkeypatch):
    # at n <= 2 no LAPACK eigenvalue is taken; at n = 3 each call comes from
    # component_eigvalsh and sees at most SLAB_POINTS matrices, and the
    # policy passes a positive-definite field with none
    rng = np.random.default_rng(160 + n)
    a = np.stack([random_pd(rng, n) for _ in range(77)]).reshape(7, 11, n, n)
    b = np.stack([random_pd(rng, n) for _ in range(77)]).reshape(7, 11, n, n)
    lapack, batches = np.linalg.eigvalsh, []

    def counted(x, *args, **kwargs):
        assert n == 3, "a LAPACK eigenvalue call at n <= 2"
        assert sys._getframe(1).f_code.co_name == "component_eigvalsh"
        batches.append(x.shape[0])
        return lapack(x, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh was called")

    monkeypatch.setattr(linalg, "SLAB_POINTS", 10)
    monkeypatch.setattr("numpy.linalg.eigvalsh", counted)
    monkeypatch.setattr("numpy.linalg.eigh", refused)
    for x, y in ((a, b), (a[1, 2], b[1, 2])):
        eigvalsh(x)
        component_positivity(components(x))
        relative_eigenvalues_field(components(x), components(y))
    assert max(batches, default=0) <= 10
    assert len(batches) == (2 * 8 + 2 if n == 3 else 0)


def test_kernels_reject_non_square_input():
    for fn in (components, inv):
        with pytest.raises(DimensionMismatch):
            fn(np.zeros((4, 2, 3)))


# -- positivity policy ----------------------------------------------------------


def test_positivity_threshold_single_and_batched():
    rng = np.random.default_rng(31)
    U, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))

    def with_ratio(r):
        return U @ np.diag([r * 4.0, 2.0, 4.0]) @ U.conj().T

    bad, good = with_ratio(0.5 * PD_RTOL), with_ratio(2.0 * PD_RTOL)
    ok, worst, w = positivity(bad)
    assert not ok and worst == ()
    assert w[0] == pytest.approx(2.0 * PD_RTOL, rel=1e-3)
    assert positivity(good)[0]
    ok, _, w = positivity(np.diag([1.0, -2.0]))
    assert not ok and w[0] == -2.0

    field = np.broadcast_to(good, (4, 5, 3, 3)).copy()
    assert positivity(field)[0]
    field[2, 3] = bad
    ok, worst, w = positivity(field)
    assert not ok
    assert tuple(int(i) for i in worst) == (2, 3)
    assert np.allclose(w, np.linalg.eigvalsh(bad))


def _torus_cosine(n, amplitude):
    """amplitude * cos(2 pi x_1) on the (n, 8) torus, whose I + Hess has the
    eigenvalue 1 - amplitude pi^2 cos(2 pi x_1), least at index 0."""
    grid = TorusGrid(n, 8)
    x = grid._axis_view(grid.axis_coords, 0)
    return grid, amplitude * np.broadcast_to(np.cos(2.0 * np.pi * x), grid.shape).copy()


def _torus_site():
    TorusMetricField(*_torus_cosine(1, 2.0 / np.pi**2))


def _chart_site():
    # g = 1 - 8|z|^2, negative at the second point only
    z, x = sp.symbols("z x")
    field = ChartMetricField(ChartGeometry(n=1, radii=(1.0,), margin=0.2),
                             [(x, (z,)), (-2.0, x, (z**2,))], (z,))
    field.jet_at([[0.1], [0.5j], [0.3]])


def _solve_site():
    grid, psi = _torus_cosine(1, 2.0 / np.pi**2)
    solver.solve_ma(solver.MAProblem(grid, 1.0 + grid.hessian_components(psi),
                                     np.zeros(grid.shape)))


def _manufactured_site():
    solver.manufactured_problem(*_torus_cosine(2, 2.0 / np.pi**2))


def _metric_stack(bad_at, bad):
    g = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)).copy()
    g[bad_at] = np.diag(bad)
    return g


def _royden_g_site():
    eye = np.eye(2, dtype=complex)
    R = -np.einsum("ij,kl->ijkl", eye, eye)
    royden_margin(R, _metric_stack(1, [1.0, -1.0]), eye, 1.0)


def _royden_single_site():
    eye = np.eye(2, dtype=complex)
    royden_margin(-np.einsum("ij,kl->ijkl", eye, eye), np.diag([1.0, -1.0]), eye, 1.0)


def _royden_g_prime_site():
    eye = np.eye(2, dtype=complex)
    R = -np.einsum("ij,kl->ijkl", eye, eye)
    royden_margin(R, eye, _metric_stack(2, [1.0, -1.0]), 1.0)


def _hsc_tensor_site():
    eye = np.eye(2, dtype=complex)
    hsc_extremes_from_tensor(-np.einsum("ij,kl->ijkl", eye, eye), np.diag([1.0, -1.0]))


def _ricci_site():
    gp = _metric_stack(3, [1.0, -1.0])
    ricci_term_margin(-0.5 * gp, gp, 1.0, 0.0)


@pytest.mark.parametrize("site, what, point", [
    (_torus_site, "metric", (0, 0)),
    (_chart_site, "metric", (0.5j,)),
    (_solve_site, "initial candidate", (0, 0)),
    (_manufactured_site, "manufactured metric I + Hess v*", (0, 0, 0, 0)),
    (_royden_g_site, "g", (1,)),
    (_royden_single_site, "g", ()),
    (_royden_g_prime_site, "g_prime", (2,)),
    (_ricci_site, "g_prime", (3,)),
    (_hsc_tensor_site, "g", ()),
], ids=["torus", "chart", "solve", "manufactured", "royden-g", "royden-single", "royden-g-prime",
        "ricci", "hsc-tensor"])
def test_every_policy_site_raises_with_its_point(site, what, point):
    # each site holds its metric to linalg.require_positive: the message
    # names what failed, the point is plain ints (an index, () for a single
    # matrix) or a chart's coordinates, and the least eigenvalue there is -1
    with pytest.raises(PositivityLoss, match=f"^{re.escape(what)} not positive definite at ") as err:
        site()
    assert err.value.point == point
    assert [type(x) for x in err.value.point] == [type(x) for x in point]
    assert err.value.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)


# -- the component layout and its kernels ----------------------------------------


def hermitian_field(rng, shape, n, lam_range=None):
    """Hermitian (..., n, n) field; with lam_range = (lo, hi), eigenvalues drawn
    from it with random signs, so every point is conditioned within hi/lo."""
    A = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
    if lam_range is None:
        return (A + np.conj(np.swapaxes(A, -1, -2))) / 2.0
    U = np.linalg.qr(A)[0]
    lam = rng.uniform(*lam_range, shape + (n,)) * rng.choice([-1.0, 1.0], shape + (n,))
    return (U * lam[..., None, :]) @ np.conj(np.swapaxes(U, -1, -2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_components_round_trip(n):
    rng = np.random.default_rng(90 + n)
    a = hermitian_field(rng, (4, 5), n)
    c = components(a)
    assert c.shape == (n * n, 4, 5) and c.dtype == float
    assert np.array_equal(hermitian(c), a)
    assert np.array_equal(components(a[2, 3]), c[:, 2, 3])
    with pytest.raises(DimensionMismatch):
        hermitian(np.zeros((5, 3)))


def _selection_product(n):
    """The former layout conversions, each one matrix product with a signed
    selection table over the floats (Re, Im per entry) of a Hermitian n x n
    matrix: (components, hermitian)."""
    to, frm = np.zeros((2, n * n, 2 * n * n))
    for i, j in itertools.product(range(n), repeat=2):
        re, lo, hi = 2 * (i * n + j), min(i, j), max(i, j)
        frm[lo * n + hi, re] = 1.0
        if i != j:
            frm[hi * n + lo, re + 1] = 1.0 if i < j else -1.0
        if i >= j:
            to[lo * n + hi, re] = 1.0
        if i > j:
            to[hi * n + lo, re + 1] = -1.0

    def to_components(a):
        a = np.ascontiguousarray(a, dtype=complex)
        c = to @ a.reshape(-1, n * n).view(float).T
        return c.reshape((n * n,) + a.shape[:-2])

    def to_hermitian(c):
        H = c.reshape(n * n, -1).T @ frm
        return H.view(complex).reshape(c.shape[1:] + (n, n))

    return to_components, to_hermitian


@pytest.mark.parametrize("n", [1, 2, 3])
def test_layout_conversions_are_the_selection_product_bit_for_bit(n):
    # strided copies, signed zeros included (the product's zeros are +0.0),
    # and a NaN anywhere, the upper triangle too, makes the whole matrix NaN
    rng = np.random.default_rng(60 + n)
    to_components, to_hermitian = _selection_product(n)
    a = hermitian_field(rng, (7, 6), n)
    floats = a.view(float)
    floats[rng.uniform(size=floats.shape) < 0.2] = 0.0
    floats[rng.uniform(size=floats.shape) < 0.2] = -0.0
    a[1, 2, 0, n - 1] = complex(np.nan, 0.0)  # upper triangle (diagonal at n = 1)
    a[3, 4, n - 1, 0] = complex(0.5, np.nan)  # lower triangle
    c = components(a)
    with np.errstate(invalid="ignore"):
        assert c.tobytes() == to_components(a).tobytes()
        assert components(a[5, 5]).tobytes() == to_components(a[5, 5]).tobytes()
    assert np.isnan(c[:, 1, 2]).all() and np.isnan(c[:, 3, 4]).all()
    assert np.isfinite(np.delete(c.reshape(n * n, -1), [8, 22], axis=1)).all()
    if n < 3:  # at n = 3 LAPACK refuses a NaN matrix outright
        assert not component_positivity(c[:, 1, 2])[0]
    c = rng.standard_normal((n * n, 7, 6))
    c[rng.uniform(size=c.shape) < 0.2] = 0.0
    c[rng.uniform(size=c.shape) < 0.2] = -0.0
    c[0, 2, 3] = c[-1, 4, 1] = np.nan
    with np.errstate(invalid="ignore"):
        assert hermitian(c).tobytes() == to_hermitian(c).tobytes()
        assert hermitian(c[:, 0, 0]).tobytes() == to_hermitian(c[:, 0, 0]).tobytes()
    assert np.isnan(hermitian(c)[2, 3].view(float)).all()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_component_det_and_weights_match_lapack(n):
    """det and the cofactor inverse, as trace weights, of random Hermitian
    fields (definite and indefinite, conditioned within 4) against numpy.linalg."""
    rng = np.random.default_rng(100 + n)
    a = hermitian_field(rng, (6, 7), n, lam_range=(0.5, 2.0))
    c = components(a)
    assert np.all(np.abs(component_det(c) - np.linalg.det(a).real) <= KERNEL_RTOL * 2.0**n)
    a_inv = np.linalg.inv(a)
    want = components(a_inv)
    off = np.ones(n * n, dtype=bool)
    off[:: n + 1] = False
    want[off] *= 2.0  # tr(M^{-1} H) counts each off-diagonal entry twice
    inv_scale = np.max(np.abs(a_inv), axis=(-2, -1))
    w = trace_weights(c)
    assert np.all(np.abs(w - want) <= 2.0 * KERNEL_RTOL * inv_scale)
    # one matrix is a batch of one
    assert np.array_equal(component_det(c[:, 1, 2]), component_det(c)[1, 2])
    assert np.array_equal(trace_weights(c[:, 1, 2]), w[:, 1, 2])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_adjugate_is_the_cofactor_matrix_and_trace_pairing_the_trace(n):
    """M adj M = det M I, for a singular M too, and tr(P Q) on components."""
    rng = np.random.default_rng(140 + n)
    a = hermitian_field(rng, (4, 5), n, lam_range=(0.5, 2.0))
    b = hermitian_field(rng, (4, 5), n)
    a[0, 0] = hermitian_with_eigenvalues(rng, [0.0, 1.5, -0.75][:n])
    adj = hermitian(adjugate(components(a)))
    want = np.linalg.det(a).real[..., None, None] * np.eye(n)
    assert np.all(np.abs(a @ adj - want) <= KERNEL_RTOL * 2.0**n)
    assert np.all(np.abs(adj[0, 0] @ a[0, 0]) <= KERNEL_RTOL * 2.0**n)
    tr = np.einsum("...ij,...ji->...", a, b).real
    assert np.all(np.abs(trace_pairing(components(a), components(b)) - tr)
                  <= KERNEL_RTOL * np.abs(b).max())


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("ratio", [PD_RTOL * (1.0 - 1e-4), PD_RTOL * (1.0 + 1e-4)])
def test_component_positivity_at_the_threshold_matches_the_eigenvalue_ratio(n, ratio):
    # one part in 10^4 either side of l_min = PD_RTOL tr decides the verdict
    rng = np.random.default_rng(110 + n)
    field = np.stack([random_pd(rng, n) for _ in range(20)]).reshape(4, 5, n, n)
    field[1, 3] = with_trace_ratio(rng, n, ratio)
    oracle = bool(policy_oracle(field).all())
    assert oracle == (ratio > PD_RTOL)
    ok, worst, w_worst = component_positivity(components(field))
    assert ok == oracle
    assert tuple(int(i) for i in worst) == (1, 3)
    if not ok:
        assert np.all(np.abs(w_worst - np.linalg.eigvalsh(field[1, 3])) <= KERNEL_RTOL * 4.0)
    assert positivity(field)[0] == ok
    assert component_positivity(components(field[1, 3]))[0] == ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_component_positivity_matches_eigenvalues_on_random_fields(n):
    rng = np.random.default_rng(120 + n)
    definite = np.stack([random_pd(rng, n) for _ in range(30)]).reshape(5, 6, n, n)
    assert component_positivity(components(definite))[::2] == (True, None)
    indefinite = hermitian_field(rng, (5, 6), n)
    oracle = policy_oracle(indefinite)
    assert 0 < oracle.sum() < 30
    for i, j in np.ndindex(5, 6):  # the verdict point by point
        assert component_positivity(components(indefinite[i, j]))[0] == oracle[i, j]
    ok, worst, w_worst = component_positivity(components(indefinite))
    assert not ok
    # the reported point fails the policy, and its eigenvalues are reported
    assert not oracle[worst]
    assert np.all(np.abs(w_worst - np.linalg.eigvalsh(indefinite[worst])) <= KERNEL_RTOL * 1e2)


def test_direction_rejects_zero_vector():
    with pytest.raises(ValueError, match="nonzero"):
        Direction(np.zeros(2))
    assert Direction([1.0, 0.0]).n == 2


# -- elementary symmetric functions -------------------------------------------


def test_elementary_symmetric_frozen_values():
    assert np.allclose(elementary_symmetric_field([1.0, 4.0]), [1.0, 5.0, 4.0])
    assert np.allclose(elementary_symmetric_field([2.0, 3.0, 4.0]), [1.0, 9.0, 26.0, 24.0])


def test_elementary_symmetric_field_matches_scalar():
    """e_k of each tuple against the coefficients of prod (x + lam_i)."""
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        lam = np.exp(rng.normal(size=(40, n)))
        batch = elementary_symmetric_field(lam)
        for i in range(lam.shape[0]):
            assert np.allclose(batch[i], np.poly(-lam[i]), rtol=1e-13, atol=0.0)


def test_elementary_symmetric_field_rejects_dimension_4():
    with pytest.raises(DimensionMismatch):
        elementary_symmetric_field(np.ones((5, 4)))


# -- relative eigenvalues ------------------------------------------------------


def test_relative_eigenvalues_diagonal_oracle():
    lam = relative_eigenvalues_field(components(np.eye(2)), components(np.diag([2.0, 8.0])))
    assert np.allclose(lam, [2.0, 8.0], atol=1e-14)


def test_relative_eigenvalues_congruence_invariant():
    rng = np.random.default_rng(3)
    gA = random_pd(rng, 3)
    gB = random_pd(rng, 3)
    lam0 = relative_eigenvalues_field(components(gA), components(gB))
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lam1 = relative_eigenvalues_field(components(T.conj().T @ gA @ T),
                                      components(T.conj().T @ gB @ T))
    assert np.allclose(lam0, lam1, rtol=1e-10)


def test_relative_eigenvalues_field_matches_scalar():
    """Each point against scipy's generalized Hermitian eigensolver."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        gA = np.stack([random_pd(rng, n) for _ in range(6)])
        gB = np.stack([random_pd(rng, n) for _ in range(6)])
        lam = relative_eigenvalues_field(components(gA), components(gB))
        for i in range(6):
            assert np.allclose(lam[i], eigh_oracle(gA[i], gB[i]), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_relative_eigenvalues_match_generalized_eigh(n):
    """The closed-form whitening against scipy's LAPACK pencil solver, pair by pair.

    gA stays well conditioned: with cond(gA) = 1e8 every Cholesky route,
    LAPACK's included, is accurate only to about 1e-8 relative.
    """
    rng = np.random.default_rng(40 + n)
    pairs = [(random_pd(rng, n), random_pd(rng, n, scale=10.0 ** rng.uniform(-3, 3)))
             for _ in range(64)]
    for _ in range(16):  # equal eigenvalues
        gA = random_pd(rng, n)
        pairs.append((gA, rng.uniform(0.01, 100.0) * gA))
    for _ in range(16):  # relative eigenvalues 1e8 apart
        lam = [1.0, 1e-8][:n] if n == 2 else [10.0 ** rng.uniform(-8, 0)]
        pairs.append((random_pd(rng, n), hermitian_with_eigenvalues(rng, lam)))
    gA, gB = (np.stack(side) for side in zip(*pairs))
    lam = relative_eigenvalues_field(components(gA), components(gB))
    for i in range(len(pairs)):
        want = eigh_oracle(gA[i], gB[i])
        assert np.all(np.abs(lam[i] - want) <= 1e-13 * np.max(np.abs(want))), i


@pytest.mark.parametrize("n", [1, 2, 3])
def test_relative_eigenvalues_reject_indefinite_first_metric(n):
    gA = np.stack([np.eye(n), np.diag([1.0, -1.0, 1.0][:n] if n > 1 else [-1.0])])
    with pytest.raises(np.linalg.LinAlgError):
        relative_eigenvalues_field(components(gA), components(np.stack([np.eye(n)] * 2)))


def test_relative_eigenvalues_field_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        relative_eigenvalues_field(components(np.eye(2)), components(np.stack([np.eye(2)] * 2)))


@pytest.mark.parametrize("call", [
    relative_eigenvalues_field, trace_s_field, mixed_determinants, wedge_integrals,
    lambda a, b: wedge_integral(a, b, 1)])
def test_field_functions_reject_hermitian_fields(call):
    """A Hermitian (4, 4) patch of an n = 1 field, shape (4, 4, 1, 1), has the
    shape of n = 2 components; it is rejected, not read as real numbers."""
    field = TorusMetricField(TorusGrid(1, 8), np.zeros((8, 8)))
    g = hermitian(field.g[:, :4, :4])
    assert g.shape == (4, 4, 1, 1)
    with pytest.raises(DimensionMismatch, match="real components"):
        call(g, g)


# -- sigma ratios and Newton-MacLaurin ----------------------------------------


def test_sigma_ratios_diagonal_oracle():
    lam = relative_eigenvalues_field(components(np.eye(2)), components(np.diag([1.0, 4.0])))
    assert np.allclose(elementary_symmetric_field(lam), [1.0, 5.0, 4.0], atol=1e-13)


def test_newton_maclaurin_margin_frozen_value():
    # sqrt(sigma_2) - sigma_2 * binom(2,1) / sigma_1 = 2 - 8/5
    assert newton_maclaurin_margin_field([1.0, 4.0], 1) == pytest.approx(0.4, abs=1e-14)


def test_newton_maclaurin_margin_zero_at_equal_eigenvalues():
    for n, lam in ((2, [3.0, 3.0]), (3, [0.5, 0.5, 0.5])):
        for k in range(1, n):
            assert abs(newton_maclaurin_margin_field(lam, k)) < 1e-14


def test_newton_maclaurin_margin_nonnegative_random_sweep():
    rng = np.random.default_rng(19)
    for n in (2, 3):
        lam = np.exp(rng.normal(0.0, 1.0, size=(2000, n)))
        for k in range(1, n):
            margins = newton_maclaurin_margin_field(lam, k)
            assert margins.min() >= -1e-12


def test_newton_maclaurin_margin_field_matches_scalar():
    """The batch against the margin built from np.poly's e_k, tuple by tuple."""
    rng = np.random.default_rng(23)
    lam = np.exp(rng.normal(size=(30, 3)))
    for k in (1, 2):
        batch = newton_maclaurin_margin_field(lam, k)
        for i in range(30):
            e = np.poly(-lam[i])
            want = e[3] ** (1 / 3) - (e[3] / (e[k] / 3)) ** (1 / (3 - k))
            assert batch[i] == pytest.approx(want, abs=1e-12)


def test_newton_maclaurin_margin_rejects_bad_level():
    with pytest.raises(ValueError):
        newton_maclaurin_margin_field([1.0, 2.0], 0)
    with pytest.raises(ValueError):
        newton_maclaurin_margin_field([1.0, 2.0], 2)


# -- reverse trace -------------------------------------------------------------


def test_trace_s_diagonal_oracle():
    s = trace_s_field(components(np.eye(2)), components(np.diag([2.0, 4.0])))
    assert s == pytest.approx(0.75, abs=1e-14)


def test_trace_s_equals_sigma_ratio():
    rng = np.random.default_rng(7)
    g = random_pd(rng, 3)
    gp = random_pd(rng, 3)
    e = elementary_symmetric_field(relative_eigenvalues_field(components(g), components(gp)))
    assert trace_s_field(components(g), components(gp)) == pytest.approx(e[2] / e[3], rel=1e-11)


def test_trace_s_field_matches_scalar():
    """S at each point against the sum of 1/lambda of scipy's eigenvalues."""
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        g = np.stack([random_pd(rng, n) for _ in range(5)])
        gp = np.stack([random_pd(rng, n) for _ in range(5)])
        batch = trace_s_field(components(g), components(gp))
        for i in range(5):
            want = float(np.sum(1.0 / eigh_oracle(g[i], gp[i])))
            assert batch[i] == pytest.approx(want, rel=1e-12)
