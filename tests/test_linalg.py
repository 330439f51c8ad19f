"""Pointwise Hermitian algebra: positivity, eigenvalues, sigma vectors, traces.

Every function is batched over (..., n, n) fields or (..., n) tuples; the
oracles are library routines applied one point at a time.
"""

import numpy as np
import pytest
import scipy.linalg

from kahlerbench.errors import DimensionMismatch
from kahlerbench.linalg import (
    PD_RTOL,
    Direction,
    elementary_symmetric_field,
    newton_maclaurin_margin_field,
    positivity,
    relative_eigenvalues_field,
    simultaneous_frame,
    trace_s_field,
)


def random_pd(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a @ a.conj().T) + 0.1 * np.eye(n)


def eigh_oracle(gA, gB):
    return scipy.linalg.eigh(gB, gA, eigvals_only=True)


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
    lam = relative_eigenvalues_field(np.eye(2), np.diag([2.0, 8.0]))
    assert np.allclose(lam, [2.0, 8.0], atol=1e-14)


def test_relative_eigenvalues_congruence_invariant():
    rng = np.random.default_rng(3)
    gA = random_pd(rng, 3)
    gB = random_pd(rng, 3)
    lam0 = relative_eigenvalues_field(gA, gB)
    T = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lam1 = relative_eigenvalues_field(T.conj().T @ gA @ T, T.conj().T @ gB @ T)
    assert np.allclose(lam0, lam1, rtol=1e-10)


def test_relative_eigenvalues_field_matches_scalar():
    """Each point against scipy's generalized Hermitian eigensolver."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        gA = np.stack([random_pd(rng, n) for _ in range(6)])
        gB = np.stack([random_pd(rng, n) for _ in range(6)])
        lam = relative_eigenvalues_field(gA, gB)
        for i in range(6):
            assert np.allclose(lam[i], eigh_oracle(gA[i], gB[i]), rtol=1e-12, atol=0.0)


def test_relative_eigenvalues_field_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        relative_eigenvalues_field(np.eye(2), np.stack([np.eye(2)] * 2))


# -- sigma ratios and Newton-MacLaurin ----------------------------------------


def test_sigma_ratios_diagonal_oracle():
    lam = relative_eigenvalues_field(np.eye(2), np.diag([1.0, 4.0]))
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
    s = trace_s_field(np.eye(2), np.diag([2.0, 4.0]))
    assert s == pytest.approx(0.75, abs=1e-14)


def test_trace_s_equals_sigma_ratio():
    rng = np.random.default_rng(7)
    g = random_pd(rng, 3)
    gp = random_pd(rng, 3)
    e = elementary_symmetric_field(relative_eigenvalues_field(g, gp))
    assert trace_s_field(g, gp) == pytest.approx(e[2] / e[3], rel=1e-11)


def test_trace_s_field_matches_scalar():
    """S at each point against the sum of 1/lambda of scipy's eigenvalues."""
    rng = np.random.default_rng(13)
    for n in (1, 2, 3):
        g = np.stack([random_pd(rng, n) for _ in range(5)])
        gp = np.stack([random_pd(rng, n) for _ in range(5)])
        batch = trace_s_field(g, gp)
        for i in range(5):
            want = float(np.sum(1.0 / eigh_oracle(g[i], gp[i])))
            assert batch[i] == pytest.approx(want, rel=1e-12)


# -- simultaneous frame --------------------------------------------------------


def test_simultaneous_frame_diagonalizes_pair():
    rng = np.random.default_rng(29)
    g = random_pd(rng, 3)
    gp = random_pd(rng, 3)
    T, d = simultaneous_frame(g, gp)
    assert np.allclose(T.conj().T @ g @ T, np.eye(3), atol=1e-10)
    assert np.allclose(T.conj().T @ gp @ T, np.diag(d), atol=1e-10)
    assert np.all(np.diff(d) >= -1e-12)
    lam = relative_eigenvalues_field(g, gp)
    assert np.allclose(np.sort(d), np.sort(lam), rtol=1e-10)
