"""Checks of kahlerbench outputs that share no code with kahlerbench.

Every function here re-derives what it compares against with numpy alone:
its own FFT complex Hessian, closed-form determinants, finite-difference
curvature of hand-written chart metrics, and its own random directions.
Each returns a list of problems; an empty list means the output passed.
Comparisons are written as ``not (err <= bound)`` so that NaN fails.

The numpy.linalg functions are bound here at import time, before the
traced mode wraps ``numpy.linalg``, so checks never count as program work.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_inv = np.linalg.inv


def complex_hessian(f: np.ndarray) -> np.ndarray:
    """H[..., i, j] = d^2 f / dz^i dzbar^j of a real periodic field.

    Axis 2j holds x^j and axis 2j+1 holds y^j on the unit torus, so
    d/dz = (d/dx - i d/dy)/2 acts on exp(2 pi i k.x) as pi (i k_x + k_y)
    and d/dzbar as pi (i k_x - k_y).
    """
    f = np.asarray(f, dtype=float)
    n, N = f.ndim // 2, f.shape[0]
    k = np.fft.fftfreq(N, d=1.0 / N)
    k[N // 2] = 0.0  # the Nyquist bin is dropped from derivatives

    def axis(a):
        shape = [1] * f.ndim
        shape[a] = N
        return k.reshape(shape)

    F = np.fft.fftn(f - f.mean())
    dz = [np.pi * (1j * axis(2 * j) + axis(2 * j + 1)) for j in range(n)]
    dzbar = [np.pi * (1j * axis(2 * j) - axis(2 * j + 1)) for j in range(n)]
    H = np.empty(f.shape + (n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            H[..., i, j] = np.fft.ifftn(F * dz[i] * dzbar[j])
    return H


def det(M: np.ndarray) -> np.ndarray:
    """Real part of the determinant of stacked Hermitian n x n matrices, n <= 3."""
    n = M.shape[-1]
    if n == 1:
        d = M[..., 0, 0]
    elif n == 2:
        d = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    elif n == 3:
        d = (M[..., 0, 0] * (M[..., 1, 1] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 1])
             - M[..., 0, 1] * (M[..., 1, 0] * M[..., 2, 2] - M[..., 1, 2] * M[..., 2, 0])
             + M[..., 0, 2] * (M[..., 1, 0] * M[..., 2, 1] - M[..., 1, 1] * M[..., 2, 0]))
    else:
        raise ValueError(f"det supports n <= 3, got {n}")
    return d.real


def mixed_determinant(A: np.ndarray, B: np.ndarray, k: int) -> np.ndarray:
    """Coefficient of t^k in det(t A + B): k columns from A, the rest from B."""
    n = A.shape[-1]
    total = 0.0
    for cols in itertools.combinations(range(n), k):
        M = B.copy()
        M[..., :, list(cols)] = A[..., :, list(cols)]
        total = total + det(M)
    return total


def frobenius_sup(H: np.ndarray) -> float:
    """sup over the grid of the pointwise Frobenius norm (bounds every eigenvalue)."""
    return float(np.sqrt((np.abs(H) ** 2).sum(axis=(-2, -1))).max())


def _exceeds(err, bound) -> bool:
    return not (err <= bound)


# -- ma-solve ------------------------------------------------------------------


def ma_solution(v: np.ndarray, v_star: np.ndarray, tol: float) -> list:
    """v solves log det(I + Hess v) - v = F with F built from v*."""
    problems = []
    n = v_star.ndim // 2
    eye = np.eye(n)
    F = np.log(det(eye + complex_hessian(v_star))) - v_star
    err = float(np.max(np.abs(v - v_star)))
    if _exceeds(err, 1e3 * tol):
        problems.append(f"sup|v - v*| = {err:.3e} > {1e3 * tol:.1e}")
    with np.errstate(invalid="ignore"):
        resid = np.log(det(eye + complex_hessian(v))) - v - F
    res = float(np.max(np.abs(resid)))
    if _exceeds(res, 10.0 * tol):
        problems.append(f"MA residual {res:.3e} > {10.0 * tol:.1e}")
    return problems


# -- path-collapse ---------------------------------------------------------------


class TorusReference:
    """Independent view of the reference metric g = I + Hess psi."""

    def __init__(self, psi: np.ndarray, eps0: float):
        self.n = psi.ndim // 2
        self.g = np.eye(self.n) + complex_hessian(psi)
        self.det_g = det(self.g)
        self.volume = float(self.det_g.mean())
        ratio = det(eps0 * self.g + complex_hessian(np.log(self.det_g))) / self.det_g
        self.log_c = float(np.log(ratio.max()))

    def g_eps(self, eps: float, v: np.ndarray) -> np.ndarray:
        return eps * self.g + complex_hessian(v)


def path_state(ref: TorusReference, state) -> list:
    """One solved continuity state: ceiling, volume law and Ricci identity."""
    problems = []
    eps, n = state.epsilon, ref.n
    u = -np.log(ref.det_g) + state.v
    sup_u = float(u.max())
    if _exceeds(sup_u, ref.log_c + 1e-9):
        problems.append(f"eps={eps:g}: sup u {sup_u:.12g} > log C {ref.log_c:.12g}")
    if _exceeds(abs(sup_u - state.sup_u), 1e-9):
        problems.append(f"eps={eps:g}: reported sup u {state.sup_u!r} != {sup_u!r}")
    if _exceeds(abs(ref.log_c - state.log_c_bound), 1e-9):
        problems.append(f"eps={eps:g}: reported log C {state.log_c_bound!r} != {ref.log_c!r}")
    g_eps = ref.g_eps(eps, state.v)
    det_eps = det(g_eps)
    vol_err = abs(float(det_eps.mean()) - eps**n * ref.volume)
    if _exceeds(vol_err, 1e-8):
        problems.append(f"eps={eps:g}: volume law off by {vol_err:.3e}")
    with np.errstate(invalid="ignore"):
        ric = -complex_hessian(np.log(det_eps))
    ricci = float(np.max(np.abs(ric + g_eps - eps * ref.g)))
    if _exceeds(ricci, 1e-6):
        problems.append(f"eps={eps:g}: Ricci identity residual {ricci:.3e} > 1e-6")
    if _exceeds(state.ricci_residual_sup, 1e-6):
        problems.append(f"eps={eps:g}: reported Ricci residual "
                        f"{state.ricci_residual_sup:.3e} > 1e-6")
    return problems


def path_reports(ref: TorusReference, states, expansion, nef, kappa0: float,
                 bigness) -> list:
    """Path-level outputs: eps-expansion, nef floors, kappa_0 and bigness."""
    problems = []
    n = ref.n
    coeffs = expansion.coefficients
    for k in range(n):
        if _exceeds(abs(coeffs[k]), 1e-8):
            problems.append(f"expansion c_{k} = {coeffs[k]:.3e}, expected 0")
    if _exceeds(abs(coeffs[n] - ref.volume), 1e-8):
        problems.append(f"expansion c_{n} = {coeffs[n]!r}, expected vol {ref.volume!r}")
    # A torus has trivial canonical bundle, so by the paper's theorem it
    # carries no metric of negative holomorphic sectional curvature.
    if _exceeds(kappa0, 0.0):
        problems.append(f"kappa_0 = {kappa0!r} > 0 on a torus")
    if bigness.applicable:
        problems.append("bigness report applicable although kappa_0 <= 0")
    if len(nef) != n * len(states):
        problems.append(f"{len(nef)} nef reports for {len(states)} states")
        return problems
    ceiling = math.exp(ref.log_c)
    for j, state in enumerate(states):
        g_eps = ref.g_eps(state.epsilon, state.v)
        top = float(det(g_eps).mean())
        for k in range(1, n + 1):
            report = nef[j * n + k - 1]
            lhs = float(mixed_determinant(g_eps, ref.g.astype(complex), k).mean())
            lhs /= math.comb(n, k)
            if _exceeds(abs(report.lhs - lhs), 1e-9 * max(1.0, abs(lhs))):
                problems.append(f"eps={state.epsilon:g} k={k}: wedge integral "
                                f"{report.lhs!r} != {lhs!r}")
            floor = ceiling ** (k / n - 1.0) * top
            if _exceeds(floor - lhs, 1e-8):
                problems.append(f"eps={state.epsilon:g} k={k}: nef floor violated "
                                f"({lhs!r} < {floor!r})")
    return problems


def reloaded_state(saved, loaded) -> list:
    problems = []
    if not np.array_equal(saved.v, loaded.v):
        problems.append("reloaded v differs from the saved v")
    for name in ("epsilon", "sup_u", "log_c_bound", "ricci_residual_sup"):
        a, b = getattr(saved, name), getattr(loaded, name)
        if _exceeds(abs(a - b), 1e-12 * max(1.0, abs(a))):
            problems.append(f"reloaded {name} {b!r} != saved {a!r}")
    return problems


# -- curvature-screen -------------------------------------------------------------


def hsc_values(R: np.ndarray, g: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """H(eta) = R(eta, etabar, eta, etabar) / |eta|_g^4 for a batch of directions."""
    ce = np.conj(etas)
    q = np.einsum("ijkl,bi,bj,bk,bl->b", R, etas, ce, etas, ce, optimize=True).real
    norm2 = np.einsum("ij,bi,bj->b", g, etas, ce).real
    return q / norm2**2


def random_directions(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


def extremes(R: np.ndarray, g: np.ndarray, ext, directions: np.ndarray,
             tol: float) -> list:
    """No sampled direction beats the reported extremes, and both are attained."""
    problems = []
    scale = max(1.0, abs(ext.h_min), abs(ext.h_max))
    h = hsc_values(R, g, directions)
    attained = hsc_values(R, g, np.stack([ext.eta_min, ext.eta_max])).tolist()
    h_hi, h_lo = float(h.max()), float(h.min())
    if _exceeds(h_hi, ext.h_max + tol * scale):
        problems.append(f"sampled H {h_hi!r} beats h_max {ext.h_max!r}")
    if _exceeds(ext.h_min - tol * scale, h_lo):
        problems.append(f"sampled H {h_lo!r} beats h_min {ext.h_min!r}")
    if _exceeds(abs(attained[0] - ext.h_min), tol * scale):
        problems.append(f"H(eta_min) = {attained[0]!r} != h_min {ext.h_min!r}")
    if _exceeds(abs(attained[1] - ext.h_max), tol * scale):
        problems.append(f"H(eta_max) = {attained[1]!r} != h_max {ext.h_max!r}")
    return problems


def closed_form(ext, h_min: float, h_max: float, tol: float = 1e-7) -> list:
    problems = []
    for name, got, want in (("h_min", ext.h_min, h_min), ("h_max", ext.h_max, h_max)):
        if _exceeds(abs(got - want), tol * max(1.0, abs(want))):
            problems.append(f"{name} {got!r} != closed form {want!r}")
    return problems


def kahler_tensors(rng: np.random.Generator, n: int, batch: tuple) -> np.ndarray:
    """Gaussian tensors averaged over the Kahler curvature symmetries."""
    shape = batch + (n,) * 4
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sym = raw + np.swapaxes(raw, -4, -2)
    sym = sym + np.swapaxes(sym, -3, -1)
    return (sym + np.conj(np.swapaxes(np.swapaxes(sym, -4, -3), -2, -1))) / 8.0


def model_tensor(g: np.ndarray, c) -> np.ndarray:
    """R with H identically c for g: (c/2)(g_ij g_kl + g_il g_kj), batched."""
    c = np.asarray(c)[..., None, None, None, None]
    return (c / 2.0) * (np.einsum("...ij,...kl->...ijkl", g, g)
                        + np.einsum("...il,...kj->...ijkl", g, g))


def change_frame(R: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Tensor in the coordinates eta = P xi: unbarred slots take P, barred conj(P)."""
    cP = np.conj(P)
    return np.einsum("...ijkl,...ia,...jb,...kc,...ld->...abcd", R, P, cP, P, cP,
                     optimize=True)


def royden(report) -> list:
    if _exceeds(-1e-9, report.margin):
        return [f"Royden margin {report.margin!r} < -1e-9"]
    return []


def schwarz_polydisk(report, scale: float) -> list:
    """Schwarz conclusion with omega' = omega on the scale-s bidisk (n = 2).

    S = tr_omega omega = n is constant, so Delta' log S = 0; with
    kappa = 1/s and lam = 2/s the right side is (3/4)(2/s) - 2/s = -1/(2s).
    """
    problems = []
    if report.status != "pass":
        problems.append(f"Schwarz conclusion {report.status}: {report.note}")
    if _exceeds(abs(report.lhs), 1e-6):
        problems.append(f"Delta' log S = {report.lhs!r}, expected 0")
    if _exceeds(abs(report.rhs + 0.5 / scale), 1e-9):
        problems.append(f"Schwarz right side {report.rhs!r} != {-0.5 / scale!r}")
    return problems


# -- chart metrics in closed form, curvature by finite differences --------------


def disk_metric(scale: float):
    """Poincare disk (one coordinate) or polydisk: diag(s / (1 - |z_i|^2)^2)."""

    def g(z):
        return np.diag(scale / (1.0 - np.abs(z) ** 2) ** 2).astype(complex)
    return g


def fubini_study_metric(z):
    rho = 1.0 + float(np.vdot(z, z).real)
    return np.eye(z.size) / rho - np.outer(np.conj(z), z) / rho**2


def fermat_metric(degree: int):
    """Pullback of Fubini-Study on C^3 by z -> (z1, z2, h(z)),
    h = alpha (1 + z1^d + z2^d)^(1/d), alpha = exp(i pi / d)."""
    alpha = np.exp(1j * np.pi / degree)

    def g(z):
        base = 1.0 + z[0] ** degree + z[1] ** degree
        h = alpha * base ** (1.0 / degree)
        dh = alpha * base ** (1.0 / degree - 1.0) * z ** (degree - 1)
        J = np.array([[1.0, 0.0], [0.0, 1.0], [dh[0], dh[1]]], dtype=complex)
        return J.T @ fubini_study_metric(np.array([z[0], z[1], h])) @ np.conj(J)
    return g


def fd_curvature(metric, z: np.ndarray, h: float = 1e-3):
    """(R, g) at z from central differences of g, Richardson-extrapolated."""
    z = np.asarray(z, dtype=complex)
    n = z.size
    x0 = np.empty(2 * n)
    x0[0::2], x0[1::2] = z.real, z.imag

    def at(x):
        return metric(x[0::2] + 1j * x[1::2])

    def derivatives(step):
        m = 2 * n
        basis = np.eye(m) * step
        g0 = at(x0)
        first = [(at(x0 + e) - at(x0 - e)) / (2 * step) for e in basis]
        second = np.empty((m, m, n, n), dtype=complex)
        for a in range(m):
            second[a, a] = (at(x0 + basis[a]) - 2 * g0 + at(x0 - basis[a])) / step**2
            for b in range(a + 1, m):
                ea, eb = basis[a], basis[b]
                val = (at(x0 + ea + eb) - at(x0 + ea - eb)
                       - at(x0 - ea + eb) + at(x0 - ea - eb)) / (4 * step**2)
                second[a, b] = second[b, a] = val
        return np.array(first), second

    f1, s1 = derivatives(h)
    f2, s2 = derivatives(h / 2)
    first = (4 * f2 - f1) / 3
    second = (4 * s2 - s1) / 3
    g = at(x0)
    dg = np.empty((n, n, n), dtype=complex)
    ddg = np.empty((n, n, n, n), dtype=complex)
    for k in range(n):
        xk, yk = 2 * k, 2 * k + 1
        dg[:, :, k] = (first[xk] - 1j * first[yk]) / 2
        for l in range(n):
            xl, yl = 2 * l, 2 * l + 1
            ddg[:, :, k, l] = (second[xk, xl] + 1j * second[xk, yl]
                               - 1j * second[yk, xl] + second[yk, yl]) / 4
    G = np.conj(_inv(g))
    R = -ddg + np.einsum("pq,iqk,jpl->ijkl", G, dg, np.conj(dg))
    return R, g
