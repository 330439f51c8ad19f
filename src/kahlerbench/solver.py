"""Monge-Ampère solves and the shrinking-coefficient continuity path.

The discrete problem on a torus grid is

    log det(alpha + Hess v) - v - F = 0

for a real potential v, where alpha is a positive coefficient form, Hess is
the spectral complex Hessian and F is the datum.  Newton's method
linearizes to (Delta_M - 1) delta = -residual with
Delta_M = trace(M^{-1} Hess .), solved by _bicgstab (scipy's BiCGSTAB
iteration on grid-shaped fields, with einsum's reductions, not BLAS) with
a trace-scaled flat preconditioner: with s = tr(M^{-1})/n, Delta_M - 1 is
close to s (Delta - 1/s) for the flat Laplacian Delta, so
f -> (Delta - sigma)^{-1}(f/s), sigma = mean(1/s), undoes the pointwise
variation of tr M^{-1} and costs one Fourier-diagonal solve.  The Krylov
forcing is residual-scaled, rtol = max(1e-10, min(0.5, |r|_inf)), which
keeps the Newton tail q-quadratic (Dembo, Eisenstat & Steihaug, SIAM J.
Numer. Anal. 19, 1982).  Steps are safeguarded by a backtracking line
search that never leaves the positive cone, and every iterate is
volume-normalized: shifted by the one constant that makes
mean det(alpha + Hess v) = mean e^{v+F}.  The Newton loop runs on real
components: alpha (held so by MAProblem) and each candidate
M = alpha + Hess v are (n*n, ...) fields in linalg's component layout (the
rows of TorusGrid.hessian_components), and det M, the positivity check and
the trace weights of M^{-1} are linalg's closed forms on them, so no step
or line-search trial inverts a Hermitian matrix, and at n <= 2 none
assembles one (at n = 3 the positivity check does, a slab of points at a
time, for LAPACK's eigenvalues).  The Krylov solve holds the trace weights
w of M, not M, and takes P q and its image in one call, from P's half
spectrum one traceless Hessian row at a time (_solve_linearized).

The continuity path solves the family (alpha = eps g, F = 0)

    det(eps g + Hess v_eps) = e^{v_eps},

downward in eps, each state started from the path's own eps-series: with
v = n log eps + eps (u - psi), omega_eps / eps = I + Hess u and
u = sum_k eps^k u_k, one Fourier-diagonal solve per order (path_series), so
Newton only verifies and polishes.  As eps -> 0, u tends to a constant:
omega_eps / eps tends to the flat metric, Yau's solution on a torus (Comm.
Pure Appl. Math. 31, 1978).  It solves first and diagnoses after: only
once every state has converged does make_state turn each (eps, v) into a
state, its eps and v with scalar diagnostics: the sup of
v - log det g = log sigma_n against the volume-ratio ceiling, the Ricci
identity residual, relative eigenvalue range, the top of the trace field
S_eps, and the wedge integrals of omega_eps^k wedge omega^{n-k}.  A path
that fails diagnoses nothing.  The Ricci residual is Hess(v - log det g_eps),
from (eps, v); the others read g_eps = eps g + Hess v as components, formed
once, with linalg's closed forms behind every det, trace and mixed determinant.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence, PositivityLoss
from .fields import TorusMetricField
from .grids import TorusGrid
from .integrals import wedge_integrals
from .linalg import (component_det, relative_eigenvalues_field, require_positive,
                     trace_s_field, trace_weights)
from .linalg import component_positivity as _positivity

LINE_SEARCH_HALVINGS = 30
MAX_NEWTON_STEPS = 50
MAX_SERIES_ORDER = 16


@dataclass
class MAProblem:
    """One Monge-Ampère problem instance on a torus grid.

    alpha is given and held as its n*n real components, (n*n,) + grid shape
    in linalg's layout (linalg.components of a Hermitian field), which the
    Newton loop reads as they are.  Any other shape, or a complex array,
    raises DimensionMismatch before anything is cast.
    """

    grid: TorusGrid
    alpha: np.ndarray
    datum: np.ndarray

    def __post_init__(self):
        alpha, want = np.asarray(self.alpha), (self.grid.n**2,) + self.grid.shape
        if alpha.shape != want or np.iscomplexobj(alpha):
            raise DimensionMismatch(f"alpha must be real components of shape {want}, "
                                    f"got {alpha.dtype} {alpha.shape}")
        self.alpha = np.asarray(alpha, dtype=float)
        self.datum = np.asarray(self.datum, dtype=float)
        if self.datum.shape != self.grid.shape:
            raise DimensionMismatch(
                f"datum shape {self.datum.shape} != grid {self.grid.shape}"
            )


def _positive_det(M: np.ndarray) -> np.ndarray:
    """det M over the grid, M given by its components; PositivityLoss where it
    is not positive."""
    d = component_det(M)
    if np.any(d <= 0.0):
        worst = np.unravel_index(np.argmin(d), d.shape)
        raise PositivityLoss(
            f"candidate metric degenerate at grid index {worst}", point=worst
        )
    return d


def ma_log_residual(problem: MAProblem, v: np.ndarray) -> np.ndarray:
    """Forward evaluation of the log-form operator at v."""
    M = problem.grid.hessian_components(v)
    M += problem.alpha
    return np.log(_positive_det(M)) - v - problem.datum


def _volume_normalized(problem: MAProblem, v: np.ndarray, M: np.ndarray) -> tuple:
    """(v + c, r - c), r the residual at v and c = log(mean det M / mean e^(v+F)),
    M = alpha + Hess v given by its components.

    mean det(alpha + Hess v) does not depend on v (it is the discrete
    cohomology volume), so c sets the one constant the equation fixes: after
    the shift the discrete volume identity mean det M = mean e^(v+F) holds to
    rounding.  The exponential is taken after subtracting max(v + F).
    """
    d = _positive_det(M)
    vf = v + problem.datum
    top = vf.max()
    c = np.log(np.mean(d)) - top - np.log(np.mean(np.exp(vf - top)))
    return v + c, np.log(d) - v - problem.datum - c


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum a*b over two fields of one shape by einsum's own loop, not BLAS: no
    thread pool wakes, and the sum does not depend on the host's thread count."""
    return np.einsum("i,i->", a.ravel(), b.ravel())


def _norm(a: np.ndarray) -> float:
    return np.sqrt(_dot(a, a))  # numpy.linalg.norm's formula


def _operator(grid: TorusGrid, w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(Delta_M - 1) f by the direct route, w the trace weights of M: the
    Hessian rows of f weighted and summed in row order, less f, bit for bit
    einsum's sum over hessian_components(f)."""
    rows = grid.hessian_rows(grid.rfft(f - np.mean(f)))  # mean out for round-off
    return sum(wk * row for wk, row in zip(w, rows)) - f


def _bicgstab(apply, b: np.ndarray, rtol: float, maxiter: int) -> tuple:
    """(x, info) for A x = b by BiCGSTAB (van der Vorst, SIAM J. Sci. Stat.
    Comput. 13, 1992), right-preconditioned by P on grid-shaped fields, with
    apply(q) = (P q, A P q): scipy 1.17's bicgstab operation for operation,
    its np.dot and np.linalg.norm read as _dot and _norm.  x starts at 0, the
    shadow residual is b, rho and omega break down below eps^2, and the stop
    is |r| < rtol |b|; info is 0, maxiter when the iterations run out, -10 or
    -11 on a rho or an omega breakdown.  Updates run in place through one
    scratch field; r doubles as scipy's s, its copy until s's last use.
    """
    bnorm = _norm(b)
    if bnorm == 0:
        return b.copy(), 0
    atol, tiny = float(rtol) * float(bnorm), np.finfo(float).eps ** 2
    x, r, tmp = np.zeros(b.shape), b.copy(), np.empty(b.shape)
    for iteration in range(maxiter):
        if _norm(r) < atol:
            return x, 0
        rho = _dot(b, r)
        if np.abs(rho) < tiny:
            return x, -10
        if iteration == 0:
            p = r.copy()
        else:
            if np.abs(omega) < tiny:
                return x, -11
            beta = (rho / rho_prev) * (alpha / omega)
            p -= np.multiply(omega, v, out=tmp)
            p *= beta
            p += r
            del v  # read last by p's update: no dead vector outlives an apply
        phat, v = apply(p)
        rv = _dot(b, v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= np.multiply(alpha, v, out=tmp)
        x += np.multiply(alpha, phat, out=tmp)
        del phat
        if _norm(r) < atol:
            return x, 0
        shat, t = apply(r)
        omega = _dot(t, r) / _dot(t, t)
        x += np.multiply(omega, shat, out=tmp)
        r -= np.multiply(omega, t, out=tmp)
        del shat, t
        rho_prev = rho
    return x, maxiter


def _solve_linearized(grid: TorusGrid, w: np.ndarray, rhs: np.ndarray,
                      rtol: float) -> tuple:
    """Solve (Delta_M - 1) delta = rhs (read, not written) by _bicgstab to
    rtol in at most 500 iterations, w the trace weights of M.

    The right preconditioner P q = (Delta - sigma)^{-1} (q / s), with
    s = tr(M^{-1})/n and sigma = mean(1/s), inverts s (Delta - 1/s), the flat
    part of Delta_M - 1 with its pointwise trace kept (Concus & Golub 1973),
    exactly for constant s.  As s Delta q^ = q + s sigma q^ on every bin for
    q^ = P q, M^{-1} = s I + A with A traceless gives
    (Delta_M - 1) q^ = q + (s sigma - 1) q^ + tr(A Hess q^): apply(q) takes
    q^ and the n*n - 1 traceless rows (H_ii - H_nn, weight w_ii - s, and the
    off-diagonal rows) from P's half spectrum, one rfft and n*n irffts.  A
    nonzero info is accepted when the true relative residual, by _operator,
    is at most 1e-6 (breakdown near the rounding floor), else NonConvergence
    names both.  Returns (delta, matvecs), matvecs the applications of
    Delta_M - 1.
    """
    n, m = grid.n, grid.hessian_multipliers
    s = w[:: n + 1].sum(axis=0) / n
    inv_s = 1.0 / s
    sigma = float(inv_s.mean())
    mult, shift = 1.0 / (grid.flat_laplacian_multiplier - sigma), s * sigma - 1.0
    traceless = [(m[k] - m[-1], w[k] - s) for k in range(0, n * n - 1, n + 1)]
    traceless += [(m[k], w[k]) for k in range(n * n) if k % (n + 1)]
    spectrum, matvecs = np.empty(mult.shape, dtype=complex), 0
    del s

    def apply(q):
        nonlocal matvecs
        matvecs += 1
        Q = grid.rfft(q * inv_s)
        Q *= mult
        out = q.copy()
        for mk, wk in traceless:  # before irfft(Q), which may overwrite Q
            row = grid.irfft(np.multiply(Q, mk, out=spectrum))
            row *= wk
            out += row
        qhat = grid.irfft(Q)
        del Q
        out += np.multiply(shift, qhat)
        return qhat, out

    delta, info = _bicgstab(apply, rhs, rtol, maxiter=500)
    if info != 0:
        matvecs += 1
        achieved = _norm(_operator(grid, w, delta) - rhs) / max(_norm(rhs), 1e-300)
        if achieved > 1e-6:
            raise NonConvergence(
                f"Krylov solve failed (info={info}, rel residual {achieved:.2e})"
            )
    return delta, matvecs


def solve_ma(problem: MAProblem, tol: float = 1e-10, v0: np.ndarray = None,
             return_info: bool = False):
    """Newton solve of the Monge-Ampère problem to sup-norm tolerance.

    Each step solves the linearization to the Krylov forcing
    rtol = max(1e-10, min(0.5, res)), res the sup-norm residual, and every
    iterate (v0 and each line-search trial) is volume-normalized by
    _volume_normalized, so the returned v satisfies the discrete volume
    identity to rounding.  alpha is read as the problem holds it, as real
    components (linalg's layout), and each candidate M = alpha + Hess v is
    carried so too; no complex alpha is made.  A cold start (v0 None) takes
    M = alpha, copied, with no transform.

    Returns the potential v, and with return_info also an info dict: the
    residual history, and per Newton step (aligned with residual_history[1:])
    the Krylov forcing rtol and the number of Krylov matvecs.  Raises
    PositivityLoss if the initial candidate leaves the positive cone,
    NonConvergence if the residual cannot be brought below tol in
    MAX_NEWTON_STEPS steps.  The returned v is re-verified by an
    independent forward evaluation after the iteration.
    """
    grid = problem.grid
    v = np.zeros(grid.shape) if v0 is None else np.array(v0, dtype=float)
    if v.shape != grid.shape:
        raise DimensionMismatch(f"v0 shape {v.shape} != grid {grid.shape}")

    t0 = time.perf_counter()
    history, forcing, matvecs = [], [], []
    alpha = problem.alpha
    if v0 is None:  # Hess 0 is +0.0, so M = alpha bit for bit
        M = np.array(alpha)
    else:
        M = grid.hessian_components(v)
        M += alpha
    require_positive(M, "initial candidate")
    v, r = _volume_normalized(problem, v, M)
    res = float(np.max(np.abs(r)))
    history.append(res)

    steps = 0
    while res > tol:
        if steps >= MAX_NEWTON_STEPS:
            raise NonConvergence(
                f"Newton stalled at residual {res:.3e} after {steps} steps",
                residual=res, steps=steps,
            )
        rtol = max(1e-10, min(0.5, res))
        weights = trace_weights(M)
        M = M_try = None  # the Krylov solve reads only the weights
        # r is not read again before the line search replaces it
        delta, step_matvecs = _solve_linearized(grid, weights, np.negative(r, out=r), rtol)
        del weights

        t, accepted, any_positive = 1.0, False, False
        worst_pt, worst_eig = None, None
        for _ in range(LINE_SEARCH_HALVINGS + 1):
            v_try = v + t * delta
            if np.array_equal(v_try, v):
                # a shorter step rounds to v as well: the search has stalled,
                # and v, its trial, is positive
                any_positive = True
                break
            M_try = grid.hessian_components(v_try)
            M_try += alpha
            ok, pt, w = _positivity(M_try)
            if not ok:
                worst_pt, worst_eig = pt, float(w[0])
                t *= 0.5
                continue
            any_positive = True
            v_try, r_try = _volume_normalized(problem, v_try, M_try)
            res_try = float(np.max(np.abs(r_try)))
            if res_try < res:
                v, M, r, res = v_try, M_try, r_try, res_try
                accepted = True
                break
            t *= 0.5
        if not accepted:
            if not any_positive:
                raise PositivityLoss(
                    f"line search could not restore positivity (grid index {worst_pt})",
                    point=worst_pt, min_eigenvalue=worst_eig,
                )
            raise NonConvergence(
                f"line search stalled at residual {res:.3e}", residual=res, steps=steps
            )
        steps += 1
        history.append(res)
        forcing.append(rtol)
        matvecs.append(step_matvecs)

    final = float(np.max(np.abs(ma_log_residual(problem, v))))
    if final > tol:
        raise NonConvergence(
            f"post-solve verification failed: residual {final:.3e} > tol {tol:.1e}",
            residual=final, steps=steps,
        )
    if return_info:
        info = {
            "residual_history": history,
            "final_residual": final,
            "newton_steps": steps,
            "forcing": forcing,
            "krylov_matvecs": matvecs,
            "seconds": time.perf_counter() - t0,
        }
        return v, info
    return v


def manufactured_problem(grid: TorusGrid, v_star: np.ndarray) -> MAProblem:
    """Problem whose exact solution is the supplied potential (flat data).

    Sets alpha = identity, held as a read-only broadcast of its components,
    and F = log det(I + Hess v*) - v*, so the solve must recover v* up to
    solver tolerance.  I + Hess v* is held to linalg.require_positive.  det
    is the solver's own component_det, so a test that must catch a fault in
    the kernels forms F by another route.
    """
    n = grid.n
    M = grid.hessian_components(v_star)
    M[:: n + 1] += 1.0
    require_positive(M, "manufactured metric I + Hess v*")
    d = component_det(M)
    eye = np.broadcast_to(np.eye(n).reshape((n * n,) + (1,) * (2 * n)), (n * n,) + grid.shape)
    return MAProblem(grid, eye, np.log(d) - v_star)


# -- continuity path ---------------------------------------------------------


@dataclass
class ContinuityState:
    """A solved state of det(eps g + Hess v) = e^v: v, scalars, W_k for k = 0..n.

    The one list of a state's fields: io's sidecar holds every field but v,
    and the CLI's series.csv every scalar one.
    """

    epsilon: float
    v: np.ndarray
    sup_u: float
    log_c_bound: float
    ricci_residual_sup: float
    rel_eig_min: float
    rel_eig_max: float
    s_max: float
    wedge_integrals: tuple
    newton_steps: int = 0
    krylov_matvecs: int = 0


def volume_ratio_ceiling(omega: TorusMetricField, eps0: float) -> float:
    """log C with C = sup det(eps0 g + Hess log det g) / det g.

    The path invariant sup u_eps <= log C holds for every eps < eps0.  The
    matrix is eps0 I + Hess(eps0 psi + log det g), psi omega's potential.
    """
    M = omega.grid.hessian_components(eps0 * omega.psi + omega.log_det_g)
    M[:: omega.n + 1] += eps0
    ratio = component_det(M) / omega.det_g
    top = float(ratio.max())
    if top <= 0.0:
        raise PositivityLoss("volume-ratio ceiling degenerate: sup ratio <= 0")
    return float(np.log(top))


def make_state(omega: TorusMetricField, epsilon: float, v: np.ndarray,
               log_c: float, newton_steps: int = 0,
               krylov_matvecs: int = 0) -> ContinuityState:
    """Diagnose one solved state of the path from (epsilon, v).

    The components of g_eps are formed once for the eigenvalue, trace and
    wedge diagnostics and not kept; sup u is taken from u = v - log det g,
    and the Ricci residual from (eps, v) by ricci_residual_dealiased.
    """
    g_eps = epsilon * omega.g + omega.grid.hessian_components(v)
    lam = relative_eigenvalues_field(omega.g, g_eps)
    return ContinuityState(
        epsilon=float(epsilon),
        v=v,
        sup_u=float((v - omega.log_det_g).max()),
        log_c_bound=log_c,
        ricci_residual_sup=ricci_residual_dealiased(omega, epsilon, v),
        rel_eig_min=float(lam.min()),
        rel_eig_max=float(lam.max()),
        s_max=float(trace_s_field(omega.g, g_eps).max()),
        wedge_integrals=wedge_integrals(g_eps, omega.g),
        newton_steps=newton_steps,
        krylov_matvecs=krylov_matvecs,
    )


class _Series:
    """A power series in eps with no constant term: coef(m), m >= 1, makes
    its coefficient of eps^m on demand.  + and - act termwise, a number
    scales it, and * is the Cauchy product, so linalg's component closed
    forms build series from series.  A factor of a product keeps each
    coefficient once made, as the product reads it again at every higher
    order; coefficient m of a product reads its factors' below m only."""

    def __init__(self, coef):
        self._coef, self._kept = coef, None

    def coef(self, m):
        if self._kept is None:
            return self._coef(m)
        if m not in self._kept:
            self._kept[m] = self._coef(m)
        return self._kept[m]

    def __add__(self, other):
        return _Series(lambda m: self.coef(m) + other.coef(m))

    def __sub__(self, other):
        return _Series(lambda m: self.coef(m) - other.coef(m))

    def __rmul__(self, scale):
        return _Series(lambda m: scale * self.coef(m))

    def __mul__(self, other):
        for factor in (self, other):
            if factor._kept is None:
                factor._kept = {}
        return _Series(lambda m: sum(self.coef(i) * other.coef(m - i) for i in range(1, m)))


def path_series(omega: TorusMetricField, epsilon: float, tol: float) -> list:
    """The coefficients u_0..u_K of u = sum_k eps^k u_k, the potential of the
    rescaled path metric omega_eps / eps = I + Hess u, for eps <= epsilon.

    With v = n log eps + eps (u - psi) the path equation becomes
    log det(I + Hess u) = eps (u - psi), and order k of it reads
    Delta u_k = u_{k-1} - [k = 1] psi - N_k, where N_k is order k of
    log det(I + H) less tr H_k, H = sum_j eps^j H_j and H_j = Hess u_j.
    det(I + H) = 1 + tr H + the principal minors of H of orders 2..n, each
    component_det on series, whose order k reads H_1..H_{k-1} only; the log
    follows from L_k = P_k - (1/k) sum_{j<k} j L_j P_{k-j}, P_k order k of
    det(I + H) - 1.  Delta is Fourier-diagonal, and zero on the modes Hess
    kills: the constant and every mode whose wavenumber is Nyquist or zero
    on each axis.  The solvability of order k + 1 fixes u_k on all of them
    (u_0 is psi's part there); u_K keeps them zero.  K is the first order
    whose term epsilon^(K+1) sup|u_K| in v is below tol / 10 (the start's
    residual is the next order's right-hand side, up to twice that term),
    and at most MAX_SERIES_ORDER.  A term that does not shrink below the
    one before says that epsilon lies outside the series' radius (about
    pi^2, the first flat eigenvalue): the series then ends before that
    earlier term, at order 0 when it is the first.
    """
    grid, n = omega.grid, omega.n
    lap = grid.flat_laplacian_multiplier
    null = lap == 0.0
    inverse = np.divide(1.0, lap, out=np.zeros(lap.shape), where=~null)
    H = [[] for _ in range(n * n)]  # H[r][j - 1]: component r of H_j
    leaves = [_Series(lambda m, h=h: h[m - 1]) for h in H]
    minors = [component_det([leaves[i * n + j] for i in S for j in S])
              for m in range(2, n + 1) for S in itertools.combinations(range(n), m)]
    P, L, u, last = [], [], [np.zeros(grid.shape)], None
    for k in range(1, MAX_SERIES_ORDER + 1):
        p = sum(minor.coef(k) for minor in minors)  # P_k less tr H_k
        log_k = p - sum(j * L[j - 1] * P[k - j - 1] for j in range(1, k)) / k
        rhs = grid.rfft(u[-1] - log_k - (omega.psi if k == 1 else 0.0))
        u[-1] = u[-1] - grid.irfft(rhs * null)  # solvability of order k
        rhs *= inverse
        h = grid.hessian_of_spectrum(rhs)
        u.append(grid.irfft(rhs))
        term = epsilon**k * float(np.abs(u[-1]).max())
        if k > 1 and term >= last:  # outside the radius at epsilon
            return u[:-2]
        if epsilon * term < 0.1 * tol:
            break
        last = term
        trace = h[:: n + 1].sum(axis=0)
        P.append(p + trace)
        L.append(log_k + trace)
        for r in range(n * n):
            H[r].append(h[r])
    return u


def continuity_path(omega: TorusMetricField, epsilons, tol: float = 1e-10) -> list:
    """Solve the family along a strictly decreasing positive eps schedule,
    then diagnose every state.

    Non-finite eps raise ValueError.  Starts each solve from the path's
    eps-series, built once:
    v0 = n log eps + eps (u_K(eps) - psi) with u_K = sum_k eps^k u_k from
    path_series, so Newton verifies and polishes.  Each solve keeps only
    (eps, v, Newton steps, matvecs); make_state runs once per state after
    the last one has converged, so a path that fails diagnoses nothing.
    Failures, of a solve or of a state's diagnosis, propagate annotated with
    the offending eps; no states are returned partially.
    """
    eps = [float(e) for e in epsilons]
    if not eps or not all(0.0 < e < np.inf for e in eps):
        raise ValueError("eps schedule must be positive and finite")
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("eps schedule must be strictly decreasing")

    grid = omega.grid
    zero = np.zeros(grid.shape)
    series = path_series(omega, eps[0], tol)
    solved = []
    for e in eps:
        u = series[-1]
        for c in reversed(series[:-1]):
            u = c + e * u
        v0 = grid.n * np.log(e) + e * (u - omega.psi)
        problem = MAProblem(grid, e * omega.g, zero)
        try:
            v, info = solve_ma(problem, tol=tol, v0=v0, return_info=True)
        except (PositivityLoss, NonConvergence) as err:
            err.epsilon = e
            raise
        solved.append((e, v, info["newton_steps"], sum(info["krylov_matvecs"])))

    log_c = volume_ratio_ceiling(omega, eps[0])
    states = []
    for e, v, steps, matvecs in solved:
        try:
            states.append(make_state(omega, e, v, log_c, newton_steps=steps,
                                     krylov_matvecs=matvecs))
        except PositivityLoss as err:
            err.epsilon = e
            raise
    return states


def ricci_residual_dealiased(omega: TorusMetricField, epsilon: float, v: np.ndarray) -> float:
    """Ricci identity residual with the determinant evaluated dealiased:
    sup |Hess(v - log det omega_eps)| = sup |Ric(omega_eps) + omega_eps -
    eps*omega|, omega_eps = eps*g + Hess v, one Hessian of the difference
    of the half spectra of v - mean v and of log det omega_eps.

    On the solve grid the raw residual is the spectral Hessian of the
    Newton stopping residual — it reflects the solver, not the
    discretization.  For n <= 2, log det(omega_eps) is instead evaluated on
    a twice finer grid and truncated back to the solve band (the padding
    rule of Orszag, J. Atmos. Sci. 28, 1971).  That removes the fold-back
    of product terms the solve grid cannot represent, so the value measures
    genuine discretization error and decays at the spectral rate under grid
    refinement.  For n = 3 a finer grid costs 64 times the points, and the
    value is the raw residual of the solve grid.

    Since eps*g + Hess v = eps*I + Hess(eps*psi + v), with psi omega's
    potential, log det(eps*I + H) is streamed from the fine Hessian
    components H of eps*psi + (v - mean v) (TorusGrid.prolonged_hessian),
    det, its positivity test and log slab by slab, and cropped back less its
    mean (restricted_spectrum), both pruned to the solve band: log det is
    the one fine field built, written once, and no n log eps constant enters
    a fine transform (at n = 3, H on the solve grid).
    """
    grid, v = omega.grid, np.asarray(v, dtype=float) - np.mean(v)

    def log_det_plus(c):  # log det(eps*I + H) on (a slab of) the components c of H
        c[:: grid.n + 1] += epsilon
        d = component_det(c)
        if np.any(d <= 0.0):
            raise PositivityLoss("state metric degenerate on the dealiasing grid")
        return np.log(d, out=d)

    potential = epsilon * omega.psi + v
    if grid.n == 3:
        ldg = log_det_plus(grid.hessian_components(potential))
        spectrum = grid.rfft(ldg - np.mean(ldg))  # mean out for round-off
    else:
        spectrum = grid.restricted_spectrum(
            grid.prolonged_hessian(grid.rfft(potential), log_det_plus))
    r, n = grid.hessian_of_spectrum(grid.rfft(v) - spectrum), grid.n
    off = [np.hypot(r[i * n + j], r[j * n + i]).max()  # |r_ij| of its (Re, Im) rows
           for i, j in itertools.combinations(range(n), 2)]
    return float(np.max([np.abs(r[:: n + 1]).max(), *off]))


@dataclass
class LimitProbeReport:
    """Drift of the normalized potentials w = u - n log eps along the path.

    On a torus the family collapses (u ~ n log eps, volume eps^n -> 0);
    bounded, shrinking drifts certify the normalized limit, while the raw
    u's diverge.  The drifts are taken from v - n log eps: u - v = -log det g
    does not depend on eps and cancels in every difference.  A single-state
    path has nothing to compare: empty report.
    """

    epsilons: list
    drifts: list
    converging: bool
    note: str = ""


def limit_probe(path) -> LimitProbeReport:
    eps = [s.epsilon for s in path]
    if len(path) < 2:
        return LimitProbeReport(eps, [], converging=False,
                                note="single-state path: no drift to measure")
    n = path[0].v.ndim // 2
    ws = [s.v - n * np.log(s.epsilon) for s in path]
    drifts = [float(np.max(np.abs(b - a))) for a, b in zip(ws, ws[1:])]
    # "converging" = drifts stop growing and the tail drift is small in
    # absolute terms; loose by design, this is a probe rather than a proof.
    tail_shrinks = all(d2 <= d1 * 1.5 + 1e-14 for d1, d2 in zip(drifts, drifts[1:]))
    converging = bool(tail_shrinks and drifts[-1] < 1.0)
    note = ("normalized potentials u - n log eps settle; raw u diverges like "
            "n log eps (torus volume collapse)")
    return LimitProbeReport(eps, drifts, converging, note)
