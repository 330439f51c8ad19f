"""Wedge integrals of metric pairs and the path-level volume bounds.

Integrals are normalized so the flat torus has unit volume:

    integral(A^k wedge B^{n-k}) := grid mean of D_k(A; B) / binom(n, k)

where D_k is the coefficient of t^k in det(t A + B), in closed form from
the determinants and adjugates of A and B (so A = B gives det A for every
k, and the integrand equals sigma_k(P) * det B / binom(n, k)).
Everything downstream -- the eps-expansion of V(eps), the bigness floor,
the nef lower bounds -- is a statement about these normalized quantities
and is invariant under the normalization choice.

Module constants: INTEGRAL_TOL = 1e-8 is the absolute verdict threshold of
the nef wedge floors, the trace collapse rate and the CLI's expansion and
volume-law rows, BIGNESS_TOL = 1e-9 that of the bigness volume floor,
COND_LIMIT = 1e8 the largest Vandermonde condition number an eps-expansion
fit accepts, and COLLAPSE_ORDER = 0.9 the trace collapse's least local order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .fields import TorusMetricField
from .inequalities import InequalityReport, make_report, not_applicable
from .linalg import adjugate, component_det, component_pair, trace_pairing

INTEGRAL_TOL = 1e-8
BIGNESS_TOL = 1e-9
COND_LIMIT = 1e8
COLLAPSE_ORDER = 0.9


def mixed_determinants(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All mixed coefficients D_k(A; B), k = 0..n, the coefficients of t^k in
    det(t A + B), of the Hermitian fields A, B with components a, b (n*n, ...),
    as the last axis: for n <= 3, det B, tr(adj B A), tr(adj A B) and det A,
    cut to n + 1."""
    a, b, n = component_pair(a, b)
    pairs = [(b, a), (a, b)][: n - 1]  # tr(adj B A), tr(adj A B)
    traces = [trace_pairing(adjugate(p), q) for p, q in pairs]
    return np.stack([component_det(b), *traces, component_det(a)], axis=-1)


def wedge_integrals(a: np.ndarray, b: np.ndarray) -> tuple:
    """Normalized integrals W_k of A^k wedge B^{n-k} over a torus grid, k = 0..n.

    a and b are the components (n*n,) + grid shape of two metric fields on
    one grid, such as two fields' .g; each integral is the grid mean of its
    integrand, and all n + 1 come from one mixed_determinants pass.  Arrays
    of different shapes, or complex arrays, raise DimensionMismatch.
    """
    D = mixed_determinants(a, b)
    n = D.shape[-1] - 1
    return tuple(float(np.mean(D[..., k] / math.comb(n, k))) for k in range(n + 1))


def wedge_integral(a: np.ndarray, b: np.ndarray, k: int) -> float:
    """W_k of wedge_integrals(a, b): the normalized integral of A^k wedge B^{n-k}."""
    n = math.isqrt(len(a))
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in 0..{n}, got {k}")
    return wedge_integrals(a, b)[k]


def volume(field: TorusMetricField) -> float:
    """integral of omega^n (unit-volume normalization for the flat metric)."""
    return field.grid.mean(field.det_g)


# -- eps-expansion of the path volume ---------------------------------------


def fit_epsilon_expansion(epsilons, values, degree: int):
    """Least-squares polynomial fit of V(eps), guarded for conditioning.

    Returns (coefficients c_0..c_degree, condition number, max residual).
    The Vandermonde is built in eps/max(eps) so the condition number is
    scale-free; schedules too clustered to identify the coefficients are
    rejected rather than silently fit.
    """
    eps = np.asarray(list(epsilons), dtype=float)
    vals = np.asarray(list(values), dtype=float)
    if eps.size != vals.size:
        raise DimensionMismatch("epsilons and values differ in length")
    if eps.size < degree + 2:
        raise ValueError(
            f"need at least degree+2 = {degree + 2} states to fit and "
            f"cross-check, got {eps.size}"
        )
    scale = eps.max()
    V = np.vander(eps / scale, degree + 1, increasing=True)
    cond = float(np.linalg.cond(V))
    if cond > COND_LIMIT:
        raise ValueError(
            f"eps schedule too ill-conditioned for the fit "
            f"(cond {cond:.2e} > {COND_LIMIT:.1e}); spread the schedule"
        )
    a, *_ = np.linalg.lstsq(V, vals, rcond=None)
    coeffs = a / scale ** np.arange(degree + 1)
    resid = float(np.max(np.abs(V @ a - vals)))
    return coeffs, cond, resid


@dataclass
class ExpansionReport:
    """Fitted eps-expansion of V(eps) = integral omega_eps^n along a path.

    coefficient k of eps^k, divided by binom(n, k), estimates the class
    integral pairing (n-k) copies of the eps-independent class piece with
    k copies of omega; on a torus every piece except the top eps^n
    coefficient vanishes in class.
    """

    epsilons: list
    values: list
    coefficients: list
    implied_class_integrals: list
    condition_number: float
    fit_residual: float
    reference_volume: float
    note: str = ""


def epsilon_expansion_check(path, omega: TorusMetricField) -> ExpansionReport:
    """Fit V(eps), each state's W_n, over a solved path and report the coefficients."""
    n = omega.n
    eps = [s.epsilon for s in path]
    vals = [s.wedge_integrals[n] for s in path]
    coeffs, cond, resid = fit_epsilon_expansion(eps, vals, n)
    implied = [float(coeffs[k]) / math.comb(n, k) for k in range(n + 1)]
    return ExpansionReport(
        epsilons=[float(e) for e in eps],
        values=[float(v) for v in vals],
        coefficients=[float(c) for c in coeffs],
        implied_class_integrals=implied,
        condition_number=cond,
        fit_residual=resid,
        reference_volume=volume(omega),
        note="torus expectation: c_k = 0 for k < n, c_n = reference volume",
    )


# -- volume floors ------------------------------------------------------------


@dataclass
class BignessReport:
    """Per-state and extrapolated checks of the volume floor

    integral omega_eps^n >= ((n+1) kappa0 / 2)^n * integral omega^n,
    meaningful only when kappa0 > 0.
    """

    kappa0: float
    per_state: list
    extrapolated: InequalityReport
    applicable: bool


def bigness_bound_report(kappa0: float, omega: TorusMetricField, path) -> BignessReport:
    n = omega.n
    if kappa0 <= 0.0:
        na = not_applicable(
            "bigness-volume-floor",
            f"kappa0 = {kappa0:.6g} <= 0: no uniform negativity floor",
        )
        return BignessReport(float(kappa0), [na], na, applicable=False)
    ref = volume(omega)
    rhs = ((n + 1) * kappa0 / 2.0) ** n * ref
    per_state = []
    eps, vals = [], []
    for s in path:
        V = s.wedge_integrals[n]
        eps.append(s.epsilon)
        vals.append(V)
        per_state.append(make_report(
            "bigness-volume-floor", V, rhs, BIGNESS_TOL,
            note=f"eps={s.epsilon:.6g}",
        ))
    if len(path) >= n + 2:
        coeffs, _, _ = fit_epsilon_expansion(eps, vals, n)
        extrapolated = make_report(
            "bigness-volume-floor-limit", float(coeffs[0]), rhs, BIGNESS_TOL,
            note="eps -> 0 extrapolation (constant term of the fit)",
        )
    else:
        extrapolated = not_applicable(
            "bigness-volume-floor-limit",
            f"need >= {n + 2} states to extrapolate, have {len(path)}",
        )
    return BignessReport(float(kappa0), per_state, extrapolated, applicable=True)


def nef_lower_bound_check(path, omega: TorusMetricField) -> list:
    """Check integral omega_eps^k wedge omega^{n-k} >= C^{k/n-1} integral omega_eps^n.

    C must be a certified pointwise ceiling of sigma_n = omega_eps^n/omega^n
    (sigma_n = e^u <= exp(sup u) <= C); since k/n - 1 <= 0, the MacLaurin
    step sigma_k-quotient >= sigma_n^{k/n} = sigma_n * sigma_n^{k/n-1}
    >= sigma_n * C^{k/n-1} only holds with C above sigma_n.  C is each
    state's recorded ceiling exp(log_c_bound); a ceiling that underflows
    to 0 (a log C read back from a sidecar, say) makes the state's row
    not-applicable.  One report per (state, k) for 1 <= k <= n, read from
    the state's wedge_integrals; k = n is the trivial identity row.
    """
    n = omega.n
    reports = []
    for s in path:
        c_state = float(np.exp(s.log_c_bound))
        if c_state <= 0.0:
            reports.append(not_applicable(
                "nef-wedge-lower-bound",
                f"sigma_n ceiling {c_state:.6g} <= 0 at eps={s.epsilon:.6g}",
            ))
            continue
        W = s.wedge_integrals
        for k in range(1, n + 1):
            lhs = W[k]
            rhs = c_state ** (k / n - 1.0) * W[n]
            reports.append(make_report(
                "nef-wedge-lower-bound", lhs, rhs, INTEGRAL_TOL,
                note=f"eps={s.epsilon:.6g} k={k} ceiling={c_state:.6g}",
            ))
    return reports


def trace_collapse_check(path, omega: TorusMetricField) -> list:
    """Check that e(eps) = |eps * s_max - max tr g| falls at a local order of at
    least COLLAPSE_ORDER, e(eps') <= e(eps) * (eps'/eps)^COLLAPSE_ORDER, with one
    report per consecutive pair of states (none on a one-state path).

    On a torus omega_eps / eps = I + Hess u tends to the flat metric, so
    eps * S_eps, S_eps = tr_{omega_eps} omega, tends to tr g pointwise with an
    O(eps) error; e compares two grid sups, each state's s_max and omega's.
    """
    limit = float(omega.g[:: omega.n + 1].sum(axis=0).max())
    errors = [abs(s.epsilon * s.s_max - limit) for s in path]
    return [make_report(
        "trace-collapse-rate", e * (t.epsilon / s.epsilon) ** COLLAPSE_ORDER, e_next,
        INTEGRAL_TOL, note=f"eps={t.epsilon:.6g} limit={limit:.12g}",
    ) for s, t, e, e_next in zip(path, path[1:], errors, errors[1:])]
