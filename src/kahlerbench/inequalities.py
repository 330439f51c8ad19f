"""Pointwise verification of the trace-inequality chain.

The chain controls S = tr_{omega'} omega for a pair of Kähler metrics:
an exact identity for Delta' S, a Cauchy-Schwarz step on the third-order
term, a lower bound for the mixed-curvature term in terms of the ambient
holomorphic sectional curvature (with sharp constant (n+1)/(2n)), a lower
bound for the Ricci term from a Ricci hypothesis, and the resulting
maximum-principle ceiling for S.

Every check returns an InequalityReport rather than a bare bool; reports
that do not apply (hypotheses fail, kappa_0 <= 0) are first-class
"not-applicable" outcomes, never errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import (
    KahlerCurvature,
    constant_hsc_tensor,
    hsc_extremes_from_tensor,
    ricci_from_derivatives,
    transform_tensor,
)
from .errors import DimensionMismatch
from .fields import TorusMetricField
from .linalg import simultaneous_frame


@dataclass(frozen=True)
class SchwarzHypotheses:
    """Hypothesis bundle: H(omega) <= -kappa and Ric(omega') >= -lam*omega' + mu*omega.

    kappa and mu must be nonnegative; lam may have either sign.
    """

    kappa: float
    lam: float
    mu: float = 0.0

    def __post_init__(self):
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        if self.mu < 0.0:
            raise ValueError(f"mu must be >= 0, got {self.mu}")


@dataclass(frozen=True)
class InequalityReport:
    """Outcome of one pointwise or global check.

    margin = lhs - rhs; an applicable one-sided check passes iff
    margin >= -tol, a two-sided (identity) check also needs margin <= tol.
    Non-applicable reports carry NaN numerics and never fail a run.
    """

    name: str
    lhs: float
    rhs: float
    margin: float
    tol: float
    point: tuple = None
    applicable: bool = True
    two_sided: bool = False
    note: str = ""

    @property
    def passed(self) -> bool:
        if not self.applicable:
            return True
        ok = self.margin >= -self.tol
        if self.two_sided:
            ok = ok and self.margin <= self.tol
        return bool(ok)

    @property
    def status(self) -> str:
        if not self.applicable:
            return "not-applicable"
        return "pass" if self.passed else "fail"

    def as_dict(self) -> dict:
        def _f(x):
            x = float(x)
            return None if math.isnan(x) else x

        return {
            "name": self.name,
            "point": None if self.point is None else list(self.point),
            "lhs": _f(self.lhs),
            "rhs": _f(self.rhs),
            "margin": _f(self.margin),
            "tol": float(self.tol),
            "two_sided": self.two_sided,
            "status": self.status,
            "note": self.note,
        }


def make_report(name, lhs, rhs, tol, point=None, two_sided=False, note="") -> InequalityReport:
    return InequalityReport(
        name=name, lhs=float(lhs), rhs=float(rhs), margin=float(lhs) - float(rhs),
        tol=float(tol), point=_point_tuple(point), two_sided=two_sided, note=note,
    )


def not_applicable(name, note, point=None, tol=0.0) -> InequalityReport:
    nan = float("nan")
    return InequalityReport(
        name=name, lhs=nan, rhs=nan, margin=nan, tol=float(tol),
        point=_point_tuple(point), applicable=False, note=note,
    )


def _point_tuple(point):
    if point is None:
        return None
    arr = np.asarray(point).reshape(-1)
    if np.iscomplexobj(arr):
        out = []
        for z in arr:
            out.extend((float(z.real), float(z.imag)))
        return tuple(out)
    return tuple(float(x) for x in arr)


# -- curvature-term bound (sharp constant (n+1)/(2n)) -----------------------


def royden_margin(R, g, g_prime, kappa, tol: float = 1e-9, point=None) -> InequalityReport:
    """Check -sum_{ik} R~_{ii kk} / (d_i d_k) >= (n+1) kappa / (2n) * S^2.

    R is the ambient curvature tensor, g the ambient metric, g_prime the
    comparison metric; the frame with g = I, g_prime = diag(d) is built
    internally.  kappa must be a certified nonnegative floor for -H(omega);
    the bound is vacuous (and rejected) for kappa < 0.
    """
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    g = np.asarray(g, dtype=complex)
    n = g.shape[-1]
    T, d = simultaneous_frame(g, g_prime)
    # The unbarred tensor slots contract the frame unconjugated, so the
    # T^H g T = I frame enters the contraction as conj(T).
    Rt = transform_tensor(np.asarray(R, dtype=complex), np.conj(T))
    diag = np.einsum("iikk->ik", Rt).real
    lhs = float(-(diag / np.outer(d, d)).sum())
    S = float((1.0 / d).sum())
    rhs = (n + 1) * kappa / (2.0 * n) * S**2
    return make_report("hsc-trace-lower-bound", lhs, rhs, tol, point=point,
                       note=f"S={S:.6g} kappa={kappa:.6g}")


def ricci_term_margin(ric_prime, g_prime, lam, mu, S=None, tol: float = 1e-9,
                      hypothesis_tol: float = 1e-9, point=None) -> InequalityReport:
    """Check sum_i R'_{ii} / d_i^2 >= -lam * S + (mu/n) * S^2.

    Inputs are expressed in an ambient-orthonormal frame (g = identity).
    The Ricci hypothesis Ric' + lam g' - mu g >= 0 is verified first; data
    violating it yields a not-applicable report, not a failure.
    """
    ric_prime = np.asarray(ric_prime, dtype=complex)
    g_prime = np.asarray(g_prime, dtype=complex)
    n = g_prime.shape[-1]
    if mu < 0.0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    w = np.linalg.eigvalsh(ric_prime + lam * g_prime - mu * np.eye(n))
    scale = max(1.0, float(np.max(np.abs(ric_prime))), float(np.max(np.abs(g_prime))))
    if w[0] < -hypothesis_tol * scale:
        return not_applicable(
            "ricci-trace-lower-bound",
            f"Ricci hypothesis fails: min eig {w[0]:.3e} < 0", point=point,
        )
    d, U = np.linalg.eigh(g_prime)
    ric_t = U.conj().T @ ric_prime @ U
    lhs = float((np.diag(ric_t).real / d**2).sum())
    if S is None:
        S = float((1.0 / d).sum())
    rhs = -lam * float(S) + (mu / n) * float(S) ** 2
    return make_report("ricci-trace-lower-bound", lhs, rhs, tol, point=point,
                       note=f"S={float(S):.6g} lam={lam:.6g} mu={mu:.6g}")


# -- the trace S = tr_{omega'} omega and its derivatives ----------------------


def _trace_jet(jet, jet_prime):
    """S = tr(g'^-1 g) with d_k S and d_k d_lbar S, in closed form.

    Takes the metric jets (g, dg, ddg) of omega and omega' at one point.
    With A = g'^-1 and subscripts k, lbar for d/dz^k, d/dzbar^l,

        d_k S = tr(A g_k) - tr(A g'_k A g),
        d_k d_lbar S = tr(A g_{k lbar}) - tr(A g'_lbar A g_k) - tr(A g'_k A g_lbar)
                       - tr(A g'_{k lbar} A g)
                       + tr(A g'_lbar A g'_k A g) + tr(A g'_k A g'_lbar A g).

    Returns (S, dS, ddS) with dS[k] = d_k S and ddS[k, l] = d_k d_lbar S.
    """
    g, dg, ddg = jet
    gp, dgp, ddgp = jet_prime
    A = np.linalg.inv(gp)
    B = A @ g
    # Gk[k] = A g_k and Gl[l] = A g_lbar, with (d_lbar g)_{i jbar} =
    # conj(d_l g_{j ibar}); Pk and Pl are the same for g'.
    Gk = np.einsum("ab,bck->kac", A, dg)
    Gl = np.einsum("ab,bcl->lac", A, np.conj(np.swapaxes(dg, 0, 1)))
    Pk = np.einsum("ab,bck->kac", A, dgp)
    Pl = np.einsum("ab,bcl->lac", A, np.conj(np.swapaxes(dgp, 0, 1)))
    S = float(np.trace(B).real)
    dS = np.einsum("kaa->k", Gk) - np.einsum("kab,ba->k", Pk, B)
    ddS = (np.einsum("ab,bakl->kl", A, ddg)
           - np.einsum("lab,kba->kl", Pl, Gk)
           - np.einsum("kab,lba->kl", Pk, Gl)
           - np.einsum("ab,bckl,ca->kl", A, ddgp, B)
           + np.einsum("lab,kbc,ca->kl", Pl, Pk, B)
           + np.einsum("kab,lbc,ca->kl", Pk, Pl, B))
    return S, dS, ddS


# -- the Laplacian identity and its Cauchy-Schwarz step ----------------------


def laplacian_identity_check(omega, omega_prime, index, tol_identity: float = None,
                             tol_cs: float = 1e-9) -> tuple:
    """Exact-identity and Cauchy-Schwarz reports for Delta' S at one grid point.

    Requires a flat ambient omega on a torus (the mixed-curvature term then
    vanishes; non-flat ambients are rejected); index is a grid multi-index
    and the reports carry its real coordinates.  Returns a pair of reports:

    * "laplacian-trace-identity": Delta' S = tr(g'^-1 d dbar S) from the
      two metric jets against the curvature/third-order expression,
      two-sided at tol_identity (default 1e-10 * max(1, |rhs|)).
    * "third-order-cauchy-schwarz": the third-order sum against
      |grad' S|^2 / S.
    """
    if not isinstance(omega, TorusMetricField) or not isinstance(omega_prime, TorusMetricField):
        raise TypeError("laplacian identity check runs on torus fields")
    if omega.grid.shape != omega_prime.grid.shape:
        raise DimensionMismatch("fields live on different grids")
    if float(np.max(np.abs(omega.psi))) > 1e-14:
        raise ValueError("ambient metric must be flat (zero potential)")

    jet_prime = omega_prime.jet_at(index)
    gp, dgp, ddgp = jet_prime
    point = omega.grid.coords(index)

    d, U = np.linalg.eigh(gp)
    ric = ricci_from_derivatives(gp, dgp, ddgp)
    ric_t = U.conj().T @ ric @ U
    # Row and derivative slots are covariant holomorphic indices: both
    # contract with conj(U) when U^H g U diagonalizes the metric.
    dg_t = np.einsum("ijk,ia,jb,kc->abc", dgp, np.conj(U), U, np.conj(U))

    ricci_term = float((np.diag(ric_t).real / d**2).sum())
    denom = d[:, None, None] * (d[None, :, None] ** 2) * d[None, None, :]
    third_term = float((np.abs(dg_t) ** 2 / denom).sum())
    rhs = ricci_term + third_term  # ambient curvature term vanishes (flat)
    if tol_identity is None:
        tol_identity = 1e-10 * max(1.0, abs(rhs))

    S, dS, ddS = _trace_jet(omega.jet_at(index), jet_prime)
    lhs = float(np.trace(np.linalg.solve(gp, ddS)).real)
    identity = make_report("laplacian-trace-identity", lhs, rhs, tol_identity,
                           point=point, two_sided=True)

    grad_sq = float(np.real(np.vdot(dS, np.linalg.solve(gp, dS))))
    cs = make_report(
        "third-order-cauchy-schwarz", third_term, grad_sq / S, tol_cs,
        point=point, note=f"S={S:.6g}",
    )
    return identity, cs


# -- assembled Schwarz-lemma conclusion --------------------------------------


def schwarz_conclusion_check(omega, omega_prime, hyp: SchwarzHypotheses, point,
                             fd_step: float = None, tol: float = 1e-9,
                             hypothesis_tol: float = 1e-8,
                             num_directions: int = 4000,
                             refine_steps: int = 50) -> InequalityReport:
    """Check Delta' log S >= ((n+1) kappa / (2n) + mu/n) S - lam at a point.

    Both hypotheses are re-verified at the point before comparing: the
    ambient HSC ceiling H <= -kappa (by extremization) and the Ricci bound
    Ric(omega') + lam omega' - mu omega >= 0 (by eigenvalue check).  If
    either fails the report is not-applicable.  The left side is exact:
    Delta' log S = Delta' S / S - |d S|^2_{g'} / S^2 from the two metric
    jets.  On a torus the point is a grid multi-index and the report
    carries its real coordinates.  fd_step is accepted for old callers and
    not read.
    """
    n = omega.n
    jet = omega.jet_at(point)
    where = omega.grid.coords(point) if isinstance(omega, TorusMetricField) else point
    curv = KahlerCurvature.from_derivatives(*jet)
    ext = hsc_extremes_from_tensor(curv.tensor, curv.g, num_directions, refine_steps)
    if ext.h_max > -hyp.kappa + hypothesis_tol:
        return not_applicable(
            "schwarz-log-trace-conclusion",
            f"HSC hypothesis fails: max H {ext.h_max:.6g} > -kappa {-hyp.kappa:.6g}",
            point=where,
        )
    jet_prime = omega_prime.jet_at(point)
    gp = jet_prime[0]
    ric_p = ricci_from_derivatives(*jet_prime)
    W = ric_p + hyp.lam * gp - hyp.mu * curv.g
    scale = max(1.0, float(np.max(np.abs(ric_p))), float(np.max(np.abs(gp))))
    wmin = float(np.linalg.eigvalsh(W)[0])
    if wmin < -hypothesis_tol * scale:
        return not_applicable(
            "schwarz-log-trace-conclusion",
            f"Ricci hypothesis fails: min eig {wmin:.3e} < 0",
            point=where,
        )

    S, dS, ddS = _trace_jet(jet, jet_prime)
    lap_s = float(np.trace(np.linalg.solve(gp, ddS)).real)
    grad_sq = float(np.real(np.vdot(dS, np.linalg.solve(gp, dS))))
    lhs = lap_s / S - grad_sq / S**2
    rhs = ((n + 1) * hyp.kappa / (2.0 * n) + hyp.mu / n) * S - hyp.lam
    return make_report(
        "schwarz-log-trace-conclusion", lhs, rhs, tol,
        point=where, note=f"S={S:.6g} h_max={ext.h_max:.6g}",
    )


def max_principle_s_bound(kappa0: float, s_values, n: int,
                          tol: float = 1e-9) -> InequalityReport:
    """Check sup S <= 2n / ((n+1) kappa0) over the supplied samples.

    kappa0 <= 0 makes the ceiling vacuous: not-applicable, never a failure.
    """
    s_values = np.asarray(s_values, dtype=float).reshape(-1)
    if s_values.size == 0:
        raise ValueError("need at least one S sample")
    if kappa0 <= 0.0:
        return not_applicable(
            "max-principle-trace-ceiling",
            f"kappa0 = {kappa0:.6g} <= 0: negativity floor absent",
        )
    bound = 2.0 * n / ((n + 1) * kappa0)
    return make_report(
        "max-principle-trace-ceiling", bound, float(s_values.max()), tol,
        note=f"samples={s_values.size} kappa0={kappa0:.6g}",
    )


# -- random Kähler-symmetric tensors for trials ------------------------------


def random_kahler_tensor(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """A random tensor with the full Kähler curvature symmetry set.

    Gaussian entries averaged over the symmetry group: i<->k, jbar<->lbar,
    and the conjugate pair swap.
    """
    raw = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
    sym = raw + np.swapaxes(raw, 0, 2)
    sym = sym + np.swapaxes(sym, 1, 3)
    pair = np.conj(np.swapaxes(np.swapaxes(sym, 0, 1), 2, 3))
    return scale * (sym + pair) / 8.0


def conditioned_negative_tensor(n: int, rng: np.random.Generator,
                                gap: float = 0.5,
                                num_directions: int = 2000,
                                refine_steps: int = 40) -> np.ndarray:
    """Random symmetric tensor shifted so sup H < 0 (by roughly `gap`).

    Random tensors almost never satisfy the negativity hypothesis on their
    own; subtracting a multiple of the constant-HSC model tensor lowers
    every sectional value uniformly without touching the symmetries.
    """
    eye = np.eye(n, dtype=complex)
    R = random_kahler_tensor(n, rng)
    ext = hsc_extremes_from_tensor(R, eye, num_directions, refine_steps)
    return R - constant_hsc_tensor(eye, ext.h_max + gap)
