"""Pointwise verification of the trace-inequality chain.

The chain controls S = tr_{omega'} omega for a pair of Kähler metrics:
an exact identity for Delta' S, a Cauchy-Schwarz step on the third-order
term, a lower bound for the mixed-curvature term in terms of the ambient
holomorphic sectional curvature (with sharp constant (n+1)/(2n)), a lower
bound for the Ricci term from a Ricci hypothesis, and the resulting
maximum-principle ceiling for S.  Every term is a contraction with the
inverse comparison metric A = g'^-1 (linalg.inv); no frame is built.

Every check returns an InequalityReport rather than a bare bool; reports
that do not apply (hypotheses fail, kappa_0 <= 0) are first-class
"not-applicable" outcomes, never errors.

Each check owns its verdict threshold; none can be loosened by a caller:

* MARGIN_TOL = 1e-9: the one-sided margins of royden_margin,
  ricci_term_margin, the third-order Cauchy-Schwarz step,
  schwarz_conclusion_check and max_principle_s_bound.
* IDENTITY_RTOL = 1e-10: the two-sided Laplacian identity, relative to
  max(1, |rhs|).
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
)
from .errors import DimensionMismatch, PositivityLoss
from .fields import TorusMetricField
from .linalg import eigvalsh, inv, positivity

MARGIN_TOL = 1e-9
IDENTITY_RTOL = 1e-10


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
    margin >= -tol, a two-sided (identity) check also needs margin <= tol,
    that is iff its slack is >= 0.  status is the only verdict:
    non-applicable reports carry NaN numerics and never fail a run.
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
    def slack(self) -> float:
        """Distance inside the threshold; negative (or NaN) when the check fails."""
        return self.tol - (abs(self.margin) if self.two_sided else -self.margin)

    @property
    def status(self) -> str:
        if not self.applicable:
            return "not-applicable"
        return "pass" if self.slack >= 0.0 else "fail"

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


def not_applicable(name, note, point=None) -> InequalityReport:
    nan = float("nan")
    return InequalityReport(
        name=name, lhs=nan, rhs=nan, margin=nan, tol=0.0,
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


def royden_margin(R, g, g_prime, kappa) -> InequalityReport:
    """Check -R(A, A) >= (n+1) kappa / (2n) * S^2 with A = g'^{-1}, S = tr(A g).

    R is the ambient curvature tensor, g the ambient metric, g_prime the
    comparison metric.  The unbarred slots contract the upper-index inverse
    g'^{i jbar} = conj(A)[i, j], so the left side is
    -Re sum R[i,j,k,l] conj(A)[i,j] conj(A)[k,l]: in a frame with g = I and
    g' = diag(d) it is -sum_{ik} R_{ii kk} / (d_i d_k), and S = sum 1/d_i.
    Both metrics are held to linalg.positivity; a pair that fails it raises
    PositivityLoss.  kappa must be a certified nonnegative floor for
    -H(omega); the bound is vacuous (and rejected) for kappa < 0.
    """
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    pair = np.stack([np.asarray(g, dtype=complex), np.asarray(g_prime, dtype=complex)])
    ok, worst, w = positivity(pair)
    if not ok:
        raise PositivityLoss(f"{('g', 'g_prime')[worst[0]]} not positive definite: "
                             f"eigenvalues {w}", min_eigenvalue=float(w[0]))
    n = pair.shape[-1]
    A = inv(pair[1])
    Ac = np.conj(A)
    lhs = float(-np.einsum("ijkl,ij,kl->", np.asarray(R, dtype=complex), Ac, Ac).real)
    S = float(np.einsum("ij,ji->", A, pair[0]).real)
    rhs = (n + 1) * kappa / (2.0 * n) * S**2
    return make_report("hsc-trace-lower-bound", lhs, rhs, MARGIN_TOL,
                       note=f"S={S:.6g} kappa={kappa:.6g}")


def _ricci_hypothesis_note(ric_prime, g_prime, g, lam, mu, slack) -> str:
    """Why Ric' + lam g' - mu g >= 0 fails, or "" when it holds.

    The smallest eigenvalue may dip below zero by slack times the data's
    scale, max(1, |Ric'|, |g'|).
    """
    w = float(eigvalsh(ric_prime + lam * g_prime - mu * g)[0])
    scale = max(1.0, float(np.max(np.abs(ric_prime))), float(np.max(np.abs(g_prime))))
    return f"Ricci hypothesis fails: min eig {w:.3e} < 0" if w < -slack * scale else ""


def ricci_term_margin(ric_prime, g_prime, lam, mu) -> InequalityReport:
    """Check tr(A Ric' A) >= -lam * S + (mu/n) * S^2 with A = g'^{-1}, S = tr A.

    Inputs are expressed in an ambient-orthonormal frame (g = identity); in
    an eigenframe of g' = diag(d) the left side is sum_i R'_{ii} / d_i^2.
    The Ricci hypothesis Ric' + lam g' - mu g >= 0 is verified first, to
    1e-9 relative to the data's scale; data violating it yields a
    not-applicable report, not a failure.
    """
    ric_prime = np.asarray(ric_prime, dtype=complex)
    g_prime = np.asarray(g_prime, dtype=complex)
    n = g_prime.shape[-1]
    if mu < 0.0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    note = _ricci_hypothesis_note(ric_prime, g_prime, np.eye(n), lam, mu, 1e-9)
    if note:
        return not_applicable("ricci-trace-lower-bound", note)
    A = inv(g_prime)
    lhs = float(np.trace(A @ ric_prime @ A).real)
    S = float(np.trace(A).real)
    rhs = -lam * S + (mu / n) * S**2
    return make_report("ricci-trace-lower-bound", lhs, rhs, MARGIN_TOL,
                       note=f"S={S:.6g} lam={lam:.6g} mu={mu:.6g}")


# -- the trace S = tr_{omega'} omega and its derivatives ----------------------


def _trace_jet(jet, jet_prime):
    """S = tr(g'^-1 g), Delta' S and |d S|^2_{g'}, in closed form.

    Takes the metric jets (g, dg, ddg) of omega and omega' at one point.
    With A = g'^-1 and subscripts k, lbar for d/dz^k, d/dzbar^l,

        d_k S = tr(A g_k) - tr(A g'_k A g),
        d_k d_lbar S = tr(A g_{k lbar}) - tr(A g'_lbar A g_k) - tr(A g'_k A g_lbar)
                       - tr(A g'_{k lbar} A g)
                       + tr(A g'_lbar A g'_k A g) + tr(A g'_k A g'_lbar A g).

    Returns (S, Delta' S, |d S|^2_{g'}) with Delta' S = tr(A dd S) and
    |d S|^2_{g'} = conj(dS) . A dS.
    """
    g, dg, ddg = jet
    gp, dgp, ddgp = jet_prime
    A = inv(gp)
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
    lap_s = float(np.einsum("ab,ba->", A, ddS).real)
    grad_sq = float(np.real(np.vdot(dS, A @ dS)))
    return S, lap_s, grad_sq


# -- the Laplacian identity and its Cauchy-Schwarz step ----------------------


def laplacian_identity_check(omega, omega_prime, index) -> tuple:
    """Exact-identity and Cauchy-Schwarz reports for Delta' S at one grid point.

    Requires a flat ambient omega on a torus (the mixed-curvature term then
    vanishes; non-flat ambients are rejected); index is a grid multi-index
    and the reports carry its real coordinates.  With A = g'^-1 the two
    remaining terms are contractions: the Ricci term tr(A Ric' A) and the
    third-order term
    Re sum dg'[i,j,k] conj(dg'[I,J,K]) conj(A)[i,I] (A A)[j,J] conj(A)[k,K].
    Returns a pair of reports:

    * "laplacian-trace-identity": Delta' S = tr(A d dbar S) from the
      two metric jets against the Ricci plus third-order terms,
      two-sided at IDENTITY_RTOL * max(1, |rhs|).
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
    gp, dgp, _ = jet_prime
    point = omega.grid.coords(index)

    A = inv(gp)
    Ac = np.conj(A)
    ricci_term = float(np.trace(A @ ricci_from_derivatives(*jet_prime) @ A).real)
    third_term = float(np.einsum("ijk,IJK,iI,jJ,kK->", dgp, np.conj(dgp),
                                 Ac, A @ A, Ac).real)
    rhs = ricci_term + third_term  # ambient curvature term vanishes (flat)

    S, lap_s, grad_sq = _trace_jet(omega.jet_at(index), jet_prime)
    identity = make_report("laplacian-trace-identity", lap_s, rhs,
                           IDENTITY_RTOL * max(1.0, abs(rhs)), point=point, two_sided=True)
    cs = make_report(
        "third-order-cauchy-schwarz", third_term, grad_sq / S, MARGIN_TOL,
        point=point, note=f"S={S:.6g}",
    )
    return identity, cs


# -- assembled Schwarz-lemma conclusion --------------------------------------


def schwarz_conclusion_check(omega, omega_prime, hyp: SchwarzHypotheses, point,
                             fd_step: float = None) -> InequalityReport:
    """Check Delta' log S >= ((n+1) kappa / (2n) + mu/n) S - lam at a point.

    Both hypotheses are re-verified at the point, each with a slack of
    1e-8 (relative to the data's scale for the Ricci bound), before
    comparing: the ambient HSC ceiling H <= -kappa (by extremization) and
    the Ricci bound Ric(omega') + lam omega' - mu omega >= 0 (by eigenvalue
    check).  If either fails the report is not-applicable.  The left side
    is exact: Delta' log S = Delta' S / S - |d S|^2_{g'} / S^2 from the two
    metric jets.  On a torus the point is a grid multi-index and the report
    carries its real coordinates.  fd_step is accepted for old callers and
    not read.
    """
    n = omega.n
    jet = omega.jet_at(point)
    where = omega.grid.coords(point) if isinstance(omega, TorusMetricField) else point
    curv = KahlerCurvature.from_derivatives(*jet)
    ext = hsc_extremes_from_tensor(curv.tensor, curv.g)
    slack = 1e-8
    if ext.h_max > -hyp.kappa + slack:
        return not_applicable(
            "schwarz-log-trace-conclusion",
            f"HSC hypothesis fails: max H {ext.h_max:.6g} > -kappa {-hyp.kappa:.6g}",
            point=where,
        )
    jet_prime = omega_prime.jet_at(point)
    note = _ricci_hypothesis_note(ricci_from_derivatives(*jet_prime), jet_prime[0], curv.g,
                                  hyp.lam, hyp.mu, slack)
    if note:
        return not_applicable("schwarz-log-trace-conclusion", note, point=where)

    S, lap_s, grad_sq = _trace_jet(jet, jet_prime)
    lhs = lap_s / S - grad_sq / S**2
    rhs = ((n + 1) * hyp.kappa / (2.0 * n) + hyp.mu / n) * S - hyp.lam
    return make_report(
        "schwarz-log-trace-conclusion", lhs, rhs, MARGIN_TOL,
        point=where, note=f"S={S:.6g} h_max={ext.h_max:.6g}",
    )


def max_principle_s_bound(kappa0: float, s_values, n: int) -> InequalityReport:
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
        "max-principle-trace-ceiling", bound, float(s_values.max()), MARGIN_TOL,
        note=f"samples={s_values.size} kappa0={kappa0:.6g}",
    )


# -- random Kähler-symmetric tensors for trials ------------------------------


def random_kahler_tensor(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random tensor with the full Kähler curvature symmetry set.

    Gaussian entries averaged over the symmetry group: i<->k, jbar<->lbar,
    and the conjugate pair swap.
    """
    raw = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
    sym = raw + np.swapaxes(raw, 0, 2)
    sym = sym + np.swapaxes(sym, 1, 3)
    pair = np.conj(np.swapaxes(np.swapaxes(sym, 0, 1), 2, 3))
    return (sym + pair) / 8.0


def conditioned_negative_tensor(n: int, rng: np.random.Generator,
                                gap: float = 0.5) -> np.ndarray:
    """Random symmetric tensor shifted so sup H = -gap (identity metric).

    Random tensors almost never satisfy the negativity hypothesis on their
    own; subtracting a multiple of the constant-HSC model tensor lowers
    every sectional value uniformly without touching the symmetries.  The
    gap is exact for n <= 2; at n = 3 (exact per pencil line, but a scan over
    lines) sup H exceeds -gap by what the extremizer misses of the maximum.
    """
    eye = np.eye(n, dtype=complex)
    R = random_kahler_tensor(n, rng)
    ext = hsc_extremes_from_tensor(R, eye)
    return R - constant_hsc_tensor(eye, ext.h_max + gap)
