"""Pointwise verification of the trace-inequality chain.

The chain controls S = tr_{omega'} omega for a pair of Kähler metrics:
the Chern-Lu identity for Delta' S (any ambient), a Cauchy-Schwarz step on
its third-order term, a lower bound for the mixed-curvature term in terms
of the ambient holomorphic sectional curvature (with sharp constant
(n+1)/(2n)), a lower bound for the Ricci term from a Ricci hypothesis, and
the resulting maximum-principle ceiling for S.  Every term is a
contraction with the inverse comparison metric A = g'^-1 (linalg's
cofactor inverse, taken once per check); no frame is built.  Every
pointwise check takes a stack: tensors and metrics (..., n, n)
broadcast with kappa or lam, and field points stack as grid
multi-indices or chart points (jets from one jet_at query per field).  One
point is a batch of one and returns one report (a pair for the identity),
a stack a list in stack order.

Every check returns an InequalityReport rather than a bare bool; reports
that do not apply (hypotheses fail, kappa_0 <= 0) are first-class
"not-applicable" outcomes, never errors.

Each check owns its verdict threshold; none can be loosened by a caller:

* MARGIN_TOL = 1e-9: the one-sided margins of royden_margin,
  ricci_term_margin, the third-order Cauchy-Schwarz step,
  schwarz_conclusion_check and max_principle_s_bound.
* IDENTITY_RTOL = 1e-10: the two-sided Laplacian identity, relative to
  max(1, |rhs|).
* RICCI_HYPOTHESIS_RTOL = 1e-9: the Ricci hypothesis screen of
  ricci_term_margin, relative to the data's scale max(1, |Ric'|, |g'|).
* SCHWARZ_HYPOTHESIS_SLACK = 1e-8: both hypothesis screens of
  schwarz_conclusion_check (relative to that scale for the Ricci bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import (_extremes, _frames, _jet_extremes, _ricci, constant_hsc_tensor,
                        curvature_from_derivatives)
from .errors import DimensionMismatch
from .fields import TorusMetricField
from .linalg import (component_eigvalsh, component_inverse, components, hermitian, inv,
                     require_positive)

MARGIN_TOL = 1e-9
IDENTITY_RTOL = 1e-10
RICCI_HYPOTHESIS_RTOL = 1e-9
SCHWARZ_HYPOTHESIS_SLACK = 1e-8


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
            return None if math.isnan(x) else float(x)

        return {"name": self.name, "point": None if self.point is None else list(self.point),
                "lhs": _f(self.lhs), "rhs": _f(self.rhs), "margin": _f(self.margin),
                "tol": float(self.tol), "two_sided": self.two_sided, "status": self.status,
                "note": self.note}


def make_report(name, lhs, rhs, tol, point=None, two_sided=False, note="") -> InequalityReport:
    return InequalityReport(name=name, lhs=float(lhs), rhs=float(rhs),
                            margin=float(lhs) - float(rhs), tol=float(tol),
                            point=_point_tuple(point), two_sided=two_sided, note=note)


def not_applicable(name, note, point=None) -> InequalityReport:
    nan = float("nan")
    return InequalityReport(name=name, lhs=nan, rhs=nan, margin=nan, tol=0.0,
                            point=_point_tuple(point), applicable=False, note=note)


def _point_tuple(point):
    if point is None:
        return None
    arr = np.asarray(point).reshape(-1)
    if np.iscomplexobj(arr):
        arr = np.stack([arr.real, arr.imag], axis=-1).reshape(-1)
    return tuple(float(x) for x in arr)


def _reports(report, *columns):
    """report(*row) for each row of the broadcast columns, in C order, with
    Python floats: a list, or one report when no column has a stack axis."""
    rows = np.broadcast(*columns)
    if not rows.shape:
        return report(*map(float, columns))
    return [report(*map(float, row)) for row in rows]


def _pair_jets(omega, omega_prime, point) -> tuple:
    """(single, where, jet, jet_prime) at a stack of points, one point being a stack
    of one; where holds the reports' points, real coordinates on a torus."""
    single = np.ndim(point) == 1
    points = where = [point] if single else point
    if isinstance(omega, TorusMetricField):
        if omega.grid.shape != omega_prime.grid.shape:
            raise DimensionMismatch("fields live on different grids")
        where = omega.grid.coords(points)
    return single, where, omega.jet_at(points), omega_prime.jet_at(points)


# -- curvature-term bound (sharp constant (n+1)/(2n)) -----------------------


def royden_margin(R, g, g_prime, kappa):
    """Check -R(A, A) >= (n+1) kappa / (2n) * S^2 with A = g'^{-1}, S = tr(A g).

    R is the ambient curvature tensor, g the ambient metric, g_prime the
    comparison metric.  The unbarred slots contract the upper-index inverse
    g'^{i jbar} = conj(A)[i, j], so the left side is
    -Re sum R[i,j,k,l] conj(A)[i,j] conj(A)[k,l]: in a frame with g = I and
    g' = diag(d) it is -sum_{ik} R_{ii kk} / (d_i d_k), and S = sum 1/d_i.
    g, then g', is held to linalg.require_positive, which raises
    PositivityLoss for one that fails the policy.  kappa must be a certified
    nonnegative floor for -H(omega); the bound is vacuous (and rejected) for
    kappa < 0.
    """
    pair = np.array(np.broadcast_arrays(g, g_prime), dtype=complex)
    g, both = pair[0], components(pair)  # one conversion for the pair
    require_positive(both[:, 0], "g")
    require_positive(c := both[:, 1], "g_prime")
    n, A = g.shape[-1], hermitian(component_inverse(c))
    curvature = np.einsum("...ijkl,...ji,...lk->...", R, A, A).real  # conj(A)[i, j] = A[j, i]
    S = np.einsum("...ij,...ji->...", A, g).real

    def report(c, s, k):
        if k < 0.0:
            raise ValueError(f"kappa must be >= 0, got {k}")
        return make_report("hsc-trace-lower-bound", -c, (n + 1) * k / (2.0 * n) * s**2,
                           MARGIN_TOL, note=f"S={s:.6g} kappa={k:.6g}")

    return _reports(report, curvature, S, kappa)


def _ricci_hypothesis(ric_prime, g_prime, g, lam, mu) -> tuple:
    """Per point: the least eigenvalue w of Ric' + lam g' - mu g, max|Ric'| and max|g'|."""
    lam, mu = np.asarray(lam, dtype=float), np.asarray(mu, dtype=float)
    pencil = ric_prime + lam[..., None, None] * g_prime - mu[..., None, None] * g
    w = component_eigvalsh(components(pencil))[..., 0]
    return w, np.abs(ric_prime).max(axis=(-2, -1)), np.abs(g_prime).max(axis=(-2, -1))


def _ricci_note(slack: float, w: float, ric_max: float, g_max: float) -> str:
    """Why Ric' + lam g' - mu g >= 0 fails (w < -slack * max(1, |Ric'|, |g'|)), or ""."""
    fails = w < -slack * max(1.0, ric_max, g_max)
    return f"Ricci hypothesis fails: min eig {w:.3e} < 0" if fails else ""


def ricci_term_margin(ric_prime, g_prime, lam, mu):
    """Check tr(A Ric' A) >= -lam * S + (mu/n) * S^2 with A = g'^{-1}, S = tr A.

    Inputs are expressed in an ambient-orthonormal frame (g = identity); in
    an eigenframe of g' = diag(d) the left side is sum_i R'_{ii} / d_i^2.
    g' is held to linalg.require_positive, as in royden_margin.  The Ricci
    hypothesis Ric' + lam g' - mu g >= 0 is verified next, to
    RICCI_HYPOTHESIS_RTOL; data violating it yields a not-applicable report,
    not a failure.
    """
    ric_prime, g_prime = np.asarray(ric_prime, dtype=complex), np.asarray(g_prime, dtype=complex)
    c = components(g_prime)
    require_positive(c, "g_prime")
    n, A = g_prime.shape[-1], hermitian(component_inverse(c))
    screen = _ricci_hypothesis(ric_prime, g_prime, np.eye(n), lam, mu)

    def report(lhs, s, la, m, *hypothesis):
        if m < 0.0:
            raise ValueError(f"mu must be >= 0, got {m}")
        note = _ricci_note(RICCI_HYPOTHESIS_RTOL, *hypothesis)
        if note:
            return not_applicable("ricci-trace-lower-bound", note)
        return make_report("ricci-trace-lower-bound", lhs, -la * s + (m / n) * s**2, MARGIN_TOL,
                           note=f"S={s:.6g} lam={la:.6g} mu={m:.6g}")

    return _reports(report, np.einsum("...ij,...jk,...ki->...", A, ric_prime, A).real,
                    np.einsum("...ii->...", A).real, lam, mu, *screen)


# -- the trace S = tr_{omega'} omega and its derivatives ----------------------


def _trace_jet(jet, jet_prime, A):
    """S = tr(g'^-1 g), Delta' S and |d S|^2_{g'}, in closed form.

    Takes the metric jets (g, dg, ddg) of omega and omega', at one point or
    stacked over leading axes, and A = g'^-1.  With subscripts k, lbar for
    d/dz^k, d/dzbar^l,

        d_k S = tr(A g_k) - tr(A g'_k A g),
        d_k d_lbar S = tr(A g_{k lbar}) - tr(A g'_lbar A g_k) - tr(A g'_k A g_lbar)
                       - tr(A g'_{k lbar} A g)
                       + tr(A g'_lbar A g'_k A g) + tr(A g'_k A g'_lbar A g).

    Returns arrays (S, Delta' S, |d S|^2_{g'}) of the stack's shape, with
    Delta' S = tr(A dd S) and |d S|^2_{g'} = conj(dS) . A dS.
    """
    g, dg, ddg = jet
    gp, dgp, ddgp = jet_prime
    B = A @ g
    # Gk[k] = A g_k and Gl[l] = A g_lbar, with (d_lbar g)_{i jbar} =
    # conj(d_l g_{j ibar}); Pk and Pl are the same for g'.
    Gk = np.einsum("...ab,...bck->...kac", A, dg)
    Gl = np.einsum("...ab,...bcl->...lac", A, np.conj(np.swapaxes(dg, -3, -2)))
    Pk = np.einsum("...ab,...bck->...kac", A, dgp)
    Pl = np.einsum("...ab,...bcl->...lac", A, np.conj(np.swapaxes(dgp, -3, -2)))
    S = np.einsum("...aa->...", B).real
    dS = np.einsum("...kaa->...k", Gk) - np.einsum("...kab,...ba->...k", Pk, B)
    ddS = (np.einsum("...ab,...bakl->...kl", A, ddg)
           - np.einsum("...lab,...kba->...kl", Pl, Gk)
           - np.einsum("...kab,...lba->...kl", Pk, Gl)
           - np.einsum("...ab,...bckl,...ca->...kl", A, ddgp, B)
           + np.einsum("...lab,...kbc,...ca->...kl", Pl, Pk, B)
           + np.einsum("...kab,...lbc,...ca->...kl", Pk, Pl, B))
    lap_s = np.einsum("...ab,...ba->...", A, ddS).real
    grad_sq = np.einsum("...k,...kl,...l->...", np.conj(dS), A, dS).real
    return S, lap_s, grad_sq


# -- the Laplacian identity and its Cauchy-Schwarz step ----------------------


def laplacian_identity_check(omega, omega_prime, index):
    """Exact-identity and Cauchy-Schwarz reports for Delta' S at a point.

    Any two torus fields on one grid (index a grid multi-index) or chart
    fields.  With g'^{i jbar} = conj(A)[i, j], A = g'^-1, and D = Gamma -
    Gamma' for the Chern connections Gamma^a_{ik} = sum_b conj(g^-1)[a, b]
    dg[k, b, i], the Chern-Lu identity reads

        Delta' S = g'^{i lbar} g'^{k jbar} R'_{k lbar} g_{i jbar}
                   - g'^{i jbar} g'^{k lbar} R_{i jbar k lbar}
                   + g'^{i jbar} g'^{k lbar} g_{a bbar} D^a_{ik} conj(D^b_{jl}):

    a Ricci term, the mixed-curvature term of royden_margin and a
    third-order term; a flat ambient has R = 0, D = -Gamma'.  Returns a pair:

    * "laplacian-trace-identity": Delta' S = tr(A d dbar S) from the
      two metric jets (_trace_jet) against the three terms, two-sided at
      IDENTITY_RTOL * max(1, |rhs|).
    * "third-order-cauchy-schwarz": the third-order term against
      |grad' S|^2 / S.
    """
    single, where, jet, jet_prime = _pair_jets(omega, omega_prime, index)
    (g, dg, _), (gp, dgp, ddgp) = jet, jet_prime
    A = inv(gp)  # g'^-1, shared by every term and the trace jet
    Ac = np.conj(A)
    D = (np.einsum("...ab,...kbi->...aik", np.conj(inv(g)), dg)
         - np.einsum("...ab,...kbi->...aik", Ac, dgp))
    ricci_prime = _ricci(A, dgp, ddgp)
    ricci = np.einsum("...il,...kj,...kl,...ij->...", Ac, Ac, ricci_prime, g)
    curvature = np.einsum("...ij,...kl,...ijkl->...", Ac, Ac, curvature_from_derivatives(*jet))
    third = np.einsum("...ij,...kl,...ab,...aik,...bjl->...", Ac, Ac, g, D, np.conj(D)).real
    rhs = (ricci - curvature).real + third
    S, lap_s, grad_sq = _trace_jet(jet, jet_prime, A)
    pairs = [(make_report("laplacian-trace-identity", lap, r, IDENTITY_RTOL * max(1.0, abs(r)),
                          point=p, two_sided=True),
              make_report("third-order-cauchy-schwarz", t, grad / s, MARGIN_TOL, point=p,
                          note=f"S={s:.6g}"))
             for p, lap, r, t, s, grad in zip(where, lap_s, rhs, third, S, grad_sq)]
    return pairs[0] if single else pairs


# -- assembled Schwarz-lemma conclusion --------------------------------------


def schwarz_conclusion_check(omega, omega_prime, hyp: SchwarzHypotheses, point,
                             fd_step: float = None):
    """Check Delta' log S >= ((n+1) kappa / (2n) + mu/n) S - lam at a point.

    Both hypotheses are re-verified at the point, each with a slack of
    SCHWARZ_HYPOTHESIS_SLACK, before comparing: the ambient HSC ceiling
    H <= -kappa (curvature._jet_extremes, over the whole stack) and the Ricci
    bound Ric(omega') + lam omega' - mu omega >= 0 (by eigenvalue check).
    If either fails the report is not-applicable.  The left side is exact:
    Delta' log S = Delta' S / S - |d S|^2_{g'} / S^2 from the two metric
    jets.  On a torus the point is a grid multi-index and the report carries
    its real coordinates.  fd_step is accepted for old callers and not read.
    """
    n = omega.n
    single, where, jet, jet_prime = _pair_jets(omega, omega_prime, point)
    A = inv(jet_prime[0])  # g'^-1, shared by the Ricci screen and the trace jet
    screen = _ricci_hypothesis(_ricci(A, *jet_prime[1:]), jet_prime[0], jet[0], hyp.lam, hyp.mu)
    S, lap_s, grad_sq = _trace_jet(jet, jet_prime, A)
    lhs = lap_s / S - grad_sq / S**2
    rhs = ((n + 1) * hyp.kappa / (2.0 * n) + hyp.mu / n) * S - hyp.lam
    reports = []
    for p, ext, a, b, s, *row in zip(where, _jet_extremes(*jet), lhs, rhs, S, *screen):
        note = _ricci_note(SCHWARZ_HYPOTHESIS_SLACK, *row)
        if ext.h_max > -hyp.kappa + SCHWARZ_HYPOTHESIS_SLACK:
            note = f"HSC hypothesis fails: max H {ext.h_max:.6g} > -kappa {-hyp.kappa:.6g}"
        reports.append(
            not_applicable("schwarz-log-trace-conclusion", note, point=p) if note else
            make_report("schwarz-log-trace-conclusion", a, b, MARGIN_TOL, point=p,
                        note=f"S={s:.6g} h_max={ext.h_max:.6g}"))
    return reports[0] if single else reports


def max_principle_s_bound(kappa0: float, s_values, n: int) -> InequalityReport:
    """Check sup S <= 2n / ((n+1) kappa0) over the supplied samples.

    kappa0 <= 0 makes the ceiling vacuous: not-applicable, never a failure.
    """
    s_values = np.asarray(s_values, dtype=float).reshape(-1)
    if s_values.size == 0:
        raise ValueError("need at least one S sample")
    if kappa0 <= 0.0:
        return not_applicable("max-principle-trace-ceiling",
                              f"kappa0 = {kappa0:.6g} <= 0: negativity floor absent")
    return make_report("max-principle-trace-ceiling", 2.0 * n / ((n + 1) * kappa0),
                       s_values.max(), MARGIN_TOL,
                       note=f"samples={s_values.size} kappa0={kappa0:.6g}")


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


def conditioned_negative_tensor(n: int, rng: np.random.Generator, gap=0.5) -> np.ndarray:
    """Random symmetric tensor shifted so sup H = -gap (identity metric).

    Random tensors almost never satisfy the negativity hypothesis on their
    own; subtracting a multiple of the constant-HSC model tensor lowers
    every sectional value uniformly without touching the symmetries.  The
    gap is exact for n <= 2; at n = 3 (exact per pencil line, but a scan over
    lines) sup H exceeds -gap by what the extremizer misses of the maximum.
    A gap array gives a stack of its shape, one tensor per gap, extremized
    in one call.
    """
    gap = np.asarray(gap, dtype=float)
    eye = np.eye(n, dtype=complex)
    R = np.array([random_kahler_tensor(n, rng) for _ in range(gap.size)])
    h_max = np.array([e.h_max for e in _extremes(R, _frames(np.broadcast_to(eye, R.shape[:-2])))])
    shift = (h_max + gap.reshape(-1))[:, None, None, None, None] * constant_hsc_tensor(eye, 1.0)
    return (R - shift).reshape(gap.shape + (n,) * 4)
