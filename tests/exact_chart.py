"""The tests' one exact reference for chart metrics: sympy differentiation
of a chart field's potential, taken at an exact point to 30 digits.

It shares nothing with the program's jet route (term shapes, closed-form
jets, Faa di Bruno gathers, the curvature module): the jet comes straight
from the potential, and the curvature contractions below are written out
on their own.  A float coordinate is taken at its binary value, so the
reference sits at the very point the program evaluates.
"""

import functools

import numpy as np
import sympy as sp

DIGITS = 30


def exact_number(p):
    """p as an exact sympy number; a float part is taken at its binary value."""
    if isinstance(p, sp.Basic):
        return p
    p = complex(p)
    return sp.Rational(p.real) + sp.I * sp.Rational(p.imag)


def exact_jet(field, point):
    """(g, dg, ddg) of a chart field at a point, each entry a sympy
    derivative of field.potential evaluated to DIGITS digits."""
    z, zb, n = field.z, field.zbar, field.n
    pt = [exact_number(p) for p in point]
    subs = dict(zip(z, pt)) | dict(zip(zb, map(sp.conjugate, pt)))

    @functools.cache
    def partial(hol, anti):
        variables = [z[i] for i in hol] + [zb[j] for j in anti]
        return complex(sp.N(sp.diff(field.potential, *variables), DIGITS, subs=subs))

    def value(hol, anti):  # partials commute
        return partial(tuple(sorted(hol)), tuple(sorted(anti)))

    r = range(n)
    g = np.array([[value((i,), (j,)) for j in r] for i in r])
    dg = np.array([[[value((i, k), (j,)) for k in r] for j in r] for i in r])
    ddg = np.array([[[[value((i, k), (j, l)) for l in r] for k in r]
                     for j in r] for i in r])
    return g, dg, ddg


def exact_curvature(field, point):
    """(g, R) at a point from the exact jet, with
    R[i, j, k, l] = R_{i jbar k lbar}
                  = -d_k dbar_l g_{i jbar} + g^{q p} d_k g_{i qbar} dbar_l g_{p jbar},
    g^{q p} the (q, p) entry of g's inverse and dbar_l g_{p jbar} = conj(dg[j, p, l])."""
    g, dg, ddg = exact_jet(field, point)
    R = -ddg + np.einsum("iqk,qp,jpl->ijkl", dg, np.linalg.inv(g), dg.conj())
    return g, R


def exact_hsc(field, point, eta) -> float:
    """H(eta) = R(eta, eta-bar, eta, eta-bar) / |eta|_g^4 at a point."""
    g, R = exact_curvature(field, point)
    eta = np.asarray(eta, dtype=complex)
    q = np.einsum("ijkl,i,j,k,l->", R, eta, eta.conj(), eta, eta.conj())
    return float((q / np.einsum("ij,i,j->", g, eta, eta.conj()) ** 2).real)


def exact_ricci_ratio(field, point) -> float:
    """Ric_{1 1bar} / g_{1 1bar} at a point, Ric_{k lbar} = g^{j i} R_{i jbar k lbar}."""
    g, R = exact_curvature(field, point)
    ricci = np.einsum("ji,ijkl->kl", np.linalg.inv(g), R)
    return float((ricci[0, 0] / g[0, 0]).real)
