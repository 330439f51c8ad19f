"""Kähler metric fields over the two substrates.

A metric field answers one point query, jet_at(P), with the metric jet

    g[i, j]          g_{i jbar}
    dg[i, j, k]      d g_{i jbar} / dz^k
    ddg[i, j, k, l]  d^2 g_{i jbar} / dz^k dzbar^l

at P, and metric_matrix_at(P) returns g alone.

On the periodic torus the metric is flat + complex Hessian of a real
potential sampled on the grid.  g comes from the spectral Hessian and
(dg, ddg) from one call of the grid's hessian_jets, each computed once
over the whole grid, and a point is a grid multi-index of 2n integers
(taken modulo N) that reads them; real coordinates are not accepted.

On an analytic chart a point is n complex coordinates in the trusted
region (or a stack of them, answered in one batch), and the potential is
a sum of terms c * ell(|F|^2) with F holomorphic and c a real number:
the jet comes from F's holomorphic 2-jet and ell's first four
derivatives, derived symbolically and lambdified into one function of z
once per term shape (ell, F) in a process, with each field's
coefficients c bound at evaluation.

Torus potentials are stored in the zero-mean gauge: dd^c kills constants,
so the mean is pure gauge and fixing it keeps field comparisons and file
round-trips literal.
"""

from __future__ import annotations

import itertools
from functools import cache, cached_property

import numpy as np
import sympy as sp
from sympy.utilities.iterables import multiset_partitions

from .errors import DimensionMismatch, PositivityLoss
from .grids import ChartGeometry, TorusGrid
from .linalg import component_det, component_positivity, hermitian, positivity


class TorusMetricField:
    """g = identity + complex Hessian of a real periodic potential."""

    kind = "periodic-torus"

    def __init__(self, grid: TorusGrid, psi: np.ndarray):
        psi = np.asarray(psi, dtype=float)
        if psi.shape != grid.shape:
            raise DimensionMismatch(f"potential shape {psi.shape} != grid {grid.shape}")
        self.grid = grid
        self.n = grid.n
        self.psi = psi - psi.mean()  # zero-mean gauge
        c = grid.hessian_components(self.psi)  # of g, once the identity is added
        c[:: self.n + 1] += 1.0
        ok, worst, w = component_positivity(c)
        if not ok:
            raise PositivityLoss(
                f"metric loses positivity at point {worst}: eigenvalues {w}",
                point=worst, min_eigenvalue=float(w[0]),
            )
        self.g = hermitian(c)
        self.det_g = component_det(c)

    @cached_property
    def log_det_g(self) -> np.ndarray:
        return np.log(self.det_g)

    @cached_property
    def _jets(self) -> tuple:
        return self.grid.hessian_jets(self.psi)

    @property
    def dg(self) -> np.ndarray:
        """dg[..., i, j, k] = d g_{i jbar} / dz^k over the grid."""
        return self._jets[0]

    @property
    def ddg(self) -> np.ndarray:
        """ddg[..., i, j, k, l] = d^2 g_{i jbar} / dz^k dzbar^l over the grid."""
        return self._jets[1]

    @cached_property
    def ricci(self) -> np.ndarray:
        """Ricci form -dd^c log det g as a Hermitian matrix field."""
        H = self.grid.complex_hessian(self.log_det_g)
        return -H

    # -- point queries at grid indices -------------------------------------

    def jet_at(self, index):
        """(g, dg, ddg) at a grid multi-index, read from the grid arrays."""
        idx = self.grid.index(index)
        return self.g[idx], self.dg[idx], self.ddg[idx]

    def metric_matrix_at(self, index) -> np.ndarray:
        return self.g[self.grid.index(index)]


class ChartMetricField:
    """Metric with potential psi = sum_t ell_t(|F_t|^2) on an analytic chart.

    A term (ell, F), or (scale, ell, F), is a function ell of one real
    variable with real coefficients (c*x, log(1 + x), -log(1 - x); a sympy
    Lambda or an expression in one free symbol), a tuple F of holomorphic
    sympy expressions in z, built from z, real constants and I, and an
    optional real number scale multiplying ell.  The jet needs only F's
    holomorphic 2-jet and ell^(1..4) (_faa_di_bruno).  Each ell is split
    into its numeric coefficient times a coefficient-free ell0 (sympy's
    as_coeff_Mul, once per ell in a process), and c is that coefficient
    times the scale; F's jet and ell0^(1..4) come from the one lambdified
    function of z of the term shapes (ell0, F), derived once per shape in
    a process (_chart_jet), and _eval multiplies each term's ell0^(1..4)
    by its c.
    """

    kind = "analytic-chart"

    def __init__(self, geometry: ChartGeometry, terms, z_symbols):
        self.geometry = geometry
        self.n = geometry.n
        self.z = tuple(z_symbols)
        if len(self.z) != self.n:
            raise DimensionMismatch(f"need {self.n} holomorphic symbols, got {len(self.z)}")
        self.zbar = tuple(sp.Symbol(f"{s.name}bar") for s in self.z)
        split = []  # (c, ell0, F) per term
        for *scale, ell, F in terms:
            c, ell0 = _split_term_function(ell)
            F = tuple(sp.sympify(F))
            if not set().union(*(f.free_symbols for f in F)) <= set(self.z):
                raise ValueError(f"term {F} is not holomorphic in {self.z}")
            split.append((c * float(*scale) if scale else c, ell0, F))
        self.terms = tuple(split)
        self._coefficients = np.array([c for c, _, _ in split])[:, None]
        self._width, self._lambdified = _chart_jet(tuple((ell0, F) for _, ell0, F in split),
                                                   self.z)

    @property
    def potential(self) -> sp.Expr:
        """psi in z and zbar, each c at its exact binary value; conj(F_a) is
        F_a with z -> zbar and I -> -I."""
        conj = dict(zip(self.z, self.zbar)) | {sp.I: -sp.I}
        return sp.Add(*(sp.Rational(c) * ell0(sp.Add(*(f * f.xreplace(conj) for f in F)))
                        for c, ell0, F in self.terms))

    def _eval(self, z: np.ndarray):
        """(g, dg, ddg) at points z of shape (..., n), g unchecked.

        The lambdified function runs on each point's Python scalars, so a
        point's jet does not depend on the batch around it (numpy's scalar
        and array arithmetic round differently); the rest is batched.
        """
        z = np.asarray(z, dtype=complex)
        lead, n, T, K = z.shape[:-1], self.n, len(self.terms), 1 + self.n + self.n**2
        flat = np.array([self._lambdified(*p) for p in z.reshape(-1, n).tolist()], dtype=complex)
        V = flat[:, :-4 * T].reshape(-1, T, self._width, K)
        gram = np.swapaxes(V, -1, -2) @ V.conj()  # <F_s, F_s'>
        ell = flat[:, -4 * T:].real.reshape(-1, T, 4) * self._coefficients
        x = np.concatenate([gram.reshape(-1, T, K * K), np.ones((len(V), T, 1)), ell], axis=-1)
        table, starts = _faa_di_bruno(n)
        monomials = np.multiply.reduce(np.take(x, table, axis=-1), axis=-2)
        jet = np.add.reduceat(monomials, starts, axis=-1).sum(axis=1)
        g = jet[:, :n**2].reshape(lead + (n, n))
        # the Hermitian part; it removes only rounding, as numpy's fused
        # complex products are not conjugate-symmetric bit for bit
        g = (g + np.conj(np.swapaxes(g, -1, -2))) / 2.0
        return (g, jet[:, n**2:n**2 + n**3].reshape(lead + (n, n, n)),
                jet[:, n**2 + n**3:].reshape(lead + (n, n, n, n)))

    def jet_at(self, point):
        """(g, dg, ddg) at a trusted point, or stacked over points (..., n);
        g is checked positive definite."""
        z = np.asarray(point, dtype=complex)
        if z.shape[-1:] != (self.n,):
            raise DimensionMismatch(f"chart point needs {self.n} complex coordinates")
        if not self.geometry.trusted(z):
            raise ValueError(f"point {z} outside the trusted chart region")
        g, dg, ddg = self._eval(z)
        ok, worst, w = positivity(g)
        if not ok:
            raise PositivityLoss(
                f"metric loses positivity at {z[worst]}: eigenvalues {w}",
                point=tuple(z[worst]), min_eigenvalue=float(w[0]),
            )
        return g, dg, ddg

    def metric_matrix_at(self, point) -> np.ndarray:
        return self.jet_at(point)[0]


@cache
def _split_term_function(ell):
    """(c, ell0): a term function as its numeric coefficient c, a float,
    times the coefficient-free Lambda ell0."""
    if not isinstance(ell, sp.Lambda):
        ell = sp.Lambda(tuple(sp.sympify(ell).free_symbols), ell)
    if len(ell.variables) != 1 or ell.expr.has(sp.I):
        raise ValueError(f"term function {ell} needs one variable, real coefficients")
    c, ell0 = ell.expr.as_coeff_Mul()
    return float(c), sp.Lambda(ell.variables, ell0)


@cache
def _chart_jet(shapes: tuple, z: tuple):
    """(width, f) for a chart of terms c * ell0(|F|^2), keyed by the shapes (ell0, F).

    f is the one lambdified function of z giving F's holomorphic 2-jet,
    zero-padded per term to the widest F (width), and ell0^(1..4) at each
    term's x = |F|^2, with F and x handed over as common subexpressions;
    the coefficients c are bound by the field, so fields differing only in
    them share f.
    """
    jets, shared, ell_values, derivatives = [], [], [], {}
    width = max(len(F) for _, F in shapes)
    for ell, F in shapes:
        values, x = [sp.Dummy("f") for _ in F], sp.Dummy("x")
        shared += [*zip(values, F), (x, sp.Add(*(sp.Abs(v) ** 2 for v in values)))]
        for v, f in zip(values, F):  # F_a, F_a,i, F_a,ik: _faa_di_bruno's slots
            d1 = [sp.diff(f, zk) for zk in z]
            d2 = {}
            for i, k in itertools.combinations_with_replacement(range(len(z)), 2):
                d2[i, k] = d2[k, i] = sp.diff(d1[i], z[k])  # partials commute
            jets += [v, *d1, *(d2[i, k] for i in range(len(z)) for k in range(len(z)))]
        # zero components pad every term to the widest F
        jets += [sp.S.Zero] * ((1 + len(z) + len(z) ** 2) * (width - len(F)))
        if ell not in derivatives:  # in ell's own variable, once per function
            derivatives[ell] = [ell.expr]
            for _ in range(4):
                derivatives[ell].append(sp.diff(derivatives[ell][-1], *ell.variables))
        ell_values += [d.xreplace({ell.variables[0]: x}) for d in derivatives[ell][1:]]
    return width, sp.lambdify(z, jets + ell_values, modules="numpy",
                              cse=lambda exprs: (shared, exprs), docstring_limit=0)


@cache
def _faa_di_bruno(n: int):
    """Gather tables of the chart jet (g, dg, ddg), flattened.

    Entry (i, j[, k[, l]]) differentiates ell(x) in z_i, zbar_j, z_k,
    zbar_l.  By Faa di Bruno it is a sum over the set partitions of these
    positions of monomials: ell^(#blocks)(x) times, per block, x
    differentiated in the block's positions, which is <F_I, F_J> =
    sum_a F_a,I conj(F_a,J) for the block's holomorphic indices I and
    barred indices J.  With the slots s = (), (i,), (i, k) of F, F_i, F_ik,
    the factors are gathered from x = (Gram matrix flattened, 1,
    ell^(1..4)): table[:4, m] holds monomial m's flat Gram indices s_I * K
    + s_J (K*K, the 1, pads to 4 blocks), table[4, m] the index of
    ell^(#blocks), and starts[e] the first monomial of entry e.
    """
    r = range(n)
    slots = [()] + [(i,) for i in r] + [(i, k) for i in r for k in r]
    slot = {s: m for m, s in enumerate(slots)}
    K = len(slots)
    table, starts = [], []
    for entry in (e for m in (2, 3, 4) for e in itertools.product(r, repeat=m)):
        starts.append(len(table))
        for partition in multiset_partitions(list(range(len(entry)))):
            flat = [slot[tuple(sorted(entry[q] for q in block if q % 2 == 0))] * K
                    + slot[tuple(sorted(entry[q] for q in block if q % 2 == 1))]
                    for block in partition]
            table.append(flat + [K * K] * (4 - len(flat)) + [K * K + len(partition)])
    return np.array(table).T, np.array(starts)
