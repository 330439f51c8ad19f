"""Kähler metric fields over the two substrates.

A metric field answers one point query, jet_at(P), with the metric jet

    g[i, j]          g_{i jbar}
    dg[i, j, k]      d g_{i jbar} / dz^k
    ddg[i, j, k, l]  d^2 g_{i jbar} / dz^k dzbar^l

at P, and metric_matrix_at(P) returns g alone.  jet_at is the one jet
route on both substrates, and a field's substrate is field.grid (torus)
or field.geometry (chart).

On the periodic torus the metric is flat + complex Hessian of a real
potential sampled on the grid.  A point is a grid multi-index of 2n
integers (taken modulo N), or a stack of them (..., 2n); real coordinates
are not accepted.  g, the spectral Hessian over the whole grid, is held as
linalg components (n*n,) + grid shape, and made Hermitian at queried points.
(dg, ddg) at a point of stride s = gcd(N, its 2n indices) come from the
grid's hessian_jets on the stride-s sublattice, computed once per stride
and kept on the field; stride 1 is the full-grid jets.  So a sweep of a
sublattice never builds the full-grid jets, a repeated sweep folds
nothing, and a point's jets do not depend on its batch.

On an analytic chart a point is n complex coordinates in the trusted
region (or a stack of them, answered in one batch), and the potential is
a sum of terms c * ell(|F|^2) with F holomorphic and c a real number:
the jet comes from F's holomorphic 2-jet and ell's first four
derivatives, in closed forms read once per component of F in a process,
with each field's coefficients c bound at evaluation.

Torus potentials are stored in the zero-mean gauge: dd^c kills constants,
so the mean is pure gauge and fixing it keeps field comparisons and file
round-trips literal.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property

import numpy as np
import sympy as sp

from .errors import DimensionMismatch
from .grids import ChartGeometry, TorusGrid
from .linalg import component_det, components, hermitian, require_positive


class TorusMetricField:
    """g = identity + complex Hessian of a real periodic potential."""

    def __init__(self, grid: TorusGrid, psi: np.ndarray):
        psi = np.asarray(psi, dtype=float)
        if psi.shape != grid.shape:
            raise DimensionMismatch(f"potential shape {psi.shape} != grid {grid.shape}")
        self.grid = grid
        self.n = grid.n
        self.psi = psi - psi.mean()  # zero-mean gauge
        self.g = grid.hessian_components(self.psi)  # of g, once the identity is added
        self.g[:: self.n + 1] += 1.0
        require_positive(self.g, "metric")
        self.det_g = component_det(self.g)
        self._folds = {}  # stride -> (T, Q) on its sublattice

    @cached_property
    def log_det_g(self) -> np.ndarray:
        return np.log(self.det_g)

    def _jets(self, stride: int) -> tuple:
        """The grid's hessian_jets of psi on the stride-s sublattice, made
        once per stride and kept on the field."""
        if stride not in self._folds:
            self._folds[stride] = self.grid.hessian_jets(self.psi, stride)
        return self._folds[stride]

    # -- point queries at grid indices -------------------------------------

    def jet_at(self, index):
        """(g, dg, ddg) at a grid multi-index, or stacked over a stack of them
        (..., 2n).  g is assembled from the components at the points; dg and
        ddg at a point of stride s = gcd(N, its 2n indices) from the jets of
        the stride-s sublattice (the grid's hessian_jets), made once per
        distinct stride and kept on the field, stride 1 being the full-grid
        jets.  So a point's jets depend on the field and the point only."""
        idx = self.grid.index(index)
        strides = np.gcd.reduce(np.stack(idx), axis=0, initial=self.grid.N)
        dg = np.empty(strides.shape + (self.n,) * 3, dtype=complex)
        ddg = np.empty(strides.shape + (self.n,) * 4, dtype=complex)
        for s in np.unique(strides).tolist():
            at = strides == s
            T, Q = self._jets(s)
            sub = tuple(i[at] // s for i in idx)
            dg[at], ddg[at] = T[sub], Q[sub]
        return hermitian(self.g[(slice(None),) + idx]), dg, ddg

    def metric_matrix_at(self, index) -> np.ndarray:
        return hermitian(self.g[(slice(None),) + self.grid.index(index)])


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
    times the scale.  ell0 is x, log(1 + x) or log(1 - x) (_ELL0), and each
    component of F a number times a rational power of a polynomial, read
    once per component in a process (_component); other terms raise ValueError.
    """

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
        # a point's row: each term's [F_a, F_a,i, F_a,ik] padded to the widest F, then
        # each term's (1, c ell0^(1..4))
        width, K = max(len(F) for _, _, F in split), 1 + self.n + self.n**2
        self._row, self._monomials, self._chains, self._ells = [], [], [], []
        live = []  # per term, whether each Gram entry <F_s, F_s'> can be nonzero
        for c, ell0, F in split:
            self._ells.append((len(self._row), K * len(F), c, _ELL0[ell0]))
            gram = np.zeros((K, K), dtype=bool)
            for constants, monomials, chain, nonzero in (_component(f, self.z) for f in F):
                self._monomials += [(len(self._row) + s, c, e) for s, c, e in monomials]
                self._chains += [(len(self._row), chain)] if chain else []
                self._row += constants
                gram |= np.outer(nonzero, nonzero)
            self._row += [0] * K * (width - len(F))
            live.append(tuple(gram.flat))
        self._gather = _term_tables(self.n, tuple(live))

    @property
    def potential(self) -> sp.Expr:
        """psi in z and zbar, each c at its exact binary value; conj(F_a) is
        F_a with z -> zbar and I -> -I."""
        conj = dict(zip(self.z, self.zbar)) | {sp.I: -sp.I}
        return sp.Add(*(sp.Rational(c) * ell0.subs(_X, sum(f * f.xreplace(conj) for f in F))
                        for c, ell0, F in self.terms))

    def _eval(self, z: np.ndarray):
        """(g, dg, ddg) at points z of shape (..., n), g unchecked.

        F's 2-jets (zero-padded to the widest F) and ell0^(1..4) at x = |F|^2 run on Python
        scalars per point, so a jet does not depend on its batch.
        """
        z = np.asarray(z, dtype=complex)
        lead, n, T, K = z.shape[:-1], self.n, len(self.terms), 1 + self.n + self.n**2
        rows = []
        for p in z.reshape(-1, n).tolist():
            row = self._row.copy()
            for s, c, e in self._monomials:
                row[s] += c * math.prod(map(pow, p, e))
            for s, chain in self._chains:
                row[s:s + K] = chain(row[s:s + K])
            for s, m, c, ell in self._ells:
                row += [1.0] + [c * d for d in ell(sum([abs(f) ** 2 for f in row[s:s + m:K]]))]
            rows.append(row)
        flat = np.array(rows, dtype=complex)
        V = flat[:, :-5 * T].reshape(len(flat), T, -1, K)
        gram = V.swapaxes(-1, -2) @ V.conj()  # <F_s, F_s'>
        x = np.concatenate([gram.reshape(len(flat), -1), flat[:, -5 * T:]], axis=-1)
        table, starts = self._gather
        jet = np.add.reduceat(np.multiply.reduce(x.take(table, axis=-1), axis=1), starts, axis=-1)
        g = jet[:, :n**2].reshape(lead + (n, n))
        # the Hermitian part; it removes only rounding, as numpy's fused
        # complex products are not conjugate-symmetric bit for bit
        g = (g + g.swapaxes(-1, -2).conj()) / 2.0
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
        if not z.size:  # an empty stack: empty jets, as on a torus
            return tuple(np.zeros(z.shape[:-1] + (self.n,) * m, dtype=complex) for m in (2, 3, 4))
        g, dg, ddg = self._eval(z)
        require_positive(components(g), "metric", points=z)
        return g, dg, ddg

    def metric_matrix_at(self, point) -> np.ndarray:
        return self.jet_at(point)[0]


_X = sp.Symbol("x")
_ELL0 = {_X: lambda x: (1.0, 0.0, 0.0, 0.0),  # ell0^(1..4)(x) of the coefficient-free ell0(x)
         sp.log(1 + _X): lambda x: (1 / (u := 1 + x), -1 / u**2, 2 / u**3, -6 / u**4),
         sp.log(1 - _X): lambda x: (-1 / (u := 1 - x), -1 / u**2, -2 / u**3, -6 / u**4)}


@cache
def _split_term_function(ell):
    """(c, ell0): a term function as its numeric coefficient c, a float,
    times a coefficient-free ell0, an expression in _X keying _ELL0."""
    if not isinstance(ell, sp.Lambda):
        ell = sp.Lambda(tuple(sp.sympify(ell).free_symbols), ell)
    if len(ell.variables) != 1 or ell.expr.has(sp.I):
        raise ValueError(f"term function {ell} needs one variable, real coefficients")
    c, ell0 = ell.expr.xreplace({ell.variables[0]: _X}).as_coeff_Mul()
    if ell0 not in _ELL0:
        raise ValueError(f"term function {ell} is not a number times x, log(1 + x) or log(1 - x)")
    return float(c), ell0


@cache
def _component(f, z: tuple):
    """(constants, monomials, chain, nonzero) of F = beta * P^p, P a polynomial in
    z, p rational (P = F for a polynomial): [P, P_i, P_ik] at a point is constants
    plus monomials (slot, c, exponents); chain maps it to [F, F_i, F_ik] (None
    if P = F) by F_i = beta p P^(p-1) P_i, F_ik = beta p [(p-1) P^(p-2) P_i P_k + P^(p-1) P_ik];
    nonzero[s] is False where slot s of [F, F_i, F_ik] is 0 at every point."""
    beta, rest = f.as_independent(*z, as_Add=False)
    P, p = (f, sp.S.One) if f.is_polynomial(*z) else rest.as_base_exp()
    if not (P.is_polynomial(*z) and p.is_Rational):
        raise ValueError(f"term component {f} is not a number times a power of a polynomial")
    r, t = range(len(z)), dict(sp.Poly(P, *z).terms())
    partial = lambda t, i: {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in t.items() if e[i]}
    tables = [t] + [partial(t, i) for i in r] + [partial(partial(t, i), k) for i in r for k in r]
    live = [any(map(any, t)) for t in tables]  # constant tables are valued here, once
    constants = [0 if v else complex(sum(t.values())) for v, t in zip(live, tables)]
    monomials = [(s, complex(c), e) for s, t in enumerate(tables) if live[s] for e, c in t.items()]
    nonzero = [v or c != 0 for v, c in zip(live, constants)]
    if p == 1:
        return constants, monomials, None, nonzero
    d = nonzero[1:1 + len(r)]  # F_i needs P_i, and F_ik P_i and P_k or P_ik
    nonzero = [True] + d + [d[i] and d[k] or nonzero[1 + len(r) * (1 + i) + k]
                            for i in r for k in r]
    b0, b1, b2, e0, e1, e2 = map(complex, (beta, beta * p, beta * p * (p - 1), p, p - 1, p - 2))

    def chain(v):
        P, *d = v
        q1, q2 = b1 * P ** e1, b2 * P ** e2
        return ([b0 * P ** e0] + [q1 * d[i] for i in r]
                + [q2 * d[i] * d[k] + q1 * d[len(r) + len(r) * i + k] for i in r for k in r])
    return constants, monomials, chain, nonzero


@cache
def _set_partitions(m: int) -> list:
    """The set partitions of range(m), lists of blocks, in the lexicographic order
    of their restricted growth strings s (q in block s[q]), as sympy lists them."""
    strings = [s for s in itertools.product(range(m), repeat=m)
               if all(s[q] <= max(s[:q], default=-1) + 1 for q in range(m))]
    return [[[q for q in range(m) if s[q] == b] for b in range(max(s, default=-1) + 1)]
            for s in strings]


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
        for partition in _set_partitions(len(entry)):
            flat = [slot[tuple(sorted(entry[q] for q in block if q % 2 == 0))] * K
                    + slot[tuple(sorted(entry[q] for q in block if q % 2 == 1))]
                    for block in partition]
            table.append(flat + [K * K] * (4 - len(flat)) + [K * K + len(partition)])
    return np.array(table).T, np.array(starts)


@cache
def _term_tables(n: int, live: tuple):
    """_faa_di_bruno(n) for a sum of terms, gathering from x = (each term's Gram
    matrix flattened, then each term's (1, c ell0^(1..4))), each entry's monomials
    of all terms adjacent for one reduceat.  Monomials with a Gram entry <F_s, F_s'>
    of term t that is 0 everywhere (live[t][s * K + s'] False) are dropped; an
    entry left with none keeps its first, which reads 0."""
    table, starts = _faa_di_bruno(n)
    T, K2 = len(live), (1 + n + n * n) ** 2
    keep = (np.array(live)[:, np.minimum(table[:4], K2 - 1)] | (table[:4] >= K2)).all(axis=1)
    keep[0, starts[~np.logical_or.reduceat(keep.any(axis=0), starts)]] = True
    entry = np.repeat(np.arange(len(starts)), np.diff(starts, append=table.shape[1]))
    shift = lambda t: np.where(table < K2, table + t * K2, table + (T - 1) * K2 + 5 * t)
    columns = np.concatenate([shift(t)[:, k] for t, k in enumerate(keep)], axis=1)
    entries = np.concatenate([entry[k] for k in keep])
    order = np.argsort(entries, kind="stable")
    return columns[:, order], np.searchsorted(entries[order], np.arange(len(starts)))
