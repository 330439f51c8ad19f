"""Kähler metric fields over the two substrates.

A metric field answers one point query, jet_at(P), with the metric jet

    g[i, j]          g_{i jbar}
    dg[i, j, k]      d g_{i jbar} / dz^k
    ddg[i, j, k, l]  d^2 g_{i jbar} / dz^k dzbar^l

at P, and metric_matrix_at(P) returns g alone.

On the periodic torus the metric is flat + complex Hessian of a real
potential sampled on the grid.  g, dg and ddg are spectral derivatives
over the whole grid, each computed once, and a point is a grid
multi-index of 2n integers (taken modulo N) that reads them; real
coordinates are not accepted.  On an analytic chart a point is n complex
coordinates in the trusted region, the potential is a closed-form
symbolic expression in z and zbar treated as independent variables, and
every derivative is a lambdified exact formula.

Torus potentials are stored in the zero-mean gauge: dd^c kills constants,
so the mean is pure gauge and fixing it keeps field comparisons and file
round-trips literal.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np
import sympy as sp

from .errors import DimensionMismatch, PositivityLoss
from .grids import ChartGeometry, TorusGrid
from .linalg import det, positivity


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
        eye = np.eye(self.n, dtype=complex)
        self.g = eye + grid.complex_hessian(self.psi)
        ok, worst, w = positivity(self.g)
        if not ok:
            raise PositivityLoss(
                f"metric loses positivity at point {worst}: eigenvalues {w}",
                point=worst, min_eigenvalue=float(w[0]),
            )
        self._refined = {}

    def refined(self, pad: int) -> "TorusMetricField":
        """This field on a pad-times finer grid (trigonometric prolongation).

        Built, and checked positive, once per pad; later calls return the
        same field.
        """
        fine_field = self._refined.get(pad)
        if fine_field is None:
            fine = TorusGrid(self.n, pad * self.grid.N)
            fine_field = TorusMetricField(fine, self.grid.prolong(self.psi, fine))
            self._refined[pad] = fine_field
        return fine_field

    @cached_property
    def det_g(self) -> np.ndarray:
        return det(self.g).real

    @cached_property
    def log_det_g(self) -> np.ndarray:
        return np.log(self.det_g)

    @cached_property
    def dg(self) -> np.ndarray:
        """dg[..., i, j, k] = d g_{i jbar} / dz^k over the grid."""
        return self.grid.hessian_third(self.psi)

    @cached_property
    def ddg(self) -> np.ndarray:
        """ddg[..., i, j, k, l] = d^2 g_{i jbar} / dz^k dzbar^l over the grid."""
        return self.grid.hessian_fourth(self.psi)

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
    """Metric from a closed-form potential on an analytic chart.

    The potential is a sympy expression in 2n symbols: z_1..z_n and their
    formal conjugates.  Reality of the potential is the caller's promise;
    a Hermitian-drift check on the evaluated metric catches violations.

    The metric jet (g, dg, ddg) is derived once per field: each partial of
    the potential is one sp.diff of the memoized partial one order lower,
    and all n^2 + n^3 + n^4 entries go into one common-subexpression-
    eliminated lambdified function, built on the first query.
    """

    kind = "analytic-chart"

    def __init__(self, geometry: ChartGeometry, potential: sp.Expr,
                 z_symbols, zbar_symbols):
        self.geometry = geometry
        self.n = geometry.n
        self.potential = sp.sympify(potential)
        self.z = tuple(z_symbols)
        self.zbar = tuple(zbar_symbols)
        if len(self.z) != self.n or len(self.zbar) != self.n:
            raise DimensionMismatch(
                f"need {self.n} holomorphic and {self.n} antiholomorphic symbols"
            )
        self._partials = {(): self.potential}

    def _partial(self, variables: tuple) -> sp.Expr:
        """The potential differentiated in each of `variables`, in order.

        One sp.diff of the memoized partial in variables[:-1].
        """
        expr = self._partials.get(variables)
        if expr is None:
            expr = sp.diff(self._partial(variables[:-1]), variables[-1])
            self._partials[variables] = expr
        return expr

    @cached_property
    def _jet_fn(self):
        """One lambdified function of (z, zbar) returning g, dg, ddg flattened."""
        z, zb, r = self.z, self.zbar, range(self.n)

        def d(hol, anti):  # partials commute: one canonical order per entry
            return self._partial(tuple(z[i] for i in sorted(hol))
                                 + tuple(zb[j] for j in sorted(anti)))

        exprs = (
            [d((i,), (j,)) for i, j in itertools.product(r, r)]
            + [d((i, k), (j,)) for i, j, k in itertools.product(r, r, r)]
            + [d((i, k), (j, l)) for i, j, k, l in itertools.product(r, r, r, r)]
        )
        return sp.lambdify(z + zb, exprs, modules="numpy", cse=True)

    def _eval(self, z: np.ndarray):
        """(g, dg, ddg) at a validated point, g unchecked."""
        n = self.n
        flat = np.asarray(self._jet_fn(*z, *np.conj(z)), dtype=complex)
        g = flat[: n**2].reshape(n, n)
        dg = flat[n**2 : n**2 + n**3].reshape(n, n, n)
        ddg = flat[n**2 + n**3 :].reshape(n, n, n, n)
        return g, dg, ddg

    def jet_at(self, point):
        """(g, dg, ddg) at a point from one evaluation of the jet.

        g is checked Hermitian (drift up to 1e-9 relative, then symmetrized)
        and positive definite.
        """
        z = np.asarray(point, dtype=complex).reshape(-1)
        if z.size != self.n:
            raise DimensionMismatch(f"chart point needs {self.n} complex coordinates")
        if not self.geometry.trusted(z):
            raise ValueError(f"point {z} outside the trusted chart region")
        g, dg, ddg = self._eval(z)
        scale = max(1.0, float(np.max(np.abs(g))))
        drift = float(np.max(np.abs(g - g.conj().T)))
        if drift > 1e-9 * scale:
            raise ValueError(
                f"metric not Hermitian at {z} (drift {drift:.2e}); "
                "is the potential real?"
            )
        g = (g + g.conj().T) / 2.0
        ok, _, w = positivity(g)
        if not ok:
            raise PositivityLoss(
                f"metric loses positivity at {z}: eigenvalues {w}",
                point=tuple(z), min_eigenvalue=float(w[0]),
            )
        return g, dg, ddg

    def metric_matrix_at(self, point) -> np.ndarray:
        return self.jet_at(point)[0]


MetricField = TorusMetricField | ChartMetricField


def metric_from_potential(geometry, potential, z_symbols=None, zbar_symbols=None):
    """Build the metric field of a potential on either substrate.

    Torus: `potential` is a real grid array; the metric is
    identity + complex Hessian, checked positive at every grid point.
    Chart: `potential` is a sympy expression and the symbol tuples name its
    holomorphic/antiholomorphic variables.
    """
    if isinstance(geometry, TorusGrid):
        return TorusMetricField(geometry, potential)
    if isinstance(geometry, ChartGeometry):
        if z_symbols is None or zbar_symbols is None:
            raise ValueError("chart fields need z_symbols and zbar_symbols")
        return ChartMetricField(geometry, potential, z_symbols, zbar_symbols)
    raise TypeError(f"unsupported geometry {type(geometry).__name__}")
