"""Example gallery: substrates with independently known curvature facts.

Every example bundles a geometry, a metric field, and a list of Facts.
A Fact stores an oracle recipe (a callable that re-derives the reference
value, symbolically where possible) next to a measurement recipe (what the
numerical machinery reports), a comparison mode, and a tolerance; nothing
is compared against hard-coded numbers hidden in test bodies.

Chart oracles run in exact sympy arithmetic on the closed-form potential,
so they are independent of the lambdified floating pipeline they certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import sympy as sp

from .curvature import (curvature_field, hsc, hsc_extremes, kappa_floor,
                        ricci_from_derivatives, sweep_hsc_extremes)
from .errors import DimensionMismatch
from .fields import TorusMetricField, metric_from_potential
from .grids import ChartGeometry, TorusGrid


@dataclass(frozen=True)
class Fact:
    """A checkable statement about an example.

    mode: 'equal' (|measured - oracle| <= tol), 'ge', 'le', 'gt', 'lt'
    (one-sided, tol as slack for the weak ones, ignored for strict ones).
    """

    name: str
    provenance: str
    mode: str
    tol: float
    oracle: object   # () -> float
    measure: object  # (field) -> float
    description: str = ""


@dataclass(frozen=True)
class ExampleSpec:
    name: str
    kind: str
    params: dict
    description: str
    facts: tuple
    warnings: tuple = ()
    metadata: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class Example:
    geometry: object
    field: object
    spec: ExampleSpec


def verify_fact(fact: Fact, metric_field) -> dict:
    reference = float(fact.oracle())
    measured = float(fact.measure(metric_field))
    if fact.mode == "equal":
        ok = abs(measured - reference) <= fact.tol
    elif fact.mode == "ge":
        ok = measured >= reference - fact.tol
    elif fact.mode == "le":
        ok = measured <= reference + fact.tol
    elif fact.mode == "gt":
        ok = measured > reference
    elif fact.mode == "lt":
        ok = measured < reference
    else:
        raise ValueError(f"unknown fact mode {fact.mode!r}")
    return {
        "fact": fact.name,
        "provenance": fact.provenance,
        "mode": fact.mode,
        "oracle": reference,
        "measured": measured,
        "tol": fact.tol,
        "ok": bool(ok),
    }


def verify_example_facts(example: Example) -> list:
    return [verify_fact(f, example.field) for f in example.spec.facts]


# -- symbolic oracles ---------------------------------------------------------


def symbolic_hsc(potential, z_syms, zbar_syms, point, eta) -> float:
    """Holomorphic sectional curvature from exact symbolic differentiation.

    point entries should be exact sympy numbers for a fully exact oracle;
    eta is a numeric direction.  Independent of the floating field pipeline.
    """
    z = tuple(z_syms)
    zb = tuple(zbar_syms)
    n = len(z)
    g = sp.Matrix(n, n, lambda i, j: sp.diff(potential, z[i], zb[j]))
    G = g.inv().T  # matrix of g^{p qbar}
    pt = [sp.sympify(p) for p in point]
    subs = {}
    for i in range(n):
        subs[z[i]] = pt[i]
        subs[zb[i]] = sp.conjugate(pt[i])
    eta = [sp.sympify(complex(e)) for e in eta]
    etab = [sp.conjugate(e) for e in eta]

    q = sp.Integer(0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    Rijkl = -sp.diff(g[i, j], z[k], zb[l])
                    for p in range(n):
                        for qq in range(n):
                            Rijkl += (G[p, qq]
                                      * sp.diff(g[i, qq], z[k])
                                      * sp.diff(g[p, j], zb[l]))
                    q += Rijkl.subs(subs) * eta[i] * etab[j] * eta[k] * etab[l]
    norm2 = sp.Integer(0)
    for i in range(n):
        for j in range(n):
            norm2 += g[i, j].subs(subs) * eta[i] * etab[j]
    val = sp.N(q / norm2**2, 30)
    return float(sp.re(val))


def symbolic_ricci_ratio(potential, z_syms, zbar_syms, point) -> float:
    """Ric_{1 1bar} / g_{1 1bar} at a point, in exact arithmetic."""
    z = tuple(z_syms)
    zb = tuple(zbar_syms)
    n = len(z)
    g = sp.Matrix(n, n, lambda i, j: sp.diff(potential, z[i], zb[j]))
    ric11 = -sp.diff(sp.log(g.det()), z[0], zb[0])
    pt = [sp.sympify(p) for p in point]
    subs = {}
    for i in range(n):
        subs[z[i]] = pt[i]
        subs[zb[i]] = sp.conjugate(pt[i])
    val = sp.N((ric11 / g[0, 0]).subs(subs), 30)
    return float(sp.re(val))


# -- chart potentials ---------------------------------------------------------


def chart_symbols(n: int):
    z = sp.symbols(f"z1:{n + 1}")
    zb = sp.symbols(f"zb1:{n + 1}")
    return z, zb


def poincare_disk_potential(scale: float):
    z, zb = chart_symbols(1)
    s = sp.Rational(scale) if float(scale).is_integer() else sp.Float(scale)
    return -s * sp.log(1 - z[0] * zb[0]), z, zb


def poincare_polydisk_potential(n: int, scale: float):
    z, zb = chart_symbols(n)
    s = sp.Rational(scale) if float(scale).is_integer() else sp.Float(scale)
    psi = -s * sum(sp.log(1 - z[i] * zb[i]) for i in range(n))
    return psi, z, zb


def fubini_study_potential(n: int):
    z, zb = chart_symbols(n)
    psi = sp.log(1 + sum(z[i] * zb[i] for i in range(n)))
    return psi, z, zb


def fermat_graph_potential(degree: int):
    """Induced projective-space potential on a graph chart of the degree-d
    Fermat hypersurface in 3-space, centered where a standard projective
    line through the surface passes."""
    z, zb = chart_symbols(2)
    d = int(degree)
    alpha = sp.exp(sp.I * sp.pi / d)
    h = alpha * (1 + z[0] ** d + z[1] ** d) ** sp.Rational(1, d)
    hb = sp.conjugate(alpha) * (1 + zb[0] ** d + zb[1] ** d) ** sp.Rational(1, d)
    psi = sp.log(1 + h * hb + z[0] * zb[0] + z[1] * zb[1])
    return psi, z, zb, alpha


# -- torus potentials ---------------------------------------------------------

_TORUS_MODES = {
    1: [((1, 0), 0.00, 1.00),
        ((0, 1), 0.40, 0.80),
        ((1, 1), 1.10, 0.60),
        ((2, -1), 2.00, 0.35)],
    2: [((1, 0, 0, 0), 0.00, 1.00),
        ((0, 1, 0, 0), 0.50, 0.90),
        ((0, 0, 1, 0), 1.00, 0.80),
        ((0, 0, 0, 1), 1.50, 0.70),
        ((1, 0, 1, 0), 0.25, 0.50),
        ((0, 1, 0, -1), 0.75, 0.40),
        ((1, -1, 0, 1), 1.25, 0.30)],
    3: [((1, 0, 0, 0, 0, 0), 0.00, 1.00),
        ((0, 1, 0, 0, 0, 0), 0.30, 0.90),
        ((0, 0, 1, 0, 0, 0), 0.60, 0.85),
        ((0, 0, 0, 1, 0, 0), 0.90, 0.80),
        ((0, 0, 0, 0, 1, 0), 1.20, 0.75),
        ((0, 0, 0, 0, 0, 1), 1.50, 0.70),
        ((1, 0, 0, 1, 0, 0), 0.45, 0.40),
        ((0, 0, 1, 0, 0, -1), 1.05, 0.35)],
}


def perturbed_torus_potential(grid: TorusGrid, amplitude: float,
                              modes=None) -> np.ndarray:
    """Deterministic band-limited perturbation potential on a torus grid.

    modes is a list of (wavevector, phase, weight) triples; the default
    recipe mixes low modes across all real axes so the curvature is
    genuinely anisotropic.
    """
    if modes is None:
        modes = _TORUS_MODES[grid.n]
    axes = np.meshgrid(*([grid.axis_coords] * (2 * grid.n)), indexing="ij")
    psi = np.zeros(grid.shape)
    for wavevec, phase, weight in modes:
        if len(wavevec) != 2 * grid.n:
            raise DimensionMismatch(
                f"mode {wavevec} has {len(wavevec)} components, need {2 * grid.n}"
            )
        arg = sum(k * ax for k, ax in zip(wavevec, axes))
        psi = psi + weight * np.cos(2.0 * np.pi * arg + phase)
    return amplitude * psi


def rough_torus_potential(grid: TorusGrid, amplitude: float,
                          sharpness: float = 0.35) -> np.ndarray:
    """Analytic potential with a slowly decaying (geometric) spectrum.

    Sums 1/(1 + sharpness - cos 2 pi t) over every real axis, so the
    Fourier coefficients fall off like rho^|k| with rho approaching 1 as
    sharpness -> 0.  Unlike the band-limited cosine recipe, this is never
    exactly resolved by a finite grid, which makes it the right substrate
    for grid-refinement studies: the aliasing error is tunably large.
    Mean-removed so the zero-mean potential gauge is respected.
    """
    if sharpness <= 0.0:
        raise ValueError("sharpness must be positive")
    psi = np.zeros(grid.shape)
    for axis in range(2 * grid.n):
        t = grid._axis_view(grid.axis_coords, axis)
        psi = psi + 1.0 / (1.0 + sharpness - np.cos(2.0 * np.pi * t))
    psi = amplitude * psi
    return psi - psi.mean()


# -- example builders ---------------------------------------------------------


def _sweep_hsc_range(metric_field, num_directions=600, refine_steps=25):
    exts = list(sweep_hsc_extremes(metric_field, max_points=64,
                                   num_directions=num_directions,
                                   refine_steps=refine_steps))
    return min(e.h_min for e in exts), max(e.h_max for e in exts)


def _build_flat_torus(n: int = 1, resolution: int = 16) -> Example:
    grid = TorusGrid(n, resolution)
    mf = TorusMetricField(grid, np.zeros(grid.shape))
    facts = (
        Fact(
            name="curvature-vanishes",
            provenance="flat metric: constant coefficients, all derivatives zero",
            mode="equal", tol=1e-12,
            oracle=lambda: 0.0,
            measure=lambda f: float(np.max(np.abs(curvature_field(f)))),
            description="full curvature tensor is identically zero",
        ),
        Fact(
            name="volume-unit",
            provenance="normalization: flat torus has unit volume by construction",
            mode="equal", tol=1e-14,
            oracle=lambda: 1.0,
            measure=lambda f: float(f.grid.mean(f.det_g)),
        ),
    )
    spec = ExampleSpec(
        name="flat-torus", kind=grid.kind,
        params={"n": n, "resolution": resolution},
        description="the flat product torus; every curvature quantity vanishes",
        facts=facts,
    )
    return Example(grid, mf, spec)


def _build_perturbed_torus(n: int = 1, resolution: int = 32,
                           amplitude: float = 0.01, modes=None) -> Example:
    grid = TorusGrid(n, resolution)
    psi = perturbed_torus_potential(grid, amplitude, modes)
    mf = TorusMetricField(grid, psi)  # PositivityLoss here if amplitude too large
    if n == 1:
        def measure_min(f):
            R = curvature_field(f)[..., 0, 0, 0, 0].real
            return float((R / f.g[..., 0, 0].real ** 2).min())

        def measure_max(f):
            R = curvature_field(f)[..., 0, 0, 0, 0].real
            return float((R / f.g[..., 0, 0].real ** 2).max())
    else:
        measure_min = lambda f: _sweep_hsc_range(f)[0]
        measure_max = lambda f: _sweep_hsc_range(f)[1]
    facts = (
        Fact(
            name="hsc-attains-negative",
            provenance="grid sweep of sectional values (band-limited metric)",
            mode="lt", tol=0.0,
            oracle=lambda: 0.0, measure=measure_min,
            description="the perturbation bends some directions negatively",
        ),
        Fact(
            name="hsc-attains-positive",
            provenance="grid sweep of sectional values (band-limited metric)",
            mode="gt", tol=0.0,
            oracle=lambda: 0.0, measure=measure_max,
            description="...and others positively: no uniform sign on a torus",
        ),
        Fact(
            name="volume-unit",
            provenance="dd^c-exactness: perturbation wedge powers integrate to zero",
            mode="equal", tol=1e-12,
            oracle=lambda: 1.0,
            measure=lambda f: float(f.grid.mean(f.det_g)),
        ),
    )
    spec = ExampleSpec(
        name="perturbed-torus", kind=grid.kind,
        params={"n": n, "resolution": resolution, "amplitude": amplitude},
        description="flat torus plus a fixed band-limited potential bump",
        facts=facts,
    )
    return Example(grid, mf, spec)


_DISK_POINT = (sp.Rational(3, 10) + sp.I * sp.Rational(1, 10),)
_POLYDISK_POINT = (sp.Rational(1, 5) + sp.I * sp.Rational(1, 10),
                   -sp.Rational(1, 10) + sp.I * sp.Rational(1, 5))
_FS_POINT = (sp.Rational(1, 10) + sp.I * sp.Rational(1, 5),
             sp.Rational(1, 4) - sp.I * sp.Rational(1, 10))


def _to_complex(pt) -> np.ndarray:
    return np.array([complex(sp.N(p)) for p in pt])


def _build_poincare_disk(scale: float = 1.0) -> Example:
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    psi, z, zb = poincare_disk_potential(scale)
    geom = ChartGeometry(1, (1.0,), margin=0.25)
    mf = metric_from_potential(geom, psi, z, zb)
    pt = _DISK_POINT
    zpt = _to_complex(pt)

    def measure_einstein_ratio(f):
        g, dg, ddg = f.jet_at(zpt)
        return float((ricci_from_derivatives(g, dg, ddg)[0, 0] / g[0, 0]).real)

    facts = (
        Fact(
            name="hsc-constant",
            provenance="symbolic differentiation of the closed-form potential",
            mode="equal", tol=1e-8,
            oracle=lambda: symbolic_hsc(psi, z, zb, pt, [1.0]),
            measure=lambda f: hsc(f, zpt, np.array([1.0 + 0j])),
            description=f"H is constant -2/scale = {-2.0 / scale}",
        ),
        Fact(
            name="einstein-ratio",
            provenance="symbolic Ricci of the closed-form potential",
            mode="equal", tol=1e-8,
            oracle=lambda: symbolic_ricci_ratio(psi, z, zb, pt),
            measure=measure_einstein_ratio,
            description=f"Einstein: Ric = -(2/scale) g, ratio {-2.0 / scale}",
        ),
    )
    spec = ExampleSpec(
        name="poincare-disk", kind=geom.kind,
        params={"scale": scale},
        description="hyperbolic disk metric -scale*log(1-|z|^2)",
        facts=facts,
        metadata={"hsc_constant": -2.0 / scale, "einstein_constant": -2.0 / scale},
    )
    return Example(geom, mf, spec)


def _build_poincare_polydisk(n: int = 2, scale: float = 1.0) -> Example:
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    psi, z, zb = poincare_polydisk_potential(n, scale)
    geom = ChartGeometry(n, (1.0,) * n, margin=0.25)
    mf = metric_from_potential(geom, psi, z, zb)
    pt = _POLYDISK_POINT[:n] if n <= 2 else _POLYDISK_POINT[:2] + (sp.Rational(1, 8),)
    zpt = _to_complex(pt)
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    diag = np.ones(n, dtype=complex) / math.sqrt(n)
    facts = (
        Fact(
            name="hsc-factor-direction",
            provenance="symbolic differentiation of the closed-form potential",
            mode="equal", tol=1e-8,
            oracle=lambda: symbolic_hsc(psi, z, zb, pt, e1),
            measure=lambda f: hsc(f, zpt, e1),
            description=f"factor directions see the disk value -2/scale = {-2.0 / scale}",
        ),
        Fact(
            name="hsc-max-diagonal",
            provenance="product structure: H(eta) = -(2/s) sum t_i^2 over weights, "
                       "maximized at equal weights with value -1/(s n/... ) "
                       f"= {-2.0 / (scale * n)} for n={n}",
            mode="equal", tol=1e-6,
            oracle=lambda: symbolic_hsc(psi, z, zb, pt, diag),
            measure=lambda f: hsc_extremes(f, zpt, 4000, 60).h_max,
            description="the extremizer spreads evenly across the factors",
        ),
        Fact(
            name="kappa-floor-positive",
            provenance="product structure: sup H = -2/(scale*n) everywhere",
            mode="equal", tol=1e-6,
            oracle=lambda: 2.0 / (scale * n),
            measure=lambda f: kappa_floor(
                f, points=f.geometry.sample_points(per_axis=2), num_directions=2000
            ),
            description="uniform negativity floor kappa_0 = 2/(scale*n)",
        ),
    )
    spec = ExampleSpec(
        name="poincare-polydisk", kind=geom.kind,
        params={"n": n, "scale": scale},
        description="product of hyperbolic disks; H varies with direction "
                    "between -2/scale and -2/(scale*n)",
        facts=facts,
        metadata={
            "hsc_min": -2.0 / scale,
            "hsc_max": -2.0 / (scale * n),
            "kappa_floor": 2.0 / (scale * n),
            "einstein_constant": -2.0 / scale,
        },
    )
    return Example(geom, mf, spec)


def _build_fubini_study(n: int = 2) -> Example:
    psi, z, zb = fubini_study_potential(n)
    geom = ChartGeometry(n, (1.0,) * n, margin=0.2)
    mf = metric_from_potential(geom, psi, z, zb)
    pt = _FS_POINT[:n] if n <= 2 else _FS_POINT[:2] + (sp.Rational(1, 8),)
    zpt = _to_complex(pt)
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0

    def measure_ricci_proportionality(f):
        g, dg, ddg = f.jet_at(zpt)
        return float(np.max(np.abs(ricci_from_derivatives(g, dg, ddg) - (n + 1) * g)))

    facts = (
        Fact(
            name="hsc-constant",
            provenance="symbolic differentiation of the closed-form potential",
            mode="equal", tol=1e-8,
            oracle=lambda: symbolic_hsc(psi, z, zb, pt, e1),
            measure=lambda f: hsc(f, zpt, e1),
            description="H is constant +2 in this normalization",
        ),
        Fact(
            name="ricci-proportional",
            provenance="symbolic: Ric = (n+1) g for the projective metric",
            mode="equal", tol=1e-8,
            oracle=lambda: 0.0,
            measure=measure_ricci_proportionality,
            description="max |Ric - (n+1) g| at the sample point",
        ),
    )
    spec = ExampleSpec(
        name="fubini-study", kind=geom.kind,
        params={"n": n},
        description="projective-space metric on an affine chart",
        facts=facts,
        metadata={"hsc_constant": 2.0, "einstein_constant": n + 1},
    )
    return Example(geom, mf, spec)


def _build_fermat_chart(degree: int = 5) -> Example:
    d = int(degree)
    if d < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    warnings = ()
    if d < 5:
        warnings = (
            f"degree {d} < 5: the standard projective lines used here only lie "
            "on the surface for degree >= n+3 = 5 in the generic-count sense; "
            "the chart is still valid but the line fact loses its meaning",
        )
    psi, z, zb, alpha = fermat_graph_potential(d)
    geom = ChartGeometry(2, (0.35, 0.35), margin=0.10)
    mf = metric_from_potential(geom, psi, z, zb)
    beta = complex(sp.N(alpha))
    eta_line = np.array([1.0 + 0j, beta])
    origin = np.zeros(2, dtype=complex)
    facts = (
        Fact(
            name="line-direction-hsc-at-least-projective",
            provenance="induced metric on the contained line is a rescaled "
                       "projective-line metric (H = 2 exactly); curvature does "
                       "not decrease from submanifold to ambient direction",
            mode="ge", tol=1e-6,
            oracle=lambda: 2.0,
            measure=lambda f: hsc(f, origin, eta_line),
            description="H along the contained-line direction is >= 2 > 0",
        ),
    )
    spec = ExampleSpec(
        name="fermat-chart", kind=geom.kind,
        params={"degree": d},
        description="graph chart of the Fermat surface with the induced "
                    "projective metric; a standard line lies on the surface "
                    "and forces positive H along its direction",
        facts=facts,
        warnings=warnings,
        metadata={"line_direction": (1.0, beta), "base_point": (0.0, 0.0)},
    )
    return Example(geom, mf, spec)


EXAMPLES = {
    "flat-torus": _build_flat_torus,
    "perturbed-torus": _build_perturbed_torus,
    "poincare-disk": _build_poincare_disk,
    "poincare-polydisk": _build_poincare_polydisk,
    "fubini-study": _build_fubini_study,
    "fermat-chart": _build_fermat_chart,
}


def list_examples() -> list:
    return sorted(EXAMPLES)


def make_example(name: str, **params) -> Example:
    """Instantiate a registered example with optional parameter overrides."""
    try:
        builder = EXAMPLES[name]
    except KeyError:
        raise KeyError(
            f"unknown example {name!r}; available: {', '.join(list_examples())}"
        ) from None
    return builder(**params)
