"""Example gallery: substrates with independently known curvature facts.

Every example bundles a metric field (its substrate is field.grid or
field.geometry), a tuple of Facts and a tuple of warnings.  A Fact stores
its oracle, the reference value, next to a measurement recipe (what the
numerical machinery reports), a comparison mode, and a tolerance; nothing
is compared against hard-coded numbers hidden in test bodies.

Every oracle is a closed form the mathematics gives: the disk's H = -2/s
and Einstein ratio -2/s, the polydisk's range [-2/s, -2/(s n)], Fubini-Study's
H = +2.  The program measures curvature by one route, the metric jet; the
tests hold these closed forms to an exact sympy differentiation of each
chart's potential at the fact's point and direction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .curvature import (curvature_from_derivatives, hsc, hsc_extremes, kappa_floor,
                        ricci_from_derivatives, sweep_hsc_extremes)
from .errors import DimensionMismatch
from .fields import ChartMetricField, TorusMetricField
from .grids import ChartGeometry, TorusGrid
from .integrals import volume


@dataclass(frozen=True)
class Fact:
    """A checkable statement about an example.

    oracle is the reference value, a closed form named by provenance;
    mode: 'equal' (|measured - oracle| <= tol), 'ge', 'le', 'gt', 'lt'
    (one-sided, tol as slack for the weak ones, ignored for strict ones).
    """

    name: str
    provenance: str
    mode: str
    tol: float
    oracle: float
    measure: object  # (field) -> float


@dataclass(frozen=True)
class Example:
    field: object
    facts: tuple
    warnings: tuple = ()


def verify_fact(fact: Fact, metric_field) -> dict:
    reference = float(fact.oracle)
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
    return [verify_fact(f, example.field) for f in example.facts]


# -- chart terms ---------------------------------------------------------------

# The variable of every term function ell: a chart potential is a sum of
# terms c * ell(|F|^2) with F a tuple of holomorphic expressions.
_X = sp.Symbol("x")
# the disk's coefficient-free term function, built once; each scale s
# attaches to it as the number -s
_DISK_ELL = sp.log(1 - _X)


@functools.cache
def chart_symbols(n: int):
    return sp.symbols(f"z1:{n + 1}")


def poincare_polydisk_terms(n: int, scale: float):
    """(terms, z) of -scale * sum_i log(1 - |z_i|^2); n = 1 is the disk."""
    z = chart_symbols(n)
    return [(-float(scale), _DISK_ELL, (zi,)) for zi in z], z


def fubini_study_terms(n: int):
    """(terms, z) of log(1 + |z|^2)."""
    z = chart_symbols(n)
    return [(sp.log(1 + _X), z)], z


def fermat_graph_terms(degree: int):
    """Induced projective-space potential on a graph chart of the degree-d
    Fermat hypersurface in 3-space, centered where a standard projective
    line through the surface passes: log(1 + |z|^2 + |h|^2) for the graph
    h = exp(i pi / d) (1 + z1^d + z2^d)^(1/d).  Returns (terms, z)."""
    z = chart_symbols(2)
    d = int(degree)
    h = sp.exp(sp.I * sp.pi / d) * (1 + z[0] ** d + z[1] ** d) ** sp.Rational(1, d)
    return [(sp.log(1 + _X), (z[0], z[1], h))], z


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


# -- example builders ---------------------------------------------------------


def _sweep_hsc_range(metric_field):
    """(min, max) of H over a torus sweep of at most 64 grid points."""
    exts = sweep_hsc_extremes(metric_field, max_points=64)
    return min(e.h_min for e in exts), max(e.h_max for e in exts)


def _sup_curvature(metric_field):
    """max |R| over every grid index of a torus field, each jet read by jet_at."""
    grid = metric_field.grid
    points = np.indices(grid.shape).reshape(2 * grid.n, -1).T
    return float(np.max(np.abs(curvature_from_derivatives(*metric_field.jet_at(points)))))


def _build_flat_torus(n: int = 1, resolution: int = 16) -> Example:
    grid = TorusGrid(n, resolution)
    mf = TorusMetricField(grid, np.zeros(grid.shape))
    facts = (
        Fact(
            name="curvature-vanishes",
            provenance="flat metric: constant coefficients, all derivatives zero",
            mode="equal", tol=1e-12,
            oracle=0.0,
            measure=_sup_curvature,
        ),
        Fact(
            name="volume-unit",
            provenance="normalization: flat torus has unit volume by construction",
            mode="equal", tol=1e-14,
            oracle=1.0,
            measure=volume,
        ),
    )
    return Example(mf, facts)


def _build_perturbed_torus(n: int = 1, resolution: int = 32,
                           amplitude: float = 0.01, modes=None) -> Example:
    grid = TorusGrid(n, resolution)
    psi = perturbed_torus_potential(grid, amplitude, modes)
    mf = TorusMetricField(grid, psi)  # PositivityLoss here if amplitude too large
    hsc_range = functools.cache(_sweep_hsc_range)  # one sweep serves both sign facts
    facts = (
        Fact(
            name="hsc-attains-negative",
            provenance="grid sweep of sectional values (band-limited metric)",
            mode="lt", tol=0.0,
            oracle=0.0, measure=lambda f: hsc_range(f)[0],
        ),
        Fact(
            name="hsc-attains-positive",
            provenance="grid sweep of sectional values (band-limited metric)",
            mode="gt", tol=0.0,
            oracle=0.0, measure=lambda f: hsc_range(f)[1],
        ),
        Fact(
            name="volume-unit",
            provenance="dd^c-exactness: perturbation wedge powers integrate to zero",
            mode="equal", tol=1e-12,
            oracle=1.0,
            measure=volume,
        ),
    )
    return Example(mf, facts)


# the sample points of the chart facts; n = 3 takes the third coordinate
_DISK_POINT = (0.3 + 0.1j,)
_POLYDISK_POINT = (0.2 + 0.1j, -0.1 + 0.2j, 0.125)
_FS_POINT = (0.1 + 0.2j, 0.25 - 0.1j, 0.125)


def _build_poincare_disk(scale: float = 1.0) -> Example:
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    geom = ChartGeometry(1, (1.0,), margin=0.25)
    mf = ChartMetricField(geom, *poincare_polydisk_terms(1, scale))
    zpt = np.array(_DISK_POINT)

    def measure_einstein_ratio(f):
        g, dg, ddg = f.jet_at(zpt)
        return float((ricci_from_derivatives(g, dg, ddg)[0, 0] / g[0, 0]).real)

    facts = (
        Fact(
            name="hsc-constant",
            provenance="closed form: the disk metric -s log(1 - |z|^2) has "
                       "constant H = -2/s",
            mode="equal", tol=1e-8,
            oracle=-2.0 / scale,
            measure=lambda f: hsc(f, zpt, np.array([1.0 + 0j])),
        ),
        Fact(
            name="einstein-ratio",
            provenance="closed form: the disk metric is Einstein, Ric = -(2/s) g",
            mode="equal", tol=1e-8,
            oracle=-2.0 / scale,
            measure=measure_einstein_ratio,
        ),
    )
    return Example(mf, facts)


def _build_poincare_polydisk(n: int = 2, scale: float = 1.0) -> Example:
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    geom = ChartGeometry(n, (1.0,) * n, margin=0.25)
    mf = ChartMetricField(geom, *poincare_polydisk_terms(n, scale))
    zpt = np.array(_POLYDISK_POINT[:n])
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    facts = (
        Fact(
            name="hsc-factor-direction",
            provenance="closed form: a factor direction sees its disk's H = -2/s",
            mode="equal", tol=1e-8,
            oracle=-2.0 / scale,
            measure=lambda f: hsc(f, zpt, e1),
        ),
        Fact(
            name="hsc-max-diagonal",
            provenance="product structure: H(eta) = -(2/s) sum t_i^2 with weights "
                       "t_i = |eta_i|^2_g / |eta|^2_g, sum t_i = 1; maximal at equal "
                       f"weights: -2/(s n) = {-2.0 / (scale * n)} for n={n}",
            mode="equal", tol=1e-6,
            oracle=-2.0 / (scale * n),
            measure=lambda f: hsc_extremes(f, zpt).h_max,
        ),
        Fact(
            name="kappa-floor-positive",
            provenance="product structure: sup H = -2/(scale*n) everywhere",
            mode="equal", tol=1e-6,
            oracle=2.0 / (scale * n),
            measure=lambda f: kappa_floor(f, points=f.geometry.sample_points(per_axis=2)),
        ),
    )
    return Example(mf, facts)


def _build_fubini_study(n: int = 2) -> Example:
    geom = ChartGeometry(n, (1.0,) * n, margin=0.2)
    mf = ChartMetricField(geom, *fubini_study_terms(n))
    zpt = np.array(_FS_POINT[:n])
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0

    def measure_ricci_proportionality(f):
        g, dg, ddg = f.jet_at(zpt)
        return float(np.max(np.abs(ricci_from_derivatives(g, dg, ddg) - (n + 1) * g)))

    facts = (
        Fact(
            name="hsc-constant",
            provenance="closed form: the projective metric log(1 + |z|^2) has "
                       "constant H = 2",
            mode="equal", tol=1e-8,
            oracle=2.0,
            measure=lambda f: hsc(f, zpt, e1),
        ),
        Fact(
            name="ricci-proportional",
            provenance="closed form: Ric = (n+1) g for the projective metric",
            mode="equal", tol=1e-8,
            oracle=0.0,
            measure=measure_ricci_proportionality,
        ),
    )
    return Example(mf, facts)


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
    geom = ChartGeometry(2, (0.35, 0.35), margin=0.10)
    mf = ChartMetricField(geom, *fermat_graph_terms(d))
    beta = np.exp(1j * np.pi / d)
    eta_line = np.array([1.0 + 0j, beta])
    origin = np.zeros(2, dtype=complex)
    facts = (
        Fact(
            name="line-direction-hsc-at-least-projective",
            provenance="induced metric on the contained line is a rescaled "
                       "projective-line metric (H = 2 exactly); curvature does "
                       "not decrease from submanifold to ambient direction",
            mode="ge", tol=1e-6,
            oracle=2.0,
            measure=lambda f: hsc(f, origin, eta_line),
        ),
        Fact(
            name="hsc-at-most-projective",
            provenance="Gauss equation: a complex submanifold of projective "
                       "space has H(eta) = 2 - |II(eta, eta)|^2 / |eta|^4, the "
                       "ambient Fubini-Study value less a square",
            mode="le", tol=1e-9,
            oracle=2.0,
            measure=lambda f: max(e.h_max for e in sweep_hsc_extremes(f)),
        ),
    )
    return Example(mf, facts, warnings)


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
