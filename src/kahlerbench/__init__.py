"""Numerical workbench for families of Kähler metrics.

The package is organized around four activities:

* solving the scalar equation that deforms a reference metric inside a
  shrinking family (:mod:`kahlerbench.solver`),
* measuring holomorphic sectional curvature and its extremes
  (:mod:`kahlerbench.curvature`, :mod:`kahlerbench.zoo`),
* checking pointwise trace inequalities between two metrics
  (:mod:`kahlerbench.inequalities`, :mod:`kahlerbench.linalg`),
* evaluating wedge-type integrals along the family
  (:mod:`kahlerbench.integrals`).

A (1,1)-form is its Hermitian coefficient matrix in standard coordinates at
a point and, over a torus grid, the real components (n*n, ...) of those
matrices (:mod:`kahlerbench.linalg`); the complex Hessian of a real potential
is the matrix of mixed second derivatives with no extra constant, so the
flat form on the unit torus is the identity and the torus has volume one.
"""

from .curvature import (
    HscExtremes,
    constant_hsc_tensor,
    hsc,
    hsc_extremes,
    kappa_floor,
)
from .errors import DimensionMismatch, NonConvergence, PositivityLoss
from .fields import ChartMetricField, TorusMetricField
from .grids import ChartGeometry, TorusGrid
from .inequalities import (
    InequalityReport,
    SchwarzHypotheses,
    laplacian_identity_check,
    max_principle_s_bound,
    ricci_term_margin,
    royden_margin,
    schwarz_conclusion_check,
)
from .integrals import (
    bigness_bound_report,
    epsilon_expansion_check,
    fit_epsilon_expansion,
    mixed_determinants,
    nef_lower_bound_check,
    trace_collapse_check,
    volume,
    wedge_integral,
    wedge_integrals,
)
from .linalg import Direction
from .solver import (
    ContinuityState,
    MAProblem,
    continuity_path,
    manufactured_problem,
    solve_ma,
)
from .zoo import list_examples, make_example, verify_example_facts

__version__ = "0.1.0"

__all__ = [
    "ChartGeometry",
    "ChartMetricField",
    "ContinuityState",
    "Direction",
    "DimensionMismatch",
    "HscExtremes",
    "InequalityReport",
    "MAProblem",
    "NonConvergence",
    "PositivityLoss",
    "SchwarzHypotheses",
    "TorusGrid",
    "TorusMetricField",
    "bigness_bound_report",
    "constant_hsc_tensor",
    "continuity_path",
    "epsilon_expansion_check",
    "fit_epsilon_expansion",
    "hsc",
    "hsc_extremes",
    "kappa_floor",
    "laplacian_identity_check",
    "list_examples",
    "make_example",
    "manufactured_problem",
    "max_principle_s_bound",
    "mixed_determinants",
    "nef_lower_bound_check",
    "ricci_term_margin",
    "royden_margin",
    "schwarz_conclusion_check",
    "solve_ma",
    "trace_collapse_check",
    "verify_example_facts",
    "volume",
    "wedge_integral",
    "wedge_integrals",
]
