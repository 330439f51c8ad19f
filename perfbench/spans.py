"""Traced mode: spans around kahlerbench's layers, recorded from outside.

Each wrapped callable records a span (name, start, end, parent index) in
memory; nothing is written until the run ends.  Wrappers are installed
where each name is bound: on the class for methods, on every kahlerbench
module that imported a function by name, and on the library module for
calls the program makes by attribute (numpy.linalg, scipy's bicgstab,
sympy's diff and lambdify).  ``uninstall`` restores every original.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (metric, unit, better) for every per-layer metric, in report order.  A
# ".s" metric is the seconds inside the layer's outermost spans; the
# ".self_s" beside it subtracts the time of child spans.
TIMED_LAYERS = (
    "grids.complex_hessian", "grids.prolong_restrict", "grids.eval_spectral",
    "linalg.batched", "linalg.single",
    "solver.solve_ma", "solver.krylov", "solver.make_state", "solver.ricci_dealiased",
    "fields.torus_field", "fields.chart_derivatives", "fields.chart_eval",
    "zoo.make_example",
    "curvature.hsc_extremes", "curvature.kappa_floor",
    "inequalities.royden_margin", "inequalities.schwarz_check",
    "integrals.wedge_integral", "integrals.path_checks",
    "io.save_state", "io.load_state",
)
COUNTED_LAYERS = (
    "grids.complex_hessian", "grids.eval_spectral", "linalg.batched", "linalg.single",
    "solver.solve_ma", "solver.krylov", "fields.torus_field",
    "fields.chart_derivatives", "fields.chart_eval", "curvature.hsc_extremes",
    "inequalities.royden_margin", "integrals.wedge_integral",
)
PER_LAYER = (
    [("import.kahlerbench_s", "s", "lower")]
    + [m for name in TIMED_LAYERS
       for m in ((f"{name}.s", "s", "lower"), (f"{name}.self_s", "s", "lower"))]
    + [(f"{name}.calls", "count", "lower") for name in COUNTED_LAYERS]
    + [("solver.newton_steps", "count", "lower"),
       ("solver.krylov.matvecs", "count", "lower"),
       ("solver.linesearch.trials", "count", "lower"),
       ("io.bytes_written", "bytes", "lower"),
       ("trace.spans", "count", "lower"),
       ("trace.ops_per_s", "1/s", "higher")]
)

LAPACK = ("det", "inv", "eigvalsh", "cholesky", "solve")
FIELD_FUNCTIONS = ("relative_eigenvalues_field", "trace_s_field",
                   "elementary_symmetric_field", "newton_maclaurin_margin_field")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.bytes_written = 0
        self._stack = []
        self._restore = []

    # -- recording ------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; name may be a callable of (args, kwargs)."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            record = [label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_bound(self, original, name, after=None):
        """Replace `original` in every kahlerbench module that binds it."""
        wrapper = self.wrap(name, original, after)
        for modname, module in list(sys.modules.items()):
            if modname == "kahlerbench" or modname.startswith("kahlerbench."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def install(self, kb) -> None:
        import numpy
        import scipy.sparse.linalg
        import sympy

        grid_cls = kb.grids.TorusGrid
        self._patch(grid_cls, "complex_hessian",
                    self.wrap("grids.complex_hessian", grid_cls.complex_hessian))
        for attr in ("prolong", "restrict"):
            self._patch(grid_cls, attr,
                        self.wrap("grids.prolong_restrict", getattr(grid_cls, attr)))
        self._patch(grid_cls, "eval_spectral",
                    self.wrap("grids.eval_spectral", grid_cls.eval_spectral))

        def lapack_kind(args, kwargs):
            return "linalg.batched" if numpy.ndim(args[0]) > 2 else "linalg.single"

        for attr in LAPACK:
            self._patch(numpy.linalg, attr,
                        self.wrap(lapack_kind, getattr(numpy.linalg, attr)))
        for attr in FIELD_FUNCTIONS:
            self._patch_bound(getattr(kb.linalg, attr), "linalg.batched")

        self._patch_bound(kb.solver.solve_ma, "solver.solve_ma")
        self._patch_bound(kb.solver._solve_linearized, "solver.newton_step")
        self._patch_bound(kb.solver._positivity, "solver.positivity")
        self._patch(scipy.sparse.linalg, "bicgstab",
                    self.wrap("solver.krylov", scipy.sparse.linalg.bicgstab))
        self._patch_bound(kb.solver.make_state, "solver.make_state")
        self._patch_bound(kb.solver.ricci_residual_dealiased, "solver.ricci_dealiased")

        self._patch(kb.fields.TorusMetricField, "__init__",
                    self.wrap("fields.torus_field", kb.fields.TorusMetricField.__init__))
        for attr in ("diff", "lambdify"):
            self._patch(sympy, attr,
                        self.wrap("fields.chart_derivatives", getattr(sympy, attr)))
        self._patch(kb.fields.ChartMetricField, "_eval",
                    self.wrap("fields.chart_eval", kb.fields.ChartMetricField._eval))
        self._patch_bound(kb.zoo.make_example, "zoo.make_example")

        self._patch_bound(kb.curvature.hsc_extremes_from_tensor, "curvature.hsc_extremes")
        self._patch_bound(kb.curvature.kappa_floor, "curvature.kappa_floor")
        self._patch_bound(kb.inequalities.royden_margin, "inequalities.royden_margin")
        self._patch_bound(kb.inequalities.schwarz_conclusion_check,
                          "inequalities.schwarz_check")

        self._patch_bound(kb.integrals.wedge_integral, "integrals.wedge_integral")
        for attr in ("epsilon_expansion_check", "nef_lower_bound_check",
                     "bigness_bound_report"):
            self._patch_bound(getattr(kb.integrals, attr), "integrals.path_checks")

        def count_bytes(args, kwargs):
            self.bytes_written += sum(p.stat().st_size for p in Path(args[0]).iterdir())

        self._patch_bound(kb.io.save_state, "io.save_state", after=count_bytes)
        self._patch_bound(kb.io.load_state, "io.load_state")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- derived metrics --------------------------------------------------------

    def metrics(self) -> dict:
        spans = self.spans
        calls = Counter(s[0] for s in spans)
        child_s = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += end - start - child_s[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:  # outermost span of this name
                total[name] += end - start

        def count_under(name, parent_name):
            return sum(1 for s in spans if s[0] == name and s[3] >= 0
                       and spans[s[3]][0] == parent_name)

        out = {}
        for name in TIMED_LAYERS:
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in COUNTED_LAYERS:
            out[f"{name}.calls"] = calls[name]
        out["solver.newton_steps"] = calls["solver.newton_step"]
        out["solver.krylov.matvecs"] = count_under("grids.complex_hessian", "solver.krylov")
        # solve_ma checks positivity once up front, then once per trial step.
        out["solver.linesearch.trials"] = (count_under("solver.positivity", "solver.solve_ma")
                                           - calls["solver.solve_ma"])
        out["io.bytes_written"] = self.bytes_written
        out["trace.spans"] = len(spans)
        return out

    def dump(self, path) -> None:
        import json

        Path(path).write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                          "spans": self.spans}))
