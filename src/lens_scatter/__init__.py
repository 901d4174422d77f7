"""Geodesic scattering on conformal disk metrics and knot invariants of
projectivized tangent lifts of plane curves.

The knot side (``curves``, ``lift``, ``knot``) is imported with the
package.  The geometry side (``geometry``, ``scattering``, ``eaton``,
``dop853``) is imported on first access to one of its names.  Both need
numpy, except the solver ``dop853``, which runs on Python floats alone; the
geometry side stays lazy because its import (about 20 ms, byte-compilation
included) would otherwise be paid by every knot-side run.
"""

__version__ = "0.1.0"

from .curves import (ParametricCurve, TrigCurve, circle, lemniscate,
                     load_curve_csv, named_curve, rose)
from .lift import (FLAT_INJECTIVITY_RADIUS, LiftedCurve, MinimalLinearCurve,
                   PLVertexPath, ProjCurve, ProjPoint, dist_components,
                   projectivize, triangle_angle_sum, unit_tangent_lift)
from .knot import (Certificate, Crossing, InvariantTable, PLLoop, TangentLoop,
                   analyze_loop, certify_nontrivial, choose_refinement_n,
                   crossing_sign, crossing_type, embedding_separation,
                   find_crossings, pl_refine, pl_validate, random_corpus,
                   w_invariant)

# Each lazily resolved name, a geometry-side module or one of its exports,
# and the module that holds it.
_LAZY = {name: module for module, names in {
    "geometry": ("ConformalMetric", "GeodesicPath", "IntegrationOptions",
                 "SingularChordError", "SingularityError", "integrate_geodesic",
                 "load_metric", "metric_from_spec", "riemannian_length"),
    "scattering": ("BoundaryIsometry", "BoundaryVector", "CompareReport",
                   "ScatteringRecord", "boundary_grid", "compare_scattering",
                   "length_excess", "phi_map", "scatter", "scatter_grid"),
    "eaton": ("EatonProfile", "eaton_index", "eaton_metric", "invisibility_check",
              "loop_winding"),
    "dop853": (),
}.items() for name in (module, *names)}


def __getattr__(name):
    # Unknown names raise AttributeError, so that ``from lens_scatter import
    # svg`` falls back to importing the submodule.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY))
