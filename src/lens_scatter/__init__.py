"""Geodesic scattering on conformal disk metrics and knot invariants of
projectivized tangent lifts of plane curves.

Every public name, and every module that holds them, is imported on first
access, so a run loads only the modules it uses.  The geometry side
(``geometry``, ``scattering``, ``eaton``, ``dop853``) runs on Python
floats and imports no numpy; the knot side (``curves``, ``lift``, ``knot``)
needs numpy.
"""

__version__ = "0.1.0"

# Each lazily resolved name, a module or one of its exports, and the module
# that holds it.
_LAZY = {name: module for module, names in {
    "curves": ("ParametricCurve", "TrigCurve", "circle", "lemniscate", "load_curve_csv",
               "named_curve", "rose"),
    "lift": ("FLAT_INJECTIVITY_RADIUS", "LiftedCurve", "MinimalLinearCurve", "PLVertexPath",
             "ProjPoint", "dist_components", "projectivize", "triangle_angle_sum",
             "unit_tangent_lift"),
    "knot": ("Certificate", "Crossing", "InvariantTable", "PLLoop", "TangentLoop",
             "analyze_loop", "certify_nontrivial", "choose_refinement_n", "crossing_sign",
             "crossing_type", "embedding_separation", "find_crossings", "pl_refine",
             "pl_validate", "random_corpus", "w_invariant"),
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
    # svg`` falls back to importing the submodule.  Resolved names are not
    # kept in the package's namespace: each access reads the module's
    # current binding.
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


__all__ = sorted(_LAZY)
