"""The package's public names, each resolved on first access."""

import json

import pytest

import lens_scatter as ls

from conftest import run_python

# The public names, pinned: resolving them lazily must not drop one.
PUBLIC = [
    "BoundaryIsometry", "BoundaryVector", "Certificate", "CompareReport",
    "ConformalMetric", "Crossing", "EatonProfile", "FLAT_INJECTIVITY_RADIUS",
    "GeodesicPath", "IntegrationOptions", "InvariantTable", "LiftedCurve",
    "MinimalLinearCurve", "PLLoop", "PLVertexPath", "ParametricCurve", "ProjPoint",
    "ScatteringRecord", "SingularChordError", "SingularityError",
    "TangentLoop", "TrigCurve", "analyze_loop", "boundary_grid",
    "certify_nontrivial", "choose_refinement_n", "circle", "compare_scattering",
    "crossing_sign", "crossing_type", "curves", "dist_components", "dop853",
    "eaton", "eaton_index", "eaton_metric", "embedding_separation",
    "find_crossings", "geometry", "integrate_geodesic", "invisibility_check",
    "knot", "lemniscate", "length_excess", "lift", "load_curve_csv", "load_metric",
    "loop_winding", "metric_from_spec", "named_curve", "phi_map", "pl_refine",
    "pl_validate", "projectivize", "random_corpus", "riemannian_length", "rose",
    "scatter", "scatter_grid", "scattering", "triangle_angle_sum",
    "unit_tangent_lift", "w_invariant",
]
MODULES = {"curves", "dop853", "eaton", "geometry", "knot", "lift", "scattering"}


def test_all_is_unchanged():
    assert len(PUBLIC) == 63
    assert ls.__all__ == PUBLIC


def test_every_name_resolves_to_its_module_binding():
    for name in PUBLIC:
        value = getattr(ls, name)
        if name in MODULES:
            assert value.__name__ == f"lens_scatter.{name}"
        else:
            home = [m for m in MODULES if getattr(getattr(ls, m), name, None) is value]
            assert home, name


def test_resolved_names_are_not_kept_on_the_package():
    # Each access reads the module's current binding, so a wrapper set on
    # the module and later removed (as perfbench's tracer does) is not left
    # bound on the package.
    original = ls.scatter
    ls.scattering.scatter = wrapper = lambda *args: original(*args)
    try:
        assert ls.scatter is wrapper
    finally:
        ls.scattering.scatter = original
    assert ls.scatter is original
    assert "scatter" not in vars(ls) and "analyze_loop" not in vars(ls)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ls.no_such_name
    # An unlisted submodule is then imported by the import system.
    from lens_scatter import svg
    assert svg.__name__ == "lens_scatter.svg"


def test_star_import_in_fresh_interpreter(tmp_path):
    out = run_python("import json\n"
                     "from lens_scatter import *\n"
                     "import lens_scatter\n"
                     "names = [n for n in lens_scatter.__all__ if n in globals()]\n"
                     "print(json.dumps([names, eaton_metric().name]))", tmp_path)
    names, metric = json.loads(out)
    assert names == PUBLIC
    assert metric == "eaton"
