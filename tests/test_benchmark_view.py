"""The package as the benchmark sees it.

``perfbench/jobs.py`` calls these functions and ``perfbench/tracer.py``
wraps them by name; both resolve them on ``lens_scatter`` at run time, so a
renamed or deleted name, or a dropped keyword, would only show up as a
failed benchmark pass.  Keep this list in step with those two files.
"""

import inspect

import lens_scatter as ls
# As worker.py does: binds ls.cli and ls.svg.  Every other module, and
# every public name, resolves on first access.
import lens_scatter.cli  # noqa: F401

# (dotted name on lens_scatter, positional args, keyword names) of each call
# the two files make; None marks a name that is only looked up.
RESOLVED = [
    ("cli.main", 1, ()),
    ("eaton.eaton_metric", 0, ()),
    ("eaton.invisibility_check", None, ()),
    ("eaton.loop_winding", None, ()),
    ("scattering.boundary_grid", 2, ("angle_margin",)),
    ("scattering.scatter", None, ()),
    ("scattering.compare_scattering", 2, ("grid",)),
    ("scattering.length_excess", 2, ("grid",)),
    ("geometry.ConformalMetric.vacuum", 0, ()),
    ("geometry.ConformalMetric.general", 2, ("name",)),
    ("geometry.integrate_geodesic", 2, ()),
    ("geometry.riemannian_length", 2, ()),
    ("svg.render_rays", 2, ()),
    ("svg.render_annulus", None, ()),
    ("curves.TrigCurve", 1, ()),
    ("curves.named_curve", 1, ()),
    ("curves.ParametricCurve.point", 2, ()),
    ("knot.random_corpus", 1, ("seed",)),
    ("knot.analyze_loop", 1, ()),
    ("knot.find_crossings", 1, ()),
    ("knot.pl_snapshot", 3, ()),
    ("knot.pl_validate", 3, ()),
    ("knot.choose_refinement_n", None, ()),
    ("knot.embedding_separation", None, ()),
    ("knot.PLLoop", None, ()),
    ("knot.PLVertexPath", None, ()),
    ("lift.projectivize", 1, ()),
    ("lift.unit_tangent_lift", 2, ()),
    ("lift.dist_components", None, ()),
    ("lift.ProjCurve.proj_points", 1, ()),
]


def test_benchmark_names_resolve():
    broken = []
    for dotted, positional, keywords in RESOLVED:
        obj = ls
        try:
            for part in dotted.split("."):
                obj = getattr(obj, part)
            if positional is not None:
                inspect.signature(obj).bind(*range(positional),
                                            **{k: None for k in keywords})
        except (AttributeError, TypeError) as exc:
            broken.append(f"{dotted}: {exc}")
    assert broken == []


def test_traced_path_attributes():
    # tracer.py reads metric.kind, path.points and path.trapped off every
    # trace; jobs.py reads points, directions and length of exiting rays.
    metric = ls.geometry.ConformalMetric.vacuum()
    assert metric.kind == "vacuum"
    entry = ls.scattering.BoundaryVector(0.0, 1.0)
    for opts in (None, ls.geometry.IntegrationOptions(max_length=0.5)):
        path = ls.geometry.integrate_geodesic(metric, entry, opts)
        assert len(path.points) == len(path.directions) > 1
        assert path.trapped == (path.exit is None) == (opts is not None)
        assert (path.length == float("inf")) == path.trapped


def test_lens_report_attributes():
    # jobs.py reads equal, trapped_count and entries off compare_scattering,
    # and trapped_count, mean_excess and max_abs_dev off length_excess.
    vacuum = ls.geometry.ConformalMetric.vacuum()
    grid = ls.scattering.boundary_grid(2, 2)
    cmp = ls.scattering.compare_scattering(vacuum, vacuum, grid=grid)
    assert cmp.equal is True and cmp.trapped_count == 0 and cmp.entries == 4
    exc = ls.scattering.length_excess(vacuum, vacuum, grid=grid)
    assert exc.trapped_count == 0
    assert abs(exc.mean_excess) < 1e-9 and 0.0 <= exc.max_abs_dev < 1e-9
