"""Geodesic scattering on conformal disk metrics and knot invariants of
projectivized tangent lifts of plane curves."""

__version__ = "0.1.0"

from .geometry import (ConformalMetric, GeodesicPath, IntegrationOptions,
                       SingularChordError, SingularityError, integrate_geodesic,
                       load_metric, metric_from_spec, riemannian_length)
from .scattering import (BoundaryIsometry, BoundaryVector, CompareReport,
                         ScatteringRecord, boundary_grid, classify,
                         compare_scattering, length_excess, phi_map, scatter,
                         scatter_grid)
from .eaton import (EatonProfile, eaton_index, eaton_metric, invisibility_check,
                    loop_winding)
from .curves import (ParametricCurve, TrigCurve, circle, lemniscate,
                     load_curve_csv, named_curve, rose)
from .lift import (FLAT_INJECTIVITY_RADIUS, LiftedCurve, MinimalLinearCurve,
                   PLVertexPath, ProjCurve, ProjPoint, dist_components,
                   projectivize, triangle_angle_sum, unit_tangent_lift,
                   vertical_length)
from .knot import (Certificate, Crossing, InvariantTable, PLLoop, TangentLoop,
                   analyze_loop, certify_nontrivial, choose_refinement_n,
                   crossing_sign, crossing_type, embedding_separation,
                   find_crossings, pl_refine, pl_validate, random_corpus,
                   singularity_classify, w_invariant)

__all__ = [name for name in dir() if not name.startswith("_")]
