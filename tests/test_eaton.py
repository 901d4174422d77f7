import math

import numpy as np
import pytest

from lens_scatter.eaton import (NonIntegralWindingError, eaton_index,
                                eaton_metric, index_residual,
                                invisibility_check, loop_winding)
from lens_scatter.geometry import GeodesicPath, integrate_geodesic
from lens_scatter.scattering import BoundaryVector, boundary_grid


def bisect_implicit_index(r: float, lo: float = 1.0, hi: float | None = None) -> float:
    """Oracle: plain bisection of the implicit equation over n in (lo, hi]."""
    hi = hi if hi is not None else 1.0 / r
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if index_residual(mid, r) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestIndex:
    def test_boundary_value_is_exactly_one(self):
        assert eaton_index(1.0) == 1.0
        assert index_residual(1.0, 1.0) == 0.0

    def test_half_radius_against_bisection_oracle(self):
        # Bisection over n in (1, 2] per the bracket at r = 0.5.
        oracle = bisect_implicit_index(0.5, 1.0, 2.0)
        assert oracle == pytest.approx(1.9010803402881384, abs=1e-12)
        assert eaton_index(0.5) == pytest.approx(oracle, abs=1e-12)

    def test_divergence_toward_the_origin(self):
        n3, n2 = eaton_index(1e-3), eaton_index(1e-2)
        assert n3 > n2 > 30.0
        assert n3 > 150.0

    def test_residual_at_random_radii(self):
        rng = np.random.default_rng(1234)
        for r in rng.uniform(1e-4, 1.0, 1000):
            n = eaton_index(float(r))
            assert abs(index_residual(n, float(r))) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eaton_index(0.0)
        with pytest.raises(ValueError):
            eaton_index(-0.5)
        with pytest.raises(ValueError):
            eaton_index(1.5)


class TestProfileTable:
    def test_strictly_decreasing_and_real_root_bound(self, eaton):
        prof = eaton.profile
        assert np.all(np.diff(prof.values) < 0.0)
        assert np.all(prof.values * prof.radii <= 1.0 + 1e-12)
        assert prof.values[-1] == 1.0

    def test_interpolation_matches_root_solve(self, eaton):
        rng = np.random.default_rng(7)
        for r in rng.uniform(1e-4, 1.0, 50):
            n_interp, _ = eaton.radial_eval(float(r))
            assert n_interp == pytest.approx(eaton_index(float(r)), rel=1e-8)

    def test_metric_holds_the_profile_from_construction(self, eaton):
        with pytest.raises(AttributeError):
            eaton.profile = None
        assert eaton.profile is eaton_metric().profile
        assert eaton.profile.r_min == eaton.profile.radii[0]

    def test_exact_metric_agrees_with_table(self, eaton):
        exact = eaton_metric(exact=True)
        for r in (0.02, 0.3, 0.77):
            n_t, dn_t = eaton.radial_eval(r)
            n_e, dn_e = exact.radial_eval(r)
            assert n_t == pytest.approx(n_e, rel=1e-8)
            assert dn_t == pytest.approx(dn_e, rel=1e-5)


class TestLoopWinding:
    def test_vacuum_chord_has_no_winding(self, vacuum):
        path = integrate_geodesic(vacuum, BoundaryVector(0.0, 0.7))
        assert loop_winding(path) == 0

    def test_eaton_makes_one_circuit(self, eaton):
        path = integrate_geodesic(eaton, BoundaryVector(0.0, math.pi / 4))
        assert abs(loop_winding(path)) == 1

    def test_reversed_traversal_negates(self, eaton):
        fwd = integrate_geodesic(eaton, BoundaryVector(0.0, math.pi / 4))
        back = integrate_geodesic(eaton, fwd.exit.reversed())
        assert loop_winding(back) == -loop_winding(fwd)

    def test_reversed_sample_order_negates(self, eaton):
        path = integrate_geodesic(eaton, BoundaryVector(0.0, 1.0))
        rev = GeodesicPath(path.euclid_s, path.points[::-1], path.directions[::-1],
                           path.lengths, path.entry, path.exit, False)
        assert loop_winding(rev) == -loop_winding(path)

    def test_unreliable_lift_raises(self):
        # Two samples subtending most of a half turn: the polar-angle lift
        # cannot be trusted, so the winding is not verifiable.
        u = np.array([0.0, 2.8])
        pts = 0.5 * np.column_stack([np.cos(u), np.sin(u)])
        path = GeodesicPath(np.linspace(0, 1, 2), pts, np.zeros(2),
                            np.linspace(0, 1, 2), None, None, False)
        with pytest.raises(NonIntegralWindingError):
            loop_winding(path)

    def test_path_through_origin_rejected(self):
        pts = np.array([[0.5, 0.0], [0.0, 0.0], [-0.5, 0.0]])
        path = GeodesicPath(np.linspace(0, 1, 3), pts, np.zeros(3),
                            np.linspace(0, 1, 3), None, None, False)
        with pytest.raises(ValueError):
            loop_winding(path)


class TestInvisibility:
    def test_single_offset_chord_parallel(self, eaton):
        # Chord from arc 0 to arc 0.4: one step (0.1 of the perimeter) away
        # from the diameter, so it clears the singular origin.
        rep = invisibility_check([BoundaryVector(0.0, 0.4 * math.pi)], 1e-5,
                                 metric=eaton)
        assert rep.max_direction_dev < 1e-5
        assert rep.passed

    def test_small_grid(self, eaton):
        rep = invisibility_check(boundary_grid(4, 4), 1e-4, metric=eaton)
        assert rep.passed
        assert all(abs(w) == 1 for w in rep.windings)

    def test_vacuum_control_case(self, vacuum):
        rep = invisibility_check(boundary_grid(4, 4), 1e-4, metric=vacuum)
        assert rep.max_direction_dev < 1e-9
        assert rep.max_exit_dev < 1e-9
        assert all(w == 0 for w in rep.windings)
