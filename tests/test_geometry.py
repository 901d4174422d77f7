import json
import math

import numpy as np
import pytest

from lens_scatter.eaton import eaton_index
from lens_scatter.geometry import (ConformalMetric, GeodesicState,
                                   IntegrationOptions, SingularChordError,
                                   SingularityError, clairaut, geodesic_rhs,
                                   integrate_geodesic, load_metric,
                                   metric_from_spec, riemannian_length)
from lens_scatter.scattering import BoundaryVector

from conftest import christoffel_turn_rate

BENDING_PROFILE = ConformalMetric.from_radial(
    lambda r: 1.0 + 0.3 * (1.0 - r * r), lambda r: -0.6 * r, name="bump")


class TestGeodesicRHS:
    def test_vacuum_goes_straight(self, vacuum):
        d = geodesic_rhs(vacuum, GeodesicState(0.3, -0.2, 1.1))
        assert d.dtheta == 0.0
        assert (d.dx, d.dy) == (math.cos(1.1), math.sin(1.1))
        assert d.dtau == 1.0

    def test_radial_ray_aimed_at_origin_does_not_turn(self):
        # Gradient parallel to the direction of motion: no turning.
        state = GeodesicState(0.5, 0.0, math.pi)
        d = geodesic_rhs(BENDING_PROFILE, state)
        assert abs(d.dtheta) < 1e-15

    def test_eaton_tangential_rate_matches_index_derivative(self, eaton):
        # Tangential direction at r = 0.5; rate per metric arclength must be
        # -(dn/dr)/n^2 with the derivative taken from the index oracle.
        state = GeodesicState(0.5, 0.0, math.pi / 2)
        d = geodesic_rhs(eaton, state)
        h = 1e-6
        dn = (eaton_index(0.5 + h) - eaton_index(0.5 - h)) / (2 * h)
        n = eaton_index(0.5)
        per_metric_length = d.dtheta / d.dtau
        assert per_metric_length == pytest.approx(-dn / n**2, rel=1e-5)

    @pytest.mark.parametrize("metric_name,x,y,theta", [
        ("bump", 0.31, -0.44, 0.7),
        ("bump", -0.2, 0.55, 2.9),
        ("eaton", 0.5, 0.2, 1.3),
        ("eaton", -0.3, -0.4, 5.1),
    ])
    def test_rate_matches_brute_force_christoffel(self, eaton, metric_name, x, y, theta):
        metric = eaton if metric_name == "eaton" else BENDING_PROFILE
        d = geodesic_rhs(metric, GeodesicState(x, y, theta))
        oracle = christoffel_turn_rate(metric, x, y, theta)
        assert d.dtheta / d.dtau == pytest.approx(oracle, rel=1e-4, abs=1e-8)

    def test_singular_origin_rejected(self, eaton):
        with pytest.raises(SingularityError):
            geodesic_rhs(eaton, GeodesicState(0.0, 0.0, 0.0))


class TestIntegration:
    def test_vacuum_diameter(self, vacuum):
        path = integrate_geodesic(vacuum, BoundaryVector(0.0, math.pi / 2))
        assert path.exit.arc == pytest.approx(0.5, abs=1e-9)
        assert path.exit.angle == pytest.approx(math.pi / 2, abs=1e-9)
        assert path.length == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("chi", [0.3, math.pi / 4, 1.2, 2.0, 2.8])
    def test_vacuum_chord_closed_form(self, vacuum, chi):
        path = integrate_geodesic(vacuum, BoundaryVector(0.1, chi))
        assert path.length == pytest.approx(2.0 * math.sin(chi), abs=1e-9)
        assert path.exit.arc == pytest.approx((0.1 + chi / math.pi) % 1.0, abs=1e-9)
        assert path.exit.angle == pytest.approx(chi, abs=1e-9)

    def test_eaton_exits_parallel(self, eaton):
        path = integrate_geodesic(eaton, BoundaryVector(0.0, math.pi / 4))
        dev = math.remainder(path.directions[-1] - path.directions[0], 2 * math.pi)
        assert abs(dev) < 1e-5

    def test_arclength_strictly_increasing(self, eaton):
        path = integrate_geodesic(eaton, BoundaryVector(0.3, 1.0))
        assert np.all(np.diff(path.lengths) >= 0.0)
        assert path.length == pytest.approx(float(path.lengths[-1]))

    @pytest.mark.parametrize("metric_name,chi", [
        ("vacuum", 0.8), ("bump", 1.1), ("eaton", math.pi / 4),
        ("eaton", 1.3806967859455346)])
    def test_reversibility(self, vacuum, eaton, metric_name, chi):
        # Round trip reproduces the entry componentwise within 2x step_tol.
        metric = {"vacuum": vacuum, "bump": BENDING_PROFILE, "eaton": eaton}[metric_name]
        opts = IntegrationOptions()
        fwd = integrate_geodesic(metric, BoundaryVector(0.2, chi), opts)
        back = integrate_geodesic(metric, fwd.exit.reversed(), opts)
        target = BoundaryVector(0.2, chi).reversed()
        arc_dev = abs(back.exit.arc - target.arc) % 1.0
        arc_dev = min(arc_dev, 1.0 - arc_dev)
        assert arc_dev < 2.0 * opts.step_tol
        assert abs(back.exit.angle - target.angle) < 2.0 * opts.step_tol
        assert back.length == pytest.approx(fwd.length, abs=4.0 * opts.step_tol)

    def test_singular_chord_rejected(self, eaton):
        with pytest.raises(SingularChordError):
            integrate_geodesic(eaton, BoundaryVector(0.1, math.pi / 2))

    def test_tangential_entry_rejected(self, vacuum):
        with pytest.raises(ValueError):
            integrate_geodesic(vacuum, BoundaryVector(0.0, 0.0))

    def test_trapped_marker_on_length_cap(self, vacuum):
        path = integrate_geodesic(vacuum, BoundaryVector(0.0, math.pi / 2),
                                  IntegrationOptions(max_length=0.5))
        assert path.trapped
        assert path.exit is None
        assert path.length == math.inf

    def test_step_refinement_convergence(self):
        entry = BoundaryVector(0.0, 0.9)
        coarse = integrate_geodesic(BENDING_PROFILE, entry,
                                    IntegrationOptions(step_tol=1e-8))
        fine = integrate_geodesic(BENDING_PROFILE, entry,
                                  IntegrationOptions(step_tol=5e-9))
        move = float(np.hypot(*(coarse.points[-1] - fine.points[-1])))
        assert move < 1e-8
        assert abs(coarse.directions[-1] - fine.directions[-1]) < 1e-8


class TestIntegrationOptions:
    @pytest.mark.parametrize("kwargs,message", [
        ({"step_tol": math.nan}, "step_tol"),
        ({"step_tol": 0.0}, "step_tol"),
        ({"step_tol": -1.0}, "step_tol"),
        ({"step_tol": math.inf}, "step_tol"),
        ({"max_length": 0.0}, "max_length"),
        ({"max_length": math.inf}, "max_length"),
        ({"max_length": math.nan}, "max_length"),
        ({"exclusion_radius": -1e-3}, "exclusion_radius"),
        ({"exclusion_radius": math.nan}, "exclusion_radius"),
    ])
    def test_invalid_values_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            IntegrationOptions(**kwargs)

    def test_valid_edges_accepted(self):
        IntegrationOptions(max_length=None, exclusion_radius=0.0)
        assert IntegrationOptions(max_length=3.0).length_cap(1.0) == 3.0
        assert IntegrationOptions().length_cap(2.0) == 400.0


class TestClairaut:
    def test_vacuum_diameter_is_zero(self, vacuum):
        path = integrate_geodesic(vacuum, BoundaryVector(0.0, math.pi / 2))
        lo, hi = path.clairaut_range(vacuum)
        assert abs(lo) < 1e-9 and abs(hi) < 1e-9

    def test_vacuum_chord_constant(self, vacuum):
        path = integrate_geodesic(vacuum, BoundaryVector(0.1, 0.7))
        lo, hi = path.clairaut_range(vacuum)
        assert hi - lo < 1e-12

    def test_eaton_conserved_along_path(self, eaton):
        path = integrate_geodesic(eaton, BoundaryVector(0.0, math.pi / 4))
        lo, hi = path.clairaut_range(eaton)
        assert hi - lo < 1e-6 * (1.0 + abs(hi))

    def test_requires_radial_metric(self):
        general = ConformalMetric.general(lambda x, y: 1.0 + 0.1 * x,
                                          lambda x, y: (0.1, 0.0))
        with pytest.raises(ValueError):
            clairaut(general, GeodesicState(0.1, 0.1, 0.0))


class TestRiemannianLength:
    def test_vacuum_unit_segment(self, vacuum):
        pts = np.column_stack([np.linspace(-0.5, 0.5, 33), np.zeros(33)])
        assert riemannian_length(vacuum, pts) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_boundary_circle(self, vacuum):
        # The inscribed polyline sits ~ (pi/m)^2 / 6 per unit length below
        # the circle; the quadrature itself is exact on the chords.
        u = np.linspace(0.0, 2 * math.pi, 4097)
        pts = np.column_stack([np.cos(u), np.sin(u)])
        assert riemannian_length(vacuum, pts) == pytest.approx(2 * math.pi, abs=1e-6)

    def test_eaton_boundary_circle(self, eaton):
        # n(1) = 1 is forced by the index equation, so the rim has vacuum
        # length.  The doubled-refinement value is the quadrature oracle.
        u = np.linspace(0.0, 2 * math.pi, 4097)
        pts = np.column_stack([np.cos(u), np.sin(u)])
        coarse = riemannian_length(eaton, pts)
        u2 = np.linspace(0.0, 2 * math.pi, 8193)
        fine = riemannian_length(eaton, np.column_stack([np.cos(u2), np.sin(u2)]))
        assert coarse == pytest.approx(fine, abs=1e-6)
        assert fine == pytest.approx(2 * math.pi, abs=1e-6)

    def test_nodes_exact_on_straight_segments(self):
        # n = 1.3 - 0.3 r^2 is quadratic along any straight segment, so the
        # 5-point Gauss rule integrates it exactly; only polyline geometry
        # can contribute error.
        a = np.array([0.1, -0.2])
        b = np.array([0.6, 0.5])
        d = b - a
        # integral of |p(t)|^2 over the segment, in closed form
        r2_int = a @ a + a @ d + (d @ d) / 3.0
        exact = (1.3 - 0.3 * r2_int) * math.hypot(*d)
        got = riemannian_length(BENDING_PROFILE, np.array([a, b]))
        assert got == pytest.approx(exact, abs=1e-14)

    def test_polyline_refinement_second_order(self):
        def length_with(m):
            u = np.linspace(0.0, 2 * math.pi, m + 1)
            return riemannian_length(BENDING_PROFILE,
                                     0.7 * np.column_stack([np.cos(u), np.sin(u)]))

        exact = 2 * math.pi * 0.7 * (1.0 + 0.3 * (1.0 - 0.49))
        errs = [abs(length_with(m) - exact) for m in (64, 128, 256)]
        assert errs[1] < errs[0] / 3.5
        assert errs[2] < errs[1] / 3.5

    def test_singular_origin_rejected(self, eaton):
        pts = np.array([[-0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(SingularityError):
            riemannian_length(eaton, pts)


class TestMetricSpecs:
    def test_vacuum_roundtrip(self):
        m = metric_from_spec({"kind": "vacuum", "radius": 1.0})
        assert m.kind == "vacuum"
        assert m.n_at(0.3, 0.4) == 1.0

    def test_profile_knots_monotone_interpolation(self):
        rs = np.linspace(0.0, 1.0, 21)
        knots = [[r, 1.0 + 0.3 * (1.0 - r * r)] for r in rs]
        m = metric_from_spec({"kind": "radial-profile", "radius": 1.0,
                              "profile": knots})
        for r in (0.05, 0.33, 0.77, 0.98):
            n, _ = m.radial_eval(r)
            assert n == pytest.approx(1.0 + 0.3 * (1.0 - r * r), abs=2e-5)

    def test_profile_requires_coverage(self):
        with pytest.raises(ValueError):
            metric_from_spec({"kind": "radial-profile",
                              "profile": [[0.0, 1.0], [0.5, 1.1]]})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            metric_from_spec({"kind": "hyperbolic"})

    def test_load_metric_file(self, tmp_path):
        spec = {"kind": "radial-profile", "radius": 1.0,
                "profile": [[0.0, 1.3], [0.5, 1.2], [1.0, 1.0]]}
        p = tmp_path / "m.json"
        p.write_text(json.dumps(spec))
        m = load_metric(p)
        assert m.kind == "radial-profile"
        assert m.n_at(0.0, 0.0) == pytest.approx(1.3)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="metric radius must be positive"):
            ConformalMetric.vacuum(radius=radius)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_profile_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="metric radius must be positive"):
            metric_from_spec({"kind": "radial-profile", "radius": radius,
                              "profile": [[0.0, 1.2], [1.0, 1.0]]})

    def test_load_metric_builtin_names(self):
        assert load_metric("vacuum").kind == "vacuum"
        assert load_metric("eaton").singular_at_origin
