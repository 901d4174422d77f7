import dataclasses
import json
import math

import numpy as np
import pytest

from lens_scatter import dop853, geometry, scattering
from lens_scatter.eaton import eaton_index, eaton_metric
from lens_scatter.geometry import (ConformalMetric, IntegrationOptions,
                                   SingularChordError, SingularityError,
                                   integrate_geodesic, load_metric,
                                   metric_from_spec, riemannian_length)
from lens_scatter.scattering import BoundaryVector, _arc_distance, boundary_grid

from conftest import christoffel_turn_rate, solve_ivp_trace
from test_scattering import GENTLE_BUMPS, KINKED_PROFILE, _seeded_bumps

BENDING_PROFILE = ConformalMetric.from_radial(
    lambda r: 1.0 + 0.3 * (1.0 - r * r), lambda r: -0.6 * r, name="bump")


def rhs(metric, x, y, theta):
    """``(dx, dy, dtheta, dtau)`` per unit Euclidean arclength, as integrated."""
    return metric._make_rhs()(0.0, (x, y, theta, 0.0))


class TestGeodesicRHS:
    def test_vacuum_goes_straight(self, vacuum):
        dx, dy, dtheta, dtau = rhs(vacuum, 0.3, -0.2, 1.1)
        assert dtheta == 0.0
        assert (dx, dy) == (math.cos(1.1), math.sin(1.1))
        assert dtau == 1.0

    def test_radial_ray_aimed_at_origin_does_not_turn(self):
        # Gradient parallel to the direction of motion: no turning.
        _, _, dtheta, _ = rhs(BENDING_PROFILE, 0.5, 0.0, math.pi)
        assert abs(dtheta) < 1e-15

    def test_eaton_tangential_rate_matches_index_derivative(self, eaton):
        # Tangential direction at r = 0.5; rate per metric arclength must be
        # -(dn/dr)/n^2 with the derivative taken from the index oracle.
        _, _, dtheta, dtau = rhs(eaton, 0.5, 0.0, math.pi / 2)
        h = 1e-6
        dn = (eaton_index(0.5 + h) - eaton_index(0.5 - h)) / (2 * h)
        n = eaton_index(0.5)
        per_metric_length = dtheta / dtau
        assert per_metric_length == pytest.approx(-dn / n**2, rel=1e-5)

    @pytest.mark.parametrize("metric_name,x,y,theta", [
        ("bump", 0.31, -0.44, 0.7),
        ("bump", -0.2, 0.55, 2.9),
        ("eaton", 0.5, 0.2, 1.3),
        ("eaton", -0.3, -0.4, 5.1),
    ])
    def test_rate_matches_brute_force_christoffel(self, eaton, metric_name, x, y, theta):
        metric = eaton if metric_name == "eaton" else BENDING_PROFILE
        _, _, dtheta, dtau = rhs(metric, x, y, theta)
        oracle = christoffel_turn_rate(metric, x, y, theta)
        assert dtheta / dtau == pytest.approx(oracle, rel=1e-4, abs=1e-8)

    def test_singular_origin_rejected(self, eaton):
        with pytest.raises(SingularityError):
            rhs(eaton, 0.0, 0.0, 0.0)


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

    @pytest.mark.parametrize("chi", [1e-3, 5e-3, 1e-2])
    @pytest.mark.parametrize("side", ["near-0", "near-pi"])
    def test_grazing_vacuum_chords_exit_at_their_far_end(self, vacuum, chi, side):
        # One solver step spans these chords; their entry points round onto
        # or just outside the circle, and must neither exit at once nor run
        # to the length cap.
        opts = IntegrationOptions()
        angle = chi if side == "near-0" else math.pi - chi
        for k in range(96):
            path = integrate_geodesic(vacuum, BoundaryVector(k / 96, angle), opts)
            assert abs(path.length - 2.0 * math.sin(chi)) < opts.step_tol

    def test_grazing_general_chords_exit(self):
        chi = 1e-3
        for k in range(96):
            path = integrate_geodesic(GENTLE_BUMPS, BoundaryVector(k / 96, chi))
            assert not path.trapped and path.length > math.sin(chi)

    def test_step_refinement_convergence(self):
        entry = BoundaryVector(0.0, 0.9)
        coarse = integrate_geodesic(BENDING_PROFILE, entry,
                                    IntegrationOptions(step_tol=1e-8))
        fine = integrate_geodesic(BENDING_PROFILE, entry,
                                  IntegrationOptions(step_tol=5e-9))
        move = float(np.hypot(*(coarse.points[-1] - fine.points[-1])))
        assert move < 1e-8
        assert abs(coarse.directions[-1] - fine.directions[-1]) < 1e-8


KNOT_PROFILE = ConformalMetric.from_profile_knots(
    [(0.0, 1.3), (0.4, 1.22), (0.75, 1.1), (1.0, 1.0)], name="knots")


def _oracle_cases():
    vacuum = ConformalMetric.vacuum()
    lens = eaton_metric()
    bumps = _seeded_bumps(3)
    cases = [("vacuum", vacuum, BoundaryVector(k / 7, chi), None)
             for k, chi in enumerate([1e-3, 0.3, 1.2, math.pi / 2, 2.5, math.pi - 1e-3])]
    # Impacts 0.04 down to 0.002 wind the lens rays tightly round its pole.
    cases += [("lens", lens, BoundaryVector(0.1 * k, math.acos(impact)), None)
              for k, impact in enumerate([0.7, 0.3, 0.04, 0.01, 0.002, -0.02, -0.6])]
    cases += [("knots", KNOT_PROFILE, BoundaryVector(0.3 * k, chi), None)
              for k, chi in enumerate([0.4, 1.0, 1.5, 2.6])]
    cases += [("bumps", bumps, BoundaryVector(k / 5, chi), None)
              for k, chi in enumerate([0.2, 0.9, 1.6, 2.3, 3.0])]
    cases.append(("capped", GENTLE_BUMPS, BoundaryVector(0.4, 1.2), 0.6))
    return [pytest.param(*case, id=f"{case[0]}-{k}") for k, case in enumerate(cases)]


class TestAgainstSolveIvp:
    """The in-repo DOP853 takes the steps scipy's ``solve_ivp`` takes, so
    its paths match the tracer it replaced sample for sample.  Steps cut at
    the knot circles of a tabulated profile leave scipy's on purpose, so
    the cutter is switched off here (see ``TestKnotCrossings``)."""

    def test_tableau_is_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        assert np.array_equal(dop853._A, ref.A) and np.array_equal(dop853._C, ref.C)
        assert np.array_equal(dop853._B, ref.B) and np.array_equal(dop853._D, ref.D)
        assert np.array_equal(dop853._E3, ref.E3) and np.array_equal(dop853._E5, ref.E5)

    @pytest.mark.parametrize("name,metric,entry,cap", _oracle_cases())
    def test_paths_match_oracle(self, name, metric, entry, cap, monkeypatch):
        monkeypatch.setattr(geometry, "_knot_cut", lambda metric: None)
        opts = IntegrationOptions(max_length=cap)
        got = integrate_geodesic(metric, entry, opts)
        want = solve_ivp_trace(metric, entry, opts)
        assert len(got.points) == len(want.points)
        assert got.trapped == want.trapped == (cap is not None)
        assert np.max(np.abs(got.points - want.points)) <= 1e-10
        assert np.max(np.abs(got.directions - want.directions)) <= 1e-10
        assert np.max(np.abs(got.lengths - want.lengths)) <= 1e-10
        if not want.trapped:
            assert _arc_distance(got.exit.arc, want.exit.arc) <= 1e-10
            assert abs(got.exit.angle - want.exit.angle) <= 1e-10
            assert abs(got.length - want.length) <= 1e-10


# n is flat on 0.4 <= r <= 0.6 and n'' jumps on the r = 0.4 circle.  The
# ray's perigee is 5e-4 inside that circle, and scipy's steps carry it in
# and out between two stages of one 0.46-long step whose error estimate
# never sees the bend: its exit lands 3e-6 off and its interpolated
# samples break Clairaut's integral by 4e-5.
GRAZED_KNOTS = ConformalMetric.from_profile_knots(
    [(0.2 * k, 1.0 - sum([0.0, 0.004027576267654266, 0.0,
                          0.023592330062498765, 0.004027576267654266][k:]))
     for k in range(6)], name="knots")
GRAZING_ENTRY = BoundaryVector(0.04988949262281213, 1.9697424712146816)


class TestKnotCrossings:
    def test_grazed_knot_circle_keeps_clairaut(self):
        opts = IntegrationOptions()
        lo, hi = integrate_geodesic(GRAZED_KNOTS, GRAZING_ENTRY, opts).clairaut_range(GRAZED_KNOTS)
        assert hi - lo < opts.step_tol

    @pytest.mark.parametrize("metric,entry", [
        (GRAZED_KNOTS, GRAZING_ENTRY),
        (KNOT_PROFILE, BoundaryVector(0.3, 1.0)),
        (KNOT_PROFILE, BoundaryVector(0.6, 1.5)),
    ], ids=["grazed", "knots-1.0", "knots-1.5"])
    def test_exit_within_step_tol_of_quadrature(self, metric, entry, monkeypatch):
        # n r increases on both profiles, so scatter answers by Clairaut
        # quadrature, which no solver step can straddle a knot in.
        opts = IntegrationOptions()
        got = integrate_geodesic(metric, entry, opts)

        def no_trace(*args, **kwargs):
            raise AssertionError("scatter traced instead of using quadrature")

        monkeypatch.setattr(scattering, "integrate_geodesic", no_trace)
        want = scattering.scatter(metric, entry, opts)
        assert _arc_distance(got.exit.arc, want.exit.arc) < opts.step_tol
        assert abs(got.exit.angle - want.exit.angle) < opts.step_tol
        assert abs(got.length - want.tau) < opts.step_tol

    def test_uncut_steps_miss_the_grazed_knot(self, monkeypatch):
        # The defect the cutter mends, so the tests above can see it.
        opts = IntegrationOptions()
        want = integrate_geodesic(GRAZED_KNOTS, GRAZING_ENTRY, opts)
        monkeypatch.setattr(geometry, "_knot_cut", lambda metric: None)
        got = integrate_geodesic(GRAZED_KNOTS, GRAZING_ENTRY, opts)
        assert abs(got.length - want.length) > 10 * opts.step_tol
        lo, hi = got.clairaut_range(GRAZED_KNOTS)
        assert hi - lo > 100 * opts.step_tol

    def test_steps_end_just_past_the_circles(self):
        # The ray's perigee is inside both interior knot circles, and it
        # crosses each on a step end going in and another coming out.
        path = integrate_geodesic(KNOT_PROFILE, BoundaryVector(0.6, 1.5))
        r = np.hypot(path.points[:, 0], path.points[:, 1])
        assert r.min() < 0.4
        for knot in (0.4, 0.75):
            near = np.flatnonzero(np.abs(r - knot) < 1e-7)
            assert near.min() < np.argmin(r) < near.max()


class TestProfileRim:
    """A radial profile is one formula across the rim, so a ray's
    right-hand side does not jump where it enters or leaves."""

    @pytest.mark.parametrize("seed", range(4))
    def test_tabulated_arrays_equal_scalars(self, seed):
        rng = np.random.default_rng(seed)
        radii = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 6)), [1.0]])
        metric = ConformalMetric.from_profile_knots(
            zip(radii, rng.uniform(0.5, 2.0, radii.size)))
        r = np.concatenate([rng.uniform(0.0, 1.5, 400), radii, [1.0 + 1e-12, 1.5]])
        n, dn = metric.profile.eval_many(r)
        assert list(zip(n.tolist(), dn.tolist())) == [metric.profile.eval(x) for x in r.tolist()]

    @pytest.mark.parametrize("name", ["lens", "knots"])
    def test_no_jump_at_the_rim(self, eaton, name):
        metric = eaton if name == "lens" else KNOT_PROFILE
        R = metric.radius
        inside = metric.profile.eval(R * (1.0 - 1e-12))
        outside = metric.profile.eval(R * (1.0 + 1e-12))
        assert abs(inside[0] - outside[0]) < 1e-9
        assert abs(inside[1] - outside[1]) < 1e-9

    @pytest.mark.parametrize("name,entry,bound", [
        ("lens", BoundaryVector(0.2, 1.0), 30),
        ("lens", BoundaryVector(0.0, 0.4), 10),
        ("kinked", BoundaryVector(0.6, 1.5), 40),
    ], ids=["lens-1.0", "lens-0.4", "kinked-1.5"])
    def test_few_rejected_steps(self, eaton, name, entry, bound):
        # With n' = 0 outside the rim these took 59, 42 and 63 rejected
        # steps, most of them shrinking the first step across the jump.
        metric = eaton if name == "lens" else KINKED_PROFILE
        assert integrate_geodesic(metric, entry).stats.rejected <= bound


class TestTraceStats:
    def test_rhs_calls_count_field_evaluations(self):
        n, grad = GENTLE_BUMPS.field
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return grad(x, y)

        metric = ConformalMetric.general(n, counted)
        for entry, cap, end in [(BoundaryVector(0.1, 1.0), None, "exited"),
                                (BoundaryVector(0.4, 1.2), 0.6, "length_cap")]:
            calls.clear()
            stats = integrate_geodesic(metric, entry, IntegrationOptions(max_length=cap)).stats
            assert stats.termination == end
            assert stats.rhs_calls == len(calls)
            # Two calls pick the first step, each try costs 12 and each
            # interpolated step 3 more; the last step is interpolated.
            extra = stats.rhs_calls - 2 - 12 * (stats.steps + stats.rejected)
            assert extra >= 3 and extra % 3 == 0

    def test_refinement_rounds(self, eaton):
        # Rays round the pole turn faster than the solver's steps resolve.
        stats = integrate_geodesic(eaton, BoundaryVector(0.0, math.acos(0.01))).stats
        assert stats.refine_rounds >= 1 and not stats.refine_exhausted
        stats = integrate_geodesic(eaton, BoundaryVector(0.0, 0.3)).stats
        assert stats.refine_rounds == 0


class TestRotatedPaths:
    @pytest.mark.parametrize("name", ["lens", "knots"])
    def test_rotation_matches_per_entry_trace(self, eaton, name):
        metric = eaton if name == "lens" else KNOT_PROFILE
        opts = IntegrationOptions()
        grid = boundary_grid(8, 2)
        first = {}
        for v in grid:
            if v.angle not in first:
                first[v.angle] = integrate_geodesic(metric, v, opts)
            got = first[v.angle].rotated(v)
            want = integrate_geodesic(metric, v, opts)
            phi = 2.0 * math.pi * v.arc
            assert np.hypot(*(got.points[0] - (math.cos(phi), math.sin(phi)))) < 1e-12
            turn = got.directions[0] - want.directions[0]
            assert abs(math.remainder(turn, 2.0 * math.pi)) < 1e-12
            assert _arc_distance(got.exit.arc, want.exit.arc) < 10 * opts.step_tol
            assert abs(got.exit.angle - want.exit.angle) < 10 * opts.step_tol
            assert abs(got.length - want.length) < 10 * opts.step_tol

    def test_trapped_path_stays_trapped(self, vacuum):
        path = integrate_geodesic(vacuum, BoundaryVector(0.0, 1.0),
                                  IntegrationOptions(max_length=0.5))
        turned = path.rotated(BoundaryVector(0.25, 1.0))
        assert turned.trapped and turned.stats is None
        assert np.allclose(turned.points[0], (0.0, 1.0), atol=1e-15)


class TestIntegrationOptions:
    @pytest.mark.parametrize("kwargs,message", [
        ({"step_tol": math.nan}, "step_tol"),
        ({"step_tol": 0.0}, "step_tol"),
        ({"step_tol": -1.0}, "step_tol"),
        ({"step_tol": math.inf}, "step_tol"),
        ({"max_length": 0.0}, "max_length"),
        ({"max_length": math.inf}, "max_length"),
        ({"max_length": math.nan}, "max_length"),
        ({"step_tol": 2e-11}, "solver tolerance floor"),
    ])
    def test_invalid_values_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            IntegrationOptions(**kwargs)

    def test_valid_edges_accepted(self):
        IntegrationOptions(max_length=None)
        IntegrationOptions(step_tol=2.3e-11)
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
        path = integrate_geodesic(general, BoundaryVector(0.0, 1.0))
        with pytest.raises(ValueError):
            path.clairaut_range(general)


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
        assert m.n_many([(0.3, 0.4)])[0] == 1.0

    def test_profile_knots_monotone_interpolation(self):
        rs = np.linspace(0.0, 1.0, 21)
        knots = [[r, 1.0 + 0.3 * (1.0 - r * r)] for r in rs]
        m = metric_from_spec({"kind": "radial-profile", "radius": 1.0,
                              "profile": knots})
        for r in (0.05, 0.33, 0.77, 0.98):
            n, _ = m.profile.eval(r)
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
        assert m.n_many([(0.0, 0.0)])[0] == pytest.approx(1.3)

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.nan, math.inf])
    def test_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="metric radius must be positive"):
            ConformalMetric.vacuum(radius=radius)

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_profile_radius_must_be_positive(self, radius):
        with pytest.raises(ValueError, match="metric radius must be positive"):
            metric_from_spec({"kind": "radial-profile", "radius": radius,
                              "profile": [[0.0, 1.2], [1.0, 1.0]]})

    @pytest.mark.parametrize("radius", [1e-160, 1e-12, 9.9e-7, 1.01e6, 1e16, 1e155, 1e200])
    def test_radius_must_lie_in_range(self, radius):
        with pytest.raises(ValueError, match=r"metric radius must lie in \[1e-06, 1e\+06\]"):
            ConformalMetric.vacuum(radius=radius)
        with pytest.raises(ValueError, match=r"metric radius must lie in \[1e-06, 1e\+06\]"):
            metric_from_spec({"kind": "radial-profile", "radius": radius,
                              "profile": [[0.0, 1.2], [radius, 1.0]]})

    @pytest.mark.parametrize("radius", [1e-6, 1e6])
    def test_range_ends_scale_the_unit_disk(self, radius):
        # Vacuum and a six-knot profile, both scaled to the radius: exit
        # arcs and tau / R, from quadrature and from the ODE, match R = 1.
        def metrics(R):
            knots = [(R * r, 1.0 + 0.3 * (1.0 - r * r)) for r in np.linspace(0.0, 1.0, 6)]
            return ConformalMetric.vacuum(R), ConformalMetric.from_profile_knots(knots, radius=R)

        def exit_data(m, entry):
            rec = scattering.scatter(m, entry, opts)
            path = integrate_geodesic(m, entry, opts)
            return [(rec.exit.arc, rec.tau / m.radius), (path.exit.arc, path.length / m.radius)]

        opts = IntegrationOptions()
        for entry in (BoundaryVector(0.1, 1.0), BoundaryVector(0.7, 0.05),
                      BoundaryVector(0.3, 3.0)):
            for unit, scaled in zip(metrics(1.0), metrics(radius)):
                for (arc_a, tau_a), (arc_b, tau_b) in zip(exit_data(unit, entry),
                                                          exit_data(scaled, entry)):
                    assert _arc_distance(arc_a, arc_b) < opts.step_tol
                    assert abs(tau_a - tau_b) < opts.step_tol

    def test_load_metric_builtin_names(self):
        assert load_metric("vacuum").kind == "vacuum"
        assert load_metric("eaton").singular_at_origin

    def test_vacuum_metrics_compare_by_radius(self):
        assert ConformalMetric.vacuum() == ConformalMetric.vacuum()
        assert hash(ConformalMetric.vacuum()) == hash(ConformalMetric.vacuum())
        assert ConformalMetric.vacuum(2.0) != ConformalMetric.vacuum()

    def test_metric_is_frozen_and_its_pole_comes_from_the_profile(self):
        knots = ConformalMetric.from_profile_knots([(0.0, 1.2), (1.0, 1.0)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            knots.radius = 2.0
        assert not knots.singular_at_origin
        assert not load_metric("vacuum").singular_at_origin
        assert not BENDING_PROFILE.singular_at_origin
        assert ConformalMetric.from_radial(lambda r: 1.0 / r, lambda r: -1.0 / r ** 2,
                                           r_min=1e-6).singular_at_origin
