import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lens_scatter import scattering
from lens_scatter.eaton import eaton_metric
from lens_scatter.geometry import (ConformalMetric, IntegrationOptions,
                                   SingularChordError, integrate_geodesic)
from lens_scatter.scattering import (INWARD, OUTWARD, TANGENTIAL,
                                     BoundaryIsometry, BoundaryVector,
                                     LensDataset, _arc_distance,
                                     boundary_grid, classify,
                                     compare_scattering, length_excess,
                                     phi_map, scatter)

BENDING_PROFILE = ConformalMetric.from_radial(
    lambda r: 1.0 + 0.3 * (1.0 - r * r), lambda r: -0.6 * r, name="bump")
GRAZING = math.cos(0.05)  # largest impact boundary_grid produces


class TestClassify:
    def test_normal_is_inward(self):
        assert classify(BoundaryVector(0.0, math.pi / 2)) == INWARD

    def test_zero_is_tangential(self):
        assert classify(BoundaryVector(0.7, 0.0)) == TANGENTIAL
        assert classify(BoundaryVector(0.7, math.pi)) == TANGENTIAL

    def test_strict_inequality_near_pi(self):
        assert classify(BoundaryVector(0.0, math.pi - 1e-9)) == INWARD

    def test_outward_duck_typed(self):
        class V:
            arc = 0.0
            angle = 1.5 * math.pi

        assert classify(V()) == OUTWARD

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            BoundaryVector(0.0, -0.1)


class TestScatter:
    def test_vacuum_diameter(self, vacuum):
        rec = scatter(vacuum, BoundaryVector(0.0, math.pi / 2))
        assert rec.exit.arc == pytest.approx(0.5, abs=1e-9)
        assert rec.exit.angle == pytest.approx(math.pi / 2, abs=1e-9)
        assert rec.tau == pytest.approx(2.0, abs=1e-9)

    def test_vacuum_quarter_chord(self, vacuum):
        rec = scatter(vacuum, BoundaryVector(0.0, math.pi / 4))
        assert rec.exit.arc == pytest.approx(0.25, abs=1e-9)
        assert rec.exit.angle == pytest.approx(math.pi / 4, abs=1e-9)
        assert rec.tau == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_eaton_exit_matches_vacuum(self, eaton):
        rec = scatter(eaton, BoundaryVector(0.0, math.pi / 4))
        assert rec.exit.arc == pytest.approx(0.25, abs=1e-4)
        assert rec.exit.angle == pytest.approx(math.pi / 4, abs=1e-4)
        assert rec.tau > math.sqrt(2.0)

    def test_rejects_non_inward_entry(self, vacuum):
        with pytest.raises(ValueError):
            scatter(vacuum, BoundaryVector(0.0, 0.0))

    def test_reversibility(self, eaton):
        opts = IntegrationOptions()
        rec = scatter(eaton, BoundaryVector(0.12, 1.0), opts)
        back = scatter(eaton, rec.exit.reversed(), opts)
        target = rec.entry.reversed()
        arc_dev = abs(back.exit.arc - target.arc) % 1.0
        assert min(arc_dev, 1.0 - arc_dev) < 2.0 * opts.step_tol
        assert abs(back.exit.angle - target.angle) < 2.0 * opts.step_tol


class TestPhiMap:
    def test_identity_fixes_everything(self):
        v = BoundaryVector(0.3, 1.1)
        assert phi_map(BoundaryIsometry(), v) == v

    def test_rotation_preserves_normal_component(self):
        out = phi_map(BoundaryIsometry(shift=0.25), BoundaryVector(0.0, math.pi / 2))
        assert out.arc == pytest.approx(0.25)
        assert out.angle == pytest.approx(math.pi / 2)

    def test_reflection_flips_tangential_component(self):
        out = phi_map(BoundaryIsometry(reflect=True), BoundaryVector(0.0, math.pi / 4))
        assert out.arc == pytest.approx(0.0)
        assert out.angle == pytest.approx(3.0 * math.pi / 4)

    # Angles within one ulp of the tangential boundary can collapse onto it
    # under pi - angle; class preservation is only meaningful outside that.
    @given(arc=st.floats(0.0, 0.999999),
           angle=st.one_of(st.sampled_from([0.0, math.pi]),
                           st.floats(1e-12, math.pi - 1e-12)),
           shift=st.floats(-1.0, 1.0), reflect=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_involution_and_class_preservation(self, arc, angle, shift, reflect):
        h = BoundaryIsometry(shift, reflect)
        v = BoundaryVector(arc, angle)
        w = phi_map(h, v)
        assert classify(w) == classify(v)
        back = phi_map(h.inverse(), w)
        arc_dev = abs(back.arc - v.arc) % 1.0
        assert min(arc_dev, 1.0 - arc_dev) < 1e-12
        assert abs(back.angle - v.angle) < 1e-12


class TestCompare:
    def test_vacuum_equals_itself(self, vacuum):
        rep = compare_scattering(vacuum, vacuum, grid=boundary_grid(4, 4))
        assert rep.equal
        assert rep.max_angle_dev < 1e-9
        assert rep.max_arc_dev < 1e-9
        assert rep.trapped_count == 0

    def test_vacuum_equals_eaton(self, vacuum, eaton):
        rep = compare_scattering(vacuum, eaton, grid=boundary_grid(4, 4), tol=1e-4)
        assert rep.equal
        assert rep.max_angle_dev < 1e-4
        assert rep.max_arc_dev < 1e-4

    def test_bending_profile_differs(self, vacuum):
        rep = compare_scattering(vacuum, BENDING_PROFILE, grid=boundary_grid(4, 4),
                                 tol=1e-4)
        assert not rep.equal
        # A radial index with n(1)=1 preserves the unsigned exit angle by
        # symmetry; the disagreement shows up in the exit arc.
        assert rep.max_arc_dev > 1e-2

    def test_trapped_vetoes_equality(self, vacuum):
        rep = compare_scattering(vacuum, vacuum, grid=boundary_grid(2, 2),
                                 opts=IntegrationOptions(max_length=0.05))
        assert rep.trapped_count == 4
        assert not rep.equal


class TestLengthExcess:
    def test_vacuum_vs_vacuum_zero(self, vacuum):
        rep = length_excess(vacuum, vacuum, grid=boundary_grid(4, 4))
        assert abs(rep.mean_excess) < 1e-9
        assert rep.max_abs_dev < 1e-9

    def test_eaton_excess_constant_and_positive(self, vacuum, eaton):
        rep = length_excess(vacuum, eaton, grid=boundary_grid(4, 4))
        assert rep.mean_excess > 0.0
        assert rep.max_abs_dev < 1e-3 * rep.mean_excess

    def test_two_antipodal_entries_agree(self, vacuum, eaton):
        # Two entries on opposite sides of the disk, same interior angle.
        grid = [BoundaryVector(0.0, 1.0), BoundaryVector(0.5, 1.0)]
        rep = length_excess(vacuum, eaton, grid=grid)
        e1, e2 = rep.excesses
        assert abs(e1 - e2) < 1e-3 * abs(rep.mean_excess)


class TestLensDataset:
    def test_collect_sorted(self, vacuum):
        ds = LensDataset.collect(vacuum, boundary_grid(4, 2))
        keys = [(r.entry.arc, r.entry.angle) for r in ds.records]
        assert keys == sorted(keys)
        assert ds.metric_id == "vacuum"

    def test_duplicate_entries_rejected(self, vacuum):
        rec = scatter(vacuum, BoundaryVector(0.0, 1.0))
        with pytest.raises(ValueError):
            LensDataset("m", [rec, rec], "dup")


class TestBoundaryGrid:
    def test_default_shape(self):
        grid = boundary_grid()
        assert len(grid) == 16 * 8

    def test_angles_avoid_tangential_margin(self):
        grid = boundary_grid(8, 8)
        assert all(0.05 < v.angle < math.pi - 0.05 for v in grid)

    def test_even_angle_counts_avoid_the_normal(self):
        for n_angles in (2, 4, 8):
            grid = boundary_grid(4, n_angles)
            assert all(abs(v.angle - math.pi / 2) > 1e-3 for v in grid)


class _CountingTracer:
    """Stand-in for ``integrate_geodesic`` that counts calls and delegates."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return integrate_geodesic(*args, **kwargs)


# Six knots with steps of at most 0.06 keep |r n'| below n, so n r increases
# and every ray has a simple turning point: scatter must use quadrature.
monotone_profiles = st.builds(
    lambda steps, outward_down: ConformalMetric.from_profile_knots(
        [(0.2 * k, 1.0 + (1.0 if outward_down else -1.0) * sum(steps[k:]))
         for k in range(6)], name="knots"),
    st.lists(st.floats(0.0, 0.06), min_size=5, max_size=5), st.booleans())

entries = st.builds(
    lambda arc, impact, side: BoundaryVector(arc, math.acos(side * impact)),
    st.floats(0.0, 0.999), st.floats(1.1e-3, GRAZING), st.sampled_from([-1.0, 1.0]))


class TestClairautFastPath:
    @given(metric=st.one_of(st.just(BENDING_PROFILE), monotone_profiles),
           entry=entries)
    @settings(max_examples=30, deadline=None)
    def test_quadrature_matches_ode(self, metric, entry):
        opts = IntegrationOptions()
        tracer = _CountingTracer()
        with mock.patch.object(scattering, "integrate_geodesic", tracer):
            rec = scatter(metric, entry, opts)
        assert tracer.calls == 0
        path = integrate_geodesic(metric, entry, opts)
        tol = 10.0 * opts.step_tol
        assert _arc_distance(rec.exit.arc, path.exit.arc) < tol
        assert abs(rec.exit.angle - path.exit.angle) < tol
        assert abs(rec.tau - path.length) < tol

    def test_eaton_exits_on_the_vacuum_chord(self, eaton, monkeypatch):
        tracer = _CountingTracer()
        monkeypatch.setattr(scattering, "integrate_geodesic", tracer)
        for impact in np.geomspace(1.1e-3, GRAZING, 24):
            for side in (-1.0, 1.0):
                chi = math.acos(side * impact)
                rec = scatter(eaton, BoundaryVector(0.3, chi))
                assert _arc_distance(rec.exit.arc, 0.3 + chi / math.pi) < 1e-6
                assert rec.exit.angle == chi
                assert rec.tau > 2.0 * math.sin(chi)
        assert tracer.calls == 0

    @given(entry=entries, shift=st.floats(-1.0, 1.0),
           metric=st.sampled_from([eaton_metric(), BENDING_PROFILE]))
    @settings(max_examples=40, deadline=None)
    def test_rotation_equivariance(self, entry, shift, metric):
        rec = scatter(metric, entry)
        moved = scatter(metric, BoundaryVector(entry.arc + shift, entry.angle))
        assert _arc_distance(moved.exit.arc, rec.exit.arc + shift) < 1e-12
        assert moved.exit.angle == rec.exit.angle
        assert moved.tau == rec.tau

    def test_eaton_length_settled_by_exact_profile(self, eaton):
        # The root-solved profile is the reference for the tabulated one:
        # quadrature on the table reproduces its lengths far below step_tol,
        # and the ODE trace on the table agrees with it to step_tol.
        exact = eaton_metric(exact=True)
        opts = IntegrationOptions()
        for impact in (0.3, 0.9, 0.99, GRAZING):
            entry = BoundaryVector(0.0, math.acos(impact))
            reference = scatter(exact, entry, opts).tau
            assert abs(scatter(eaton, entry, opts).tau - reference) < 1e-8
            assert abs(integrate_geodesic(eaton, entry, opts).length
                       - reference) < opts.step_tol

    def test_general_metric_falls_back_to_ode(self, monkeypatch):
        tracer = _CountingTracer()
        monkeypatch.setattr(scattering, "integrate_geodesic", tracer)
        tilt = ConformalMetric.general(lambda x, y: 1.0 + 0.1 * x,
                                       lambda x, y: (0.1, 0.0))
        assert not scatter(tilt, BoundaryVector(0.1, 1.0)).trapped
        assert tracer.calls == 1

    def test_non_simple_turning_point_falls_back_to_ode(self, monkeypatch):
        # n r = max(r, c): the ray with Clairaut constant c turns on a
        # plateau of n r, where (n r)' vanishes and the orbit integrals
        # diverge.
        chi = 1.1
        c = abs(math.cos(chi))
        plateau = ConformalMetric.from_radial(
            lambda r: np.maximum(1.0, c / r),
            lambda r: np.where(r < c, -c / r ** 2, 0.0), name="plateau")
        tracer = _CountingTracer()
        monkeypatch.setattr(scattering, "integrate_geodesic", tracer)
        scatter(plateau, BoundaryVector(0.0, chi), IntegrationOptions(max_length=10.0))
        assert tracer.calls == 1

    def test_singular_chord_message_kept(self, eaton):
        with pytest.raises(SingularChordError,
                           match="entry chord passes within 6.12e-17 of the singular origin"):
            scatter(eaton, BoundaryVector(0.1, math.pi / 2))

    def test_length_cap_gives_trapped_record(self, eaton):
        rec = scatter(eaton, BoundaryVector(0.0, 1.0), IntegrationOptions(max_length=5.0))
        assert rec.trapped
        assert rec.tau == math.inf
