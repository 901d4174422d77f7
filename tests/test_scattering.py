import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from lens_scatter import scattering
from lens_scatter.eaton import _exact_dn_dr, eaton_index, eaton_metric
from lens_scatter.geometry import (ConformalMetric, IntegrationOptions,
                                   SingularChordError, clairaut_orbit,
                                   integrate_geodesic, metric_from_spec, polar_sweep)
from lens_scatter.scattering import (BoundaryIsometry, BoundaryVector,
                                     ScatteringRecord, _arc_distance, boundary_grid,
                                     compare_scattering, length_excess,
                                     phi_map, scatter)

BENDING_PROFILE = ConformalMetric.from_radial(
    lambda r: 1.0 + 0.3 * (1.0 - r * r), lambda r: -0.6 * r, name="bump")
GRAZING = math.cos(0.05)  # largest impact boundary_grid produces
# An expensive property reports its first failure without shrinking it.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)

# Six knots with steps of at most 0.06 keep |r n'| below n, so n r increases
# and every ray has a simple turning point: scatter must use quadrature.
monotone_profiles = st.builds(
    lambda steps, outward_down: ConformalMetric.from_profile_knots(
        [(0.2 * k, 1.0 + (1.0 if outward_down else -1.0) * sum(steps[k:]))
         for k in range(6)], name="knots"),
    st.lists(st.floats(0.0, 0.06), min_size=5, max_size=5), st.booleans())

# quad once integrated across these knots in one range, and missed the sweep
# at impact 0.3 by 1.2e-6 without a warning.
KINKED_PROFILE = ConformalMetric.from_profile_knots(
    [(0.0, 0.81256), (0.2, 0.85507), (0.4, 0.85555), (0.6, 0.89562),
     (0.8, 0.95026), (1.0, 1.0)], name="knots")

entries = st.builds(
    lambda arc, impact, side: BoundaryVector(arc, math.acos(side * impact)),
    st.floats(0.0, 0.999), st.floats(1.1e-3, GRAZING), st.sampled_from([-1.0, 1.0]))


class TestClassify:
    """Which boundary vectors exist: angles in ``[0, pi]``, finite arcs."""

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            BoundaryVector(0.0, -0.1)

    @pytest.mark.parametrize("arc", [math.nan, math.inf, -math.inf])
    def test_non_finite_arc_rejected(self, arc):
        # arc % 1.0 keeps a NaN, and max() drops it from the deviation maxima.
        with pytest.raises(ValueError, match="boundary arc must be finite"):
            BoundaryVector(arc, 1.0)


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

    @pytest.mark.parametrize("shift", [math.nan, math.inf])
    @pytest.mark.parametrize("reflect", [False, True])
    def test_non_finite_shift_rejected(self, shift, reflect):
        with pytest.raises(ValueError, match="boundary shift must be finite"):
            BoundaryIsometry(shift, reflect)

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
        # Tangential (0 or pi) and inward angles keep their class.
        assert (w.angle in (0.0, math.pi)) == (v.angle in (0.0, math.pi))
        inverse = h if reflect else BoundaryIsometry(-shift % 1.0)
        back = phi_map(inverse, w)
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

    def test_pole_chords_are_excluded(self, vacuum, eaton):
        # An odd angle count puts one angle at pi/2, whose chord meets the
        # lens's pole: those three entries are counted, not fatal.
        rep = compare_scattering(vacuum, eaton, grid=boundary_grid(3, 3))
        assert rep.excluded == 3
        assert rep.entries == 9
        assert rep.trapped_count == 0
        assert rep.equal
        assert rep.mean_excess == pytest.approx(2.0 * math.pi, abs=1e-6)
        assert rep.max_abs_dev < 1e-6

    def test_nothing_compared_is_not_equal(self, vacuum, eaton):
        rep = compare_scattering(vacuum, eaton, grid=boundary_grid(2, 1))
        assert rep.excluded == 2
        assert not rep.equal
        assert rep.mean_excess is None and rep.max_abs_dev is None

    def test_mean_excess_sums_left_to_right(self, monkeypatch):
        # Excesses whose left-to-right sum, 0, differs from their exact
        # one, 2, which the compensated builtin sum of Python 3.12 and
        # later returns: the mean must not follow the interpreter.
        taus = {0.1: 1.0, 0.3: 1e100, 0.5: 1.0, 0.7: -1e100}
        metric_m, metric_n = object(), object()

        def fake_grid(metric, entries, opts=None):
            return [ScatteringRecord(v, v, taus[v.arc] if metric is metric_n else 0.0)
                    for v in entries]

        monkeypatch.setattr(scattering, "scatter_grid", fake_grid)
        grid = [BoundaryVector(arc, 1.0) for arc in taus]
        rep = compare_scattering(metric_m, metric_n, grid=grid)
        assert rep.excesses == list(taus.values())
        assert math.fsum(rep.excesses) == 2.0
        assert rep.mean_excess == 0.0

    def test_each_angle_scattered_once_per_metric(self, vacuum, eaton, monkeypatch):
        # Radial exit data depend on the entry angle only: each metric
        # scatters its first entry of every distinct angle, in grid order,
        # and rotates that record to the other entries of the angle.
        calls = []

        def counting_scatter(metric, entry, opts=None):
            calls.append((metric.name, entry))
            return scatter(metric, entry, opts)

        monkeypatch.setattr(scattering, "scatter", counting_scatter)
        h = BoundaryIsometry(0.3, True)
        grid = boundary_grid(4, 2)[::-1]
        rep = compare_scattering(vacuum, eaton, h, grid=grid)
        assert rep.equal
        first_seen = [grid[0], grid[1]]
        assert grid[0].angle != grid[1].angle
        assert calls == ([("vacuum", v) for v in first_seen]
                         + [("eaton", phi_map(h, v)) for v in first_seen])

    def test_general_metric_scattered_per_entry(self, monkeypatch):
        calls = []

        def counting_scatter(metric, entry, opts=None):
            calls.append(entry)
            return scatter(metric, entry, opts)

        monkeypatch.setattr(scattering, "scatter", counting_scatter)
        grid = boundary_grid(3, 2)
        records = scattering.scatter_grid(_seeded_bumps(3), grid)
        assert calls == grid
        assert [rec.entry for rec in records] == grid

    @given(metric=monotone_profiles, shift=st.floats(-1.0, 1.0), reflect=st.booleans(),
           n_arcs=st.integers(2, 5), n_angles=st.sampled_from([2, 4]),
           margin=st.floats(0.05, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_reuse_matches_per_entry_scatter(self, metric, shift, reflect, n_arcs,
                                             n_angles, margin):
        # Even angle counts keep chords off the center, so every entry is
        # settled by quadrature and the reuse is exact.
        h = BoundaryIsometry(shift, reflect)
        grid = boundary_grid(n_arcs, n_angles, angle_margin=margin)
        records_m = scattering.scatter_grid(metric, grid)
        records_n = scattering.scatter_grid(metric, [phi_map(h, v) for v in grid])
        rep = compare_scattering(metric, metric, h, grid=grid)
        assert rep.trapped_count == 0 and rep.excluded == 0
        assert len(rep.excesses) == len(grid)
        for v, got_m, got_n, excess in zip(grid, records_m, records_n, rep.excesses):
            rec_m = scatter(metric, v)
            rec_n = scatter(metric, phi_map(h, v))
            lhs, want = phi_map(h, got_m.exit), phi_map(h, rec_m.exit)
            assert _arc_distance(lhs.arc, want.arc) <= 1e-15
            assert lhs.angle == want.angle
            assert _arc_distance(got_n.exit.arc, rec_n.exit.arc) <= 1e-15
            assert got_n.exit.angle == rec_n.exit.angle
            assert excess == rec_n.tau - rec_m.tau


class TestPerAngle:
    def test_pole_chords_are_none_and_computed_once(self, eaton):
        # The middle angle of three is the normal: its chords hit the pole.
        grid = boundary_grid(3, 3)
        computed = []

        def compute(v):
            computed.append(v)
            return scatter(eaton, v)

        records = scattering.per_angle(eaton, grid, compute)
        assert computed == grid[:3]
        assert [rec is None for rec in records] == [False, True, False] * 3

    def test_trapped_record_rotates_trapped(self, vacuum):
        rec = scatter(vacuum, BoundaryVector(0.1, 1.0), IntegrationOptions(max_length=0.5))
        turned = rec.rotated(BoundaryVector(0.6, 1.0))
        assert turned.trapped and turned.tau == math.inf and turned.sweep is None
        assert turned.entry == BoundaryVector(0.6, 1.0)

    def test_record_without_sweep_turns_by_its_exit_arc(self):
        # A traced path too close to the origin has no sweep; the exit arc's
        # advance over the entry arc is rotated instead.
        rec = scattering.ScatteringRecord(BoundaryVector(0.1, 1.0), BoundaryVector(0.45, 1.2),
                                          2.5, None)
        turned = rec.rotated(BoundaryVector(0.3, 1.0))
        assert turned.entry == BoundaryVector(0.3, 1.0)
        assert turned.exit.arc == pytest.approx(0.65, abs=1e-15)
        assert turned.exit.angle == 1.2
        assert turned.tau == 2.5 and turned.sweep is None


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

    def test_pole_chords_are_excluded(self, vacuum, eaton):
        grid = boundary_grid(3, 3)
        rep = length_excess(vacuum, eaton, grid=grid)
        assert rep.excluded == 3
        assert len(rep.excesses) == 6
        assert rep.mean_excess == compare_scattering(vacuum, eaton, grid=grid).mean_excess

    def test_every_entry_excluded_raises(self, vacuum, eaton):
        with pytest.raises(RuntimeError, match="no usable entries"):
            length_excess(vacuum, eaton, grid=boundary_grid(2, 1))


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


class TestClairautFastPath:
    @given(metric=st.one_of(st.just(BENDING_PROFILE), monotone_profiles),
           entry=entries)
    @settings(max_examples=30, deadline=None, phases=NO_SHRINK)
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

    def test_quadrature_panels_end_at_the_knots(self):
        # n'' jumps at each knot; quad's error estimate sees that only when
        # its panels end there.
        opts = IntegrationOptions()
        sweep, tau = clairaut_orbit(KINKED_PROFILE, 0.3, opts)
        path = integrate_geodesic(KINKED_PROFILE, BoundaryVector(0.0, math.acos(0.3)), opts)
        assert abs(sweep - polar_sweep(path.points)) < opts.step_tol
        assert abs(tau - path.length) < opts.step_tol

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
        # The root-solved profile is the reference for the closed form:
        # quadrature on the closed form reproduces its lengths far below
        # step_tol, and the ODE trace agrees with it to step_tol.
        exact = ConformalMetric.from_radial(
            np.vectorize(eaton_index), np.vectorize(lambda r: _exact_dn_dr(eaton_index(r))),
            r_min=1e-10, name="eaton-root-solved")
        opts = IntegrationOptions()
        for impact in (0.3, 0.9, 0.99, GRAZING):
            entry = BoundaryVector(0.0, math.acos(impact))
            reference = scatter(exact, entry, opts).tau
            assert abs(scatter(eaton, entry, opts).tau - reference) < 1e-8
            assert abs(integrate_geodesic(eaton, entry, opts).length
                       - reference) < opts.step_tol

    def test_near_grazing_lens_ray_circles_once(self, eaton):
        # While n' jumped from -1 to 0 at the rim, the traced ray left along
        # its straight chord, without the circuit's 2 pi (for chi up to
        # about 6e-4).  Near grazing the trace misses tau by about
        # 3.2e-10 / chi and the exit arc by about 5e-11 / chi; the bounds
        # allow ten times that.
        chi = 3e-4
        entry = BoundaryVector(0.1, chi)
        bound = 10.0 * 3.2e-10 / chi
        rec = scatter(eaton, entry)
        assert abs(rec.tau - (2.0 * math.pi + 2.0 * math.sin(chi))) < bound
        assert _arc_distance(rec.exit.arc, 0.1 + chi / math.pi) < bound
        path = integrate_geodesic(eaton, entry)
        assert abs(path.length - (2.0 * math.pi + 2.0 * math.sin(chi))) < bound
        assert _arc_distance(path.exit.arc, 0.1 + chi / math.pi) < bound

    @pytest.mark.parametrize("chi", [1e-6, 3e-6, 3e-5, 3e-4])
    def test_near_grazing_lens_quadrature_within_step_tol(self, eaton, chi, monkeypatch):
        # Below chi ~ 5e-6 the whole orbit lies within _SIMPSON_ZONE of r*,
        # so every node takes n r - p from Simpson's rule on (n r)'.  That
        # rule's error is smooth, and the Gauss-Kronrod error estimate
        # cannot see it.
        tracer = _CountingTracer()
        monkeypatch.setattr(scattering, "integrate_geodesic", tracer)
        rec = scatter(eaton, BoundaryVector(0.1, chi))
        assert tracer.calls == 0
        step_tol = IntegrationOptions().step_tol
        assert abs(rec.tau - (2.0 * math.pi + 2.0 * math.sin(chi))) < step_tol
        assert _arc_distance(rec.exit.arc, 0.1 + chi / math.pi) < step_tol

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


def _seeded_bumps(seed: int, count: int = 2, *, centre: float = 0.4, amp: float = 0.3,
                  width: tuple[float, float] = (0.15, 0.35)) -> ConformalMetric:
    """Non-radial index ``1 + sum_k a_k exp(-|p - c_k|^2 / (2 s_k^2))``, with
    centres in ``[-centre, centre]^2``, ``|a_k| <= amp`` and ``s_k`` in ``width``."""
    rng = np.random.default_rng(seed)
    bumps = [tuple(float(v) for v in b) for b in zip(
        rng.uniform(-centre, centre, count), rng.uniform(-centre, centre, count),
        rng.uniform(-amp, amp, count), rng.uniform(*width, count))]

    def weights(x, y):
        return [(cx, cy, a * math.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * s * s)), s)
                for cx, cy, a, s in bumps]

    def n(x, y):
        return 1.0 + sum(w for _, _, w, _ in weights(x, y))

    def grad(x, y):
        terms = [(w / (s * s), cx, cy) for cx, cy, w, s in weights(x, y)]
        return (-sum(g * (x - cx) for g, cx, _ in terms),
                -sum(g * (y - cy) for g, _, cy in terms))

    return ConformalMetric.general(n, grad, name="bumps")


# Three gentle bumps: the boundary stays strictly convex.  Their lengths vary
# fast enough in the entry angle that TestSantalo's 24-node angle rule is
# exact to 1e-7 only on some seeds; this one reaches 1.7e-9.
GENTLE_BUMPS = _seeded_bumps(10, 3, centre=0.5, amp=0.1, width=(0.2, 0.35))


class TestReversalSymmetry:
    @pytest.mark.parametrize("metric,traces", [(eaton_metric(), 0), (_seeded_bumps(5), 2)],
                             ids=["eaton-quadrature", "bumps-ode"])
    @given(entry=entries)
    @settings(max_examples=30, deadline=None)
    def test_reversed_exit_returns_reversed_entry(self, metric, traces, entry):
        opts = IntegrationOptions()
        tracer = _CountingTracer()
        with mock.patch.object(scattering, "integrate_geodesic", tracer):
            fwd = scatter(metric, entry, opts)
            back = scatter(metric, fwd.exit.reversed(), opts)
        assert tracer.calls == traces
        target = entry.reversed()
        assert _arc_distance(back.exit.arc, target.arc) < 2.0 * opts.step_tol
        assert abs(back.exit.angle - target.angle) < 2.0 * opts.step_tol
        assert abs(back.tau - fwd.tau) < 4.0 * opts.step_tol


def _gauss(f, a: float, b: float, points: int) -> float:
    """Gauss-Legendre quadrature of ``f`` over ``[a, b]``."""
    x, w = np.polynomial.legendre.leggauss(points)
    half = 0.5 * (b - a)
    return half * sum(wi * f(half * xi + 0.5 * (a + b)) for xi, wi in zip(x, w))


class TestBenndorfRelation:
    """Radial lens data rebuilt from scattering data: along the Clairaut
    constant ``p`` the length and the polar sweep obey ``dtau = p dTheta``."""

    @staticmethod
    def sweep(metric, q: float) -> float:
        n_edge = metric.profile.eval(metric.radius)[0]
        return clairaut_orbit(metric, q / n_edge, IntegrationOptions())[0]

    @given(metric=monotone_profiles)
    @settings(max_examples=3, deadline=None, phases=NO_SHRINK)
    def test_herglotz_lengths_from_sweeps(self, metric):
        # With n r increasing, grazing rays have Theta = tau = 0, so
        # tau(p) = p Theta(p) + int_p^P Theta, P = n(R) R.  Theta has kinks
        # where the turning radius crosses a knot, and a square-root edge at
        # P, which q = P - (P - a) s^2 smooths.
        prof, R = metric.profile, metric.radius
        P = prof.eval(R)[0] * R
        kinks = sorted(prof.eval(float(r))[0] * r for r in prof.breakpoints if 0.0 < r < R)
        opts = IntegrationOptions()
        for p in (0.05 * P, 0.3 * P, 0.7 * P, 0.98 * P):
            cuts = [p] + [q for q in kinks if p < q < P]
            area = sum(_gauss(lambda q: self.sweep(metric, q), a, b, 40)
                       for a, b in zip(cuts, cuts[1:]))
            a = cuts[-1]
            area += _gauss(lambda s: self.sweep(metric, P - (P - a) * s * s) * 2.0 * (P - a) * s,
                           0.0, 1.0, 40)
            tau = clairaut_orbit(metric, p / prof.eval(R)[0], opts)[1]
            assert abs(p * self.sweep(metric, p) + area - tau) < opts.step_tol

    def test_lens_lengths_from_sweeps(self, eaton):
        # (n r)'(1) = 0 on the lens, so grazing rays still circle the disk
        # once, and quadrature declines within ~2.4e-5 of grazing: anchor the
        # relation at q0 instead.  Exit arcs know the sweep only mod 2 pi;
        # that sweep, Theta - 2 pi, leaves the constant 2 pi of criterion 4
        # in the anchor terms.
        opts = IntegrationOptions()
        q0 = 1.0 - 1e-3
        sweep0, tau0 = clairaut_orbit(eaton, q0, opts)
        assert abs(tau0 - q0 * (sweep0 - 2.0 * math.pi) - 2.0 * math.pi) < 1e-3
        for p in (0.05, 0.35, 0.65, 0.95):
            sweep, tau = clairaut_orbit(eaton, p, opts)
            area = _gauss(lambda q: self.sweep(eaton, q), p, q0, 64)
            assert abs(tau0 - q0 * sweep0 + p * sweep + area - tau) < opts.step_tol


class TestFirstVariation:
    """Lens data from scattering data by the first variation of length: with
    the entry point fixed and the entry angle ``chi`` varying,

        tau(chi) - tau(chi_0) = int 2 pi R n(y) cos(alpha) db,

    ``y`` being the exit point, ``b`` its arc (unwrapped along the fan) and
    ``alpha`` the exit angle.  Only exit data and ``n`` on the rim enter;
    Benndorf's relation is the radial case, and no symmetry is assumed.
    """

    ARC = 0.13
    CHIS = np.linspace(0.05, 1.5, 101)

    def deviation(self, metric, opts, chis=CHIS) -> float:
        """Largest miss of the identity over the fan, at every other entry."""
        recs = [scatter(metric, BoundaryVector(self.ARC, float(chi)), opts) for chi in chis]
        tau = np.array([r.tau for r in recs])
        b = np.unwrap([r.exit.arc for r in recs], period=1.0)
        R = metric.radius
        y = R * np.column_stack([np.cos(2.0 * math.pi * b), np.sin(2.0 * math.pi * b)])
        f = 2.0 * math.pi * R * np.asarray(metric.n_many(y)) * np.cos([r.exit.angle for r in recs])

        def trapezoid(step):
            # Cumulative trapezoid in b over every step-th entry.
            fs, bs = f[::step], b[::step]
            return np.concatenate(([0.0], np.cumsum(0.5 * (fs[1:] + fs[:-1]) * np.diff(bs))))

        # Each panel's rule is symmetric about its midpoint, so the error runs
        # in even powers of the chi step: Richardson on n and n / 2 panels.
        integral = (4.0 * trapezoid(1)[::2] - trapezoid(2)) / 3.0
        return float(np.max(np.abs(tau[::2] - tau[0] - integral)))

    @pytest.mark.parametrize("metric", [ConformalMetric.vacuum(), GENTLE_BUMPS, eaton_metric()],
                             ids=["vacuum", "bumps-ode", "lens"])
    def test_lengths_from_exit_data(self, metric):
        opts = IntegrationOptions(step_tol=1e-7)
        assert self.deviation(metric, opts) < 5.0 * opts.step_tol

    @pytest.mark.parametrize("seed", [3, 7])
    def test_seeded_bumps(self, seed):
        # Two ODE-traced bumps with |a| <= 0.3.  Seed 3's lengths bend fast
        # enough in chi that 101 entries miss by 8.5 step_tol; 201 suffice.
        opts = IntegrationOptions(step_tol=1e-7)
        chis = np.linspace(0.05, 1.5, 201)
        assert self.deviation(_seeded_bumps(seed), opts, chis) < 5.0 * opts.step_tol

    def test_seeded_knot_profile(self):
        # A six-knot profile falling from n(0) in [1.3, 1.5] to n(1) = 1, drawn
        # as perfbench's lens-exit workload draws it at seed 1.  Its knot
        # circles put kinks in the exit data, so the fan needs 401 entries
        # (400 panels) to come within the bound.
        rng = np.random.default_rng(1)
        n0 = 1.0 + rng.uniform(0.3, 0.5)
        drops = np.cumsum(rng.uniform(0.5, 1.0, 5))
        knots = [[0.2 * k, float(n0 - (n0 - 1.0) * (drops[k - 1] / drops[-1] if k else 0.0))]
                 for k in range(6)]
        knots[-1][1] = 1.0
        metric = metric_from_spec({"kind": "radial-profile", "profile": knots})
        opts = IntegrationOptions(step_tol=1e-7)
        chis = np.linspace(0.05, 1.5, 401)
        assert self.deviation(metric, opts, chis) < 5.0 * opts.step_tol

    def test_lens_anchor_is_the_circuit(self, eaton):
        # Grazing rays of a simple metric have tau -> 0, which fixes the
        # constant.  The lens has the vacuum's scattering data, but its
        # grazing rays circle the disk once: the anchor is 2 pi longer.
        opts = IntegrationOptions(step_tol=1e-7)
        chi = float(self.CHIS[0])
        tau = scatter(eaton, BoundaryVector(self.ARC, chi), opts).tau
        assert abs(tau - (2.0 * math.pi + 2.0 * math.sin(chi))) < opts.step_tol


class TestClairautDrift:
    @given(metric=st.one_of(st.sampled_from([eaton_metric(), BENDING_PROFILE]),
                            monotone_profiles),
           entry=entries)
    @settings(max_examples=15, deadline=None, phases=NO_SHRINK)
    def test_spread_below_step_tol(self, metric, entry):
        opts = IntegrationOptions()
        lo, hi = integrate_geodesic(metric, entry, opts).clairaut_range(metric)
        assert hi - lo < opts.step_tol


class TestSantalo:
    """Santalo's formula with unit integrand: the metric area is a boundary
    integral of lengths, with no symmetry assumed,

        int_D n^2 dA = (R / 2 pi) int_0^2pi n(R, phi) int_0^pi tau(phi, chi) sin chi dchi dphi.
    """

    @staticmethod
    def radial_lengths(metric, cuts) -> float:
        # A radial tau depends on chi only, so the phi integral is 2 pi n(R).
        R = metric.radius

        def f(chi):
            return scatter(metric, BoundaryVector(0.0, chi)).tau * math.sin(chi)

        return R * metric.profile.eval(R)[0] * sum(
            _gauss(f, a, b, 24) for a, b in zip(cuts, cuts[1:]))

    def test_vacuum(self, vacuum):
        assert abs(self.radial_lengths(vacuum, [0.0, math.pi]) - math.pi) < 1e-8 * math.pi

    def test_lens(self, eaton):
        # Pole chords (impact below 1e-3) are excluded; every lens length is
        # its chord plus 2 pi, so their sliver is added in closed form.
        a = math.acos(1e-3)
        lengths = (self.radial_lengths(eaton, [0.0, a])
                   + self.radial_lengths(eaton, [math.pi - a, math.pi]))
        lengths += math.pi - 2.0 * a + math.sin(2.0 * a) + 4.0 * math.pi * math.cos(a)
        assert abs(lengths - 5.0 * math.pi) < 1e-8 * 5.0 * math.pi

    def test_knot_profile(self):
        # tau has kinks where the turning radius crosses a knot, the knot at
        # r = 0 included (the pole chord chi = pi / 2).
        knots = [(0.0, 1.3), (0.4, 1.22), (0.75, 1.1), (1.0, 1.0)]
        metric = ConformalMetric.from_profile_knots(knots)
        ev = metric.profile.eval
        area = sum(_gauss(lambda r: 2.0 * math.pi * r * ev(r)[0] ** 2, r0, r1, 8)
                   for (r0, _), (r1, _) in zip(knots, knots[1:]))
        kinks = sorted(math.acos(ev(r)[0] * r / ev(1.0)[0]) for r, _ in knots[:-1])
        cuts = [0.0] + kinks + [math.pi - c for c in reversed(kinks[:-1])] + [math.pi]
        assert abs(self.radial_lengths(metric, cuts) - area) < 1e-8 * area

    def test_bumps_traced(self):
        # Lengths traced by integrate_geodesic on 16 arcs x 24 angles, whose
        # outermost angles are chords shorter than 0.02; the area from a
        # polar Gauss-Legendre rule.
        n = GENTLE_BUMPS.field[0]
        turn = 2.0 * math.pi
        area = sum(_gauss(lambda r: r * n(r * math.cos(f), r * math.sin(f)) ** 2, 0.0, 1.0, 24)
                   for f in (turn * k / 48 for k in range(48))) * turn / 48

        def lengths(arc):
            return _gauss(lambda chi: integrate_geodesic(
                GENTLE_BUMPS, BoundaryVector(arc, chi)).length * math.sin(chi), 0.0, math.pi, 24)

        rhs = sum(n(math.cos(turn * k / 16), math.sin(turn * k / 16)) * lengths(k / 16)
                  for k in range(16)) / 16
        assert abs(rhs - area) < 1e-7 * area
