import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lens_scatter.curves import ImmersionError, ParametricCurve, circle, lemniscate
from lens_scatter.knot import TangentLoop
from lens_scatter.lift import (AmbiguousFiberArcError, LiftedCurve,
                               MinimalLinearCurve, PLVertexPath, ProjPoint,
                               TransportUndefinedError, _circ_dist, _edge_gaps,
                               _fiber_steps, _vertex_array, dist_components, fiber_step,
                               projectivize, triangle_angle_sum,
                               unit_tangent_lift)


class TestUnitTangentLift:
    def test_circle_turns_once(self):
        lifted = unit_tangent_lift(circle())
        assert lifted.total_turn == pytest.approx(2 * math.pi, abs=1e-9)
        assert lifted.turning_number == 1

    def test_lemniscate_turning_zero(self):
        lifted = unit_tangent_lift(lemniscate())
        assert lifted.total_turn == pytest.approx(0.0, abs=1e-9)
        assert lifted.turning_number == 0

    def test_zero_speed_rejected(self):
        bad = ParametricCurve(
            lambda t: np.stack([t * 0.0, np.sin(2 * np.pi * t)], axis=-1),
            lambda t: np.stack([t * 0.0, 2 * np.pi * np.cos(2 * np.pi * t)], axis=-1))
        with pytest.raises(ImmersionError):
            unit_tangent_lift(bad)

    def test_sparse_sampling_rejected(self):
        with pytest.raises(ValueError):
            unit_tangent_lift(circle(), samples=3)

    @pytest.mark.parametrize("samples", [-1, 0, 1, 2, 3])
    def test_fewer_than_four_samples_rejected(self, samples):
        # Below four samples the quarter-turn step check cannot tell a
        # turning lift from a flat one: a circle sampled once looks straight.
        with pytest.raises(ValueError, match="at least 4 samples"):
            unit_tangent_lift(circle(), samples)

    def test_frame_angle_matches_samples(self):
        loop = TangentLoop(circle())
        lifted = loop.lifted
        for l in (0.0, 0.2499, 0.5, 0.87, 0.999):
            i = int(round(l * len(lifted.theta))) % len(lifted.theta)
            near = lifted.theta[i]
            assert abs(loop.frame_angle(l) - near) < 0.05 + 2 * math.pi / 512


class TestProjectivize:
    def test_circle_line_winding_doubles(self):
        proj = projectivize(unit_tangent_lift(circle()))
        assert proj.line_winding == 2

    def test_lemniscate_line_winding_zero(self):
        proj = projectivize(unit_tangent_lift(lemniscate()))
        assert proj.line_winding == 0

    def test_fiber_loop_generates(self):
        # A pure fiber sweep 0 -> pi at a fixed base point closes in the
        # line bundle and winds once along the fiber.
        ts = np.linspace(0.0, 1.0, 64, endpoint=False)
        lifted = LiftedCurve(np.zeros((64, 2)), math.pi * ts, total_turn=math.pi)
        assert projectivize(lifted).line_winding == 1

    def test_non_integral_rotation_raises(self):
        ts = np.linspace(0.0, 1.0, 64, endpoint=False)
        lifted = LiftedCurve(np.zeros((64, 2)), 1.3 * math.pi * ts,
                             total_turn=1.3 * math.pi)
        with pytest.raises(RuntimeError, match="not integral"):
            lifted.turning_number
        with pytest.raises(RuntimeError, match="not integral"):
            projectivize(lifted).line_winding

    @pytest.mark.parametrize("k,expected_turn", [(2, 1), (3, 2), (5, 4)])
    def test_double_cover_rule_on_roses(self, k, expected_turn):
        from lens_scatter.curves import rose

        lifted = unit_tangent_lift(rose(k))
        assert lifted.turning_number == expected_turn
        assert projectivize(lifted).line_winding == 2 * expected_turn


class TestDistComponents:
    def test_flat_transport_example(self):
        dc = dist_components(ProjPoint(0.0, 0.0, 0.0), ProjPoint(0.1, 0.0, math.pi / 3))
        assert dc.d_h == pytest.approx(0.1)
        assert dc.d_v == pytest.approx(math.pi / 3)
        assert dc.d0 == pytest.approx(math.pi / 3)

    def test_periodic_angle_distance(self):
        dc = dist_components(ProjPoint(0, 0, 0.0), ProjPoint(0, 0, 2 * math.pi / 3))
        assert dc.d_v == pytest.approx(math.pi / 3)

    def test_coincident_points(self):
        p = ProjPoint(0.2, -0.1, 1.0)
        dc = dist_components(p, p)
        assert (dc.d_h, dc.d_v, dc.d0) == (0.0, 0.0, 0.0)

    def test_transport_undefined_beyond_injectivity(self):
        with pytest.raises(TransportUndefinedError):
            dist_components(ProjPoint(-1.0, 0.0, 0.0), ProjPoint(1.0, 0.0, 0.0))

    # Box kept small enough that any pair stays inside the injectivity radius.
    @given(st.floats(-0.7, 0.7), st.floats(-0.7, 0.7), st.floats(0, 10),
           st.floats(-0.7, 0.7), st.floats(-0.7, 0.7), st.floats(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x1, y1, a1, x2, y2, a2):
        p, q = ProjPoint(x1, y1, a1), ProjPoint(x2, y2, a2)
        dpq = dist_components(p, q)
        dqp = dist_components(q, p)
        assert dpq.d_h == pytest.approx(dqp.d_h, abs=1e-12)
        assert dpq.d_v == pytest.approx(dqp.d_v, abs=1e-12)
        assert dpq.d0 == pytest.approx(dqp.d0, abs=1e-12)


class TestMinimalLinearCurve:
    def test_straight_segment_constant_angle(self):
        ml = MinimalLinearCurve(ProjPoint(0, 0, 0.0), ProjPoint(1, 0, 0.0))
        mid = ml.point_at(0.5)
        assert (mid.x, mid.y) == (0.5, 0.0)
        assert mid.lift == 0.0
        assert ml.delta == 0.0

    def test_pure_fiber_rotation(self):
        ml = MinimalLinearCurve(ProjPoint(0, 0, 0.0), ProjPoint(0, 0, math.pi / 3))
        assert abs(ml.delta) == pytest.approx(math.pi / 3)
        assert ml.point_at(1.0).line_angle == pytest.approx(math.pi / 3)

    def test_wraparound_takes_shorter_arc(self):
        ml = MinimalLinearCurve(ProjPoint(0, 0, 0.9 * math.pi),
                                ProjPoint(1, 0, 0.1 * math.pi))
        assert ml.delta == pytest.approx(0.2 * math.pi, abs=1e-12)
        assert ml.point_at(1.0).line_angle == pytest.approx(0.1 * math.pi, abs=1e-12)

    def test_endpoints_reproduced_exactly(self):
        p = ProjPoint(0.3, -0.4, 1.234)
        q = ProjPoint(-0.2, 0.5, 2.345)
        ml = MinimalLinearCurve(p, q)
        start, end = ml.point_at(0.0), ml.point_at(1.0)
        assert (start.x, start.y, start.lift) == (p.x, p.y, p.lift)
        assert (end.x, end.y) == (q.x, q.y)
        assert end.line_angle == pytest.approx(q.line_angle, abs=1e-12)

    def test_vertical_length_equals_dv(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = ProjPoint(*rng.uniform(-0.5, 0.5, 2), rng.uniform(0, 9))
            q = ProjPoint(*rng.uniform(-0.5, 0.5, 2), rng.uniform(0, 9))
            dc = dist_components(p, q)
            if abs(dc.d_v - math.pi / 2) < 1e-9:
                continue
            assert abs(MinimalLinearCurve(p, q).delta) == pytest.approx(dc.d_v, abs=1e-12)

    def test_perpendicular_lines_rejected(self):
        with pytest.raises(AmbiguousFiberArcError):
            MinimalLinearCurve(ProjPoint(0, 0, 0.0), ProjPoint(1, 0, math.pi / 2))


class TestPLVertexPath:
    def test_constant_angle_loop_contractible(self):
        vs = [ProjPoint(0.2 * math.cos(2 * math.pi * k / 8),
                        0.2 * math.sin(2 * math.pi * k / 8), 0.3) for k in range(8)]
        path = PLVertexPath(vs)
        assert path.contractible
        assert path.total_rotation == 0.0

    def test_point_at_interpolates(self):
        vs = [ProjPoint(0, 0, 0.0), ProjPoint(1, 0, 0.2), ProjPoint(0, 1, 0.4)]
        path = PLVertexPath(vs)
        mid = path.point_at(1.0 / 6.0)
        assert (mid.x, mid.y) == (0.5, 0.0)
        assert mid.lift == pytest.approx(0.1)


def assert_same_bits(got, want):
    """Equal as IEEE doubles, signed zeros told apart."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# Lifts whose line angles differ by exactly +-pi/2 and +-pi: -1e-20 % pi
# rounds up to pi, so its line angle is pi, not 0.
SPECIAL_LIFTS = [0.0, -0.0, 0.5 * math.pi, math.pi, -1e-20, 1e-20, 2.5 * math.pi,
                 -0.5 * math.pi, 1.5 * math.pi, 20.0, -20.0]


class TestArrayGaps:
    @staticmethod
    def closed_path(seed, n):
        rng = np.random.default_rng(seed)
        return [ProjPoint(*rng.uniform(-0.7, 0.7, 2), rng.uniform(-20.0, 20.0))
                for _ in range(n)]

    @staticmethod
    def scalar_edges(pts):
        return list(zip(pts, pts[1:] + pts[:1]))

    @pytest.mark.parametrize("seed", range(6))
    def test_fiber_steps_equal_scalar_steps(self, seed):
        rng = np.random.default_rng(seed)
        lifts = np.concatenate([rng.uniform(-20.0, 20.0, 400), SPECIAL_LIFTS])
        a, b = np.meshgrid(lifts[::7] if seed else SPECIAL_LIFTS, lifts)
        a, b = a.ravel(), b.ravel()
        steps = _fiber_steps(a % math.pi, b % math.pi)
        pairs = [(ProjPoint(0.0, 0.0, p), ProjPoint(0.0, 0.0, q))
                 for p, q in zip(a.tolist(), b.tolist())]
        assert_same_bits(steps, [fiber_step(p, q) for p, q in pairs])
        assert_same_bits(np.abs(steps), [_circ_dist(p.line_angle, q.line_angle, math.pi)
                                         for p, q in pairs])

    def test_special_differences_hit_both_branches(self):
        angles = np.array(SPECIAL_LIFTS) % math.pi
        diffs = {float(x) for x in (angles[:, None] - angles[None, :]).ravel()}
        assert {0.5 * math.pi, -0.5 * math.pi, math.pi, -math.pi} <= diffs

    @pytest.mark.parametrize("seed", range(6))
    def test_edge_gaps_equal_dist_components(self, seed):
        # np.hypot differs from math.hypot in the last bit on ~0.6% of
        # inputs, so 400 edges a seed would show it.
        pts = self.closed_path(seed, 400)
        if seed == 0:
            pts[3:3 + len(SPECIAL_LIFTS)] = [ProjPoint(0.1, 0.2, c) for c in SPECIAL_LIFTS]
        d_h, steps = _edge_gaps(np.array(pts))
        scalar = [dist_components(p, q) for p, q in self.scalar_edges(pts)]
        assert_same_bits(d_h, [dc.d_h for dc in scalar])
        assert_same_bits(np.abs(steps), [dc.d_v for dc in scalar])
        assert_same_bits(steps, [fiber_step(p, q) for p, q in self.scalar_edges(pts)])

    @pytest.mark.parametrize("seed", range(4))
    def test_path_matches_minimal_linear_edges(self, seed):
        pts = self.closed_path(seed, 40)
        path = PLVertexPath(pts)
        edges = [MinimalLinearCurve(p, q) for p, q in self.scalar_edges(pts)]
        assert_same_bits(path.deltas, [e.delta for e in edges])
        assert path.total_rotation == sum(e.delta for e in edges)
        for k in range(len(pts)):
            assert path.lift_at_vertex(k) == pts[0].lift + sum(e.delta for e in edges[:k])
        for u in np.linspace(0.0, 1.0, 97).tolist():
            k = min(int(u % 1.0 * len(pts)), len(pts) - 1)
            frac = u % 1.0 * len(pts) - k
            base = edges[k].point_at(frac)
            got = path.point_at(u)
            assert (got.x, got.y) == (base.x, base.y)
            assert got.lift == path.lift_at_vertex(k) + frac * edges[k].delta

    def scalar_error(self, pts):
        for p, q in self.scalar_edges(pts):
            try:
                MinimalLinearCurve(p, q)
            except ValueError as exc:
                return exc
        return None

    @pytest.mark.parametrize("bad", [["long"], ["perpendicular"], ["long", "perpendicular"],
                                     ["perpendicular", "long"]])
    def test_path_raises_the_first_scalar_error(self, bad):
        pts = [ProjPoint(0.3 * math.cos(a), 0.3 * math.sin(a), 0.2) for a in np.arange(8.0)]
        for k, kind in zip((2, 5), bad):
            if kind == "long":
                pts[k] = ProjPoint(-0.95, 0.95, 0.2)
                pts[k + 1] = ProjPoint(0.95, -0.95, 0.2)
            else:
                pts[k + 1] = ProjPoint(pts[k].x, pts[k].y + 0.01, 0.2 + 0.5 * math.pi)
        want = self.scalar_error(pts)
        assert type(want) is {"long": TransportUndefinedError,
                              "perpendicular": AmbiguousFiberArcError}[bad[0]]
        with pytest.raises(type(want)) as got:
            PLVertexPath(pts)
        assert str(got.value) == str(want)

    def test_path_rejects_non_triples(self):
        with pytest.raises(ValueError, match="at least 3 vertices"):
            PLVertexPath([ProjPoint(0.0, 0.0, 0.0)] * 2)
        with pytest.raises(ValueError, match="triples"):
            PLVertexPath(np.zeros((4, 2)))

    def test_proj_point_is_an_immutable_hashable_triple(self):
        p = ProjPoint(0.25, -0.5, -1e-20)
        assert p == ProjPoint(0.25, -0.5, -1e-20) and hash(p) == hash((0.25, -0.5, -1e-20))
        assert p.line_angle == math.pi
        assert p.base.tolist() == [0.25, -0.5]
        with pytest.raises(AttributeError):
            p.x = 1.0


class TestVertexArray:
    @staticmethod
    def rows(seed, n=64):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-20.0, 20.0, (n, 3))
        rows[:len(SPECIAL_LIFTS), 2] = SPECIAL_LIFTS
        return rows

    @pytest.mark.parametrize("seed", range(3))
    def test_same_bits_as_np_array(self, seed):
        rows = self.rows(seed)
        points = [ProjPoint(*r) for r in rows.tolist()]
        # numpy scalars and ints inside the points, as callers build them.
        points[1] = ProjPoint(np.float64(rows[1, 0]), rows[1, 1].item(), 3)
        inputs = {"points": points, "point tuple": tuple(points),
                  "plain tuples": [tuple(r) for r in rows.tolist()],
                  "mixed": points[:5] + [tuple(r) for r in rows[5:].tolist()],
                  "array": rows, "one point": points[:1], "empty": []}
        for name, vertices in inputs.items():
            got = _vertex_array(vertices)
            want = np.array(vertices, dtype=float).reshape(-1, 3)
            assert got.shape == want.shape and got.dtype == float, name
            assert_same_bits(got, want)
        assert _vertex_array(rows) is not rows

    @pytest.mark.parametrize("vertices,message", [
        ([(0.0, 0.0)] * 6, "triples"),
        ([(0.0, 0.0, 0.0, 0.0)] * 4, "triples"),
        ([(0.0, 0.0, 0.0), (0.0, 0.0)], "triples"),
        (np.zeros((2, 3, 1)), "triples"),
        ([(0.0, 0.0, "lift")] * 4, "triples"),
        ([ProjPoint(0.0, 0.0, (1.0, 2.0))] * 4, "triples"),
        ([ProjPoint(0.0, 0.0, math.nan)] * 4, "finite"),
        ([(math.inf, 0.0, 0.0)] * 4, "finite"),
        (np.full((4, 3), -math.inf), "finite"),
    ])
    def test_bad_vertices_raise_a_plain_value_error(self, vertices, message):
        with pytest.raises(ValueError, match=f"^vertices must be .*{message}") as exc:
            _vertex_array(vertices)
        assert type(exc.value) is ValueError
        with pytest.raises(ValueError, match=message):
            PLVertexPath(vertices)

    @pytest.mark.parametrize("seed", range(3))
    def test_proj_points_keep_their_values(self, seed):
        proj = projectivize(unit_tangent_lift(lemniscate(), 64 + seed))
        want = [ProjPoint(float(p[0]), float(p[1]), float(a))
                for p, a in zip(proj.points, proj.line_lift)]
        got = proj.proj_points()
        assert all(type(p) is ProjPoint for p in got)
        assert_same_bits(got, want)
        assert [p.lift for p in got] == [w.lift for w in want]

    @pytest.mark.parametrize("seed", range(3))
    def test_path_vertices_keep_their_values(self, seed):
        rows = self.rows(seed)
        rows[:, :2] = 0.1 * np.cos(rows[:, :2])
        rows[:, 2] = 0.3
        path = PLVertexPath(rows)
        got = path.vertices
        assert all(type(v) is ProjPoint for v in got)
        assert got == [ProjPoint(*r) for r in rows.tolist()]
        assert_same_bits(got, rows)
        assert all(type(c) is float for v in got for c in v)


class TestTriangleAngles:
    def test_flat_triples_sum_to_pi(self):
        rng = np.random.default_rng(77)
        worst = 0.0
        count = 0
        while count < 200:
            cx, cy = rng.uniform(-0.5, 0.5, 2)
            a0 = rng.uniform(0, math.pi)
            pts = [ProjPoint(cx + rng.uniform(-5e-3, 5e-3),
                             cy + rng.uniform(-5e-3, 5e-3),
                             a0 + rng.uniform(-5e-3, 5e-3)) for _ in range(3)]
            d0s = [dist_components(pts[i], pts[j]).d0
                   for i, j in ((0, 1), (0, 2), (1, 2))]
            if max(d0s) >= 0.01 or min(d0s) == 0.0:
                continue
            worst = max(worst, abs(triangle_angle_sum(*pts) - math.pi))
            count += 1
        assert worst < 0.01
