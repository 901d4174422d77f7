import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import interp1d

from lens_scatter import knot, lift
from lens_scatter.curves import (ParametricCurve, TrigCurve, circle, lemniscate,
                                 rose)
from lens_scatter.knot import (Certificate, Crossing, InvariantTable, PLLoop,
                               SelfTangencyError, TangentLoop, analyze_loop,
                               certify_nontrivial, choose_refinement_n,
                               crossing_sign, crossing_type,
                               embedding_separation, find_crossings,
                               first_return_crossing, perturbation_deltas,
                               pl_refine, pl_snapshot,
                               pl_validate, refine_stage_samples, w_invariant)
from lens_scatter.lift import (AmbiguousFiberArcError, MinimalLinearCurve, PLVertexPath,
                               ProjPoint, TransportUndefinedError, dist_components,
                               projectivize, unit_tangent_lift)

from conftest import (CallableFramedLoop, brute_force_crossing_count,
                      embedding_separation_oracle, pl_crossing_oracle)


def reversed_curve(curve):
    return ParametricCurve(lambda t: curve.point(1.0 - t),
                           lambda t: -curve.velocity(1.0 - t),
                           name=curve.name + "-reversed")


class TestFindCrossings:
    def test_circle_has_none(self):
        assert find_crossings(circle()) == []

    def test_lemniscate_single_crossing_at_quarter_params(self):
        cs = find_crossings(lemniscate())
        assert len(cs) == 1
        assert cs[0].l == pytest.approx(0.25, abs=1e-9)
        assert cs[0].l_prime == pytest.approx(0.75, abs=1e-9)
        assert cs[0].point == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_rose3_matches_brute_force_oracle(self):
        curve = rose(3)
        pts = curve.point(np.linspace(0.0, 1.0, 1024, endpoint=False))
        oracle = brute_force_crossing_count(pts)
        assert oracle == 3
        assert len(find_crossings(curve)) == oracle

    def test_corpus_counts_match_oracle(self, corpus):
        for curve in corpus[:6]:
            pts = curve.point(np.linspace(0.0, 1.0, 1024, endpoint=False))
            assert len(find_crossings(curve)) == brute_force_crossing_count(pts)

    def test_self_tangency_detected(self):
        # (sin 4 pi t, sin^3 2 pi t) touches itself tangentially at the
        # origin (t = 0 and t = 1/2 share point and direction).
        def p(t):
            u = 2 * np.pi * t
            return np.stack([0.8 * np.sin(2 * u), 0.8 * np.sin(u) ** 3], axis=-1)

        def v(t):
            u = 2 * np.pi * t
            return np.stack([2 * np.pi * 1.6 * np.cos(2 * u),
                             2 * np.pi * 2.4 * np.sin(u) ** 2 * np.cos(u)], axis=-1)

        with pytest.raises(SelfTangencyError):
            find_crossings(ParametricCurve(p, v, name="tangent-eight"))


# Crossing lists of seed-42 corpus curves 0, 1 and 3 as ``(l, l', x, y)`` in
# float.hex: smooth-path crossings, then those of the 128-vertex PL snapshot.
# Curve values come from TrigCurve's BLAS-free series, so these bytes do not
# depend on the BLAS kernel or on numpy's SIMD level.
PINNED_CROSSINGS = {
    0: ([("0x1.c9890415c0563p-8", "0x1.2cc69b41ae5bap-1",
          "0x1.76c5bdb8da0d8p-6", "-0x1.fb23a57f62150p-8"),
         ("0x1.47f8f04e65e68p-4", "0x1.28a6f5320a9bbp-2",
          "-0x1.c71dd58801ddcp-2", "0x1.ab4d95c4b1e45p-5")],
        [("0x1.ca074457d23a2p-8", "0x1.2cbdc14bb62a6p-1",
          "0x1.74dd15792f762p-6", "-0x1.ff06fad81c2cap-8"),
         ("0x1.484c622f6a49bp-4", "0x1.28994e8bf5e9bp-2",
          "-0x1.c7377a68d2304p-2", "0x1.ac2e566955144p-5")]),
    1: ([("0x1.0d15dfbb2abddp-4", "0x1.54eae2469c26ep-1",
          "0x1.4516c9b186accp-4", "0x1.dc7dce2db7741p-4"),
         ("0x1.73044138a1a37p-4", "0x1.247b26ed83365p-2",
          "0x1.17b1ab6328680p-5", "0x1.80f40dc4afa70p-3")],
        [("0x1.0d5f87899689ap-4", "0x1.54ea6e60f7a23p-1",
          "0x1.43f443a1d02cbp-4", "0x1.db43f36ee1c72p-4"),
         ("0x1.73dff774922c9p-4", "0x1.244fa73f2defbp-2",
          "0x1.136b8b0f96ccdp-5", "0x1.80b9313015150p-3")]),
    3: ([("0x1.b45c403d375d8p-2", "0x1.1eb13ef4a3705p-1",
          "0x1.be906e0ebdfb7p-2", "-0x1.bb87a109413a8p-4"),
         ("0x1.ce6fd864913bap-2", "0x1.52ee4eac78f45p-1",
          "0x1.4960f12da1102p-2", "-0x1.fc73699e2cd08p-5"),
         ("0x1.fd438734a1882p-2", "0x1.58c8a87c4c10ap-1",
          "0x1.08360c37afbf4p-2", "-0x1.2ed64fbb1ccd0p-4")],
        [("0x1.b49f39dec4e92p-2", "0x1.1e8e4822c740dp-1",
          "0x1.bd69cd7dc59ebp-2", "-0x1.baf61075452e9p-4"),
         ("0x1.ce8cb00ec6011p-2", "0x1.52e8e30fd07f4p-1",
          "0x1.4956c9b0189fcp-2", "-0x1.fe31ec6f4f708p-5"),
         ("0x1.fd31cad74c002p-2", "0x1.58b92f367f985p-1",
          "0x1.08d834d328bf7p-2", "-0x1.2edeb29aae281p-4")]),
}


def closed_walk(seed: int, n: int, step: float) -> np.ndarray:
    """n vertices of a closed random walk with steps of varied length."""
    rng = np.random.default_rng(seed)
    steps = rng.normal(size=(n, 2)) * step * rng.uniform(0.1, 1.0, size=(n, 1))
    pts = np.cumsum(steps - steps.mean(axis=0), axis=0)
    return pts - pts.mean(axis=0)


class TestCrossingSearch:
    @pytest.mark.parametrize("index", sorted(PINNED_CROSSINGS))
    def test_bit_identical_to_pinned(self, corpus, index):
        curve = corpus[index]
        pts = projectivize(unit_tangent_lift(curve, 512)).proj_points()
        found = (find_crossings(curve), find_crossings(PLVertexPath(pts[::4])))
        for crossings, pinned in zip(found, PINNED_CROSSINGS[index]):
            assert [(c.l, c.l_prime, *c.point) for c in crossings] == [
                tuple(float.fromhex(h) for h in row) for row in pinned]
            assert all(type(v) is float for c in crossings for v in (c.l, c.l_prime, *c.point))

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(6, 96),
           step=st.floats(0.02, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_pl_matches_all_pairs_oracle(self, seed, n, step):
        pts = closed_walk(seed, n, step)
        path = PLVertexPath([ProjPoint(x, y, 0.0) for x, y in pts])
        got = [(c.l, c.l_prime) for c in find_crossings(PLLoop(path))]
        want = pl_crossing_oracle(pts)
        assert len(got) == len(want)
        assert all(abs(g[0] - w[0]) < 1e-12 and abs(g[1] - w[1]) < 1e-12
                   for g, w in zip(got, want))

    @staticmethod
    def assert_matches_all_pairs(pts, eps):
        # The brute-force oracle: every pair of non-adjacent segments goes
        # through _segment_hits, in (i, j) order.
        pts = np.asarray(pts, dtype=float)
        m = len(pts)
        i, j = np.triu_indices(m, 2)
        keep = ~((i == 0) & (j == m - 1))
        i, j = i[keep], j[keep]
        nxt = np.roll(pts, -1, axis=0)
        hit, t, u = knot._segment_hits(pts[i], nxt[i], pts[j], nxt[j], eps)
        got = knot._polyline_hits(pts, eps)
        for g, w in zip(got, (i[hit], j[hit], t[hit], u[hit])):
            np.testing.assert_array_equal(g, w)
        return len(got[0])

    @pytest.mark.parametrize("eps", [1e-9, -1e-9])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_polylines_match_all_pairs(self, seed, eps):
        n = 6 + 37 * seed
        assert self.assert_matches_all_pairs(closed_walk(seed, n, 0.3), eps) > 0

    def test_corpus_samples_match_all_pairs(self, corpus):
        for curve in corpus:
            self.assert_matches_all_pairs(curve.point(np.arange(512) / 512), 1e-9)

    @pytest.mark.parametrize("samples", [512, 500])
    def test_curve_values_evaluated_once(self, corpus, samples):
        # The lift's samples serve the crossing search, whatever their
        # number, and each velocity serves the polish, the sign and the type.
        curve = TrigCurve(corpus[6].coeffs)
        calls = {"point": [], "velocity": []}
        for name, log in calls.items():
            def counting(t, evaluate=getattr(curve, name), log=log):
                log.append(np.asarray(t, dtype=float).tolist())
                return evaluate(t)

            setattr(curve, name, counting)
        loop = TangentLoop(curve, samples)
        analysis = analyze_loop(loop)
        assert len(analysis.crossings) == 5
        grids = [t for t in calls["point"] if isinstance(t, list)]
        assert len(grids) == 1
        scalars = [t for t in calls["velocity"] if not isinstance(t, list)]
        assert len(scalars) == len(set(scalars)) > 2 * len(analysis.crossings)

    @pytest.mark.parametrize("eps", [1e-9, -1e-9])
    def test_pl_snapshots_match_all_pairs(self, corpus, eps):
        for curve in corpus:
            pts = projectivize(unit_tangent_lift(curve, 512)).proj_points()

            def family(s, t):
                return pts[int(round((t % 1.0) * len(pts))) % len(pts)]

            pl = pl_snapshot(family, 128, 0.0)
            self.assert_matches_all_pairs([(v.x, v.y) for v in pl.vertices], eps)

    @pytest.mark.parametrize("eps", [1e-9, -1e-9])
    def test_equal_left_edges_match_all_pairs(self, eps):
        # Every segment runs between x = 0 and x = 1, so every box has the
        # same left edge; shuffled heights make the segments cross often.
        ys = np.random.default_rng(7).permutation(40) / 40
        pts = np.column_stack([np.arange(40) % 2, ys])
        assert self.assert_matches_all_pairs(pts, eps) > 100

    @pytest.mark.parametrize("eps", [1e-9, -1e-9])
    def test_axis_parallel_segments_match_all_pairs(self, eps):
        # Vertical lines x = 1, 2 and horizontal lines y = 1, 2 cross in four
        # points; the segments x = 1, y = -1 .. 3 are collinear and adjacent.
        pts = [(1, 0), (1, 3), (2, 3), (2, -0.5), (3, -0.5), (3, 1), (0, 1), (0, 2),
               (3.5, 2), (3.5, -1), (1, -1)]
        assert self.assert_matches_all_pairs(pts, eps) == 4

    def test_crossing_next_to_a_vertex_matches_all_pairs(self):
        # Segment 0 ends 5e-11 short of the line x = 0 that segment 2 runs
        # along: a hit only within the eps = 1e-9 window.
        pts = [(-1.0, 0.0), (-5e-11, 0.0), (0.0, 1.0), (0.0, -1.0), (-0.5, -1.0)]
        assert self.assert_matches_all_pairs(pts, 1e-9) == 1
        assert self.assert_matches_all_pairs(pts, -1e-9) == 0

    @staticmethod
    def crossed_edges(offset):
        # Edges 0 and 3 cross at the origin at an angle of about offset/0.15.
        corners = [(-0.3, -offset), (0.3, offset), (0.4, -0.3),
                   (0.3, -offset), (-0.3, offset), (-0.4, 0.3)]
        return PLVertexPath([ProjPoint(x, y, 0.0) for x, y in corners])

    def test_pl_transverse_crossing(self):
        (c,) = find_crossings(self.crossed_edges(1e-3))
        assert (c.l, c.l_prime) == pytest.approx((0.5 / 6, 3.5 / 6), abs=1e-12)
        assert c.point == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_pl_tangential_crossing_raises(self):
        with pytest.raises(SelfTangencyError, match="PL edges cross tangentially"):
            find_crossings(self.crossed_edges(1e-8))


class TestCrossingSign:
    def test_tangent_lift_always_positive(self):
        loop = TangentLoop(lemniscate())
        (c,) = find_crossings(loop)
        assert crossing_sign(c, loop) == 1

    def test_mirrored_frame_flips_sign(self):
        # Same base curve, frame angle negated: one determinant flips.
        curve = lemniscate()
        base_loop = TangentLoop(curve)
        (c,) = find_crossings(base_loop)
        mirrored = CallableFramedLoop(
            lambda t: curve.point(t),
            lambda t: curve.velocity(t),
            lambda t: -base_loop.frame_angle(t),
            samples=512)
        assert crossing_sign(c, mirrored) == -1

    def test_reversing_both_pairs_keeps_sign(self):
        loop = TangentLoop(reversed_curve(lemniscate()))
        (c,) = find_crossings(loop)
        assert crossing_sign(c, loop) == 1

    def test_swap_invariance(self):
        loop = TangentLoop(lemniscate())
        (c,) = find_crossings(loop)
        swapped = Crossing(c.l_prime, c.l, c.point)
        assert crossing_sign(swapped, loop) == crossing_sign(c, loop)


class TestCrossingType:
    def test_lemniscate_type_two(self):
        loop = TangentLoop(lemniscate())
        (c,) = find_crossings(loop)
        assert crossing_type(c, loop) == 2

    def test_fiber_only_loop_is_trivial(self):
        # Frame sweeps less than a half turn over the arc: the smoothing
        # arc cancels it entirely.
        loop = CallableFramedLoop(
            lambda t: (0.1 * math.cos(2 * math.pi * t), 0.1 * math.sin(2 * math.pi * t)),
            lambda t: (-math.sin(2 * math.pi * t), math.cos(2 * math.pi * t)),
            lambda t: 0.4 * math.sin(2 * math.pi * t),
            samples=128)
        synthetic = Crossing(0.1, 0.35, (0.0, 0.0))
        assert crossing_type(synthetic, loop) == 0

    def test_full_frame_turn_gives_type_two(self):
        loop = CallableFramedLoop(
            lambda t: (0.1 * math.cos(2 * math.pi * t), 0.1 * math.sin(2 * math.pi * t)),
            lambda t: (-math.sin(2 * math.pi * t), math.cos(2 * math.pi * t)),
            lambda t: 2 * math.pi * t,
            samples=128)
        synthetic = Crossing(0.05, 0.95, (0.0, 0.0))
        assert crossing_type(synthetic, loop) == 2

    def test_half_integral_rotation_raises(self):
        # The smoothed rotation is a whole number of turns in exact
        # arithmetic; a frame gap of 1.3e16 rad, where the float spacing is
        # 2, rounds it to exactly 0.5 half-turns off the integers.
        loop = CallableFramedLoop(
            lambda t: (0.1 * math.cos(2 * math.pi * t), 0.1 * math.sin(2 * math.pi * t)),
            lambda t: (-math.sin(2 * math.pi * t), math.cos(2 * math.pi * t)),
            lambda t: 2.6e16 * t,
            samples=128)
        synthetic = Crossing(0.0, 0.5, (0.0, 0.0))
        with pytest.raises(RuntimeError, match="not integral"):
            crossing_type(synthetic, loop)

    def test_non_integral_frame_shift_raises(self):
        loop = CallableFramedLoop(
            lambda t: (0.1 * math.cos(2 * math.pi * t), 0.1 * math.sin(2 * math.pi * t)),
            lambda t: (-math.sin(2 * math.pi * t), math.cos(2 * math.pi * t)),
            lambda t: 0.3 * math.pi * t,
            samples=128)
        with pytest.raises(RuntimeError, match="not integral"):
            loop.line_winding()

    def test_both_smoothing_arcs_agree(self, corpus):
        # Equal classes for both smoothings needs the lift to close up in
        # the tangent bundle, i.e. a contractible projectivized lift.
        checked = 0
        for curve in corpus:
            loop = TangentLoop(curve)
            if loop.line_winding() != 0:
                continue
            for c in find_crossings(loop):
                # The complementary smoothing closes the arc [l', l + 1].
                chi, chi_p = loop.frame_angle(c.l), loop.frame_angle(c.l_prime)
                half_turns = (math.remainder(chi_p - chi, 2 * math.pi) + chi
                              + loop.period_shift - chi_p) / math.pi
                assert abs(half_turns - round(half_turns)) <= 0.05
                assert crossing_type(c, loop) == abs(round(half_turns))
                checked += 1
        assert checked >= 1

    def test_swap_invariance(self, corpus):
        loop = TangentLoop(lemniscate())
        (c,) = find_crossings(loop)
        swapped = Crossing(c.l_prime, c.l, c.point)
        assert crossing_type(swapped, loop) == crossing_type(c, loop)


class TestWInvariant:
    def test_circle_empty_table(self):
        table = w_invariant(circle())
        assert table.entries == {}
        assert analyze_loop(circle()).line_winding == 2

    def test_lemniscate_table(self):
        assert w_invariant(lemniscate()).entries == {2: 1}

    def test_reversed_lemniscate_same_table(self):
        assert w_invariant(reversed_curve(lemniscate())).entries == {2: 1}


class TestCertificates:
    def test_circle_non_contractible(self):
        cert = certify_nontrivial(circle())
        assert cert.kind == "non_contractible"
        assert cert.line_winding == 2

    def test_lemniscate_nonzero_invariant(self):
        cert = certify_nontrivial(lemniscate())
        assert cert == Certificate("nonzero_invariant", 2, 0)

    def test_rose3_has_certificate(self):
        cert = certify_nontrivial(rose(3))
        assert cert.kind in ("non_contractible", "nonzero_invariant")

    def test_first_return_picks_earliest_closure(self):
        cs = [Crossing(0.1, 0.9, (0, 0)), Crossing(0.3, 0.5, (0, 0))]
        assert first_return_crossing(cs) is cs[1]


class TestCorpusProperties:
    def test_positivity_over_corpus(self, corpus):
        assert len(corpus) >= 20
        total = 0
        for curve in corpus:
            loop = TangentLoop(curve)
            for c in find_crossings(loop):
                assert crossing_sign(c, loop) == 1
                total += 1
        assert total > 10

    def test_certificates_for_self_intersecting(self, corpus):
        for curve in corpus:
            if find_crossings(curve):
                cert = certify_nontrivial(curve)
                assert cert.kind in ("non_contractible", "nonzero_invariant")

    @given(index=st.integers(0, 19), angle=st.floats(0.0, 2 * math.pi),
           shift=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_w_table_unchanged_by_rotation_and_origin_shift(self, corpus, index,
                                                             angle, shift):
        curve = corpus[index]
        c, s = math.cos(angle), math.sin(angle)
        x, y = curve.coeffs[:2], curve.coeffs[2:]
        rotated = TrigCurve(np.vstack([c * x - s * y, s * x + c * y]))
        shifted = ParametricCurve(lambda t: curve.point(t + shift),
                                  lambda t: curve.velocity(t + shift))
        base = analyze_loop(curve)
        for moved in (rotated, shifted):
            moved = analyze_loop(moved)
            assert moved.line_winding == base.line_winding
            assert moved.table == base.table

    @given(index=st.integers(0, 19), a=st.floats(-0.5, 0.5), k=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_invariants_unchanged_by_reparametrization(self, corpus, index, a, k):
        # t -> t + a sin(2 pi k t) / (2 pi k) fixes 0 and 1 and has speed
        # factor 1 + a cos(2 pi k t) >= 1/2, so it is an orientation-preserving
        # diffeomorphism of the circle with non-uniform speed.
        curve = corpus[index]
        w = 2 * math.pi * k

        def sigma(t):
            return t + a * np.sin(w * t) / w

        def velocity(t):
            rate = 1.0 + a * np.cos(w * t)
            return rate[..., None] * curve.velocity(sigma(t))

        moved = analyze_loop(ParametricCurve(lambda t: curve.point(sigma(t)), velocity))
        base = analyze_loop(curve)
        assert moved.line_winding == base.line_winding
        assert moved.table == base.table
        assert moved.certificate == base.certificate

    def test_invariance_smoke(self, corpus):
        rng = np.random.default_rng(99)
        for curve in corpus[:4]:
            base = w_invariant(curve)
            for _ in range(5):
                pert = curve.perturbed(perturbation_deltas(rng, curve.coeffs.shape, 2e-3))
                assert w_invariant(pert) == base

    def test_perturbation_weights_are_correctly_rounded(self):
        # With unit normals the deltas are the weights.  numpy's SIMD
        # ``power`` would round m ** 1.5 differently from m = 7 on, on some
        # CPUs; the weights must not.
        class UnitNormals:
            def normal(self, size):
                return np.ones(size)

        weights = perturbation_deltas(UnitNormals(), (4, 12), 1.0)
        for m in range(1, 13):
            assert (weights[:, m - 1] == 1.0 / (m * math.sqrt(m))).all()


# --- piecewise-linear machinery ----------------------------------------------


def octagon_knot(move=None, rad=0.5, n=8):
    vs = []
    for k in range(n):
        a = 2 * math.pi * k / n
        vs.append(ProjPoint(rad * math.cos(a), rad * math.sin(a),
                            0.35 * math.sin(2 * math.pi * k / n)))
    if move is not None:
        i, (x, y) = move
        vs[i] = ProjPoint(x, y, vs[i].lift)
    return PLVertexPath(vs)


def analyzed_pl(path):
    loop = PLLoop(path)
    cs = find_crossings(loop)
    for c in cs:
        c.sign = crossing_sign(c, loop)
        c.ctype = crossing_type(c, loop)
    return cs, InvariantTable.from_crossings(cs)


class TestPLValidate:
    def test_64gon_membership(self):
        vs = [ProjPoint(0.2 * math.cos(2 * math.pi * k / 64),
                        0.2 * math.sin(2 * math.pi * k / 64), 0.3)
              for k in range(64)]
        rep = pl_validate(vs, 64, 0.3)
        assert rep.member

    def test_eps_below_gap_fails_condition_two(self):
        vs = [ProjPoint(0.2 * math.cos(2 * math.pi * k / 64),
                        0.2 * math.sin(2 * math.pi * k / 64), 0.3)
              for k in range(64)]
        gap = math.hypot(vs[1].x - vs[0].x, vs[1].y - vs[0].y)
        rep = pl_validate(vs, 64, 0.9 * gap)
        assert not rep.member
        assert rep.failed_condition == 2

    def test_non_contractible_fails_condition_one(self):
        # Fiber angles stepping by pi/8 accumulate a full pi: the loop
        # generates the fiber class.
        vs = [ProjPoint(0.3 * math.cos(2 * math.pi * k / 8),
                        0.3 * math.sin(2 * math.pi * k / 8), math.pi * k / 8)
              for k in range(8)]
        rep = pl_validate(vs, 8, 0.7)
        assert not rep.member
        assert rep.failed_condition == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_first_wide_gap_reported_as_a_scalar_scan_would(self, seed):
        rng = np.random.default_rng(seed)
        n = 48
        angles = np.sort(rng.uniform(0.0, 2 * math.pi, n))
        vs = [ProjPoint(0.5 * math.cos(a), 0.5 * math.sin(a), rng.uniform(-20.0, 20.0))
              for a in angles]
        d0 = [dist_components(vs[k], vs[(k + 1) % n]).d0 for k in range(n)]
        # A gap exactly at eps already fails.
        eps = sorted(d for d in d0 if d < 0.5 * math.pi)[-5]
        k = next(k for k in range(n) if d0[k] >= eps)
        want = f"gap d0={d0[k]:.4f} at vertex {k} reaches eps={eps}"
        rep = pl_validate(vs, n, eps)
        assert (rep.member, rep.failed_condition, rep.detail) == (False, 2, want)

    def test_too_few_vertices_rejected(self):
        vs = [ProjPoint(math.cos(a), math.sin(a), 0.0)
              for a in (0.0, 2.0, 4.0)]
        with pytest.raises(ValueError):
            pl_validate(vs, 3, 0.3)

    def test_eps_must_be_below_half_pi(self):
        vs = [ProjPoint(0.2 * math.cos(2 * math.pi * k / 8),
                        0.2 * math.sin(2 * math.pi * k / 8), 0.0) for k in range(8)]
        with pytest.raises(ValueError):
            pl_validate(vs, 8, 2.0)

    @staticmethod
    def two_pass(vs, eps):
        """The scalar reference: scan the gaps pair by pair, then build the
        path and read its total rotation."""
        n = len(vs)
        for k in range(n):
            d0 = dist_components(vs[k], vs[(k + 1) % n]).d0
            if d0 >= eps:
                return False, 2, f"gap d0={d0:.4f} at vertex {k} reaches eps={eps}"
        path = PLVertexPath(vs)
        if not path.contractible:
            return False, 1, f"total rotation {path.total_rotation:.4f} rad is nonzero"
        return True, None, "member"

    @staticmethod
    def seeded_ring(seed, n=32):
        """A ring at seeded angles with lifts jittered by up to 0.2 about 0.7;
        at seeds 1, 4, 7, ... the lift also turns through pi, so the loop is
        not contractible."""
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.uniform(0.0, 2 * math.pi, n))
        radius = rng.uniform(0.1, 0.6)
        lifts = 0.7 + rng.uniform(-0.2, 0.2, n) + (seed % 3 == 1) * math.pi * np.arange(n) / n
        return [ProjPoint(radius * math.cos(t), radius * math.sin(t), z)
                for t, z in zip(angles.tolist(), lifts.tolist())]

    def test_verdicts_equal_the_two_pass_scan(self):
        seen = set()
        for seed in range(40):
            vs = self.seeded_ring(seed)
            for eps in (0.05, 0.15, 0.3, 0.6, 1.2, 1.5):
                want = self.two_pass(vs, eps)
                rep = pl_validate(vs, len(vs), eps)
                assert (rep.member, rep.failed_condition, rep.detail) == want, (seed, eps)
                seen.add(want[1])
        assert seen == {None, 1, 2}

    def test_first_wide_edge_too_long_raises_transport_undefined(self):
        vs = [ProjPoint(0.2 * math.cos(2 * math.pi * k / 8),
                        0.2 * math.sin(2 * math.pi * k / 8), 0.3) for k in range(8)]
        vs[3], vs[4] = ProjPoint(-0.95, 0.95, 0.3), ProjPoint(0.95, -0.95, 0.3)
        with pytest.raises(TransportUndefinedError) as want:
            dist_components(vs[3], vs[4])
        with pytest.raises(TransportUndefinedError) as got:
            pl_validate(vs, 8, 1.5)
        assert str(got.value) == str(want.value)

    def test_step_next_to_a_right_angle_raises_as_the_path_does(self):
        # eps may sit within 1e-12 of pi/2, and a fiber step just below it
        # passes the gap check yet has no minimal linear curve.
        step = 0.5 * math.pi - 2e-13
        vs = [ProjPoint(0.0, 0.0, 0.0), ProjPoint(0.01, 0.0, step),
              ProjPoint(0.01, 0.01, step), ProjPoint(0.0, 0.01, 0.0)]
        with pytest.raises(AmbiguousFiberArcError):
            PLVertexPath(vs)
        with pytest.raises(AmbiguousFiberArcError):
            pl_validate(vs, 4, 0.5 * math.pi - 1e-13)

    def test_edge_gaps_computed_once(self, monkeypatch):
        calls = []

        def counting(xyl):
            calls.append(len(xyl))
            return edge_gaps(xyl)

        # PLVertexPath reads the name in lift, pl_validate in knot.
        edge_gaps = knot._edge_gaps
        for module in (knot, lift):
            monkeypatch.setattr(module, "_edge_gaps", counting)
        verdicts = set()
        for seed in (0, 1):
            vs = self.seeded_ring(seed)
            for eps in (0.05, 1.5):
                calls.clear()
                verdicts.add(pl_validate(vs, len(vs), eps).failed_condition)
                assert calls == [len(vs)]
        assert verdicts == {None, 1, 2}

    @pytest.mark.parametrize("vertices,message", [
        ([(0.0, 0.0)] * 8, "vertices must be \\(x, y, lift\\) triples"),
        ([(0.0, 0.0, 0.0, 0.0)] * 8, "vertices must be \\(x, y, lift\\) triples"),
        ([ProjPoint(0.1 * k, 0.0, 0.3) for k in range(7)] + [(0.0, 0.0)],
         "vertices must be \\(x, y, lift\\) triples"),
        ([ProjPoint(0.1 * k, 0.0, math.nan if k == 5 else 0.3) for k in range(8)],
         "vertices must be finite"),
        ([ProjPoint(0.1 * k, math.inf if k == 2 else 0.0, 0.3) for k in range(8)],
         "vertices must be finite"),
    ])
    def test_bad_vertices_raise_a_plain_value_error(self, vertices, message):
        with pytest.raises(ValueError, match=f"^{message}$") as exc:
            pl_validate(vertices, 8, 0.3)
        assert type(exc.value) is ValueError


class TestReidemeisterAccounting:
    def test_kink_adds_one_trivial_crossing(self):
        before, _ = analyzed_pl(octagon_knot())
        after, table_after = analyzed_pl(octagon_knot(move=(0, (0.25, 0.45))))
        _, table_before = analyzed_pl(octagon_knot())
        assert len(before) == 0 and len(after) == 1
        assert after[0].ctype == 0
        assert table_before == table_after

    def test_poke_adds_cancelling_pair(self):
        before, table_before = analyzed_pl(octagon_knot())
        after, table_after = analyzed_pl(octagon_knot(move=(0, (-0.55, 0.15))))
        assert len(before) == 0 and len(after) == 2
        assert after[0].ctype == after[1].ctype
        assert after[0].sign == -after[1].sign
        assert table_before == table_after


class TestGluedArcHarness:
    def build_loop(self):
        # Immersed "alpha" arc (one transverse self-crossing) glued shut by
        # an embedded arc over the top with a compensating frame sweep.
        UA, UB = -1.25, 1.25

        def alpha_pt(u):
            return np.array([0.35 * (u ** 3 - u), 0.35 * u * u - 0.1])

        def alpha_vel(u):
            return np.array([0.35 * (3 * u * u - 1), 0.7 * u])

        us = np.linspace(UA, UB, 2001)
        raw = np.unwrap([math.atan2(*alpha_vel(u)[::-1]) for u in us])
        theta_of_u = interp1d(us, raw, kind="cubic")
        chi_a, chi_b = float(raw[0]), float(raw[-1])
        A, B = alpha_pt(UA), alpha_pt(UB)

        def base(t):
            if t < 0.5:
                return alpha_pt(UA + 2 * t * (UB - UA))
            v = 2 * t - 1
            return np.array([B[0] + v * (A[0] - B[0]),
                             B[1] + 0.22 * math.sin(math.pi * v)])

        def vel(t):
            if t < 0.5:
                return alpha_vel(UA + 2 * t * (UB - UA)) * 2 * (UB - UA)
            v = 2 * t - 1
            return np.array([2 * (A[0] - B[0]),
                             2 * 0.22 * math.pi * math.cos(math.pi * v)])

        def chi(t):
            if t <= 0.5:
                return float(theta_of_u(UA + 2 * t * (UB - UA)))
            return chi_b + (2 * t - 1) * (chi_a - chi_b)

        return CallableFramedLoop(base, vel, chi, samples=1024)

    def test_certificate_through_first_return(self):
        analysis = analyze_loop(self.build_loop())
        assert analysis.line_winding == 0
        assert len(analysis.crossings) == 1
        assert analysis.certificate.kind == "nonzero_invariant"
        g = analysis.certificate.g
        assert g is not None and g >= 1
        assert analysis.table.get(g) >= 1


class TestRefinement:
    @staticmethod
    def embedded_isotopy(s, t):
        ang = 2 * math.pi * t
        cx = 0.15 * math.sin(2 * math.pi * s)
        r = 0.45 + 0.1 * s
        return ProjPoint(cx + r * math.cos(ang), r * math.sin(ang),
                         ang + math.pi / 2)

    def test_stage_zero_reproduces_family(self):
        n = 64
        for s, t in [(0.0, 0.1), (0.5, 0.73), (1.0, 0.999)]:
            g = self.embedded_isotopy(s, t)
            h = pl_refine(self.embedded_isotopy, n, 0.0, s, t)
            assert (h.x, h.y, h.lift) == (g.x, g.y, g.lift)

    def test_stage_one_is_piecewise_linear(self):
        n = 64
        snap = pl_snapshot(self.embedded_isotopy, n, 0.3)
        assert snap.n == n
        # Vertices are the family samples and edge midpoints sit on straight
        # segments between them.
        for k in (0, 17, 40):
            v = self.embedded_isotopy(0.3, k / n)
            assert (snap.vertices[k].x, snap.vertices[k].y) == (v.x, v.y)
            h = pl_refine(self.embedded_isotopy, n, 1.0, 0.3, (k + 0.5) / n)
            a = self.embedded_isotopy(0.3, k / n)
            b = self.embedded_isotopy(0.3, (k + 1) / n)
            assert h.x == pytest.approx(0.5 * (a.x + b.x), abs=1e-12)
            assert h.y == pytest.approx(0.5 * (a.y + b.y), abs=1e-12)

    def test_halfway_midpoint_formula(self):
        n = 32
        h = pl_refine(self.embedded_isotopy, n, 0.5, 0.2, 0.25 / n)
        p = self.embedded_isotopy(0.2, 0.0)
        q = self.embedded_isotopy(0.2, 0.5 / n)
        mid = MinimalLinearCurve(p, q).point_at(0.5)
        assert (h.x, h.y, h.lift) == pytest.approx((mid.x, mid.y, mid.lift))

    @staticmethod
    def drifting_isotopy(s, t):
        # Criterion 9's family: a pulsing circle on a drifting centre.
        ang = 2 * math.pi * t
        cx = 0.1 * math.sin(2 * math.pi * s + 1.1)
        cy = 0.05 * math.cos(2 * math.pi * s + 1.1)
        r = 0.42 + 0.06 * s
        return ProjPoint(cx + r * math.cos(ang), cy + r * math.sin(ang), ang + math.pi / 2)

    @pytest.mark.parametrize("n,s,l,digest,points", [
        (64, 0.3, 0.25, "ea495e93fee2bb917df55d19254e5921c9ae6571db36ecf6d4e5d78b904154d3",
         [("0x1.d06e9da49cf89p-2", "-0x1.715cea3be39f4p-5", "0x1.94a31b33166fap+0"),
          ("-0x1.48e74867ea2fep-5", "0x1.8a4a7a9e8c22bp-2", "0x1.a275cbd4a2554p+1"),
          ("-0x1.0ff2e9334c3dcp-2", "-0x1.8a77b3d776addp-2", "0x1.658363f5169b1p+2")]),
        (64, 0.3, 0.6, "25a41900ffc5125b99d84ceee46c56f8a8143784d9f11d6fe91bfa1b93182d03",
         [("0x1.d05b42171436bp-2", "-0x1.71613945eed1dp-5", "0x1.94a31b33166fap+0"),
          ("-0x1.48b493fe654bbp-5", "0x1.8a191682c32e0p-2", "0x1.a275cbd4a2554p+1"),
          ("-0x1.0ff2e9334c3dcp-2", "-0x1.8a77b3d776addp-2", "0x1.658363f5169b1p+2")]),
        (64, 0.5, 0.25, "fc4ddda57588d6b2b2b41549de71aebaa21b6e97ae13157c40f0bad940c19f2e",
         [("0x1.717c1f4ca9222p-2", "-0x1.2b35fe8354a98p-6", "0x1.94a31b33166fap+0"),
          ("-0x1.2bd249e5264a4p-3", "0x1.b1d3fb46c1ff7p-2", "0x1.a275cbd4a2554p+1"),
          ("-0x1.8312289bafac6p-2", "-0x1.788a508324d6bp-2", "0x1.658363f5169b1p+2")]),
        (64, 0.5, 0.6, "70cc7442891da7970f88e2f746442fbea16ebf0652081e821d0c9a9b9ddebed7",
         [("0x1.71683bfa5f426p-2", "-0x1.2b3ed908300e0p-6", "0x1.94a31b33166fap+0"),
          ("-0x1.2bc543e298524p-3", "0x1.b1a13cc101904p-2", "0x1.a275cbd4a2554p+1"),
          ("-0x1.8312289bafac6p-2", "-0x1.788a508324d6bp-2", "0x1.658363f5169b1p+2")]),
        # Division by n = 64 is exact; n = 48 also pins the rounding of k / n.
        (48, 0.3, 0.6, "e4a036bcd98c70789f1adeba8b891bf9d84c78071dedf9b337b60ae948c6eecf",
         [("0x1.d04174f486822p-2", "-0x1.65aa6939691b0p-5", "0x1.95799282b24f0p+0"),
          ("-0x1.0e99cffe30967p-2", "0x1.25fee975ed972p-2", "0x1.eaed1c3acd4ecp+1"),
          ("0x1.1c5473a47a01bp-2", "-0x1.99f1f43a5d951p-2", "0x1.bb2c8b811892ap+2")]),
        (48, 0.5, 0.25, "89ba935a48bca797ec60c8c6e4793fcd031f783aa122295965e13f22f3580aae",
         [("0x1.717111e18d46ep-2", "-0x1.1317ebc232731p-6", "0x1.95799282b24f0p+0"),
          ("-0x1.81e9c29c7ee16p-2", "0x1.4b0ee5dac55d8p-2", "0x1.eaed1c3acd4ebp+1"),
          ("0x1.70e58d1e4d0d6p-3", "-0x1.88711eefc4eadp-2", "0x1.bb2c8b811892ap+2")]),
    ], ids=["64-0.3-0.25", "64-0.3-0.6", "64-0.5-0.25", "64-0.5-0.6", "48-0.3-0.6", "48-0.5-0.25"])
    def test_straightening_bit_identical_to_pinned(self, n, s, l, digest, points):
        # Pinned as float.hex: the 200 stage samples by the SHA-256 of their
        # joined hex strings, and pl_refine on the straightened part of two
        # segments and on the family part of a third.
        samples = refine_stage_samples(self.drifting_isotopy, n, l, s, m=200)
        joined = " ".join(v.hex() for p in samples for v in p)
        assert hashlib.sha256(joined.encode()).hexdigest() == digest
        assert samples == [pl_refine(self.drifting_isotopy, n, l, s, i / 200)
                           for i in range(200)]
        for t, pinned in zip((0.1 / n, 17.3 / n, 40.9 / n), points):
            h = pl_refine(self.drifting_isotopy, n, l, s, t)
            assert tuple(h) == tuple(float.fromhex(v) for v in pinned)

    def test_separation_positive_across_stages(self):
        n = choose_refinement_n(self.embedded_isotopy, 0.3)
        for l in (0.0, 0.25, 0.5, 0.75, 1.0):
            for s in (0.0, 0.5, 1.0):
                samples = refine_stage_samples(self.embedded_isotopy, n, l, s, m=200)
                assert embedding_separation(samples, window=2.0 / n) > 0.0

    @pytest.mark.parametrize("moving,measured", [(True, 5), (False, 1)])
    def test_each_distinct_sample_set_measured_once(self, monkeypatch, moving, measured):
        calls = []

        def counting(samples, window):
            calls.append(window)
            return embedding_separation(samples, window)

        def still(s, t):
            return self.embedded_isotopy(0.5, t)

        monkeypatch.setattr(knot, "embedding_separation", counting)
        choose_refinement_n(self.embedded_isotopy if moving else still, 0.3)
        assert len(calls) == measured

    def test_fine_sampling_keeps_the_family_separation(self):
        # At 2048 samples n = 512 makes the gaps small enough; the separation
        # must still be a self-approach of the lemniscate, not the d0 of
        # adjacent samples that a window of 2/n would leave.
        pts = projectivize(unit_tangent_lift(lemniscate(), 2048)).proj_points()

        def iso(s, t):
            return pts[int(round((t % 1.0) * len(pts))) % len(pts)]

        assert choose_refinement_n(iso, 0.2, max_n=512) == 512


class TestEmbeddingSeparation:
    def test_circle_lift_separated(self):
        pts = [ProjPoint(0.5 * math.cos(2 * math.pi * t), 0.5 * math.sin(2 * math.pi * t),
                         2 * math.pi * t + math.pi / 2)
               for t in np.linspace(0, 1, 128, endpoint=False)]
        assert embedding_separation(pts, window=0.05) > 0.1

    def test_forced_collision_is_flagged(self):
        pts = [ProjPoint(0.5 * math.cos(2 * math.pi * t), 0.5 * math.sin(2 * math.pi * t),
                         2 * math.pi * t + math.pi / 2)
               for t in np.linspace(0, 1, 128, endpoint=False)]
        pts[64] = pts[0]  # same bundle point at distant parameters
        assert embedding_separation(pts, window=0.05) < 1e-12

    @pytest.mark.parametrize("samples,message", [
        ([(0, 0)] * 6, "samples must be \\(x, y, lift\\) triples"),
        ([(0.0, 0.0, 0.0, 0.0)] * 6, "samples must be \\(x, y, lift\\) triples"),
        (np.zeros(12), "samples must be \\(x, y, lift\\) triples"),
        ([ProjPoint(0.1 * k, 0.0, math.nan if k == 3 else 0.0) for k in range(6)],
         "samples must be finite"),
    ])
    def test_bad_samples_raise_a_plain_value_error(self, samples, message):
        # A flat reshape read [(0, 0)] * 6 as four triples and gave 0.0.
        with pytest.raises(ValueError, match=f"^{message}$") as exc:
            embedding_separation(samples, window=0.1)
        assert type(exc.value) is ValueError

    def test_window_must_leave_pairs(self):
        pts = [ProjPoint(0.0, 0.0, 0.0), ProjPoint(0.1, 0.0, 0.0)]
        with pytest.raises(ValueError):
            embedding_separation(pts, window=0.6)

    @pytest.mark.parametrize("m,window", [(0, 0.1), (1, 0.0), (2, 0.5), (8, 0.5), (9, 4 / 9)])
    def test_window_at_the_widest_distance_leaves_no_pair(self, m, window):
        pts = [ProjPoint(0.1 * k, 0.0, 0.2 * k) for k in range(m)]
        for separation in (embedding_separation, embedding_separation_oracle):
            with pytest.raises(ValueError, match="window excludes every sample pair"):
                separation(pts, window)

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_full_matrix_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 260)) if seed else 5
        pts = [ProjPoint(*rng.uniform(-0.9, 0.9, 2), rng.uniform(-20.0, 20.0))
               for _ in range(m)]
        # A repeated point, a line repeated a half-turn up the lift, and a
        # line angle of exactly pi (-1e-20 % pi rounds up to pi).
        pts[int(rng.integers(m))] = pts[0]
        pts[int(rng.integers(m))] = ProjPoint(pts[1].x, pts[1].y + 1e-3, pts[1].lift - math.pi)
        pts[int(rng.integers(m))] = ProjPoint(*rng.uniform(-0.9, 0.9, 2), -1e-20)
        k = int(rng.integers(0, m))
        # Windows exactly at a pair distance, in both of its forms, and
        # windows that keep every pair, self-pairs included.
        windows = [k / m, 1.0 - k / m, float(rng.uniform(0.0, 0.5)), 0.0, -0.1]
        for window in windows:
            try:
                want = embedding_separation_oracle(pts, window)
            except ValueError:
                with pytest.raises(ValueError, match="window excludes every sample pair"):
                    embedding_separation(pts, window)
                continue
            assert embedding_separation(pts, window) == want, window

    @pytest.mark.parametrize("block,m", [(8, m) for m in (7, 8, 9, 15, 16, 17)]
                             + [(64, m) for m in (31, 32, 33, 63, 64, 65, 127, 128, 129)]
                             + [(knot._SEPARATION_BLOCK, m) for m in (1023, 1024, 1025)])
    def test_block_boundaries_equal_full_matrix_oracle(self, monkeypatch, block, m):
        # m just below, at and above a multiple of the block, so that blocks
        # of gaps end early or hold one gap; windows of 0 and 0.1 keep the
        # gap m / 2, and a pair distance in both of its forms, k / m and
        # 1 - (m - k) / m, puts the first kept gap at k or k + 1.
        monkeypatch.setattr(knot, "_SEPARATION_BLOCK", block)
        rng = np.random.default_rng(block * 10_000 + m)
        pts = [ProjPoint(*rng.uniform(-0.9, 0.9, 2), rng.uniform(-20.0, 20.0))
               for _ in range(m)]
        k = int(rng.integers(1, m // 2))
        for window in (0.0, 0.1, 0.3, k / m, 1.0 - (m - k) / m):
            assert (embedding_separation(pts, window)
                    == embedding_separation_oracle(pts, window)), window
        if m > 200:
            return
        # A repeated point at a gap next to the window's edge, at either end
        # of its row or where the pair wraps past the last sample, is the
        # nearest pair, so a scan that reads one gap or row too many or too
        # few shows.
        for gap in (k - 1, k, k + 1, m - k - 1, m - k, m - k + 1):
            for i in (0, m - 1, m - gap - 1, m - gap):
                planted = list(pts)
                planted[(i + gap) % m] = pts[i % m]
                for window in (k / m, 1.0 - (m - k) / m):
                    assert (embedding_separation(planted, window)
                            == embedding_separation_oracle(planted, window)), (gap, i, window)

    @pytest.mark.parametrize("k", range(7))
    def test_separation_does_not_depend_on_the_start_sample(self, k):
        # At a window equal to a pair distance, in either of its forms, a
        # rule on the linear gap j - i kept some pairs of one circular gap
        # and not the others: at 1/7 the pair (0, 6) of 7 samples but not
        # (i, i + 1), at 3/7 the pairs (i, i + 4) but not (i, i + 3).
        rng = np.random.default_rng(33)
        pts = [ProjPoint(*rng.uniform(-0.9, 0.9, 2), rng.uniform(-20.0, 20.0))
               for _ in range(7)]
        for window in (k / 7, 1.0 - (7 - k) / 7):
            seps = set()
            for shift in range(7):
                try:
                    seps.add(embedding_separation(pts[shift:] + pts[:shift], window))
                except ValueError:
                    seps.add(None)
            assert len(seps) == 1, (window, seps)

    def test_working_set_does_not_grow_with_the_pairs(self):
        # 2048 samples have ~2.1 million pairs within the window: index
        # arrays over them took ~100 MB; the blocked scan needs well under 1.
        pts = projectivize(unit_tangent_lift(lemniscate(), 2048)).proj_points()
        tracemalloc.start()
        try:
            assert embedding_separation(pts, window=2.0 / 512) > 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_straightening_stages_equal_full_matrix_oracle(self):
        pts = projectivize(unit_tangent_lift(lemniscate(), 1024)).proj_points()

        def iso(s, t):
            return pts[int(round((t % 1.0) * len(pts))) % len(pts)]

        for l in (0.0, 0.3, 1.0):
            samples = refine_stage_samples(iso, 64, l, 0.0, m=300)
            for window in (2.0 / 64, 0.25, 75 / 300):
                assert (embedding_separation(samples, window)
                        == embedding_separation_oracle(samples, window))
