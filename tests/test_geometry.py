import dataclasses
import json
import math
import re
from array import array
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from lens_scatter import dop853, geometry, scattering
from lens_scatter.dop853 import EPS
from lens_scatter.eaton import eaton_index, eaton_metric
from lens_scatter.geometry import (TWO_PI, ConformalMetric, IntegrationOptions,
                                   SingularChordError, SingularityError,
                                   integrate_geodesic, load_metric,
                                   metric_from_spec, riemannian_length)
from lens_scatter.scattering import (BoundaryIsometry, BoundaryVector, _arc_distance,
                                     boundary_grid, compare_scattering)

from conftest import christoffel_turn_rate, run_python, solve_ivp_trace
from test_scattering import GENTLE_BUMPS, KINKED_PROFILE, _seeded_bumps

BENDING_PROFILE = ConformalMetric.from_radial(
    lambda r: 1.0 + 0.3 * (1.0 - r * r), lambda r: -0.6 * r, name="bump")


def rhs(metric, x, y, theta):
    """``(dx, dy, dtheta, dtau)`` per unit Euclidean arclength, as integrated."""
    return metric._make_rhs()(x, y, theta)


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
        move = float(np.hypot(*(np.asarray(coarse.points[-1]) - fine.points[-1])))
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


def _state_at_length(dense, tau: float):
    """The state of the dense solution ``dense`` where its metric length is
    ``tau``; length grows at the rate ``n > 0``, so there is one."""
    if tau == 0.0:
        return dense(dense.t_min)
    # The exit sample may lie a little past the end: extrapolate.
    hi, step = dense.t_max, 1e-12
    while dense(hi)[3] < tau:
        hi, step = hi + step, 2.0 * step
    return dense(scipy_brentq(lambda s: dense(s)[3] - tau, dense.t_min, hi,
                              xtol=1e-15, rtol=4 * EPS))


class TestAgainstSolveIvp:
    """The in-repo DOP853 has scipy's tableau, initial step and controller,
    but sums in its own order, so its steps follow other rounding.  Its
    paths are checked against the tracer it replaced at the same metric
    length, state for state; steps cut at the knot circles of a tabulated
    profile leave scipy's on purpose, so the cutter is switched off here
    (see ``TestKnotCrossings``)."""

    def test_tableau_is_scipys(self):
        from scipy.integrate._ivp import dop853_coefficients as ref

        # The module's names, ``A5_3`` for A[5, 3] and so on, put back into
        # scipy's arrays; every entry without a name is zero.  ``B`` is row
        # 12 of ``A``.  The right-hand side reads no time, so the nodes ``C``
        # have no names.
        A, D = np.zeros((16, 16)), np.zeros((4, 16))
        E3, E5 = np.zeros(13), np.zeros(13)
        for name, value in vars(dop853).items():
            if m := re.fullmatch(r"A(\d+)_(\d+)", name):
                A[int(m[1]), int(m[2])] = value
            elif m := re.fullmatch(r"([BE])(3_|5_)?(\d+)", name):
                row = {"B": A[12], "E3_": E3, "E5_": E5}[m[1] + (m[2] or "")]
                row[int(m[3])] = value
        D[:, [0, *range(5, 16)]] = dop853._D_ROWS
        assert not any(re.fullmatch(r"C\d+", name) for name in vars(dop853))
        assert np.array_equal(A, ref.A)
        assert np.array_equal(A[12, :12], ref.B) and np.array_equal(D, ref.D)
        assert np.array_equal(E3, ref.E3) and np.array_equal(E5, ref.E5)

    def test_solver_runs_without_numpy(self, tmp_path):
        # The module has no package-relative import, so it loads from its
        # file alone, in an interpreter where importing numpy fails.
        probe = f"""
import importlib.util, json, math, sys
sys.modules["numpy"] = None
spec = importlib.util.spec_from_file_location("dop853", {str(Path(dop853.__file__))!r})
dop853 = importlib.util.module_from_spec(spec)
spec.loader.exec_module(dop853)
theta = math.pi - 0.3  # inward from (1, 0)
sol = dop853.solve(lambda x, y, theta: (math.cos(theta), math.sin(theta), 0.0, 1.0),
                   (1.0, 0.0, theta, 0.0), rtol=1e-10, atol=1e-14,
                   events=[lambda s, y: -1.0 if s == 0.0 else y[0] ** 2 + y[1] ** 2 - 1.0])
loaded = sorted(n for n, m in sys.modules.items() if m is not None and n.startswith("numpy"))
print(json.dumps([sol.event, sol.ts[-1], list(sol.ys[-1]), loaded]))
"""
        event, length, state, loaded = json.loads(run_python(probe, tmp_path))
        # The chord from (1, 0) at 0.3 from the inward normal: 2 cos 0.3 long.
        chord = 2.0 * math.cos(0.3)
        want = (1.0 - chord * math.cos(0.3), chord * math.sin(0.3), math.pi - 0.3, chord)
        assert event == 0 and loaded == []
        assert abs(length - chord) < 1e-12
        assert all(abs(g - w) < 1e-12 for g, w in zip(state, want)), state

    @pytest.mark.parametrize("seed", range(20))
    def test_step_is_the_tableau_written_out(self, seed):
        # A guard on the straight-line sums: a right-hand side that replays
        # random stage vectors, so that no sum cancels by the method's order
        # conditions, sees the ``(x, y, theta)`` the tableau arrays give and
        # no time, and the step's new state, tau included, its error norm
        # and interpolant are the arrays' too.  Each agrees to rounding: a
        # few eps of the magnitude of its terms.
        from scipy.integrate._ivp.dop853_coefficients import A, B, D, E3, E5

        rng = np.random.default_rng(seed)
        K = rng.normal(size=(16, 4))
        y = rng.normal(size=4)
        t, h, rtol, atol = 0.25, 0.4, 1e-7, 1e-11
        calls = []

        def replay(x, yy, theta):
            calls.append(np.array((x, yy, theta)))
            return tuple(K[len(calls)].tolist())

        y_new, error_norm, stages = dop853._step(replay, h, tuple(y.tolist()),
                                                 tuple(K[0].tolist()), rtol, atol)
        assert len(calls) == 11
        # Stage 12, the slope at the new state, is the solver's to evaluate.
        f_new = replay(*y_new[:3])
        sol = dop853.DenseSolution(replay)
        sol._steps.append((t, h, tuple(y.tolist()), y_new, array("d", (*stages, *f_new))))
        x = 0.37
        got = np.array(sol([t + x * h]))[:, 0]
        assert len(calls) == 15 and f_new == tuple(K[12].tolist())

        rows = [A[s, :s] for s in range(1, 12)] + [B] + [A[s, :s] for s in range(13, 16)]
        for a, state in zip(rows, calls):
            k = K[:len(a)]
            bound = 4 * EPS * (np.abs(y) + h * np.abs(a).dot(np.abs(k)))
            assert np.all(np.abs(state - (y + h * a.dot(k))[:3]) <= bound[:3])
        bound = 4 * EPS * (np.abs(y) + h * np.abs(B).dot(np.abs(K[:12])))
        assert np.all(np.abs(np.array(y_new) - (y + h * B.dot(K[:12]))) <= bound)

        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        err5 = E5.dot(K[:13]) / scale
        err3 = E3.dot(K[:13]) / scale
        want = h * err5.dot(err5) / math.sqrt((err5.dot(err5) + 0.01 * err3.dot(err3)) * 4)
        assert abs(error_norm - want) <= 8 * EPS * want

        dy = np.array(y_new) - y
        F = [dy, h * K[0] - dy, 2 * dy - h * (K[12] + K[0]), *(h * D.dot(K))]
        want = np.zeros(4)
        for i, f in enumerate(reversed(F)):
            want = (want + f) * (x if i % 2 == 0 else 1 - x)
        bound = 4 * EPS * (np.abs(y) + np.sum(np.abs(F), axis=0))
        assert np.all(np.abs(got - (y + want)) <= bound)

    @pytest.mark.parametrize("name,metric,entry,cap", _oracle_cases())
    def test_paths_match_oracle(self, name, metric, entry, cap, monkeypatch):
        monkeypatch.setattr(geometry, "_knot_cut", lambda metric: None)
        opts = IntegrationOptions(max_length=cap)
        tol = opts.step_tol
        got = integrate_geodesic(metric, entry, opts)
        want, dense = solve_ivp_trace(metric, entry, opts)
        assert got.trapped == want.trapped == (cap is not None)
        rhs = metric._make_rhs()
        for point, direction, tau in zip(got.points, got.directions, got.lengths):
            x, y, theta, _ = state = _state_at_length(dense, tau)
            slip = math.hypot(point[0] - x, point[1] - y)
            assert slip <= tol
            # Within step_tol at one point, and the two points may lie up
            # to step_tol apart along the ray, which turns by its turn rate
            # times that distance.
            turn = abs(rhs(x, y, theta)[2])
            assert abs(direction - theta) <= tol * (1.0 + turn)
        if not want.trapped:
            # Steps across the kinks of an uncut tabulated profile fit their
            # stages to a right-hand side that is not smooth.
            exit_tol = tol if name == "knots" else 1e-10
            assert _arc_distance(got.exit.arc, want.exit.arc) <= exit_tol
            assert abs(got.exit.angle - want.exit.angle) <= exit_tol
            assert abs(got.length - want.length) <= exit_tol


# n is flat on 0.4 <= r <= 0.6 and n'' jumps on the r = 0.4 circle.  The
# ray's perigee is 6e-6 inside that circle.  Uncut steps carry it in and
# out within one 0.40-long step whose error estimate never sees the bend:
# the exit lands 6e-6 off in length and 2e-6 in arc, and the interpolated
# samples break Clairaut's integral by 9e-5.  No BLAS or SIMD-dispatched
# call enters the trace, so this holds on every CPU.
GRAZED_KNOTS = ConformalMetric.from_profile_knots(
    [(0.2 * k, 1.0 - sum([0.0, 0.004027576267654266, 0.0,
                          0.023592330062498765, 0.004027576267654266][k:]))
     for k in range(6)], name="knots")
GRAZING_ENTRY = BoundaryVector(0.7370101066977546, 1.9694947240607714)


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
        pts = np.asarray(path.points)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert r.min() < 0.4
        for knot in (0.4, 0.75):
            near = np.flatnonzero(np.abs(r - knot) < 1e-7)
            assert near.min() < np.argmin(r) < near.max()


class TestProfileRim:
    """A radial profile is one formula across the rim, so a ray's
    right-hand side does not jump where it enters or leaves."""

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
    def test_rhs_calls_count_field_evaluations(self, monkeypatch):
        n, grad = GENTLE_BUMPS.field
        calls = []

        def counted(x, y):
            calls.append((x, y))
            return grad(x, y)

        def check(metric, cases):
            for entry, cap, end in cases:
                calls.clear()
                stats = integrate_geodesic(metric, entry, IntegrationOptions(max_length=cap)).stats
                assert stats.termination == end
                assert stats.rhs_calls == len(calls)
                # Two calls pick the first step, each accepted try costs 12,
                # each rejected one 11 (its end slope is never read) and each
                # interpolated step 3 more; the last step is interpolated.
                extra = stats.rhs_calls - 2 - 12 * stats.steps - 11 * stats.rejected
                assert extra >= 3 and extra % 3 == 0

        check(ConformalMetric.general(n, counted),
              [(BoundaryVector(0.1, 1.0), None, "exited"),
               (BoundaryVector(0.4, 1.2), 0.6, "length_cap")])
        # On a tabulated profile the knot cutter rejects steps too, and reads
        # no slopes of its own.
        make_rhs = ConformalMetric._make_rhs

        def counted_rhs(metric):
            rhs = make_rhs(metric)

            def f(x, y, theta):
                calls.append((x, y))
                return rhs(x, y, theta)

            return f

        monkeypatch.setattr(ConformalMetric, "_make_rhs", counted_rhs)
        check(KNOT_PROFILE, [(BoundaryVector(0.6, 1.5), None, "exited"),
                             (BoundaryVector(0.3, 1.0), 0.9, "length_cap")])

    def test_refinement_rounds(self, eaton):
        # Rays round the pole turn faster than the solver's steps resolve.
        stats = integrate_geodesic(eaton, BoundaryVector(0.0, math.acos(0.01))).stats
        assert stats.refine_rounds >= 1 and not stats.refine_exhausted
        stats = integrate_geodesic(eaton, BoundaryVector(0.0, 0.3)).stats
        assert stats.refine_rounds == 0


# Three bumps with literal parameters.  The index and its gradient add their
# terms in explicit left-to-right loops, so a trace's bits depend on libm
# alone, not on the Python version or the CPU's numpy kernels.
PINNED_BUMPS = ((0.31, -0.12, 0.18, 0.27), (-0.25, 0.33, -0.12, 0.21),
                (0.05, 0.42, 0.09, 0.3))


def _pinned_bumps_n(x, y):
    total = 1.0
    for cx, cy, a, s in PINNED_BUMPS:
        dx, dy = x - cx, y - cy
        total += a * math.exp(-(dx * dx + dy * dy) / (2.0 * s * s))
    return total


def _pinned_bumps_grad(x, y):
    gx = gy = 0.0
    for cx, cy, a, s in PINNED_BUMPS:
        dx, dy = x - cx, y - cy
        w = a * math.exp(-(dx * dx + dy * dy) / (2.0 * s * s)) / (s * s)
        gx -= w * dx
        gy -= w * dy
    return gx, gy


class TestGeneralTracePin:
    """A ``general`` metric's traces, pinned to the bit: exit arc, exit
    angle, length, sample count and counters."""

    @pytest.mark.parametrize("entry,want", [
        (BoundaryVector(0.05, 0.9),
         (0.3558191934912768, 0.9736352576871773, 1.688824643066108, 15,
          geometry.TraceStats("exited", 228, 14, 5, 0, False))),
        (BoundaryVector(0.4, 1.7),
         (0.9380235425858046, 1.7455741728703424, 2.085103359415631, 23,
          geometry.TraceStats("exited", 317, 20, 6, 1, False))),
        (BoundaryVector(0.72, 0.35),
         (0.8327702288925931, 0.3456727972407406, 0.6950547916206651, 7,
          geometry.TraceStats("exited", 99, 6, 2, 0, False))),
    ], ids=["forward", "across", "shallow"])
    def test_trace_is_pinned(self, entry, want):
        metric = ConformalMetric.general(_pinned_bumps_n, _pinned_bumps_grad)
        path = integrate_geodesic(metric, entry)
        got = (path.exit.arc, path.exit.angle, path.length, len(path.points), path.stats)
        assert repr(got) == repr(want)


def _mobius_pullback(a: complex) -> ConformalMetric:
    """The flat disk pulled back by the disk automorphism
    ``phi_a(z) = (z - a) / (1 - conj(a) z)``: index ``|phi_a'(z)|
    = (1 - |a|^2) / |1 - conj(a) z|^2``, with its closed-form gradient."""
    ar, ai = a.real, a.imag
    c = 1.0 - abs(a) ** 2

    def parts(x, y):
        # 1 - conj(a) z = u - i v.
        return 1.0 - ar * x - ai * y, ar * y - ai * x

    def n(x, y):
        u, v = parts(x, y)
        return c / (u * u + v * v)

    def grad(x, y):
        u, v = parts(x, y)
        q = u * u + v * v
        dqx = -2.0 * (ar * u + ai * v)
        dqy = 2.0 * (ar * v - ai * u)
        return -c * dqx / (q * q), -c * dqy / (q * q)

    return ConformalMetric.general(n, grad, name=f"mobius-{a}")


def _pulled_back(metric: ConformalMetric, a: complex) -> ConformalMetric:
    """A ``general`` metric pulled back by ``phi_a``: index ``n(phi_a(z))
    |phi_a'(z)|``, with gradient ``|phi_a'| conj(phi_a') grad n(phi_a(z)) +
    n(phi_a(z)) grad |phi_a'|`` and ``phi_a'(z) = (1 - |a|^2) / (1 - conj(a)
    z)^2``; :func:`_mobius_pullback` supplies ``|phi_a'|`` and its gradient."""
    n, grad = metric.field
    scale, scale_grad = _mobius_pullback(a).field
    c = 1.0 - abs(a) ** 2

    def image(x, y):
        # phi_a(z) and phi_a'(z).
        z = complex(x, y)
        q = 1.0 - a.conjugate() * z
        return (z - a) / q, c / (q * q)

    def m(x, y):
        w, _ = image(x, y)
        return n(w.real, w.imag) * scale(x, y)

    def m_grad(x, y):
        w, dw = image(x, y)
        gx, gy = grad(w.real, w.imag)
        g = scale(x, y) * dw.conjugate() * complex(gx, gy)
        nw = n(w.real, w.imag)
        sx, sy = scale_grad(x, y)
        return g.real + nw * sx, g.imag + nw * sy

    return ConformalMetric.general(m, m_grad, name=f"{metric.name}-mobius-{a}")


def _mobius_arc(a: complex, arc: float) -> float:
    """The arc of ``phi_a(z)`` for the rim point ``z`` at ``arc``;
    ``phi_-a`` is the inverse of ``phi_a``."""
    z = complex(math.cos(TWO_PI * arc), math.sin(TWO_PI * arc))
    w = (z - a) / (1.0 - a.conjugate() * z)
    return math.atan2(w.imag, w.real) / TWO_PI


class TestMobiusPullbacks:
    """A flat pullback's geodesics are the automorphism's preimages of
    chords: the exit is ``phi_a^-1`` of the chord's exit from
    ``phi_a(entry)``, conformality keeps the exit angle equal to the entry
    angle, and the length is the chord's, ``2 sin(angle)``."""

    @pytest.mark.parametrize("a", [0.3, 0.2 + 0.4j, 0.6])
    def test_exit_is_the_pulled_back_chord(self, a):
        metric = _mobius_pullback(a)
        opts = IntegrationOptions()
        worst = [0.0, 0.0, 0.0]
        for entry in boundary_grid(16, 8):
            want_arc = _mobius_arc(-a, _mobius_arc(a, entry.arc) + entry.angle / math.pi)
            path = integrate_geodesic(metric, entry, opts)
            misses = (TWO_PI * _arc_distance(path.exit.arc, want_arc),
                      abs(path.exit.angle - entry.angle),
                      abs(path.length - 2.0 * math.sin(entry.angle)))
            worst = [max(m, w) for m, w in zip(misses, worst)]
        # Measured: at most 4.6e-10 (arc, radians), 2.3e-10 (angle) and
        # 2.9e-10 (length) at step_tol 1e-7.
        assert max(worst) < 0.01 * opts.step_tol, worst


class TestMobiusGauge:
    """Pulled back by ``phi_a``, a metric scatters as before with its rim
    relabelled by ``phi_a``: the exit is ``phi_a^-1`` of the original exit
    from ``phi_a(entry)``, with the same exit angle and the same length.
    ``phi_a`` on the rim is no isometry of the circle, so the relabelled
    data differ from the original under every shift and reflection."""

    @pytest.mark.parametrize("a", [0.3, 0.35 + 0.2j])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_pulled_back_bumps_keep_their_data(self, seed, a):
        bumps = _seeded_bumps(seed)
        metric = _pulled_back(bumps, a)
        opts = IntegrationOptions()
        worst = [0.0, 0.0, 0.0]
        for entry in boundary_grid(8, 4):
            want = integrate_geodesic(
                bumps, BoundaryVector(_mobius_arc(a, entry.arc), entry.angle), opts)
            path = integrate_geodesic(metric, entry, opts)
            misses = (TWO_PI * _arc_distance(path.exit.arc, _mobius_arc(-a, want.exit.arc)),
                      abs(path.exit.angle - want.exit.angle),
                      abs(path.length - want.length))
            worst = [max(m, w) for m, w in zip(misses, worst)]
        # Measured: at most 0.040 step_tol (the exit arc, seed 11, a =
        # 0.35+0.2i) at step_tol 1e-7.
        assert max(worst) < 0.1 * opts.step_tol, worst

    @pytest.mark.parametrize("a", [0.3, 0.2 + 0.4j, 0.6])
    def test_flat_pullback_is_not_the_vacuum_up_to_isometry(self, a):
        # Over 64 shifts, with and without reflection, the smallest
        # max_arc_dev on this grid is 0.19 at a = 0.3, 0.28 at 0.2+0.4i
        # (shift 3/64) and 0.36 at 0.6 (shift 4/64).
        vacuum = ConformalMetric.vacuum()
        metric = _mobius_pullback(a)
        for shift in (0.0, 3 / 64, 4 / 64, 0.5):
            for reflect in (False, True):
                rep = compare_scattering(vacuum, metric, BoundaryIsometry(shift, reflect),
                                         boundary_grid(8, 4))
                assert (rep.trapped_count, rep.excluded) == (0, 0)
                assert not rep.equal
                assert rep.max_arc_dev > 0.15


class TestRotatedPaths:
    @pytest.mark.parametrize("name", ["lens", "knots"])
    def test_rotation_matches_per_entry_trace(self, eaton, name):
        metric = eaton if name == "lens" else KNOT_PROFILE
        opts = IntegrationOptions()
        grid = boundary_grid(8, 2)
        paths = scattering.per_angle(metric, grid, lambda v: integrate_geodesic(metric, v, opts))
        # Two angles: the first entry of each is traced, the others rotated.
        assert [p.stats is not None for p in paths] == [True, True] + [False] * 14
        for v, got in zip(grid, paths):
            want = integrate_geodesic(metric, v, opts)
            phi = 2.0 * math.pi * v.arc
            assert np.hypot(*(np.asarray(got.points[0]) - (math.cos(phi), math.sin(phi)))) < 1e-12
            turn = got.directions[0] - want.directions[0]
            assert abs(math.remainder(turn, 2.0 * math.pi)) < 1e-12
            assert _arc_distance(got.exit.arc, want.exit.arc) < 10 * opts.step_tol
            assert abs(got.exit.angle - want.exit.angle) < 10 * opts.step_tol
            assert abs(got.length - want.length) < 10 * opts.step_tol

    def test_general_metric_traced_per_entry(self):
        # Bumps have no rotational symmetry: every entry is traced, none rotated.
        traced = []

        def trace(v):
            traced.append(v)
            return integrate_geodesic(GENTLE_BUMPS, v)

        grid = boundary_grid(3, 2)
        paths = scattering.per_angle(GENTLE_BUMPS, grid, trace)
        assert traced == grid
        assert [p.entry for p in paths] == grid
        assert all(p.stats is not None for p in paths)

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
        # 7-point Gauss rule integrates it exactly; only polyline geometry
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

    @pytest.mark.parametrize("knots", [[], iter([])], ids=["list", "iterator"])
    @pytest.mark.parametrize("radius", [1.0, -1.0])
    def test_profile_needs_knots(self, knots, radius):
        # The missing knots are named even when the radius is also bad.
        with pytest.raises(ValueError, match="^radial-profile metric needs profile knots$"):
            ConformalMetric.from_profile_knots(knots, radius=radius)

    @pytest.mark.parametrize("spec", [{}, {"profile": None}, {"profile": []},
                                      {"profile": [], "radius": -1.0}],
                             ids=["missing", "null", "empty", "empty-bad-radius"])
    def test_spec_profile_needs_knots(self, spec):
        with pytest.raises(ValueError, match="^radial-profile metric needs profile knots$"):
            metric_from_spec({"kind": "radial-profile", **spec})

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

    def test_radial_metrics_compare_by_knots(self):
        path = Path(__file__).resolve().parent / "data" / "metric-four-knots.json"
        a, b = load_metric(path), load_metric(path)
        assert a == b and hash(a) == hash(b)
        spec = json.loads(path.read_text())
        spec["profile"][1][1] = math.nextafter(spec["profile"][1][1], math.inf)
        assert metric_from_spec(spec) != a
        # Equal profiles share one scan table.
        geometry._scan_table.cache_clear()
        for m in (a, b):
            scattering.scatter(m, BoundaryVector(0.1, 1.0))
        assert geometry._scan_table.cache_info().misses == 1

    def test_metric_is_frozen_and_its_pole_comes_from_the_profile(self):
        knots = ConformalMetric.from_profile_knots([(0.0, 1.2), (1.0, 1.0)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            knots.radius = 2.0
        # Its knots too: eval, the quadrature panels and _knot_cut all read
        # the one tuple.
        with pytest.raises(TypeError):
            knots.profile.breakpoints[1] = 0.5
        assert not knots.singular_at_origin
        assert not load_metric("vacuum").singular_at_origin
        assert not BENDING_PROFILE.singular_at_origin
        assert ConformalMetric.from_radial(lambda r: 1.0 / r, lambda r: -1.0 / r ** 2,
                                           r_min=1e-6).singular_at_origin
