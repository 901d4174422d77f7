"""The numerical kernels the geometry side carries instead of scipy's and
numpy's, each checked against the library as the reference: Brent's root
finder, the PCHIP coefficients, the G7K15 rule and the quadrature it
drives, the 7-point Gauss rule of the G7K15 table in ``riemannian_length``,
the periodic cubic spline of sampled curves, the turning-radius scan grid,
and the angle lift ``np.unwrap``."""

import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.optimize import brentq as scipy_brentq

from lens_scatter import geometry
from lens_scatter.curves import from_samples
from lens_scatter.dop853 import EPS, brentq
from lens_scatter.eaton import eaton_metric
from lens_scatter.geometry import (ConformalMetric, IntegrationOptions, clairaut_orbit,
                                   polar_sweep)
from lens_scatter.scattering import boundary_grid

from conftest import quad_clairaut_orbit
from test_scattering import KINKED_PROFILE


def _outcome(solve, f, a, b, **kw):
    """The root's bits, or the type of the exception raised."""
    try:
        return solve(f, a, b, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__


class TestBrentq:
    """The port takes scipy's iterates, so it returns scipy's root to the bit
    and fails where scipy fails."""

    @staticmethod
    def _functions(rng):
        c = rng.uniform(-2.0, 2.0, 3).tolist()
        # Scales at the edges of the double range exercise products that
        # underflow or overflow inside the iteration.
        scale = float(rng.choice([1.0, 1e-150, 1e-300, 1e200]))
        return [
            lambda x: scale * (x ** 3 + c[0] * x * x + c[1] * x + c[2]),
            lambda x: scale * (math.sin(3.0 * x + c[0]) + 0.5 * c[1]),
            lambda x: scale * (math.exp(c[0] * x) - 1.5 + c[1]),
            lambda x: scale * (x - c[0]) ** 3,
            lambda x: scale * (math.tanh(50.0 * (x - c[0])) + 1e-3 * c[1]),
        ]

    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(7)
        seen = {"root": 0, "RuntimeError": 0, "ValueError": 0}
        for _ in range(600):
            a, b = rng.uniform(-3.0, 3.0, 2).tolist()
            xtol = float(10.0 ** rng.uniform(-16.0, -2.0))
            rtol = float(rng.choice([4 * EPS, 1e-10, 1e-6]))
            maxiter = int(rng.choice([100, 5, 10, 20]))
            for f in self._functions(rng):
                kw = dict(xtol=xtol, rtol=rtol, maxiter=maxiter)
                want = _outcome(scipy_brentq, f, a, b, **kw)
                assert _outcome(brentq, f, a, b, **kw) == want, (a, b, kw)
                seen[want if want in seen else "root"] += 1
        # Every branch was taken: converged roots, exhausted maxiter and
        # brackets without a sign change.
        assert min(seen.values()) > 100, seen

    def test_defaults_are_scipys(self):
        def f(x):
            return math.cos(x) - x

        assert brentq(f, 0.0, 1.0).hex() == scipy_brentq(f, 0.0, 1.0).hex()

    def test_zero_at_an_end_returns_that_end(self):
        assert brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert brentq(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    def test_nan_raises_value_error(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)


class TestPchip:
    """``_pchip_coefficients`` of float lists is scipy's
    ``PchipInterpolator(x, y).c``, to the bit."""

    @staticmethod
    def _tables(rng):
        for k in range(400):
            n = int(rng.integers(2, 10))
            x = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1.0, n - 1))])
            kind = k % 4
            if kind == 0:    # arbitrary values: secants change sign
                y = rng.uniform(0.5, 2.0, n)
            elif kind == 1:  # one decimal: flat runs
                y = np.round(rng.uniform(0.5, 2.0, n), 1)
            elif kind == 2:  # monotone
                y = 1.0 + np.cumsum(rng.uniform(0.0, 0.2, n))
            else:            # smooth, few sign changes
                y = 1.0 + 0.3 * np.sin(rng.uniform(0.0, 10.0) * x)
            yield x, y

    def test_bit_identical_to_scipy(self):
        rng = np.random.default_rng(3)
        two_knots = zero_end = steep_end = 0
        for x, y in self._tables(rng):
            got = np.array(geometry._pchip_coefficients(x.tolist(), y.tolist()))
            want = PchipInterpolator(x, y).c
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (x, y)
            two_knots += len(x) == 2
            h, m = np.diff(x), np.diff(y) / np.diff(x)
            if len(x) > 2:
                d = ((2 * h[0] + h[1]) * m[0] - h[0] * m[1]) / (h[0] + h[1])
                zero_end += np.sign(d) != np.sign(m[0])
                steep_end += (np.sign(d) == np.sign(m[0]) and np.sign(m[0]) != np.sign(m[1])
                              and abs(d) > 3 * abs(m[0]))
        # Both branches of the end rule were taken, and two-knot tables.
        assert min(two_knots, zero_end, steep_end) > 10, (two_knots, zero_end, steep_end)

    def test_flat_run_keeps_zero_slopes(self):
        x = np.array([0.0, 0.3, 0.6, 1.0])
        y = np.array([1.2, 1.2, 1.2, 1.0])
        c = np.array(geometry._pchip_coefficients(x.tolist(), y.tolist()))
        assert np.array_equal(c, PchipInterpolator(x, y).c)
        assert np.all(c[:, 0] == [0.0, 0.0, 0.0, 1.2])


class TestGaussKronrod:
    NODES = np.array(geometry._GK_X)

    def test_gauss_nodes_are_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(7)
        np.testing.assert_allclose(self.NODES[1::2], nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(geometry._G7_W, weights, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("degree", range(23))
    def test_kronrod_integrates_monomials_exactly(self, degree):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        got = float(np.sum(np.array(geometry._GK_W) * self.NODES ** degree))
        assert got == pytest.approx(exact, rel=0, abs=4e-16)
        if degree <= 13:
            gauss = float(np.sum(np.array(geometry._G7_W) * self.NODES[1::2] ** degree))
            assert gauss == pytest.approx(exact, rel=0, abs=4e-16)

    def test_adaptive_rule_meets_its_tolerance(self):
        # A peaked integrand that needs many panels, and a smooth one.
        def integrand(u):
            return 1.0 / (1e-4 + u * u), math.cos(u)

        got = geometry._adaptive_gk15(integrand, [-1.0, 0.0, 1.0], 1e-10, 100)
        want = [2.0 * math.atan(1.0 / 1e-2) / 1e-2, 2.0 * math.sin(1.0)]
        assert got[0] == pytest.approx(want[0], rel=1e-10)
        assert got[1] == pytest.approx(want[1], rel=1e-10)
        assert geometry._adaptive_gk15(integrand, [-1.0, 1.0], 1e-10, 4) is None

    def test_non_finite_values_decline(self):
        def integrand(u):
            return math.nan if u > 0.3 else 1.0, u

        assert geometry._adaptive_gk15(integrand, [0.0, 1.0], 1e-8, 50) is None

    def test_node_sums_add_term_after_term(self):
        # The reference adds each node's term in node order, as the rule
        # must on every CPU: neither a BLAS kernel's order nor a SIMD
        # reduction's.
        def in_order(values, weights):
            total = 0.0
            for v, w in zip(values, weights):
                total += v * w
            return total

        rng = np.random.default_rng(3)
        f = rng.normal(size=(2, 5, 15)) * 10.0 ** rng.integers(-6, 7, size=(2, 5, 15))
        lo = rng.uniform(0.0, 1.0, 5)
        hi = lo + rng.uniform(0.1, 1.0, 5)
        wk, wg = geometry._GK_W, geometry._G7_W
        for k in range(5):
            # Panel k's integrands at its nodes, in the order they are asked for.
            rows = iter(f[:, k].T.tolist())
            vals, errs = geometry._gk15(lambda u: next(rows), float(lo[k]), float(hi[k]))
            h = 0.5 * (hi[k] - lo[k])
            for i in range(2):
                kronrod = in_order(f[i, k], wk)
                ascent = in_order(np.abs(f[i, k] - 0.5 * kronrod), wk) * h
                err = abs((kronrod - in_order(f[i, k, 1::2], wg)) * h)
                assert vals[i] == kronrod * h
                assert errs[i] == ascent * min(1.0, (200.0 * err / ascent) ** 1.5)
        # riemannian_length's Gauss sums, on three segments and on 63, and
        # the segments added left to right, as they lie (on the 63, np.sum's
        # pairwise order gives other bits).
        metric = next(_seeded_profiles(1))
        for points in (np.array([[0.1, 0.2], [0.5, -0.3], [-0.2, -0.6], [0.0, 0.7]]),
                       rng.uniform(-0.6, 0.6, size=(64, 2))):
            total = 0.0
            for a, b in zip(points[:-1], points[1:]):
                nodes = a + 0.5 * (self.NODES[1::2] + 1.0)[:, None] * (b - a)
                total += math.hypot(*(b - a)) * 0.5 * in_order(metric.n_many(nodes), wg)
            assert geometry.riemannian_length(metric, points) == total
            assert geometry.riemannian_length(metric, [tuple(p) for p in points.tolist()]) == total


def _seeded_profiles(count):
    rng = np.random.default_rng(11)
    for _ in range(count):
        steps = rng.uniform(0.0, 0.06, 5)
        sign = rng.choice([-1.0, 1.0])
        yield ConformalMetric.from_profile_knots(
            [(0.2 * k, 1.0 + sign * float(np.sum(steps[k:]))) for k in range(6)])


class TestClairautAgainstQuad:
    """The G7K15 orbit integrals stay within 1e-2 step_tol of the ``quad``
    rule they replace, on the angles ``boundary_grid`` produces.  Both
    rules aim at ``max(tol, tol |I|)``, so for values above 1 the bound is
    relative."""

    @pytest.mark.parametrize("step_tol", [1e-5, 1e-7, 1e-9])
    def test_within_hundredth_of_step_tol(self, step_tol):
        opts = IntegrationOptions(step_tol=step_tol)
        metrics = [ConformalMetric.vacuum(), eaton_metric(), KINKED_PROFILE,
                   *_seeded_profiles(4)]
        angles = sorted({v.angle for v in boundary_grid(2, 40)})
        for metric in metrics:
            for chi in angles:
                impact = abs(math.cos(chi))
                got = clairaut_orbit(metric, impact, opts)
                want = quad_clairaut_orbit(metric, impact, opts)
                assert (got is None) == (want is None), (metric.name, chi)
                if got is not None:
                    for g, w in zip(got, want):
                        assert abs(g - w) < 1e-2 * step_tol * max(1.0, abs(w)), (metric.name, chi)

    @pytest.mark.parametrize("gap", [1e-6, 1e-4, 1e-3])
    def test_turning_point_just_below_a_knot(self, gap):
        # (n r)' kinks at the knot, inside Simpson's zone above r*; a rule
        # across the kink put tau 1e-6 off on a profile whose last step is
        # 2e-12 (a Hypothesis example).
        opts = IntegrationOptions()
        steps = [0.007868514420622487, 0.002768714668970618, 0.021344378134921,
                 0.04667729232281976, 2e-12]
        flat_rim = ConformalMetric.from_profile_knots(
            [(0.2 * k, 1.0 + sum(steps[k:])) for k in range(6)])
        for metric in [flat_rim, KINKED_PROFILE, *_seeded_profiles(4)]:
            profile = metric.profile
            for knot in profile.breakpoints[1:-1]:
                r_star = knot * (1.0 - gap)
                impact = profile.eval(r_star)[0] * r_star / profile.eval(1.0)[0]
                got = clairaut_orbit(metric, impact, opts)
                want = quad_clairaut_orbit(metric, impact, opts)
                assert got is not None and want is not None
                for g, w in zip(got, want):
                    assert abs(g - w) < 1e-2 * opts.step_tol * max(1.0, abs(w)), (knot, gap)

    def test_lens_lengths_closer_to_exact_near_grazing(self):
        # The lens's orbit lengths are 2 pi + 2 sin(chi).  Close to grazing
        # (n r)' is small at r*, and the difference n r - p cancels;
        # Simpson's rule on (n r)' keeps the new rule within step_tol.
        opts = IntegrationOptions()
        for chi in np.geomspace(1e-6, 0.05, 24):
            got = clairaut_orbit(eaton_metric(), math.cos(chi), opts)
            assert got is not None
            assert abs(got[1] - (2.0 * math.pi + 2.0 * math.sin(chi))) < opts.step_tol


class _ScanProfile:
    """What the scan reads of a profile: ``r_min``, ``breakpoints`` and
    ``eval``.  Hashed by identity, so each one gets its own table."""

    def __init__(self, r_min, breakpoints):
        self.r_min = r_min
        self.breakpoints = breakpoints

    def eval(self, r):
        return 1.0 + r * r, 2.0 * r


class TestScanGrid:
    def test_equals_union1d(self):
        # The reference: libm's powers of 10 over ``np.linspace``'s logs with
        # exact ends, merged with the knots strictly inside by ``np.union1d``.
        rng = np.random.default_rng(5)
        for k in range(300):
            radius = float(rng.choice([1.0, 10.0 ** rng.uniform(-6.0, 6.0)]))
            r_min = float(rng.choice([0.0, 1e-10, radius * 10.0 ** rng.uniform(-14.0, -1.0)]))
            floor = max(r_min, geometry._SCAN_FLOOR * radius)
            logs = np.linspace(math.log10(floor), math.log10(radius), geometry._SCAN_POINTS)
            grid = np.array([10.0 ** y for y in logs.tolist()])
            grid[0], grid[-1] = floor, radius
            knots = np.sort(radius * rng.uniform(0.0, 1.2, int(rng.integers(0, 8))))
            if k % 2:
                # A knot equal to a grid radius, which must appear once.
                knots = np.sort(np.append(knots, grid[int(rng.integers(1, len(grid) - 1))]))
            knots = np.concatenate([[0.0], knots, [radius]])
            want = np.union1d(grid, knots[(knots > floor) & (knots < radius)])
            profile = _ScanProfile(r_min, tuple(knots.tolist()))
            rs, nr = geometry._scan_table(profile, radius)
            assert np.array_equal(rs, want), (radius, r_min)
            assert nr == tuple(profile.eval(r)[0] * r for r in want.tolist())


class TestUnwrap:
    """The float angle lift that ``_refine_samples`` and ``polar_sweep``
    share is ``np.unwrap``, bit for bit."""

    PI_UP, PI_DOWN = math.nextafter(math.pi, 4.0), math.nextafter(math.pi, 3.0)
    # Steps on the rule's edges: exactly +-pi, pi +- 1 ulp, multiples of 2 pi.
    EDGES = (math.pi, -math.pi, PI_UP, -PI_UP, PI_DOWN, -PI_DOWN,
             2.0 * math.pi, -2.0 * math.pi, 4.0 * math.pi, -6.0 * math.pi)

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_np_unwrap(self, seed):
        # Angles as atan2 gives them, wider ones with many corrections to
        # sum, and each edge step taken from 0.0, where it is exact.
        rng = np.random.default_rng(seed)
        chunks = [[float(a)] for a in rng.uniform(-math.pi, math.pi, 60)]
        chunks += [[float(a)] for a in rng.uniform(-20.0, 20.0, 60)]
        chunks += [[0.0, step] for step in self.EDGES]
        angles = [a for k in rng.permutation(len(chunks)) for a in chunks[k]]
        assert set(self.EDGES) <= set(np.diff(angles).tolist())
        got = geometry._unwrap(angles)
        assert [a.hex() for a in got] == [a.hex() for a in np.unwrap(angles).tolist()]

    def test_polar_sweep_reads_arrays_and_tuples_alike(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            phi = np.cumsum(rng.uniform(-1.2, 1.5, 200))
            r = rng.uniform(0.01, 1.0, 200)
            pts = np.column_stack([r * np.cos(phi), r * np.sin(phi)])
            polar = np.unwrap(list(map(math.atan2, pts[:, 1].tolist(), pts[:, 0].tolist())))
            want = float(polar[-1] - polar[0])
            assert polar_sweep(pts).hex() == want.hex()
            assert polar_sweep([tuple(p) for p in pts.tolist()]).hex() == want.hex()


class TestPeriodicSpline:
    """``from_samples`` is scipy's periodic ``CubicSpline`` through the
    samples, to 1e-13."""

    @pytest.mark.parametrize("m", [4, 5, 16, 64, 257])
    def test_matches_cubic_spline(self, m):
        rng = np.random.default_rng(m)
        u = np.arange(m) / m * 2.0 * math.pi
        pts = np.column_stack([np.cos(u), 0.5 * np.sin(2.0 * u)])
        pts += 0.01 * rng.standard_normal(pts.shape)
        ts = np.linspace(0.0, 1.0, m + 1)
        spline = CubicSpline(ts, np.vstack([pts, pts[:1]]), bc_type="periodic")
        curve = from_samples(pts)
        t = np.concatenate([rng.uniform(-1.0, 2.0, 500), ts, [1.0 - 1e-17]])
        want_p = spline(np.mod(t, 1.0))
        want_v = spline.derivative()(np.mod(t, 1.0))
        assert np.max(np.abs(curve.point(t) - want_p)) < 1e-13
        assert np.max(np.abs(curve.velocity(t) - want_v)) < 1e-13 * np.max(np.abs(want_v))
        assert curve.point(0.25).shape == (2,)
