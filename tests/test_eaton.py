import functools
import math

import numpy as np
import pytest

from lens_scatter import dop853, scattering
from lens_scatter.eaton import (NonIntegralWindingError, _exact_dn_dr,
                                eaton_index, eaton_metric, index_residual,
                                invisibility_check, loop_winding)
from lens_scatter.geometry import (ConformalMetric, GeodesicPath, IntegrationOptions,
                                   SingularChordError, SingularityError,
                                   chord_impact, integrate_geodesic)
from lens_scatter.scattering import BoundaryVector, boundary_grid, length_excess, scatter

from test_scattering import _seeded_bumps


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
    """The closed-form profile the metric evaluates, tabulated over its domain."""

    RADII = np.geomspace(1e-10, 1.0, 4096)

    def test_strictly_decreasing_and_real_root_bound(self, eaton):
        prof = eaton.profile
        n = np.array([prof.eval(r)[0] for r in self.RADII.tolist()])
        assert np.all(np.diff(n) < 0.0)
        assert np.all(n * self.RADII <= 1.0)
        # The closed form continues past the rim: n(1) = 1, n'(1) = -1, and
        # outside it still inverts r(n) = 2 / (sqrt(n) (n + 1)).
        n1, dn1 = prof.eval(1.0)
        assert abs(n1 - 1.0) <= math.ulp(1.0)
        assert abs(dn1 + 1.0) <= math.ulp(1.0)
        n_out, _ = prof.eval(1.5)
        assert 0.0 < n_out < n1
        assert 2.0 / (math.sqrt(n_out) * (n_out + 1.0)) == pytest.approx(1.5, rel=1e-15)
        with pytest.raises(SingularityError):
            prof.eval(0.99e-10)

    def test_closed_form_matches_root_solve(self, eaton):
        for r in self.RADII[::16]:
            n, _ = eaton.profile.eval(float(r))
            assert n == pytest.approx(eaton_index(float(r)), rel=1e-13, abs=0.0)
        # Just inside the rim the index equation's residual is too
        # ill-conditioned for the root solve; invert the cubic instead:
        # r(n) = 2 / (sqrt(n) (n + 1)).
        for r in (1.0 - 1e-7, 1.0 - 1e-12, 1.0 - 2.0 ** -53):
            n, _ = eaton.profile.eval(r)
            assert 2.0 / (math.sqrt(n) * (n + 1.0)) == pytest.approx(r, rel=1e-15)

    def test_derivative_matches_implicit_derivative(self, eaton):
        for r in self.RADII[:-1:16]:
            _, dn = eaton.profile.eval(float(r))
            assert dn == pytest.approx(_exact_dn_dr(eaton_index(float(r))), rel=1e-13)

    def test_metric_holds_the_profile_from_construction(self, eaton):
        with pytest.raises(AttributeError):
            eaton.profile = None
        assert eaton.profile is eaton_metric().profile
        assert eaton.profile.r_min == 1e-10


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
        rev = GeodesicPath(path.points[::-1], path.directions[::-1], path.lengths,
                           path.entry, path.exit)
        assert loop_winding(rev) == -loop_winding(path)

    def test_unreliable_lift_raises(self):
        # Two samples subtending most of a half turn: the polar-angle lift
        # cannot be trusted, so the winding is not verifiable.
        u = np.array([0.0, 2.8])
        pts = 0.5 * np.column_stack([np.cos(u), np.sin(u)])
        path = GeodesicPath(pts, np.zeros(2), np.linspace(0, 1, 2), None, None)
        with pytest.raises(NonIntegralWindingError):
            loop_winding(path)

    def test_path_through_origin_rejected(self):
        pts = np.array([[0.5, 0.0], [0.0, 0.0], [-0.5, 0.0]])
        path = GeodesicPath(pts, np.zeros(3), np.linspace(0, 1, 3), None, None)
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

    def test_pole_chords_are_excluded(self, eaton):
        rep = invisibility_check(boundary_grid(3, 3), 1e-4, metric=eaton)
        assert rep.excluded == 3
        assert len(rep.records) == 6
        assert rep.passed

    def test_every_entry_excluded_raises(self, eaton):
        with pytest.raises(ValueError,
                           match="every grid entry passes through the exclusion zone"):
            invisibility_check(boundary_grid(2, 1), metric=eaton)

    def test_vacuum_control_case(self, vacuum):
        rep = invisibility_check(boundary_grid(4, 4), 1e-4, metric=vacuum)
        assert rep.max_direction_dev < 1e-9
        assert rep.max_exit_dev < 1e-9
        assert all(w == 0 for w in rep.windings)


def polyline_invisibility(metric: ConformalMetric, entry, opts: IntegrationOptions):
    """Oracle: winding, direction and exit deviation read off a traced polyline."""
    path = integrate_geodesic(metric, entry, opts)
    R = metric.radius
    exit_phi = 2.0 * math.pi * entry.arc + 2.0 * entry.angle
    vacuum_exit = np.array([R * math.cos(exit_phi), R * math.sin(exit_phi)])
    direction_dev = abs(math.remainder(path.directions[-1] - path.directions[0],
                                       2.0 * math.pi))
    exit_dev = float(np.hypot(*(path.points[-1] - vacuum_exit)))
    return loop_winding(path), direction_dev, exit_dev


class TestInvisibilityAgainstPolylines:
    """Record-based windings and deviations against the polyline reading."""

    @pytest.mark.parametrize("metric,grid", [
        (eaton_metric(), boundary_grid(8, 8)),
        (ConformalMetric.vacuum(), boundary_grid(4, 4)),
        (eaton_metric(), boundary_grid(5, 3)),
        (_seeded_bumps(11), boundary_grid(4, 2)),
    ], ids=["eaton-8x8", "vacuum-4x4", "eaton-odd-5x3", "bumps-ode-4x2"])
    def test_matches_traced_paths(self, metric, grid):
        opts = IntegrationOptions()
        rep = invisibility_check(grid, 1e-4, metric=metric, opts=opts)
        kept = []
        for v in grid:
            try:
                chord_impact(metric, v)
            except SingularChordError:
                continue
            kept.append(v)
        assert rep.excluded == len(grid) - len(kept)
        assert len(rep.records) == len(kept)
        for v, rec in zip(kept, rep.records):
            winding, direction_dev, exit_dev = polyline_invisibility(metric, v, opts)
            assert (rec.arc, rec.angle) == (v.arc, v.angle)
            assert rec.winding == winding
            assert abs(rec.direction_dev - direction_dev) < opts.step_tol
            assert abs(rec.exit_dev - exit_dev) < opts.step_tol
        if metric.kind == "vacuum":
            assert rep.windings == [0] * len(grid)
        if metric.kind == "eaton":
            assert all(abs(w) == 1 for w in rep.windings)

    def test_lens_scatters_each_angle_once_by_quadrature(self, eaton, monkeypatch):
        calls = []
        traces = []

        def counting_scatter(metric, entry, opts=None):
            calls.append(entry)
            return scatter(metric, entry, opts)

        def counting_trace(*args, **kwargs):
            traces.append(args)
            return integrate_geodesic(*args, **kwargs)

        monkeypatch.setattr(scattering, "scatter", counting_scatter)
        monkeypatch.setattr(scattering, "integrate_geodesic", counting_trace)
        grid = boundary_grid(8, 8)
        rep = invisibility_check(grid, 1e-4, metric=eaton)
        assert rep.passed
        assert calls == grid[:8]
        assert traces == []


def winding_lens(k: int) -> ConformalMetric:
    """The invisible lens of winding ``k``: ``n = w^(2k)`` with ``w`` the root
    of ``w^(2k+1) + w^(2k-1) = 2/r``, and ``n'`` by implicit differentiation.
    Scattering-equivalent to the flat disk, its rays wind ``k`` times round
    the pole; ``k = 1`` is the lens (``s^3 + s = 2/r``)."""
    hi_pow, lo_pow = 2 * k + 1, 2 * k - 1

    # n and n' at one radius share one root solve.
    @functools.lru_cache(maxsize=1)
    def root(r):
        # w^hi_pow <= 2/r and w^lo_pow <= 2/r, and the larger term is >= 1/r.
        lo = min(r ** (-1.0 / hi_pow), r ** (-1.0 / lo_pow))
        hi = max((2.0 / r) ** (1.0 / hi_pow), (2.0 / r) ** (1.0 / lo_pow))
        return dop853.brentq(lambda w: w ** hi_pow + w ** lo_pow - 2.0 / r, lo, hi,
                             xtol=1e-300)

    def n(r):
        return root(r) ** (2 * k)

    def dn_dr(r):
        w = root(r)
        dw_dr = -2.0 / (r * r * (hi_pow * w ** (2 * k) + lo_pow * w ** (2 * k - 2)))
        return 2 * k * w ** lo_pow * dw_dr

    return ConformalMetric.from_radial(n, dn_dr, r_min=1e-10, name=f"lens-winding-{k}")


class TestWindingFamily:
    """Invisible lenses of winding 2 and 3: a hard-coded ``2 pi`` or a
    winding off by one cannot show on the lens alone."""

    def test_winding_one_is_the_lens(self, eaton):
        lens = winding_lens(1)
        for r in np.geomspace(1e-10, 1.5, 97).tolist():
            for got, want in zip(lens.profile.eval(r), eaton.profile.eval(r)):
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("k", [2, 3])
    def test_invisible_with_winding_k(self, vacuum, k):
        lens = winding_lens(k)
        grid = boundary_grid(8, 4)
        rep = invisibility_check(grid, 1e-4, metric=lens)
        assert rep.passed
        assert set(rep.windings) == {-k, k}
        excess = length_excess(vacuum, lens, grid=grid)
        assert abs(excess.mean_excess - 2.0 * math.pi * k) < 1e-9
        assert excess.max_abs_dev < 1e-9
