"""Shared fixtures and independent test oracles."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import lens_scatter
from lens_scatter.eaton import eaton_metric
from lens_scatter.geometry import (_RTOL_SCALE, ConformalMetric, GeodesicPath,
                                   IntegrationOptions, _entry_xytheta,
                                   _turning_radius, boundary_vector_at,
                                   chord_impact)
from lens_scatter.knot import _FramedLoop, random_corpus
from lens_scatter.scattering import boundary_grid


@pytest.fixture(scope="session")
def eaton():
    return eaton_metric()


@pytest.fixture(scope="session")
def vacuum():
    return ConformalMetric.vacuum()


@pytest.fixture(scope="session")
def grid64():
    return boundary_grid(8, 8)


@pytest.fixture(scope="session")
def corpus():
    return random_corpus(20, seed=42)


def run_python(code: str, cwd) -> str:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    package; returns its standard output."""
    src = str(Path(lens_scatter.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


# --- test vehicles ----------------------------------------------------------


class CallableFramedLoop(_FramedLoop):
    """Framed loop from explicit callables (base, velocity, frame lift), for
    frames other than a curve's own tangent.

    ``chi_fn`` must be a continuous real lift over ``[0, 1]``; its increment
    over the period is the fiber class of the loop times pi.
    """

    def __init__(self, point_fn, velocity_fn, chi_fn, *, samples: int = 512):
        self._point = point_fn
        self._velocity = velocity_fn
        self._chi = chi_fn
        self.samples = samples
        self.period_shift = float(chi_fn(1.0) - chi_fn(0.0))

    def sample_points(self) -> np.ndarray:
        ts = np.linspace(0.0, 1.0, self.samples, endpoint=False)
        return np.array([self._point(t) for t in ts.tolist()])

    def base_point(self, l: float) -> np.ndarray:
        return np.asarray(self._point(l % 1.0), dtype=float)

    def base_velocity(self, l: float) -> np.ndarray:
        return np.asarray(self._velocity(l % 1.0), dtype=float)

    def frame_angle(self, l: float) -> float:
        return float(self._chi(l % 1.0))


# --- independent oracles ----------------------------------------------------


def brute_force_crossing_count(points: np.ndarray) -> int:
    """O(m^2) pairwise polyline segment intersections, grouped by location.

    Independent of the production detector (no candidate pruning, no Newton
    polish): every pair of non-adjacent segments is tested, 256 rows of
    the pair matrix at a time to bound memory.  Counts isolated double
    points only; a k-fold point would count once.
    """
    block = 256
    pts = np.asarray(points, dtype=float)
    m = len(pts)
    d = np.roll(pts, -1, axis=0) - pts
    j = np.arange(m)
    hits = []
    for start in range(0, m, block):
        i = np.arange(start, min(start + block, m))[:, None]
        d1, d2 = d[i], d[None, :]
        w = pts[None, :] - pts[i]
        denom = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (w[..., 0] * d2[..., 1] - w[..., 1] * d2[..., 0]) / denom
            u = (w[..., 0] * d1[..., 1] - w[..., 1] * d1[..., 0]) / denom
        hit = ((j >= i + 2) & ~((i == 0) & (j == m - 1)) & (np.abs(denom) >= 1e-15)
               & (0.0 <= t) & (t < 1.0) & (0.0 <= u) & (u < 1.0))
        rows, cols = np.nonzero(hit)  # row-major: (i, j) in lexicographic order
        first = i[rows, 0]
        hits.extend(pts[first] + t[rows, cols, None] * d[first])
    groups: list[np.ndarray] = []
    for h in hits:
        if not any(np.hypot(*(h - g)) < 1e-3 for g in groups):
            groups.append(h)
    return len(groups)


def pl_crossing_oracle(points) -> list[tuple[float, float]]:
    """Strictly interior crossings ``(l, l')`` of the closed polygon through
    ``points``, sorted, from every pair of non-adjacent edges.

    Independent of the production detector's bounding-box pruning: all
    ``n (n - 3) / 2`` edge pairs are tested.
    """
    p = np.asarray(points, dtype=float)
    n = len(p)
    d = np.roll(p, -1, axis=0) - p
    i, j = np.triu_indices(n, 2)
    keep = ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]
    denom = d[i, 0] * d[j, 1] - d[i, 1] * d[j, 0]
    w = p[j] - p[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (w[:, 0] * d[j, 1] - w[:, 1] * d[j, 0]) / denom
        u = (w[:, 0] * d[i, 1] - w[:, 1] * d[i, 0]) / denom
    lo, hi = 1e-9, 1.0 - 1e-9
    hit = (lo <= t) & (t <= hi) & (lo <= u) & (u <= hi)
    return sorted(zip(((i + t) / n)[hit].tolist(), ((j + u) / n)[hit].tolist()))


def embedding_separation_oracle(samples, window: float) -> float:
    """Minimum ``d0`` over the full ``m x m`` matrix of sample pairs whose
    circular parameter distance exceeds ``window``, both orders of each
    pair included; ``d_v`` reduces the angle difference mod pi first."""
    pts = list(samples)
    m = len(pts)
    idx = np.arange(m)
    pdist = np.abs(idx[:, None] - idx[None, :]) / m
    mask = np.minimum(pdist, 1.0 - pdist) > window
    if not np.any(mask):
        raise ValueError("window excludes every sample pair")
    base = np.array([[p.x, p.y] for p in pts])
    ang = np.array([p.line_angle for p in pts])
    d0 = np.hypot(base[:, None, 0] - base[None, :, 0], base[:, None, 1] - base[None, :, 1])
    da = np.abs(ang[:, None] - ang[None, :]) % math.pi
    np.maximum(d0, np.minimum(da, math.pi - da), out=d0)
    return float(np.min(d0[mask]))


def christoffel_turn_rate(metric, x: float, y: float, theta: float,
                          h: float = 1e-6) -> float:
    """Angular rate per unit metric arclength from finite-difference
    Christoffel symbols of g = n^2 * (dx^2 + dy^2)."""

    def phi(px, py):
        return math.log(metric.n_many([(px, py)])[0])

    px = (phi(x + h, y) - phi(x - h, y)) / (2 * h)
    py = (phi(x, y + h) - phi(x, y - h)) / (2 * h)
    n = float(metric.n_many([(x, y)])[0])
    # Unit metric speed: Euclidean speed 1/n.
    xd = math.cos(theta) / n
    yd = math.sin(theta) / n
    xdd = -(px * xd * xd + 2 * py * xd * yd - px * yd * yd)
    ydd = -(-py * xd * xd + 2 * px * xd * yd + py * yd * yd)
    return (xd * ydd - yd * xdd) / (xd * xd + yd * yd)


def _solve_ivp_refine(dense, ts, max_step=0.45, rounds=10):
    """Dense states at sample times subdivided until direction and polar angles step slowly."""
    ts = np.asarray(ts, dtype=float)
    for _ in range(rounds):
        ys = dense(ts)
        theta = ys[2]
        polar = np.unwrap(np.arctan2(ys[1], ys[0]))
        bad = (np.abs(np.diff(theta)) > max_step) | (np.abs(np.diff(polar)) > max_step)
        if not np.any(bad):
            return ys
        mids = 0.5 * (ts[:-1][bad] + ts[1:][bad])
        ts = np.sort(np.concatenate([ts, mids]))
    return dense(ts)


def solve_ivp_trace(metric: ConformalMetric, entry,
                    opts: IntegrationOptions | None = None) -> GeodesicPath:
    """``integrate_geodesic`` as it was written on scipy's ``solve_ivp``
    (DOP853, dense output, terminal events): the oracle for the in-repo
    port of that integrator."""
    opts = opts or IntegrationOptions()
    R = metric.radius
    chord_impact(metric, entry)
    max_len = opts.length_cap(R)
    x0, y0, theta0 = _entry_xytheta(entry, R)
    rhs = metric._make_rhs()

    def boundary_exit(s, y):
        # The entry point rounds onto or just outside the circle; count it
        # as inside, or a near-grazing chord spanned by the first step
        # would exit at its own entry or never.
        if s == 0.0:
            return -R * R
        return y[0] * y[0] + y[1] * y[1] - R * R

    boundary_exit.terminal = True
    boundary_exit.direction = 1.0

    def length_cap(s, y):
        return y[3] - max_len

    length_cap.terminal = True
    length_cap.direction = 1.0

    # Metric length grows at rate n > 0, so the length cap always ends an
    # unbounded span.
    sol = solve_ivp(rhs, (0.0, math.inf), (x0, y0, theta0, 0.0), method="DOP853",
                    rtol=_RTOL_SCALE * opts.step_tol, atol=1e-4 * opts.step_tol,
                    events=(boundary_exit, length_cap), dense_output=True)
    if not sol.success:
        raise RuntimeError(f"geodesic integration failed: {sol.message}")

    exited = sol.status == 1 and len(sol.t_events[0]) > 0
    ys = _solve_ivp_refine(sol.sol, sol.t)
    points = np.column_stack([ys[0], ys[1]])
    lengths = ys[3]
    # Guard against tiny non-monotonicity from dense-output refinement.
    lengths = np.maximum.accumulate(lengths)

    if not exited:
        return GeodesicPath(points, ys[2], lengths, entry, None)

    # Snap the terminal sample onto the boundary circle for clean arc data.
    xe, ye, the, taue = sol.y[0, -1], sol.y[1, -1], sol.y[2, -1], sol.y[3, -1]
    scale = R / math.hypot(xe, ye)
    points[-1] = (xe * scale, ye * scale)
    exit_vec = boundary_vector_at(points[-1, 0], points[-1, 1], the)
    return GeodesicPath(points, ys[2], lengths, entry, exit_vec)


_LINEAR_ZONE = 1e-8   # (r - r*) / r* below which n^2 r^2 - p^2 is linearized


def quad_clairaut_orbit(metric: ConformalMetric, impact: float,
                        opts: IntegrationOptions) -> tuple[float, float] | None:
    """``clairaut_orbit`` as it was written on scipy's ``quad`` (QUADPACK's
    21-point Gauss-Kronrod with extrapolation, one call per integrand, the
    radicand linearized next to ``r*``): the oracle for the in-repo G7K15
    quadrature."""
    profile = metric.profile
    if profile is None:
        return None
    R = metric.radius
    p = profile.eval(R)[0] * impact
    r_star = _turning_radius(profile, R, p)
    if r_star is None:
        return None
    n_star, dn_star = profile.eval(r_star)
    slope = n_star + r_star * dn_star
    if not slope > 0.0:
        return None
    linear = 2.0 * p * slope * r_star
    ev = profile.eval

    def weight(u):
        # n r and u / sqrt(n^2 r^2 - p^2) at r = r* exp(u^2); dr = 2 u r du.
        e = math.expm1(u * u)
        r = r_star + r_star * e
        nr = ev(r)[0] * r
        if e < _LINEAR_ZONE:
            g = linear * e
        else:
            g = (nr - p) * (nr + p)
        return nr, (u / math.sqrt(g) if g > 0.0 else math.nan)

    def sweep(u):
        return p * weight(u)[1]

    def length(u):
        nr, w = weight(u)
        return nr * nr * w

    # Quadrature error does not build up along the path as the ODE's global
    # error does, so two decades below step_tol suffice (the ODE uses three).
    tol = 1e-2 * opts.step_tol
    top = math.sqrt(math.log(R / r_star))
    # n'' jumps at the knots, which quad's error estimate does not see
    # unless its panels end there.  quad drops the ones outside (0, top),
    # and refuses more of them than its subinterval limit.
    breaks = [math.sqrt(math.log(b / r_star)) for b in profile.breakpoints if b > r_star]
    out = []
    for integrand in (sweep, length):
        # With full_output, quad appends a message when it did not converge.
        res = quad(integrand, 0.0, top, epsabs=tol, epsrel=tol, full_output=1,
                   points=breaks or None, limit=50 + len(breaks))
        if len(res) > 3 or not math.isfinite(res[0]):
            return None
        out.append(4.0 * res[0])
    return out[0], out[1]
