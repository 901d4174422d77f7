"""Conformal metrics on the disk and geodesic ray tracing.

The disk of radius ``R`` carries the metric ``g = n^2 * g0`` where ``g0`` is
the Euclidean background and ``n > 0`` is the refractive index (conformal
factor).  Geodesics are integrated in the state ``(x, y, theta, tau)`` with
``theta`` the Euclidean direction angle and ``tau`` the accumulated metric
length.

Parametrization convention (used consistently everywhere): the independent
variable is *Euclidean* arclength ``s``.  The classical eikonal ray equation
then reads

    dx/ds = cos(theta),  dy/ds = sin(theta),
    dtheta/ds = (n_y * cos(theta) - n_x * sin(theta)) / n,
    dtau/ds   = n.

Dividing the angular rate by ``n`` gives the rate per unit *metric*
arclength, which for a radial index and a tangential direction reduces to
``-(dn/dr)/n^2``.  Parametrizing by ``s`` rather than ``tau`` keeps the
system well scaled where ``n`` blows up.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator
from scipy.optimize import brentq

TWO_PI = 2.0 * math.pi


class SingularityError(ValueError):
    """Conformal factor evaluated at (or beyond) a pole."""


class SingularChordError(ValueError):
    """Entry chord passes through the exclusion zone around a pole."""


@dataclass(frozen=True)
class IntegrationOptions:
    """Tolerances for geodesic integration.

    ``step_tol`` is the end-to-end accuracy budget for exit data: exit
    position and direction are reliable to about this level, a
    forward-backward round trip reproduces the entry to within twice it,
    and halving it moves the exit by less than the coarser value.  The
    internal solver tolerances sit three decades below it because global
    error accumulates over long paths.  ``max_length`` is the metric length
    after which a geodesic is declared trapped (default 100 times the
    domain diameter).  ``exclusion_radius`` rejects entry chords passing
    closer than this to the origin of a singular metric.  Values that are
    not finite, or not positive (``exclusion_radius``: negative), raise
    ``ValueError``.
    """

    step_tol: float = 1e-7
    max_length: float | None = None
    exclusion_radius: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.step_tol) and self.step_tol > 0.0):
            raise ValueError(f"step_tol must be finite and positive, got {self.step_tol}")
        if self.max_length is not None and not (math.isfinite(self.max_length)
                                                and self.max_length > 0.0):
            raise ValueError(
                f"max_length must be finite and positive, got {self.max_length}")
        if not (math.isfinite(self.exclusion_radius) and self.exclusion_radius >= 0.0):
            raise ValueError(f"exclusion_radius must be finite and non-negative, "
                             f"got {self.exclusion_radius}")

    def length_cap(self, radius: float) -> float:
        """Metric length beyond which a geodesic counts as trapped."""
        return self.max_length if self.max_length is not None else 200.0 * radius


@dataclass
class GeodesicState:
    """Point, Euclidean direction angle, and metric length traversed."""

    x: float
    y: float
    theta: float
    tau: float = 0.0

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class StateDerivative:
    """Rates of change per unit Euclidean arclength."""

    dx: float
    dy: float
    dtheta: float
    dtau: float


class _TabulatedRadial:
    """Monotone-cubic radial profile with a fast scalar evaluation path.

    Interpolates either ``r -> n`` directly or ``log r -> log n`` when
    ``log_space`` is set (appropriate for profiles with a power-law pole at
    the origin).  ``slopes``, when given, are the known derivatives at the
    knots in the interpolated coordinates and make the interpolant a cubic
    Hermite spline; otherwise PCHIP estimates them.  Derivatives come from
    the same interpolant so that quantities conserved by the interpolated
    metric are conserved exactly.
    """

    def __init__(self, radii, values, *, log_space=False, slopes=None):
        radii = np.asarray(radii, dtype=float)
        values = np.asarray(values, dtype=float)
        if radii.ndim != 1 or radii.shape != values.shape or radii.size < 2:
            raise ValueError("profile needs matching 1-d radius/value tables")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("profile radii must be strictly increasing")
        if np.any(values <= 0):
            raise ValueError("conformal factor must be positive")
        self.log_space = bool(log_space)
        self.breakpoints = radii
        self.r_min = float(radii[0])
        self.r_max = float(radii[-1])
        if self.log_space:
            if self.r_min <= 0:
                raise ValueError("log-space profile needs positive radii")
            x, y = np.log(radii), np.log(values)
        else:
            x, y = radii, values
        if slopes is None:
            self._interp = PchipInterpolator(x, y)
        else:
            self._interp = CubicHermiteSpline(x, y, slopes)
        # Flatten breakpoints/coefficients into plain lists: scalar cubic
        # evaluation this way is ~10x faster than PPoly.__call__ and the
        # integrator calls it once per RHS evaluation.
        self._bx = [float(v) for v in self._interp.x]
        c = self._interp.c
        self._c0 = [float(v) for v in c[0]]
        self._c1 = [float(v) for v in c[1]]
        self._c2 = [float(v) for v in c[2]]
        self._c3 = [float(v) for v in c[3]]
        self._edge_value = (float(values[-1]), 0.0)

    def eval(self, r: float) -> tuple[float, float]:
        """Return ``(n, dn/dr)`` at radius ``r`` (scalar)."""
        if r >= self.r_max:
            # Constant continuation outside the table (n(R)=edge value).
            return self._edge_value
        if r < self.r_min:
            raise SingularityError(
                f"radius {r:.3e} below tabulated range ({self.r_min:.3e})"
            )
        if self.log_space:
            u = math.log(r)
        else:
            u = r
        i = bisect_right(self._bx, u) - 1
        if i < 0:
            i = 0
        elif i >= len(self._c0):
            i = len(self._c0) - 1
        du = u - self._bx[i]
        val = ((self._c0[i] * du + self._c1[i]) * du + self._c2[i]) * du + self._c3[i]
        der = (3.0 * self._c0[i] * du + 2.0 * self._c1[i]) * du + self._c2[i]
        if self.log_space:
            n = math.exp(val)
            return n, n * der / r
        return val, der

    def eval_many(self, r):
        r = np.asarray(r, dtype=float)
        n = np.empty_like(r)
        dn = np.empty_like(r)
        inside = r < self.r_max
        if np.any(r[inside] < self.r_min):
            raise SingularityError("radius below tabulated range")
        u = np.log(r[inside]) if self.log_space else r[inside]
        val = self._interp(u)
        der = self._interp(u, 1)
        if self.log_space:
            n[inside] = np.exp(val)
            dn[inside] = n[inside] * der / r[inside]
        else:
            n[inside] = val
            dn[inside] = der
        n[~inside] = self._edge_value[0]
        dn[~inside] = 0.0
        return n, dn


class _CallableRadial:
    """Radial profile given by analytic callables ``n(r)`` and ``dn/dr``."""

    breakpoints = np.empty(0)

    def __init__(self, n_of_r, dn_dr, *, r_min=0.0):
        self.n_of_r = n_of_r
        self.dn_dr = dn_dr
        self.r_min = r_min

    def eval(self, r: float) -> tuple[float, float]:
        if r < self.r_min:
            raise SingularityError(f"radius {r:.3e} below profile domain")
        return float(self.n_of_r(r)), float(self.dn_dr(r))

    def eval_many(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < self.r_min):
            raise SingularityError("radius below profile domain")
        try:
            return (np.asarray(self.n_of_r(r), dtype=float) * np.ones_like(r),
                    np.asarray(self.dn_dr(r), dtype=float) * np.ones_like(r))
        except (TypeError, ValueError):
            # Scalar-only callables (e.g. root solvers): evaluate pointwise.
            flat = r.ravel()
            n = np.array([self.n_of_r(float(v)) for v in flat]).reshape(r.shape)
            dn = np.array([self.dn_dr(float(v)) for v in flat]).reshape(r.shape)
            return n, dn


class ConformalMetric:
    """Positive conformal factor on the closed disk.

    ``kind`` is one of ``vacuum``, ``eaton``, ``radial-profile`` or
    ``general``.  Radial metrics carry a profile object with scalar/vector
    evaluation; general metrics carry ``n(x, y)`` and its gradient.
    Instances are immutable after construction and all evaluation methods
    are pure, so a metric may be shared freely across threads.
    """

    def __init__(self, kind, *, radius=1.0, singular_at_origin=False,
                 profile=None, field=None, name=None):
        if kind not in ("vacuum", "eaton", "radial-profile", "general"):
            raise ValueError(f"unknown metric kind {kind!r}")
        radius = float(radius)
        if not (math.isfinite(radius) and radius > 0.0):
            raise ValueError(f"metric radius must be positive and finite, got {radius}")
        self.kind = kind
        self.radius = radius
        self.singular_at_origin = bool(singular_at_origin)
        self.name = name or kind
        self._profile = profile
        self._field = field
        if kind == "vacuum":
            self._profile = _CallableRadial(lambda r: 1.0, lambda r: 0.0)
        if self._profile is None and self._field is None:
            raise ValueError("metric needs a radial profile or a general field")
        self._n_floor = self._estimate_floor()

    # -- constructors -----------------------------------------------------

    @classmethod
    def vacuum(cls, radius=1.0) -> "ConformalMetric":
        return cls("vacuum", radius=radius, name="vacuum")

    @classmethod
    def from_radial(cls, n_of_r, dn_dr, *, radius=1.0, kind="radial-profile",
                    singular_at_origin=False, r_min=0.0, name=None):
        prof = _CallableRadial(n_of_r, dn_dr, r_min=r_min)
        return cls(kind, radius=radius, singular_at_origin=singular_at_origin,
                   profile=prof, name=name)

    @classmethod
    def from_profile_knots(cls, knots, *, radius=1.0, name=None):
        """Radial metric interpolating ``[(r, n), ...]`` knots monotone-cubically."""
        knots = sorted((float(r), float(n)) for r, n in knots)
        radii = [k[0] for k in knots]
        values = [k[1] for k in knots]
        if radii[0] > 0.0:
            raise ValueError("profile knots must start at r = 0")
        if radii[-1] < radius:
            raise ValueError("profile knots must cover the domain radius")
        prof = _TabulatedRadial(radii, values)
        return cls("radial-profile", radius=radius, profile=prof, name=name)

    @classmethod
    def general(cls, n_xy, grad_n_xy, *, radius=1.0, name=None):
        return cls("general", radius=radius, field=(n_xy, grad_n_xy), name=name)

    # -- evaluation --------------------------------------------------------

    @property
    def is_radial(self) -> bool:
        return self._profile is not None

    @property
    def profile(self):
        """Radial profile object (``eval``, ``eval_many``, ``r_min``,
        ``breakpoints``); ``None`` for general metrics."""
        return self._profile

    @property
    def n_floor(self) -> float:
        """Lower bound estimate for n over the domain (used for span caps)."""
        return self._n_floor

    def _estimate_floor(self) -> float:
        if self.is_radial:
            lo = getattr(self._profile, "r_min", 0.0)
            rs = np.linspace(max(lo, 1e-6), self.radius, 256)
            n, _ = self._profile.eval_many(rs)
            return max(float(np.min(n)), 1e-6)
        n_xy = self._field[0]
        ts = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        vals = [n_xy(r * math.cos(t), r * math.sin(t))
                for r in np.linspace(0.01, self.radius, 16) for t in ts]
        return max(float(min(vals)), 1e-6)

    def n_at(self, x: float, y: float) -> float:
        if self.is_radial:
            return self._profile.eval(math.hypot(x, y))[0]
        return float(self._field[0](x, y))

    def grad_n_at(self, x: float, y: float) -> tuple[float, float]:
        if self.is_radial:
            r = math.hypot(x, y)
            if r < 1e-300:
                return (0.0, 0.0)
            _, dn = self._profile.eval(r)
            return (dn * x / r, dn * y / r)
        gx, gy = self._field[1](x, y)
        return (float(gx), float(gy))

    def n_many(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if self.is_radial:
            r = np.hypot(pts[..., 0], pts[..., 1])
            return self._profile.eval_many(r)[0]
        return np.array([self._field[0](p[0], p[1]) for p in pts.reshape(-1, 2)]).reshape(pts.shape[:-1])

    def radial_eval(self, r: float) -> tuple[float, float]:
        """``(n, dn/dr)`` for radial metrics."""
        if not self.is_radial:
            raise ValueError("metric is not radial")
        return self._profile.eval(r)

    def _make_rhs(self):
        if self.is_radial:
            ev = self._profile.eval

            def rhs(s, y):
                x, yy, th = y[0], y[1], y[2]
                r = math.hypot(x, yy)
                n, dn = ev(r)
                c = math.cos(th)
                sn = math.sin(th)
                if r > 0.0 and dn != 0.0:
                    g = dn / r
                    dth = (g * yy * c - g * x * sn) / n
                else:
                    dth = 0.0
                return (c, sn, dth, n)

            return rhs

        n_xy, grad = self._field

        def rhs(s, y):
            x, yy, th = y[0], y[1], y[2]
            n = float(n_xy(x, yy))
            gx, gy = grad(x, yy)
            c = math.cos(th)
            sn = math.sin(th)
            return (c, sn, (gy * c - gx * sn) / n, n)

        return rhs


def geodesic_rhs(metric: ConformalMetric, state: GeodesicState) -> StateDerivative:
    """Geodesic equation right-hand side, per unit Euclidean arclength.

    See the module docstring for the parametrization convention.  Raises
    :class:`SingularityError` at the pole of a singular metric.
    """
    r = math.hypot(state.x, state.y)
    if r > metric.radius * (1.0 + 1e-9):
        raise ValueError("state outside the domain")
    if metric.singular_at_origin and r < 1e-12:
        raise SingularityError("cannot evaluate the geodesic field at the pole")
    dx, dy, dth, dtau = metric._make_rhs()(0.0, (state.x, state.y, state.theta, state.tau))
    return StateDerivative(dx, dy, dth, dtau)


def clairaut(metric: ConformalMetric, state: GeodesicState) -> float:
    """Conserved quantity ``n(r) * r * sin(psi)`` of radial metrics.

    ``psi`` is the angle from the outward radial ray to the direction of
    motion; the sign follows the plane orientation.  Used as an integration
    watchdog: it must be constant along any geodesic of a radial metric.
    """
    if not metric.is_radial:
        raise ValueError("Clairaut invariant requires a radial metric")
    r = math.hypot(state.x, state.y)
    n, _ = metric.radial_eval(r)
    return n * (state.x * math.sin(state.theta) - state.y * math.cos(state.theta))


@dataclass
class GeodesicPath:
    """Arclength-sampled geodesic with entry/exit data.

    ``euclid_s`` are the Euclidean arclength sample parameters; ``lengths``
    the metric length at each sample (strictly increasing); ``directions``
    a continuous lift of the direction angle.  ``exit`` is ``None`` for
    trapped geodesics.  Samples are dense enough that consecutive direction
    angles and polar angles differ by well under pi/2, so angle unwrapping
    downstream is safe.
    """

    euclid_s: np.ndarray
    points: np.ndarray
    directions: np.ndarray
    lengths: np.ndarray
    entry: object
    exit: object | None
    trapped: bool

    @property
    def length(self) -> float:
        return float(self.lengths[-1]) if not self.trapped else math.inf

    def states(self):
        for i in range(len(self.euclid_s)):
            yield GeodesicState(self.points[i, 0], self.points[i, 1],
                                self.directions[i], self.lengths[i])

    def clairaut_range(self, metric: ConformalMetric) -> tuple[float, float]:
        vals = [clairaut(metric, st) for st in self.states()]
        return (min(vals), max(vals))


def _entry_xytheta(entry, radius: float) -> tuple[float, float, float]:
    phi = TWO_PI * (entry.arc % 1.0)
    chi = entry.angle
    px, py = radius * math.cos(phi), radius * math.sin(phi)
    tx, ty = -math.sin(phi), math.cos(phi)
    nx, ny = -math.cos(phi), -math.sin(phi)
    dx = math.cos(chi) * tx + math.sin(chi) * nx
    dy = math.cos(chi) * ty + math.sin(chi) * ny
    return px, py, math.atan2(dy, dx), phi


def chord_impact(metric: ConformalMetric, entry, opts: IntegrationOptions) -> float:
    """Distance ``R |cos(angle)|`` from the origin to the straight entry chord.

    Validates the entry first: raises ``ValueError`` unless the angle lies
    strictly inside ``(0, pi)``, and :class:`SingularChordError` when the
    chord of a singular metric passes within ``opts.exclusion_radius`` of
    the origin.
    """
    chi = float(entry.angle)
    if not (0.0 < chi < math.pi):
        raise ValueError("entry vector must point strictly inward")
    impact = metric.radius * abs(math.cos(chi))
    if metric.singular_at_origin and impact < opts.exclusion_radius:
        raise SingularChordError(
            f"entry chord passes within {impact:.2e} of the singular origin"
        )
    return impact


_SCAN_POINTS = 400
_SCAN_FLOOR = 1e-12   # deepest turning radius searched, relative to R
_LINEAR_ZONE = 1e-8   # (r - r*) / r* below which n^2 r^2 - p^2 is linearized


def _turning_radius(profile, radius: float, p: float) -> float | None:
    """Outermost root of ``n(r) r = p`` below ``radius``, or ``None``.

    The sign of ``n r - p`` is scanned inward over a log grid merged with
    the profile's breakpoints, and the outermost sign change is closed by
    ``brentq``.
    """
    floor = max(profile.r_min, _SCAN_FLOOR * radius)
    knots = profile.breakpoints
    rs = np.union1d(np.geomspace(floor, radius, _SCAN_POINTS),
                    knots[(knots > floor) & (knots < radius)])
    f = profile.eval_many(rs)[0] * rs - p
    inside = np.flatnonzero(f <= 0.0)
    if inside.size == 0 or inside[-1] == rs.size - 1:
        return None
    i = inside[-1]
    if f[i] == 0.0:
        return float(rs[i])
    lo, hi = float(rs[i]), float(rs[i + 1])
    return brentq(lambda r: profile.eval(r)[0] * r - p, lo, hi, xtol=1e-16 * lo)


def clairaut_orbit(metric: ConformalMetric, impact: float,
                   opts: IntegrationOptions) -> tuple[float, float] | None:
    """Polar sweep and metric length of a radial-metric geodesic by quadrature.

    ``impact`` is the entry chord's distance from the origin, so Clairaut's
    integral is ``p = n(R) * impact``.  From the turning radius ``r*`` (the
    outermost root of ``n r = p``) the geodesic is symmetric, and

        sweep = 2 int p dr / (r sqrt(n^2 r^2 - p^2)),
        tau   = 2 int n^2 r dr / sqrt(n^2 r^2 - p^2),

    both over ``[r*, R]``.  The substitution ``r = r* exp(u^2)`` removes the
    inverse square root at ``r*`` and the scale range of near-pole turning
    points; next to ``r*`` the radicand is replaced by its linearization
    ``2 p (n r)'(r*) (r - r*)``, which cannot round to zero.  Returns
    ``None`` when the quadrature does not apply, so the caller falls back to
    :func:`integrate_geodesic`: a non-radial metric, no turning point above
    the profile's domain, a turning point that is not simple (orbiting or
    trapped rays), or a quadrature that did not converge.
    """
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
    out = []
    for integrand in (sweep, length):
        # With full_output, quad appends a message when it did not converge.
        res = quad(integrand, 0.0, top, epsabs=tol, epsrel=tol, full_output=1)
        if len(res) > 3 or not math.isfinite(res[0]):
            return None
        out.append(4.0 * res[0])
    return out[0], out[1]


def _refine_samples(dense, ts, max_step=0.45, rounds=10):
    """Subdivide sample times until direction and polar angles step slowly."""
    ts = np.asarray(ts, dtype=float)
    for _ in range(rounds):
        ys = dense(ts)
        theta = ys[2]
        polar = np.unwrap(np.arctan2(ys[1], ys[0]))
        bad = (np.abs(np.diff(theta)) > max_step) | (np.abs(np.diff(polar)) > max_step)
        if not np.any(bad):
            return ts, ys
        mids = 0.5 * (ts[:-1][bad] + ts[1:][bad])
        ts = np.sort(np.concatenate([ts, mids]))
    return ts, dense(ts)


def integrate_geodesic(metric: ConformalMetric, entry, opts: IntegrationOptions | None = None) -> GeodesicPath:
    """Trace the geodesic of an inward boundary vector until it exits.

    ``entry`` is any object with ``arc`` (fraction of perimeter) and
    ``angle`` (radians from the oriented boundary tangent) attributes; the
    angle must lie strictly inside ``(0, pi)``.  The boundary exit event is
    localized by bracketed root finding on the signed radial excess of the
    dense solution, well below ``opts.step_tol``.  Returns a trapped path
    (``exit is None``) once the metric length exceeds ``opts.max_length``.
    """
    opts = opts or IntegrationOptions()
    R = metric.radius
    chord_impact(metric, entry, opts)
    max_len = opts.length_cap(R)
    x0, y0, theta0, _ = _entry_xytheta(entry, R)
    rhs = metric._make_rhs()

    def boundary_exit(s, y):
        return y[0] * y[0] + y[1] * y[1] - R * R

    boundary_exit.terminal = True
    boundary_exit.direction = 1.0

    def length_cap(s, y):
        return y[3] - max_len

    length_cap.terminal = True
    length_cap.direction = 1.0

    span = 1.05 * max_len / metric.n_floor + 4.0 * R
    sol = solve_ivp(rhs, (0.0, span), (x0, y0, theta0, 0.0), method="DOP853",
                    rtol=1e-3 * opts.step_tol, atol=1e-4 * opts.step_tol,
                    events=(boundary_exit, length_cap), dense_output=True)
    if not sol.success:
        raise RuntimeError(f"geodesic integration failed: {sol.message}")

    exited = sol.status == 1 and len(sol.t_events[0]) > 0
    ts, ys = _refine_samples(sol.sol, sol.t)
    points = np.column_stack([ys[0], ys[1]])
    lengths = ys[3]
    # Guard against tiny non-monotonicity from dense-output refinement.
    lengths = np.maximum.accumulate(lengths)

    if not exited:
        return GeodesicPath(ts, points, ys[2], lengths, entry, None, True)

    # Snap the terminal sample onto the boundary circle for clean arc data.
    xe, ye, the, taue = sol.y[0, -1], sol.y[1, -1], sol.y[2, -1], sol.y[3, -1]
    scale = R / math.hypot(xe, ye)
    points[-1] = (xe * scale, ye * scale)
    from .scattering import boundary_vector_at  # local import avoids a cycle

    exit_vec = boundary_vector_at(points[-1, 0], points[-1, 1], the, radius=R)
    return GeodesicPath(ts, points, ys[2], lengths, entry, exit_vec, False)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(5)


def riemannian_length(metric: ConformalMetric, points) -> float:
    """Metric length of a polyline via per-segment Gauss-Legendre quadrature.

    Converges at the quadrature order under refinement of the polyline.
    Raises :class:`SingularityError` if a segment passes through the
    exclusion zone of a singular metric.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
        raise ValueError("polyline must be an (m, 2) array with m >= 2")
    a = pts[:-1]
    d = pts[1:] - a
    seg_len = np.hypot(d[:, 0], d[:, 1])
    # Quadrature nodes along every segment, evaluated in one vector call.
    u = 0.5 * (_GL_NODES + 1.0)
    nodes = a[:, None, :] + u[None, :, None] * d[:, None, :]
    if metric.singular_at_origin:
        r = np.hypot(nodes[..., 0], nodes[..., 1])
        if np.min(r) < 1e-3:
            raise SingularityError("polyline passes through the singular origin")
    n_vals = metric.n_many(nodes.reshape(-1, 2)).reshape(nodes.shape[:2])
    return float(np.sum(seg_len * 0.5 * (n_vals @ _GL_WEIGHTS)))


def metric_from_spec(spec: dict) -> ConformalMetric:
    """Build a metric from its JSON description.

    Schema: ``{"kind": "vacuum"|"eaton"|"radial-profile", "radius": number,
    "profile": [[r, n], ...]}`` where ``profile`` is required for
    ``radial-profile`` and interpolated by a monotone cubic.
    """
    kind = spec.get("kind")
    radius = float(spec.get("radius", 1.0))
    if kind == "vacuum":
        return ConformalMetric.vacuum(radius=radius)
    if kind == "eaton":
        from .eaton import eaton_metric

        return eaton_metric(radius=radius)
    if kind == "radial-profile":
        knots = spec.get("profile")
        if not knots:
            raise ValueError("radial-profile metric needs profile knots")
        return ConformalMetric.from_profile_knots(knots, radius=radius)
    raise ValueError(f"unknown metric kind {kind!r}")


def load_metric(source) -> ConformalMetric:
    """Load a metric from a JSON file path or a builtin name."""
    text = str(source)
    if text in ("vacuum", "eaton"):
        return metric_from_spec({"kind": text})
    path = Path(text)
    with path.open() as fh:
        return metric_from_spec(json.load(fh))
