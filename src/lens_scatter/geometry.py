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
system well scaled where ``n`` blows up.  No rate reads ``s`` or ``tau``,
a quadrature of ``n``, so the right-hand side takes ``(x, y, theta)``.

The system is integrated by :mod:`lens_scatter.dop853`, the DOP853 method
with scipy's step control.  Samples are the solver's step ends, subdivided
on its 7th-order interpolant where direction or polar angle turns fast,
and the exit is the root of ``x^2 + y^2 - R^2`` on the last step's
interpolant.  A radial profile is one formula across the rim, so the
right-hand side does not jump where a ray enters or leaves.  On a tabulated
profile steps end just past each knot circle they cross and just past the
rim (:func:`_knot_cut`).  Radial metrics get exit data without tracing,
from Clairaut quadrature (:func:`clairaut_orbit`), split at the knots.
Both run on Python floats and evaluate the index one point at a time, so
their bits do not depend on the CPU's BLAS kernel or numpy's SIMD level.

Its kernels are small ports checked against scipy in the tests: roots
come from :func:`lens_scatter.dop853.brentq`, tabulated profiles from
:func:`_pchip_coefficients`, and the orbit integrals from the adaptive
Gauss-Kronrod rule :func:`_adaptive_gk15`.  Each table they read (the
DOP853 tableau, the G7K15 rule, a profile's knots and cubics, and its scan
table) is held once, as Python floats.  So are the sampled paths and
polylines: the module imports no numpy.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path

from . import dop853
from .dop853 import brentq

TWO_PI = 2.0 * math.pi


class SingularityError(ValueError):
    """Conformal factor evaluated at (or beyond) a pole."""


class SingularChordError(ValueError):
    """Entry chord passes through the exclusion zone around a pole."""


class NonIntegralWindingError(RuntimeError):
    """Polar-angle sweep of a traced path is not close to a whole turn count."""


# Entry chords and polylines of a singular metric must keep this distance
# from its pole; interior ray perigees dip far below it.
EXCLUSION_RADIUS = 1e-3

# The solver's rtol is 1e-3 step_tol.  Near machine epsilon the rounding
# of each state update is as large as the error being controlled, so the
# step size shrinks without buying accuracy; 100 eps keeps two decades of
# headroom above it.
_RTOL_SCALE = 1e-3
_RTOL_FLOOR = 100.0 * dop853.EPS


@dataclass(frozen=True)
class BoundaryVector:
    """Unit vector at a boundary point: (perimeter fraction, tangent angle).

    ``angle`` is the unsigned angle in ``[0, pi]`` from the oriented
    boundary tangent; see :mod:`lens_scatter.scattering` for the convention.
    """

    arc: float
    angle: float

    def __post_init__(self):
        if not math.isfinite(self.arc):
            raise ValueError(f"boundary arc must be finite, got {self.arc}")
        # A tiny negative arc rounds to 1.0 mod 1; it is the point at 0.
        arc = self.arc % 1.0
        object.__setattr__(self, "arc", 0.0 if arc == 1.0 else arc)
        if not (0.0 <= self.angle <= math.pi):
            raise ValueError("tangent angle must lie in [0, pi]")

    def reversed(self) -> "BoundaryVector":
        return BoundaryVector(self.arc, math.pi - self.angle)


def boundary_vector_at(x: float, y: float, theta: float) -> BoundaryVector:
    """Boundary vector for a direction angle ``theta`` at boundary point ``(x, y)``."""
    phi = math.atan2(y, x)
    tx, ty = -math.sin(phi), math.cos(phi)
    dot = math.cos(theta) * tx + math.sin(theta) * ty
    chi = math.acos(max(-1.0, min(1.0, dot)))
    return BoundaryVector(phi / TWO_PI, chi)


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
    domain diameter).  Values that are not finite or not positive raise
    ``ValueError``, and so does a ``step_tol`` whose solver tolerance
    would fall below the solver's floor (about ``2.2e-11``).
    """

    step_tol: float = 1e-7
    max_length: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.step_tol) and self.step_tol > 0.0):
            raise ValueError(f"step_tol must be finite and positive, got {self.step_tol}")
        if _RTOL_SCALE * self.step_tol < _RTOL_FLOOR:
            raise ValueError(f"step_tol must be at least {_RTOL_FLOOR / _RTOL_SCALE:.2e} "
                             f"(solver tolerance floor), got {self.step_tol}")
        if self.max_length is not None and not (math.isfinite(self.max_length)
                                                and self.max_length > 0.0):
            raise ValueError(
                f"max_length must be finite and positive, got {self.max_length}")

    def length_cap(self, radius: float) -> float:
        """Metric length beyond which a geodesic counts as trapped."""
        return self.max_length if self.max_length is not None else 200.0 * radius


def _sign(v: float):
    """``np.sign`` of a float: -1, 0 or 1, and NaN for NaN."""
    return v if math.isnan(v) else (v > 0.0) - (v < 0.0)


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end knot, kept monotone (Moler's
    ``pchiptx``); ``h0``, ``m0`` belong to the end interval."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x, y) -> tuple:
    """The cubic coefficients of the monotone PCHIP through the floats
    ``(x, y)``: four lists over the ``len(x) - 1`` intervals, highest power
    first in ``x - x[i]``.

    Fritsch-Carlson slopes with Moler's end rule, as scipy's
    ``PchipInterpolator`` computes them (its ``.c``, bit for bit): an
    interior slope is 0 where the neighbouring secants differ in sign or
    one vanishes, else their weighted harmonic mean.  Where that mean's
    reciprocal is zero (two infinite secants) the slope is the infinity
    numpy's division gives.
    """
    h = [b - a for a, b in zip(x, x[1:])]
    m = [(b - a) / hk for a, b, hk in zip(y, y[1:], h)]
    if len(x) == 2:
        d = [m[0], m[0]]
    else:
        d = [_pchip_end_slope(h[0], h[1], m[0], m[1])]
        for hl, hr, ml, mr in zip(h, h[1:], m, m[1:]):
            if _sign(ml) == _sign(mr) and ml != 0.0 and mr != 0.0:
                w1, w2 = 2.0 * hr + hl, hr + 2.0 * hl
                mean = (w1 / ml + w2 / mr) / (w1 + w2)
                d.append(1.0 / mean if mean != 0.0 else math.copysign(math.inf, mean))
            else:
                d.append(0.0)
        d.append(_pchip_end_slope(h[-1], h[-2], m[-1], m[-2]))
    # Cubic Hermite on each interval, in power form.
    c0, c1 = [], []
    for hk, mk, dl, dr in zip(h, m, d, d[1:]):
        t = (dl + dr - 2.0 * mk) / hk
        c0.append(t / hk)
        c1.append((mk - dl) / hk - t)
    return c0, c1, d[:-1], y[:-1]


class _TabulatedRadial:
    """Monotone-cubic (PCHIP) radial profile: one cubic per knot interval.

    Inside ``r_max`` derivatives come from the same cubics, so quantities
    conserved by the interpolated metric are conserved exactly.  Past
    ``r_max`` it holds ``n`` at its rim value, which keeps it positive, and
    returns the last cubic's rim slope as ``n'`` on purpose, so ``n'`` does
    not jump at the rim.  That ``n'`` is not the derivative of the held
    ``n``; it is harmless only because :func:`_knot_cut` ends exit steps
    ``1e-8 R`` past the rim, so no more than the stages of that overshoot
    see it.  Profiles with equal knots compare and hash equal, so they
    share one scan table (:func:`_scan_table`).
    """

    def __init__(self, radii, values):
        radii = tuple(map(float, radii))
        values = tuple(map(float, values))
        if len(radii) != len(values) or len(radii) < 2:
            raise ValueError("profile needs matching 1-d radius/value tables")
        if any(b - a <= 0.0 for a, b in zip(radii, radii[1:])):
            raise ValueError("profile radii must be strictly increasing")
        if any(v <= 0.0 for v in values):
            raise ValueError("conformal factor must be positive")
        c = _pchip_coefficients(radii, values)
        if not all(math.isfinite(v) for row in c for v in row):
            raise ValueError("profile knots too close or too large: non-finite interpolant")
        self.breakpoints = radii
        self.r_min = radii[0]
        self.r_max = radii[-1]
        self._c0, self._c1, self._c2, self._c3 = c
        h = radii[-1] - radii[-2]
        self._rim = (values[-1],
                     (3.0 * self._c0[-1] * h + 2.0 * self._c1[-1]) * h + self._c2[-1])
        self._knots = (radii, values)
        self._hash = hash(self._knots)

    def __eq__(self, other):
        if not isinstance(other, _TabulatedRadial):
            return NotImplemented
        return self._knots == other._knots

    def __hash__(self):
        return self._hash

    def eval(self, r: float) -> tuple[float, float]:
        """Return ``(n, dn/dr)`` at radius ``r``."""
        if r >= self.r_max:
            return self._rim
        if r < self.r_min:
            raise SingularityError(
                f"radius {r:.3e} below tabulated range ({self.r_min:.3e})"
            )
        i = bisect_right(self.breakpoints, r) - 1
        du = r - self.breakpoints[i]
        val = ((self._c0[i] * du + self._c1[i]) * du + self._c2[i]) * du + self._c3[i]
        der = (3.0 * self._c0[i] * du + 2.0 * self._c1[i]) * du + self._c2[i]
        return val, der


class _CallableRadial:
    """Radial profile given by analytic callables ``n(r)`` and ``dn/dr``."""

    breakpoints = ()

    def __init__(self, n_of_r, dn_dr, *, r_min=0.0):
        self.n_of_r = n_of_r
        self.dn_dr = dn_dr
        self.r_min = r_min

    def eval(self, r: float) -> tuple[float, float]:
        if r < self.r_min:
            raise SingularityError(f"radius {r:.3e} below profile domain")
        return float(self.n_of_r(r)), float(self.dn_dr(r))


# One shared profile, so that equal vacuum metrics compare equal.
_VACUUM_PROFILE = _CallableRadial(lambda r: 1.0, lambda r: 0.0)


class EatonProfile:
    """Closed-form lens index; the metric's profile object.

    ``n = s^2`` with Cardano's root ``s = u - 1/(3u)`` of ``s^3 + s = 2/r``,
    ``u = cbrt(1/r + sqrt(1/r^2 + 1/27))``, and ``dn/dr = 1/r'(n)`` with
    ``r(n) = 2 / (sqrt(n) (n + 1))``.  The same formula holds past the rim:
    the cubic has one positive root for every ``r > 0``, and ``n(1) = 1``,
    ``n'(1) = -1``, so the right-hand side has no jump where a ray enters
    or leaves, and the stages of an exit step past the rim see the smooth
    continuation.  Entry chords keep ``EXCLUSION_RADIUS`` from the origin,
    but interior ray perigees dip far below that (roughly the cube of the
    chord offset), so evaluation is refused only below ``r_min``.  The
    cube root is libm's power: ``np.cbrt`` would follow numpy's SIMD level.
    """

    r_min = 1e-10
    breakpoints = ()

    def eval(self, r: float) -> tuple[float, float]:
        """Return ``(n, dn/dr)`` at radius ``r``."""
        if r < self.r_min:
            raise SingularityError(
                f"radius {r:.3e} below the lens index floor ({self.r_min:.3e})")
        a = 1.0 / r
        # The cube root as a power: math.cbrt needs Python 3.11.
        u = (a + math.sqrt(a * a + 1.0 / 27.0)) ** (1.0 / 3.0)
        s = u - 1.0 / (3.0 * u)
        n = s * s
        return n, -s * n * (n + 1.0) ** 2 / (3.0 * n + 1.0)


_EATON_PROFILE = EatonProfile()


def eaton_metric() -> ConformalMetric:
    """Lens metric on the unit disk, evaluated by the closed-form index.

    Its exit directions match those of the flat disk, its lengths do not;
    the pole at the origin keeps it from being simple, so lens rigidity of
    simple metrics (Pestov-Uhlmann 2005) does not apply to it.
    """
    return ConformalMetric("eaton", profile=_EATON_PROFILE, name="eaton")

# Radii whose exit data stay within step_tol of the unit disk's, scaled, at
# every step_tol: the solver's atol and other floors are absolute lengths.
_MIN_RADIUS = 1e-6
_MAX_RADIUS = 1e6


def _checked_radius(radius) -> float:
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"metric radius must be positive and finite, got {radius}")
    if not _MIN_RADIUS <= radius <= _MAX_RADIUS:
        raise ValueError(f"metric radius must lie in [{_MIN_RADIUS:g}, {_MAX_RADIUS:g}], "
                         f"got {radius}")
    return radius


@dataclass(frozen=True)
class ConformalMetric:
    """Positive conformal factor on the closed disk.

    ``kind`` is one of ``vacuum``, ``eaton``, ``radial-profile`` or
    ``general``.  Radial metrics carry a ``profile`` object: ``eval(r)``
    returns ``(n, dn/dr)`` at the float ``r``, ``r_min`` is the least radius
    it accepts, and ``breakpoints`` is the tuple of knot radii where its
    cubics join (empty for a closed form).  Radial metrics compare by
    value.  General metrics carry ``field``, the pair ``n(x, y)`` and its
    gradient.  Instances are frozen and all evaluation methods are pure,
    so a metric may be shared freely across threads.  ``radius`` must lie
    in ``[1e-6, 1e6]``.
    """

    kind: str
    radius: float = 1.0
    profile: object = None
    field: tuple | None = None
    name: str | None = None

    def __post_init__(self):
        if self.kind not in ("vacuum", "eaton", "radial-profile", "general"):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        object.__setattr__(self, "radius", _checked_radius(self.radius))
        object.__setattr__(self, "name", self.name or self.kind)
        if self.profile is None and self.field is None:
            raise ValueError("metric needs a radial profile or a general field")

    # -- constructors -----------------------------------------------------

    @classmethod
    def vacuum(cls, radius=1.0) -> "ConformalMetric":
        return cls("vacuum", radius=radius, profile=_VACUUM_PROFILE, name="vacuum")

    @classmethod
    def from_radial(cls, n_of_r, dn_dr, *, radius=1.0, r_min=0.0, name=None):
        """Radial metric from ``n(r)`` and ``dn/dr``, both called on floats;
        a positive ``r_min`` puts a pole at the origin."""
        prof = _CallableRadial(n_of_r, dn_dr, r_min=r_min)
        return cls("radial-profile", radius=radius, profile=prof, name=name)

    @classmethod
    def from_profile_knots(cls, knots, *, radius=1.0, name=None):
        """Radial metric interpolating ``[(r, n), ...]`` knots monotone-cubically."""
        knots = sorted((float(r), float(n)) for r, n in knots)
        if not knots:
            raise ValueError("radial-profile metric needs profile knots")
        radius = _checked_radius(radius)  # before the interpolant divides by knot gaps
        radii = [k[0] for k in knots]
        values = [k[1] for k in knots]
        if radii[0] != 0.0:
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
        return self.profile is not None

    @property
    def singular_at_origin(self) -> bool:
        """True when the profile refuses radii below a positive ``r_min``."""
        return self.is_radial and self.profile.r_min > 0.0

    def n_many(self, points) -> list:
        """The index at each ``(x, y)`` of ``points``, as a list."""
        if self.is_radial:
            ev = self.profile.eval
            return [ev(math.hypot(x, y))[0] for x, y in points]
        n_xy = self.field[0]
        return [n_xy(x, y) for x, y in points]

    def _make_rhs(self):
        """The integrator's right-hand side ``f(x, y, theta)``: the rates
        ``(dx, dy, dtheta, dtau)`` per unit Euclidean arclength (see the
        module docstring)."""
        if self.is_radial:
            ev = self.profile.eval

            def rhs(x, y, theta):
                # grad n = n'(r) (x, y) / r, zero at the origin.
                r = math.hypot(x, y)
                n, dn = ev(r)
                c = math.cos(theta)
                sn = math.sin(theta)
                if r > 0.0 and dn != 0.0:
                    g = dn / r
                    return (c, sn, (g * y * c - g * x * sn) / n, n)
                return (c, sn, (0.0 * c - 0.0 * sn) / n, n)
        else:
            n_xy, grad = self.field

            def rhs(x, y, theta):
                n = float(n_xy(x, y))
                gx, gy = grad(x, y)
                c = math.cos(theta)
                sn = math.sin(theta)
                return (c, sn, (gy * c - gx * sn) / n, n)

        return rhs


@dataclass(frozen=True)
class TraceStats:
    """How one :func:`integrate_geodesic` call ended and what it cost.

    ``termination`` is ``"exited"`` or ``"length_cap"``.  ``rhs_calls``
    counts right-hand side evaluations (see ``DenseSolution.nfev``: a
    rejected step costs one fewer than an accepted one), ``steps`` and
    ``rejected`` the accepted and rejected solver steps; a step cut short
    at a knot circle of a tabulated profile counts as rejected.
    ``refine_rounds`` counts the rounds that subdivided the samples;
    ``refine_exhausted`` is set when all of them ran, so the last round's
    samples went unchecked.
    """

    termination: str
    rhs_calls: int
    steps: int
    rejected: int
    refine_rounds: int
    refine_exhausted: bool


@dataclass
class GeodesicPath:
    """Arclength-sampled geodesic with entry/exit data.

    ``points`` is a list of ``(x, y)`` tuples, ``lengths`` a float list of
    the metric length at each sample (non-decreasing) and ``directions`` a
    float list, a continuous lift of the direction angle.  ``exit`` is
    ``None`` for trapped geodesics.  Samples are dense enough that
    consecutive direction angles and polar angles differ by well under
    pi/2, so the wrapped polar steps of :func:`polar_sweep` are the lift's
    steps.  ``stats`` is filled by :func:`integrate_geodesic`.
    """

    points: list
    directions: list
    lengths: list
    entry: object
    exit: object | None
    stats: TraceStats | None = None

    @property
    def trapped(self) -> bool:
        return self.exit is None

    @property
    def length(self) -> float:
        return self.lengths[-1] if not self.trapped else math.inf

    def rotated(self, entry) -> "GeodesicPath":
        """This path turned about the origin to start at ``entry``.

        A radial metric's geodesics at one entry angle are rotations of
        each other, so for ``entry.angle == self.entry.angle`` this is the
        path of ``entry``: points and directions turn by ``2 pi`` times the
        arc difference, and the exit arc advances by that difference.  The
        result was not traced, so its ``stats`` are ``None``.
        """
        turn = entry.arc - self.entry.arc
        a = TWO_PI * turn
        c, s = math.cos(a), math.sin(a)
        points = [(x * c - y * s, x * s + y * c) for x, y in self.points]
        exit_vec = (None if self.trapped
                    else BoundaryVector(self.exit.arc + turn, self.exit.angle))
        return GeodesicPath(points, [d + a for d in self.directions], self.lengths,
                            entry, exit_vec)

    def clairaut_range(self, metric: ConformalMetric) -> tuple[float, float]:
        """Least and greatest Clairaut integral ``n(r) r sin(psi)`` over the
        samples, ``psi`` the angle from the outward radial ray to the motion.

        It is constant along any geodesic of a radial metric, so the spread
        watches the integration; a non-radial metric raises ``ValueError``.
        """
        if not metric.is_radial:
            raise ValueError("Clairaut invariant requires a radial metric")
        vals = [n * (x * math.sin(th) - y * math.cos(th)) for n, (x, y), th
                in zip(metric.n_many(self.points), self.points, self.directions)]
        return min(vals), max(vals)


def _wrapped_steps(angles) -> list:
    """Steps between consecutive ``angles``, each wrapped into ``[-pi, pi]``
    by ``remainder(b - a, 2 pi)``: the continuous lift's steps when the
    true ones are below a half turn."""
    return [math.remainder(b - a, TWO_PI) for a, b in zip(angles, angles[1:])]


def polar_sweep(points) -> float:
    """Signed polar-angle sweep from the first to the last of ``points``.

    The wrapped steps between the ``atan2`` polar angles of consecutive
    ``(x, y)`` samples are added left to right (the builtin ``sum`` is
    compensated from Python 3.12).  Raises ``ValueError`` for a sample at
    the origin and :class:`NonIntegralWindingError` when a step exceeds a
    quarter turn, where the lift cannot be trusted.
    """
    if any(x == 0.0 and y == 0.0 for x, y in points):
        raise ValueError("path passes through the origin")
    sweep = 0.0
    for d in _wrapped_steps([math.atan2(y, x) for x, y in points]):
        if abs(d) > 0.5 * math.pi:
            raise NonIntegralWindingError(
                "samples too sparse around the origin for a reliable angle lift")
        sweep += d
    return sweep


def _entry_xytheta(entry, radius: float) -> tuple[float, float, float]:
    phi = TWO_PI * (entry.arc % 1.0)
    chi = entry.angle
    px, py = radius * math.cos(phi), radius * math.sin(phi)
    tx, ty = -math.sin(phi), math.cos(phi)
    nx, ny = -math.cos(phi), -math.sin(phi)
    dx = math.cos(chi) * tx + math.sin(chi) * nx
    dy = math.cos(chi) * ty + math.sin(chi) * ny
    return px, py, math.atan2(dy, dx)


def chord_impact(metric: ConformalMetric, entry) -> float:
    """Distance ``R |cos(angle)|`` from the origin to the straight entry chord.

    Validates the entry first: raises ``ValueError`` unless the angle lies
    in ``[1e-7, pi - 1e-7]`` (nearer tangent, exit data go quietly wrong),
    and :class:`SingularChordError` when the chord of a singular metric
    passes within ``EXCLUSION_RADIUS`` of the origin.
    """
    chi = float(entry.angle)
    if not (0.0 < chi < math.pi):
        raise ValueError("entry vector must point strictly inward")
    if not 1e-7 <= chi <= math.pi - 1e-7:
        raise ValueError(f"entry angle {chi!r} lies within 1e-7 of tangent to the boundary")
    impact = metric.radius * abs(math.cos(chi))
    if metric.singular_at_origin and impact < EXCLUSION_RADIUS:
        raise SingularChordError(
            f"entry chord passes within {impact:.2e} of the singular origin"
        )
    return impact


_SCAN_POINTS = 400
_SCAN_FLOOR = 1e-12   # deepest turning radius searched, relative to R
# (r - r*) / r* below which clairaut_orbit takes n r - p from Simpson's
# rule on (n r)' rather than from a difference that cancels.  Relative to
# n r - p, the rule's error grows like (r - r*)^4 and the difference's
# rounding like eps / (r - r*), both over (n r)' at r*; they balance near
# 2e-3.  On the lens the rule's error shows in tau from 1e-2.
_SIMPSON_ZONE = 2e-3


@functools.lru_cache(maxsize=8)
def _scan_table(profile, radius: float) -> tuple[tuple, tuple]:
    """The scan radii of ``profile`` below ``radius`` and ``n r`` on them.

    The radii are ``_SCAN_POINTS`` from ``floor = max(r_min, _SCAN_FLOOR R)``
    to ``radius``, evenly spaced in ``log10`` as ``np.linspace`` spaces
    them (``k step + lo``) with the ends exactly ``floor`` and ``radius``,
    merged with the knots strictly between, each radius once.  The powers
    are libm's.  Profiles are immutable and tabulated ones equal by their
    knots, so every orbit of equal metrics reads the table built for the
    first one.
    """
    floor = max(profile.r_min, _SCAN_FLOOR * radius)
    lo = math.log10(floor)
    step = (math.log10(radius) - lo) / (_SCAN_POINTS - 1)
    grid = [10.0 ** (k * step + lo) for k in range(1, _SCAN_POINTS - 1)]
    rs = tuple(sorted({floor, *grid, radius,
                       *(b for b in profile.breakpoints if floor < b < radius)}))
    return rs, tuple(profile.eval(r)[0] * r for r in rs)


def _turning_radius(profile, radius: float, p: float) -> float | None:
    """Outermost root of ``n(r) r = p`` below ``radius``, or ``None``.

    The sign of ``n r - p`` is scanned inward from the rim over the scan
    table, and the outermost sign change is closed by ``brentq``.
    """
    rs, nr = _scan_table(profile, radius)
    i = len(rs) - 1
    while i >= 0 and not nr[i] <= p:
        i -= 1
    if not 0 <= i < len(rs) - 1:
        return None
    if nr[i] == p:
        return rs[i]
    lo, hi = rs[i], rs[i + 1]
    return brentq(lambda r: profile.eval(r)[0] * r - p, lo, hi, xtol=1e-16 * lo)


# Gauss-Kronrod G7K15 on [-1, 1] from QUADPACK's qk15 literals: the
# Kronrod nodes in (0, 1] and 0 (``xgk``), their weights (``wgk``) and the
# 7-point Gauss weights (``wg``) of the nodes ``xgk[1]``, ``xgk[3]``,
# ``xgk[5]`` and 0.  ``_GK_X`` and ``_GK_W`` are the 15 nodes in increasing
# order and their weights, ``_G7_W`` the Gauss weights of the odd ones,
# ``_GK_X[1::2]``.  Kronrod is exact to degree 22, Gauss to 13.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
_GK_X = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]
_GK_W = _WGK[:-1] + _WGK[::-1]
_G7_W = _WG + _WG[-2::-1]


def _gk15(integrand, lo: float, hi: float):
    """G7K15 estimates of every integrand over the panel ``[lo, hi]``.

    ``integrand(u)`` returns the values of ``m`` integrands at the node
    ``u``; it is called at the 15 nodes in ``_GK_X`` order.  Returns the
    lists of the ``m`` integrals and of their errors, scaled as QUADPACK's
    ``qk15`` scales them.  Every node sum adds term after term in node
    order, so its bits do not depend on the CPU.
    """
    half = 0.5 * (hi - lo)
    centre = lo + half
    values, errors = [], []
    for f in zip(*[integrand(centre + half * x) for x in _GK_X]):
        kronrod = gauss = asc = 0.0
        for fj, w in zip(f, _GK_W):
            kronrod += fj * w
        for fj, w in zip(f[1::2], _G7_W):
            gauss += fj * w
        m = 0.5 * kronrod
        for fj, w in zip(f, _GK_W):
            asc += abs(fj - m) * w
        asc *= half
        err = abs((kronrod - gauss) * half)
        values.append(kronrod * half)
        errors.append(asc * min(1.0, (200.0 * err / asc) ** 1.5)
                      if asc != 0.0 and err != 0.0 else err)
    return values, errors


def _adaptive_gk15(integrand, edges, tol: float, limit: int):
    """Integrals of every integrand over ``[edges[0], edges[-1]]``.

    Global adaptive G7K15 from the panels between ``edges``: the panel with
    the largest error relative to its integrand's target is halved until
    every integrand's summed error is within ``max(tol, tol |integral|)``.
    Returns ``None`` when that would take more than ``limit`` panels, a
    panel can no longer be halved, or a value is not finite.
    """
    edges = [float(e) for e in edges]
    panels = [_gk15(integrand, a, b) for a, b in zip(edges, edges[1:])]
    while True:
        totals = [math.fsum(col) for col in zip(*(v for v, _ in panels))]
        if not all(math.isfinite(t) for t in totals):
            return None
        targets = [max(tol, tol * abs(t)) for t in totals]
        # Summed left to right, as the panels lie.
        summed = [0.0] * len(totals)
        for _, errs in panels:
            summed = [s + e for s, e in zip(summed, errs)]
        if all(s <= target for s, target in zip(summed, targets)):
            return totals
        worst = [max(e / target for e, target in zip(errs, targets)) for _, errs in panels]
        i = worst.index(max(worst))
        lo, hi = edges[i], edges[i + 1]
        mid = 0.5 * (lo + hi)
        if len(panels) >= limit or not lo < mid < hi:
            return None
        edges.insert(i + 1, mid)
        panels[i:i + 1] = [_gk15(integrand, lo, mid), _gk15(integrand, mid, hi)]


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
    points.  Next to ``r*`` the factor ``n r - p`` of the radicand comes from
    Simpson's rule on ``(n r)' = n + r n'`` over ``[r*, r]``, which cannot
    round to zero; across a knot the rule runs piecewise.  Both integrals
    come from one adaptive Gauss-Kronrod pass (:func:`_adaptive_gk15`),
    split at the knots, that evaluates the profile node by node with its
    scalar ``eval``.  The turning radius is bracketed on the profile's scan
    table (:func:`_scan_table`), built once.  Returns ``None`` when
    the quadrature does not apply, so the caller falls back to
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

    # (n r)' kinks at the knots, where Simpson's rule loses its order, so
    # the rule runs piecewise between the knots in its zone.  The list takes
    # knots up to twice the zone; each node keeps those below its own radius.
    zone_knots = [(b, *profile.eval(b)) for b in profile.breakpoints
                  if r_star < b < r_star * (1.0 + 2.0 * _SIMPSON_ZONE)]

    def integrand(u):
        # At r = r* exp(u^2), dr = 2 u r du: the sweep's p w and the
        # length's (n r)^2 w, with w = u / sqrt(n^2 r^2 - p^2).
        e = math.expm1(u * u)
        dr = r_star * e
        r = r_star + dr
        n, dn = profile.eval(r)
        nr = n * r
        if e >= _SIMPSON_ZONE:
            excess = nr - p
        else:
            # Segment ends as offsets from r*: each knot below r, then r.
            excess, a, slope_a = 0.0, 0.0, slope
            ends = [(k - r_star, k, n_k, dn_k) for k, n_k, dn_k in zone_knots if k < r]
            for b, r_b, n_b, dn_b in [*ends, (dr, r, n, dn)]:
                mid = r_star + 0.5 * (a + b)
                n_mid, dn_mid = profile.eval(mid)
                slope_b = n_b + r_b * dn_b
                excess += (b - a) / 6.0 * (slope_a + 4.0 * (n_mid + mid * dn_mid) + slope_b)
                a, slope_a = b, slope_b
        g = excess * (nr + p)
        w = u / math.sqrt(g) if g > 0.0 else math.nan
        return p * w, nr * nr * w

    # Quadrature error does not build up along the path as the ODE's global
    # error does, so two decades below step_tol suffice (the ODE uses three).
    tol = 1e-2 * opts.step_tol
    top = math.sqrt(math.log(R / r_star))
    # n'' jumps at the knots, which the error estimate does not see unless
    # the panels end there.
    breaks = [math.sqrt(math.log(b / r_star)) for b in profile.breakpoints if b > r_star]
    edges = [0.0, *sorted(u for u in breaks if u < top), top]
    res = _adaptive_gk15(integrand, edges, tol, 50 + len(breaks))
    if res is None:
        return None
    return 4.0 * res[0], 4.0 * res[1]


_REFINE_ROUNDS = 10
# Largest direction or polar step, in radians, that refinement leaves.
_REFINE_STEP = 0.45

# How far past a knot circle a cut step may run.  Across a kink a step's
# error grows with the square of the length straddled, so 1e-8 R leaves it
# far below the solver's atol.
_KNOT_OVERSHOOT = 1e-8


def _knot_cut(metric: ConformalMetric):
    """The solver's step cutter for a tabulated profile, else ``None``.

    A tabulated profile is one cubic per knot interval and keeps its rim
    value and slope outside, so the right-hand side kinks on every interior
    knot circle and on the rim.  A step across one fits its stages to a
    right-hand side that is not smooth, and when the ray only grazes the
    circle between two stages the error estimate misses the kink: such a
    step put an exit 1e-5 off at ``step_tol`` 1e-7.  The cutter ends steps
    just past the first circle they cross, so an exit step ends just past
    the rim.  Along the step ``q = x^2 + y^2`` is taken as the cubic
    Hermite of its end values and slopes, which is exact for a straight
    step and finds the circles a step dips across and back out of.  The end
    slopes of ``(x, y)`` are ``(cos theta, sin theta)``, which is what the
    right-hand side gives for them.
    """
    if not metric.is_radial:
        return None
    R = metric.radius
    knots = sorted(b ** 2 for b in metric.profile.breakpoints if 0.0 < b <= R)
    if not knots:
        return None
    over = _KNOT_OVERSHOOT * R

    def cut(h, y, y_new):
        q0 = y[0] * y[0] + y[1] * y[1]
        m0 = 2.0 * h * (y[0] * math.cos(y[2]) + y[1] * math.sin(y[2]))
        m1 = 2.0 * h * (y_new[0] * math.cos(y_new[2]) + y_new[1] * math.sin(y_new[2]))
        d = y_new[0] * y_new[0] + y_new[1] * y_new[1] - q0
        c2 = 3.0 * d - 2.0 * m0 - m1
        c3 = m0 + m1 - 2.0 * d

        def q(u):
            return q0 + u * (m0 + u * (c2 + u * c3))

        # q is monotone between the turns of the cubic, q' = 0.
        a, b = 3.0 * c3, 2.0 * c2
        if a == 0.0:
            turns = [-m0 / b] if b != 0.0 else []
        else:
            disc = b * b - 4.0 * a * m0
            turns = [] if disc < 0.0 else [(-b - math.sqrt(disc)) / (2.0 * a),
                                           (-b + math.sqrt(disc)) / (2.0 * a)]
        ends = [0.0] + sorted(u for u in turns if 0.0 < u < 1.0) + [1.0]
        for ua, ub in zip(ends, ends[1:]):
            qa, qb = q(ua), q(ub)
            lo, hi = min(qa, qb), max(qa, qb)
            crossed = knots[bisect_right(knots, lo):bisect_left(knots, hi)]
            for k in (crossed if qb > qa else reversed(crossed)):
                s = h * brentq(lambda u: q(u) - k, ua, ub, xtol=1e-15)
                if s > over:
                    return s + over if s < h - 2.0 * over else None
        return None

    return cut


def _refine_samples(sol):
    """States at the solver's sample times, subdivided until direction and
    polar angles step slowly.

    Returns the states as four float lists (``x``, ``y``, direction angle,
    length) and the number of subdivision rounds; only the new midpoints
    are interpolated, and each is placed after the sample it follows.
    """
    ts = list(sol.ts)
    cols = [list(col) for col in zip(*sol.ys)]
    for k in range(_REFINE_ROUNDS):
        polar_steps = _wrapped_steps(list(map(math.atan2, cols[1], cols[0])))
        bad = [i for i in range(len(ts) - 1)
               if abs(cols[2][i + 1] - cols[2][i]) > _REFINE_STEP
               or abs(polar_steps[i]) > _REFINE_STEP]
        if not bad:
            return cols, k
        mids = [0.5 * (ts[i] + ts[i + 1]) for i in bad]
        for col, new in zip((ts, *cols), (mids, *sol(mids))):
            for i, v in zip(reversed(bad), reversed(new)):
                col.insert(i + 1, v)
    return cols, _REFINE_ROUNDS


def integrate_geodesic(metric: ConformalMetric, entry, opts: IntegrationOptions | None = None) -> GeodesicPath:
    """Trace the geodesic of an inward boundary vector until it exits.

    ``entry`` is any object with ``arc`` (fraction of perimeter) and
    ``angle`` (radians from the oriented boundary tangent) attributes; the
    angle must lie in ``[1e-7, pi - 1e-7]``.  The boundary exit event is
    localized by bracketed root finding on the signed radial excess of the
    dense solution, well below ``opts.step_tol``.  Returns a trapped path
    (``exit is None``) once the metric length exceeds ``opts.max_length``.
    The solver is :mod:`lens_scatter.dop853`; the path's ``stats`` record
    its counters.
    """
    opts = opts or IntegrationOptions()
    R = metric.radius
    chord_impact(metric, entry)
    max_len = opts.length_cap(R)
    x0, y0, theta0 = _entry_xytheta(entry, R)

    def boundary_exit(s, y):
        # The entry point rounds onto or just outside the circle; count it
        # as inside, or a near-grazing chord spanned by the first step
        # would exit at its own entry or never.
        if s == 0.0:
            return -R * R
        return y[0] * y[0] + y[1] * y[1] - R * R

    def length_cap(s, y):
        return y[3] - max_len

    # Metric length grows at rate n > 0, so the length cap always ends the
    # run.
    sol = dop853.solve(metric._make_rhs(), (x0, y0, theta0, 0.0),
                       rtol=_RTOL_SCALE * opts.step_tol, atol=1e-4 * opts.step_tol,
                       events=(boundary_exit, length_cap), cut=_knot_cut(metric))
    exited = sol.event == 0
    (xs, ys, directions, taus), rounds = _refine_samples(sol)
    points = list(zip(xs, ys))
    # Guard against tiny non-monotonicity from dense-output refinement.
    lengths = list(itertools.accumulate(taus, max))
    stats = TraceStats("exited" if exited else "length_cap", sol.nfev, sol.steps,
                       sol.rejected, rounds, rounds == _REFINE_ROUNDS)

    if not exited:
        return GeodesicPath(points, directions, lengths, entry, None, stats)

    # Snap the terminal sample onto the boundary circle for clean arc data.
    xe, ye, the, _ = sol.ys[-1]
    scale = R / math.hypot(xe, ye)
    points[-1] = (xe * scale, ye * scale)
    exit_vec = boundary_vector_at(*points[-1], the)
    return GeodesicPath(points, directions, lengths, entry, exit_vec, stats)


def riemannian_length(metric: ConformalMetric, points) -> float:
    """Metric length of a polyline by the 7-point Gauss rule of the G7K15
    table on every segment.

    ``points`` are the polyline's ``(x, y)`` vertices, at least two.  Each
    segment's terms are added in node order and the segments' lengths left
    to right, as they lie, so the bits do not depend on the CPU.  Converges
    at the quadrature order under refinement of the polyline.  Raises
    :class:`SingularityError` if a segment passes through the exclusion
    zone of a singular metric.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError("polyline needs at least 2 points")
    u = [0.5 * (x + 1.0) for x in _GK_X[1::2]]
    segments = [(ax, ay, bx - ax, by - ay) for (ax, ay), (bx, by) in zip(pts, pts[1:])]
    nodes = [(ax + t * dx, ay + t * dy) for ax, ay, dx, dy in segments for t in u]
    if metric.singular_at_origin and min(itertools.starmap(math.hypot, nodes)) < EXCLUSION_RADIUS:
        raise SingularityError("polyline passes through the singular origin")
    n_vals = metric.n_many(nodes)
    total = 0.0
    for k, (_, _, dx, dy) in enumerate(segments):
        gauss = 0.0
        for n, w in zip(n_vals[7 * k:7 * k + 7], _G7_W):
            gauss = gauss + n * w
        total += math.hypot(dx, dy) * 0.5 * gauss
    return total


def _spec_number(value, what: str) -> float:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"{what} must be a finite number, got {json.dumps(value)}")
    return float(value)


def metric_from_spec(spec) -> ConformalMetric:
    """Build a metric from its JSON description.

    Schema: ``{"kind": "vacuum"|"eaton"|"radial-profile", "radius": number,
    "profile": [[r, n], ...]}`` where ``profile`` is required for
    ``radial-profile`` and interpolated by a monotone cubic.  Any other
    shape raises ``ValueError``.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"metric spec must be a JSON object, got {json.dumps(spec)}")
    kind = spec.get("kind")
    radius = _spec_number(spec.get("radius", 1.0), "metric radius")
    if kind == "vacuum":
        return ConformalMetric.vacuum(radius=radius)
    if kind == "eaton":
        if radius != 1.0:
            raise ValueError("the lens profile is normalized to a unit disk")
        return eaton_metric()
    if kind == "radial-profile":
        knots = spec.get("profile") or []
        if not (isinstance(knots, list)
                and all(isinstance(k, list) and len(k) == 2 for k in knots)):
            raise ValueError(f"profile knots must be [r, n] pairs, got {json.dumps(knots)}")
        knots = [(_spec_number(r, "profile radius"), _spec_number(n, "profile index"))
                 for r, n in knots]
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
