"""Lifts of plane curves to the unit-tangent and line bundles over the disk.

A point of the projectivized bundle is a base point plus a tangent *line*,
stored as a continuous real-valued lift whose representative in ``[0, pi)``
is derived (never the reverse: this is what prevents mod-pi branch bugs).
All bundle-side distances use the flat background structure regardless of
any optical metric being traced: the base is Euclidean, parallel transport
is trivial, and the product (Sasakian) metric on base x fiber makes a
"linear" curve literally a straight segment in ``(x, y, lift)`` coordinates.

Distances between bundle points: ``d_h`` is the base distance, ``d_v`` the
angle between the lines after (trivial) transport, in ``[0, pi/2]``, and
``d0 = max(d_h, d_v)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import ImmersionError, ParametricCurve

TWO_PI = 2.0 * math.pi

# Injectivity radius of the flat unit disk: straight segments between any
# two points are unique, so the diameter bounds it.
FLAT_INJECTIVITY_RADIUS = 2.0


class TransportUndefinedError(ValueError):
    """Base points too far apart for a unique connecting segment."""


class AmbiguousFiberArcError(ValueError):
    """The two lines are perpendicular: no unique shorter rotation."""


class NonIntegralClassError(RuntimeError):
    """A closed rotation is not close to a whole number of turns."""


def _whole_number(count: float, tol: float, what: str) -> int:
    """``count`` rounded to the nearest integer; raises
    :class:`NonIntegralClassError` when it lies more than ``tol`` away."""
    k = round(count)
    if abs(count - k) > tol:
        raise NonIntegralClassError(f"{what} {count:.6f} is not integral")
    return int(k)


def _circ_dist(a: float, b: float, period: float) -> float:
    """Distance between ``a`` and ``b`` on a circle of circumference ``period``."""
    d = abs(a - b) % period
    return min(d, period - d)


class ProjPoint(NamedTuple):
    """Point of the projectivized bundle: base point and line-angle lift."""

    x: float
    y: float
    lift: float

    @property
    def line_angle(self) -> float:
        return self.lift % math.pi

    @property
    def base(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class DistComponents:
    d_h: float
    d_v: float
    d0: float


def dist_components(p: ProjPoint, q: ProjPoint) -> DistComponents:
    """Horizontal, vertical, and max distance between bundle points."""
    d_h = math.hypot(q.x - p.x, q.y - p.y)
    if d_h >= FLAT_INJECTIVITY_RADIUS:
        raise TransportUndefinedError(f"base distance {d_h:.3f} reaches the "
                                      f"injectivity radius {FLAT_INJECTIVITY_RADIUS}")
    d_v = _circ_dist(p.line_angle, q.line_angle, math.pi)
    return DistComponents(d_h, d_v, max(d_h, d_v))


def fiber_step(p: ProjPoint, q: ProjPoint) -> float:
    """Signed rotation through the shorter pi-periodic arc from p's line to q's."""
    return math.remainder(q.line_angle - p.line_angle, math.pi)


def _fiber_steps(angle_from, angle_to):
    """:func:`fiber_step` element-wise, from line angles in ``[0, pi]``.

    The difference ``x`` lies in ``[-pi, pi]``, so ``remainder(x, pi)`` is
    ``x`` up to ``|x| = pi/2`` and ``x -+ pi`` past it, which is exact by
    Sterbenz's lemma; ``sign(x) * (|x| - pi)`` also gives ``remainder``'s
    signed zero at ``x = -pi``.  The absolute value is ``d_v``.
    """
    x = angle_to - angle_from
    a = np.abs(x)
    return np.where(a > 0.5 * math.pi, np.sign(x) * (a - math.pi), x)


def _edge_gaps(xyl):
    """Base distance ``d_h`` and fiber step of each edge ``k -> k + 1`` of the
    closed vertex array ``xyl``, bit for bit as :func:`dist_components` and
    :func:`fiber_step` give them pair by pair; nothing is checked here.

    ``d_h`` comes from ``math.hypot``, which ``np.hypot`` differs from in
    the last bit on some inputs.
    """
    d = np.roll(xyl, -1, axis=0) - xyl
    d_h = np.array(list(map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist())))
    angle = xyl[:, 2] % math.pi
    return d_h, _fiber_steps(angle, np.roll(angle, -1))


class MinimalLinearCurve:
    """Straight base segment with constant-rate rotation through the short arc.

    The total fiber rotation equals ``d_v(p, q)`` exactly; the endpoint
    lifts are anchored at ``p.lift`` (so ``point_at(1)`` reproduces ``q``'s
    line, possibly with a different lift representative).
    """

    def __init__(self, p: ProjPoint, q: ProjPoint):
        if abs(dist_components(p, q).d_v - 0.5 * math.pi) < 1e-12:
            raise AmbiguousFiberArcError(
                "perpendicular lines: both rotation arcs have length pi/2")
        self.p = p
        self.q = q
        self.delta = fiber_step(p, q)

    def point_at(self, t: float) -> ProjPoint:
        return ProjPoint(self.p.x + t * (self.q.x - self.p.x),
                         self.p.y + t * (self.q.y - self.p.y),
                         self.p.lift + t * self.delta)


class LiftedCurve:
    """Closed curve in the unit tangent bundle: base samples at the ``m``
    parameters ``i / m`` plus a continuous direction-angle lift there.
    ``total_turn`` is the lift increment over one full
    period (2 pi times the turning number)."""

    def __init__(self, points, theta, *, total_turn):
        self.points = np.asarray(points, dtype=float)
        self.theta = np.asarray(theta, dtype=float)
        self.total_turn = float(total_turn)

    @property
    def turning_number(self) -> int:
        return _whole_number(self.total_turn / TWO_PI, 1e-6, "total rotation in turns")


def unit_tangent_lift(curve, samples: int = 512) -> LiftedCurve:
    """Lift a :class:`~lens_scatter.curves.ParametricCurve` to the unit
    tangent bundle along its normalized velocity, from ``samples`` uniform
    parameters.

    Fails if the speed vanishes (not an immersion), if ``samples`` is below
    4 (too few to tell a turning lift from a flat one), or if the sampling
    is too sparse for a continuous angle lift (consecutive directions must
    differ by well under pi/2).
    """
    if samples < 4:
        raise ValueError(f"a direction lift needs at least 4 samples, got {samples}")
    ts = np.linspace(0.0, 1.0, samples, endpoint=False)
    pts = curve.point(ts)
    vel = curve.velocity(ts)
    speed = np.hypot(vel[:, 0], vel[:, 1])
    if np.min(speed) < 1e-12:
        raise ImmersionError("curve speed vanishes: unit direction undefined")
    raw = np.arctan2(vel[:, 1], vel[:, 0])
    theta_ext = np.unwrap(np.concatenate([raw, raw[:1]]))
    if np.max(np.abs(np.diff(theta_ext))) > 0.5 * math.pi:
        raise ValueError("sampling too sparse for a continuous direction lift")
    return LiftedCurve(pts, theta_ext[:-1], total_turn=theta_ext[-1] - theta_ext[0])


class ProjCurve:
    """Projectivized lift: same continuous lift, read as a line angle mod pi."""

    def __init__(self, lifted: LiftedCurve):
        self.lifted = lifted
        self.points = lifted.points
        self.line_lift = lifted.theta

    @property
    def line_winding(self) -> int:
        return _whole_number(self.lifted.total_turn / math.pi, 1e-6,
                             "line rotation in half-turns")

    def proj_points(self) -> list[ProjPoint]:
        return list(map(ProjPoint, self.points[:, 0].tolist(), self.points[:, 1].tolist(),
                        self.line_lift.tolist()))


def projectivize(lifted: LiftedCurve) -> ProjCurve:
    """Quotient a tangent-bundle curve by the opposite-vector identification.

    A closed curve whose direction winds ``w`` times becomes a closed curve
    in the line bundle winding ``2 w`` times along the fiber (the fiber
    halves from 2 pi to pi).
    """
    return ProjCurve(lifted)


class PLVertexPath:
    """Closed piecewise-linear knot: an ``(n, 3)`` array ``xyl`` of bundle
    vertices ``(x, y, lift)``, each joined to the next by the minimal linear
    curve between them.  Adjacent vertices must admit one: base points
    closer than the injectivity radius, lines not perpendicular.  ``deltas``
    holds the fiber step of each edge.
    """

    def __init__(self, vertices):
        self.xyl = np.array(vertices, dtype=float)
        if len(self.xyl) < 3:
            raise ValueError("need at least 3 vertices")
        if self.xyl.shape[1:] != (3,):
            raise ValueError("vertices must be (x, y, lift) triples")
        self.xyl.flags.writeable = False
        d_h, self.deltas = _edge_gaps(self.xyl)
        bad = ((d_h >= FLAT_INJECTIVITY_RADIUS)
               | (np.abs(np.abs(self.deltas) - 0.5 * math.pi) < 1e-12))
        if bad.any():
            # The scalar constructor raises the error of the first bad edge.
            MinimalLinearCurve(*_edge_ends(self.xyl, int(np.argmax(bad))))
        # _turned[k] is the rotation over the first k edges, summed in order.
        self._turned = np.cumsum(np.concatenate(([0.0], self.deltas)))

    @property
    def vertices(self) -> list[ProjPoint]:
        return list(map(ProjPoint._make, self.xyl.tolist()))

    @property
    def n(self) -> int:
        return len(self.xyl)

    @property
    def total_rotation(self) -> float:
        return float(self._turned[-1])

    @property
    def contractible(self) -> bool:
        # pi_1 of the solid-torus line bundle is generated by the fiber;
        # the class is the total rotation in units of pi.
        return abs(self.total_rotation) < 1e-9

    def lift_at_vertex(self, k: int) -> float:
        return float(self.xyl[0, 2] + self._turned[k])

    def point_at(self, u: float) -> ProjPoint:
        u = u % 1.0
        scaled = u * self.n
        k = min(int(scaled), self.n - 1)
        frac = scaled - k
        p, q = _edge_ends(self.xyl, k)
        # The lift is continuous around the whole loop.
        return ProjPoint(p.x + frac * (q.x - p.x), p.y + frac * (q.y - p.y),
                         self.lift_at_vertex(k) + frac * float(self.deltas[k]))


def _edge_ends(xyl, k: int) -> tuple[ProjPoint, ProjPoint]:
    """The vertices ``k`` and ``k + 1`` of the closed vertex array ``xyl``."""
    return ProjPoint(*xyl[k].tolist()), ProjPoint(*xyl[(k + 1) % len(xyl)].tolist())


def _flat_embedding(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> np.ndarray:
    """Consistent (x, y, lift) coordinates for a small bundle triangle."""
    cp = 0.0
    cq = fiber_step(p, q)
    cr = fiber_step(p, r)
    # The three pairwise short arcs must agree as one flat configuration.
    if abs(math.remainder(cr - cq, math.pi) - fiber_step(q, r)) > 1e-9:
        raise AmbiguousFiberArcError("fiber arcs of the triple wrap inconsistently")
    return np.array([[p.x, p.y, cp], [q.x, q.y, cq], [r.x, r.y, cr]])


def triangle_angle_sum(p: ProjPoint, q: ProjPoint, r: ProjPoint) -> float:
    """Sum of the angles a bundle triangle makes at its vertices.

    The sides are the minimal linear curves between the vertices, which in
    the flat product structure are straight segments of ``(x, y, lift)``
    space, so the sum tends to pi as the triple shrinks.
    """
    verts = _flat_embedding(p, q, r)
    total = 0.0
    for i in range(3):
        a = verts[(i + 1) % 3] - verts[i]
        b = verts[(i + 2) % 3] - verts[i]
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        if na == 0.0 or nb == 0.0:
            raise ValueError("degenerate triangle: coincident vertices")
        total += math.acos(max(-1.0, min(1.0, float(np.dot(a, b)) / (na * nb))))
    return total
