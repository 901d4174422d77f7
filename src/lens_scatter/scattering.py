"""Boundary unit vectors, the exit-direction relation, and lens-data comparison.

Angle convention.  A :class:`BoundaryVector` stores ``(arc, angle)`` where
``arc`` is the boundary position as a fraction of the (counterclockwise)
perimeter and ``angle`` is the *unsigned* angle in ``[0, pi]`` between the
vector and the oriented boundary tangent.  Entry vectors point inward, so
their angle is measured toward the inward normal; exit vectors point
outward and the same unsigned measure then runs toward the outward normal.
This makes the entry and exit of a straight chord carry equal angles, and
reversal is simply ``angle -> pi - angle`` at the same arc.  Whether a
vector is inward or outward is contextual (entry slot vs exit slot);
:func:`classify` interprets its argument in the inward frame, so exit
vectors should be classified after reversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (ConformalMetric, IntegrationOptions, chord_impact,
                       clairaut_orbit, integrate_geodesic)

TWO_PI = 2.0 * math.pi

INWARD = "inward"
TANGENTIAL = "tangential"
OUTWARD = "outward"


@dataclass(frozen=True)
class BoundaryVector:
    """Unit vector at a boundary point: (perimeter fraction, tangent angle)."""

    arc: float
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "arc", self.arc % 1.0)
        if not (0.0 <= self.angle <= math.pi):
            raise ValueError("tangent angle must lie in [0, pi]")

    def reversed(self) -> "BoundaryVector":
        return BoundaryVector(self.arc, math.pi - self.angle)

    def point(self, radius: float = 1.0) -> tuple[float, float]:
        phi = TWO_PI * self.arc
        return (radius * math.cos(phi), radius * math.sin(phi))


def classify(v: BoundaryVector) -> str:
    """Inward / tangential / outward class, reading the angle in the inward frame.

    The inward class is the *strict* open interval ``(0, pi)``; both 0 and
    pi are tangential.  Angles outside ``[0, pi]`` (never produced by
    :class:`BoundaryVector` itself, but accepted from duck-typed inputs)
    classify as outward.
    """
    a = v.angle % TWO_PI
    if a == 0.0 or a == math.pi:
        return TANGENTIAL
    return INWARD if 0.0 < a < math.pi else OUTWARD


def boundary_vector_at(x: float, y: float, theta: float, *, radius: float = 1.0) -> BoundaryVector:
    """Boundary vector for a direction angle ``theta`` at boundary point ``(x, y)``."""
    phi = math.atan2(y, x)
    tx, ty = -math.sin(phi), math.cos(phi)
    dot = math.cos(theta) * tx + math.sin(theta) * ty
    chi = math.acos(max(-1.0, min(1.0, dot)))
    return BoundaryVector((phi / TWO_PI) % 1.0, chi)


@dataclass(frozen=True)
class BoundaryIsometry:
    """Isometry of the boundary circle: arc shift plus optional reflection.

    Acts as ``arc -> shift + arc`` (orientation preserving) or
    ``arc -> shift - arc`` (orientation reversing).  For a circle these are
    all the isometries there are.
    """

    shift: float = 0.0
    reflect: bool = False

    def apply_arc(self, arc: float) -> float:
        return (self.shift - arc if self.reflect else self.shift + arc) % 1.0

    def inverse(self) -> "BoundaryIsometry":
        if self.reflect:
            return self
        return BoundaryIsometry(-self.shift % 1.0, False)


def phi_map(h: BoundaryIsometry, v: BoundaryVector) -> BoundaryVector:
    """Induced map on boundary vectors: move the base point by ``h``, carry the
    tangential component with ``h``'s derivative sign, keep the normal component."""
    angle = math.pi - v.angle if h.reflect else v.angle
    return BoundaryVector(h.apply_arc(v.arc), angle)


@dataclass
class ScatteringRecord:
    """Entry vector, exit vector (``None`` when trapped), and metric length."""

    entry: BoundaryVector
    exit: BoundaryVector | None
    tau: float

    @property
    def trapped(self) -> bool:
        return self.exit is None


def scatter(metric: ConformalMetric, entry: BoundaryVector,
            opts: IntegrationOptions | None = None) -> ScatteringRecord:
    """Outgoing vector and metric length of one inward vector.

    Radial metrics (vacuum, the lens, radial profiles) get their exit data
    from Clairaut quadrature (:func:`~lens_scatter.geometry.clairaut_orbit`):
    the exit angle equals the entry angle and the exit arc is the entry arc
    advanced by the signed polar sweep.  Every other case, including rays
    without a simple turning point, is traced by
    :func:`~lens_scatter.geometry.integrate_geodesic`.  Both paths raise
    :class:`~lens_scatter.geometry.SingularChordError` for chords through the
    exclusion zone and report a trapped record past ``opts.max_length``.
    """
    if classify(entry) != INWARD:
        raise ValueError("scatter needs a strictly inward entry vector")
    opts = opts or IntegrationOptions()
    orbit = clairaut_orbit(metric, chord_impact(metric, entry, opts), opts)
    if orbit is not None:
        sweep, tau = orbit
        if tau > opts.length_cap(metric.radius):
            return ScatteringRecord(entry, None, math.inf)
        turn = math.copysign(sweep, math.cos(entry.angle)) / TWO_PI
        return ScatteringRecord(entry, BoundaryVector(entry.arc + turn, entry.angle), tau)
    path = integrate_geodesic(metric, entry, opts)
    if path.trapped:
        return ScatteringRecord(entry, None, math.inf)
    return ScatteringRecord(entry, path.exit, path.length)


@dataclass
class LensDataset:
    """Scattering records of one metric over a described sampling.

    :meth:`collect` runs :func:`scatter` per entry, so radial metrics are
    served by Clairaut quadrature and other metrics by ODE tracing.
    """

    metric_id: str
    records: list[ScatteringRecord]
    sampling: str

    def __post_init__(self):
        self.records = sorted(self.records, key=lambda r: (r.entry.arc, r.entry.angle))
        keys = [(r.entry.arc, r.entry.angle) for r in self.records]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate entries in lens dataset")

    @classmethod
    def collect(cls, metric: ConformalMetric, grid, *, metric_id=None,
                opts: IntegrationOptions | None = None) -> "LensDataset":
        recs = [scatter(metric, v, opts) for v in grid]
        return cls(metric_id or metric.name, recs,
                   f"{len(recs)} boundary entries")


def boundary_grid(n_arcs: int = 16, n_angles: int = 8, *,
                  angle_margin: float = 0.05) -> list[BoundaryVector]:
    """Default entry sampling: arcs times midpoint angles.

    Angles are midpoints of a uniform partition of
    ``(angle_margin, pi - angle_margin)``, which keeps them away from the
    tangential classes (where lengths degenerate) and, for even counts,
    away from the normal direction (whose chord would hit a central pole).
    """
    if n_arcs < 2 or n_angles < 1:
        raise ValueError("grid needs at least 2 arcs and 1 angle")
    arcs = [i / n_arcs for i in range(n_arcs)]
    width = math.pi - 2.0 * angle_margin
    angles = [angle_margin + (j + 0.5) * width / n_angles for j in range(n_angles)]
    return [BoundaryVector(a, t) for a in arcs for t in angles]


def _arc_distance(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


@dataclass
class CompareReport:
    """Conjugation-identity deviations between two metrics over a grid."""

    equal: bool
    max_angle_dev: float
    max_arc_dev: float
    trapped_count: int
    entries: int
    tol: float


def compare_scattering(metric_m: ConformalMetric, metric_n: ConformalMetric,
                       h: BoundaryIsometry | None = None, grid=None,
                       tol: float = 1e-4,
                       opts: IntegrationOptions | None = None) -> CompareReport:
    """Check that mapping exits with ``h`` commutes with exit tracing.

    For every grid entry ``v`` the report compares ``phi(exit_M(v))``
    against ``exit_N(phi(v))``.  Trapped geodesics on either side are
    counted, excluded from the deviation maxima, and veto equality.
    ``max_arc_dev`` is measured in arc fraction, ``max_angle_dev`` in
    radians.
    """
    h = h or BoundaryIsometry()
    grid = grid if grid is not None else boundary_grid()
    max_angle = 0.0
    max_arc = 0.0
    trapped = 0
    for v in grid:
        rec_m = scatter(metric_m, v, opts)
        rec_n = scatter(metric_n, phi_map(h, v), opts)
        if rec_m.trapped or rec_n.trapped:
            trapped += 1
            continue
        lhs = phi_map(h, rec_m.exit)
        rhs = rec_n.exit
        max_angle = max(max_angle, abs(lhs.angle - rhs.angle))
        max_arc = max(max_arc, _arc_distance(lhs.arc, rhs.arc))
    equal = trapped == 0 and max_angle < tol and max_arc < tol
    return CompareReport(equal, max_angle, max_arc, trapped, len(grid), tol)


@dataclass
class ExcessReport:
    """Per-entry length excesses of one metric over another."""

    mean_excess: float
    max_abs_dev: float
    excesses: list[float]
    trapped_count: int


def length_excess(metric_m: ConformalMetric, metric_n: ConformalMetric,
                  h: BoundaryIsometry | None = None, grid=None,
                  opts: IntegrationOptions | None = None) -> ExcessReport:
    """Mean and spread of ``tau_N(phi(v)) - tau_M(v)`` over the grid.

    Meaningful when the two metrics compare equal (the excess is then a
    single constant); callers should run :func:`compare_scattering` first.
    """
    h = h or BoundaryIsometry()
    grid = grid if grid is not None else boundary_grid()
    excesses = []
    trapped = 0
    for v in grid:
        rec_m = scatter(metric_m, v, opts)
        rec_n = scatter(metric_n, phi_map(h, v), opts)
        if rec_m.trapped or rec_n.trapped:
            trapped += 1
            continue
        excesses.append(rec_n.tau - rec_m.tau)
    if not excesses:
        raise RuntimeError("no usable entries: every geodesic was trapped")
    mean = sum(excesses) / len(excesses)
    max_dev = max(abs(e - mean) for e in excesses)
    return ExcessReport(mean, max_dev, excesses, trapped)
