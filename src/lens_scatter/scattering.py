"""Boundary unit vectors, the exit-direction relation, and lens-data comparison.

Angle convention.  A :class:`BoundaryVector` stores ``(arc, angle)`` where
``arc`` is the boundary position as a fraction of the (counterclockwise)
perimeter and ``angle`` is the *unsigned* angle in ``[0, pi]`` between the
vector and the oriented boundary tangent.  Entry vectors point inward, so
their angle is measured toward the inward normal; exit vectors point
outward and the same unsigned measure then runs toward the outward normal.
This makes the entry and exit of a straight chord carry equal angles, and
reversal is simply ``angle -> pi - angle`` at the same arc.  Whether a
vector is inward or outward is contextual (entry slot vs exit slot), not
stored: :func:`scatter` reads its argument as an entry, and an exit vector
enters again after reversal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import (BoundaryVector, ConformalMetric, IntegrationOptions,
                       NonIntegralWindingError, SingularChordError,
                       chord_impact, clairaut_orbit, integrate_geodesic,
                       polar_sweep)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class BoundaryIsometry:
    """Isometry of the boundary circle: arc shift plus optional reflection.

    Acts as ``arc -> shift + arc`` (orientation preserving) or
    ``arc -> shift - arc`` (orientation reversing).  These are all the
    isometries of a rim of constant index; where the index varies, the
    rim's isometries keep its arclength ``n(R, phi) R dphi`` instead.
    """

    shift: float = 0.0
    reflect: bool = False

    def __post_init__(self):
        if not math.isfinite(self.shift):
            raise ValueError(f"boundary shift must be finite, got {self.shift}")

    def apply_arc(self, arc: float) -> float:
        return (self.shift - arc if self.reflect else self.shift + arc) % 1.0


def phi_map(h: BoundaryIsometry, v: BoundaryVector) -> BoundaryVector:
    """Induced map on boundary vectors: move the base point by ``h``, carry the
    tangential component with ``h``'s derivative sign, keep the normal component."""
    angle = math.pi - v.angle if h.reflect else v.angle
    return BoundaryVector(h.apply_arc(v.arc), angle)


@dataclass
class ScatteringRecord:
    """Entry vector, exit vector (``None`` when trapped), and metric length.

    ``sweep`` is the signed polar-angle sweep of the geodesic from entry to
    exit, in radians.  It is ``None`` when trapped, and when a traced path
    passes so close to the origin that its polar angle cannot be lifted.
    Exit arcs know the sweep only mod ``2 pi``; the whole turns it adds are
    what separates the lens from the flat disk.
    """

    entry: BoundaryVector
    exit: BoundaryVector | None
    tau: float
    sweep: float | None = None

    @property
    def trapped(self) -> bool:
        return self.exit is None

    def rotated(self, entry) -> "ScatteringRecord":
        """A radial metric's record moved to ``entry``, of the same angle: the
        exit arc is the entry arc advanced by ``sweep / 2 pi``, as in :func:`scatter`."""
        if self.trapped:
            return ScatteringRecord(entry, None, math.inf)
        turn = self.exit.arc - self.entry.arc if self.sweep is None else self.sweep / TWO_PI
        return ScatteringRecord(entry, BoundaryVector(entry.arc + turn, self.exit.angle),
                                self.tau, self.sweep)


def scatter(metric: ConformalMetric, entry: BoundaryVector,
            opts: IntegrationOptions | None = None) -> ScatteringRecord:
    """Outgoing vector and metric length of one inward vector.

    Radial metrics (vacuum, the lens, radial profiles) get their exit data
    from Clairaut quadrature (:func:`~lens_scatter.geometry.clairaut_orbit`):
    the exit angle equals the entry angle and the exit arc is the entry arc
    advanced by the signed polar sweep.  Every other case, including rays
    without a simple turning point, is traced by
    :func:`~lens_scatter.geometry.integrate_geodesic`, and its sweep read
    off the traced polyline.  Both paths raise
    :class:`~lens_scatter.geometry.SingularChordError` for chords through the
    exclusion zone and report a trapped record past ``opts.max_length``.
    """
    opts = opts or IntegrationOptions()
    orbit = clairaut_orbit(metric, chord_impact(metric, entry), opts)
    if orbit is not None:
        sweep, tau = orbit
        if tau > opts.length_cap(metric.radius):
            return ScatteringRecord(entry, None, math.inf)
        sweep = math.copysign(sweep, math.cos(entry.angle))
        return ScatteringRecord(entry, BoundaryVector(entry.arc + sweep / TWO_PI, entry.angle),
                                tau, sweep)
    path = integrate_geodesic(metric, entry, opts)
    if path.trapped:
        return ScatteringRecord(entry, None, math.inf)
    try:
        sweep = polar_sweep(path.points)
    except (ValueError, NonIntegralWindingError):
        sweep = None
    return ScatteringRecord(entry, path.exit, path.length, sweep)


def per_angle(metric: ConformalMetric, entries, compute) -> list:
    """``compute(v)`` for each of ``entries``, in order; ``None`` for pole chords.

    Rays of a radial metric at one entry angle are rotations of each other:
    each angle is computed at its first entry only, and the result moved to
    the others by its ``rotated(entry)``.  Other metrics are computed entry
    by entry.  ``compute`` raises ``SingularChordError`` for a pole chord.
    """
    first = {}
    results = []
    for v in entries:
        if v.angle in first:
            done = first[v.angle]
            results.append(None if done is None else done.rotated(v))
            continue
        try:
            results.append(compute(v))
        except SingularChordError:
            results.append(None)
        if metric.is_radial:
            first[v.angle] = results[-1]
    return results


def scatter_grid(metric: ConformalMetric, entries,
                 opts: IntegrationOptions | None = None) -> list[ScatteringRecord | None]:
    """Scattering records of ``entries`` by :func:`per_angle`; ``None`` for pole chords."""
    return per_angle(metric, entries, lambda v: scatter(metric, v, opts))


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
    """Lens data of two metrics compared over a grid.

    ``entries`` counts the whole grid, ``excluded`` the entries skipped as
    pole chords.  ``excesses`` holds ``tau_N(phi(v)) - tau_M(v)`` for the
    compared entries, in grid order; ``mean_excess`` and ``max_abs_dev``
    are their mean and largest deviation from it (``None`` when nothing was
    compared).
    """

    equal: bool
    max_angle_dev: float
    max_arc_dev: float
    trapped_count: int
    entries: int
    tol: float
    excluded: int
    mean_excess: float | None
    max_abs_dev: float | None
    excesses: list[float]


def compare_scattering(metric_m: ConformalMetric, metric_n: ConformalMetric,
                       h: BoundaryIsometry | None = None, grid=None,
                       tol: float = 1e-4,
                       opts: IntegrationOptions | None = None) -> CompareReport:
    """Check that mapping exits with ``h`` commutes with exit tracing.

    Scatters the grid entries ``v`` (default :func:`boundary_grid`) under M
    and ``phi(v)`` under N with :func:`scatter_grid`, and compares
    ``phi(exit_M(v))`` against ``exit_N(phi(v))``.  Trapped geodesics on
    either side are counted, excluded from the deviation maxima and the
    excesses, and veto equality.  Pole chords are skipped and counted in
    ``excluded``; equality needs at least one compared entry.
    ``max_arc_dev`` is measured in arc fraction, ``max_angle_dev`` in
    radians.
    """
    h = h or BoundaryIsometry()
    grid = list(grid) if grid is not None else boundary_grid()
    max_angle = 0.0
    max_arc = 0.0
    excesses = []
    trapped = 0
    excluded = 0
    for rec_m, rec_n in zip(scatter_grid(metric_m, grid, opts),
                            scatter_grid(metric_n, [phi_map(h, v) for v in grid], opts)):
        if rec_m is None or rec_n is None:
            excluded += 1
        elif rec_m.trapped or rec_n.trapped:
            trapped += 1
        else:
            lhs = phi_map(h, rec_m.exit)
            max_angle = max(max_angle, abs(lhs.angle - rec_n.exit.angle))
            max_arc = max(max_arc, _arc_distance(lhs.arc, rec_n.exit.arc))
            excesses.append(rec_n.tau - rec_m.tau)
    mean = spread = None
    if excesses:
        # Left to right: from Python 3.12 the builtin sum of floats is
        # compensated, so its bits would follow the interpreter.
        total = 0.0
        for e in excesses:
            total += e
        mean = total / len(excesses)
        spread = max(abs(e - mean) for e in excesses)
    equal = trapped == 0 and bool(excesses) and max_angle < tol and max_arc < tol
    return CompareReport(equal, max_angle, max_arc, trapped, len(grid), tol,
                         excluded, mean, spread, excesses)


def length_excess(metric_m: ConformalMetric, metric_n: ConformalMetric,
                  h: BoundaryIsometry | None = None, grid=None,
                  opts: IntegrationOptions | None = None) -> CompareReport:
    """The :func:`compare_scattering` report, read for its length excesses.

    Meaningful when the two metrics compare equal (the excess is then a
    single constant).  Raises ``RuntimeError`` when no entry was compared.
    """
    rep = compare_scattering(metric_m, metric_n, h, grid, opts=opts)
    if not rep.excesses:
        raise RuntimeError("no usable entries: every geodesic was trapped or excluded")
    return rep
