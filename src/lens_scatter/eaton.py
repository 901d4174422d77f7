"""Invisible gradient-index lens: index profile and its verification checks.

The index ``n(r)`` on the unit disk is the root of the implicit equation

    sqrt(n) = 1/(n r) + sqrt(1/(n r)^2 - 1)

on the branch with ``n * r <= 1`` that is continuous from ``n(1) = 1``.  In
``s = sqrt(n)`` it reduces to the cubic ``s^3 + s = 2/r``, whose one real
root gives ``n`` in closed form (:class:`EatonProfile`, in ``geometry``); the
bracketed root solve :func:`eaton_index` is kept as the reference.  ``n``
decreases strictly in ``r`` and diverges at the origin, where the metric
``n^2 g0`` has a pole.  Rays entering the disk leave it with the same
direction and on the same straight line as in vacuum, after winding exactly
once around the center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dop853 import brentq
from .geometry import (ConformalMetric, EatonProfile, GeodesicPath,  # noqa: F401
                       IntegrationOptions, NonIntegralWindingError, eaton_metric,
                       polar_sweep)
from .scattering import scatter_grid

TWO_PI = 2.0 * math.pi


def index_residual(n: float, r: float) -> float:
    """Defect of the implicit index equation at ``(n, r)``."""
    u = 1.0 / (n * r)
    return u + math.sqrt(max(u * u - 1.0, 0.0)) - math.sqrt(n)


def eaton_index(r: float) -> float:
    """Index at radius ``r`` in ``(0, 1]`` by bracketed root finding.

    The bracket is ``n in [1, 1/r]``: the upper end is forced by the square
    root being real (``n r <= 1``), the lower end by ``n(1) = 1`` and
    monotonicity.  This is the reference for the closed form of
    :class:`EatonProfile`, which the metric evaluates.
    """
    if not (r > 0.0):
        raise ValueError("radius must be positive")
    if r > 1.0:
        raise ValueError("index profile is defined on (0, 1]")
    if r == 1.0:
        return 1.0
    n = brentq(lambda n: index_residual(n, r), 1.0, 1.0 / r, xtol=1e-15, rtol=8.9e-16,
               maxiter=200)
    # The equation's terms grow like sqrt(n), so the attainable absolute
    # residual scales with it.
    if abs(index_residual(n, r)) > 1e-12 * (1.0 + math.sqrt(n)):
        raise RuntimeError(f"index root did not converge at r={r}")
    return float(n)


def _exact_dn_dr(n: float) -> float:
    # Implicit differentiation of the index equation, algebraically reduced:
    # r(n) = 2 / (sqrt(n) (n + 1)), so dn/dr = 1 / r'(n).
    return -(n ** 1.5) * (n + 1.0) ** 2 / (3.0 * n + 1.0)


def _whole_turns(turns: float) -> int:
    winding = round(turns)
    if abs(turns - winding) >= 0.1:
        raise NonIntegralWindingError(f"winding {turns:.3f} is not integral")
    return int(winding)


def loop_winding(path: GeodesicPath) -> int:
    """Whole turns of a traced path around the origin.

    The continuous polar-angle lift of the path is closed by the straight
    chord back to the start (sampled and lifted the same way), so any
    straight path scores 0 and a full interior circuit scores +-1.  Raises
    :class:`NonIntegralWindingError` when the lift is unreliable (samples
    subtending more than a quarter turn) or the closed sweep strays from an
    integer by 0.1 turns.  :func:`invisibility_check` gets its
    windings from scattering records instead; this polyline reading is the
    test oracle for them and gives ``trace`` its winding.
    """
    (x0, y0), (x1, y1) = path.points[0], path.points[-1]
    # 257 chord samples, from the exit back to the entry.
    chord = [(x1 * (1.0 - u) + x0 * u, y1 * (1.0 - u) + y0 * u)
             for u in (k / 256 for k in range(257))]
    return _whole_turns((polar_sweep(path.points) + polar_sweep(chord, math.pi - 1e-9))
                        / TWO_PI)


@dataclass
class InvisibilityRecord:
    arc: float
    angle: float
    direction_dev: float
    exit_dev: float
    winding: int


@dataclass
class InvisibilityReport:
    records: list[InvisibilityRecord]
    max_direction_dev: float
    max_exit_dev: float
    tol: float
    excluded: int

    @property
    def passed(self) -> bool:
        return (self.max_direction_dev < self.tol
                and self.max_exit_dev < self.tol)

    @property
    def windings(self) -> list[int]:
        return [rec.winding for rec in self.records]


def invisibility_check(entries, tol: float = 1e-4, *,
                       metric: ConformalMetric | None = None,
                       opts: IntegrationOptions | None = None) -> InvisibilityReport:
    """Compare the lens's scattering of each entry against vacuum.

    For every entry the exit direction must be parallel to the entry
    direction and the exit point must coincide with the straight-line
    (vacuum) exit, both within ``tol``.  Everything comes from the exit
    ``(arc, angle)`` and the polar sweep of the entry's
    :func:`~lens_scatter.scattering.scatter_grid` record, so radial metrics
    are settled by quadrature, once per distinct entry angle.  With
    ``phi0``, ``phi1`` the entry and exit polar angles, ``chi``, ``chi1``
    the entry and exit angles:

    - the direction turns by ``phi1 - chi1 - (phi0 + chi)`` (mod ``2 pi``);
    - the exit lies at chord distance ``2 R |sin((phi1 - phi0 - 2 chi) / 2)|``
      from the vacuum exit;
    - the winding of the path closed by the chord back to the entry is
      ``(sweep + chord_back) / 2 pi``, where the chord sweeps
      ``chord_back = -remainder(phi1 - phi0, 2 pi)``.  It must be within
      0.1 of an integer, or :class:`NonIntegralWindingError` is raised.

    Entries whose chord passes through the exclusion zone are skipped and
    counted in ``excluded``; a ``ValueError`` is raised when no entry is
    left, and a ``RuntimeError`` when a geodesic is trapped.
    """
    metric = metric if metric is not None else eaton_metric()
    R = metric.radius
    records = []
    excluded = 0
    for rec in scatter_grid(metric, entries, opts):
        if rec is None:
            excluded += 1
            continue
        if rec.trapped:
            raise RuntimeError(f"entry {rec.entry} was trapped; cannot assess it")
        if rec.sweep is None:
            raise NonIntegralWindingError(
                f"entry {rec.entry} passes too close to the origin for a winding")
        chi = rec.entry.angle
        phi0 = TWO_PI * rec.entry.arc
        phi1 = TWO_PI * rec.exit.arc
        direction_dev = abs(math.remainder(phi1 - rec.exit.angle - (phi0 + chi), TWO_PI))
        exit_dev = 2.0 * R * abs(math.sin(0.5 * (phi1 - (phi0 + 2.0 * chi))))
        chord_back = -math.remainder(phi1 - phi0, TWO_PI)
        winding = _whole_turns((rec.sweep + chord_back) / TWO_PI)
        records.append(InvisibilityRecord(rec.entry.arc, chi, direction_dev, exit_dev, winding))
    if not records:
        raise ValueError("every grid entry passes through the exclusion zone")
    return InvisibilityReport(
        records=records,
        max_direction_dev=max(r.direction_dev for r in records),
        max_exit_dev=max(r.exit_dev for r in records),
        tol=tol,
        excluded=excluded,
    )
