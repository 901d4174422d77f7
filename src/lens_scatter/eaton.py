"""Invisible gradient-index lens: index profile and its verification checks.

The index ``n(r)`` on the unit disk is the root of the implicit equation

    sqrt(n) = 1/(n r) + sqrt(1/(n r)^2 - 1)

on the branch with ``n * r <= 1`` that is continuous from ``n(1) = 1``.  It
decreases strictly in ``r`` and diverges at the origin, where the metric
``n^2 g0`` has a pole.  Rays entering the disk leave it with the same
direction and on the same straight line as in vacuum, after winding exactly
once around the center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq

from .geometry import (ConformalMetric, GeodesicPath, IntegrationOptions,
                       SingularChordError, _TabulatedRadial, integrate_geodesic)

TWO_PI = 2.0 * math.pi


class NonIntegralWindingError(RuntimeError):
    """Polar-angle sweep of a traced path is not close to a whole turn count."""


def index_residual(n: float, r: float) -> float:
    """Defect of the implicit index equation at ``(n, r)``."""
    u = 1.0 / (n * r)
    return u + math.sqrt(max(u * u - 1.0, 0.0)) - math.sqrt(n)


def eaton_index(r: float, *, residual_tol: float = 1e-12) -> float:
    """Index at radius ``r`` in ``(0, 1]`` by bracketed root finding.

    The bracket is ``n in [1, 1/r]``: the upper end is forced by the square
    root being real (``n r <= 1``), the lower end by ``n(1) = 1`` and
    monotonicity.
    """
    if not (r > 0.0):
        raise ValueError("radius must be positive")
    if r > 1.0:
        raise ValueError("index profile is defined on (0, 1]")
    if r == 1.0:
        return 1.0
    n = brentq(index_residual, 1.0, 1.0 / r, args=(r,), xtol=1e-15, rtol=8.9e-16,
               maxiter=200)
    # The equation's terms grow like sqrt(n), so the attainable absolute
    # residual scales with it.
    if abs(index_residual(n, r)) > residual_tol * (1.0 + math.sqrt(n)):
        raise RuntimeError(f"index root did not converge at r={r}")
    return float(n)


def _exact_dn_dr(n: float) -> float:
    # Implicit differentiation of the index equation, algebraically reduced:
    # r(n) = 2 / (sqrt(n) (n + 1)), so dn/dr = 1 / r'(n).
    return -(n ** 1.5) * (n + 1.0) ** 2 / (3.0 * n + 1.0)


class EatonProfile(_TabulatedRadial):
    """Tabulated lens index, interpolated log-log; the metric's profile object.

    ``exclusion_radius`` bounds how close *entry chords* may pass to the
    origin; interior ray perigees dip far below that (roughly the cube of
    the chord offset), so the table itself extends down to ``floor_radius``.
    """

    def __init__(self, table_size: int = 4096, exclusion_radius: float = 1e-3,
                 floor_radius: float = 1e-10):
        self.table_size = table_size
        self.exclusion_radius = exclusion_radius
        self.floor_radius = floor_radius
        self.radii = np.geomspace(floor_radius, 1.0, table_size)
        vals = np.array([eaton_index(r) for r in self.radii])
        vals[-1] = 1.0
        if np.any(np.diff(vals) >= 0):
            raise RuntimeError("index table is not strictly decreasing")
        if np.any(vals * self.radii > 1.0 + 1e-12):
            raise RuntimeError("index table violates n*r <= 1")
        self.values = vals
        # Closed-form slopes d(log n)/d(log r) make the table a cubic Hermite
        # spline, accurate to ~1e-13 where PCHIP's estimates leave ~1e-9; the
        # exits of near-grazing rays amplify index errors by 1 / (1 - impact).
        slopes = self.radii * _exact_dn_dr(vals) / vals
        super().__init__(self.radii, vals, log_space=True, slopes=slopes)

    def index(self, r: float) -> float:
        return self.eval(r)[0]


@lru_cache(maxsize=4)
def _cached_profile(table_size: int, exclusion_radius: float, floor_radius: float) -> EatonProfile:
    return EatonProfile(table_size=table_size, exclusion_radius=exclusion_radius,
                        floor_radius=floor_radius)


def eaton_metric(*, radius: float = 1.0, exact: bool = False,
                 table_size: int = 4096) -> ConformalMetric:
    """Lens metric on the disk.

    The default evaluates the tabulated profile (built once, then cached).
    ``exact=True`` switches to per-evaluation root solves with the closed
    implicit derivative; much slower, intended for validating the table.
    """
    if radius != 1.0:
        raise ValueError("the lens profile is normalized to a unit disk")
    if exact:
        return ConformalMetric.from_radial(
            eaton_index, lambda r: _exact_dn_dr(eaton_index(r)),
            kind="eaton", singular_at_origin=True, r_min=0.0, name="eaton-exact")
    return ConformalMetric("eaton", radius=1.0, singular_at_origin=True,
                           profile=_cached_profile(table_size, 1e-3, 1e-10),
                           name="eaton")


def _polar_sweep(pts: np.ndarray, max_step: float) -> float:
    r = np.hypot(pts[:, 0], pts[:, 1])
    if np.min(r) <= 0.0:
        raise ValueError("path passes through the origin")
    polar = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
    steps = np.abs(np.diff(polar))
    if steps.size and float(np.max(steps)) > max_step:
        raise NonIntegralWindingError(
            "samples too sparse around the origin for a reliable angle lift")
    return float(polar[-1] - polar[0])


def loop_winding(path: GeodesicPath, *, residual_tol: float = 0.1) -> int:
    """Whole turns of a traced path around the origin.

    The continuous polar-angle lift of the path is closed by the straight
    chord back to the start (sampled and lifted the same way), so any
    straight path scores 0 and a full interior circuit scores +-1.  Raises
    :class:`NonIntegralWindingError` when the lift is unreliable (samples
    subtending more than a quarter turn) or the closed sweep strays from an
    integer by ``residual_tol`` turns.
    """
    pts = np.asarray(path.points, dtype=float)
    sweep = _polar_sweep(pts, 0.5 * math.pi)
    u = np.linspace(0.0, 1.0, 257)[:, None]
    chord = pts[-1] * (1.0 - u) + pts[0] * u
    turns = (sweep + _polar_sweep(chord, math.pi - 1e-9)) / TWO_PI
    winding = round(turns)
    if abs(turns - winding) >= residual_tol:
        raise NonIntegralWindingError(f"winding {turns:.3f} is not integral")
    return int(winding)


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
    """Trace each entry through the lens and compare against vacuum.

    For every entry the exit direction must be parallel to the entry
    direction and the exit point must coincide with the straight-line
    (vacuum) exit, both within ``tol``.  Chords through the exclusion zone
    raise :class:`SingularChordError` like the integrator does.
    """
    metric = metric if metric is not None else eaton_metric()
    R = metric.radius
    records = []
    for entry in entries:
        path = integrate_geodesic(metric, entry, opts)
        if path.trapped:
            raise RuntimeError(f"entry {entry} was trapped; cannot assess it")
        # Vacuum exit of the same entry: straight chord geometry.
        chi = entry.angle
        phi0 = TWO_PI * (entry.arc % 1.0)
        exit_phi = phi0 + 2.0 * chi
        vac_exit = np.array([R * math.cos(exit_phi), R * math.sin(exit_phi)])
        theta0 = path.directions[0]
        theta1 = path.directions[-1]
        direction_dev = abs(math.remainder(theta1 - theta0, TWO_PI))
        exit_dev = float(np.hypot(*(path.points[-1] - vac_exit)))
        records.append(InvisibilityRecord(entry.arc % 1.0, chi, direction_dev,
                                          exit_dev, loop_winding(path)))
    return InvisibilityReport(
        records=records,
        max_direction_dev=max(r.direction_dev for r in records),
        max_exit_dev=max(r.exit_dev for r in records),
        tol=tol,
    )
