"""Independent references the benchmark checks the program's outputs against.

Nothing here calls into ``lens_scatter``: the references are closed forms
(straight chords of the unit disk), brute-force vectorized searches (all
pairs of polyline segments) and direct evaluations of the definitions
(crossing sign and type, PL membership) on plain numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


class CheckFailed(AssertionError):
    """An output disagrees with its reference."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# disk geometry


def boundary_point(arc: float) -> np.ndarray:
    phi = TWO_PI * arc
    return np.array([math.cos(phi), math.sin(phi)])


def chord_exit(arc: float, angle: float) -> tuple[float, float, float]:
    """Vacuum exit of a unit-disk entry: (exit arc, exit angle, length).

    A straight chord entering at polar angle phi with tangent angle chi
    leaves at polar angle phi + 2 chi with the same tangent angle, after a
    length 2 sin(chi).
    """
    return ((arc + angle / math.pi) % 1.0, angle, 2.0 * math.sin(angle))


def arc_distance(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def polyline_length_bound(points, directions, n_of_xy) -> float:
    """Bound on |metric length of a smooth path - that of its polyline|.

    A chord of Euclidean length L across an arc whose direction turns by
    dtheta is shorter than the arc by about L dtheta^2 / 24.  Weighting by
    the index at the chord midpoint and doubling gives a safe bound.
    """
    pts = np.asarray(points, dtype=float)
    d = np.diff(pts, axis=0)
    seg = np.hypot(d[:, 0], d[:, 1])
    turn = np.diff(np.asarray(directions, dtype=float))
    mid = 0.5 * (pts[1:] + pts[:-1])
    n_mid = np.array([n_of_xy(x, y) for x, y in mid])
    return float(2.0 * np.sum(n_mid * seg * turn ** 2) / 24.0)


# ---------------------------------------------------------------------------
# crossings of closed polylines


def _segment_hits(points, lo: float, hi: float):
    """All pairs i < j of non-adjacent edges of a closed polyline that meet.

    Edge k runs from point k to point k+1 (cyclically).  The parameters
    ``t`` on edge i and ``u`` on edge j must lie in ``[lo, hi)``.  Rows are
    processed in blocks to keep memory small.
    """
    a = np.asarray(points, dtype=float)
    m = len(a)
    out = []
    ab = np.roll(a, -1, axis=0) - a
    lo_a = np.minimum(a, a + ab)
    hi_a = np.maximum(a, a + ab)
    block = 128
    for start in range(0, m, block):
        stop = min(start + block, m)
        i = np.arange(start, stop)[:, None]
        j = np.arange(start + 1, m)[None, :]
        rows, cols = slice(start, stop), slice(start + 1, m)
        near = j > i
        for axis in (0, 1):
            near &= ((lo_a[rows, axis, None] <= hi_a[None, cols, axis])
                     & (lo_a[None, cols, axis] <= hi_a[rows, axis, None]))
        near &= (j - i > 1) & ~((i == 0) & (j == m - 1))
        ii, jj = np.nonzero(near)
        if ii.size == 0:
            continue
        ii = ii + start
        jj = jj + start + 1
        d1 = ab[ii]
        d2 = ab[jj]
        w = a[jj] - a[ii]
        denom = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        ok = np.abs(denom) > 1e-15
        safe = np.where(ok, denom, 1.0)
        t = np.where(ok, (w[:, 0] * d2[:, 1] - w[:, 1] * d2[:, 0]) / safe, -1.0)
        u = np.where(ok, (w[:, 0] * d1[:, 1] - w[:, 1] * d1[:, 0]) / safe, -1.0)
        hit = ok & (t >= lo) & (t < hi) & (u >= lo) & (u < hi)
        out.extend(zip(ii[hit].tolist(), t[hit].tolist(), jj[hit].tolist(), u[hit].tolist()))
    return sorted(out)


def closed_polyline_crossings(points) -> list[tuple[int, float, int, float]]:
    """Double points of a closed polyline as ``(i, t, j, u)`` with i < j."""
    return _segment_hits(points, 0.0, 1.0)


def pl_crossing_params(base) -> list[tuple[float, float]]:
    """Strictly interior crossings of a closed PL polygon, as ``(l, l')``."""
    n = len(base)
    return [((i + t) / n, (j + u) / n) for i, t, j, u in _segment_hits(base, 1e-9, 1.0 - 1e-9)]


def tangent_lift_invariants(points) -> dict:
    """Crossing data of the projectivized tangent lift of a closed polyline.

    The direction of segment k is the frame on it, lifted continuously
    along the parameter.  For a crossing of segments i < j the sign
    compares sin(theta_j - theta_i) with the orientation of the two
    directions, and the type is |k| for the even multiple k pi obtained by
    closing the arc [i, j] with the shorter fiber arc.
    """
    pts = np.asarray(points, dtype=float)
    d = np.roll(pts, -1, axis=0) - pts
    raw = np.arctan2(d[:, 1], d[:, 0])
    lifted = np.unwrap(np.concatenate([raw, raw[:1]]))
    theta = lifted[:-1]
    line_winding = int(round((lifted[-1] - lifted[0]) / math.pi))
    crossings = []
    for i, t, j, u in closed_polyline_crossings(pts):
        delta = theta[j] - theta[i]
        orient = d[i, 0] * d[j, 1] - d[i, 1] * d[j, 0]
        sign = 1 if math.sin(delta) * orient > 0.0 else -1
        ctype = abs(int(round((delta - math.remainder(delta, TWO_PI)) / math.pi)))
        m = len(pts)
        crossings.append(((i + t) / m, (j + u) / m, sign, ctype))
    table: dict[int, int] = {}
    for _, _, sign, ctype in crossings:
        if ctype:
            table[ctype] = table.get(ctype, 0) + sign
    table = {g: w for g, w in sorted(table.items()) if w}
    if line_winding != 0:
        certificate = ("non_contractible", None)
    elif crossings:
        g = min(crossings, key=lambda c: max(c[0], c[1]))[3]
        certificate = ("nonzero_invariant", g) if g > 0 else ("failure", None)
    else:
        certificate = ("failure", None)
    return {"line_winding": line_winding, "crossings": crossings,
            "table": table if line_winding == 0 else None,
            "certificate": certificate}


# ---------------------------------------------------------------------------
# bundle points as arrays of (x, y, lift)


def _line_distance(a, b):
    d = np.abs(a - b) % math.pi
    return np.minimum(d, math.pi - d)


def pl_membership(xyl, eps: float) -> tuple[bool, int | None]:
    """Membership verdict for a closed PL knot with vertices ``(x, y, lift)``.

    Condition 2 (adjacent gaps d0 = max(base distance, line-angle distance)
    below eps) is tested first, then condition 1 (zero total rotation, the
    sum of the shorter pi-periodic steps between adjacent lines).
    """
    v = np.asarray(xyl, dtype=float)
    nxt = np.roll(v, -1, axis=0)
    d_h = np.hypot(nxt[:, 0] - v[:, 0], nxt[:, 1] - v[:, 1])
    ang = v[:, 2] % math.pi
    d0 = np.maximum(d_h, _line_distance(ang, np.roll(ang, -1)))
    if np.any(d0 >= eps):
        return False, 2
    steps = [math.remainder(b - a, math.pi) for a, b in zip(ang, np.roll(ang, -1))]
    if abs(sum(steps)) >= 1e-9:
        return False, 1
    return True, None


def separation(xyl, window: float) -> float:
    """Minimum d0 over sample pairs further apart than ``window`` in parameter."""
    v = np.asarray(xyl, dtype=float)
    m = len(v)
    d_h = np.hypot(v[:, None, 0] - v[None, :, 0], v[:, None, 1] - v[None, :, 1])
    ang = v[:, 2] % math.pi
    d0 = np.maximum(d_h, _line_distance(ang[:, None], ang[None, :]))
    idx = np.arange(m)
    gap = np.abs(idx[:, None] - idx[None, :]) / m
    return float(np.min(d0[np.minimum(gap, 1.0 - gap) > window]))


def circle_lift(m: int, radius: float = 0.9) -> np.ndarray:
    """Tangent-line lift of the round circle at m uniform parameters."""
    u = TWO_PI * np.arange(m) / m
    return np.column_stack([radius * np.cos(u), radius * np.sin(u), u + 0.5 * math.pi])
