"""Shared fixtures and independent test oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lens_scatter.eaton import eaton_metric
from lens_scatter.geometry import ConformalMetric
from lens_scatter.knot import random_corpus
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


# --- independent oracles ----------------------------------------------------


def brute_force_crossing_count(points: np.ndarray) -> int:
    """O(m^2) pairwise polyline segment intersections, grouped by location.

    Independent of the production detector (no KD-tree pruning, no Newton
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

    Independent of the production detector's KD-tree pruning: all
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
