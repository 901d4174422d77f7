"""Crossings, signs, types, and signed-count invariants of framed closed
curves in the line bundle over the disk, with the piecewise-linear
approximation machinery.

A *framed loop* couples a closed base curve in the plane with a continuous
lift of a direction-angle field along it (the frame).  For the main
pipeline the frame is the normalized velocity of the base curve; synthetic
frames and piecewise-linear knots go through the same interface.

A crossing is an unordered parameter pair ``(l, l')`` with equal base
points.  Its sign compares the orientation of the frame pair with that of
the velocity pair; its type is the fiber class of the loop obtained by
closing the ``[l, l']`` arc with the shorter fiber arc between the two
frame vectors, measured as total line rotation in units of pi (an even
integer on the disk, 0 being the trivial class).  The table ``g -> W_g``
counts crossings of each nonzero type with signs.

A framed loop hands out single values as Python floats: ``base_point`` and
``base_velocity`` give ``(x, y)`` tuples, ``frame_angle`` a float.  Sample
sets, such as a loop's ``sample_points``, are numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import ParametricCurve, TrigCurve
from .lift import (FLAT_INJECTIVITY_RADIUS, MinimalLinearCurve, NonIntegralClassError,
                   PLVertexPath, ProjPoint, _check_edges, _circ_dist, _contractible, _edge_ends,
                   _edge_gaps, _vertex_array, _whole_number, dist_components, unit_tangent_lift)

TWO_PI = 2.0 * math.pi

_CROSSING_TOL = 1e-9  # base-point residual of a polished crossing or an incidence
_ANGULAR_TOL = 1e-6   # smallest |sin| between two branches before they count as tangent
_SEPARATION_BLOCK = 8192  # pairs per block of embedding_separation's scan


class SelfTangencyError(ValueError):
    """Two branches meet with parallel directions: not a regular crossing."""


class DegenerateCrossingError(ValueError):
    """Crossing refinement failed or the frame pair is degenerate."""


# ---------------------------------------------------------------------------
# framed loops


class _FramedLoop:
    """Base of the framed-loop views; ``period_shift`` is the frame's
    increment over one period."""

    period_shift: float

    def line_winding(self) -> int:
        return _whole_number(self.period_shift / math.pi, 1e-6, "line rotation in half-turns")


class TangentLoop(_FramedLoop):
    """Framed loop whose frame is the unit tangent of its own base curve.

    The crossing search runs on the lift's sample points, and each
    velocity is evaluated once per parameter and cached as an ``(x, y)``
    tuple, shared by crossing polishing, signs and types.
    """

    def __init__(self, curve: ParametricCurve, samples: int = 512):
        self.curve = curve
        self.lifted = unit_tangent_lift(curve, samples)
        self.period_shift = self.lifted.total_turn
        self._velocities: dict[float, tuple[float, float]] = {}

    def sample_points(self) -> np.ndarray:
        return self.lifted.points

    def base_point(self, l: float) -> tuple[float, float]:
        return tuple(self.curve.point(l % 1.0).tolist())

    def _velocity(self, lw: float) -> tuple[float, float]:
        v = self._velocities.get(lw)
        if v is None:
            v = self._velocities[lw] = tuple(self.curve.velocity(lw).tolist())
        return v

    def base_velocity(self, l: float) -> tuple[float, float]:
        return self._velocity(l % 1.0)

    def frame_angle(self, l: float) -> float:
        """Direction angle of the velocity at ``l``; the nearest sample of
        the lift pins its 2 pi branch."""
        lw = l % 1.0
        theta = self.lifted.theta
        i = min(int(round(lw * len(theta))), len(theta) - 1)
        v = self._velocity(lw)
        return float(theta[i] + math.remainder(math.atan2(v[1], v[0]) - theta[i], TWO_PI))


class PLLoop(_FramedLoop):
    """Framed loop view of a piecewise-linear knot (exact crossing search)."""

    def __init__(self, path: PLVertexPath):
        self.path = path
        self.period_shift = path.total_rotation

    def base_point(self, l: float) -> tuple[float, float]:
        x, y, _ = self.path.point_at(l)
        return x, y

    def base_velocity(self, l: float) -> tuple[float, float]:
        n = self.path.n
        p, q = _edge_ends(self.path.xyl, min(int((l % 1.0) * n), n - 1))
        return q.x - p.x, q.y - p.y

    def frame_angle(self, l: float) -> float:
        return self.path.point_at(l).lift


def as_framed_loop(obj):
    if isinstance(obj, _FramedLoop):
        return obj
    if isinstance(obj, PLVertexPath):
        return PLLoop(obj)
    return TangentLoop(obj)


# ---------------------------------------------------------------------------
# crossings


@dataclass
class Crossing:
    """Unordered double point: canonical parameters l < l', sign and type."""

    l: float
    l_prime: float
    point: tuple[float, float]
    sign: int | None = None
    ctype: int | None = None


@dataclass(frozen=True)
class InvariantTable:
    """Signed crossing counts per nonzero type; absent keys count zero."""

    entries: dict

    @classmethod
    def from_crossings(cls, crossings) -> "InvariantTable":
        tally: dict[int, int] = {}
        for c in crossings:
            if c.ctype is None or c.sign is None or c.ctype == 0:
                continue
            tally[c.ctype] = tally.get(c.ctype, 0) + c.sign
        return cls({g: w for g, w in sorted(tally.items()) if w != 0})

    def get(self, g: int) -> int:
        return self.entries.get(g, 0)


@dataclass(frozen=True)
class Certificate:
    kind: str  # "non_contractible" | "nonzero_invariant" | "failure"
    g: int | None = None
    line_winding: int = 0


@dataclass
class LoopAnalysis:
    line_winding: int
    contractible: bool
    crossings: list
    table: InvariantTable | None
    certificate: Certificate


def _segment_hits(p1, p2, p3, p4, eps: float):
    """Row-wise test of segments ``p1p2`` against ``p3p4``: the hit mask and
    the parameters ``t``, ``u``, both within ``[-eps, 1 + eps]`` for a hit;
    near-parallel rows never hit."""
    d1 = p2 - p1
    d2 = p4 - p3
    w = p3 - p1
    denom = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    scale = np.hypot(d1[:, 0], d1[:, 1]) * np.hypot(d2[:, 0], d2[:, 1]) + 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (w[:, 0] * d2[:, 1] - w[:, 1] * d2[:, 0]) / denom
        u = (w[:, 0] * d1[:, 1] - w[:, 1] * d1[:, 0]) / denom
    hit = ((np.abs(denom) >= 1e-15 * scale)
           & (-eps <= t) & (t <= 1.0 + eps) & (-eps <= u) & (u <= 1.0 + eps))
    return hit, t, u


def _polyline_hits(pts: np.ndarray, eps: float):
    """Meeting pairs of non-adjacent segments of the closed polyline ``pts``.

    A sweep over segment bounding boxes yields every candidate: boxes
    sorted by left edge, each paired with the later boxes that start before
    its right edge, kept where the y-ranges overlap too.  The boxes are
    padded by 1e-6 of the longest segment, since a hit within the ``eps``
    window may lie just past a segment's end.  Returns index arrays
    ``i < j`` and parameters ``t``, ``u`` in ``(i, j)`` order, the order
    in which ``_dedup`` keeps the first of near-equal hits, then every
    segment's vector ``d`` and length ``h``.
    """
    m = len(pts)
    nxt = np.concatenate((pts[1:], pts[:1]))
    d = nxt - pts
    h = np.hypot(d[:, 0], d[:, 1])
    pad = 1e-6 * float(np.max(h))
    lo = np.minimum(pts, nxt) - pad
    hi = np.maximum(pts, nxt) + pad
    by_left = np.argsort(lo[:, 0], kind="stable")
    # Sorted box k meets in x the boxes k + 1 .. end[k] - 1.
    end = np.searchsorted(lo[by_left, 0], hi[by_left, 0], side="right")
    count = end - np.arange(1, m + 1)
    a = np.repeat(np.arange(m), count)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count)
    i, j = by_left[a], by_left[b]
    overlap = (lo[i, 1] <= hi[j, 1]) & (lo[j, 1] <= hi[i, 1])
    i, j = np.minimum(i, j)[overlap], np.maximum(i, j)[overlap]
    gap = (j - i) % m
    keep = np.minimum(gap, m - gap) > 1
    i, j = i[keep], j[keep]
    hit, t, u = _segment_hits(pts[i], nxt[i], pts[j], nxt[j], eps)
    i, j, t, u = i[hit], j[hit], t[hit], u[hit]
    order = np.lexsort((j, i))
    return i[order], j[order], t[order], u[order], d, h


def _polish_crossing(loop, l: float, lp: float):
    """Newton-refine base_point(l) == base_point(l'), then check transversality.

    Returns ``l``, ``l'`` mod 1 and the base point at ``l`` it converged on.
    """
    x, y = loop.base_point(l)
    x2, y2 = loop.base_point(lp)
    fx, fy = x - x2, y - y2
    for _ in range(30):
        if math.hypot(fx, fy) < 1e-13:
            break
        a1, b1 = loop.base_velocity(l)
        a2, b2 = loop.base_velocity(lp)
        det = -a1 * b2 + b1 * a2
        if abs(det) < 1e-14:
            raise SelfTangencyError("parallel branches at a coincident point")
        l -= (-fx * b2 + fy * a2) / det
        lp -= (a1 * fy - b1 * fx) / det
        x, y = loop.base_point(l)
        x2, y2 = loop.base_point(lp)
        fx, fy = x - x2, y - y2
    if math.hypot(fx, fy) > _CROSSING_TOL:
        raise DegenerateCrossingError("crossing refinement did not converge")
    a1, b1 = loop.base_velocity(l)
    a2, b2 = loop.base_velocity(lp)
    s = abs(a1 * b2 - b1 * a2) / (math.hypot(a1, b1) * math.hypot(a2, b2))
    if s < _ANGULAR_TOL:
        raise SelfTangencyError("branches meet tangentially")
    return l % 1.0, lp % 1.0, (x, y)


def _dedup(raw, merge_tol: float):
    def near(a, b):
        return _circ_dist(a, b, 1.0) < merge_tol

    out: list[Crossing] = []
    for l, lp, pt in raw:
        lo, hi = (l, lp) if l <= lp else (lp, l)
        for c in out:
            if (near(c.l, lo) and near(c.l_prime, hi)) or (near(c.l, hi) and near(c.l_prime, lo)):
                break
        else:
            out.append(Crossing(lo, hi, pt))
    out.sort(key=lambda c: (c.l, c.l_prime))
    return out


def find_crossings(loop) -> list[Crossing]:
    """All double points of the base curve, signs and types unfilled.

    A smooth loop (a curve, a :class:`TangentLoop` or another framed loop)
    gives its ``m`` samples at the parameters ``i / m`` as a closed
    polyline, which for a tangent loop is its lift's points; a PL knot
    (:class:`PLLoop` or :class:`~lens_scatter.lift.PLVertexPath`) uses its
    edges.  Both take segment pairs from a sweep over segment bounding
    boxes and test them in one vectorized pass, in segment-pair order.
    Smooth hits are Newton-polished on the curve until the two base points
    agree within 1e-9; PL hits are exact, strictly interior to both edges,
    and not polished.  A triple point shows up as its three parameter
    pairs.  Raises
    :class:`SelfTangencyError` when two branches meet at an angle whose
    ``|sin|`` is below 1e-6.
    """
    loop = as_framed_loop(loop)
    if isinstance(loop, PLLoop):
        return _pl_crossings(loop)
    pts = loop.sample_points()
    m = len(pts)
    i, j, t, u, _, _ = _polyline_hits(pts, 1e-9)
    raw = [_polish_crossing(loop, l, lp)
           for l, lp in zip(((i + t) / m).tolist(), ((j + u) / m).tolist())]
    return _dedup(raw, merge_tol=max(2.0 / m, 1e-5))


def _pl_crossings(loop: PLLoop) -> list[Crossing]:
    base = loop.path.xyl[:, :2]
    n = len(base)
    # Negative eps keeps hits strictly interior: a vertex sitting on an edge
    # is a singular configuration, not a crossing.
    i, j, t, u, d, h = _polyline_hits(base, -1e-9)
    if np.any(np.abs(d[i, 0] * d[j, 1] - d[i, 1] * d[j, 0]) / (h[i] * h[j]) < _ANGULAR_TOL):
        raise SelfTangencyError("PL edges cross tangentially")
    raw = [(l, lp, loop.base_point(l))
           for l, lp in zip(((i + t) / n).tolist(), ((j + u) / n).tolist())]
    return _dedup(raw, merge_tol=1e-7)


def crossing_sign(crossing: Crossing, loop) -> int:
    """+1 when the frame pair and the velocity pair agree in orientation."""
    loop = as_framed_loop(loop)
    dchi = loop.frame_angle(crossing.l_prime) - loop.frame_angle(crossing.l)
    s1 = math.sin(dchi)
    v1 = loop.base_velocity(crossing.l)
    v2 = loop.base_velocity(crossing.l_prime)
    s2 = (v1[0] * v2[1] - v1[1] * v2[0]) / (math.hypot(*v1) * math.hypot(*v2))
    if abs(s1) < _ANGULAR_TOL:
        raise DegenerateCrossingError("frame vectors parallel at the crossing")
    if abs(s2) < _ANGULAR_TOL:
        raise SelfTangencyError("velocity vectors parallel at the crossing")
    return 1 if s1 * s2 > 0.0 else -1


def crossing_type(crossing: Crossing, loop) -> int:
    """Fiber class of the smoothed loop at a crossing, as a whole number.

    Closing the lift arc from ``l`` to ``l'`` with the reversed shorter
    fiber arc gives a loop whose total line rotation is an even multiple of
    pi; the type is that multiple's absolute value.  For loops whose frame
    closes up (zero period shift, the domain of the signed-count table) the
    complementary arc ``[l', l + 1]`` lands in the same class.  The
    rotation is ``d - remainder(d, 2 pi)`` for the frame gap ``d``, a whole
    number of turns up to rounding.
    """
    loop = as_framed_loop(loop)
    chi_l = loop.frame_angle(crossing.l)
    chi_lp = loop.frame_angle(crossing.l_prime)
    total = (chi_lp - chi_l) - math.remainder(chi_lp - chi_l, TWO_PI)
    return abs(round(total / math.pi))


def first_return_crossing(crossings) -> Crossing:
    """The crossing closing the earliest self-intersecting initial arc."""
    if not crossings:
        raise ValueError("no crossings")
    return min(crossings, key=lambda c: max(c.l, c.l_prime))


def analyze_loop(loop) -> LoopAnalysis:
    """Full pipeline: winding, crossings with signs/types, table, certificate."""
    loop = as_framed_loop(loop)
    lw = loop.line_winding()
    crossings = find_crossings(loop)
    for c in crossings:
        c.sign = crossing_sign(c, loop)
        c.ctype = crossing_type(c, loop)
    contractible = lw == 0
    table = InvariantTable.from_crossings(crossings) if contractible else None
    if not contractible:
        cert = Certificate("non_contractible", None, lw)
    elif crossings:
        g = first_return_crossing(crossings).ctype
        cert = (Certificate("nonzero_invariant", g, lw) if g and g > 0
                else Certificate("failure", None, lw))
    else:
        cert = Certificate("failure", None, lw)
    return LoopAnalysis(lw, contractible, crossings, table, cert)


def w_invariant(curve) -> InvariantTable:
    """Signed crossing counts per nonzero type of the projectivized tangent lift.

    Defined for curves whose lift is contractible (line winding zero); a
    non-contractible lift yields an empty table (the nontriviality
    certificate then short-circuits through the winding instead).
    """
    analysis = analyze_loop(curve)
    return analysis.table if analysis.table is not None else InvariantTable({})


def certify_nontrivial(curve) -> Certificate:
    """Nontriviality certificate for the projectivized tangent lift."""
    return analyze_loop(curve).certificate


# ---------------------------------------------------------------------------
# piecewise-linear machinery


@dataclass(frozen=True)
class PLMembership:
    member: bool
    failed_condition: int | None
    detail: str


def pl_validate(vertices, n: int, eps: float) -> PLMembership:
    """Membership test for the class of contractible PL knots with n vertices,
    adjacent gaps below eps, and minimal-linear edges.

    Conditions: (1) contractible, (2) all adjacent ``d0`` gaps below
    ``eps``, (3) edges are the minimal linear curves (automatic for vertex
    input once the gaps admit them).  Reports the first violated condition.
    """
    if n < 4:
        raise ValueError("need n >= 4 vertices")
    if not (0.0 < eps < min(FLAT_INJECTIVITY_RADIUS, 0.5 * math.pi)):
        raise ValueError("eps must lie in (0, min(inj, pi/2))")
    xyl = _vertex_array(vertices)
    if len(xyl) != n:
        raise ValueError(f"expected {n} vertices, got {len(xyl)}")
    d_h, steps = _edge_gaps(xyl)
    d0, k = _first_wide_gap(xyl, d_h, steps, eps)
    if k is not None:
        return PLMembership(False, 2,
                            f"gap d0={float(d0[k]):.4f} at vertex {k} reaches eps={eps}")
    # Every gap is below eps < pi/2, so only a fiber step within 1e-12 of
    # pi/2 can still leave an edge without a minimal linear curve.
    _check_edges(xyl, d_h, steps)
    # Summed in order, as PLVertexPath.total_rotation is.
    total = float(np.cumsum(steps)[-1])
    if not _contractible(total):
        return PLMembership(False, 1, f"total rotation {total:.4f} rad is nonzero")
    return PLMembership(True, None, "member")


def _first_wide_gap(xyl, d_h, steps, limit: float):
    """``d0`` of each edge ``k -> k + 1`` of the closed vertex array ``xyl``,
    from its :func:`~lens_scatter.lift._edge_gaps`, and the first ``k``
    whose ``d0`` reaches ``limit`` (None if none does).

    As :func:`dist_components` run over the edges up to that ``k`` would,
    this raises :class:`~lens_scatter.lift.TransportUndefinedError` when the
    ends of edge ``k`` are an injectivity radius apart.  With ``limit`` at
    that radius every edge is checked, since ``d_v`` never exceeds pi/2.
    """
    d0 = np.maximum(d_h, np.abs(steps))
    wide = np.flatnonzero(d0 >= limit)
    if not wide.size:
        return d0, None
    k = int(wide[0])
    if d_h[k] >= FLAT_INJECTIVITY_RADIUS:
        dist_components(*_edge_ends(xyl, k))
    return d0, k


def _straighten(G, n: int, l: float, s: float, ts) -> list[ProjPoint]:
    """The straightening interpolation of ``G(s, .)`` at the parameters ``ts``.

    On segment ``k``, local time below ``l`` moves along the minimal linear
    curve from ``G(s, k/n)`` toward ``G(s, (k + l)/n)``, shared by the
    segment's parameters; past ``l`` the point follows the family.  ``l = 0``
    reproduces the family and ``l = 1`` is the PL knot through ``n`` samples.
    """
    segments: dict[int, MinimalLinearCurve] = {}
    out = []
    for t in ts:
        u = (t % 1.0) * n
        k = min(int(u), n - 1)
        t_local = u - k
        if l > 0.0 and t_local < l:
            if k not in segments:
                segments[k] = MinimalLinearCurve(G(s, k / n), G(s, ((k + l) / n) % 1.0))
            out.append(segments[k].point_at(t_local / l))
        else:
            out.append(G(s, ((k + t_local) / n) % 1.0))
    return out


def pl_refine(G, n: int, l: float, s: float, t: float) -> ProjPoint:
    """Evaluate the straightening interpolation at global curve parameter t."""
    return _straighten(G, n, l, s, (t,))[0]


def refine_stage_samples(G, n: int, l: float, s: float, m: int = 256) -> list[ProjPoint]:
    """:func:`pl_refine` at the ``m`` parameters ``i / m``."""
    return _straighten(G, n, l, s, (i / m for i in range(m)))


def pl_snapshot(G, n: int, s: float) -> PLVertexPath:
    """The PL knot through the n samples of G(s, .) (the l = 1 stage)."""
    return PLVertexPath([G(s, k / n) for k in range(n)])


def choose_refinement_n(G, eps: float, *, max_n: int = 4096) -> int:
    """Double n from 8 until adjacent gaps are below eps/4 and below half the
    embedding separation of the family at five isotopy times.

    Each time's separation is measured once, on 256 samples over the pairs
    more than a quarter period apart (the window ``2/n`` of the first n), so
    it stays a self-approach of the family however fine n gets.  Times with
    the same samples, as in a family that ignores its isotopy time, share
    one separation, and times with the same vertices share one largest gap.
    """
    ss = np.linspace(0.0, 1.0, 5)
    samples = [tuple(G(s, i / 256) for i in range(256)) for s in ss]
    seps = {key: embedding_separation(key, window=2.0 / 8) for key in dict.fromkeys(samples)}
    largest_gap: dict[tuple, float] = {}
    n = 8
    while n <= max_n:
        ok = True
        for s, key in zip(ss, samples):
            verts = tuple(G(s, k / n) for k in range(n))
            if verts not in largest_gap:
                xyl = _vertex_array(verts)
                d0, _ = _first_wide_gap(xyl, *_edge_gaps(xyl), FLAT_INJECTIVITY_RADIUS)
                largest_gap[verts] = float(np.max(d0))
            if largest_gap[verts] >= min(0.25 * eps, 0.5 * seps[key]):
                ok = False
                break
        if ok:
            return n
        n *= 2
    raise RuntimeError(f"no admissible n up to {max_n}; family too tight for eps={eps}")


def embedding_separation(samples, window: float) -> float:
    """Minimum pairwise d0 between samples at circular parameter distance
    beyond ``window``; a positive value certifies embeddedness at the
    sampling resolution.

    Of ``m`` samples, ``i`` and ``(i + c) mod m`` lie ``c / m`` apart for
    the circular gap ``c <= m / 2``, and their pair is kept when ``c / m >
    window``: both orders of a pair together, so the value does not depend
    on the sample the loop starts at.  The kept gaps run up to ``m // 2``
    and are read, ``_SEPARATION_BLOCK // m`` at a time, as rows of a
    sliding window over the doubled samples, so each kept unordered pair is
    measured once (twice at ``c = m / 2``) and no index array is built.
    Time is O(m^2), the working set O(m + _SEPARATION_BLOCK).
    """
    xyl = _vertex_array(samples, "samples")
    m = len(xyl)
    end = m // 2 + 1
    # c / m grows with c, so the kept gaps are those from the first one on.
    first = next((c for c in range(end) if c / m > window), None) if m else None
    if first is None:
        raise ValueError("window excludes every sample pair")
    columns = (xyl[:, 0], xyl[:, 1], xyl[:, 2] % math.pi)
    x, y, angle = columns
    xs, ys, angles = (np.lib.stride_tricks.sliding_window_view(np.concatenate((v, v)), m)
                      for v in columns)
    step = max(1, _SEPARATION_BLOCK // m)
    best = np.inf
    for c0 in range(first, end, step):
        c1 = min(c0 + step, end)
        d0 = np.hypot(x - xs[c0:c1], y - ys[c0:c1])
        # Line angles lie in [0, pi], so the shorter arc between two of them
        # is min(da, pi - da) with no further reduction mod pi.
        da = np.abs(angle - angles[c0:c1])
        np.maximum(d0, np.minimum(da, math.pi - da, out=da), out=d0)
        best = np.minimum(best, np.min(d0))
    return float(best)


# ---------------------------------------------------------------------------
# random curve corpus


def random_corpus(count: int = 20, *, seed: int = 42) -> list[TrigCurve]:
    """Reproducible immersed closed curves without self-tangencies.

    Degree-4 trigonometric polynomials with random coefficients decaying
    like ``m^-1.5``, rescaled into the disk.  A candidate is rejected when
    its speed dips below 0.15 of the mean, when :func:`analyze_loop` on 512
    samples fails or two branches cross at ``|sin| < 0.05``, when it has
    more than 14 crossings, or when two crossing parameters lie closer
    than 5e-3: all of these would make crossing data ill-conditioned.
    """
    rng = np.random.default_rng(seed)
    grid, fine_grid = (np.linspace(0.0, 1.0, k, endpoint=False) for k in (512, 1024))
    out: list[TrigCurve] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 200 * count:
            raise RuntimeError("corpus rejection rate unexpectedly high")
        coeffs = perturbation_deltas(rng, (4, 4), 1.0)
        curve = TrigCurve(coeffs, name=f"corpus-{len(out)}")
        pts = curve.point(grid)
        rmax = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
        if rmax < 1e-3:
            continue
        curve = TrigCurve(coeffs * (0.85 / rmax), name=f"corpus-{len(out)}")
        v = curve.velocity(fine_grid)
        speed = np.hypot(v[:, 0], v[:, 1])
        if np.min(speed) < 0.15 * np.mean(speed):
            continue
        try:
            loop = TangentLoop(curve)
            crossings = analyze_loop(loop).crossings
        except (NonIntegralClassError, ValueError):
            continue
        # For a tangent frame this is also the |sin| between the velocities.
        if any(abs(math.sin(loop.frame_angle(c.l_prime) - loop.frame_angle(c.l))) < 0.05
               for c in crossings):
            continue
        if len(crossings) > 14:
            continue
        params = sorted([c.l for c in crossings] + [c.l_prime for c in crossings])
        if any(_circ_dist(a, b, 1.0) < 5e-3
               for a, b in zip(params, params[1:] + params[:1])
               if a != b):
            continue
        out.append(curve)
    return out


def perturbation_deltas(rng, shape, amplitude: float) -> np.ndarray:
    """Normal coefficients with the corpus's ``m^-1.5`` harmonic decay, times ``amplitude``.

    The weights are ``1 / (m sqrt m)``: each step is correctly rounded, so
    they do not depend on numpy's SIMD ``power``.
    """
    m = np.arange(1, shape[1] + 1)
    weights = 1.0 / (m * np.sqrt(m))
    return rng.normal(size=shape) * weights * amplitude
