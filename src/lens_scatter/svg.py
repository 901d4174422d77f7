"""Minimal SVG emission for ray fans and annulus projections of bundle curves.

Presentation only: geometry coordinates are rounded to 1e-6 and nothing
else about the files is covered by the determinism guarantees.  Points are
Python floats and the annulus takes libm's ``hypot``, ``cos`` and ``sin``,
so the module imports no numpy.
"""

from __future__ import annotations

import math

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf"]


def _fmt(v: float) -> str:
    return f"{v:.6f}".rstrip("0").rstrip(".")


def _polyline(points, color: str) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in points)
    return (f'<polyline fill="none" stroke="{color}" stroke-width="0.006" '
            f'points="{coords}"/>')


def _document(elements, extent: float) -> str:
    e = _fmt(extent)
    header = (f'<svg xmlns="http://www.w3.org/2000/svg" '
              f'viewBox="-{e} -{e} {_fmt(2 * extent)} {_fmt(2 * extent)}">')
    return "\n".join([header, *elements, "</svg>"]) + "\n"


def render_rays(paths, out_path, *, radius: float = 1.0) -> None:
    """Write traced geodesics inside the boundary circle."""
    elements = [f'<circle cx="0" cy="0" r="{_fmt(radius)}" fill="none" '
                f'stroke="#444444" stroke-width="0.008"/>']
    for i, path in enumerate(paths):
        elements.append(_polyline(path.points, _PALETTE[i % len(_PALETTE)]))
    with open(out_path, "w") as fh:
        fh.write(_document(elements, 1.12 * radius))


def render_annulus(proj_curve, out_path) -> None:
    """Project a bundle curve into an annulus for illustration.

    The fiber coordinate runs around the annulus (a line angle of pi maps
    to a full turn) while the base radius interpolates between the inner
    rim (radius 0.55) and the outer rim (radius 1); fiber winding is
    therefore read off as winding of the drawn curve around the hole.
    """
    inner, outer = 0.55, 1.0
    elements = [f'<circle cx="0" cy="0" r="{_fmt(r)}" fill="none" '
                f'stroke="#444444" stroke-width="0.008"/>' for r in (inner, outer)]
    pts = proj_curve.proj_points()
    base_r = [math.hypot(p.x, p.y) for p in pts]
    rmax = max(max(base_r), 1e-9)
    xy = []
    for r, p in zip(base_r, pts):
        rho = inner + (outer - inner) * (0.15 + 0.7 * r / rmax)
        ang = 2.0 * p.lift
        xy.append((rho * math.cos(ang), rho * math.sin(ang)))
    elements.append(_polyline(xy + xy[:1], _PALETTE[0]))
    with open(out_path, "w") as fh:
        fh.write(_document(elements, 1.12 * outer))
