"""Command-line front end: tracing, comparison, invariants, PL reports, SVG.

All JSON reports carry a ``schema_version`` field, are written with sorted
keys, and are byte-identical across runs with the same arguments and seed.
Exit codes: 0 success, 1 failed assertion (e.g. ``--expect-equal`` with
unequal data), 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .curves import named_curve
from .eaton import eaton_metric, invisibility_check, loop_winding
from .geometry import (IntegrationOptions, SingularChordError, chord_impact,
                       integrate_geodesic, load_metric)
from .knot import (analyze_loop, choose_refinement_n, embedding_separation,
                   refine_stage_samples)
from .lift import projectivize, unit_tangent_lift
from .scattering import (BoundaryIsometry, BoundaryVector, boundary_grid,
                         phi_map, scatter)
from .svg import render_annulus, render_rays

SCHEMA_VERSION = 1


def _write_json(obj, path) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _parse_grid(text: str) -> list[BoundaryVector]:
    if "x" in text:
        n_arcs, n_angles = (int(v) for v in text.lower().split("x"))
    else:
        total = int(text)
        n_arcs = max(2, int(round(math.sqrt(total))))
        n_angles = max(1, total // n_arcs)
    return boundary_grid(n_arcs, n_angles)


def _parallel_fan(count: int, exclusion: float = 2e-3) -> list[BoundaryVector]:
    """Entries of a family of parallel rays, skipping the central chord."""
    fan = []
    for j in range(count):
        phi = math.pi * (0.5 + (j + 0.5) / count)
        if abs(math.sin(phi)) < exclusion:
            continue
        chi = math.acos(-math.sin(phi))
        fan.append(BoundaryVector(phi / (2 * math.pi), chi))
    return fan


def _integration_options(args) -> IntegrationOptions:
    return IntegrationOptions(step_tol=args.step_tol)


def _cmd_trace(args) -> int:
    metric = load_metric(args.metric)
    entry = BoundaryVector(args.arc, args.angle)
    path = integrate_geodesic(metric, entry, _integration_options(args))
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "trace",
        "metric": metric.name,
        "entry": {"arc": entry.arc, "angle": entry.angle},
        "trapped": path.trapped,
        "tau": None if path.trapped else path.length,
        "exit": None if path.trapped else {"arc": path.exit.arc,
                                           "angle": path.exit.angle},
        "winding": None if path.trapped else loop_winding(path),
        "samples": [[round(x, 9), round(y, 9)] for x, y in path.points[:: args.stride]],
    }
    _write_json(report, args.out)
    if args.emit_svg:
        render_rays([path], args.emit_svg, radius=metric.radius)
    return 0


def _cmd_scatter(args) -> int:
    metric = load_metric(args.metric)
    rec = scatter(metric, BoundaryVector(args.arc, args.angle),
                  _integration_options(args))
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "scatter",
        "metric": metric.name,
        "entry": {"arc": rec.entry.arc, "angle": rec.entry.angle},
        "trapped": rec.trapped,
        "exit": None if rec.trapped else {"arc": rec.exit.arc,
                                          "angle": rec.exit.angle},
        "tau": None if rec.trapped else rec.tau,
    }
    _write_json(report, args.out)
    return 0


def _cmd_compare(args) -> int:
    metric_m = load_metric(args.m1)
    metric_n = load_metric(args.m2)
    h = BoundaryIsometry(args.h_shift, args.h_reflect)
    grid = _parse_grid(args.grid)
    opts = _integration_options(args)
    max_angle = 0.0
    max_arc = 0.0
    trapped = 0
    excluded = 0
    excesses = []
    for v in grid:
        try:
            rec_m = scatter(metric_m, v, opts)
            rec_n = scatter(metric_n, phi_map(h, v), opts)
        except SingularChordError:
            excluded += 1
            continue
        if rec_m.trapped or rec_n.trapped:
            trapped += 1
            continue
        lhs = phi_map(h, rec_m.exit)
        max_angle = max(max_angle, abs(lhs.angle - rec_n.exit.angle))
        d = abs(lhs.arc - rec_n.exit.arc) % 1.0
        max_arc = max(max_arc, min(d, 1.0 - d))
        excesses.append(rec_n.tau - rec_m.tau)
    mean = sum(excesses) / len(excesses) if excesses else None
    excess_dev = max(abs(e - mean) for e in excesses) if excesses else None
    equal = (trapped == 0 and bool(excesses)
             and max_angle < args.tol and max_arc < args.tol)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "compare",
        "m1": metric_m.name,
        "m2": metric_n.name,
        "grid": args.grid,
        "tol": args.tol,
        "equal": equal,
        "max_angle_dev": max_angle,
        "max_arc_dev": max_arc,
        "trapped_count": trapped,
        "excluded": excluded,
        "mean_excess": mean,
        "excess_dev": excess_dev,
    }
    _write_json(report, args.out)
    if args.expect_equal and not equal:
        print("compare: metrics are NOT scattering-equal", file=sys.stderr)
        return 1
    return 0


def _cmd_eaton(args) -> int:
    metric = eaton_metric()
    opts = _integration_options(args)
    grid = _parse_grid(args.grid)
    usable = []
    for v in grid:
        try:
            chord_impact(metric, v, opts)
        except SingularChordError:
            continue
        usable.append(v)
    if not usable:
        raise ValueError("every grid entry passes through the exclusion zone")
    rep = invisibility_check(usable, args.tol, metric=metric, opts=opts)
    circuits_ok = all(abs(w) == 1 for w in rep.windings)
    passed = rep.passed if args.check == "invisibility" else circuits_ok
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "eaton",
        "check": args.check,
        "grid": args.grid,
        "tol": args.tol,
        "entries": len(rep.records),
        "excluded": len(grid) - len(usable),
        "max_direction_dev": rep.max_direction_dev,
        "max_exit_dev": rep.max_exit_dev,
        "windings": sorted(set(rep.windings)),
        "circuits_ok": circuits_ok,
        "passed": passed,
    }
    _write_json(report, args.out)
    if args.emit_svg:
        paths = [integrate_geodesic(metric, v, opts)
                 for v in _parallel_fan(args.svg_rays)]
        render_rays(paths, args.emit_svg, radius=metric.radius)
    return 0 if passed else 1


def _cmd_invariant(args) -> int:
    curve = named_curve(args.curve)
    analysis = analyze_loop(curve, samples=args.samples)
    lifted = unit_tangent_lift(curve, args.samples)
    table = analysis.table.entries if analysis.table is not None else {}
    cert = analysis.certificate
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "invariant",
        "curve": args.curve,
        "windings": {"turning": lifted.turning_number,
                     "line": analysis.line_winding},
        "crossings": [
            {"l": round(c.l, 9), "l_prime": round(c.l_prime, 9),
             "sign": c.sign, "type": c.ctype}
            for c in analysis.crossings
        ],
        "W": {str(g): w for g, w in (analysis.table.entries.items()
                                     if analysis.table else [])},
        "certificate": {"kind": cert.kind, "g": cert.g,
                        "line_winding": cert.line_winding},
    }
    _write_json(report, args.out)
    if args.emit_svg:
        render_annulus(projectivize(lifted), args.emit_svg)
    return 0


def _cmd_approx_pl(args) -> int:
    curve = named_curve(args.curve)
    proj = projectivize(unit_tangent_lift(curve, args.samples))
    pts = proj.proj_points()

    def iso(s, t):
        return pts[int(round((t % 1.0) * len(pts))) % len(pts)]

    # Cap n well below the sampling resolution: beyond it adjacent vertices
    # would collapse onto the same sample and fake zero gaps.
    n = choose_refinement_n(iso, args.eps, max_n=max(8, args.samples // 4))
    stages = np.linspace(0.0, 1.0, args.stages)
    rows = []
    for l in stages:
        samples = refine_stage_samples(iso, n, float(l), 0.0, m=args.samples // 2)
        sep = embedding_separation(samples, window=2.0 / n)
        rows.append((float(l), sep))
    lines = ["stage,separation"] + [f"{l:.6f},{sep:.9f}" for l, sep in rows]
    Path(args.report).write_text("\n".join(lines) + "\n")
    print(f"approx-pl: n={n}, separations "
          + " ".join(f"{sep:.4f}" for _, sep in rows))
    return 0 if all(sep > 0.0 for _, sep in rows) else 1


def _cmd_render(args) -> int:
    if args.curve:
        curve = named_curve(args.curve)
        render_annulus(projectivize(unit_tangent_lift(curve, args.samples)), args.out)
        return 0
    metric = load_metric(args.metric)
    grid = _parse_grid(args.grid)
    paths = [integrate_geodesic(metric, v, _integration_options(args)) for v in grid]
    render_rays(paths, args.out, radius=metric.radius)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lens-scatter",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version",
                    version=f"lens-scatter {__version__}")
    ap.add_argument("--seed", type=int, default=42,
                    help="seed for randomized subcommands (fixed default)")
    ap.add_argument("--step-tol", type=float, default=1e-7,
                    help="exit-accuracy budget for geodesic integration")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="trace one geodesic and dump its polyline")
    p.add_argument("--metric", required=True)
    p.add_argument("--arc", type=float, required=True)
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--stride", type=int, default=4)
    p.add_argument("--out", default="-")
    p.add_argument("--emit-svg")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("scatter", help="exit vector and length of one entry")
    p.add_argument("--metric", required=True)
    p.add_argument("--arc", type=float, required=True)
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_scatter)

    p = sub.add_parser("compare", help="scattering/lens data comparison report")
    p.add_argument("--m1", required=True)
    p.add_argument("--m2", required=True)
    p.add_argument("--grid", default="16x8")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--h-shift", type=float, default=0.0)
    p.add_argument("--h-reflect", action="store_true")
    p.add_argument("--expect-equal", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("eaton", help="lens invisibility / circuit checks")
    p.add_argument("--check", choices=("invisibility", "circuit"),
                   default="invisibility")
    p.add_argument("--grid", default="64")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--svg-rays", type=int, default=12)
    p.add_argument("--out", default="-")
    p.add_argument("--emit-svg")
    p.set_defaults(func=_cmd_eaton)

    p = sub.add_parser("invariant", help="crossing table of a curve's lift")
    p.add_argument("--curve", required=True)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--out", default="-")
    p.add_argument("--emit-svg")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("approx-pl", help="PL straightening separation report")
    p.add_argument("--curve", required=True)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--stages", type=int, default=5)
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_approx_pl)

    p = sub.add_parser("render", help="SVG of a ray fan or a lift annulus")
    p.add_argument("--metric")
    p.add_argument("--curve")
    p.add_argument("--grid", default="12x2")
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)
    return ap


def main(argv=None) -> int:
    threads = os.environ.get("LENS_SCATTER_THREADS")
    if threads is not None and (not threads.isdigit() or int(threads) < 1):
        print("LENS_SCATTER_THREADS must be a positive integer", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, RuntimeError, json.JSONDecodeError) as exc:
        print(f"lens-scatter: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
