"""Command-line front end: tracing, comparison, invariants, PL reports, SVG.

All JSON reports carry ``schema_version`` and ``command`` fields, are written
with sorted keys, and are byte-identical across runs with the same arguments
and seed.
Exit codes: 0 success, 1 failed assertion (e.g. ``--expect-equal`` with
unequal data), 2 bad input.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import lens_scatter as ls

from .svg import render_annulus, render_rays

SCHEMA_VERSION = 1


def _write_report(args, fields: dict) -> None:
    """Write ``fields`` under the report header as sorted-key JSON, to
    stdout for ``--out -`` and to the ``--out`` file otherwise."""
    report = {"schema_version": SCHEMA_VERSION, "command": args.command, **fields}
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)


def _parse_grid(text: str) -> list:
    try:
        counts = [int(v) for v in text.split("x")]
    except ValueError:
        counts = []
    if len(counts) == 2:
        n_arcs, n_angles = counts
    elif len(counts) == 1:
        total = counts[0]
        if total < 2:
            raise ValueError(f"--grid count must be at least 2, got {total}")
        n_arcs = max(2, int(round(math.sqrt(total))))
        n_angles = max(1, total // n_arcs)
    else:
        raise ValueError(f"--grid must be a count N or AxB, got {text!r}")
    return ls.boundary_grid(n_arcs, n_angles)


def _parallel_fan(count: int) -> list:
    """Entries of a family of ``count`` parallel rays across the disk."""
    phis = [math.pi * (0.5 + (j + 0.5) / count) for j in range(count)]
    return [ls.BoundaryVector(phi / (2 * math.pi), math.acos(-math.sin(phi))) for phi in phis]


def _traced_fan(metric, entries, opts, command: str, what: str) -> list:
    """The paths traced from ``entries`` in one ``per_angle`` pass, less the
    pole chords of a singular metric, which are numbered on stderr."""
    paths = ls.scattering.per_angle(metric, entries,
                                    lambda v: ls.integrate_geodesic(metric, v, opts))
    kept = [p for p in paths if p is not None]
    if not kept:
        raise ValueError(f"every {what} passes through the exclusion zone")
    skipped = [f"#{k}" for k, p in enumerate(paths, 1) if p is None]
    if skipped:
        noun = "entry" if len(skipped) == 1 else "entries"
        print(f"{command}: skipped {len(skipped)} {noun} of {len(paths)} whose chord "
              f"passes through the exclusion zone: {', '.join(skipped)}", file=sys.stderr)
    return kept


def _exit_fields(metric, entry, exit, tau) -> dict:
    """The ``metric``, ``entry``, ``trapped``, ``tau`` and ``exit`` fields of
    one ray's report; a trapped ray (``exit`` is ``None``) has no ``tau``."""
    return {
        "metric": metric.name,
        "entry": {"arc": entry.arc, "angle": entry.angle},
        "trapped": exit is None,
        "tau": None if exit is None else tau,
        "exit": None if exit is None else {"arc": exit.arc, "angle": exit.angle},
    }


def _cmd_trace(args) -> int:
    metric = ls.load_metric(args.metric)
    entry = ls.BoundaryVector(args.arc, args.angle)
    path = ls.integrate_geodesic(metric, entry, ls.IntegrationOptions(step_tol=args.step_tol))
    # Every stride-th sample, and the last one (the exit) wherever it falls.
    samples = path.points[:-1:args.stride] + path.points[-1:]
    try:
        winding = None if path.trapped else ls.loop_winding(path)
    except (ValueError, ls.geometry.NonIntegralWindingError):
        # A path through the origin has no polar-angle lift.
        winding = None
    _write_report(args, {
        **_exit_fields(metric, entry, path.exit, path.length),
        "winding": winding,
        "samples": [[round(x, 9), round(y, 9)] for x, y in samples],
    })
    if args.emit_svg:
        render_rays([path], args.emit_svg, radius=metric.radius)
    return 0


def _cmd_scatter(args) -> int:
    metric = ls.load_metric(args.metric)
    rec = ls.scatter(metric, ls.BoundaryVector(args.arc, args.angle),
                     ls.IntegrationOptions(step_tol=args.step_tol))
    _write_report(args, _exit_fields(metric, rec.entry, rec.exit, rec.tau))
    return 0


def _cmd_compare(args) -> int:
    metric_m = ls.load_metric(args.m1)
    metric_n = ls.load_metric(args.m2)
    rep = ls.compare_scattering(metric_m, metric_n,
                                ls.BoundaryIsometry(args.h_shift, args.h_reflect),
                                _parse_grid(args.grid), args.tol,
                                ls.IntegrationOptions(step_tol=args.step_tol))
    _write_report(args, {
        "m1": metric_m.name,
        "m2": metric_n.name,
        "grid": args.grid,
        "tol": args.tol,
        "equal": rep.equal,
        "max_angle_dev": rep.max_angle_dev,
        "max_arc_dev": rep.max_arc_dev,
        "trapped_count": rep.trapped_count,
        "excluded": rep.excluded,
        "mean_excess": rep.mean_excess,
        "excess_dev": rep.max_abs_dev,
    })
    if args.expect_equal and not rep.equal:
        print("compare: metrics are NOT scattering-equal", file=sys.stderr)
        return 1
    return 0


def _cmd_eaton(args) -> int:
    metric = ls.eaton_metric()
    opts = ls.IntegrationOptions(step_tol=args.step_tol)
    # Traced before the report is written: a fan of pole chords leaves none.
    fan = (_traced_fan(metric, _parallel_fan(args.svg_rays), opts, "eaton", "fan ray")
           if args.emit_svg else [])
    rep = ls.invisibility_check(_parse_grid(args.grid), args.tol, metric=metric, opts=opts)
    circuits_ok = all(abs(w) == 1 for w in rep.windings)
    passed = rep.passed if args.check == "invisibility" else circuits_ok
    _write_report(args, {
        "check": args.check,
        "grid": args.grid,
        "tol": args.tol,
        "entries": len(rep.records),
        "excluded": rep.excluded,
        "max_direction_dev": rep.max_direction_dev,
        "max_exit_dev": rep.max_exit_dev,
        "windings": sorted(set(rep.windings)),
        "circuits_ok": circuits_ok,
        "passed": passed,
    })
    if args.emit_svg:
        render_rays(fan, args.emit_svg, radius=metric.radius)
    return 0 if passed else 1


def _cmd_invariant(args) -> int:
    loop = ls.TangentLoop(ls.named_curve(args.curve), args.samples)
    analysis = ls.analyze_loop(loop)
    cert = analysis.certificate
    _write_report(args, {
        "curve": args.curve,
        "windings": {"turning": loop.lifted.turning_number,
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
    })
    if args.emit_svg:
        render_annulus(loop.lifted, args.emit_svg)
    return 0


def _cmd_approx_pl(args) -> int:
    curve = ls.named_curve(args.curve)
    pts = ls.unit_tangent_lift(curve, args.samples).proj_points()

    def iso(s, t):
        return pts[int(round((t % 1.0) * len(pts))) % len(pts)]

    # Cap n well below the sampling resolution: beyond it adjacent vertices
    # would collapse onto the same sample and fake zero gaps.
    n = ls.choose_refinement_n(iso, args.eps, max_n=max(8, args.samples // 4))
    # Spaced as np.linspace spaces them: k times the step, the last exactly 1.
    last = args.stages - 1
    stages = [k * (1.0 / last) for k in range(last)] + [1.0] if last else [0.0]
    rows = []
    for l in stages:
        samples = ls.knot.refine_stage_samples(iso, n, l, 0.0, m=args.samples // 2)
        rows.append((l, ls.embedding_separation(samples, window=2.0 / n)))
    lines = ["stage,separation"] + [f"{l:.6f},{sep:.9f}" for l, sep in rows]
    Path(args.report).write_text("\n".join(lines) + "\n")
    print(f"approx-pl: n={n}, separations "
          + " ".join(f"{sep:.4f}" for _, sep in rows))
    return 0 if all(sep > 0.0 for _, sep in rows) else 1


def _cmd_render(args) -> int:
    if (args.metric is None) == (args.curve is None):
        raise ValueError("render needs exactly one of --metric and --curve")
    if args.curve:
        curve = ls.named_curve(args.curve)
        render_annulus(ls.unit_tangent_lift(curve, args.samples), args.out)
        return 0
    metric = ls.load_metric(args.metric)
    opts = ls.IntegrationOptions(step_tol=args.step_tol)
    render_rays(_traced_fan(metric, _parse_grid(args.grid), opts, "render", "grid entry"),
                args.out, radius=metric.radius)
    return 0


_REQUIRED = object()

# The option table.  Each option maps its flag to its type and its default
# (or _REQUIRED); a bare flag has type None and defaults to False, and a
# tuple type lists the choices.  The global options come before the command.
_GLOBAL = {"--seed": (int, 42), "--step-tol": (float, 1e-7)}
_COMMANDS = {
    "trace": (_cmd_trace, "trace one geodesic and dump its polyline", {
        "--metric": (str, _REQUIRED), "--arc": (float, _REQUIRED),
        "--angle": (float, _REQUIRED), "--stride": (int, 4), "--out": (str, "-"),
        "--emit-svg": (str, None)}),
    "scatter": (_cmd_scatter, "exit vector and length of one entry", {
        "--metric": (str, _REQUIRED), "--arc": (float, _REQUIRED),
        "--angle": (float, _REQUIRED), "--out": (str, "-")}),
    "compare": (_cmd_compare, "scattering/lens data comparison report", {
        "--m1": (str, _REQUIRED), "--m2": (str, _REQUIRED), "--grid": (str, "16x8"),
        "--tol": (float, 1e-4), "--h-shift": (float, 0.0), "--h-reflect": (None, False),
        "--expect-equal": (None, False), "--out": (str, "-")}),
    "eaton": (_cmd_eaton, "lens invisibility / circuit checks", {
        "--check": (("invisibility", "circuit"), "invisibility"), "--grid": (str, "64"),
        "--tol": (float, 1e-4), "--svg-rays": (int, 12), "--out": (str, "-"),
        "--emit-svg": (str, None)}),
    "invariant": (_cmd_invariant, "crossing table of a curve's lift", {
        "--curve": (str, _REQUIRED), "--samples": (int, 512), "--out": (str, "-"),
        "--emit-svg": (str, None)}),
    "approx-pl": (_cmd_approx_pl, "PL straightening separation report", {
        "--curve": (str, _REQUIRED), "--eps": (float, 0.2), "--stages": (int, 5),
        "--samples": (int, 512), "--report": (str, _REQUIRED)}),
    "render": (_cmd_render, "SVG of a ray fan or a lift annulus", {
        "--metric": (str, None), "--curve": (str, None), "--grid": (str, "12x2"),
        "--samples": (int, 512), "--out": (str, _REQUIRED)}),
}


def _usage() -> str:
    def spell(options):
        words = []
        for flag, (kind, default) in options.items():
            if kind is not None:
                flag += " " + ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                               else kind.__name__.upper())
            words.append(flag if default is _REQUIRED else f"[{flag}]")
        return " ".join(words)

    lines = [f"usage: lens-scatter [-h] [--version] {spell(_GLOBAL)} COMMAND [OPTION ...]",
             "", "Options are spelled in full, as --opt VALUE or --opt=VALUE.", ""]
    for name, (_, summary, options) in _COMMANDS.items():
        lines += [f"  {name:<10} {summary}", f"  {'':<10} {spell(options)}"]
    return "\n".join(lines)


def _parse_args(argv) -> SimpleNamespace:
    """The command, its handler and every option of ``argv``, defaults
    filled in; malformed arguments raise ``ValueError``."""
    command, options, values = None, _GLOBAL, {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            print(_usage())
            raise SystemExit(0)
        if arg == "--version" and command is None:
            print(f"lens-scatter {ls.__version__}")
            raise SystemExit(0)
        if command is None and arg in _COMMANDS:
            command, options = arg, _COMMANDS[arg][2]
            continue
        flag, eq, text = arg.partition("=")
        if flag not in options:
            what = "command" if command is None and not arg.startswith("-") else "option"
            raise ValueError(f"unknown {what} {arg!r}" + (f" for {command}" if command else ""))
        kind = options[flag][0]
        if kind is None:
            if eq:
                raise ValueError(f"{flag} takes no value, got {arg!r}")
            values[flag] = True
            continue
        if not eq:
            text = next(args, None)
            if text is None:
                raise ValueError(f"{flag} needs a value")
        if isinstance(kind, tuple):
            if text not in kind:
                raise ValueError(f"{flag} must be one of {', '.join(kind)}, got {text!r}")
            values[flag] = text
            continue
        try:
            values[flag] = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{flag} must be {noun}, got {text!r}") from None
    if command is None:
        raise ValueError(f"a command is needed: {', '.join(_COMMANDS)}")
    func, _, options = _COMMANDS[command]
    for flag, (_, default) in (*_GLOBAL.items(), *options.items()):
        if flag not in values:
            if default is _REQUIRED:
                raise ValueError(f"{command} needs {flag}")
            values[flag] = default
    return SimpleNamespace(command=command, func=func,
                           **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def _check_numbers(args) -> None:
    """Reject numeric options no command can use."""
    for name in ("tol", "eps"):
        value = getattr(args, name, None)
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"--{name} must be finite and positive, got {value}")
    for name in ("stride", "stages", "svg_rays"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be at least 1, got {value}")


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        _check_numbers(args)
        return args.func(args)
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"lens-scatter: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
