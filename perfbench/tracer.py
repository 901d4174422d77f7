"""Spans and exact counts around the public functions of ``lens_scatter``.

Used by traced runs only.  :meth:`Tracer.install` replaces every
module-level binding of each wrapped function inside the package (for
example ``integrate_geodesic`` as bound in ``geometry``, ``scattering``,
``eaton``, ``cli`` and the package itself), so calls the library makes to
itself are seen as well as the benchmark's own calls.  Spans stay in memory
as ``[name, start, end, parent, job]`` and are written once, at the end of
the pass.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

KINDS = ("vacuum", "eaton", "radial-profile", "general")
CLI_COMMANDS = ("compare", "eaton", "scatter", "trace", "render", "invariant",
                "approx-pl")


def _per_layer_specs():
    specs = [("setup.import_s", "s", "lower"),
             ("setup.eaton_table_s", "s", "lower")]
    for cmd in CLI_COMMANDS:
        specs += [(f"cli.{cmd}.s", "s", "lower"), (f"cli.{cmd}.self_s", "s", "lower")]
    specs += [("scattering.scatter.calls", "count", "lower"),
              ("scattering.scatter.self_s", "s", "lower"),
              ("scattering.compare_scattering.s", "s", "lower"),
              ("scattering.length_excess.s", "s", "lower"),
              ("scattering.traces_per_ray", "ratio", "lower")]
    for kind in KINDS:
        base = f"geometry.integrate_geodesic.{kind}"
        specs += [(f"{base}.calls", "count", "lower"), (f"{base}.self_s", "s", "lower"),
                  (f"{base}.p50_ms", "ms", "lower"), (f"{base}.p90_ms", "ms", "lower")]
    specs += [(f"geometry.samples_per_path.{kind}", "samples/path", "lower")
              for kind in KINDS]
    specs += [("geometry.general.field_evals_per_ray", "1/ray", "lower"),
              ("geometry.general.field_evals_per_s", "1/s", "higher"),
              ("geometry.trapped", "count", "lower"),
              ("eaton.invisibility_check.self_s", "s", "lower"),
              ("eaton.loop_winding.calls", "count", "lower"),
              ("eaton.loop_winding.self_s", "s", "lower"),
              ("knot.random_corpus.s", "s", "lower"),
              ("knot.find_crossings.smooth.calls", "count", "lower"),
              ("knot.find_crossings.smooth.self_s", "s", "lower"),
              ("knot.find_crossings.pl.calls", "count", "lower"),
              ("knot.find_crossings.pl.self_s", "s", "lower"),
              ("knot.crossings_found", "count", "higher"),
              ("knot.analyze_loop.self_s", "s", "lower"),
              ("knot.choose_refinement_n.s", "s", "lower"),
              ("knot.embedding_separation.calls", "count", "lower"),
              ("knot.embedding_separation.self_s", "s", "lower"),
              ("knot.pl_validate.s", "s", "lower"),
              ("lift.unit_tangent_lift.calls", "count", "lower"),
              ("lift.unit_tangent_lift.self_s", "s", "lower"),
              ("lift.dist_components.calls", "count", "lower"),
              ("lift.dist_components.self_s", "s", "lower"),
              ("curves.point.calls", "count", "lower"),
              ("curves.point.self_s", "s", "lower"),
              ("svg.render_rays.s", "s", "lower"),
              ("svg.render_annulus.s", "s", "lower"),
              ("trace.wall_s", "s", "lower"),
              ("trace.overhead_s", "s", "lower"),
              ("trace.job_coverage", "ratio", "higher")]
    return specs


PER_LAYER = _per_layer_specs()

# Metrics that must repeat exactly between two traced passes of one seed.
EXACT = tuple(name for name, unit, _ in PER_LAYER
              if unit == "count" or name in ("scattering.traces_per_ray",
                                             "geometry.general.field_evals_per_ray")
              or name.startswith("geometry.samples_per_path."))


class Tracer:
    """In-memory span recorder with per-call hooks for exact counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.path_samples: dict[str, list[int]] = defaultdict(list)
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, job: str | None = None):
        if job is not None:
            self.job = job
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, fn, name, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, ls) -> None:
        """Wrap the public entry points of every ``lens_scatter`` module."""
        knot = ls.knot

        def on_path(args, path):
            self.path_samples[args[0].kind].append(len(path.points))
            self.counts["geometry.trapped"] += bool(path.trapped)

        def crossings_kind(args):
            pl = isinstance(args[0], (knot.PLLoop, knot.PLVertexPath))
            return "knot.find_crossings." + ("pl" if pl else "smooth")

        def on_crossings(args, found):
            self.counts["knot.crossings_found"] += len(found)

        targets = [
            (ls.cli, "main", lambda a: "cli." + a[0][0], None),
            (ls.scattering, "scatter", "scattering.scatter", None),
            (ls.scattering, "compare_scattering", "scattering.compare_scattering", None),
            (ls.scattering, "length_excess", "scattering.length_excess", None),
            (ls.geometry, "integrate_geodesic",
             lambda a: "geometry.integrate_geodesic." + a[0].kind, on_path),
            (ls.eaton, "invisibility_check", "eaton.invisibility_check", None),
            (ls.eaton, "loop_winding", "eaton.loop_winding", None),
            (knot, "random_corpus", "knot.random_corpus", None),
            (knot, "find_crossings", crossings_kind, on_crossings),
            (knot, "analyze_loop", "knot.analyze_loop", None),
            (knot, "choose_refinement_n", "knot.choose_refinement_n", None),
            (knot, "embedding_separation", "knot.embedding_separation", None),
            (knot, "pl_validate", "knot.pl_validate", None),
            (ls.lift, "unit_tangent_lift", "lift.unit_tangent_lift", None),
            (ls.lift, "dist_components", "lift.dist_components", None),
            (ls.svg, "render_rays", "svg.render_rays", None),
            (ls.svg, "render_annulus", "svg.render_annulus", None),
        ]
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lens_scatter" or n.startswith("lens_scatter."))]
        for owner, attr, name, hook in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        # A method, not a module-level function: patch it on its class.
        cls = ls.curves.ParametricCurve
        self._patches.append((cls, "point", cls.point))
        cls.point = self.wrap(cls.point, "curves.point")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, wall_s: float, demanded_pairs: int,
                      field_evals: int) -> dict[str, float]:
        """Per-pass values of every span- and count-derived per-layer metric."""
        total: Counter = Counter()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        durations: dict[str, list[float]] = defaultdict(list)
        top_level = 0.0
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            total[name] += dur
            self_s[name] += dur
            calls[name] += 1
            durations[name].append(dur)
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
            else:
                top_level += dur

        out = {}
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.s"] = total[f"cli.{cmd}"]
            out[f"cli.{cmd}.self_s"] = self_s[f"cli.{cmd}"]
        out["scattering.scatter.calls"] = calls["scattering.scatter"]
        out["scattering.scatter.self_s"] = self_s["scattering.scatter"]
        out["scattering.compare_scattering.s"] = total["scattering.compare_scattering"]
        out["scattering.length_excess.s"] = total["scattering.length_excess"]
        traces = sum(calls[f"geometry.integrate_geodesic.{k}"] for k in KINDS)
        out["scattering.traces_per_ray"] = traces / demanded_pairs if demanded_pairs else 0.0
        for kind in KINDS:
            name = f"geometry.integrate_geodesic.{kind}"
            durs = sorted(durations[name])
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.p50_ms"] = 1e3 * statistics.median(durs) if durs else 0.0
            out[f"{name}.p90_ms"] = 1e3 * _quantile(durs, 0.9) if durs else 0.0
            samples = self.path_samples[kind]
            out[f"geometry.samples_per_path.{kind}"] = (sum(samples) / len(samples)
                                                        if samples else 0.0)
        general = "geometry.integrate_geodesic.general"
        out["geometry.general.field_evals_per_ray"] = (field_evals / calls[general]
                                                       if calls[general] else 0.0)
        out["geometry.general.field_evals_per_s"] = (field_evals / total[general]
                                                     if total[general] else 0.0)
        out["geometry.trapped"] = self.counts["geometry.trapped"]
        out["eaton.invisibility_check.self_s"] = self_s["eaton.invisibility_check"]
        out["eaton.loop_winding.calls"] = calls["eaton.loop_winding"]
        out["eaton.loop_winding.self_s"] = self_s["eaton.loop_winding"]
        out["knot.random_corpus.s"] = total["knot.random_corpus"]
        for variant in ("smooth", "pl"):
            name = f"knot.find_crossings.{variant}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["knot.crossings_found"] = self.counts["knot.crossings_found"]
        out["knot.analyze_loop.self_s"] = self_s["knot.analyze_loop"]
        out["knot.choose_refinement_n.s"] = total["knot.choose_refinement_n"]
        out["knot.embedding_separation.calls"] = calls["knot.embedding_separation"]
        out["knot.embedding_separation.self_s"] = self_s["knot.embedding_separation"]
        out["knot.pl_validate.s"] = total["knot.pl_validate"]
        for name in ("lift.unit_tangent_lift", "lift.dist_components", "curves.point"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["svg.render_rays.s"] = total["svg.render_rays"]
        out["svg.render_annulus.s"] = total["svg.render_annulus"]
        out["trace.job_coverage"] = top_level / wall_s
        return out


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])
