"""The three workloads: inputs drawn from the seed, the jobs of one pass, and
the check of each job's output against a reference from :mod:`oracles`.

Every job calls ``lens_scatter`` through its public functions or through
``lens_scatter.cli.main(argv)``, looked up on the module at call time so that
a traced pass sees the wrapped bindings.  No (metric, entry) pair is traced
by two jobs of one pass; the only sharing is the one ``library-compare-excess``
names, where ``compare_scattering`` and ``length_excess`` cover one grid.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from oracles import (arc_distance, boundary_point, chord_exit, circle_lift,
                     expect, pl_crossing_params, pl_membership,
                     polyline_length_bound, separation, tangent_lift_invariants)

WORKLOADS = ("lens-exit", "ray-paths", "knot-corpus")

STEP_TOL = 1e-7          # the CLI default; exit data must meet it
INVISIBILITY_TOL = 1e-4  # the CLI default tolerance of compare and eaton
GRAZING = math.cos(0.05)  # largest |cos(angle)|, the margin boundary_grid keeps
CORPUS_SIZE = 24
PL_VERTICES = 128
PL_EPS = 1.0
ORACLE_SAMPLES = 1024
BUMPS = 8


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    jobs: list[Job]
    demanded_pairs: int = 0
    eaton_table_s: float = 0.0
    field: "Bumps | None" = None


@dataclass
class _Plan:
    ls: object
    workdir: Path
    jobs: list[Job] = field(default_factory=list)
    demands: list[set] = field(default_factory=list)

    def add(self, name, run, check, demands=()):
        self.jobs.append(Job(name, run, check))
        if demands:
            self.demands.append(set(demands))

    def cli(self, name, argv, check, demands=(), capture=False):
        ls = self.ls

        def run():
            if not capture:
                return ls.cli.main(argv)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = ls.cli.main(argv)
            return rc, buf.getvalue()

        self.add(name, run, check, demands)

    def path(self, name: str) -> Path:
        return self.workdir / name

    def finish(self, **extra) -> Workload:
        union = set().union(*self.demands) if self.demands else set()
        if len(union) != sum(len(d) for d in self.demands):
            raise RuntimeError("two jobs of one pass demand the same (metric, entry) pair")
        return Workload(self.jobs, len(union), **extra)


def build(ls, workload: str, seed: int, workdir: Path, count_fields: bool) -> Workload:
    """Inputs and jobs of one pass; the same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    b = _Plan(ls, workdir)
    if workload == "lens-exit":
        return _lens_exit(b, rng)
    if workload == "ray-paths":
        return _ray_paths(b, rng, count_fields)
    if workload == "knot-corpus":
        return _knot_corpus(b, rng)
    raise ValueError(f"unknown workload {workload!r}")


def _timed_eaton_table(ls) -> float:
    t0 = time.perf_counter()
    ls.eaton.eaton_metric()
    return time.perf_counter() - t0


def _entries(rng, edges) -> list[tuple[float, float]]:
    """One entry per stratum of the impact parameter |cos(angle)|.

    The arc is uniform, the impact uniform within its stratum and the side
    of the normal random.  Impacts start at the singular metric's exclusion
    radius (1e-3), below which an entry is invalid input.
    """
    out = []
    for lo, hi in zip(edges, edges[1:]):
        impact = rng.uniform(lo, hi)
        angle = math.acos(impact if rng.random() < 0.5 else -impact)
        out.append((float(rng.random()), angle))
    return out


def _grid_keys(ls, metric: str, spec: str):
    n_arcs, n_angles = (int(v) for v in spec.split("x"))
    return [(metric, v.arc, v.angle) for v in ls.scattering.boundary_grid(n_arcs, n_angles)]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _expect_rc(rc) -> None:
    expect(rc == 0, f"exit code {rc}")


# ---------------------------------------------------------------------------
# lens-exit: exit data only, on radial metrics


def _lens_exit(b: _Plan, rng) -> Workload:
    ls = b.ls
    table_s = _timed_eaton_table(ls)
    n0 = 1.0 + rng.uniform(0.3, 0.5)
    drops = np.cumsum(rng.uniform(0.5, 1.0, 5))
    knots = [[0.2 * k, float(n0 - (n0 - 1.0) * (drops[k - 1] / drops[-1] if k else 0.0))]
             for k in range(6)]
    knots[-1][1] = 1.0
    profile = str(b.path("profile.json"))
    Path(profile).write_text(json.dumps({"kind": "radial-profile", "radius": 1.0,
                                         "profile": knots}))
    shift = float(rng.uniform(0.05, 0.95))
    lib_grid = ls.scattering.boundary_grid(2, 2, angle_margin=float(rng.uniform(0.1, 0.3)))

    out = b.path("compare-vacuum-eaton.json")

    def check_vacuum_eaton(rc):
        _expect_rc(rc)
        rep = _read_json(out)
        expect(rep["equal"] and rep["trapped_count"] == 0, f"not scattering-equal: {rep}")
        expect(rep["mean_excess"] > 0.0, f"mean excess {rep['mean_excess']}")
        spread = rep["excess_dev"] / rep["mean_excess"]
        expect(spread < 1e-3, f"length-excess spread {spread:.2e}")

    b.cli("compare-vacuum-eaton",
          ["compare", "--m1", "vacuum", "--m2", "eaton", "--grid", "4x2",
           "--expect-equal", "--out", str(out)], check_vacuum_eaton,
          _grid_keys(ls, "vacuum", "4x2") + _grid_keys(ls, "eaton", "4x2"))

    out_inv = b.path("eaton-invisibility.json")

    def check_invisibility(rc):
        _expect_rc(rc)
        rep = _read_json(out_inv)
        expect(rep["passed"] and rep["entries"] == 8, f"invisibility failed: {rep}")
        expect(set(rep["windings"]) <= {-1, 1}, f"windings {rep['windings']}")

    b.cli("eaton-invisibility",
          ["eaton", "--check", "invisibility", "--grid", "2x4", "--out", str(out_inv)],
          check_invisibility, _grid_keys(ls, "eaton", "2x4"))

    out_prof = b.path("compare-profile-shift.json")
    prof_grid = _grid_keys(ls, "profile", "4x4")

    def check_profile_shift(rc):
        # A radial metric commutes with rotations, so a rotated copy of it
        # has the same lens data and zero length excess.
        _expect_rc(rc)
        rep = _read_json(out_prof)
        expect(rep["equal"] and rep["trapped_count"] == 0, f"rotation not equal: {rep}")
        expect(abs(rep["mean_excess"]) < 10 * STEP_TOL and rep["excess_dev"] < 10 * STEP_TOL,
               f"rotation changed lengths: {rep['mean_excess']}, {rep['excess_dev']}")

    b.cli("compare-profile-shift",
          ["compare", "--m1", profile, "--m2", profile, "--grid", "4x4",
           "--h-shift", repr(shift), "--expect-equal", "--out", str(out_prof)],
          check_profile_shift,
          prof_grid + [("profile", (arc + shift) % 1.0, angle) for _, arc, angle in prof_grid])

    edges = [1e-3, 0.25, 0.5, 0.75, GRAZING]
    for label, source in (("vacuum", "vacuum"), ("eaton", "eaton"), ("profile", profile)):
        for k, (arc, angle) in enumerate(_entries(rng, edges)):
            path = b.path(f"scatter-{label}-{k}.json")
            b.cli(f"scatter-{label}-{k}",
                  ["scatter", "--metric", source, "--arc", repr(arc),
                   "--angle", repr(angle), "--out", str(path)],
                  _scatter_check(label, arc, angle, path), [(label, arc, angle)])

    vacuum = ls.geometry.ConformalMetric.vacuum()
    eaton = ls.eaton.eaton_metric()

    def library_pair():
        cmp = ls.scattering.compare_scattering(vacuum, eaton, grid=lib_grid)
        exc = ls.scattering.length_excess(vacuum, eaton, grid=lib_grid)
        return cmp, exc

    def check_library(result):
        cmp, exc = result
        expect(cmp.equal and cmp.trapped_count == 0 and cmp.entries == 4,
               f"compare_scattering: {cmp}")
        expect(exc.trapped_count == 0 and exc.mean_excess > 0.0, f"length_excess: {exc}")
        spread = exc.max_abs_dev / exc.mean_excess
        expect(spread < 1e-3, f"length-excess spread {spread:.2e}")

    b.add("library-compare-excess", library_pair, check_library,
          [(m, v.arc, v.angle) for m in ("vacuum", "eaton") for v in lib_grid])
    return b.finish(eaton_table_s=table_s)


def _scatter_check(label: str, arc: float, angle: float, path: Path):
    exit_arc, exit_angle, chord = chord_exit(arc, angle)

    def check(rc):
        _expect_rc(rc)
        rep = _read_json(path)
        expect(not rep["trapped"], "trapped")
        got_arc, got_angle, tau = rep["exit"]["arc"], rep["exit"]["angle"], rep["tau"]
        if label == "vacuum":
            tol = 10 * STEP_TOL
            expect(arc_distance(got_arc, exit_arc) < tol and abs(got_angle - exit_angle) < tol
                   and abs(tau - chord) < tol,
                   f"vacuum exit {got_arc}, {got_angle}, {tau} != chord "
                   f"{exit_arc}, {exit_angle}, {chord}")
        elif label == "eaton":
            dev = float(np.hypot(*(boundary_point(got_arc) - boundary_point(exit_arc))))
            expect(dev < INVISIBILITY_TOL and abs(got_angle - exit_angle) < INVISIBILITY_TOL,
                   f"lens exit {got_arc}, {got_angle} != vacuum {exit_arc}, {exit_angle}")
            expect(tau > chord, f"lens length {tau} not above chord {chord}")
        else:
            # Clairaut: n r sin(psi) is conserved and n(R) is shared by entry
            # and exit, so a radial metric returns the entry angle.
            expect(abs(got_angle - angle) < 10 * STEP_TOL,
                   f"exit angle {got_angle} != entry angle {angle}")
            span = float(np.hypot(*(boundary_point(got_arc) - boundary_point(arc))))
            expect(tau >= span, f"length {tau} below the straight distance {span}")

    return check


# ---------------------------------------------------------------------------
# ray-paths: full polylines


class Bumps:
    """Non-radial index ``1 + sum_k a_k exp(-|p - c_k|^2 / (2 s_k^2))``.

    The gradient is analytic.  With ``counted`` set, every gradient call,
    which the geodesic right-hand side makes once per evaluation, is
    counted in ``evals``.
    """

    def __init__(self, params, counted: bool):
        self.params = [tuple(float(v) for v in p) for p in params]
        self.evals = 0
        self.grad = self._grad_counted if counted else self._grad

    def n(self, x, y):
        total = 1.0
        for cx, cy, a, s in self.params:
            total += a * math.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * s * s))
        return total

    def _grad(self, x, y):
        gx = gy = 0.0
        for cx, cy, a, s in self.params:
            w = a * math.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * s * s)) / (s * s)
            gx -= w * (x - cx)
            gy -= w * (y - cy)
        return gx, gy

    def _grad_counted(self, x, y):
        self.evals += 1
        return self._grad(x, y)


_POLYLINE = re.compile(r'<polyline [^>]*points="([^"]*)"')


def _svg_polylines(path: Path) -> list[np.ndarray]:
    """Polylines of an SVG written by ``lens_scatter.svg``, in plane coordinates."""
    out = []
    for text in _POLYLINE.findall(path.read_text()):
        xy = np.array([[float(v) for v in pair.split(",")] for pair in text.split()])
        xy[:, 1] *= -1.0
        out.append(xy)
    return out


def _ray_paths(b: _Plan, rng, count_fields: bool) -> Workload:
    ls = b.ls
    table_s = _timed_eaton_table(ls)
    radius = rng.uniform(0.0, 0.6, BUMPS)
    polar = rng.uniform(0.0, 2.0 * math.pi, BUMPS)
    bumps = Bumps(np.column_stack([radius * np.cos(polar), radius * np.sin(polar),
                                   rng.uniform(0.2, 0.4, BUMPS), rng.uniform(0.15, 0.25, BUMPS)]),
                  count_fields)
    general = ls.geometry.ConformalMetric.general(bumps.n, bumps.grad, name="bumps")
    general_grid = ls.scattering.boundary_grid(16, 8, angle_margin=float(rng.uniform(0.05, 0.15)))

    render_out = b.path("render-eaton.svg")
    render_grid = ls.scattering.boundary_grid(8, 2)

    def check_render(rc):
        _expect_rc(rc)
        lines = _svg_polylines(render_out)
        expect(len(lines) == len(render_grid),
               f"{len(lines)} polylines for {len(render_grid)} rays")
        for v, xy in zip(render_grid, lines):
            exit_arc, _, _ = chord_exit(v.arc, v.angle)
            expect(np.hypot(*(xy[0] - boundary_point(v.arc))) < 2e-6,
                   f"ray of {v} starts at {xy[0]}")
            expect(np.hypot(*(xy[-1] - boundary_point(exit_arc))) < INVISIBILITY_TOL,
                   f"ray of {v} leaves at {xy[-1]}, not on its vacuum chord")

    b.cli("render-eaton", ["render", "--metric", "eaton", "--grid", "8x2",
                           "--out", str(render_out)],
          check_render, [("eaton", v.arc, v.angle) for v in render_grid])

    edges = [1e-3, 0.004, 0.016, 0.05, 0.12, 0.25, 0.4, 0.55, 0.7, 0.85, GRAZING]
    for k, (arc, angle) in enumerate(_entries(rng, edges)):
        path = b.path(f"trace-eaton-{k}.json")
        b.cli(f"trace-eaton-{k}",
              ["trace", "--metric", "eaton", "--arc", repr(arc), "--angle", repr(angle),
               "--out", str(path)],
              _trace_check(arc, angle, path), [("eaton", arc, angle)])

    fan_out = b.path("general-fan.svg")

    def general_fan():
        paths = [ls.geometry.integrate_geodesic(general, v) for v in general_grid]
        ls.svg.render_rays(paths, str(fan_out))
        return paths

    def check_fan(paths):
        for v, p in zip(general_grid, paths):
            expect(not p.trapped, f"ray of {v} trapped")
            expect(np.hypot(*(p.points[0] - boundary_point(v.arc))) < 1e-12,
                   f"ray of {v} starts at {p.points[0]}")
            expect(abs(math.hypot(*p.points[-1]) - 1.0) < 1e-9, f"ray of {v} ends inside")
            poly = ls.geometry.riemannian_length(general, p.points)
            bound = polyline_length_bound(p.points, p.directions, bumps.n) + 10 * STEP_TOL
            expect(abs(p.length - poly) <= bound,
                   f"ray of {v}: length {p.length} vs polyline {poly} (bound {bound:.1e})")
        expect(len(_svg_polylines(fan_out)) == len(paths), "fan SVG lost rays")

    b.add("general-fan", general_fan, check_fan,
          [("general", v.arc, v.angle) for v in general_grid])
    return b.finish(eaton_table_s=table_s, field=bumps)


def _trace_check(arc: float, angle: float, path: Path):
    exit_arc, exit_angle, chord = chord_exit(arc, angle)

    def check(rc):
        _expect_rc(rc)
        rep = _read_json(path)
        expect(not rep["trapped"], "trapped")
        got = rep["exit"]
        dev = float(np.hypot(*(boundary_point(got["arc"]) - boundary_point(exit_arc))))
        expect(dev < INVISIBILITY_TOL and abs(got["angle"] - exit_angle) < INVISIBILITY_TOL,
               f"lens exit {got} != vacuum {exit_arc}, {exit_angle}")
        expect(rep["winding"] in (-1, 1), f"winding {rep['winding']}")
        expect(rep["tau"] > chord, f"lens length {rep['tau']} not above chord {chord}")
        expect(np.hypot(*(np.array(rep["samples"][0]) - boundary_point(arc))) < 1e-8,
               f"samples start at {rep['samples'][0]}")

    return check


# ---------------------------------------------------------------------------
# knot-corpus: crossings and PL machinery, no geometry


def _rotated(curves, coeffs, angle: float):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([c * coeffs[0] - s * coeffs[2], c * coeffs[1] - s * coeffs[3],
                    s * coeffs[0] + c * coeffs[2], s * coeffs[1] + c * coeffs[3]])
    return curves.TrigCurve(rot)


def _expect_invariants(name, line_winding, signed_types, table, certificate, points):
    """Check winding, (sign, type) of every crossing, W table and certificate."""
    ref = tangent_lift_invariants(points)
    expect(line_winding == ref["line_winding"],
           f"{name}: line winding {line_winding} != {ref['line_winding']}")
    want = sorted((sign, ctype) for _, _, sign, ctype in ref["crossings"])
    expect(sorted(signed_types) == want,
           f"{name}: crossing signs and types {sorted(signed_types)} != oracle {want}")
    expect(table == ref["table"], f"{name}: W table {table} != oracle {ref['table']}")
    expect(certificate == ref["certificate"],
           f"{name}: certificate {certificate} != oracle {ref['certificate']}")
    return ref


def _knot_corpus(b: _Plan, rng) -> Workload:
    ls = b.ls
    knot, lift = ls.knot, ls.lift
    corpus_seed = int(rng.integers(0, 2 ** 31))
    rotations = rng.uniform(0.1, 2.0 * math.pi - 0.1, CORPUS_SIZE)
    rose = f"rose-{int(rng.integers(3, 8))}"
    dense = np.arange(ORACLE_SAMPLES) / ORACLE_SAMPLES
    state: dict = {}

    def corpus():
        state["curves"] = knot.random_corpus(CORPUS_SIZE, seed=corpus_seed)
        return state["curves"]

    def check_corpus(curves):
        expect(len(curves) == CORPUS_SIZE, f"{len(curves)} curves")

    b.add("random-corpus", corpus, check_corpus)

    for i in range(CORPUS_SIZE):
        def analyze(i=i):
            return knot.analyze_loop(state["curves"][i])

        def check_analysis(res, i=i):
            curve = state["curves"][i]
            table = res.table.entries if res.table is not None else None
            cert = (res.certificate.kind, res.certificate.g)
            ref = _expect_invariants(f"curve {i}", res.line_winding,
                                     [(c.sign, c.ctype) for c in res.crossings], table,
                                     cert, curve.point(dense))
            got = sorted((c.l, c.l_prime) for c in res.crossings)
            want = sorted((l, lp) for l, lp, _, _ in ref["crossings"])
            expect(all(abs(g[0] - w[0]) < 4.0 / ORACLE_SAMPLES
                       and abs(g[1] - w[1]) < 4.0 / ORACLE_SAMPLES for g, w in zip(got, want)),
                   f"curve {i}: crossing parameters {got} != oracle {want}")
            turned = knot.analyze_loop(_rotated(ls.curves, curve.coeffs, rotations[i]))
            turned_table = turned.table.entries if turned.table is not None else None
            expect(turned_table == table and turned.line_winding == res.line_winding,
                   f"curve {i}: rotation changed W from {table} to {turned_table}")

        b.add(f"analyze-{i}", analyze, check_analysis)

    for i in range(CORPUS_SIZE):
        def snapshot(i=i):
            proj = lift.projectivize(lift.unit_tangent_lift(state["curves"][i], 512))
            pts = proj.proj_points()

            def family(s, t):
                return pts[int(round((t % 1.0) * len(pts))) % len(pts)]

            pl = knot.pl_snapshot(family, PL_VERTICES, 0.0)
            return pl, knot.find_crossings(pl), knot.pl_validate(pl.vertices, PL_VERTICES, PL_EPS)

        def check_snapshot(result, i=i):
            pl, crossings, member = result
            xyl = np.array([[v.x, v.y, v.lift] for v in pl.vertices])
            ref = pl_crossing_params(xyl[:, :2])
            got = sorted((c.l, c.l_prime) for c in crossings)
            expect(len(got) == len(ref) and all(abs(g[0] - r[0]) < 1e-9 and abs(g[1] - r[1]) < 1e-9
                                                for g, r in zip(got, ref)),
                   f"PL snapshot {i}: crossings {got} != oracle {ref}")
            verdict = pl_membership(xyl, PL_EPS)
            expect((member.member, member.failed_condition) == verdict,
                   f"PL snapshot {i}: membership {member} != oracle {verdict}")

        b.add(f"pl-snapshot-{i}", snapshot, check_snapshot)

    for name in ("lemniscate", rose):
        out, svg = b.path(f"invariant-{name}.json"), b.path(f"invariant-{name}.svg")

        def check_invariant(rc, name=name, out=out, svg=svg):
            _expect_rc(rc)
            rep = _read_json(out)
            ref_points = ls.curves.named_curve(name).point(dense)
            cert = rep["certificate"]
            line = rep["windings"]["line"]
            _expect_invariants(name, line, [(c["sign"], c["type"]) for c in rep["crossings"]],
                               {int(g): w for g, w in rep["W"].items()} if line == 0 else None,
                               (cert["kind"], cert["g"]), ref_points)
            expect(len(_svg_polylines(svg)) == 1, "annulus SVG has no curve")

        b.cli(f"invariant-{name}", ["invariant", "--curve", name, "--out", str(out),
                                    "--emit-svg", str(svg)], check_invariant)

    report = b.path("approx-pl-circle.csv")

    def check_approx(result):
        rc, stdout = result
        _expect_rc(rc)
        n = int(re.search(r"n=(\d+)", stdout).group(1))
        rows = [line.split(",") for line in report.read_text().split()[1:]]
        seps = [float(sep) for _, sep in rows]
        expect(len(seps) == 5 and min(seps) > 0.0, f"separations {seps}")
        ref = separation(circle_lift(256), 2.0 / n)
        expect(abs(seps[0] - ref) < 1e-8, f"stage-0 separation {seps[0]} != {ref}")

    b.cli("approx-pl-circle", ["approx-pl", "--curve", "circle", "--report", str(report)],
          check_approx, capture=True)
    return b.finish()
