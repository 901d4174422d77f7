import json
import math
import shlex
from pathlib import Path

import pytest

from lens_scatter import geometry
from lens_scatter.cli import main
from lens_scatter.geometry import IntegrationOptions, integrate_geodesic
from lens_scatter.scattering import _arc_distance

from conftest import run_python
from pins import DATA, PINS, mismatches

README = Path(__file__).parent.parent / "README.md"


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.name)
def test_report_is_pinned(pin, tmp_path):
    assert mismatches(pin, tmp_path) == []


class TestInvariantCommand:
    def test_circle(self, capsys):
        code, out = run(["invariant", "--curve", "circle"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["W"] == {}
        assert rep["certificate"]["kind"] == "non_contractible"
        assert rep["windings"] == {"turning": 1, "line": 2}

    def test_lemniscate(self, capsys):
        code, out = run(["invariant", "--curve", "lemniscate"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["W"] == {"2": 1}
        assert rep["certificate"] == {"kind": "nonzero_invariant", "g": 2,
                                      "line_winding": 0}
        assert len(rep["crossings"]) == 1

    def test_unknown_curve_is_input_error(self, capsys):
        code, _ = run(["invariant", "--curve", "doughnut"], capsys)
        assert code == 2


class TestScatterCommand:
    def test_vacuum_chord(self, capsys):
        code, out = run(["scatter", "--metric", "vacuum", "--arc", "0",
                         "--angle", str(math.pi / 4)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["exit"]["arc"] == pytest.approx(0.25, abs=1e-9)
        assert rep["tau"] == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_exit_just_below_arc_zero_reports_zero(self, capsys):
        # The chord's exit arc comes out a hair below 0, which mod 1 rounds
        # to 1.0; the report names the point as 0.
        code, out = run(["scatter", "--metric", "vacuum", "--arc", "0.0015749999999975371",
                         "--angle", "3.1366446451603895"], capsys)
        assert code == 0
        assert json.loads(out)["exit"]["arc"] == 0.0

    def test_metric_file(self, tmp_path, capsys):
        spec = {"kind": "radial-profile", "radius": 1.0,
                "profile": [[0.0, 1.2], [0.5, 1.1], [1.0, 1.0]]}
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(spec))
        code, out = run(["scatter", "--metric", str(path), "--arc", "0.1",
                         "--angle", "1.0"], capsys)
        assert code == 0
        assert not json.loads(out)["trapped"]

    def test_missing_file_is_input_error(self, capsys):
        code, _ = run(["scatter", "--metric", "nope.json", "--arc", "0",
                       "--angle", "1.0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("step_tol", ["nan", "0", "-1", "1e-12"])
    @pytest.mark.parametrize("metric", ["vacuum", "eaton"])
    def test_bad_step_tol_is_input_error(self, capsys, metric, step_tol):
        code = main(["--step-tol", step_tol, "scatter", "--metric", metric,
                     "--arc", "0", "--angle", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        message = ("step_tol must be at least 2.22e-11 (solver tolerance floor)"
                   if step_tol == "1e-12" else "step_tol must be finite and positive")
        assert message in captured.err

    @pytest.mark.parametrize("radius", [0, -1])
    def test_non_positive_radius_is_input_error(self, tmp_path, capsys, radius):
        spec = {"kind": "radial-profile", "radius": radius,
                "profile": [[0.0, 1.2], [1.0, 1.0]]}
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(spec))
        for command in ("scatter", "trace"):
            code = main([command, "--metric", str(path), "--arc", "0", "--angle", "1"])
            captured = capsys.readouterr()
            assert code == 2
            assert "metric radius must be positive" in captured.err
            assert "Traceback" not in captured.err

    # Out of range the tolerances, absolute lengths, stop fitting the disk:
    # without the range check, vacuum at 1e16 exited at its own entry, 1e200
    # was trapped, 1e155 raised ZeroDivisionError, 1e-12 missed the chord
    # by 87 step_tol and 1e-160 failed inside brentq.
    @pytest.mark.parametrize("kind", ["vacuum", "radial-profile"])
    @pytest.mark.parametrize("radius", [1e-160, 1e-12, 1e16, 1e155, 1e200])
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_radius_is_input_error(self, tmp_path, capsys, radius, kind):
        spec = {"kind": kind, "radius": radius, "profile": [[0.0, 1.2], [radius, 1.0]]}
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(spec))
        for command in ("scatter", "trace"):
            code = main([command, "--metric", str(path), "--arc", "0.1", "--angle", "1"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == (f"lens-scatter: metric radius must lie in [1e-06, 1e+06], "
                                    f"got {float(radius)!r}\n")

    def test_singular_entry_still_aborts(self, capsys):
        code = main(["scatter", "--metric", "eaton", "--arc", "0",
                     "--angle", str(math.pi / 2)])
        assert code == 2
        assert "singular origin" in capsys.readouterr().err

    @pytest.mark.parametrize("metric", ["vacuum", "eaton", "profile"])
    def test_nothing_on_stderr(self, tmp_path, capsys, metric):
        if metric == "profile":
            path = tmp_path / "metric.json"
            path.write_text(json.dumps({"kind": "radial-profile", "radius": 1.0,
                                        "profile": [[0.0, 1.3], [0.5, 1.2], [1.0, 1.0]]}))
            metric = str(path)
        for angle in ("0.0011", "1.5697", "3.1"):
            assert main(["scatter", "--metric", metric, "--arc", "0.3",
                         "--angle", angle]) == 0
        assert capsys.readouterr().err == ""


class TestCompareCommand:
    def test_vacuum_eaton_expect_equal(self, capsys):
        code, out = run(["compare", "--m1", "vacuum", "--m2", "eaton",
                         "--grid", "4x2", "--expect-equal"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["equal"] is True
        assert rep["mean_excess"] == pytest.approx(2 * math.pi, abs=1e-3)
        assert set(rep) >= {"equal", "max_angle_dev", "max_arc_dev",
                            "trapped_count", "excluded", "mean_excess",
                            "excess_dev"}
        assert rep["excluded"] == 0

    def test_grid_through_the_pole_skips_entries(self, capsys):
        # An odd angle count puts one angle at pi/2, whose chord meets the
        # lens's pole: those three entries are reported, not fatal.
        code = main(["compare", "--m1", "vacuum", "--m2", "eaton",
                     "--grid", "3x3", "--expect-equal"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        rep = json.loads(captured.out)
        assert rep["excluded"] == 3
        assert rep["equal"] is True
        assert rep["mean_excess"] == pytest.approx(2 * math.pi, abs=1e-6)

    def test_reflected_boundary_keeps_the_lens(self, capsys):
        # A radial metric's lens data are invariant under every isometry of
        # the boundary circle, reflections included.
        code, out = run(["compare", "--m1", "eaton", "--m2", "eaton", "--grid", "4x3",
                         "--h-shift", "0.3", "--h-reflect", "--expect-equal"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["equal"] is True
        assert rep["mean_excess"] == 0.0

    def test_expect_equal_failure_sets_exit_one(self, tmp_path, capsys):
        spec = {"kind": "radial-profile", "radius": 1.0,
                "profile": [[0.0, 1.3], [0.5, 1.2], [1.0, 1.0]]}
        path = tmp_path / "bump.json"
        path.write_text(json.dumps(spec))
        code, out = run(["compare", "--m1", "vacuum", "--m2", str(path),
                         "--grid", "4x2", "--expect-equal"], capsys)
        assert code == 1
        assert json.loads(out)["equal"] is False


class TestEatonCommand:
    def test_invisibility_small_grid(self, capsys):
        code, out = run(["eaton", "--check", "invisibility", "--grid", "4x2"],
                        capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["passed"] is True
        assert rep["windings"] in ([1], [-1], [-1, 1])

    def test_impossible_tolerance_fails(self, capsys):
        # The deviations on this grid are about 1e-13, rounding included.
        code, out = run(["eaton", "--check", "invisibility", "--grid", "4x2",
                         "--tol", "1e-15"], capsys)
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_circuit_check(self, capsys):
        code, out = run(["eaton", "--check", "circuit", "--grid", "4x2"], capsys)
        assert code == 0
        assert json.loads(out)["circuits_ok"] is True

    def test_grid_through_the_pole_skips_entries(self, capsys):
        code, out = run(["eaton", "--grid", "3x3"], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["excluded"] == 3
        assert rep["entries"] == 6
        assert rep["passed"] is True

    def test_all_entries_excluded_is_input_error(self, capsys):
        assert main(["eaton", "--grid", "2x1"]) == 2
        assert "exclusion zone" in capsys.readouterr().err

    @pytest.mark.parametrize("rays,drawn", [(1, 0), (2, 2), (3, 2)])
    def test_svg_fan_skips_the_central_chord(self, tmp_path, capsys, rays, drawn):
        # An odd fan's middle ray runs through the pole: it is named and
        # skipped, and a fan with nothing left to draw is bad input.
        out, svg = tmp_path / "rep.json", tmp_path / "fan.svg"
        code = main(["eaton", "--grid", "4x2", "--svg-rays", str(rays),
                     "--emit-svg", str(svg), "--out", str(out)])
        err = capsys.readouterr().err
        if drawn == 0:
            assert code == 2
            assert err == "lens-scatter: every fan ray passes through the exclusion zone\n"
            assert list(tmp_path.iterdir()) == []
            return
        assert code == 0
        assert svg.read_text().count("<polyline") == drawn
        assert err == ("" if rays == 2 else "eaton: skipped 1 entry of 3 whose chord "
                       "passes through the exclusion zone: #2\n")


class TestApproxPL:
    def test_report_csv(self, tmp_path, capsys):
        report = tmp_path / "sep.csv"
        code, _ = run(["approx-pl", "--curve", "circle", "--eps", "0.3",
                       "--stages", "3", "--report", str(report)], capsys)
        assert code == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "stage,separation"
        assert len(lines) == 4
        assert all(float(line.split(",")[1]) > 0 for line in lines[1:])


class TestRender:
    def test_annulus_svg(self, tmp_path, capsys):
        out = tmp_path / "lift.svg"
        code, _ = run(["render", "--curve", "lemniscate", "--out", str(out)],
                      capsys)
        assert code == 0
        assert out.read_text().startswith("<svg")

    def test_ray_fan_svg(self, tmp_path, capsys):
        out = tmp_path / "rays.svg"
        code, _ = run(["render", "--metric", "vacuum", "--grid", "6x1",
                       "--out", str(out)], capsys)
        assert code == 0
        assert "<polyline" in out.read_text()


    def test_radial_fan_traces_each_angle_once(self, tmp_path, capsys, monkeypatch):
        traced = []

        def counted(metric, entry, opts=None):
            traced.append(entry)
            return integrate_geodesic(metric, entry, opts)

        monkeypatch.setattr(geometry, "integrate_geodesic", counted)
        out = tmp_path / "rays.svg"
        code, _ = run(["render", "--metric", "eaton", "--grid", "8x2", "--out", str(out)],
                      capsys)
        assert code == 0
        assert len(traced) == 2
        assert out.read_text().count("<polyline") == 16

    def test_pole_chords_are_skipped(self, tmp_path, capsys):
        # The middle of three angles is the normal, whose chord meets the
        # lens's pole: its four entries are left out of the fan.
        out = tmp_path / "rays.svg"
        code = main(["render", "--metric", "eaton", "--grid", "4x3", "--out", str(out)])
        assert code == 0
        assert out.read_text().count("<polyline") == 8
        assert "skipped 4 entries" in capsys.readouterr().err

    def test_all_entries_excluded_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "rays.svg"
        code = main(["render", "--metric", "eaton", "--grid", "2x1", "--out", str(out)])
        assert code == 2
        assert "exclusion zone" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["compare", "--m1", "vacuum", "--m2", "vacuum", "--grid", "2x2", "--tol", "nan"],
     "--tol must be finite and positive, got nan"),
    (["compare", "--m1", "vacuum", "--m2", "vacuum", "--grid", "2x2", "--tol", "inf"],
     "--tol must be finite and positive, got inf"),
    (["compare", "--m1", "vacuum", "--m2", "vacuum", "--grid", "2x2", "--tol", "0"],
     "--tol must be finite and positive, got 0.0"),
    (["eaton", "--grid", "2x2", "--tol", "nan"], "--tol must be finite and positive, got nan"),
    (["eaton", "--grid", "2x2", "--tol", "-0.5"],
     "--tol must be finite and positive, got -0.5"),
    (["trace", "--metric", "vacuum", "--arc", "0", "--angle", "1", "--stride", "-1"],
     "--stride must be at least 1, got -1"),
    (["trace", "--metric", "vacuum", "--arc", "0", "--angle", "1", "--stride", "0"],
     "--stride must be at least 1, got 0"),
    (["approx-pl", "--curve", "circle", "--stages", "0", "--report", "{tmp}/sep.csv"],
     "--stages must be at least 1, got 0"),
    (["eaton", "--grid", "2x2", "--svg-rays", "0", "--emit-svg", "{tmp}/fan.svg"],
     "--svg-rays must be at least 1, got 0"),
    (["eaton", "--grid", "2x2", "--svg-rays", "-3", "--emit-svg", "{tmp}/fan.svg"],
     "--svg-rays must be at least 1, got -3"),
    (["compare", "--m1", "vacuum", "--m2", "eaton", "--grid", "4x2", "--h-shift", "nan",
      "--expect-equal", "--out", "{tmp}/cmp.json"], "boundary shift must be finite, got nan"),
    (["scatter", "--metric", "vacuum", "--arc", "inf", "--angle", "1",
      "--out", "{tmp}/s.json"], "boundary arc must be finite, got inf"),
    (["trace", "--metric", "vacuum", "--arc", "nan", "--angle", "1", "--out", "{tmp}/t.json"],
     "boundary arc must be finite, got nan"),
    (["approx-pl", "--curve", "circle", "--eps", "nan", "--report", "{tmp}/sep.csv"],
     "--eps must be finite and positive, got nan"),
    (["approx-pl", "--curve", "circle", "--eps", "0", "--report", "{tmp}/sep.csv"],
     "--eps must be finite and positive, got 0.0"),
    (["invariant", "--curve", "circle", "--samples", "1", "--out", "{tmp}/i.json"],
     "a direction lift needs at least 4 samples, got 1"),
    (["invariant", "--curve", "lemniscate", "--samples", "2", "--out", "{tmp}/i.json"],
     "a direction lift needs at least 4 samples, got 2"),
    (["invariant", "--curve", "circle", "--samples", "0", "--out", "{tmp}/i.json"],
     "a direction lift needs at least 4 samples, got 0"),
    (["compare", "--m1", "vacuum", "--m2", "eaton", "--grid", "0", "--out", "{tmp}/c.json"],
     "--grid count must be at least 2, got 0"),
    (["compare", "--m1", "vacuum", "--m2", "eaton", "--grid", "-5", "--out", "{tmp}/c.json"],
     "--grid count must be at least 2, got -5"),
    (["compare", "--m1", "vacuum", "--m2", "eaton", "--grid", "2x2x2", "--out", "{tmp}/c.json"],
     "--grid must be a count N or AxB, got '2x2x2'"),
    (["compare", "--m1", "vacuum", "--m2", "eaton", "--grid", "3x", "--out", "{tmp}/c.json"],
     "--grid must be a count N or AxB, got '3x'"),
    (["compare", "--m1", "vacuum", "--m2", "eaton", "--grid", "x4", "--out", "{tmp}/c.json"],
     "--grid must be a count N or AxB, got 'x4'"),
    (["compare", "--m1", "vacuum", "--m2", "eaton", "--grid", "abc", "--out", "{tmp}/c.json"],
     "--grid must be a count N or AxB, got 'abc'"),
    (["compare", "--m1", "vacuum", "--m2", "eaton", "--grid", "1.5", "--out", "{tmp}/c.json"],
     "--grid must be a count N or AxB, got '1.5'"),
    (["render", "--out", "{tmp}/r.svg"], "render needs exactly one of --metric and --curve"),
    (["render", "--metric", "vacuum", "--curve", "circle", "--out", "{tmp}/r.svg"],
     "render needs exactly one of --metric and --curve"),
    (["scatter", "--metric", "vacuum", "--arc", "0", "--angle", "0", "--out", "{tmp}/s.json"],
     "entry vector must point strictly inward"),
    (["render", "--curve", "segment", "--out", "{tmp}/r.svg"], "unknown curve 'segment'"),
    (["invariant", "--curve", "rose-x", "--out", "{tmp}/i.json"], "unknown curve 'rose-x'"),
    (["invariant", "--curve", "rose-", "--out", "{tmp}/i.json"], "unknown curve 'rose-'"),
    (["invariant", "--curve", "rose-2.5", "--out", "{tmp}/i.json"], "unknown curve 'rose-2.5'"),
    (["invariant", "--curve", "rose-1", "--out", "{tmp}/i.json"], "rose needs k >= 2"),
    # Malformed arguments: the same one line and exit 2.
    (["scatter", "--metric", "eaton", "--arc", "x", "--angle", "1"],
     "--arc must be a number, got 'x'"),
    (["trace", "--metric", "vacuum", "--arc", "0", "--angle", "1", "--stride", "2.5"],
     "--stride must be an integer, got '2.5'"),
    (["scatter", "--metric", "eaton", "--angle", "1"], "scatter needs --arc"),
    (["scatter", "--metric", "eaton", "--arc", "0.1", "--angle"], "--angle needs a value"),
    (["scatter", "--metric", "eaton", "--arc", "0.1", "--angle", "1", "--bogus", "3"],
     "unknown option '--bogus' for scatter"),
    (["scatter", "--met", "eaton", "--arc", "0.1", "--angle", "1"],
     "unknown option '--met' for scatter"),
    (["scatterr", "--metric", "eaton", "--arc", "0.1", "--angle", "1"],
     "unknown command 'scatterr'"),
    ([], "a command is needed: trace, scatter, compare, eaton, invariant, approx-pl, render"),
    (["eaton", "--grid", "2x2", "--check", "sideways"],
     "--check must be one of invisibility, circuit, got 'sideways'"),
    (["compare", "--m1", "vacuum", "--m2", "eaton", "--expect-equal=yes"],
     "--expect-equal takes no value, got '--expect-equal=yes'"),
], ids=["compare-tol-nan", "compare-tol-inf", "compare-tol-zero", "eaton-tol-nan",
        "eaton-tol-negative", "stride-negative", "stride-zero", "stages-zero",
        "svg-rays-zero", "svg-rays-negative", "h-shift-nan", "scatter-arc-inf",
        "trace-arc-nan", "eps-nan", "eps-zero", "samples-one", "samples-two",
        "samples-zero", "grid-zero", "grid-negative", "grid-three-counts",
        "grid-no-angle-count", "grid-no-arc-count", "grid-not-a-number",
        "grid-fraction", "render-no-source", "render-two-sources", "scatter-tangent",
        "curve-segment", "rose-word", "rose-empty", "rose-fraction", "rose-one",
        "arc-not-a-number", "stride-not-an-integer", "arc-missing", "angle-no-value",
        "unknown-option", "abbreviated-option", "unknown-command", "no-arguments",
        "check-unknown", "flag-with-value"])
def test_bad_numeric_option_is_input_error(tmp_path, capsys, args, message):
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"lens-scatter: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["scatter", "trace"])
@pytest.mark.parametrize("metric", ["vacuum", "eaton"])
@pytest.mark.parametrize("angle", [1e-12, 1e-9, 2e-8, math.pi - 1e-12, math.pi - 1e-9,
                                   math.pi - 2e-8])
def test_near_tangent_entry_is_input_error(tmp_path, capsys, command, metric, angle):
    code = main([command, "--metric", metric, "--arc", "0.1", "--angle", repr(angle),
                 "--out", str(tmp_path / "r.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"lens-scatter: entry angle {angle!r} lies within 1e-7 "
                            f"of tangent to the boundary\n")
    assert list(tmp_path.iterdir()) == []


class TestTraceAgreesWithScatter:
    """``trace`` and ``scatter`` report one entry's exit fields alike: the
    same ``metric``, ``entry`` and ``trapped``, and the traced exit and
    ``tau`` within 10 step_tol of the quadrature's."""

    @pytest.mark.parametrize("entry", [("0.1", "1.0"), ("0.35", "2.2"), ("0.8", "0.3")])
    @pytest.mark.parametrize("metric", ["vacuum", "eaton", "four-knots"])
    def test_exit_fields_agree(self, capsys, metric, entry):
        if metric == "four-knots":
            metric = str(DATA / "metric-four-knots.json")
        arc, angle = entry
        reports = []
        for command in ("trace", "scatter"):
            code, out = run([command, "--metric", metric, "--arc", arc, "--angle", angle],
                            capsys)
            assert code == 0
            reports.append(json.loads(out))
        trace, scatter = reports
        for key in ("metric", "entry", "trapped"):
            assert trace[key] == scatter[key]
        bound = 10.0 * IntegrationOptions().step_tol
        assert 2.0 * math.pi * _arc_distance(trace["exit"]["arc"],
                                             scatter["exit"]["arc"]) < bound
        assert abs(trace["exit"]["angle"] - scatter["exit"]["angle"]) < bound
        assert abs(trace["tau"] - scatter["tau"]) < bound


class TestTraceCommand:
    @pytest.mark.parametrize("metric", ["vacuum", "profile"])
    def test_diameter_has_no_winding(self, tmp_path, capsys, metric):
        # The diameter of a metric without a pole runs through the origin,
        # where the polar angle has no lift; the entry itself is valid.
        if metric == "profile":
            path = tmp_path / "metric.json"
            path.write_text(json.dumps({"kind": "radial-profile", "radius": 1.0,
                                        "profile": [[0.0, 1.3], [0.5, 1.2], [1.0, 1.0]]}))
            metric = str(path)
        code, out = run(["trace", "--metric", metric, "--arc", "0",
                         "--angle", repr(math.pi / 2)], capsys)
        assert code == 0
        rep = json.loads(out)
        assert rep["winding"] is None
        assert rep["exit"]["arc"] == pytest.approx(0.5, abs=1e-9)


    def test_last_sample_is_the_exit(self, capsys):
        # The default stride of 4 skips the exit of this two-sample path.
        code, out = run(["trace", "--metric", "vacuum", "--arc", "0",
                         "--angle", "0.001"], capsys)
        assert code == 0
        rep = json.loads(out)
        phi = 2.0 * math.pi * rep["exit"]["arc"]
        assert rep["samples"][0] == [1.0, 0.0]
        assert math.hypot(rep["samples"][-1][0] - math.cos(phi),
                          rep["samples"][-1][1] - math.sin(phi)) < 1e-8
        assert rep["exit"]["arc"] == pytest.approx(1e-3 / math.pi, abs=1e-9)


REPORTS = {
    "trace": ["trace", "--metric", "eaton", "--arc", "0.2", "--angle", "1.0"],
    "scatter": ["scatter", "--metric", "vacuum", "--arc", "0.1", "--angle", "1.2"],
    "compare": ["compare", "--m1", "vacuum", "--m2", "eaton", "--grid", "4x2"],
    "eaton": ["eaton", "--grid", "4x2"],
    "invariant": ["invariant", "--curve", "circle"],
}


@pytest.mark.parametrize("command", sorted(REPORTS))
def test_report_header_and_out_file(command, tmp_path, capsys):
    # One writer serves every JSON report: the same header, and --out gets
    # exactly the bytes stdout gets.
    code, out = run(REPORTS[command], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == 1
    assert rep["command"] == command
    path = tmp_path / "report.json"
    assert main(REPORTS[command] + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()


class TestDeterminism:
    def test_invariant_reports_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["invariant", "--curve", "lemniscate", "--out", str(a)]) == 0
        assert main(["invariant", "--curve", "lemniscate", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trace_reports_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["trace", "--metric", "eaton", "--arc", "0.2", "--angle", "1.0"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, capsys):
        # Options given to one call must not leak into the next.
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["scatter", "--metric", "eaton", "--arc", "0.3", "--angle", "0.9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(["--step-tol", "1e-5", "scatter", "--metric", "vacuum", "--arc", "0.1",
                     "--angle", "1.2", "--out", str(tmp_path / "other.json")]) == 0
        assert main(["eaton", "--grid", "4x2", "--tol", "1e-3",
                     "--out", str(tmp_path / "eaton.json")]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "lens-scatter" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["scatter", "-h"]])
def test_help_lists_every_command(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("trace", "scatter", "compare", "eaton", "invariant", "approx-pl", "render"):
        assert f"\n  {command} " in out


def test_option_value_after_equals_sign(capsys):
    # A value may follow "=" or come as the next argument, even one that
    # starts with "-".
    spaced = run(["compare", "--m1", "eaton", "--m2", "eaton", "--grid", "4x2",
                  "--h-shift", "-0.3", "--expect-equal"], capsys)
    joined = run(["compare", "--m1=eaton", "--m2=eaton", "--grid=4x2", "--h-shift=-0.3",
                  "--expect-equal"], capsys)
    assert spaced[0] == 0
    assert json.loads(spaced[1])["equal"] is True
    assert joined == spaced


# The corners of a square at t = i/4.  Rows may come in any order.
SQUARE_CSV = "t,x,y\n0,0.5,0.5\n0.5,-0.5,-0.5\n0.25,-0.5,0.5\n0.75,0.5,-0.5\n"
CIRCLE_CSV = "t,x,y\n" + "".join(
    f"{i / 64},{0.6 * math.cos(2 * math.pi * i / 64)},{0.6 * math.sin(2 * math.pi * i / 64)}\n"
    for i in range(64))


def test_curve_csv_input(tmp_path, capsys):
    for text in (CIRCLE_CSV, SQUARE_CSV):
        path = tmp_path / "loop.csv"
        path.write_text(text)
        code = main(["invariant", "--curve", str(path), "--samples", "256",
                     "--out", str(tmp_path / "t.json")])
        assert code == 0
        rep = json.loads((tmp_path / "t.json").read_text())
        assert rep["windings"] == {"turning": 1, "line": 2}
        assert rep["certificate"]["kind"] == "non_contractible"
        assert rep["crossings"] == []


@pytest.mark.parametrize("command,suffix,text", [
    ("scatter", ".json", "[1, 2]"),
    ("scatter", ".json", '"vacuum"'),
    ("scatter", ".json", '{"kind": "radial-profile", "profile": [1, 2]}'),
    ("scatter", ".json", '{"kind": "radial-profile", "profile": [[0.0, 1.2], [1.0, null]]}'),
    ("scatter", ".json", '{"kind": "vacuum", "radius": null}'),
    ("scatter", ".json", '{"kind": "eaton", "radius": 2}'),
    ("invariant", ".csv", "t,x,y\n0.0,1\n"),
    # The square of test_curve_csv_input with a closing row at t = 1 (its
    # spline would pass the first corner twice), with a repeated t, and with
    # a non-uniform t.
    ("invariant", ".csv", SQUARE_CSV + "1.0,0.5,0.5\n"),
    ("invariant", ".csv", SQUARE_CSV + "0.25,-0.5,0.5\n"),
    ("invariant", ".csv", SQUARE_CSV.replace("0.25,", "0.1,")),
    # The index overflows the solver's initial-step norm.
    ("scatter", ".json", '{"kind": "radial-profile", "profile": [[0, 1e150], [1, 1]]}'),
    ("trace", ".json", '{"kind": "radial-profile", "profile": [[0, 1e150], [1, 1]]}'),
    # A subnormal knot gap overflows the interpolant's secant slopes.
    ("scatter", ".json", '{"kind": "radial-profile", '
                         '"profile": [[0, 1.2], [1e-320, 1.1], [1, 1]]}'),
    ("trace", ".json", '{"kind": "radial-profile", '
                       '"profile": [[0, 1.2], [1e-320, 1.1], [1, 1]]}'),
    # Two adjacent infinite secants of one sign: their harmonic mean's
    # reciprocal is zero.
    ("scatter", ".json", '{"kind": "radial-profile", '
                         '"profile": [[0, 1.2], [1e-320, 1e300], [2e-320, 1e308], [1, 1]]}'),
    # The radius is checked before the profile is interpolated.
    ("scatter", ".json", '{"kind": "radial-profile", "radius": 5e-324, '
                         '"profile": [[0, 1.2], [5e-324, 1.0]]}'),
    ("trace", ".json", '{"kind": "radial-profile", "radius": 5e-324, '
                       '"profile": [[0, 1.2], [5e-324, 1.0]]}'),
    # The knots must start at r = 0, with strictly increasing radii and a
    # positive index.
    ("scatter", ".json", '{"kind": "radial-profile", '
                         '"profile": [[-0.5, 1.3], [0.4, 1.22], [1, 1]]}'),
    ("scatter", ".json", '{"kind": "radial-profile", "profile": [[0.1, 1.3], [1, 1]]}'),
    ("scatter", ".json", '{"kind": "radial-profile", '
                         '"profile": [[0, 1.3], [0.4, 1.22], [0.4, 1.1], [1, 1]]}'),
    ("scatter", ".json", '{"kind": "radial-profile", "profile": [[0, 1.3], [0.4, 0], [1, 1]]}'),
    ("scatter", ".json", '{"kind": "radial-profile", "profile": [[0, -1.3], [1, 1]]}'),
], ids=["list", "string", "flat-knots", "null-knot", "null-radius", "eaton-radius",
        "short-csv-row", "csv-closing-row", "csv-repeated-t", "csv-nonuniform-t",
        "overflowing-index", "overflowing-index-trace", "subnormal-gap",
        "subnormal-gap-trace", "overflowing-secants", "subnormal-radius", "subnormal-radius-trace",
        "negative-first-knot", "positive-first-knot", "repeated-knot", "zero-index",
        "negative-index"])
@pytest.mark.filterwarnings("error")  # a warning would reach stderr outside pytest
def test_malformed_input_file_is_input_error(tmp_path, capsys, command, suffix, text):
    path = tmp_path / f"input{suffix}"
    path.write_text(text)
    if command in ("scatter", "trace"):
        args = [command, "--metric", str(path), "--arc", "0", "--angle", "1"]
    else:
        args = ["invariant", "--curve", str(path)]
    code = main(args)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("lens-scatter: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        prog, *args = shlex.split(line)
        assert prog == "lens-scatter"
        assert main(args) == 0, line


# Records, in a fresh interpreter, what is loaded after the import and after
# each command of ORDER (set by the caller): scipy, argparse or gettext,
# numpy, the knot side and the geometry side; for a command, its exit code too.
LOADED_PROBE = """
import contextlib, io, json, sys
from lens_scatter.cli import main
COMMANDS = {
    "invariant": ["invariant", "--curve", "lemniscate", "--out", "inv.json",
                  "--emit-svg", "inv.svg"],
    "approx-pl": ["approx-pl", "--curve", "circle", "--report", "pl.csv"],
    "render": ["render", "--curve", "rose-3", "--out", "rose.svg"],
    "scatter": ["scatter", "--metric", "eaton", "--arc", "0.1", "--angle", "1.0"],
}
def loaded():
    return ["scipy" in sys.modules, "argparse" in sys.modules or "gettext" in sys.modules,
            "numpy" in sys.modules, "lens_scatter.knot" in sys.modules,
            "lens_scatter.geometry" in sys.modules]
report = {"import": loaded()}
for name in ORDER:
    with contextlib.redirect_stdout(io.StringIO()):
        report[name] = [main(COMMANDS[name]), *loaded()]
print(json.dumps(report))
"""


def test_knot_side_commands_load_no_scipy(tmp_path):
    # In a subprocess: the test process has scipy loaded by pytest's
    # warning filter for scipy.integrate.  The knot-side commands load
    # numpy and the knot side, never scipy or the geometry side.
    order = ["invariant", "approx-pl", "render", "scatter"]
    loaded = json.loads(run_python(f"ORDER = {order!r}" + LOADED_PROBE, tmp_path))
    knot_side = [0, False, False, True, True, False]
    assert loaded == {"import": [False, False, False, False, False],
                      "invariant": knot_side, "approx-pl": knot_side, "render": knot_side,
                      "scatter": [0, False, False, True, True, True]}


def test_exit_data_commands_load_no_numpy(tmp_path):
    # scatter loads the geometry side alone: neither numpy nor the knot side.
    order = ["scatter", "invariant"]
    loaded = json.loads(run_python(f"ORDER = {order!r}" + LOADED_PROBE, tmp_path))
    assert loaded == {"import": [False, False, False, False, False],
                      "scatter": [0, False, False, False, False, True],
                      "invariant": [0, False, False, True, True, True]}


# Runs the metric commands in a fresh interpreter where importing the module
# BLOCKED fails, on vacuum, the lens and the four-knot file KNOTS, and records
# each exit code and whether scipy, numpy.ma or the knot side got loaded.
METRIC_COMMANDS_PROBE = """
import contextlib, io, json, sys
sys.modules[BLOCKED] = None  # importing it now raises ImportError
from lens_scatter.cli import main
runs = {}
for metric in ("vacuum", "eaton", KNOTS):
    for argv in (["scatter", "--metric", metric, "--arc", "0.1", "--angle", "1.0"],
                 ["trace", "--metric", metric, "--arc", "0.2", "--angle", "0.7",
                  "--emit-svg", "ray.svg"],
                 ["compare", "--m1", "vacuum", "--m2", metric, "--grid", "4x2"],
                 ["render", "--metric", metric, "--grid", "4x2", "--out", "fan.svg"]):
        with contextlib.redirect_stdout(io.StringIO()):
            runs[" ".join(argv)] = main(argv)
with contextlib.redirect_stdout(io.StringIO()):
    runs["eaton"] = main(["eaton", "--grid", "4x2", "--emit-svg", "rays.svg",
                          "--svg-rays", "3"])
loaded = sorted(name for name, module in sys.modules.items() if module is not None
                and (name.split(".")[0] == "scipy" or name.split(".")[:2] == ["numpy", "ma"]
                     or name == "lens_scatter.knot"))
print(json.dumps({"runs": runs, "loaded": loaded}))
"""
KNOTS = str(Path(__file__).parent / "data" / "metric-four-knots.json")
NO_SCIPY_PROBE = f"BLOCKED, KNOTS = 'scipy', {KNOTS!r}" + METRIC_COMMANDS_PROBE
NO_NUMPY_PROBE = f"BLOCKED, KNOTS = 'numpy', {KNOTS!r}" + METRIC_COMMANDS_PROBE


def _all_run_and_nothing_loaded(probe, tmp_path):
    result = json.loads(run_python(probe, tmp_path))
    assert len(result["runs"]) == 13
    assert all(code == 0 for code in result["runs"].values()), result["runs"]
    assert result["loaded"] == []


def test_metric_commands_run_without_scipy(tmp_path):
    _all_run_and_nothing_loaded(NO_SCIPY_PROBE, tmp_path)


def test_metric_commands_run_without_numpy(tmp_path):
    _all_run_and_nothing_loaded(NO_NUMPY_PROBE, tmp_path)
