import json
import math

import pytest

from lens_scatter.cli import main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


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

    @pytest.mark.parametrize("step_tol", ["nan", "0", "-1"])
    @pytest.mark.parametrize("metric", ["vacuum", "eaton"])
    def test_bad_step_tol_is_input_error(self, capsys, metric, step_tol):
        code = main(["--step-tol", step_tol, "scatter", "--metric", metric,
                     "--arc", "0", "--angle", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "step_tol must be finite and positive" in captured.err

    @pytest.mark.parametrize("radius", [0, -1])
    def test_non_positive_radius_is_input_error(self, tmp_path, capsys, radius):
        spec = {"kind": "radial-profile", "radius": radius,
                "profile": [[0.0, 1.2], [1.0, 1.0]]}
        path = tmp_path / "metric.json"
        path.write_text(json.dumps(spec))
        code = main(["scatter", "--metric", str(path), "--arc", "0", "--angle", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "metric radius must be positive" in captured.err
        assert "Traceback" not in captured.err

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
        code, out = run(["eaton", "--check", "invisibility", "--grid", "4x2",
                         "--tol", "1e-12"], capsys)
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


def test_threads_env_guard(monkeypatch, capsys):
    monkeypatch.setenv("LENS_SCATTER_THREADS", "zero")
    assert main(["invariant", "--curve", "circle"]) == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "lens-scatter" in capsys.readouterr().out


def test_curve_csv_input(tmp_path, capsys):
    ts = [i / 64 for i in range(64)]
    rows = ["t,x,y"] + [f"{t},{0.6 * math.cos(2 * math.pi * t)},"
                        f"{0.6 * math.sin(2 * math.pi * t)}" for t in ts]
    path = tmp_path / "loop.csv"
    path.write_text("\n".join(rows) + "\n")
    code = main(["invariant", "--curve", str(path), "--samples", "256",
                 "--out", str(tmp_path / "t.json")])
    assert code == 0
    rep = json.loads((tmp_path / "t.json").read_text())
    assert rep["windings"] == {"turning": 1, "line": 2}
    assert rep["certificate"]["kind"] == "non_contractible"
