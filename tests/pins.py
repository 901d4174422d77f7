"""Every pinned report: the command that writes it and its golden file in
``tests/data``.

The tests run each pin (``tests/test_cli.py::test_report_is_pinned``).  Run
as a script, this file checks every pin with its interpreter's
``lens_scatter``, names each pin that does not hold, and exits 1 if any
fails; it needs numpy alone:

    python tests/pins.py

Only reports whose bytes do not depend on the CPU's BLAS kernel or numpy's
SIMD level are pinned (README, "Portable bytes").  Quadrature and traces
are: the Gauss-Kronrod rule and the solver sum Python floats, both evaluate
the index one point at a time by libm (the lens's cube root too), and the
turning radius is bracketed on a grid of libm powers.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from lens_scatter import cli

DATA = Path(__file__).resolve().parent / "data"


class Pin(NamedTuple):
    """``argv`` writes the report to stdout, or to the file ``{report}``
    when it names one; the command must then print ``stdout`` and nothing
    else.  ``{data}`` stands for ``tests/data``."""

    argv: tuple
    golden: str
    stdout: str = ""

    @property
    def name(self) -> str:
        return self.golden.rsplit(".", 1)[0]


PINS = (
    *(Pin(("invariant", "--curve", curve), f"invariant-{curve}.json")
      for curve in ("circle", "lemniscate", "rose-3", "rose-5")),
    Pin(("approx-pl", "--curve", "circle", "--report", "{report}"), "approx-pl-circle.csv",
        "approx-pl: n=128, separations 0.1227 0.1227 0.1227 0.1227 0.1227\n"),
    Pin(("approx-pl", "--curve", "lemniscate", "--samples", "2048", "--report", "{report}"),
        "approx-pl-lemniscate-2048.csv",
        "approx-pl: n=512, separations 0.0300 0.0300 0.0300 0.0301 0.0301\n"),
    Pin(("render", "--curve", "lemniscate", "--out", "{report}"), "render-lemniscate.svg"),
    # Clairaut quadrature on the flat disk, on a tabulated profile and on
    # the lens.
    Pin(("scatter", "--metric", "vacuum", "--arc", "0", "--angle", "0.785398"),
        "scatter-vacuum.json"),
    Pin(("scatter", "--metric", "{data}/metric-four-knots.json", "--arc", "0.1",
         "--angle", "1.0"), "scatter-four-knots.json"),
    Pin(("compare", "--m1", "vacuum", "--m2", "{data}/metric-four-knots.json",
         "--grid", "16x8"), "compare-vacuum-four-knots.json"),
    Pin(("scatter", "--metric", "eaton", "--arc", "0.1", "--angle", "1.0"),
        "scatter-eaton.json"),
    Pin(("compare", "--m1", "vacuum", "--m2", "eaton", "--grid", "16x8"),
        "compare-vacuum-eaton.json"),
    Pin(("eaton", "--grid", "64"), "eaton-64.json"),
    # Traced geodesics: every sample of a chord and of a lens ray, and a fan
    # on a tabulated profile.
    Pin(("trace", "--metric", "vacuum", "--arc", "0", "--angle", "1.136", "--stride", "1"),
        "trace-vacuum.json"),
    Pin(("trace", "--metric", "eaton", "--arc", "0.1", "--angle", "1.0", "--stride", "1"),
        "trace-eaton.json"),
    Pin(("render", "--metric", "{data}/metric-four-knots.json", "--grid", "4x2",
         "--out", "{report}"), "render-four-knots.svg"),
)


def mismatches(pin: Pin, tmp) -> list:
    """How ``pin``'s output, written in the directory ``tmp``, differs from
    its golden file: an empty list when the pin holds."""
    report = Path(tmp) / pin.golden
    argv = [arg.format(report=report, data=DATA) for arg in pin.argv]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(argv)
    if code != 0:
        return [f"exit status {code}"]
    problems = []
    if "{report}" in pin.argv:
        got = report.read_bytes()
        if printed.getvalue() != pin.stdout:
            problems.append(f"printed {printed.getvalue()!r}, not {pin.stdout!r}")
    else:
        got = printed.getvalue().encode()
    if got != (DATA / pin.golden).read_bytes():
        problems.append(f"output differs from tests/data/{pin.golden}")
    return problems


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for pin in PINS:
            problems = mismatches(pin, tmp)
            failed += bool(problems)
            for problem in problems:
                print(f"pin {pin.name}: {problem}")
    print(f"{len(PINS) - failed} of {len(PINS)} pins hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
