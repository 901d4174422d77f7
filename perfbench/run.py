"""lens-scatter benchmark: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload lens-exit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass is a fresh interpreter
(``worker.py``) that imports the package from ``src``, sets up, runs the
workload's jobs once and checks every output, so no in-process cache
outlives a pass, just as none outlives a CLI call.  Passes repeat until
``--seconds`` is used up; the run reports medians over them.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics,
including the tracing overhead (traced minus untraced wall time).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; per-pass raw figures and failed
checks go to standard error.

``wall_s`` is given in reference seconds: each pass's measured job time is
scaled by ``REFERENCE_PROBE_S`` over the mean time of the calibration kernel
``worker.probe`` timed between that pass's jobs.  On a shared machine whose
speed drifts by tens of percent over seconds to minutes, this cancels the
drift and leaves the program's own cost.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS  # noqa: E402
from tracer import EXACT, PER_LAYER  # noqa: E402

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
PASS_TIMEOUT_S = 150
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
# worker.probe() takes about this long on an uncontended core of a 2.1 GHz VM.
REFERENCE_PROBE_S = 0.003


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("LENS_SCATTER_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_pass(args, traced: bool, index: int, out_dir: Path, env: dict) -> dict:
    result = out_dir / f"result-{os.getpid()}-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), "--result", str(result)]
    if traced:
        spans = out_dir / "spans" / f"{args.workload}-seed{args.seed}-pass{index}.json"
        spans.parent.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans)]
    spawn = time.monotonic()
    # The worker's stdout goes to our stderr: our stdout carries only the result.
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"pass {index} exited with code {proc.returncode}")
    data = json.loads(result.read_text())
    result.unlink()
    data["setup_s"] = data["ready"] - spawn
    data["ref_wall_s"] = data["wall_s"] * REFERENCE_PROBE_S / data["probe_s"]
    data["traced"] = traced
    print(f"pass {index}{' traced' if traced else ''}: setup {data['setup_s']:.3f} s, "
          f"wall {data['wall_s']:.3f} s, probe {1e3 * data['probe_s']:.2f} ms, "
          f"wall at reference speed {data['ref_wall_s']:.3f} s, "
          f"{len(data['failures'])} failed", file=sys.stderr)
    return data


def _median(values) -> float:
    return float(statistics.median(values))


def _per_layer(plain: list[dict], traced: list[dict], passes: list[dict]) -> tuple[dict, bool]:
    values = {name: _median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    steady = True
    for name in EXACT:
        seen = {p["layers"][name] for p in traced}
        if len(seen) > 1:
            print(f"exact count {name} differs between passes: {sorted(seen)}", file=sys.stderr)
            steady = False
        values[name] = traced[0]["layers"][name]
    values["setup.import_s"] = _median(p["import_s"] for p in passes)
    values["setup.eaton_table_s"] = _median(p["eaton_table_s"] for p in passes)
    # On the same reference-speed scale as wall_s, so the two compare.
    values["trace.wall_s"] = _median(p["ref_wall_s"] for p in traced)
    values["trace.overhead_s"] = values["trace.wall_s"] - _median(p["ref_wall_s"] for p in plain)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name in units}, steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lens_scatter" / "__init__.py").is_file():
        print(f"run.py: no lens_scatter sources under {src}", file=sys.stderr)
        return 2
    # The build: byte-compile the package so the first pass does not pay for it.
    if not compileall.compile_dir(str(src), quiet=1):
        print("run.py: the package does not compile", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    env = _child_env()
    passes: list[dict] = []
    start = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(_run_pass(args, traced, len(passes), out_dir, env))
            enough = len(passes) >= (2 if args.trace else 1)
            per_pass = (time.monotonic() - start) / len(passes)
            if enough and time.monotonic() - start + per_pass > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    failures = [f for p in passes for f in p["failures"]]
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    correct = not failures

    if args.trace:
        metrics, steady = _per_layer(plain, traced, passes)
        correct = correct and steady
    else:
        values = {"setup_s": _median(p["setup_s"] for p in plain),
                  "wall_s": _median(p["ref_wall_s"] for p in plain),
                  "peak_rss_mb": _median(p["rss_mb"] for p in plain)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"{len(passes)} passes ({len(traced)} traced) in "
          f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": sum(p["attempted"] for p in passes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
