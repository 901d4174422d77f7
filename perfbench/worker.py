"""One pass of one workload, in a fresh interpreter.

Imports ``lens_scatter`` from the checkout's ``src``, builds the workload's
metrics and inputs, signals ready, runs every job once, and only then
checks each job's output, so that neither checking nor tracing set-up is
inside the timed pass.  Before each job and after the last it times a fixed
calibration kernel (:func:`probe`), which ``run.py`` uses to express the
pass time at a reference machine speed.  Writes its measurements as JSON to
``--result``; ``run.py`` starts it and aggregates.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def probe() -> float:
    """Seconds taken by a fixed pure-Python kernel of scalar math and calls.

    It shares no code with ``lens_scatter``, so a change to the program
    cannot move it; only the speed the machine gives this process can.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(20000):
        acc += math.hypot(k, 1.0) * math.exp(-1e-4 * k)
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import lens_scatter.cli  # noqa: F401  (the CLI pulls in every module)
    import_s = time.perf_counter() - t0
    import lens_scatter as ls
    if Path(ls.__file__).resolve().parent != src / "lens_scatter":
        print(f"worker: imported lens_scatter from {ls.__file__}, not {src}", file=sys.stderr)
        return 2

    import jobs
    from tracer import Tracer

    workdir = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        work = jobs.build(ls, args.workload, args.seed, workdir, bool(args.trace))
        ready = time.monotonic()

        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install(ls)
        evals0 = work.field.evals if work.field else 0
        outcomes = []
        probes = []
        wall_s = 0.0
        for job in work.jobs:
            probes.append(probe())
            t_job = time.perf_counter()
            try:
                if tracer:
                    with tracer.span("job." + job.name, job=job.name):
                        out = job.run()
                else:
                    out = job.run()
                outcomes.append((job, out, None))
            except (Exception, SystemExit) as exc:  # a failed job never stops the pass
                outcomes.append((job, None, exc))
            wall_s += time.perf_counter() - t_job
        probes.append(probe())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
            field_evals = (work.field.evals - evals0) if work.field else 0

        failures = []
        for job, out, exc in outcomes:
            if exc is None:
                try:
                    job.check(out)
                except Exception as check_exc:
                    exc = check_exc
            if exc is not None:
                failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
                if not isinstance(exc, AssertionError):
                    traceback.print_exception(exc, file=sys.stderr)

        result = {"ready": ready, "import_s": import_s, "eaton_table_s": work.eaton_table_s,
                  "wall_s": wall_s, "probe_s": sum(probes) / len(probes), "rss_mb": rss_mb,
                  "attempted": len(work.jobs), "failures": failures}
        if tracer:
            result["layers"] = tracer.layer_metrics(wall_s, work.demanded_pairs, field_evals)
            if args.spans:
                tracer.dump(args.spans)
        Path(args.result).write_text(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
