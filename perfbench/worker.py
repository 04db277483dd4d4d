"""The measured process: set up one workload, time its ops, check their outputs.

Started by run.py in a fresh interpreter with BLAS/OpenMP pinned to one
thread.  Modes:

  setup    set up (imports, inputs, setup solves, warm-up pass) and exit;
           reports the time since the parent spawned it
  measure  set up, run the closed timed loop (one client), check every
           op's output, run the workload's untimed extras
  trace    set up, run half the time untraced and half traced, and report
           the per-layer metrics of the traced ops

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

from calibrate import Phase, Stopwatch, calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def timed_phase(workload, seconds: float, first: int, tracer=None):
    """Run ops back to back until ``seconds`` have passed; the op in flight finishes.

    Every step is bracketed by two calibration readings; an op's time is the
    sum of its steps' times."""
    latencies, normalized, results, errors = [], [], [], []
    watch = Stopwatch(calibrate())
    start = time.perf_counter()
    i = first
    while True:
        workload.prepare_op(i)
        if tracer is not None:
            tracer.op = i
        raw = scaled = 0.0
        outputs, error = [], None
        for step in workload.steps(i):
            watch.restart()
            try:
                outputs.append(step())
            except Exception as exc:  # a failed op is counted, the loop goes on
                error = f"{type(exc).__name__}: {exc}"
            took, rescaled = watch.lap()
            raw += took
            scaled += rescaled
            if error is not None:
                break
        latencies.append(raw)
        normalized.append(scaled)
        results.append(outputs)
        errors.append(error)
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    return Phase(latencies, normalized, watch.refs, wall, watch.ref_s), results, errors


def check_ops(workload, first: int, results, errors) -> list[str]:
    """One message per failed op: its exception or its failed output check."""
    failures = []
    for offset, (result, error) in enumerate(zip(results, errors)):
        i = first + offset
        if error is None:
            try:
                error = workload.check(i, result)
            except Exception as exc:  # an unreadable output fails the op
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"op {i}: {error}")
    return failures


def environment() -> dict:
    """Versions and the thread settings this process runs with."""
    import mpmath
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "thread_env": {var: os.environ.get(var) for var in THREAD_VARS}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() of the parent just before it started this process")
    parser.add_argument("--parent-ref", type=float, required=True,
                        help="the parent's calibration reading just before it started this process")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="trace mode: where to write the spans")
    args = parser.parse_args(argv)

    # Set-up runs from the parent's spawn to the first timed op, as laps
    # split at calibration readings: interpreter start, imports, then each
    # warm-up step.
    setup = Stopwatch(args.parent_ref, started=args.spawned_at)
    setup.lap()
    if not (SRC / "diracpl" / "__init__.py").is_file():
        print(f"no diracpl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import diracpl
    if Path(diracpl.__file__).resolve().parent != (SRC / "diracpl").resolve():
        print(f"imported {diracpl.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, args.workdir)
        setup.lap()
        for step in workload.warmup_steps():
            step()
            setup.lap()
        gc.collect()
        laps = setup.laps
        out = {"setup_s": sum(raw for raw, _ in laps),
               "setup_normalized_s": sum(scaled for _, scaled in laps),
               "environment": environment()}
        if args.mode == "measure":
            out.update(measure(workload, args.seconds))
        elif args.mode == "trace":
            out.update(trace(workload, args.seconds, args.spans))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def measure(workload, seconds: float) -> dict:
    phase, results, errors = timed_phase(workload, seconds, 0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = check_ops(workload, 0, results, errors)
    if hasattr(workload, "probe"):
        workload.probe()
    return {"phase": asdict(phase), "peak_rss_mb": peak_rss_mb,
            "failures": failures, "extra": workload.extra(len(phase.latencies))}


def trace(workload, seconds: float, spans: Path | None) -> dict:
    from tracer import Tracer

    plain, plain_results, plain_errors = timed_phase(workload, seconds / 2.0, 0)
    failures = check_ops(workload, 0, plain_results, plain_errors)
    tracer = Tracer()
    with tracer:
        traced, results, errors = timed_phase(workload, seconds / 2.0, len(plain.latencies), tracer)
    failures += check_ops(workload, len(plain.latencies), results, errors)
    metrics = tracer.metrics(len(traced.latencies))
    metrics["trace.overhead_frac"] = (statistics.median(traced.normalized)
                                      / statistics.median(plain.normalized) - 1.0)
    metrics["trace.coverage_frac"] = tracer.root_time() / sum(traced.latencies)
    if spans is not None:
        tracer.write(spans)
    return {"phase": asdict(plain), "traced_phase": asdict(traced), "failures": failures,
            "per_layer": metrics, "spans": len(tracer.starts)}


if __name__ == "__main__":
    sys.exit(main())
