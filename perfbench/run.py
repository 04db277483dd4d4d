"""Benchmark of the diracpl series-solution program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

One workload per call prints a readable report, then, as its last line, one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
--all runs every workload both ways and prints every metric with its unit
and sample count.  Each call also writes a run record (seed, commit, machine,
versions, load, raw per-op latencies) under .perfbench_out/.

The measured processes are fresh interpreters started by this script, one at
a time (a closed loop with one client), with BLAS/OpenMP pinned to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Phase, calibrate
from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sweep-cold", "verify-warm", "residual-grid")
# Fresh-interpreter set-ups per untraced run; setup_s is their median.
SETUP_REPEATS = 3
# A call must end within 180 s; its workers share this budget.
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                    "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    from tracer import COUNTERS, MODULES, NAMES
    units = {}
    for name in NAMES:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s", f"{name}.total_s": "s"})
    for module in MODULES:
        units.update({f"{module}.self_s": "s", f"{module}.errors": "count"})
    units.update(dict.fromkeys(COUNTERS, "count"))
    units.update({"forms.rule_miss_ratio": "ratio", "trace.overhead_frac": "ratio",
                  "trace.coverage_frac": "ratio"})
    return units


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result (missing program, worker failure)."""


# ---------------------------------------------------------------------------
# statistics


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten ops
    beyond it; never below the median, which is returned below 20 ops."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def histogram(latencies: list[float], bins: int = 10) -> dict:
    """Equal-width bin counts between the fastest and the slowest op."""
    lo, hi = min(latencies), max(latencies)
    width = (hi - lo) / bins or 1.0
    counts = [0] * bins
    for value in latencies:
        counts[min(int((value - lo) / width), bins - 1)] += 1
    return {"lo": lo, "hi": hi, "counts": counts}


def one_cluster_share(latencies: list[float], within: float = 0.10) -> float:
    """Share of ops within +-10% of the median: near 1 for a single cluster."""
    mid = statistics.median(latencies)
    return sum(abs(v - mid) <= within * mid for v in latencies) / len(latencies)


# ---------------------------------------------------------------------------
# provenance


def _read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def _commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


# ---------------------------------------------------------------------------
# running workers


def _spawn(workload: str, seed: int, seconds: float, mode: str, tag: str,
           deadline: float) -> dict:
    workdir = OUT / "work" / f"{workload}-{seed}-{tag}-{os.getpid()}"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--workdir", str(workdir)]
    if mode == "trace":
        argv += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.csv.gz")]
    parent_ref = calibrate()
    spawned_at = time.perf_counter()
    try:
        done = subprocess.run(argv + ["--parent-ref", repr(parent_ref),
                                      "--spawned-at", repr(spawned_at)], cwd=ROOT,
                              env=_worker_env(), capture_output=True, text=True,
                              timeout=max(deadline - spawned_at, 1.0), check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} {mode} worker overran the {RUN_BUDGET_S:g} s "
                             "budget of one call") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"{workload} {mode} worker exited {done.returncode}:\n"
                             f"{done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _time_metrics(latencies: list[float], setups: list[float]) -> tuple[dict, float]:
    """setup_s, op_p50_s and op_tail_s, and the tail's percentile."""
    tail_value, tail_pct = tail(latencies)
    return {"setup_s": statistics.median(setups), "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_value}, tail_pct


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload; returns the contract result plus the full run record."""
    if not (ROOT / "src" / "diracpl" / "__init__.py").is_file():
        raise BenchmarkError(f"no diracpl package under {ROOT / 'src'}")
    deadline = time.perf_counter() + RUN_BUDGET_S
    OUT.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
              "commit": _commit(), "source_sha256": _source_digest(),
              "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
              "platform": platform.platform(),
              "loadavg_before": _read_loadavg()}
    if traced:
        result = _spawn(workload, seed, seconds, "trace", "trace", deadline)
        phase, traced_phase = Phase(**result["phase"]), Phase(**result["traced_phase"])
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        attempted = len(phase.latencies) + len(traced_phase.latencies)
        record.update({"traced_latencies_s": traced_phase.latencies, "spans": result["spans"]})
        setups = [result]
    else:
        setups = [_spawn(workload, seed, seconds, "setup", f"setup{k}", deadline)
                  for k in range(SETUP_REPEATS - 1)]
        result = _spawn(workload, seed, seconds, "measure", "measure", deadline)
        setups.append(result)
        phase = Phase(**result["phase"])
        # Gated values are rescaled to the reference speed (see calibrate.py);
        # the raw wall-clock values go into the record next to them.
        values, tail_pct = _time_metrics(phase.normalized, [s["setup_normalized_s"] for s in setups])
        values["ops_per_s"] = phase.normalized_ops_per_s()
        values["peak_rss_mb"] = result["peak_rss_mb"]
        raw, _ = _time_metrics(phase.latencies, [s["setup_s"] for s in setups])
        raw["ops_per_s"] = phase.ops_per_s()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        record.update({"op_tail_percentile": tail_pct, "extra": result["extra"],
                       "raw_wall_clock": raw,
                       "histogram": histogram(phase.normalized),
                       "one_cluster_share": one_cluster_share(phase.normalized)})
        attempted = len(phase.latencies)
    record.update({"loadavg_after": _read_loadavg(), "environment": result["environment"],
                   "setup_samples_s": [s["setup_s"] for s in setups],
                   "latencies_s": phase.latencies, "calibration_s": phase.refs,
                   "failures": result["failures"], "metrics": metrics})
    path = OUT / f"record-{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = path
    contract = {"correct": not result["failures"], "attempted": attempted,
                "failed": len(result["failures"]), "metrics": metrics}
    return {"contract": contract, "record": record}


# ---------------------------------------------------------------------------
# reporting


def report(run: dict) -> None:
    rec, res = run["record"], run["contract"]
    lat = rec["latencies_s"]
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"commit={rec['commit'] or 'n/a'} src={rec['source_sha256'][:12]} "
          f"nproc={rec['nproc']} load {rec['loadavg_before']} -> {rec['loadavg_after']}")
    print(f"  ops_attempted {res['attempted']}  ops_failed {res['failed']}")
    for failure in rec["failures"][:5]:
        print(f"  FAILED {failure}")
    counts = {"setup_s": len(rec["setup_samples_s"]), "peak_rss_mb": 1}
    for name, metric in res["metrics"].items():
        n = counts.get(name, len(lat) if not rec["trace"] else len(rec["traced_latencies_s"]))
        note = f" p{rec['op_tail_percentile']:.1f}" if name == "op_tail_s" else ""
        if name in rec.get("raw_wall_clock", {}):
            note += f"  [raw wall clock {rec['raw_wall_clock'][name]:.6g}]"
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']} (n={n}){note}")
    if not rec["trace"]:
        for key, value in rec["extra"].items():
            if key != "probe_rungs":
                n = res["attempted"] if key.startswith("checks_failed") else 1
                print(f"  {key:48s} {value} count (n={n})")
        hist = rec["histogram"]
        print(f"  per-op latency {hist['lo']:.4g}..{hist['hi']:.4g} s, bins {hist['counts']}, "
              f"{100 * rec['one_cluster_share']:.0f}% within 10% of the median")
    print(f"  record {rec['path'].relative_to(ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="diracpl benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.workload:
            run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            report(run)
            print(json.dumps(run["contract"]))
            return 0
        summary = {}
        for workload in WORKLOADS:
            for traced in (False, True):
                run = run_workload(workload, args.seed, args.seconds, traced)
                report(run)
                summary.setdefault(workload, {}).update(
                    {name: m["value"] for name, m in run["contract"]["metrics"].items()})
        print(json.dumps(summary))
        return 0
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
