"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload sweep-cold --seeds 1 2 3 4 5 --seconds 20

Runs run.py once per seed, one after another, and prints for every metric
the median over the runs and the distance between the first and third
quartiles (statistics.quantiles(values, n=4)) as a share of that median,
both for the gated (rescaled) values and the raw wall-clock ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    gated: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", "0"], cwd=HERE.parent, capture_output=True,
                              text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        record_path = HERE.parent / ".perfbench_out" / f"record-{args.workload}-seed{seed}-trace0.json"
        record = json.loads(record_path.read_text())
        for name, metric in result["metrics"].items():
            gated.setdefault(name, []).append(metric["value"])
        for name, value in record["raw_wall_clock"].items():
            raw.setdefault(name, []).append(value)
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs of {args.seconds:g} s")
    for name, values in gated.items():
        line = f"  {name:12s} median {statistics.median(values):.5g}  spread {spread(values):.3f}"
        if name in raw:
            line += f"  (raw median {statistics.median(raw[name]):.5g} spread {spread(raw[name]):.3f})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
