"""Compare the CLI outputs of two source trees, command by command.

    python3 tools/compare_outputs.py --base DIR --change DIR

Each tree is a checkout of this repository (its package under DIR/src).  Every
command in COMMANDS runs once per tree, as ``python -m diracpl.cli`` in a fresh
interpreter with that tree's src on PYTHONPATH and the same relative --out, so
the printed paths match.  The exit code, stdout, stderr and every output file
must agree byte for byte; report.json is compared without config.out.  Prints
one line per command and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, argv): the README commands, the four golden cases (readme-solve is
# one), the four verify-warm configurations (readme-verify is one, at its
# default N = 40), the CI verifies at a large recursion angle, at extreme rho
# and with a user rep-c alpha, long-horizon solves, a rep-a verify at N = 150,
# solves of reps a, b and c and a rep-a verify at N = 400, and three refused
# inputs (exit 2): solves past the rep-a and rep-c ceilings (f_640 and the
# order-723 rule leave double range) and a rep-c alpha at its bound.  Two inputs
# reach the quadrature route's cross weights where a careless formula leaves
# roundoff: the README library example (q = -4.4e-16 before the snap to 0) and
# verify-c0-roundoff, a contract-sweep draw where kappa - beta (kappa/beta) is
# not 0 in doubles.
COMMANDS = (
    ("readme-solve", ["solve", "--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1",
                      "--N", "20"]),
    ("readme-verify", ["verify", "--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1"]),
    ("readme-convergence", ["convergence", "--A", "1", "--mu", "-1.5", "--kappa", "-3",
                            "--omega", "0.5253"]),
    ("readme-special-case", ["special-case", "--A", "2", "--mu", "0.5", "--kappa", "-1"]),
    ("golden-rep-b-n40", ["solve", "--A", "1", "--mu", "-1.5", "--kappa", "-3", "--N", "40"]),
    ("golden-rep-c-n40", ["solve", "--A", "1", "--mu", "2", "--kappa", "-1", "--N", "40"]),
    ("golden-eps-minus-n40", ["solve", "--A", "2", "--mu", "0.5", "--kappa", "-1",
                              "--epsilon", "-1", "--N", "40"]),
    ("verify-readme-library", ["verify", "--A", "1", "--mu", "-1.5", "--kappa", "-3",
                               "--N", "40"]),
    ("verify-rep-c", ["verify", "--A", "1", "--mu", "2", "--kappa", "-1", "--N", "40"]),
    ("verify-eps-minus", ["verify", "--A", "2", "--mu", "0.5", "--kappa", "-1",
                          "--epsilon", "-1", "--N", "40"]),
    ("verify-large-theta", ["verify", "--A", "-1.7164122766073617", "--mu",
                            "-3.8641876132271795", "--kappa", "-5", "--omega",
                            "0.9324215474167732"]),
    ("verify-rho-553", ["verify", "--A", "14.202967632234262", "--mu",
                        "-0.0003961086828168446", "--kappa", "-6", "--omega",
                        "0.05136804371362816"]),
    ("verify-rho-0.0146", ["verify", "--A", "0.682400674505875", "--mu", "-1.8283871637591878",
                           "--kappa", "-2", "--N", "80", "--omega", "3.447820115026237"]),
    ("verify-rep-c-alpha", ["verify", "--A", "1", "--mu", "2", "--kappa", "-1",
                            "--alpha", "1.2"]),
    ("solve-rep-b-160", ["solve", "--A", "1", "--mu", "-1.5", "--kappa", "-3", "--N", "160"]),
    ("solve-rep-a-113", ["solve", "--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1",
                         "--N", "113"]),
    ("solve-rep-a-176", ["solve", "--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1",
                         "--N", "176"]),
    ("verify-rep-a-150", ["verify", "--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1",
                          "--N", "150"]),
    ("solve-rep-b-177", ["solve", "--A", "1", "--mu", "-1.5", "--kappa", "-3", "--N", "177"]),
    ("solve-rep-c-176", ["solve", "--A", "1", "--mu", "2", "--kappa", "-1", "--N", "176"]),
    ("solve-rep-a-400", ["solve", "--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1",
                         "--N", "400"]),
    ("solve-rep-b-400", ["solve", "--A", "1", "--mu", "-1.5", "--kappa", "-3", "--N", "400"]),
    ("solve-rep-c-400", ["solve", "--A", "1", "--mu", "2", "--kappa", "-1", "--N", "400"]),
    ("verify-rep-a-400", ["verify", "--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1",
                          "--N", "400"]),
    ("solve-rep-a-639", ["solve", "--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1",
                         "--N", "639"]),
    ("solve-rep-c-715", ["solve", "--A", "1", "--mu", "2", "--kappa", "-1", "--N", "715"]),
    ("verify-c0-roundoff", ["verify", "--A=-0.07871724553852956", "--mu=1.4334522641709198",
                            "--kappa=-7", "--N=80", "--omega=15.358355579731617"]),
    ("solve-rep-c-alpha-bound", ["solve", "--A", "1", "--mu", "2", "--kappa", "-1",
                                 "--alpha=0.5"]),
)


def run(tree: Path, name: str, argv: list[str], work: Path) -> dict:
    """One command in one tree: its exit code, console output and output files."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"), "PYTHONHASHSEED": "0"}
    proc = subprocess.run([sys.executable, "-m", "diracpl.cli", *argv, "--out", f"out/{name}"],
                          cwd=work, env=env, capture_output=True)
    out = work / "out" / name
    files = {path.name: path.read_bytes() for path in sorted(out.glob("*")) if path.is_file()}
    if "report.json" in files:  # config.out is the one line whose key is "out"
        files["report.json"] = b"".join(line for line in files["report.json"].splitlines(True)
                                        if not line.strip().startswith(b'"out":'))
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            **{f"file {key}": value for key, value in files.items()}}


def differences(base: dict, change: dict) -> list[str]:
    return [key for key in sorted(set(base) | set(change)) if base.get(key) != change.get(key)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="the reference source tree")
    parser.add_argument("--change", type=Path, required=True, help="the tree under test")
    args = parser.parse_args(argv)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in COMMANDS:
            results = []
            for side in ("base", "change"):
                work = Path(tmp) / side
                work.mkdir(exist_ok=True)
                results.append(run(getattr(args, side), name, command, work))
            diff = differences(*results)
            failed += bool(diff)
            status = f"DIFFER ({', '.join(diff)})" if diff else "same"
            print(f"{name}: exit {results[1]['exit code']}, "
                  f"{sum(k.startswith('file') for k in results[1])} files: {status}")
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} commands identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
