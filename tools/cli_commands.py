"""The command-line reproducers: one table, read by two gates.

    python3 tools/cli_commands.py check OUT_DIR
    python3 tools/cli_commands.py compare --base DIR --change DIR

Each COMMANDS entry (name, argv, exit code) runs in a fresh process with
--out NAME appended, from a directory that holds aliases.cfg.  check runs the
installed diracpl in OUT_DIR under PYTHONWARNINGS=error: each command must exit
as declared, with one stderr line on exit 2, and each diracpl line of README.md's
sh blocks, less its --out, must be an entry.  compare runs each command as
``python -m diracpl.cli`` in two checkouts of this repository, with DIR/src on
PYTHONPATH: exit code, stdout, stderr and every output file must agree byte for
byte (report.json without config.out).  Both print one line per command and
exit 1 on any failure.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ALIASES = "A = 1\nmu = -1.5\nkappa = -3\nlambda = 1\nepsilon = 1\n"

COMMANDS = (
    # The README commands, --help, and verify-config, whose file ALIASES uses alias keys.
    ("readme-solve", "solve --A 3 --mu -2 --kappa 1 --omega 1 --N 20", 0),
    ("readme-verify", "verify --A 3 --mu -2 --kappa 1 --omega 1", 0),
    ("readme-convergence", "convergence --A 1 --mu -1.5 --kappa -3 --omega 0.5253", 0),
    ("readme-special-case", "special-case --A 2 --mu 0.5 --kappa -1", 0),
    ("help", "--help", 0),
    ("verify-config", "verify --config aliases.cfg", 0),
    # The golden cases besides readme-solve.
    ("golden-rep-b-n40", "solve --A 1 --mu -1.5 --kappa -3 --N 40", 0),
    ("golden-rep-c-n40", "solve --A 1 --mu 2 --kappa -1 --N 40", 0),
    ("golden-eps-minus-n40", "solve --A 2 --mu 0.5 --kappa -1 --epsilon -1 --N 40", 0),
    # The README library example (rep b, whose quadrature cross weight q is
    # -4.4e-16 before the snap to 0) and the other verify-warm configurations;
    # eps = -1 runs the energy reflection, kappa = -1 the rep-c branch of the
    # batched stencil, and --alpha 1.2 a user alpha, which rep c bounds.
    ("verify-readme-library", "verify --A 1 --mu -1.5 --kappa -3 --N 40", 0),
    ("verify-rep-c", "verify --A 1 --mu 2 --kappa -1 --N 40", 0),
    ("verify-eps-minus", "verify --A 2 --mu 0.5 --kappa -1 --epsilon -1 --N 40", 0),
    ("verify-rep-c-alpha", "verify --A 1 --mu 2 --kappa -1 --alpha 1.2", 0),
    # The weak-form projection's edges: N = 0 has no interior row, N = 1 one.
    ("verify-n0", "verify --A 1 --mu -1.5 --kappa -3 --N 0", 0),
    ("verify-n1", "verify --A 1 --mu -1.5 --kappa -3 --N 1", 0),
    # A recursion angle where cosh^2(theta) ~ 1.5e4; rep-b coefficients that
    # change by only e^-|theta|, |theta| <= 0.03, per step (rho = 553 and
    # 0.0146); nu = 400, whose Gamma(n+1+nu) leaves double range while the
    # running product R_n of the coefficient scaling does not; and a
    # contract-sweep draw where kappa - beta (kappa/beta) is not 0 in doubles.
    ("verify-large-theta", "verify --A -1.7164122766073617 --mu -3.8641876132271795 "
                           "--kappa -5 --omega 0.9324215474167732", 0),
    ("verify-rho-553", "verify --A 14.202967632234262 --mu -0.0003961086828168446 "
                       "--kappa -6 --omega 0.05136804371362816", 0),
    ("verify-rho-0.0146", "verify --A 0.682400674505875 --mu -1.8283871637591878 "
                          "--kappa -2 --N 80 --omega 3.447820115026237", 0),
    ("verify-nu-400", "verify --A=-0.02824516806695166 --mu=1.012511070587796 --kappa=-3 --N=5",
     0),
    ("verify-c0-roundoff", "verify --A=-0.07871724553852956 --mu=1.4334522641709198 "
                           "--kappa=-7 --N=80 --omega=15.358355579731617", 0),
    # Large |kappa|, nu up to ~8e5: psi_0's exponent is a sum of terms ~nu log nu
    # that cancel to O(1), so it is formed about x = nu (`orthopoly.sqrt_psi0`).
    ("verify-kappa-1e5", "verify --A 1 --mu -1.5 --kappa 100000 --N 10", 0),
    ("verify-kappa-1e6", "verify --A 1 --mu -1.5 --kappa 1000000 --N 10", 0),
    ("verify-kappa-1e6-n40", "verify --A 1 --mu -1.5 --kappa 1000000 --N 40", 0),
    ("verify-kappa-minus-1e6", "verify --A 1 --mu -1.5 --kappa -1000000 --N 10", 0),
    ("verify-mu-2-kappa-1e6-n40", "verify --A 1 --mu 2 --kappa 1000000 --N 40", 0),
    # Long horizons: rep b's coefficient product at N = 160, the ceilings of
    # the raw-polynomial forms the Laguerre-function kernel replaced (rep a at
    # 113 and 176, |g| up to 1.1e84; rep b at 177; rep c at 176), and N = 400
    # in every representation, where those forms stopped.
    ("solve-rep-b-160", "solve --A 1 --mu -1.5 --kappa -3 --N 160", 0),
    ("solve-rep-a-113", "solve --A 3 --mu -2 --kappa 1 --omega 1 --N 113", 0),
    ("solve-rep-a-176", "solve --A 3 --mu -2 --kappa 1 --omega 1 --N 176", 0),
    ("verify-rep-a-150", "verify --A 3 --mu -2 --kappa 1 --omega 1 --N 150", 0),
    ("solve-rep-b-177", "solve --A 1 --mu -1.5 --kappa -3 --N 177", 0),
    ("solve-rep-c-176", "solve --A 1 --mu 2 --kappa -1 --N 176", 0),
    ("solve-rep-a-400", "solve --A 3 --mu -2 --kappa 1 --omega 1 --N 400", 0),
    ("solve-rep-b-400", "solve --A 1 --mu -1.5 --kappa -3 --N 400", 0),
    ("solve-rep-c-400", "solve --A 1 --mu 2 --kappa -1 --N 400", 0),
    ("verify-rep-a-400", "verify --A 3 --mu -2 --kappa 1 --omega 1 --N 400", 0),
    # Refusals.  One past the rep-a ceiling f_640 leaves double range; one past
    # the rep-c ceiling the order-723 rule does.
    ("solve-rep-a-639", "solve --A 3 --mu -2 --kappa 1 --omega 1 --N 639", 2),
    ("solve-rep-c-715", "solve --A 1 --mu 2 --kappa -1 --N 715", 2),
    # A rep-c alpha at its bound, and alphas whose nu^2 leaves double range.
    ("solve-rep-c-alpha-bound", "solve --A 1 --mu 2 --kappa -1 --alpha=0.5", 2),
    ("solve-rep-c-alpha-1e200", "solve --A 1 --mu 2 --kappa -1 --alpha 1e200", 2),
    ("verify-rep-c-alpha-1e200", "verify --A 1 --mu 2 --kappa -1 --alpha 1e200", 2),
    ("solve-rep-c-alpha-1e308", "solve --A 1 --mu 2 --kappa -1 --alpha 1e308", 2),
    ("verify-rep-c-alpha-1e308", "verify --A 1 --mu 2 --kappa -1 --alpha 1e308", 2),
    # Near mu = 1 (beta = -0.008, nu = 250) the series norm underflows to 0.
    ("solve-norm-underflow",
     "solve --A 0.05903017090438638 --mu 1.0080326275811557 --kappa -1 --N 20", 2),
    ("verify-norm-underflow",
     "verify --A 0.05903017090438638 --mu 1.0080326275811557 --kappa -1 --N 20", 2),
    ("convergence-norm-underflow",
     "convergence --A 0.05903017090438638 --mu 1.0080326275811557 --kappa -1 --N 20", 2),
    # A user omega = 1e-300 (rep a, beta = 0.1): the radial grid leaves double range.
    ("solve-grid-overflow", "solve --A 1 --mu 0.9 --kappa 1 --omega 1e-300 --N 20", 2),
    ("verify-grid-overflow", "verify --A 1 --mu 0.9 --kappa 1 --omega 1e-300 --N 20", 2),
    # A user omega = 1e-75 (rep b) or 1e-60 (rep a): rho^2 leaves double range.
    ("solve-rho-sq-rep-b", "solve --A 1 --mu -1.5 --kappa -3 --omega 1e-75 --N 20", 2),
    ("solve-rho-sq-rep-a", "solve --A 3 --mu -2 --kappa 1 --omega 1e-60 --N 20", 2),
    ("verify-rho-sq-rep-b", "verify --A 1 --mu -1.5 --kappa -3 --omega 1e-75 --N 20", 2),
    ("verify-rho-sq-rep-a", "verify --A 3 --mu -2 --kappa 1 --omega 1e-60 --N 20", 2),
    # At omega = 1e-200 (rep a, beta = 0.1) every operator element underflows.
    ("verify-operator-underflow", "verify --A 1 --mu 0.9 --kappa 1 --omega 1e-200 --N 20", 2),
    # At A = 1e10, mu = 0.999 the special case's tuned omega leaves double range.
    ("special-case-omega-overflow", "special-case --A 1e10 --mu 0.999 --kappa -1", 2),
)


def run(launcher: list[str], env: dict, work: Path, name: str, argv: str) -> dict:
    """One command in one working directory: its exit code, console output and output files."""
    work.mkdir(parents=True, exist_ok=True)
    (work / "aliases.cfg").write_text(ALIASES)
    proc = subprocess.run([*launcher, *argv.split(), "--out", name], cwd=work, env=env,
                          capture_output=True)
    files = {path.name: path.read_bytes()
             for path in sorted((work / name).glob("*")) if path.is_file()}
    if "report.json" in files:  # config.out is the one line whose key is "out"
        files["report.json"] = b"".join(line for line in files["report.json"].splitlines(True)
                                        if not line.strip().startswith(b'"out":'))
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            **{f"file {key}": value for key, value in files.items()}}


def readme_commands() -> list[list[str]]:
    """The argv of each diracpl line in README.md's sh blocks, less its --out."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [re.sub(r" --out \S+", "", line).split()[1:]
            for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
            for line in block.splitlines() if line.startswith("diracpl ")]


def check(out_dir: Path) -> int:
    env = {**os.environ, "PYTHONWARNINGS": "error"}
    failed = 0
    for name, argv, expected in COMMANDS:
        result = run(["diracpl"], env, out_dir, name, argv)
        code, err = result["exit code"], result["stderr"].decode()
        ok = code == expected and (code != 2 or len(err.splitlines()) == 1)
        failed += not ok
        print(f"{name}: exit {code}" + ("" if ok else f", expected {expected}:\n{err}"))
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} commands exit as declared")
    readme = readme_commands()
    missing = [words for words in readme if words not in [a.split() for _, a, _ in COMMANDS]]
    print(f"{len(readme) - len(missing)} of {len(readme)} README commands are entries"
          + "".join(f"\nnot an entry: diracpl {' '.join(words)}" for words in missing))
    return 1 if failed or missing or not readme else 0


def compare(base: Path, change: Path) -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, _ in COMMANDS:
            results = [run([sys.executable, "-m", "diracpl.cli"],
                           {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"),
                            "PYTHONHASHSEED": "0"}, Path(tmp) / side, name, argv)
                       for side, tree in (("base", base), ("change", change))]
            diff = [key for key in sorted(set(results[0]) | set(results[1]))
                    if results[0].get(key) != results[1].get(key)]
            failed += bool(diff)
            status = f"DIFFER ({', '.join(diff)})" if diff else "same"
            print(f"{name}: exit {results[1]['exit code']}, "
                  f"{sum(k.startswith('file') for k in results[1])} files: {status}")
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} commands identical")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    gates = parser.add_subparsers(dest="gate", required=True)
    gates.add_parser("check").add_argument("out_dir", type=Path)
    compared = gates.add_parser("compare")
    compared.add_argument("--base", type=Path, required=True, help="the reference source tree")
    compared.add_argument("--change", type=Path, required=True, help="the tree under test")
    args = parser.parse_args(argv)
    return check(args.out_dir) if args.gate == "check" else compare(args.base, args.change)


if __name__ == "__main__":
    sys.exit(main())
