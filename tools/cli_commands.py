"""The command-line reproducers: one table, read by two gates and by Tier-1.

    python3 tools/cli_commands.py check OUT_DIR
    python3 tools/cli_commands.py compare --base DIR --change DIR

Each COMMANDS row is a name, an argv, the exit code it must give and, for a
refusal, a fragment of its one stderr line.  A command keeps its row when its
stderr is empty, or on exit 2 is one line holding the fragment, with no output
directory made.  Each command runs with --out NAME appended, from a directory
that holds aliases.cfg.  check runs the installed diracpl in a fresh process
per row in OUT_DIR under PYTHONWARNINGS=error: each command must keep its row,
and each diracpl line of README.md's sh blocks, less its --out, must be a row.
compare runs each command as ``python -m diracpl.cli`` in two checkouts of this
repository, with DIR/src on PYTHONPATH: exit code, stdout, stderr and every
output file must agree byte for byte (report.json without config.out); under
a command that differs it names each differing report.json leaf as
``path: base -> change`` and, for any other output, the count of differing
lines.  Both print one line per command and exit 1 on any failure.
tests/test_cli.py runs every row in-process through tools/contract_sweep.run,
with no warning raised.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ALIASES = "A = 1\nmu = -1.5\nkappa = -3\nlambda = 1\nepsilon = 1\n"


class Command(NamedTuple):
    name: str
    argv: str
    exit: int
    stderr: str = ""  # on exit 2, a fragment of the one stderr line


COMMANDS = tuple(Command(*row) for row in (
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
    # The README library example (rep b, where A/omega^beta - beta rho/2
    # recomputed from the inputs reads -4.4e-16, not 0; the basis is read
    # under its own A, so nothing forms it) and the other verify-warm
    # configurations; eps = -1 runs the energy reflection, kappa = -1 the rep-c
    # branch of the batched stencil, and --alpha 1.2 a user alpha, which rep c
    # bounds.
    ("verify-readme-library", "verify --A 1 --mu -1.5 --kappa -3 --N 40", 0),
    ("verify-rep-c", "verify --A 1 --mu 2 --kappa -1 --N 40", 0),
    ("verify-eps-minus", "verify --A 2 --mu 0.5 --kappa -1 --epsilon -1 --N 40", 0),
    ("verify-rep-c-alpha", "verify --A 1 --mu 2 --kappa -1 --alpha 1.2", 0),
    # The weak-form projection's edges: N = 0 has no interior row, N = 1 one.
    ("verify-n0", "verify --A 1 --mu -1.5 --kappa -3 --N 0", 0),
    ("verify-n1", "verify --A 1 --mu -1.5 --kappa -3 --N 1", 0),
    # A recursion angle where cosh^2(theta) ~ 1.5e4; rep-b coefficients that
    # change by only e^-|theta|, |theta| <= 0.03, per step (rho = 553, 2.0e-3,
    # 95 and 0.0146); nu = 400, whose Gamma(n+1+nu) leaves double range while
    # the running product R_n of the coefficient scaling does not; and a
    # contract-sweep draw where kappa - beta (kappa/beta) is not 0 in doubles,
    # a cross weight the operator route leaves out (gamma = kappa/beta).
    ("verify-large-theta", "verify --A -1.7164122766073617 --mu -3.8641876132271795 "
                           "--kappa -5 --omega 0.9324215474167732", 0),
    ("verify-rho-553", "verify --A 14.202967632234262 --mu -0.0003961086828168446 "
                       "--kappa -6 --omega 0.05136804371362816", 0),
    ("verify-rho-2e-3", "verify --A -0.3372028221213064 --mu 2.8386956774008363 "
                        "--kappa 7 --omega 0.05923706474750621", 0),
    ("verify-rho-95", "verify --A 4.497592454869093 --mu -0.7132539993309948 --kappa -7 "
                      "--N 20 --omega 0.18394612601671675", 0),
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
    # Rep c at beta ~ -mu: omega^beta recomputed from the rounded omega is off
    # by up to 8e-7 relative, so a quadrature that formed the cross weight
    # A/omega^beta - beta rho/2 from it would miss the closed-form band (by
    # 4.1e-8, 1.6e-6 and 1.7e-4); the basis is read under its own A.
    *((f"verify-rep-c-mu-{mu}", f"verify --A 1 --mu {mu} --kappa -1 --N 40", 0)
      for mu in ("1e9", "1e10", "1e12")),
    # Long horizons: rep a with growing f_n at N = 120, rep b's coefficient
    # product at N = 160, the ceilings of the raw-polynomial forms the
    # Laguerre-function kernel replaced (rep a at 113 and 176, |g| up to 1.1e84;
    # rep b at 177; rep c at 160 and 176), and N = 400 in every representation,
    # where those forms stopped.
    ("solve-rep-a-120", "solve --A 2.1 --mu 1.7 --kappa -2 --N 120", 0),
    ("solve-rep-b-160", "solve --A 1 --mu -1.5 --kappa -3 --N 160", 0),
    ("solve-rep-c-160", "solve --A 1 --mu 2 --kappa -1 --N 160", 0),
    ("solve-rep-a-113", "solve --A 3 --mu -2 --kappa 1 --omega 1 --N 113", 0),
    ("solve-rep-a-176", "solve --A 3 --mu -2 --kappa 1 --omega 1 --N 176", 0),
    ("verify-rep-a-150", "verify --A 3 --mu -2 --kappa 1 --omega 1 --N 150", 0),
    ("solve-rep-b-177", "solve --A 1 --mu -1.5 --kappa -3 --N 177", 0),
    ("solve-rep-c-176", "solve --A 1 --mu 2 --kappa -1 --N 176", 0),
    ("solve-rep-a-400", "solve --A 3 --mu -2 --kappa 1 --omega 1 --N 400", 0),
    ("solve-rep-b-400", "solve --A 1 --mu -1.5 --kappa -3 --N 400", 0),
    ("solve-rep-c-400", "solve --A 1 --mu 2 --kappa -1 --N 400", 0),
    ("verify-rep-a-400", "verify --A 3 --mu -2 --kappa 1 --omega 1 --N 400", 0),
    # r^2 leaves double range at the grid's extreme radii (A ~ -1.3e5, mu ~
    # 1.05), where the special case's second-order check fails (ROADMAP item 4)
    # but raises no warning.
    ("special-case-extreme-radii", "special-case --A=-127770.28624524306 "
                                   "--mu=1.0498607757958818 --kappa=3", 1),
    # At mu = 1e6 omega^beta is off by 6.7e-11 relative (ROADMAP item 13):
    # diagonal-dirac-residual reads 5.4e-11 against its tolerance 1e-10.
    ("special-case-mu-1e6", "special-case --A=-1 --mu 1e6 --kappa 1", 0),
    # Refusals.  Parse errors print one line without the usage block.
    ("parse-epsilon-choice", "solve --epsilon 2 --A 1 --mu 2 --kappa -1", 2,
     "diracpl: error: argument --epsilon: invalid choice: "),
    ("parse-unknown-mode", "bogus --A 1 --mu 2 --kappa -1", 2,
     "diracpl: error: argument mode: invalid choice: 'bogus'"),
    ("parse-non-integer-N", "solve --N 3.5 --A 1 --mu 2 --kappa -1", 2,
     "diracpl: error: argument --N: invalid int value: '3.5'"),
    ("parse-removed-quad-order", "solve --quad-order 60 --A 1 --mu 2 --kappa -1", 2,
     "diracpl: error: unrecognized arguments: --quad-order 60"),
    # Inputs outside the domain: a missing A, a non-finite or non-positive
    # value, the excluded power mu = 1, and unit rho (rep a with omega = 1).
    ("solve-missing-A", "solve --mu 2 --kappa 1", 2, "required"),
    *((f"solve-{flag}-{value}", f"solve {args} --{flag}={value}", 2, "must be a finite number")
      for flag, args in (("A", "--mu -2 --kappa 1"), ("mu", "--A 3 --kappa 1"),
                         ("lambda", "--A 3 --mu -2 --kappa 1"),
                         ("omega", "--A 3 --mu -2 --kappa 1"), ("alpha", "--A 1 --mu 2 --kappa -1"))
      for value in ("nan", "inf", "-inf")),
    *((f"solve-{name}", f"solve --A 3 --mu -2 --kappa 1 {flag}", 2,
       f"configuration error: {message}")
      for name, flag, message in (
          ("omega-zero", "--omega 0", "omega must be positive"),
          ("omega-negative", "--omega=-1", "omega must be positive"),
          ("lambda-zero", "--lambda 0", "Compton length lam must be positive"),
          ("N-negative", "--N -1", "truncation N must be non-negative"))),
    ("solve-free-particle", "solve --A 1 --mu 1 --kappa 1", 2, "free-particle"),
    ("solve-unit-rho", "solve --A 1.5 --mu -2 --kappa 1 --omega 1 --N 5", 2,
     "configuration error: |rho| = 1 degenerates the three-term recursion in "
     "representations a/b; use representation c (rep='c') or a different omega"),
    # Near the excluded mu = 1, omega = |A/beta|^(1/beta) leaves double range;
    # at mu = 0.99 it does not, but nu = 100..500 and omega up to 8e269 make
    # the series norm's product integrands (kappa = -2, -1) or the lower
    # component's scale lam omega tau beta sqrt(omega |beta|) (kappa = 2, and
    # omega = 3.6e251 at beta = 0.0033) leave double range.
    ("solve-mu-1-minus-1e-9", "solve --A 1 --mu 0.999999999 --kappa -2", 2,
     "mu = 0.999999999"),
    ("solve-mu-1-plus-1e-9", "solve --A 1 --mu 1.000000001 --kappa -2", 2,
     "mu = 1.000000001"),
    *((f"solve-mu-0.99-A{A}-kappa{kappa}", f"solve --A {A} --mu 0.99 --kappa {kappa} --N 10", 2,
       "double range") for A, kappa in ((1, -2), (-5, 2), (1, -1))),
    ("verify-lower-scale-overflow",
     "verify --A=0.023143966390086784 --mu=0.99665865448885 --kappa=6 --N=20", 2,
     "configuration error: lower-component scale leaves double range "
     "(omega = 3.55e+251, beta = 0.003341)"),
    # The rep-b ceiling: the upper norm <phi+|phi+> (degree 2N) takes the
    # largest rule, order 1000, at N = 992, and one past it is refused before
    # the recursion.  One past the rep-a ceiling f_640 leaves double range; one
    # past the rep-c ceiling the order-723 rule does.
    ("solve-rep-b-992", "solve --A 1 --mu -1.5 --kappa -3 --N 992", 0),
    ("solve-rep-b-993", "solve --A 1 --mu -1.5 --kappa -3 --N 993", 2,
     "configuration error: N = 993 is too large: the series norm needs quadrature order 1001, "
     "above the largest, 1000"),
    ("solve-rep-a-639", "solve --A 3 --mu -2 --kappa 1 --omega 1 --N 639", 2, "double range"),
    ("solve-rep-c-715", "solve --A 1 --mu 2 --kappa -1 --N 715", 2, "double range"),
    # A rep-c alpha at its bound, and alphas whose nu^2 leaves double range.
    ("solve-rep-c-alpha-bound", "solve --A 1 --mu 2 --kappa -1 --alpha=0.5", 2,
     "requires alpha > 0.5 for representation c"),
    *((f"{mode}-rep-c-alpha-{alpha}", f"{mode} --A 1 --mu 2 --kappa -1 --alpha {alpha}", 2,
       "configuration error: nu^2 leaves double range for representation c "
       f"(alpha = {float(alpha)!r})")
      for alpha in ("1.5e154", "1e200", "1e308") for mode in ("solve", "verify", "convergence")),
    # Near mu = 1 (beta = -0.008, nu = 250) the upper norm's quadrature
    # underflows to 0, but the lower norm, the boundary term 1.2e-292, does not,
    # so the series normalizes; then the radial grid (omega = 4.9e-146) leaves
    # double range.
    *((f"{mode}-norm-underflow",
       f"{mode} --A 0.05903017090438638 --mu 1.0080326275811557 --kappa -1 --N 20", 2,
       "radial grid leaves double range") for mode in ("solve", "verify", "convergence")),
    # Nearer mu = 1 (beta = -0.006, nu = 333) the boundary term underflows too,
    # so the series norm is 0.
    ("solve-norm-underflow-nu-333",
     "solve --A 0.05903017090438638 --mu 1.006 --kappa -1 --N 20", 2, "series norm^2 = 0.0"),
    # A user omega = 1e-300 (rep a, beta = 0.1): the radial grid leaves double
    # range; at mu = -2 omega^beta itself does.
    ("solve-grid-overflow", "solve --A 1 --mu 0.9 --kappa 1 --omega 1e-300 --N 20", 2,
     "radial grid leaves double range"),
    ("verify-grid-overflow", "verify --A 1 --mu 0.9 --kappa 1 --omega 1e-300 --N 20", 2,
     "radial grid leaves double range"),
    ("verify-omega-power-overflow", "verify --A 3 --mu -2 --kappa 1 --omega 1e-300", 2,
     "configuration error: omega^beta = 1e-300**3.0 is out of floating-point range "
     "at omega = 1e-300"),
    # A user omega = 1e-75 (rep b) or 1e-60 (rep a): rho^2 leaves double range.
    *((f"{mode}-rho-sq-{rep}", f"{mode} {args} --omega {omega} --N 20", 2,
       f"configuration error: rho^2 leaves double range (rho = {rho}, omega = {omega})")
      for mode in ("solve", "verify")
      for rep, args, omega, rho in (("rep-b", "--A 1 --mu -1.5 --kappa -3", "1e-75", "2.53e+187"),
                                    ("rep-a", "--A 3 --mu -2 --kappa 1", "1e-60", "2e+180"))),
    # At omega = 1e-200 (rep a, beta = 0.1) every operator element underflows;
    # at A = 1e300 (rep c, omega = 5e-301) every residual term does.
    ("verify-operator-underflow", "verify --A 1 --mu 0.9 --kappa 1 --omega 1e-200 --N 20", 2,
     "configuration error: operator matrix underflows: largest element 0"),
    ("solve-residual-scale-underflow", "solve --A 1e300 --mu 2 --kappa -1", 2, "residual scale"),
    # The special case: outside rep b; a tuned omega that leaves double range
    # (A = 1e10, mu = 0.999) or whose band factor lam^2 omega^2 beta tau does;
    # a user omega or alpha, which the case fixes itself; and at mu = 1e8 an
    # omega^beta recomputed from the rounded omega, off by 4.4e-9 relative, so
    # rho misses 1 (ROADMAP item 13).
    ("special-case-rep-a", "special-case --A 3 --mu -2 --kappa 1", 2,
     "configuration error: diagonal case requires beta*kappa < 0 (representation b)"),
    ("special-case-omega-overflow", "special-case --A 1e10 --mu 0.999 --kappa -1", 2,
     "configuration error: omega = 19999999999999.98**999.9999999999991 is out of "
     "floating-point range at A = 10000000000.0, mu = 0.999"),
    ("special-case-omega-squared-overflow",
     "special-case --A 5.077370409328162 --mu 0.9892762055436853 --kappa -1", 2,
     "configuration error: lower-component scale leaves double range "
     "(omega = 3.496e+277, beta = 0.01072)"),
    ("special-case-omega-given", "special-case --A 2 --mu 0.5 --kappa -1 --omega 1", 2,
     "configuration error: the diagonal case tunes omega itself; do not pass --omega"),
    ("special-case-alpha-given", "special-case --A 2 --mu 0.5 --kappa -1 --alpha 5", 2,
     "configuration error: the diagonal case is representation b, whose alpha is fixed "
     "by kappa and beta; do not pass --alpha"),
    ("special-case-mu-1e8", "special-case --A=-1 --mu 1e8 --kappa 1", 2,
     "configuration error: omega tuning failed to reach rho = +1 (rho = 1.0000000043826056)"),
))


def as_declared(command: Command, code: int, err: str, out: Path) -> bool:
    """Whether a run exited as declared with stderr empty, or on exit 2 with
    one line holding the row's fragment and no output directory `out`."""
    if code != 2:
        return code == command.exit and not err
    return (command.exit == 2 and len(err.splitlines()) == 1 and command.stderr in err
            and not out.exists())


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


def _leaves(value, path: str = "") -> dict:
    """Each leaf of a parsed JSON value by its dotted path, lists indexed [i]."""
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else key, item) for key, item in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", item) for i, item in enumerate(value))
    else:
        return {path: value}
    return {leaf: v for key, item in items for leaf, v in _leaves(item, key).items()}


def differences(key: str, base, change) -> list[str]:
    """What differs in one output of two runs: `path: base -> change` per
    report.json leaf, with repr so -0.0 shows; the count of differing lines
    of any other output; the two exit codes."""
    if base is None or change is None:
        return [f"only in {'base' if change is None else 'change'}"]
    if key == "exit code":
        return [f"{base} -> {change}"]
    if key == "file report.json":
        old, new = _leaves(json.loads(base)), _leaves(json.loads(change))
        pairs = ((path, repr(old.get(path, "(absent)")), repr(new.get(path, "(absent)")))
                 for path in sorted(old.keys() | new.keys()))
        return [f"{path}: {a} -> {b}" for path, a, b in pairs if a != b]
    lines = itertools.zip_longest(base.splitlines(), change.splitlines())
    return [f"{sum(a != b for a, b in lines)} lines differ"]


def check(out_dir: Path) -> int:
    env = {**os.environ, "PYTHONWARNINGS": "error"}
    failed = 0
    for command in COMMANDS:
        result = run(["diracpl"], env, out_dir, command.name, command.argv)
        code, err = result["exit code"], result["stderr"].decode()
        ok = as_declared(command, code, err, out_dir / command.name)
        failed += not ok
        print(f"{command.name}: exit {code}"
              + ("" if ok else f", expected {command.exit} {command.stderr!r}:\n{err}"))
    print(f"{len(COMMANDS) - failed} of {len(COMMANDS)} commands run as declared")
    readme = readme_commands()
    missing = [words for words in readme if words not in [c.argv.split() for c in COMMANDS]]
    print(f"{len(readme) - len(missing)} of {len(readme)} README commands are entries"
          + "".join(f"\nnot an entry: diracpl {' '.join(words)}" for words in missing))
    return 1 if failed or missing or not readme else 0


def compare(base: Path, change: Path) -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv, *_ in COMMANDS:
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
            for key in diff:
                for line in differences(key, *(result.get(key) for result in results)):
                    print(f"  {key}: {line}")
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
