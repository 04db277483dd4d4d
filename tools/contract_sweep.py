"""Sweep random inputs through `diracpl verify` and count the exit codes.

    PYTHONPATH=src python3 tools/contract_sweep.py

The failure contract: every input either verifies (exit 0) or is refused with
one stderr line (exit 2), with no warning and no traceback.  Exit 1 (a failed
check, or a traceback, which a fresh process would end with exit 1) breaks it.

Each of the 250 draws of numpy's default_rng(5) takes, in this order:
|A| = 10^U(-2, log10 20) and a random sign; mu ~ U(-4, 4) on a quarter of the
draws, else one of 0, +1, -1 offset by +-10^U(-8, -1); kappa = +-(1..7);
N in {5, 20, 40, 80}; and a user omega = 10^U(-1.5, 1.5) on 40% of the draws.
The draws run in one interpreter against the diracpl on PYTHONPATH.  Prints
the exit-0/2/1 counts, then each draw that broke the contract; exits 1 if any
did.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import tempfile
import warnings

import numpy as np

from diracpl import cli

DRAWS = 250
SEED = 5


def draws(rng: np.random.Generator):
    """The verify argv of each draw."""
    for _ in range(DRAWS):
        A = float(10.0 ** rng.uniform(-2.0, math.log10(20.0)) * rng.choice([-1.0, 1.0]))
        if rng.random() < 0.25:
            mu = float(rng.uniform(-4.0, 4.0))
        else:
            offset = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, -1.0)
            mu = float(rng.choice([0.0, 1.0, -1.0]) + offset)
        kappa = int(rng.integers(1, 8)) * int(rng.choice([-1, 1]))
        N = int(rng.choice([5, 20, 40, 80]))
        argv = ["verify", f"--A={A!r}", f"--mu={mu!r}", f"--kappa={kappa}", f"--N={N}"]
        if rng.random() < 0.4:
            argv.append(f"--omega={float(10.0 ** rng.uniform(-1.5, 1.5))!r}")
        yield argv


def run(argv: list[str], out: str) -> tuple[int, str, int]:
    """(exit code, stderr, warnings raised) of one in-process run."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = cli.main([*argv, "--out", out])
        except SystemExit as exc:  # a parse error: one line, exit 2
            code = exc.code
        except Exception as exc:  # a traceback: what a fresh process exits 1 with
            code = 1
            err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
    return code, err.getvalue(), len(caught)


def main() -> int:
    counts = {0: 0, 2: 0, 1: 0}
    broken = []
    with tempfile.TemporaryDirectory() as out:
        for argv in draws(np.random.default_rng(SEED)):
            code, err, n_warnings = run(argv, out)
            counts[code] += 1
            # exit 0 prints nothing on stderr and exit 2 one line
            if code == 1 or n_warnings or len(err.splitlines()) > (code == 2):
                broken.append(f"exit {code}, {n_warnings} warnings: diracpl {' '.join(argv)}"
                              + "".join(f"\n    {line}" for line in err.splitlines()))
    print(f"exit 0: {counts[0]}  exit 2: {counts[2]}  exit 1: {counts[1]}  "
          f"(of {DRAWS} draws; {len(broken)} broke the contract)")
    for line in broken:
        print(line)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
