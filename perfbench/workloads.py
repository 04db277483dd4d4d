"""The three benchmark workloads: inputs drawn from a seed, one op, its check.

Every op of a workload has the same size and the same rule-cache state, so
the per-op latencies form one cluster and the median never falls between
two.  The program is driven only through its public entry points:
``diracpl.cli.main(argv)`` and the functions exported by ``diracpl.solution``.
Module attributes are looked up at call time, so a tracer that rebinds them
sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from diracpl import cli, solution
from diracpl.basis import PhysicalParams, select_representation
from diracpl.recursion import build_recursion
from diracpl.wave_operator import derived_params

SWEEP_N = 40
VERIFY_N = 40
GRID_N = 80
# Rungs of the untimed ceiling probe run after the timed phase of sweep-cold.
PROBE_LADDER = (40, 80, 120, 160, 240, 320, 400)
IDENTITY_ROW_TOL = 1e-8
RECURSION_TOL = 1e-10


@dataclass(frozen=True)
class Slot:
    """One corner of the (A, mu, kappa) map: representation, sign of beta, energy sign.

    mu is drawn inside ``mu_range`` and |A| inside [0.5, 3] with a random sign.
    Representation c fixes omega, so its only rule-dependent free parameter
    besides mu is alpha; drawing alpha too keeps every Gauss-Laguerre rule of a
    c slot new (with the default alpha the upper-component norm rule has nu = 1
    for every beta < 0, which would be a cache hit)."""

    name: str
    kappa: int
    eps: int
    mu_range: tuple[float, float]
    draws_alpha: bool = False


# mu stays clear of the excluded points 0 and +-1, where ops fail by design.
SLOTS = (
    Slot("a-beta-neg", kappa=-2, eps=1, mu_range=(1.3, 2.7)),
    Slot("a-beta-pos", kappa=2, eps=1, mu_range=(-2.5, -1.3)),
    Slot("b-beta-neg", kappa=2, eps=1, mu_range=(1.3, 2.7)),
    Slot("b-beta-pos", kappa=-3, eps=1, mu_range=(-2.5, -1.3)),
    Slot("c", kappa=-1, eps=1, mu_range=(1.3, 2.7), draws_alpha=True),
    Slot("c-reflected", kappa=1, eps=-1, mu_range=(1.3, 2.7), draws_alpha=True),
)

# verify-warm: README verify example, README library example, a rep-c case and
# a negative-energy case.  (name, A, mu, kappa, eps, extra flags)
VERIFY_CONFIGS = (
    ("readme-verify", 3.0, -2.0, 1, 1, ("--omega=1",)),
    ("readme-library", 1.0, -1.5, -3, 1, ()),
    ("rep-c", 1.0, 2.0, -1, 1, ()),
    ("eps-minus", 2.0, 0.5, -1, -1, ()),
)

# residual-grid: one base configuration per slot type; the seed jitters A.
GRID_BASES = (
    ("a", 3.0, -2.0, 1, 1),
    ("b", 1.0, -1.5, -3, 1),
    ("c", 1.0, 2.0, -1, 1),
    ("eps-minus", 2.0, 0.5, -1, -1),
)

# The ceiling probe uses one fixed configuration per representation.
PROBE_CONFIGS = (
    ("a", 3.0, -2.0, 1, 1),
    ("b", 1.0, -1.5, -3, 1),
    ("c", 1.0, 2.0, -1, 1),
)

TIMED_STREAM, WARMUP_STREAM = 0, 1


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _flag(name: str, value) -> str:
    # --name=value keeps negative numbers from being read as flags.
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def _run_cli(argv: list[str]) -> int:
    """One in-process CLI call with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _physical(A: float, mu: float, kappa: int, eps: int) -> PhysicalParams:
    return PhysicalParams(A=A, mu=mu, kappa=kappa, eps=eps)


# ---------------------------------------------------------------------------
# sweep-cold


@dataclass(frozen=True)
class SweepCase:
    slot: str
    A: float
    mu: float
    kappa: int
    eps: int
    alpha: float | None

    def argv(self, N: int, out: Path) -> list[str]:
        args = ["solve", _flag("A", self.A), _flag("mu", self.mu),
                _flag("kappa", self.kappa), _flag("epsilon", self.eps), _flag("N", N)]
        if self.alpha is not None:
            args.append(_flag("alpha", self.alpha))
        return args + ["--out", str(out)]

    def basis(self):
        """Basis and derived parameters of the eps = +1 problem this case solves."""
        A, kappa = (self.A, self.kappa) if self.eps == 1 else (-self.A, -self.kappa)
        phys = _physical(A, self.mu, kappa, 1)
        basis = select_representation(phys, alpha=self.alpha)
        return basis, derived_params(basis, phys)


def draw_sweep_pass(rng: np.random.Generator) -> list[SweepCase]:
    """Fresh A and mu (and alpha for representation c) for each of the six slots."""
    cases = []
    for slot in SLOTS:
        A = float(rng.uniform(0.5, 3.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        mu = float(rng.uniform(*slot.mu_range))
        alpha = None
        if slot.draws_alpha:
            beta = 1.0 - mu
            alpha = float(-1.0 / (2.0 * beta) + rng.uniform(0.5, 1.5))
        cases.append(SweepCase(slot.name, A, mu, slot.kappa, slot.eps, alpha))
    return cases


def _check_solve_output(case: SweepCase, out: Path, N: int) -> str | None:
    report = json.loads((out / "report.json").read_text())
    rows = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)
    if not np.all(np.isfinite(rows)):
        return "non-finite value in samples.csv"
    # columns: r, phi_plus, phi_minus, residual_plus, residual_minus; the
    # kinetic-balance row is the lower one for eps = +1, the upper for -1.
    identity = rows[:, 4] if case.eps == 1 else rows[:, 3]
    scale = report["residual_stats"]["scale"]
    if not (scale > 0.0 and np.max(np.abs(identity)) <= IDENTITY_ROW_TOL * scale):
        return f"identity row {np.max(np.abs(identity)) / scale:.2e} of residual scale"
    coeffs = json.loads((out / "coefficients.json").read_text())
    seq = np.array([row["g_or_h_n"] for row in coeffs])
    if len(seq) != N + 1 or not np.all(np.isfinite(seq)):
        return "coefficients.json has the wrong length or a non-finite value"
    basis, der = case.basis()
    rec = build_recursion(basis.rep, der, basis.nu)
    worst = max(abs(rec.residual(seq, n)) / (abs(rec.a(n) * seq[n]) + 1e-300)
                for n in range(N))
    if not worst <= RECURSION_TOL:
        return f"three-term relation residual {worst:.2e}"
    return None


class SweepCold:
    """One op: ``diracpl solve --N 40`` once per slot, each with a fresh (A, mu).

    Every Gauss-Laguerre rule is new, so the rule cache misses on every
    integral: the cost of a parameter scan, the paper's use case."""

    name = "sweep-cold"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._timed = _rng(seed, TIMED_STREAM)
        self.cases: list[list[SweepCase]] = []
        self.n_max_ok: int | None = None
        self.probe_rungs: list[dict] = []

    def warmup_steps(self) -> list:
        return [functools.partial(_run_cli, case.argv(SWEEP_N, self.workdir / "warmup" / case.slot))
                for case in draw_sweep_pass(_rng(self.seed, WARMUP_STREAM))]

    def prepare_op(self, i: int) -> None:
        self.cases.append(draw_sweep_pass(self._timed))

    def steps(self, i: int) -> list:
        return [functools.partial(_run_cli, case.argv(SWEEP_N, self.workdir / f"op{i}" / case.slot))
                for case in self.cases[i]]

    def check(self, i: int, codes: list[int]) -> str | None:
        for case, code in zip(self.cases[i], codes):
            if code != 0:
                return f"{case.slot}: exit code {code}"
            problem = _check_solve_output(case, self.workdir / f"op{i}" / case.slot, SWEEP_N)
            if problem:
                return f"{case.slot}: {problem}"
        return None

    def probe(self) -> None:
        """Largest N on the ladder at which solve succeeds for every representation.

        Rungs run in increasing order and the probe stops at the first
        failing rung; a failed rung is a probe result, not a failed op."""
        for N in PROBE_LADDER:
            started = time.perf_counter()
            failures = []
            for rep, A, mu, kappa, eps in PROBE_CONFIGS:
                argv = ["solve", _flag("A", A), _flag("mu", mu), _flag("kappa", kappa),
                        _flag("epsilon", eps), _flag("N", N),
                        "--out", str(self.workdir / "probe" / f"{rep}-{N}")]
                try:
                    code = _run_cli(argv)
                except Exception as exc:  # the probe records any failure and goes on
                    failures.append(f"{rep}: {type(exc).__name__}: {exc}")
                    continue
                if code != 0:
                    failures.append(f"{rep}: exit code {code}")
            self.probe_rungs.append({"N": N, "failures": failures,
                                     "seconds": time.perf_counter() - started})
            if failures:
                break
            self.n_max_ok = N

    def extra(self, n_ops: int) -> dict:
        return {"n_max_ok": self.n_max_ok, "probe_rungs": self.probe_rungs}


# ---------------------------------------------------------------------------
# verify-warm


class VerifyWarm:
    """One op: ``diracpl verify --N 40`` over four fixed configurations.

    The warm-up pass fills the rule cache, so every integral hits it: the
    time goes to integrate_product, the matrix elements and the closed forms,
    and a quadrature change must show no change here."""

    name = "verify-warm"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.failed_checks: dict[int, int] = {}

    def _argv(self, config, out: Path) -> list[str]:
        name, A, mu, kappa, eps, extra = config
        return ["verify", _flag("A", A), _flag("mu", mu), _flag("kappa", kappa),
                _flag("epsilon", eps), _flag("N", VERIFY_N), _flag("seed", self.seed),
                *extra, "--out", str(out)]

    def warmup_steps(self) -> list:
        return [functools.partial(_run_cli, self._argv(config, self.workdir / "warmup" / config[0]))
                for config in VERIFY_CONFIGS]

    def prepare_op(self, i: int) -> None:
        pass

    def steps(self, i: int) -> list:
        return [functools.partial(_run_cli, self._argv(config, self.workdir / f"op{i}" / config[0]))
                for config in VERIFY_CONFIGS]

    def check(self, i: int, codes: list[int]) -> str | None:
        for config, code in zip(VERIFY_CONFIGS, codes):
            if code not in (0, 1):
                return f"{config[0]}: exit code {code}"
        reports = [json.loads((self.workdir / f"op{i}" / config[0] / "report.json").read_text())
                   for config in VERIFY_CONFIGS]
        self.failed_checks[i] = sum(not check["passed"] for report in reports
                                    for check in report["checks"])
        return None

    def extra(self, n_ops: int) -> dict:
        """checks_failed: FAIL verdicts in one pass (the largest, should passes differ)."""
        counts = sorted(set(self.failed_checks.values()))
        return {"checks_failed": counts[-1] if counts else None,
                "checks_failed_values": counts}


# ---------------------------------------------------------------------------
# residual-grid


def draw_grid_params(seed: int) -> list[tuple[str, float, float, int, int]]:
    """The four base configurations with A scaled by U(0.9, 1.1).

    mu keeps its base value: the number of terms in a solution's forms
    depends on float roundoff at mu (for representation a, 2(gamma + alpha
    - nu) is zero in exact arithmetic but lands on 0 or 1e-16 depending on
    mu, keeping 81 near-zero terms or not at N = 80), which moved the op
    cost by 17% from seed to seed.  A changes omega, hence every value on
    the grid, and leaves the term structure alone."""
    rng = _rng(seed, TIMED_STREAM)
    return [(name, float(A * rng.uniform(0.9, 1.1)), mu, kappa, eps)
            for name, A, mu, kappa, eps in GRID_BASES]


class ResidualGrid:
    """One op: first- and second-order residuals of four N = 80 solutions on
    their 60-point default grids.

    This path evaluates forms and their exact derivatives; it does no
    integration and no recursion."""

    name = "residual-grid"

    def __init__(self, seed: int, workdir: Path):
        self.params = draw_grid_params(seed)
        self.solutions = []

    def warmup_steps(self) -> list:
        return [functools.partial(self._solve, *params[1:]) for params in self.params] \
            + [self._residuals]

    def _solve(self, A: float, mu: float, kappa: int, eps: int) -> None:
        self.solutions.append(solution.solve(_physical(A, mu, kappa, eps), N=GRID_N))

    def prepare_op(self, i: int) -> None:
        pass

    def steps(self, i: int) -> list:
        return [self._residuals]  # one ~50 ms step: too short to calibrate inside

    def _residuals(self) -> list[tuple[np.ndarray, ...]]:
        outputs = []
        for sol in self.solutions:
            r = solution.default_r_grid(sol.basis)
            row1, row2 = solution.dirac_residual(sol, r)
            scale = solution.residual_scale(sol, r)
            plus = solution.second_order_residual(sol, r, "+")
            minus = solution.second_order_residual(sol, r, "-")
            outputs.append((row1, row2, scale, plus, minus))
        return outputs

    def check(self, i: int, results) -> str | None:
        for sol, (row1, row2, scale, plus, minus) in zip(self.solutions, results[0]):
            if not all(np.all(np.isfinite(a)) for a in (row1, row2, scale, plus, minus)):
                return "non-finite residual"
            identity = row2 if sol.eps == 1 else row1
            worst = float(np.max(np.abs(identity)) / np.max(scale))
            if not worst <= IDENTITY_ROW_TOL:
                return f"identity row {worst:.2e} of residual scale"
        return None

    def extra(self, n_ops: int) -> dict:
        return {}


WORKLOADS = {cls.name: cls for cls in (SweepCold, VerifyWarm, ResidualGrid)}


def warm_up(workload) -> None:
    """Set-up work that is not timed per op: the solves made in setup and a warm-up pass."""
    for step in workload.warmup_steps():
        step()


def run_op(workload, i: int) -> list:
    """One op, untimed: the results of its steps in order."""
    return [step() for step in workload.steps(i)]


def make(name: str, seed: int, workdir: Path):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, workdir)


def output_bytes(workload, i: int, result) -> bytes:
    """Everything one op produced, as bytes, for comparing two runs of it."""
    if isinstance(workload, ResidualGrid):
        return b"".join(a.tobytes() for arrays in result[0] for a in arrays)
    root = workload.workdir / f"op{i}"
    return b"".join(path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file())
