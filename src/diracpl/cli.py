"""Command-line interface: solve, verify, convergence study, and the diagonal case.

One parser serves the four modes.  Each setting is declared once, as a
`RunConfig` field that carries its flag, type and help; the parser and the
config-file keys are built from those declarations.  Configuration comes from
a flat key=value file plus command-line overrides; all outputs (CSV samples,
coefficient JSON, report JSON) are deterministic for a fixed configuration.
Exit codes: 0 all checks pass, 1 a check failed, 2 invalid configuration or
an unusable output path.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .basis import PhysicalParams, kinetic_balance_apply, mp_lambda, phi_minus, sector_sign
from .forms import integrate_product
from .orthopoly import hyp_mp_diagonal
from .recursion import build_recursion, closed_form_sequence, coefficient_sequence, rescale
from .solution import (DiracGrid, SeriesSolution, default_r_grid, diagonal_conditions_scan,
                       diagonal_correspondence, diagonal_special_case, dirac_grid,
                       dirac_residual, evaluate_grid, lower_norm_sq, second_order_grid,
                       solve, swap_energy, weak_form_boundary_check)
from .wave_operator import basis_spinor, bilinear_form, build_operator, operator_band

CONVERGENCE_NS = (5, 10, 20, 40)


def _setting(flag: str, type, help: str, default=MISSING, **argparse_kw):
    """A RunConfig field set by the flag --<flag>.  Its config-file keys are the
    flag with '_' for '-' and the field name."""
    return field(default=default,
                 metadata={"flag": flag, "type": type, "help": help, **argparse_kw})


@dataclass
class RunConfig:
    """Validated inputs for one run; each setting declares its flag, type and help."""

    mode: str
    A: float = _setting("A", float, "potential strength (nonzero)")
    mu: float = _setting("mu", float, "potential power (mu != 0, +1, -1)")
    kappa: int = _setting("kappa", int, "spin-orbit integer (nonzero)")
    lam: float = _setting("lambda", float, "Compton length (default 1)", 1.0)
    eps: int = _setting("epsilon", int, "energy sign in rest-mass units (default +1)", 1,
                        choices=(1, -1))
    omega: float | None = _setting("omega", float,
                                   "basis scale; defaults to the |rho| = 2 choice "
                                   "(fixed internally for representation c)", None)
    alpha: float | None = _setting("alpha", float,
                                   "free basis exponent (representation c only)", None)
    N: int = _setting("N", int, "series truncation (default 40)", 40)
    seed: int = _setting("seed", int, "seed for sampled check points", 1234)
    out: str = _setting("out", str, "output directory (default .)", ".")

    def physical_params(self) -> PhysicalParams:
        return PhysicalParams(A=self.A, mu=self.mu, kappa=self.kappa,
                              lam=self.lam, eps=self.eps)

    def solve(self, N: int | None = None) -> SeriesSolution:
        """This run's series solution at truncation N (default: this run's)."""
        return solve(self.physical_params(), N=self.N if N is None else N,
                     omega=self.omega, alpha=self.alpha)

    @functools.cached_property
    def out_dir(self) -> Path:
        """The output directory, created on first use: once per command."""
        path = Path(self.out)
        path.mkdir(parents=True, exist_ok=True)
        return path


_SETTINGS = [f for f in fields(RunConfig) if f.metadata]


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    description: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name}: measured={self.measured:.3e} "
                f"tol={self.tolerance:.1e} ({self.description})")


def _read_config_file(path: str) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        values[key] = val
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    merged: dict = {}
    if args.config:
        by_key = {key: f for f in _SETTINGS
                  for key in (f.metadata["flag"].replace("-", "_"), f.name)}
        for key, raw in _read_config_file(args.config).items():
            if key not in by_key:
                raise ValueError(f"unknown config key {key!r}")
            merged[by_key[key].name] = by_key[key].metadata["type"](raw)
    for f in _SETTINGS:
        val = getattr(args, f.name)
        if val is not None:
            merged[f.name] = val
        elif f.default is MISSING and f.name not in merged:
            raise ValueError(f"missing required parameter {f.name!r} "
                             "(flag or config file)")
    return RunConfig(mode=args.mode, **merged)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A parse error is one stderr line and exit 2, without the usage block."""
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on first use, unchanged by parse_args."""
    parser = _Parser(
        prog="diracpl",
        description="Series solutions of the radial Dirac equation with odd "
                    "power-law potential A/r^mu at rest-mass energy.")
    parser.add_argument("mode", choices=_COMMANDS, help="; ".join(
        f"{mode}: {help_text}" for mode, (_, help_text) in _COMMANDS.items()))
    parser.add_argument("--config", help="flat key=value configuration file")
    for f in _SETTINGS:
        kwargs = dict(f.metadata)
        parser.add_argument(f"--{kwargs.pop('flag')}", dest=f.name, **kwargs)
    return parser


# ---------------------------------------------------------------------------
# check battery


def run_verify_checks(config: RunConfig) -> tuple[list[CheckResult], dict]:
    """Invariant suite for one configuration; returns results and context."""
    rng = np.random.default_rng(config.seed)
    sol = config.solve()
    basis = sol.basis  # the eps = +1 problem's, at either sign
    checks: list[CheckResult] = []

    def add(name, measured, tol, description):
        checks.append(CheckResult(name, bool(measured <= tol), float(measured), tol, description))

    r_grid = default_r_grid(basis)
    n = np.arange(11)
    direct = phi_minus(basis, n, r_grid)
    operator = kinetic_balance_apply(basis, n, r_grid)
    scale = np.max(np.abs(operator), axis=-1) + 1e-300
    add("kinetic-balance", np.max(np.max(np.abs(direct - operator), axis=-1) / scale), 1e-8,
        "lower component equals the first-order operator applied to the upper")

    # One Gram of <psi_n|H-1|psi_m> over n, m <= 12 against the closed forms.
    k = np.arange(min(12, max(config.N, 2)) + 1)
    ana = build_operator(basis, k[-1])
    psi = basis_spinor(basis, k)
    num = bilinear_form(basis, psi, psi)
    far = np.abs(k[:, None] - k) > 1
    add("operator-tridiagonality", np.max(np.abs(num[far])) / np.max(np.abs(ana)),
        1e-8, "projections vanish beyond the three central bands")
    band = np.abs(num - ana)[~far] / np.abs(ana[~far])
    add("operator-band-agreement", np.max(band), 1e-8,
        "quadrature matrix elements match the closed forms on the bands")

    # Independent coefficient legs: the production sequence against the closed
    # form, the closed form against the natural relation, and the solution's
    # own f_0..f_{N+1} against the raw relation, i.e. the operator's rows.
    rec = build_recursion(basis.rep, basis, basis.nu)
    seq = coefficient_sequence(basis, 20)
    cf = closed_form_sequence(basis, 20)
    dual = float(np.max(np.abs(seq - cf) / (np.abs(cf) + 1e-300)))
    add("coefficient-dual-path", dual, 1e-6,
        "production coefficient sequence equals the orthogonal-polynomial closed form")

    n = np.arange(20)
    res = np.max(np.abs(rec.residual(cf, n)) / (np.abs(rec.a(n) * cf[n]) + 1e-300))
    add("recursion-residual", res, 1e-10,
        "closed-form coefficients satisfy the three-term relation")

    # Rows 0..N of the raw relation D_n f_n + B_{n-1} f_{n-1} + B_n f_{n+1} = 0,
    # each over the sum of its three terms' magnitudes.
    f = np.r_[sol.coeffs, sol.f_next]
    d_n, b_n = operator_band(basis, sol.N + 1)  # D_0..D_{N+1}, B_0..B_N
    terms = (d_n[:-1] * f[:-1], np.r_[0.0, b_n[:-1] * f[:-2]], b_n * f[1:])
    chain = np.max(np.abs(sum(terms)) / (sum(map(np.abs, terms)) + 1e-300))
    add("scaling-equivalence", chain, 1e-12,
        "the solution's coefficients satisfy the operator's raw relation at every row")

    if basis.theta is not None:  # y enters with the sign of sigma_- (`sector_sign`)
        n = np.arange(21)
        a = rec.a(n)
        diag = hyp_mp_diagonal(n, mp_lambda(basis), sector_sign(basis) * basis.y, basis.theta)
        hyper = np.max(np.abs(a - diag) / (np.abs(a) + 1e-300))
        add("hyperbolic-identity", hyper, 1e-14,
            "recursion diagonal equals 2[(n+lam) cosh theta +- y sinh theta]")

    boundary = weak_form_boundary_check(sol)  # rows 0..N from one projection
    if config.N > 0:  # n = N is the boundary projection, so N = 0 has no interior
        add("weak-form-interior", boundary["interior"], 1e-8,
            "interior projections of the operator on the series vanish")
    if boundary["resolvable"]:
        add("weak-form-boundary", boundary["relative_error"], 1e-6,
            "the surviving projection equals the boundary term B_N f_{N+1}")
    else:
        add("weak-form-boundary", abs(boundary["projection"]) / boundary["scale"], 1e-9,
            "boundary term below quadrature noise; projection vanishes with it")

    # The lower norm two ways: the boundary term the series is normalized with,
    # and its quadrature on the eps = +1 lower form.  They are compared in the
    # magnitude of the Gram terms that sum to it, |C f|^T |T| |C f| / 2 over
    # n, m <= N, since a decaying series' boundary term sits below the
    # quadrature's roundoff.
    mass = np.abs(sol.norm_const * sol.coeffs)
    lower = (sol if sol.eps == 1 else swap_energy(sol)).form_minus
    quadrature = sol.series_scale ** 2 * integrate_product(lower, lower, basis.measure)
    identity = lower_norm_sq(basis, sol.norm_const * sol.coeffs, sol.norm_const * sol.f_next)
    gram = 0.5 * (mass * mass) @ np.abs(d_n[:-1]) + (mass[:-1] * mass[1:]) @ np.abs(b_n[:-1])
    add("lower-norm-identity", abs(quadrature - identity) / max(gram, 1e-300), 1e-8,
        "the lower component's norm equals its boundary term -C f_N B_N C f_{N+1} / 2")

    if sol.eps == -1:
        partner = swap_energy(sol)  # the eps = +1 solution
        r_probe = np.sort(rng.uniform(0.2, 5.0, size=10)) / basis.omega
        a1, a2 = evaluate_grid(swap_energy(partner), r_probe)
        b1, b2 = evaluate_grid(sol, r_probe)
        ref = max(np.max(np.abs(b1)), np.max(np.abs(b2)), 1e-300)
        invol = float(max(np.max(np.abs(a1 - b1)), np.max(np.abs(a2 - b2))) / ref)
        add("energy-reflection-involution", invol, 1e-8,
            "reflecting the energy twice reproduces the solution")
        # Each row carries its own (1 -+ eps) factor, so a wrong sign in the
        # reflected parameters leaves the rows unmatched.
        s1, s2 = dirac_residual(sol, r_grid)
        grid = dirac_grid(partner, r_grid)
        swapped = max(np.max(np.abs(s1 + grid.row2)), np.max(np.abs(s2 + grid.row1)))
        add("energy-reflection-rows", swapped / np.max(grid.scale), 1e-12,
            "the eps = -1 Dirac rows are minus the swapped rows of the eps = +1 solution")

    return checks, _solution_dict(sol)


# ---------------------------------------------------------------------------
# report plumbing


def _solution_dict(sol: SeriesSolution) -> dict:
    """The report block every mode that builds a solution writes."""
    b = sol.basis
    return {
        "basis": {"representation": b.rep.value, "beta": b.beta, "omega": b.omega,
                  "alpha": b.alpha, "nu": b.nu, "gamma": b.gamma, "rho": b.rho,
                  "tau": b.tau, "lam": b.lam},
        # q and u, the operator's cross weights, are 0 for every basis (`basis`)
        "derived": {"p": b.p, "q": 0.0, "sigma_plus": b.rho * b.rho + 1.0,
                    "sigma_minus": b.sigma_minus,
                    "zeta": ((2.0 * b.kappa + 1.0) / b.beta - 1.0) * b.rho,
                    "theta": b.theta, "y": b.y, "z": b.z, "d": b.d, "u": 0.0},
        "normalization_constant": sol.norm_const,
    }


def _record(obj) -> dict:
    """A dataclass's fields by name, read shallowly: they are all scalars, so no
    deep copy is needed, and the cached out_dir is no field."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _write_report(config: RunConfig, payload: dict) -> Path:
    path = config.out_dir / "report.json"
    payload = {"version": __version__, "config": _record(config), **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _finish(config: RunConfig, mode: str, checks: list[CheckResult], payload: dict) -> int:
    """Print the check lines, write the report with its verdicts, return the exit code."""
    for check in checks:
        print(check.line())
    passed = all(c.passed for c in checks)
    _write_report(config, {"mode": mode, **payload,
                           "checks": [_record(c) for c in checks],
                           "all_passed": passed})
    return 0 if passed else 1


def _grid(sol: SeriesSolution) -> tuple[np.ndarray, DiracGrid]:
    """The CLI's radial grid and the solution's one `dirac_grid` pass on it."""
    r = default_r_grid(sol.basis)
    return r, dirac_grid(sol, r)


def _write_samples(config: RunConfig, r: np.ndarray, grid: DiracGrid) -> Path:
    columns = (c.tolist() for c in (r, grid.phi_plus, grid.phi_minus, grid.row1, grid.row2))
    lines = ["r,phi_plus,phi_minus,residual_plus,residual_minus"]
    lines += (",".join(map(repr, values)) for values in zip(*columns))
    path = config.out_dir / "samples.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_coefficients(config: RunConfig, sol: SeriesSolution) -> Path:
    """json.dumps(rows, indent=2, sort_keys=True) of the rows {n, f_n, g_or_h_n}: f_n
    pre-normalization with f_0 = 1, and g_or_h_n = f_n / R_n the natural sequence
    (`recursion.rescale`).  Both are finite, so each float is its repr."""
    natural = sol.coeffs / rescale(sol.basis, sol.N)
    rows = ",\n".join(f'  {{\n    "f_n": {f!r},\n    "g_or_h_n": {g!r},\n    "n": {n}\n  }}'
                      for n, (f, g) in enumerate(zip(sol.coeffs.tolist(), natural.tolist())))
    path = config.out_dir / "coefficients.json"
    path.write_text(f"[\n{rows}\n]\n")
    return path


def _residual_stats(sol: SeriesSolution, r: np.ndarray, grid: DiracGrid) -> dict:
    lead, identity = (grid.row1, grid.row2) if sol.eps == 1 else (grid.row2, grid.row1)
    scale = np.max(grid.scale)
    if not 0.0 < scale < np.inf:
        raise ValueError(f"residual scale {scale} is not a positive finite number")
    return {
        "grid_points": len(r),
        "scale": float(scale),
        "max_leading_row_relative": float(np.max(np.abs(lead)) / scale),
        "max_interior_leading_row_relative": float(np.max(np.abs(lead[5:-5])) / scale),
        "max_identity_row_relative": float(np.max(np.abs(identity)) / scale),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(config: RunConfig) -> int:
    sol = config.solve()
    r, grid = _grid(sol)
    stats = _residual_stats(sol, r, grid)  # may raise: before any file is written
    samples = _write_samples(config, r, grid)
    coeffs = _write_coefficients(config, sol)
    report = _write_report(config, {
        "mode": "solve",
        **_solution_dict(sol),
        "residual_stats": stats,
        "outputs": {"samples": samples.name, "coefficients": coeffs.name},
    })
    print(f"wrote {samples}, {coeffs}, {report}")
    return 0


def _cmd_verify(config: RunConfig) -> int:
    return _finish(config, "verify", *run_verify_checks(config))


def _cmd_convergence(config: RunConfig) -> int:
    rows = []
    for N in CONVERGENCE_NS:
        sol = config.solve(N)
        stats = _residual_stats(sol, *_grid(sol))
        boundary = weak_form_boundary_check(sol)
        rows.append({"N": N,
                     "interior_residual": stats["max_interior_leading_row_relative"],
                     "boundary_relative_error": boundary["relative_error"],
                     "boundary_resolvable": boundary["resolvable"]})
    csv_path = config.out_dir / "convergence.csv"
    lines = ["N,interior_residual,boundary_relative_error"]
    for row in rows:
        lines.append(f"{row['N']},{float(row['interior_residual'])!r},"
                     f"{float(row['boundary_relative_error'])!r}")
    csv_path.write_text("\n".join(lines) + "\n")

    seq = [row["interior_residual"] for row in rows]
    decreasing = all(seq[i + 1] <= 1.1 * seq[i] for i in range(len(seq) - 1)) \
        and seq[-1] < seq[0]
    boundary_ok = all(row["boundary_relative_error"] < 1e-6 for row in rows
                      if row["boundary_resolvable"])
    checks = [
        CheckResult("interior-residual-decrease", decreasing,
                    seq[-1] / max(seq[0], 1e-300), 1.0,
                    "interior residual shrinks as the truncation grows"),
        CheckResult("boundary-identity", boundary_ok,
                    max((r["boundary_relative_error"] for r in rows
                         if r["boundary_resolvable"]), default=0.0), 1e-6,
                    "surviving projection equals B_N f_{N+1} at every "
                    "noise-resolvable N"),
    ]
    code = _finish(config, "convergence", checks,
                   {"sweep": rows, "outputs": {"sweep": csv_path.name}})
    for row in rows:
        print(f"  N={row['N']:2d}: interior={row['interior_residual']:.3e} "
              f"boundary={row['boundary_relative_error']:.3e}")
    return code


def _cmd_special_case(config: RunConfig) -> int:
    if config.omega is not None:
        raise ValueError("the diagonal case tunes omega itself; do not pass --omega")
    if config.alpha is not None:
        raise ValueError("the diagonal case is representation b, whose alpha is fixed by "
                         "kappa and beta; do not pass --alpha")
    sol = diagonal_special_case(config.physical_params())
    r, grid = _grid(sol)
    stats = _residual_stats(sol, r, grid)
    dirac_rel = max(stats["max_leading_row_relative"], stats["max_identity_row_relative"])
    so_rel = 0.0
    for comp in ("+", "-"):
        so = second_order_grid(sol, r, comp)
        so_scale = np.max(so.scale)
        if so_scale > 0.0:
            so_rel = max(so_rel, float(np.max(np.abs(so.residual)) / so_scale))
    kappas = [k for k in range(-4, 5) if k != 0]
    mus = [-2.5, -2.0, -0.5, 0.5, 1.5, 2.0, 3.0]
    hits = diagonal_conditions_scan(kappas, mus)
    only_expected = all(h["n"] == 0 and h["rho"] == 1.0
                        and not h["beta_kappa_positive"] for h in hits)
    checks = [
        CheckResult("diagonal-dirac-residual", dirac_rel <= 1e-10, dirac_rel, 1e-10,
                    "single-term solution satisfies the first-order system"),
        CheckResult("diagonal-second-order-residual", so_rel <= 1e-8, so_rel, 1e-8,
                    "single-term solution satisfies the second-order equation"),
        CheckResult("diagonal-uniqueness-scan", only_expected,
                    0.0 if only_expected else 1.0, 0.5,
                    "only n=0, rho=+1 with beta*kappa<0 diagonalizes (n <= 40 scan)"),
    ]
    return _finish(config, "special-case", checks,
                   {**_solution_dict(sol), "correspondence": diagonal_correspondence(sol.basis),
                    "scan_hits": hits})


_COMMANDS = {
    "solve": (_cmd_solve, "compute a truncated series solution and export samples"),
    "verify": (_cmd_verify, "run the invariant check suite for one configuration"),
    "convergence": (_cmd_convergence, "sweep the truncation N and report residuals"),
    "special-case": (_cmd_special_case, "build and check the diagonal single-term solution"),
}


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:  # a bad input or an unusable --out path: one line, exit 2
        config = build_config(args)
        return _COMMANDS[config.mode][0](config)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
