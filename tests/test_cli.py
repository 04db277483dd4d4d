"""Command-line interface: exit codes, file schemas, determinism."""

import collections
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diracpl.cli import build_config, main, make_parser
from diracpl.forms import LaguerreForm
from diracpl.recursion import rescale

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import cli_commands  # noqa: E402
import contract_sweep  # noqa: E402

SOLVE_ARGS = ["--A", "1", "--mu", "2", "--kappa", "-1", "--N", "8"]


def run_cli(args, tmp_path, capsys=None):
    code = main(args + ["--out", str(tmp_path)])
    return code


def _count_calls(monkeypatch, *targets):
    """Count the calls of each (owner, name) method while the test runs."""
    calls = collections.Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for owner, name in targets:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


@pytest.mark.parametrize("command", cli_commands.COMMANDS,
                         ids=[command.name for command in cli_commands.COMMANDS])
def test_command(tmp_path, monkeypatch, command):
    # each row of the reproducer table, in-process through the contract sweep's
    # runner: exit as declared with no warning, and stderr empty, or on exit 2
    # one line holding the row's fragment, with no output directory made
    monkeypatch.chdir(tmp_path)
    Path("aliases.cfg").write_text(cli_commands.ALIASES)
    code, err, n_warnings = contract_sweep.run(command.argv.split(), command.name)
    assert n_warnings == 0
    assert cli_commands.as_declared(command, code, err, tmp_path / command.name), (code, err)


def test_compare_names_the_differing_report_leaf():
    # two report bodies that differ only in the sign of one zero
    base = json.dumps({"derived": {"p": 0.5, "u": -0.0}, "checks": [{"passed": True}]})
    change = base.replace("-0.0", "0.0")
    assert cli_commands.differences("file report.json", base.encode(), change.encode()) \
        == ["derived.u: -0.0 -> 0.0"]
    assert cli_commands.differences("file samples.csv", b"r,f\n1,2\n3,4\n", b"r,f\n1,2\n3,5\n") \
        == ["1 lines differ"]


class TestExitCodes:
    def test_verify_passes(self, tmp_path, capsys):
        code = run_cli(["verify", "--A", "3", "--mu", "-2", "--kappa", "1",
                        "--omega", "1", "--N", "10"], tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS kinetic-balance" in out
        assert "FAIL" not in out

    def test_special_case_passes(self, tmp_path, capsys):
        code = run_cli(["special-case", "--A", "2", "--mu", "0.5", "--kappa", "-1"],
                       tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS diagonal-dirac-residual" in out

    def test_special_case_tiny_lambda_passes(self, tmp_path, capsys):
        # lam^2 underflows to 0 at lam = 1e-200; the second-order energy term
        # (eps^2 - 1)/lam^2 chi is still 0 at eps = +-1, not a division by zero
        code = run_cli(["special-case", "--A", "2", "--mu", "0.5", "--kappa", "-1",
                        "--lambda", "1e-200"], tmp_path)
        assert code == 0
        assert "PASS diagonal-second-order-residual" in capsys.readouterr().out

    @pytest.mark.parametrize("mode,epsilon", [("solve", "1"), ("solve", "-1"),
                                              ("verify", "1")])
    def test_norm_order_above_max_is_refused_before_the_recursion(
            self, tmp_path, capsys, monkeypatch, mode, epsilon):
        # N = 20000 needs an order-20008 rule for the norm integral, above
        # quadrature.MAX_ORDER: one line naming N, and no coefficient recursion
        import diracpl.solution

        def no_recursion(*args, **kwargs):
            raise AssertionError("the coefficient recursion ran")

        monkeypatch.setattr(diracpl.solution, "coefficient_sequence", no_recursion)
        code = run_cli([mode, "--A", "1", "--mu", "2", "--kappa", "-1",
                        "--epsilon", epsilon, "--N", "20000"], tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert "N = 20000" in err and "20008" in err

    def test_upper_component_norm_order_is_checked_before_the_recursion(
            self, tmp_path, capsys, monkeypatch):
        # <phi+|phi+>, the one norm integral, has degree 2N: at N = 993 it needs
        # order 1001, so the run is refused before the recursion, not after it
        import diracpl.solution

        def no_recursion(*args, **kwargs):
            raise AssertionError("the coefficient recursion ran")

        monkeypatch.setattr(diracpl.solution, "coefficient_sequence", no_recursion)
        code = run_cli(["solve", "--A", "1", "--mu", "-1.5", "--kappa", "-3", "--N", "993"],
                       tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert "N = 993" in err and "order 1001" in err

    @pytest.mark.parametrize("mu,kappa", [("-1.5", "-3"), ("1e-9", "-2"),
                                          ("-0.999999999", "-2")])
    def test_verify_decaying_sector_passes(self, tmp_path, capsys, mu, kappa):
        # representation b at rho = 2 (the first is the README library
        # example): the coefficients are the decaying (minimal) solution,
        # which forward recurrence would lose to the dominant one
        code = run_cli(["verify", "--A", "1", f"--mu={mu}", f"--kappa={kappa}"], tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS coefficient-dual-path" in out
        assert "PASS scaling-equivalence" in out

    @pytest.mark.parametrize("args", [
        ["--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1"],
        ["--A", "1", "--mu", "-1.5", "--kappa", "-3"],
        ["--A", "1", "--mu", "2", "--kappa", "-1"],
        ["--A", "2", "--mu", "0.5", "--kappa", "-1", "--epsilon", "-1"],
    ], ids=["a", "b", "c", "eps-minus"])
    def test_verify_single_term_passes(self, tmp_path, capsys, args):
        # at N = 0 the only projection is the boundary one, -B_0 f_1: there
        # is no interior index to check
        code = run_cli(["verify", *args, "--N", "0"], tmp_path)
        out = capsys.readouterr().out
        assert code == 0, out
        assert "weak-form-interior" not in out
        assert "PASS weak-form-boundary" in out

    @pytest.mark.parametrize("args", [
        ["--A", "-1.7164122766073617", "--mu", "-3.8641876132271795", "--kappa", "-5",
         "--omega", "0.9324215474167732"],
        ["--A", "0.3289248821491397", "--mu", "2.123904947078503", "--kappa", "3",
         "--omega", "1.7884241215357566"],
    ], ids=["theta-5.5", "theta-minus-2.8"])
    def test_verify_large_theta_passes(self, tmp_path, capsys, args):
        # cosh^2(theta) ~ 1.5e4 at theta = 5.5: the hyperbolic identity is
        # measured on the recursion's a(n), not as cosh^2 - sinh^2 - 1, whose
        # float roundoff alone exceeds 1e-14 there
        code = run_cli(["verify", *args], tmp_path)
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS hyperbolic-identity" in out

    @pytest.mark.parametrize("side,k", [pytest.param(side, k, id=f"{name}-{k}")
                                        for name, side, last in (("above", 1.0, 7),
                                                                 ("below", -1.0, 6))
                                        for k in range(1, last + 1)])
    def test_verify_near_unit_rho_passes(self, tmp_path, capsys, k, side):
        # representation b (A = 1, beta = 5/2) at rho = 1 +- 10^-k, where
        # |theta| grows like log(4/|rho - 1|): the hyperbolic identity is
        # measured on the e^{+-theta} form of the diagonal, which has no
        # cosh/sinh cancellation to lose digits to.  At 1 + 1e-7
        # operator-band-agreement reads 9.7e-9 against its 1e-8 tolerance, and
        # 3.4e-8 at the bare exact quadrature order; at 1 - 1e-7 it reads
        # 1.06e-8 and fails (ROADMAP item 6)
        omega = (0.8 / (1.0 + side * 10.0 ** -k)) ** 0.4
        code = run_cli(["verify", "--A", "1", "--mu", "-1.5", "--kappa", "-3",
                        "--omega", repr(omega)], tmp_path)
        out = capsys.readouterr().out
        assert code == 0, out
        assert "PASS hyperbolic-identity" in out

    def test_verify_negative_energy(self, tmp_path, capsys):
        code = run_cli(["verify", "--A", "3", "--mu", "-2", "--kappa", "1",
                        "--omega", "1", "--N", "8", "--epsilon", "-1"], tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "energy-reflection-involution" in out

    def test_verify_solves_and_projects_once(self, tmp_path, capsys, monkeypatch):
        # at eps = -1 the involution reflects the one solution twice instead of
        # solving again, and the weak-form rows 0..N come from one projection
        import diracpl.cli as cli
        import diracpl.solution as solution
        calls = _count_calls(monkeypatch, (cli, "solve"), (solution, "weak_form_residual"))
        assert run_cli(["verify", "--A", "2", "--mu", "0.5", "--kappa", "-1",
                        "--epsilon", "-1"], tmp_path) == 0
        assert calls == {"solve": 1, "weak_form_residual": 1}


class TestSolveOutputs:
    def test_csv_schema(self, tmp_path, capsys):
        assert run_cli(["solve"] + SOLVE_ARGS, tmp_path) == 0
        lines = (tmp_path / "samples.csv").read_text().splitlines()
        assert lines[0] == "r,phi_plus,phi_minus,residual_plus,residual_minus"
        assert len(lines) == 61
        row = lines[1].split(",")
        assert len(row) == 5
        assert all(float(v) == float(v) for v in row)

    def test_coefficient_schema(self, tmp_path, capsys):
        assert run_cli(["solve"] + SOLVE_ARGS, tmp_path) == 0
        rows = json.loads((tmp_path / "coefficients.json").read_text())
        assert len(rows) == 9
        assert set(rows[0]) == {"n", "f_n", "g_or_h_n"}
        assert rows[0]["n"] == 0
        assert rows[0]["g_or_h_n"] == pytest.approx(1.0)  # h_0 = 1 for rep c

    def test_report_contents(self, tmp_path, capsys):
        assert run_cli(["solve"] + SOLVE_ARGS, tmp_path) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["A"] == 1.0
        assert report["basis"]["representation"] == "c"
        assert report["config"]["seed"] == 1234
        assert "normalization_constant" in report
        assert "residual_stats" in report

    def test_determinism(self, tmp_path, capsys):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            assert main(["solve"] + SOLVE_ARGS + ["--out", str(d)]) == 0
        for name in ("samples.csv", "coefficients.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        r1 = json.loads((d1 / "report.json").read_text())
        r2 = json.loads((d2 / "report.json").read_text())
        r1["config"].pop("out"), r2["config"].pop("out")
        assert r1 == r2

    def test_one_grid_pass(self, tmp_path, capsys, monkeypatch):
        # samples, rows and scale come from one evaluation of the two component
        # forms and their two first derivatives; no second derivative is
        # built, and the output directory is made once
        calls = _count_calls(monkeypatch, (LaguerreForm, "eval"), (LaguerreForm, "d_dr"),
                             (Path, "mkdir"))
        assert run_cli(["solve"] + SOLVE_ARGS, tmp_path) == 0
        assert calls == {"eval": 4, "d_dr": 2, "mkdir": 1}

    def test_special_case_second_order_pass(self, tmp_path, capsys, monkeypatch):
        # the first-order grid pass (4 evals), then per component one evaluation
        # of its value and second-derivative forms for residual and scale together
        calls = _count_calls(monkeypatch, (LaguerreForm, "eval"))
        assert run_cli(["special-case", "--A", "2", "--mu", "0.5", "--kappa", "-1"],
                       tmp_path) == 0
        assert calls == {"eval": 8}

    @pytest.mark.parametrize("args", [
        ["--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1", "--N", "20"],
        ["--A", "1", "--mu", "-1.5", "--kappa", "-3", "--N", "40"],
        ["--A", "1", "--mu", "2", "--kappa", "-1", "--N", "40"],
        ["--A", "2", "--mu", "0.5", "--kappa", "-1", "--epsilon", "-1", "--N", "40"],
        ["--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1", "--N", "113"],
        ["--A", "1", "--mu", "-1.5", "--kappa", "-3", "--N", "160"],
        ["--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1", "--N", "176"],
    ], ids=["readme-solve", "rep-b-n40", "rep-c-n40", "eps-minus-n40", "rep-a-n113",
            "rep-b-n160", "rep-a-n176"])
    def test_coefficients_are_json_dumps(self, tmp_path, capsys, args):
        # coefficients.json is written from a format string; its bytes are
        # those json.dumps gives for the rows, up to rep a's ceiling
        assert main(["solve", *args, "--out", str(tmp_path)]) == 0
        sol = build_config(make_parser().parse_args(["solve", *args])).solve()
        scaled = sol.coeffs / rescale(sol.basis, sol.N)
        rows = [{"n": n, "f_n": float(sol.coeffs[n]), "g_or_h_n": float(scaled[n])}
                for n in range(sol.N + 1)]
        assert ((tmp_path / "coefficients.json").read_text()
                == json.dumps(rows, indent=2, sort_keys=True) + "\n")


VERIFY_CHECKS = ["kinetic-balance", "operator-tridiagonality", "operator-band-agreement",
                 "coefficient-dual-path", "recursion-residual", "scaling-equivalence",
                 "hyperbolic-identity", "weak-form-interior", "weak-form-boundary",
                 "lower-norm-identity"]
SOLUTION_KEYS = {"basis", "derived", "normalization_constant"}


class TestCheckedReports:
    """report.json of the checked subcommands: verdicts, check order, solution block."""

    @pytest.mark.parametrize("args,names,solution_block", [
        (["verify", "--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1", "--N", "8"],
         VERIFY_CHECKS, True),
        (["verify", "--A", "2", "--mu", "0.5", "--kappa", "-1", "--epsilon", "-1", "--N", "8"],
         VERIFY_CHECKS + ["energy-reflection-involution", "energy-reflection-rows"], True),
        (["convergence", "--A", "1", "--mu", "-1.5", "--kappa", "-3", "--omega", "0.5253"],
         ["interior-residual-decrease", "boundary-identity"], False),
        (["convergence", "--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1"],
         ["interior-residual-decrease", "boundary-identity"], False),
        (["special-case", "--A", "2", "--mu", "0.5", "--kappa", "-1"],
         ["diagonal-dirac-residual", "diagonal-second-order-residual",
          "diagonal-uniqueness-scan"], True),
    ], ids=["verify", "verify-eps-minus", "convergence", "convergence-failing",
            "special-case"])
    def test_report(self, tmp_path, capsys, args, names, solution_block):
        code = run_cli(args, tmp_path)
        out = capsys.readouterr().out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["mode"] == args[0]
        assert [c["name"] for c in report["checks"]] == names
        assert report["all_passed"] == all(c["passed"] for c in report["checks"])
        assert code == (0 if report["all_passed"] else 1)
        assert [line.split()[1].rstrip(":") for line in out.splitlines()
                if line.startswith(("PASS", "FAIL"))] == names
        assert SOLUTION_KEYS & set(report) == (SOLUTION_KEYS if solution_block else set())


class TestConfigFile:
    def test_file_plus_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("A = 3.0\n\n# a full-line comment\nmu = -2.0\nkappa = 1\n"
                       "omega = 1.0  # scale\nN = 6\n")
        code = main(["verify", "--config", str(cfg), "--N", "8",
                     "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["N"] == 8          # flag overrides file
        assert report["config"]["omega"] == 1.0    # file value kept

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("A = 1\nwhatever = 3\n")
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "whatever" in capsys.readouterr().err
        cfg.write_text("A = 1\nmu -1.5\n")  # a line without '=' is named by path:line
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: {cfg}:2: expected key=value, got 'mu -1.5'"]


BASE_B = {"A": 1.0, "mu": -1.5, "kappa": -3, "N": 2}  # representation b: omega is free
BASE_C = {"A": 1.0, "mu": 2.0, "kappa": -1, "N": 2}   # representation c: alpha is free
DEFAULTS = {"mode": "solve", "lam": 1.0, "eps": 1, "omega": None, "alpha": None,
            "N": 40, "seed": 1234, "out": "."}
# flag, its config-file keys, the RunConfig field, two values, a configuration
# that accepts both
SETTINGS = [
    ("A", ("A",), "A", 1.25, 0.75, BASE_B),
    ("mu", ("mu",), "mu", -1.25, -1.75, BASE_B),
    ("kappa", ("kappa",), "kappa", -2, -4, BASE_B),
    ("lambda", ("lambda", "lam"), "lam", 0.5, 2.0, BASE_B),
    ("omega", ("omega",), "omega", 0.75, 1.5, BASE_B),
    ("alpha", ("alpha",), "alpha", 0.75, 1.5, BASE_C),
    ("N", ("N",), "N", 3, 4, BASE_B),
    ("epsilon", ("epsilon", "eps"), "eps", -1, 1, BASE_C),
    ("seed", ("seed",), "seed", 7, 8, BASE_B),
    ("out", ("out",), "out", "one", "two", BASE_B),
]
FILE_KEYS = [(key, *setting) for setting in SETTINGS for key in setting[1]]


def _report_config(name, value):
    out = Path(value if name == "out" else ".")
    return json.loads((out / "report.json").read_text())["config"]


class TestSettings:
    """Each flag and each config-file key reaches its RunConfig field, as seen
    in the config block of report.json; every other field keeps its default."""

    @pytest.mark.parametrize("flag,keys,name,value,other,base", SETTINGS,
                             ids=[s[0] for s in SETTINGS])
    def test_flag(self, tmp_path, monkeypatch, capsys, flag, keys, name, value, other, base):
        monkeypatch.chdir(tmp_path)
        args = [f"--{k}={v}" for k, v in base.items() if k != name]
        assert main(["solve", *args, f"--{flag}={value}"]) == 0
        assert _report_config(name, value) == {**DEFAULTS, **base, name: value}

    @pytest.mark.parametrize("key,flag,keys,name,value,other,base", FILE_KEYS,
                             ids=[k[0] for k in FILE_KEYS])
    def test_file_key(self, tmp_path, monkeypatch, capsys, key, flag, keys, name, value,
                      other, base):
        monkeypatch.chdir(tmp_path)
        lines = [f"{k} = {v}" for k, v in base.items() if k != name] + [f"{key} = {value}"]
        Path("run.cfg").write_text("\n".join(lines) + "\n")
        assert main(["solve", "--config", "run.cfg"]) == 0
        assert _report_config(name, value) == {**DEFAULTS, **base, name: value}
        # a flag overrides the file
        assert main(["solve", "--config", "run.cfg", f"--{flag}={other}"]) == 0
        assert _report_config(name, other) == {**DEFAULTS, **base, name: other}

    def test_options_before_mode(self, tmp_path, capsys):
        assert main(["--A", "1", "--mu", "-1.5", "--kappa", "-3", "--N", "2",
                     "--out", str(tmp_path), "solve"]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["mode"] == "solve"


class TestConvergenceMode:
    # omega 0.5253 gives rho ~ 4, omega 1.2068... gives rho = 0.5: representation
    # b converges on both sides of the diagonal case rho = 1
    @pytest.mark.parametrize("omega", ["0.5253", "1.2068352673090326"],
                             ids=["rho-4", "rho-0.5"])
    def test_writes_sweep_and_reports_honest_checks(self, tmp_path, capsys, omega):
        # decaying-coefficient sector: the interior residual genuinely falls
        code = main(["convergence", "--A", "1", "--mu", "-1.5", "--kappa", "-3",
                     "--omega", omega, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS interior-residual-decrease" in out
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0] == "N,interior_residual,boundary_relative_error"
        assert [int(l.split(",")[0]) for l in lines[1:]] == [5, 10, 20, 40]
        vals = [float(l.split(",")[1]) for l in lines[1:]]
        assert vals[-1] < vals[0]

    def test_nonconvergent_case_fails_honestly(self, tmp_path, capsys):
        code = main(["convergence", "--A", "3", "--mu", "-2", "--kappa", "1",
                     "--omega", "1", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL interior-residual-decrease" in out
        assert "PASS boundary-identity" in out


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "diracpl.cli", "solve", *SOLVE_ARGS,
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "report.json").exists()

    def test_help_keeps_full_text(self):
        proc = subprocess.run([sys.executable, "-m", "diracpl.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: diracpl")
        assert "--epsilon" in proc.stdout and "--config" in proc.stdout

    @pytest.mark.parametrize("sub", ["", "sub"], ids=["out-is-file", "out-under-file"])
    def test_out_not_a_directory_is_config_error(self, tmp_path, sub):
        blocker = tmp_path / "file"
        blocker.write_text("")
        proc = subprocess.run(
            [sys.executable, "-m", "diracpl.cli", "solve", "--A", "1", "--mu", "-1.5",
             "--kappa", "-3", "--N", "5", "--out", str(blocker / sub)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == ""

    def test_runtime_imports_no_scipy(self, tmp_path):
        # scipy is a test-only dependency: a solve must not import it
        code = ("import sys\n"
                "from diracpl.cli import main\n"
                f"assert main(['solve', *{SOLVE_ARGS!r}, '--out', {str(tmp_path)!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


    def test_solve_imports_no_mpmath(self, tmp_path):
        # mpmath serves the oracle sums only: a solve must not import it
        code = ("import sys\n"
                "from diracpl.cli import main\n"
                f"assert main(['solve', *{SOLVE_ARGS!r}, '--out', {str(tmp_path)!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert make_parser() is make_parser()

    def test_successive_calls_leak_no_values(self, tmp_path, capsys):
        # the second in-process call gives what a fresh process gives
        first = ["solve", "--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1",
                 "--N", "12", "--seed", "7", "--lambda", "0.5"]
        second = ["solve", *SOLVE_ARGS]
        assert main(first + ["--out", str(tmp_path / "first")]) == 0
        assert main(second + ["--out", str(tmp_path / "second")]) == 0
        proc = subprocess.run([sys.executable, "-m", "diracpl.cli", *second,
                               "--out", str(tmp_path / "fresh")],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        for name in ("samples.csv", "coefficients.json"):
            assert ((tmp_path / "second" / name).read_bytes()
                    == (tmp_path / "fresh" / name).read_bytes())
        reports = [json.loads((tmp_path / d / "report.json").read_text())
                   for d in ("second", "fresh")]
        for report in reports:
            report["config"].pop("out")
        assert reports[0] == reports[1]
        assert reports[0]["config"]["omega"] is None and reports[0]["config"]["lam"] == 1.0


# The four verify-warm benchmark configurations.
VERIFY_CONFIGS = [
    ["--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1"],
    ["--A", "1", "--mu", "-1.5", "--kappa", "-3"],
    ["--A", "1", "--mu", "2", "--kappa", "-1"],
    ["--A", "2", "--mu", "0.5", "--kappa", "-1", "--epsilon", "-1"],
]


def _verdicts(tmp_path, args):
    code = main(["verify", *args, "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    return code, {c["name"]: c["passed"] for c in report["checks"]}


def _negate_boundary_term(monkeypatch):
    # B_N f_{N+1} with the wrong sign, in the weak-form boundary identity only:
    # the normalization and lower-norm-identity read B_N through `lower_norm_sq`
    import diracpl.solution as solution
    original = solution.matrix_element_analytic
    monkeypatch.setattr(solution, "matrix_element_analytic",
                        lambda derived, n, m: -original(derived, n, m))


class TestBatchedChecksBite:
    """A fault planted in one route of a batched check fails that check alone."""

    @pytest.mark.parametrize("args", VERIFY_CONFIGS, ids=["a", "b", "c", "eps-minus"])
    def test_perturbed_band_elements_fail_band_agreement(self, tmp_path, capsys,
                                                         monkeypatch, args):
        import diracpl.wave_operator as wave_operator
        original = wave_operator.band_elements

        def perturbed(derived, k, offdiag=False):
            return original(derived, k, offdiag) * np.where(np.asarray(k) <= 12, 1.0 + 1e-3, 1.0)

        monkeypatch.setattr(wave_operator, "band_elements", perturbed)
        code, passed = _verdicts(tmp_path, args)
        assert code == 1
        # both checks read the one operator matrix: its rows are the raw relation
        assert [name for name, ok in passed.items() if not ok] == ["operator-band-agreement",
                                                                   "scaling-equivalence"]

    @pytest.mark.parametrize("n", [0, 5, 10])
    @pytest.mark.parametrize("args", VERIFY_CONFIGS, ids=["a", "b", "c", "eps-minus"])
    def test_perturbed_stencil_column_fails_kinetic_balance(self, tmp_path, capsys,
                                                            monkeypatch, args, n):
        # element n's lower stencil scaled by 1 + 1e-3; the upper row is untouched
        import diracpl.basis as basis_module
        original = basis_module.spinor_forms

        def perturbed(basis, c):
            c = np.asarray(c, dtype=float)
            weight = np.ones(c.shape[-1])
            weight[n:n + 1] += 1e-3
            return original(basis, c)[0], original(basis, c * weight)[1]

        monkeypatch.setattr(basis_module, "spinor_forms", perturbed)
        code, passed = _verdicts(tmp_path, args)
        assert code == 1
        assert [name for name, ok in passed.items() if not ok] == ["kinetic-balance"]

    @pytest.mark.parametrize("args", VERIFY_CONFIGS, ids=["a", "b", "c", "eps-minus"])
    def test_perturbed_raw_relation_fails_scaling_equivalence(self, tmp_path, capsys,
                                                              monkeypatch, args):
        # D_10 scaled by 1 + 1e-9, below the band-agreement tolerance: only
        # the raw relation's residual on the production sequence sees it
        import diracpl.wave_operator as wave_operator
        original = wave_operator.band_elements

        def perturbed(derived, k, offdiag=False):
            bands = original(derived, k, offdiag)
            return bands if offdiag else bands * np.where(np.asarray(k) == 10, 1.0 + 1e-9, 1.0)

        monkeypatch.setattr(wave_operator, "band_elements", perturbed)
        code, passed = _verdicts(tmp_path, args)
        assert code == 1
        assert [name for name, ok in passed.items() if not ok] == ["scaling-equivalence"]

    @pytest.mark.parametrize("args", VERIFY_CONFIGS, ids=["a", "b", "c", "eps-minus"])
    def test_perturbed_far_bands_fail_scaling_equivalence(self, tmp_path, capsys,
                                                          monkeypatch, args):
        # D_n and B_n scaled by 1 + 1e-3 for 25 < n < 35, past every fixed-range
        # check: the raw relation, read on the solution's own f_0..f_{N+1} at
        # every row n <= N, sees it (5.5e-5 .. 4.5e-4)
        import diracpl.wave_operator as wave_operator
        original = wave_operator.band_elements

        def perturbed(derived, k, offdiag=False):
            far = (np.asarray(k) > 25) & (np.asarray(k) < 35)
            return original(derived, k, offdiag) * np.where(far, 1.0 + 1e-3, 1.0)

        monkeypatch.setattr(wave_operator, "band_elements", perturbed)
        code, passed = _verdicts(tmp_path, [*args, "--N", "40"])
        assert code == 1
        assert [name for name, ok in passed.items() if not ok] == ["scaling-equivalence"]

    @pytest.mark.parametrize("args", [VERIFY_CONFIGS[i] for i in (0, 2, 3)],
                             ids=["a", "c", "eps-minus"])
    def test_negated_boundary_term_fails_weak_form_boundary(self, tmp_path, capsys,
                                                           monkeypatch, args):
        # the boundary identity is compared with its sign (representation b's
        # boundary term is below quadrature noise at N = 40)
        _negate_boundary_term(monkeypatch)
        code, passed = _verdicts(tmp_path, args)
        assert code == 1
        assert [name for name, ok in passed.items() if not ok] == ["weak-form-boundary"]

    @pytest.mark.parametrize("args,failed", [
        (VERIFY_CONFIGS[0], ["weak-form-interior"]),
        (VERIFY_CONFIGS[1], ["scaling-equivalence"]),
        (VERIFY_CONFIGS[2], []),
        (VERIFY_CONFIGS[3], ["weak-form-interior"]),
    ], ids=["a", "b", "c", "eps-minus"])
    def test_perturbed_shared_diagonal_fails_verify(self, tmp_path, capsys, monkeypatch,
                                                    args, failed):
        # the reps a/b diagonal scaled by 1 + 1e-3 at rows 33 and 34 reaches both
        # the operator band and the natural relation, so for rep a the raw
        # relation compares the coefficients with the fact that made them; the
        # weak-form rows, read at every n < N by quadrature, see it (5e-7, 7e-7
        # at row 34).  Rep b's coefficients come from its product, and rep c's
        # band does not read the shared diagonal.  lower-norm-identity misses it
        # everywhere: it reads 1.5e-9 (a) and 3.2e-9 (eps-minus), below its 1e-8,
        # as the perturbed rows weigh f_33, f_34 against the whole Gram, and
        # 2.7e-33 (b) and 3.2e-17 (c), where the relation f solves is intact.
        import diracpl.basis as basis_module
        original = basis_module.ab_diagonal

        def perturbed(derived, k):
            rows = np.isin(np.asarray(k), (33, 34))
            return original(derived, k) * np.where(rows, 1.0 + 1e-3, 1.0)

        monkeypatch.setattr(basis_module, "ab_diagonal", perturbed)
        code, passed = _verdicts(tmp_path, [*args, "--N", "40"])
        assert code == (1 if failed else 0)
        assert [name for name, ok in passed.items() if not ok] == failed

    @pytest.mark.parametrize("args,failed", [
        (VERIFY_CONFIGS[0], ["lower-norm-identity"]),
        (VERIFY_CONFIGS[1], []),
        (VERIFY_CONFIGS[2], ["lower-norm-identity"]),
        (VERIFY_CONFIGS[3], ["lower-norm-identity"]),
    ], ids=["a", "b", "c", "eps-minus"])
    def test_perturbed_normalization_band_fails_lower_norm_identity(
            self, tmp_path, capsys, monkeypatch, args, failed):
        # B_N scaled by 1 + 1e-3 where the normalization reads it
        # (`lower_norm_sq`): the series is scaled by a wrong lower norm, which
        # only that norm's quadrature sees (6.7e-4, 1.8e-5 and 6.4e-4 on a, c
        # and eps-minus).  Representation b's boundary term is 1e-35 of its
        # norm at N = 40, so there the fault changes nothing.
        import diracpl.solution as solution
        original = solution.band_elements
        monkeypatch.setattr(solution, "band_elements",
                            lambda derived, k, offdiag=False:
                            original(derived, k, offdiag) * (1.0 + 1e-3))
        code, passed = _verdicts(tmp_path, args)
        assert code == (1 if failed else 0)
        assert [name for name, ok in passed.items() if not ok] == failed

    def test_negated_boundary_term_fails_convergence_boundary_identity(self, tmp_path, capsys,
                                                                      monkeypatch):
        _negate_boundary_term(monkeypatch)
        code = main(["convergence", "--A", "1", "--mu", "-1.5", "--kappa", "-3",
                     "--omega", "0.5253", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "PASS interior-residual-decrease" in out and "FAIL boundary-identity" in out


# Contract-sweep draws near mu = 1 (nu = 400, 626 and 957), whose
# Gamma(n+1+nu) leaves double range while the running product R_n does not.
LARGE_NU = [
    ["--A=-0.02824516806695166", "--mu=1.012511070587796", "--kappa=-3", "--N=5"],
    ["--A=6.571918498063921", "--mu=0.9760228988459303", "--kappa=7", "--N=20",
     "--omega=2.7864680347990225"],
    ["--A=-2.699971794706568", "--mu=1.0156696416427031", "--kappa=7", "--N=5",
     "--omega=16.443493406253143"],
]


@pytest.mark.parametrize("args", LARGE_NU, ids=["nu-400", "nu-626", "nu-957"])
def test_large_nu_verifies(tmp_path, capsys, args):
    code, passed = _verdicts(tmp_path, args)
    assert code == 0, [name for name, ok in passed.items() if not ok]
    assert len(passed) == 10


class TestQuadratureOrder:
    """Each integral's Gauss-Laguerre order is set by its degree alone; no
    flag or config key sets another."""

    def test_quad_order_config_key_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("A = 1\nmu = -1.5\nkappa = -3\nquad_order = 60\n")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "unknown config key 'quad_order'" in err
        assert not (tmp_path / "out").exists()

class TestRepACeiling:
    """Representation a's growing coefficients are normalized in exact scale,
    so its solves reach the order-186 rule like reps b and c."""

    REP_A = ["--A", "3", "--mu", "-2", "--kappa", "1", "--omega", "1"]

    def test_solve_at_n176_is_finite(self, tmp_path, capsys):
        assert main(["solve", *self.REP_A, "--N", "176", "--out", str(tmp_path)]) == 0
        samples = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1)
        rows = json.loads((tmp_path / "coefficients.json").read_text())
        assert samples.shape[0] > 0 and np.all(np.isfinite(samples))
        assert len(rows) == 177
        assert np.all(np.isfinite([[row["f_n"], row["g_or_h_n"]] for row in rows]))

    def test_verify_at_n150_passes(self, tmp_path, capsys):
        code, passed = _verdicts(tmp_path, [*self.REP_A, "--N", "150"])
        assert code == 0
        assert passed == dict.fromkeys(VERIFY_CHECKS, True)

class TestNoCeilingBelow400:
    """The forms are written on orthonormal Laguerre functions, which stay O(1),
    so every representation solves and verifies at N = 400."""

    @pytest.mark.parametrize("args", VERIFY_CONFIGS, ids=["a", "b", "c", "eps-minus"])
    def test_solve_at_n400_is_finite(self, tmp_path, capsys, args):
        assert main(["solve", *args, "--N", "400", "--out", str(tmp_path)]) == 0
        samples = np.loadtxt(tmp_path / "samples.csv", delimiter=",", skiprows=1)
        assert samples.shape[0] > 0 and np.all(np.isfinite(samples))

    @pytest.mark.parametrize("args", VERIFY_CONFIGS, ids=["a", "b", "c", "eps-minus"])
    def test_verify_at_n400_passes(self, tmp_path, capsys, args):
        code, passed = _verdicts(tmp_path, [*args, "--N", "400"])
        assert code == 0, [name for name, ok in passed.items() if not ok]
