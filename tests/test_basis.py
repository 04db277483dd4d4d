"""Representation selection, constraint table, and the spinor components."""

import ast
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import CASE_IDS, add_forms, build_case, r_window
from diracpl import basis as basis_module
from diracpl.basis import (PhysicalParams, Rep, kinetic_balance_apply,
                           kinetic_balance_form, phi_minus, phi_minus_form,
                           phi_plus, phi_plus_form, select_representation, spinor_forms)
from diracpl.forms import integrate_product
from diracpl.solution import assemble

SRC = Path(basis_module.__file__).parent  # the package's source files


def _a_n(basis, n):
    """The paper's normalization a_n = sqrt(omega |beta| Gamma(n+1) / Gamma(n+nu+1))."""
    log_ratio = math.lgamma(n + 1.0) - math.lgamma(n + basis.nu + 1.0)
    return math.sqrt(basis.omega * abs(basis.beta)) * math.exp(0.5 * log_ratio)


class TestPhysicalParams:
    def test_rejects_excluded_powers(self):
        for mu, fragment in [(0.0, "Coulomb"), (1.0, "free"), (-1.0, "oscillator")]:
            with pytest.raises(ValueError, match=fragment):
                PhysicalParams(A=1.0, mu=mu, kappa=1)

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            PhysicalParams(A=1.0, mu=2.0, kappa=0)
        with pytest.raises(ValueError):
            PhysicalParams(A=1.0, mu=2.0, kappa=1.5)

    def test_rejects_zero_strength_and_bad_eps(self):
        with pytest.raises(ValueError):
            PhysicalParams(A=0.0, mu=2.0, kappa=1)
        with pytest.raises(ValueError):
            PhysicalParams(A=1.0, mu=2.0, kappa=1, eps=0)

    def test_beta(self):
        assert PhysicalParams(A=1.0, mu=-2.0, kappa=1).beta == 3.0


class TestSelectRepresentation:
    def test_rep_a_example(self):
        basis = select_representation(PhysicalParams(A=3.0, mu=-2.0, kappa=1))
        assert basis.rep is Rep.A
        assert basis.beta == 3.0
        assert basis.gamma == pytest.approx(1.0 / 3.0)
        assert basis.alpha == pytest.approx(2.0 / 3.0)
        assert basis.nu == pytest.approx(1.0)
        assert basis.tau == 0.25

    def test_rep_b_example(self):
        basis = select_representation(PhysicalParams(A=1.0, mu=3.0, kappa=2))
        assert basis.rep is Rep.B
        assert basis.beta == -2.0
        assert basis.gamma == pytest.approx(-1.0)
        assert basis.alpha == pytest.approx(1.0)
        assert basis.nu == pytest.approx(2.5)

    def test_rep_c_example(self):
        basis = select_representation(PhysicalParams(A=1.0, mu=2.0, kappa=-1))
        assert basis.rep is Rep.C
        assert basis.beta == -1.0
        assert basis.rho == -1.0
        assert basis.omega == pytest.approx(0.5)
        assert basis.nu == pytest.approx(2.0 * basis.alpha - 1.0 - 1.0 / basis.beta)

    def test_default_omega_gives_rho_two(self):
        for kw in [dict(A=3.0, mu=-2.0, kappa=1), dict(A=1.0, mu=3.0, kappa=2),
                   dict(A=-0.5, mu=0.5, kappa=-2)]:
            basis = select_representation(PhysicalParams(**kw))
            assert abs(basis.rho) == pytest.approx(2.0, rel=1e-13)

    def test_kinetic_balance_values(self):
        phys = PhysicalParams(A=3.0, mu=-2.0, kappa=1)
        basis = select_representation(phys, omega=1.0)
        assert basis.rho == pytest.approx(2.0 * phys.A / (basis.beta * basis.omega ** basis.beta))
        assert basis.gamma == pytest.approx(phys.kappa / basis.beta)

    def test_explicit_rep_c_request(self):
        basis = select_representation(PhysicalParams(A=2.0, mu=3.0, kappa=1), rep="c")
        assert basis.rep is Rep.C
        assert basis.rho == -1.0  # sign(beta * A) with beta = -2

    @pytest.mark.parametrize("rep", ["a", "b", "c"])
    @pytest.mark.parametrize("kw,default", [
        (dict(A=3.0, mu=-2.0, kappa=1), "a"),    # beta*kappa > 0, kappa != -1
        (dict(A=1.0, mu=3.0, kappa=2), "b"),     # beta*kappa < 0
        (dict(A=1.0, mu=2.0, kappa=-1), "c"),    # beta*kappa > 0, kappa = -1
    ], ids=["a-sector", "b-sector", "c-sector"])
    def test_rep_misuse_rejected(self, kw, default, rep):
        # an explicit rep is accepted if and only if it is the default or c
        phys = PhysicalParams(**kw)
        assert select_representation(phys).rep.value == default
        if rep in (default, "c"):
            assert select_representation(phys, rep=rep).rep.value == rep
        else:
            with pytest.raises(ValueError, match=f"use {default} \\(the default\\) or c"):
                select_representation(phys, rep=rep)
        if default != "c":
            with pytest.raises(ValueError, match="alpha is fixed"):
                select_representation(phys, alpha=1.0)
        else:
            with pytest.raises(ValueError, match="omega is fixed"):
                select_representation(phys, omega=1.0)

    # (mu, kappa, explicit rep, the alpha bound max(1/beta, -1/(2 beta)))
    @pytest.mark.parametrize("mu,kappa,rep,bound", [(2.0, -1, None, 0.5),
                                                    (0.5, 1, "c", 2.0)],
                             ids=["beta-negative", "beta-positive"])
    def test_rep_c_alpha_at_or_below_bound_rejected(self, mu, kappa, rep, bound):
        phys = PhysicalParams(A=1.0, mu=mu, kappa=kappa)
        assert select_representation(phys, rep=rep, alpha=bound + 1e-9).rep is Rep.C
        for alpha in (bound, bound - 0.25, 0.0, -1.0):  # at, below, and alpha <= 0
            with pytest.raises(ValueError, match=f"requires alpha > {bound} for representation c"):
                select_representation(phys, rep=rep, alpha=alpha)

    def test_rep_c_alpha_rounding_onto_nu_minus_one_rejected(self):
        # at beta = -1e17, alpha = 1e-17 exceeds the bound 5e-18 but
        # nu = 2 alpha - 1 - 1/beta rounds to -1
        with pytest.raises(ValueError, match="requires alpha > 5e-18 for representation c"):
            select_representation(PhysicalParams(A=1.0, mu=1e17, kappa=-1), alpha=1e-17)

    @pytest.mark.parametrize("mu", [0.999999999, 1.000000001])
    @pytest.mark.parametrize("kappa", [-2, 2, -1])
    def test_scale_out_of_range_near_unit_power(self, mu, kappa):
        # beta = 1 - mu -> 0 sends omega = |A/beta|^(1/beta) (and |2A/beta|^(1/beta)
        # in representation c) past the double range, to inf or to 0
        with pytest.raises(ValueError, match="out of floating-point range"):
            select_representation(PhysicalParams(A=1.0, mu=mu, kappa=kappa))

    def test_user_omega_power_out_of_range(self):
        with pytest.raises(ValueError, match="omega\\^beta"):
            select_representation(PhysicalParams(A=1.0, mu=-5.0, kappa=1), omega=1e300)

    @pytest.mark.parametrize("kappa", [-4, -3, -2, 1, 2, 3, 4])
    @pytest.mark.parametrize("mu", [-2.5, -2.0, -0.5, 0.5, 1.5, 2.0, 3.0])
    def test_constraint_table_on_grid(self, kappa, mu):
        # produced (alpha, nu) always satisfy the admissibility bounds
        # for the default rep, explicit rep c, and a user omega for reps a and b
        phys = PhysicalParams(A=1.3, mu=mu, kappa=kappa)
        bases = [select_representation(phys), select_representation(phys, rep="c")]
        bases += [select_representation(phys, omega=w) for w in (0.3, 2.7)]  # reps a, b
        for basis in bases:
            beta = basis.beta
            assert basis.nu > -1.0
            assert basis.alpha > 0.0
            if basis.rep is Rep.A:
                assert basis.nu > 0.0
            if beta < 0:
                assert basis.alpha > -1.0 / (2.0 * beta)
            elif basis.rep in (Rep.A, Rep.C):
                assert basis.alpha > 1.0 / beta
            elif beta < 1.0:
                assert basis.alpha > -1.0 + 1.0 / beta

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_exponent_identity_and_integrability(self, label):
        phys, basis = build_case(label)
        if basis.rep in (Rep.A, Rep.B):
            # the upper-component exponent identity 2 alpha - 1/beta = nu
            assert 2.0 * basis.alpha - 1.0 / basis.beta == pytest.approx(basis.nu, rel=1e-12)
        # both components have an integrable squared envelope in x
        for form in (phi_plus_form(basis, 3), phi_minus_form(basis, 3)):
            weight_exp = 2.0 * form.power + form.nu - 1.0 + 1.0 / basis.beta
            assert weight_exp > -1.0


class TestSpinorComponents:
    def test_phi_plus_n0_shape(self):
        phys, basis = build_case("a_rho2")
        r = 0.8
        x = basis.measure.x_of_r(r)
        expected = _a_n(basis, 0) * x ** basis.alpha * math.exp(-x / 2.0)
        assert phi_plus(basis, 0, r) == pytest.approx(expected, rel=1e-14)

    def test_phi_plus_frozen_value_at_x_equal_one(self):
        # first-order polynomial is nu + 1 - x, giving a_1 e^{-1/2} at x = 1
        phys, basis = build_case("a_rho2")
        r = 1.0 / basis.omega
        expected = _a_n(basis, 1) * math.exp(-0.5) * (basis.nu + 1.0 - 1.0)
        assert phi_plus(basis, 1, r) == pytest.approx(expected, rel=1e-13)

    def test_rejects_nonpositive_radius(self):
        phys, basis = build_case("a_rho2")
        with pytest.raises(ValueError):
            phi_plus(basis, 0, 0.0)
        with pytest.raises(ValueError):
            phi_minus(basis, 1, -1.0)
        with pytest.raises(ValueError, match="basis index must be non-negative"):
            phi_plus_form(basis, [0, -1])

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_lower_component_matches_operator(self, label):
        # direct closed forms vs the first-order x-space operator, n <= 10
        phys, basis = build_case(label)
        r = r_window(basis, num=60)
        for n in range(11):
            direct = phi_minus(basis, n, r)
            operator = kinetic_balance_apply(basis, n, r)
            scale = np.max(np.abs(operator)) + 1e-300
            assert np.max(np.abs(direct - operator)) < 1e-8 * scale

    @pytest.mark.parametrize("label", ["a_rho2", "b_rho2", "c_rho_plus"])
    def test_lower_component_matches_physical_operator(self, label):
        # lam/2 (kappa/r + A/r^mu + d/dr) applied to the upper component
        phys, basis = build_case(label)
        m = basis.measure
        r = r_window(basis, num=40)
        for n in (0, 2, 5):
            fp = phi_plus_form(basis, n)
            vals = phys.lam / 2.0 * (
                (phys.kappa / r + phys.A * np.power(r, -phys.mu)) * fp.eval(m.x_of_r(r))
                + fp.d_dr(m).eval(m.x_of_r(r)))
            direct = phi_minus(basis, n, r)
            scale = np.max(np.abs(direct)) + 1e-300
            assert np.max(np.abs(direct - vals)) < 1e-10 * scale

    def test_rep_b_n0_single_term(self):
        # at n = 0 the order-(n-1) term is absent, leaving one polynomial term
        phys, basis = build_case("b_rho2")
        form = phi_minus_form(basis, 0)
        assert form.coef.shape == (1, 1)
        assert form.coef[0, 0] != 0.0

    def test_rep_c_n0_bracket(self):
        # n = 0 with rho = +1 keeps only the order-0 polynomial with weight
        # (2 gamma + 1/beta) + rho (nu + 1)
        phys, basis = build_case("c_rho_plus")
        form = phi_minus_form(basis, 0)
        # on psi_0 = a_0 x^{nu/2} e^{-x/2} / sqrt(omega |beta|)
        pre = basis.lam * basis.omega * basis.tau * basis.beta \
            * math.sqrt(basis.omega * abs(basis.beta))
        expected = pre * (2.0 * basis.gamma + 1.0 / basis.beta
                          + basis.rho * (basis.nu + 1.0))
        assert (form.power, form.nu) == (basis.alpha - 1.0 / basis.beta - basis.nu / 2.0,
                                         basis.nu)
        assert form.coef.shape == (1, 1)
        assert form.coef[0, 0] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("source", ["a_rho2", "b_rho2"])
    def test_three_forms_mutually_consistent(self, source):
        # the representation-c writing of the lower component evaluated with
        # another representation's parameters agrees pointwise (all three are
        # reductions of the same operator), including off the balanced rho
        phys, basis = build_case(source)
        general = replace(basis, rho=0.6 * basis.rho, tau=0.37)
        as_c = replace(general, rep=Rep.C)
        x = general.measure.x_of_r(r_window(general, num=30))
        for n in (0, 1, 4, 8):
            ref = phi_minus_form(general, n).eval(x)
            via_c = phi_minus_form(as_c, n).eval(x)
            op = kinetic_balance_form(general, n).eval(x)
            scale = np.max(np.abs(ref)) + 1e-300
            assert np.max(np.abs(via_c - ref)) < 1e-12 * scale
            assert np.max(np.abs(op - ref)) < 1e-12 * scale

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_upper_gram_matches_weighted_moments(self, label):
        # <phi_n^+|phi_m^+> equals the Gamma-moment formula obtained by
        # expanding in the x variable; the family is not orthonormal for
        # admissible beta, the constant a_n only fixes the weighted-norm scale
        phys, basis = build_case(label)
        n = 2
        val = integrate_product(phi_plus_form(basis, n), phi_plus_form(basis, n), basis.measure)
        c = 2.0 * basis.alpha - 1.0 + 1.0 / basis.beta
        from diracpl.orthopoly import laguerre_all
        from diracpl.quadrature import gauss_laguerre
        rule = gauss_laguerre(30, c)
        lag = laguerre_all(n, basis.nu, rule.nodes)[n]
        weights = rule.weights * rule.nodes ** c * np.exp(-rule.nodes)  # against x^c e^{-x}
        expected = _a_n(basis, n) ** 2 / (basis.omega * abs(basis.beta)) \
            * np.dot(weights, lag * lag)
        assert val == pytest.approx(expected, rel=1e-11)


class TestSpinorForms:
    """spinor_forms on a coefficient vector against the sum of its unit-vector
    cases and against the kinetic-balance operator route."""

    @pytest.mark.parametrize("label", CASE_IDS)
    @pytest.mark.parametrize("N", [0, 1, 20])
    def test_equals_fold_of_element_forms(self, label, N):
        # bit for bit: the left fold with + of the scaled per-element forms
        # adds each order's terms in the same sequence
        phys, basis = build_case(label)
        c = assemble(phys, basis, N).coeffs
        upper, lower = spinor_forms(basis, c)
        for got, element in ((upper, phi_plus_form), (lower, phi_minus_form)):
            fold = element(basis, 0).scaled(c[0])
            for n in range(1, N + 1):
                fold = add_forms(fold, element(basis, n).scaled(c[n]))
            assert (got.power, got.nu) == (fold.power, fold.nu)
            assert np.array_equal(got.coef, fold.coef)

    @pytest.mark.parametrize("label", CASE_IDS)
    @pytest.mark.parametrize("N", [0, 1, 20])
    def test_lower_equals_kinetic_balance_sum(self, label, N):
        # the operator route: sum_n c_n (kinetic-balance operator on phi_n^+),
        # measured against the term-magnitude scale max_x sum_n |c_n kb_n(x)|
        phys, basis = build_case(label)
        c = assemble(phys, basis, N).coeffs
        x = basis.measure.x_of_r(r_window(basis, num=60))
        terms = np.array([cn * kinetic_balance_form(basis, n).eval(x) for n, cn in enumerate(c)])
        scale = np.max(np.sum(np.abs(terms), axis=0))
        got = spinor_forms(basis, c)[1].eval(x)
        assert np.max(np.abs(got - terms.sum(axis=0))) <= 1e-12 * scale

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_empty_coefficients_give_zero_forms(self, label):
        phys, basis = build_case(label)
        assert all(form.is_zero for form in spinor_forms(basis, []))


class TestSpinorBatch:
    """spinor_forms on a coefficient matrix against one call per row."""

    @staticmethod
    def _rows(label):
        phys, basis = build_case(label)
        dense = np.random.default_rng(7).standard_normal((5, 13))
        return basis, {"dense": dense, "identity": np.eye(13)}

    @pytest.mark.parametrize("label", CASE_IDS)
    @pytest.mark.parametrize("kind", ["dense", "identity"])
    def test_rows_equal_single_calls(self, label, kind):
        # bit for bit once the single form is placed on the batch's power and shape
        basis, rows = self._rows(label)
        C = rows[kind]
        batch = spinor_forms(basis, C)
        for i, c in enumerate(C):
            for got, single in zip(batch, spinor_forms(basis, c)):
                assert got.nu == single.nu and got.coef.shape[0] == len(C)
                k = round(single.power - got.power)
                assert k >= 0 and single.power == got.power + k
                placed = np.zeros(got.coef.shape[1:])
                rows_, cols = single.coef.shape
                placed[k:k + rows_, :cols] = single.coef
                assert np.array_equal(got.coef[i], placed)

    @pytest.mark.parametrize("label", CASE_IDS)
    @pytest.mark.parametrize("kind", ["dense", "identity"])
    def test_batched_eval_equals_row_eval(self, label, kind):
        basis, rows = self._rows(label)
        C = rows[kind]
        x = basis.measure.x_of_r(r_window(basis, num=40))
        batch = spinor_forms(basis, C)
        for component, form in enumerate(batch):
            values = form.eval(x)
            assert values.shape == (len(C), len(x))
            for i, c in enumerate(C):
                single = spinor_forms(basis, c)[component].eval(x)
                assert np.max(np.abs(values[i] - single)) <= 1e-14 * np.max(np.abs(single))

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_index_array_is_a_batch_of_elements(self, label):
        phys, basis = build_case(label)
        n = np.array([0, 3, 10])
        r = r_window(basis, num=20)
        for batched, single in ((phi_plus, phi_plus), (phi_minus, phi_minus),
                                (kinetic_balance_apply, kinetic_balance_apply)):
            values = batched(basis, n, r)
            for row, k in zip(values, n):
                ref = single(basis, int(k), r)
                assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_operator_route_never_calls_the_stencil(self, label, monkeypatch):
        # kinetic_balance_form is built from the upper form and its dx alone
        import diracpl.basis as basis_module
        phys, basis = build_case(label)

        def refuse(*args, **kwargs):
            raise AssertionError("the operator route called spinor_forms")

        monkeypatch.setattr(basis_module, "spinor_forms", refuse)
        form = kinetic_balance_form(basis, np.arange(11))
        assert form.coef.shape[0] == 11
        with pytest.raises(AssertionError):
            phi_minus_form(basis, 0)


class TestFamilyRecord:
    """Each representation's rules live in one `Family` record in basis.py."""

    @pytest.mark.parametrize("module", ["wave_operator", "recursion", "solution", "cli"])
    def test_downstream_modules_name_no_representation(self, module):
        text = (SRC / f"{module}.py").read_text()
        assert re.findall(r"\bRep\.[ABC]\b", text) == []

    def test_reps_a_and_b_share_the_meixner_pollaczek_rules(self):
        a, b, c = Rep.A.family, Rep.B.family, Rep.C.family
        for rule in ("band", "relation", "closed_form", "r_step"):
            assert getattr(a, rule) is getattr(b, rule)
            assert getattr(c, rule) is not getattr(a, rule)
        assert a.stencil is c.stencil is not b.stencil
        assert c.exponents is None and a.product is None and b.product is not None


# The package's modules in import order: each imports only from those before it.
LAYERS = ["orthopoly", "quadrature", "forms", "basis", "wave_operator", "recursion",
          "solution", "cli"]


def _relative_imports(module):
    """The modules named by module's relative imports, those under `if
    TYPE_CHECKING:` included.  `from . import __version__` names the package,
    whose `__init__` sets it before importing any module, and is left out."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return [node.module or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names if node.module or alias.name != "__version__"]


class TestLayering:
    @pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")
                                              if path.stem != "__init__"))
    def test_relative_imports_name_earlier_modules(self, module):
        assert module in LAYERS
        earlier = LAYERS[:LAYERS.index(module)]
        assert [name for name in _relative_imports(module) if name not in earlier] == []

    def test_recursion_does_not_import_the_operator_module(self):
        assert "wave_operator" not in _relative_imports("recursion")
