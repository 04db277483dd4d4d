"""Assembled series solutions, residuals, special cases, energy reflection."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import CASE_IDS, add_forms, build_case
import diracpl.forms as forms
import diracpl.wave_operator as wave_operator
from diracpl.basis import PhysicalParams, derived_params, select_representation, spinor_forms
from diracpl.forms import integrate_product
from diracpl.orthopoly import laguerre_functions
from diracpl.quadrature import gauss_laguerre
from diracpl.solution import (SpinorSample, assemble, default_r_grid,
                              diagonal_conditions_scan, diagonal_correspondence,
                              diagonal_special_case, dirac_grid, dirac_residual, evaluate,
                              evaluate_grid, map_params, negative_energy_solution,
                              residual_scale, second_order_grid, second_order_residual,
                              solve, swap_energy,
                              weak_form_boundary_check, weak_form_residual)
from diracpl.wave_operator import (basis_spinor, bilinear_form, matrix_element_analytic,
                                   matrix_element_numeric)

DIAG_PHYS = dict(A=2.0, mu=0.5, kappa=-1)  # beta = 0.5: beta*kappa < 0, beta*A > 0


def _solve_case(label, N=10):
    phys, basis = build_case(label)
    return phys, assemble(phys, basis, N)


def _richer_rules(monkeypatch, margin=40):
    """Make every later integral take `margin` orders above its exact one."""
    exact = forms.quadrature_order
    monkeypatch.setattr(forms, "quadrature_order", lambda degree: exact(degree) + margin)


class TestAssembly:
    @pytest.mark.parametrize("label", CASE_IDS)
    def test_unit_norm(self, label, monkeypatch):
        # re-integrate the normalized solution with a richer rule
        phys, sol = _solve_case(label)
        m = sol.basis.measure
        _richer_rules(monkeypatch)
        norm = sol.series_scale ** 2 * (integrate_product(sol.form_plus, sol.form_plus, m)
                                        + integrate_product(sol.form_minus, sol.form_minus, m))
        assert norm == pytest.approx(1.0, rel=1e-10)

    def test_stored_forms_are_the_normalized_series(self):
        # rep a at N = 400: max |f_n| ~ 4e189, so the unscaled forms' integrals
        # would overflow; the stored forms are in exact scale
        sol = solve(PhysicalParams(A=3.0, mu=-2.0, kappa=1), 400, omega=1.0)
        m = sol.basis.measure
        r = default_r_grid(sol.basis)
        x = m.x_of_r(r)
        series = (sol.form_plus, sol.form_minus)
        values = [form.eval(x) for form in series]
        norms = [integrate_product(form, form, m) for form in series]
        assert all(np.all(np.isfinite(v)) for v in values)
        assert all(math.isfinite(norm) for norm in norms)
        assert abs(sol.series_scale ** 2 * sum(norms) - 1.0) <= 1e-12
        grid = dirac_grid(sol, r)
        assert np.array_equal(sol.series_scale * values[0], grid.phi_plus)
        assert np.array_equal(sol.series_scale * values[1], grid.phi_minus)

    def test_forms_built_once(self, monkeypatch):
        # one spinor_forms call on the pre-scaled coefficients; no form is
        # rescaled afterwards, for the norm or for a later read
        import diracpl.solution as solution
        built, scaled, calls = solution.spinor_forms, forms.LaguerreForm.scaled, []
        monkeypatch.setattr(solution, "spinor_forms",
                            lambda *a: calls.append("spinor_forms") or built(*a))
        monkeypatch.setattr(forms.LaguerreForm, "scaled",
                            lambda form, c: calls.append("scaled") or scaled(form, c))
        phys, sol = _solve_case("a_rho2")
        evaluate_grid(sol, default_r_grid(sol.basis))
        assert calls == ["spinor_forms"]

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_cold_solve_builds_one_rule(self, label, monkeypatch):
        # the norm integrates only the upper form; the lower norm is the
        # boundary term, so no second rule is built for it
        built, orders = forms.gauss_laguerre, []
        monkeypatch.setattr(forms, "gauss_laguerre",
                            lambda order, nu: orders.append(order) or built(order, nu))
        forms._cached_rule.cache_clear()
        _solve_case(label)
        assert orders == [forms.quadrature_order(2 * 10)]

    def test_solution_stores_one_record(self):
        phys, sol = _solve_case("b_pos_beta")
        minus = negative_energy_solution(replace(phys, eps=-1), 5)
        for s in (sol, minus, diagonal_special_case(PhysicalParams(**DIAG_PHYS))):
            plus = s.phys if s.eps == 1 else map_params(s.phys)  # the basis' problem
            assert derived_params(s.basis, plus) is s.basis

    def test_underflowing_normalization_is_refused(self):
        # representation c nearer mu = 1 (beta = -0.006, nu = 333): the upper
        # norm's weight x^rest, rest = 2/beta, leaves double range at the nodes
        # and the boundary term underflows too, so the norm comes out 0.0 and
        # the series would be garbage
        phys = PhysicalParams(A=0.05903017090438638, mu=1.006, kappa=-1)
        with pytest.raises(ValueError, match="series norm\\^2 = 0.0"):
            solve(phys, 20)

    @pytest.mark.parametrize("phys,N,omega,bound", [
        (PhysicalParams(A=0.05903017090438638, mu=1.0080326275811557, kappa=-1), 20, None,
         1e-160),
        (PhysicalParams(A=-0.02824516806695166, mu=1.012511070587796, kappa=-3), 5, None,
         1e-300),
        (PhysicalParams(A=-2.699971794706568, mu=1.0156696416427031, kappa=7), 5,
         16.443493406253143, 1e-300),
    ], ids=["nu-250", "nu-400", "nu-957"])
    def test_dropped_upper_norm_is_negligible(self, phys, N, omega, bound):
        # where the upper norm's quadrature underflows to 0.0, the same sum
        # taken in log space, log w + rest log x + 2 log|F| (F the upper form
        # without its power), is a vanishing share of the norm the series is
        # normalized by (measured: e^-394 = 1e-171, e^-776 = 1e-337 and
        # e^-876 = 1e-381 of it), far below half an ulp, so dropping it
        # changes no bit of the normalization
        sol = solve(phys, N, omega=omega)
        plus = sol if sol.eps == 1 else swap_energy(sol)
        upper, m = plus.form_plus, sol.basis.measure
        assert integrate_product(upper, upper, m) == 0.0
        rest = 2.0 * upper.power - 1.0 + 1.0 / m.beta
        rule = gauss_laguerre(forms.quadrature_order(2 * upper.poly_degree), rest + upper.nu)
        table = laguerre_functions(upper.coef.shape[-1] - 1, upper.nu, rule.nodes)
        values = upper._stripped_on(table, rule.nodes)
        with np.errstate(divide="ignore"):
            terms = np.log(rule.weights) + rest * np.log(rule.nodes) + 2.0 * np.log(np.abs(values))
        top = np.max(terms)
        log_upper = math.log(m.jacobian_prefactor) + top + math.log(np.sum(np.exp(terms - top)))
        log_total = -2.0 * math.log(sol.series_scale)  # series_scale^2 norm^2 = 1
        assert log_upper - log_total < math.log(bound)

    def test_normalization_invariance(self):
        # scaling the raw coefficient sequence by any positive constant leaves
        # the normalized solution unchanged pointwise
        phys, sol = _solve_case("a_rho2")
        scaled_plus, scaled_minus = spinor_forms(sol.basis, 137.5 * sol.coeffs)
        m = sol.basis.measure
        norm = math.sqrt(integrate_product(scaled_plus, scaled_plus, m)
                         + integrate_product(scaled_minus, scaled_minus, m))
        r = default_r_grid(sol.basis)
        ref_p, ref_m = evaluate_grid(sol, r)
        x = sol.basis.measure.x_of_r(r)
        got_p = scaled_plus.eval(x) / norm
        got_m = scaled_minus.eval(x) / norm
        scale = np.max(np.abs(ref_p)) + np.max(np.abs(ref_m))
        assert np.max(np.abs(got_p - ref_p)) < 1e-12 * scale
        assert np.max(np.abs(got_m - ref_m)) < 1e-12 * scale

    @pytest.mark.parametrize("phys,omega", [
        (PhysicalParams(A=3.0, mu=-2.0, kappa=1), 1.0),
        (PhysicalParams(A=1.0, mu=-1.5, kappa=-3), None),
        (PhysicalParams(A=1.0, mu=2.0, kappa=-1), None),
    ], ids=["a", "b", "c"])
    def test_over_integration_matches_default_order(self, phys, omega, monkeypatch):
        # the default orders are exact: rules 40 orders richer change neither
        # the norm nor the boundary projection beyond roundoff
        sol = solve(phys, 40, omega=omega)
        value, scale = weak_form_residual(sol, sol.N)
        _richer_rules(monkeypatch)
        series = (sol.form_plus, sol.form_minus)
        norm = sol.series_scale ** 2 * sum(integrate_product(f, f, sol.basis.measure)
                                           for f in series)
        assert abs(norm - 1.0) <= 1e-12
        rich = sol.series_scale * bilinear_form(sol.basis, basis_spinor(sol.basis, sol.N),
                                                series)
        assert abs(rich - value) <= 1e-12 * scale

    def test_single_term_linearity(self):
        phys, basis = build_case("a_rho2")
        sol = assemble(phys, basis, 0)
        from diracpl.basis import phi_minus, phi_plus
        r = 1.3
        s = evaluate(sol, r)
        coef = sol.coefficient(0)
        assert s.phi_plus == pytest.approx(coef * phi_plus(basis, 0, r), rel=1e-13)
        assert s.phi_minus == pytest.approx(coef * phi_minus(basis, 0, r), rel=1e-13)

    def test_evaluate_returns_sample(self):
        phys, sol = _solve_case("c_rho_plus")
        s = evaluate(sol, 2.0)
        assert isinstance(s, SpinorSample)
        assert s.r == 2.0
        assert math.isfinite(s.phi_plus) and math.isfinite(s.phi_minus)
        with pytest.raises(ValueError):
            evaluate(sol, 0.0)

    def test_truncation_difference_bounded_by_tail(self):
        # |chi_{N+5} - chi_N| <= sum_{N+1}^{N+5} |f_n| max|psi_n| on the grid
        phys, basis = build_case("b_pos_beta")
        small = assemble(phys, basis, 8)
        large = assemble(phys, basis, 13)
        r = default_r_grid(basis)
        x = basis.measure.x_of_r(r)
        (large_p, large_m), (small_p, small_m) = (spinor_forms(basis, s.coeffs)
                                                  for s in (large, small))
        diff_p = np.abs(large_p.eval(x) - small_p.eval(x))
        diff_m = np.abs(large_m.eval(x) - small_m.eval(x))
        from diracpl.basis import phi_minus_form, phi_plus_form
        bound = 0.0
        for n in range(9, 14):
            fn = abs(large.coeffs[n])
            bound += fn * max(np.max(np.abs(phi_plus_form(basis, n).eval(x))),
                              np.max(np.abs(phi_minus_form(basis, n).eval(x))))
        assert np.max(diff_p) <= bound * (1.0 + 1e-12)
        assert np.max(diff_m) <= bound * (1.0 + 1e-12)


class TestDiracResidual:
    @pytest.mark.parametrize("label", CASE_IDS)
    def test_identity_row_vanishes(self, label):
        # the basis-led row is satisfied identically by kinetic balance
        phys, sol = _solve_case(label)
        r = default_r_grid(sol.basis)
        _, row2 = dirac_residual(sol, r)
        scale = np.max(residual_scale(sol, r))
        assert np.max(np.abs(row2)) < 1e-12 * scale

    def test_readme_library_example_as_written(self, capsys):
        # the README's Python block, run verbatim: dirac_residual at a scalar
        # radius returns floats, and row2 vanishes up to roundoff
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
        names = {}
        exec(block, names)
        row1, row2, sol = names["row1"], names["row2"], names["sol"]
        assert type(row1) is float and type(row2) is float
        grid = dirac_grid(sol, np.array([2.0]))
        assert (row1, row2) == (grid.row1[0], grid.row2[0])
        assert abs(row2) < 1e-12 * grid.scale[0]
        assert float(capsys.readouterr().out) < 1e-6

    def test_convergent_case_residual_falls(self):
        # decaying-coefficient sector: truncation error shrinks with N
        phys = PhysicalParams(A=1.0, mu=-1.5, kappa=-3)
        rels = []
        for N in (5, 15):
            sol = solve(phys, N=N)
            r = default_r_grid(sol.basis)
            row1, _ = dirac_residual(sol, r)
            rels.append(np.max(np.abs(row1[5:-5])) / np.max(residual_scale(sol, r)))
        assert rels[1] < 1e-4 * rels[0]

    def test_second_order_consistency(self):
        # lam^2 * (second-order residual of chi+) equals
        # (1+eps) row1 + lam (kappa/r + A/r^mu - d/dr) row2
        phys, sol = _solve_case("a_rho2")
        lam, eps = phys.lam, float(sol.eps)
        m = sol.basis.measure
        kap_w = phys.kappa * m.omega
        pot_w = phys.A * m.omega ** (1.0 - m.beta)
        chi_p = sol.form_plus.scaled(sol.series_scale)
        chi_m = sol.form_minus.scaled(sol.series_scale)
        row2_form = add_forms(chi_p.shifted(-1.0 / m.beta).scaled(lam * kap_w),
                              chi_p.shifted(1.0 - 1.0 / m.beta).scaled(lam * pot_w),
                              chi_p.d_dr(m).scaled(lam),
                              chi_m.scaled(-(1.0 + eps)))
        dminus_row2 = add_forms(row2_form.shifted(-1.0 / m.beta).scaled(kap_w),
                                row2_form.shifted(1.0 - 1.0 / m.beta).scaled(pot_w),
                                row2_form.d_dr(m).scaled(-1.0))
        r = default_r_grid(sol.basis)
        x = m.x_of_r(r)
        row1, _ = dirac_residual(sol, r)
        lhs = lam ** 2 * second_order_residual(sol, r, "+")
        rhs = (1.0 + eps) * row1 + lam * dminus_row2.eval(x)
        scale = np.max(second_order_grid(sol, r, "+").scale) * lam ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-7 * scale

    def test_energy_term_dropped_at_rest_mass(self):
        phys, sol = _solve_case("b_rho2")
        assert float(sol.eps) ** 2 - 1.0 == 0.0


class TestWeakForm:
    @pytest.mark.parametrize("label", ["a_rho2", "b_rho2", "c_rho_minus"])
    def test_interior_projections_vanish(self, label):
        phys, sol = _solve_case(label, N=12)
        for n in (0, 4, 9, 11):
            value, scale = weak_form_residual(sol, n)
            assert abs(value) < 1e-8 * scale

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_boundary_check_reads_every_interior_row(self, label):
        phys, sol = _solve_case(label, N=12)
        rows = [weak_form_residual(sol, n)[0] for n in range(sol.N)]
        check = weak_form_boundary_check(sol)
        assert abs(check["interior"] - max(map(abs, rows)) / check["scale"]) <= 1e-14
        assert check["interior"] < 1e-8
        assert weak_form_boundary_check(_solve_case(label, N=0)[1])["interior"] == 0.0

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_boundary_projection(self, label):
        phys, sol = _solve_case(label, N=12)
        check = weak_form_boundary_check(sol)
        assert check["resolvable"]
        assert check["relative_error"] < 1e-6

    def test_boundary_below_noise_reported_unresolvable(self):
        # strongly decaying sector at large N: the boundary term sinks under
        # the double-precision quadrature noise of the full coefficient mass
        phys = PhysicalParams(A=1.0, mu=-1.5, kappa=-3)
        sol = solve(phys, N=40)
        check = weak_form_boundary_check(sol)
        assert not check["resolvable"]
        assert abs(check["projection"]) < 1e-9 * check["scale"]

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_projection_matches_sum_of_matrix_elements(self, label):
        # oracle: the projection on the series, taken term by term
        phys, sol = _solve_case(label, N=12)
        basis, c = sol.basis, sol.norm_const
        for n in (0, 5, sol.N):
            value, scale = weak_form_residual(sol, n)
            termwise = sum(c * sol.coeffs[m]
                           * matrix_element_numeric(sol.basis, phys, n, m)
                           for m in range(sol.N + 1))
            assert abs(value - termwise) <= 1e-12 * scale
            mass = sum(abs(c * sol.coeffs[m])
                       * (abs(matrix_element_analytic(basis, m, m))
                          + abs(matrix_element_analytic(basis, m + 1, m))
                          + (abs(matrix_element_analytic(basis, m, m - 1)) if m else 0.0))
                       for m in range(sol.N + 1))
            assert scale == pytest.approx(mass, rel=1e-13)

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_index_array_matches_scalar_projections(self, label):
        phys, sol = _solve_case(label, N=20)
        n = np.array([0, 3, 8, 13, 19, 20])
        values, scale = weak_form_residual(sol, n)
        assert values.shape == n.shape
        for value, k in zip(values, n):
            ref, ref_scale = weak_form_residual(sol, int(k))
            assert ref_scale == scale
            assert abs(value - ref) <= 1e-14 * scale

    @pytest.mark.parametrize("label", ["a_neg_beta", "b_rho2", "c_rho_minus"])
    def test_projection_cost_independent_of_truncation(self, label, monkeypatch):
        original = wave_operator.integrate_product
        calls = []
        monkeypatch.setattr(wave_operator, "integrate_product",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        counts = []
        for N in (4, 30):
            phys, sol = _solve_case(label, N=N)
            calls.clear()
            weak_form_residual(sol, N // 2)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 6

    @pytest.mark.parametrize("label", ["a_rho2", "b_rho2"])
    def test_boundary_check_returns_plain_python_types(self, label):
        # the check feeds JSON reports directly; numpy scalars are rejected
        # (numpy.bool_) or leak through as numpy.float64
        phys, sol = _solve_case(label, N=12)
        check = weak_form_boundary_check(sol)
        assert type(check["resolvable"]) is bool
        for key in ("projection", "expected", "relative_error", "scale"):
            assert type(check[key]) is float, key


def _reference_residual_scale(sol, r):
    # the hand-written magnitude formula of the first-order rows
    x = sol.basis.measure.x_of_r(r)
    c, lam, eps = sol.series_scale, sol.phys.lam, float(sol.eps)
    plus, minus = c * sol.form_plus.eval(x), c * sol.form_minus.eval(x)
    dplus = c * sol.form_plus.d_dr(sol.basis.measure).eval(x)
    dminus = c * sol.form_minus.d_dr(sol.basis.measure).eval(x)
    pot_mag = abs(sol.phys.kappa) / r + abs(sol.phys.A) * np.power(r, -sol.phys.mu)
    return (lam * pot_mag * (np.abs(plus) + np.abs(minus))
            + lam * (np.abs(dplus) + np.abs(dminus))
            + abs(1.0 - eps) * np.abs(plus) + abs(1.0 + eps) * np.abs(minus))


def _reference_second_order_scale(sol, r, component):
    # the hand-written magnitude formula of the second-order equation
    kappa, A, mu, lam, eps = (sol.phys.kappa, sol.phys.A, sol.phys.mu, sol.phys.lam,
                              float(sol.eps))
    sgn = 1.0 if component == "+" else -1.0
    form = sol.form_plus if component == "+" else sol.form_minus
    m = sol.basis.measure
    x = m.x_of_r(r)
    val = np.abs(sol.series_scale * form.eval(x))
    d2 = np.abs(sol.series_scale * form.d_dr(m).d_dr(m).eval(x))
    pot_mag = (abs(kappa * (kappa + sgn)) / r ** 2
               + A * A * np.power(r, -2.0 * mu)
               + abs(A * (2.0 * kappa + sgn * mu)) * np.power(r, -(mu + 1.0))
               + abs(eps * eps - 1.0) / lam ** 2)
    return d2 + pot_mag * val


def _scale_case(label):
    if label == "eps_minus":
        return solve(PhysicalParams(A=2.0, mu=0.5, kappa=-1, eps=-1), N=40)
    if label == "diagonal":
        return diagonal_special_case(PhysicalParams(**DIAG_PHYS))
    return _solve_case(label, N=20)[1]


class TestResidualScales:
    """The scales are the magnitude sums of the term lists the residuals sum;
    they must equal the hand-written magnitude formulas."""

    @pytest.mark.parametrize("label", CASE_IDS + ["eps_minus", "diagonal"])
    def test_term_sums_match_formulas(self, label):
        sol = _scale_case(label)
        r = default_r_grid(sol.basis)
        np.testing.assert_allclose(residual_scale(sol, r), _reference_residual_scale(sol, r),
                                   rtol=1e-14, atol=0.0)
        for comp in ("+", "-"):
            np.testing.assert_allclose(second_order_grid(sol, r, comp).scale,
                                       _reference_second_order_scale(sol, r, comp),
                                       rtol=1e-14, atol=0.0)

    def test_rejects_unknown_component(self):
        sol = _solve_case("a_rho2")[1]
        for func in (second_order_residual, second_order_grid):
            with pytest.raises(ValueError, match="component"):
                func(sol, 1.0, "x")


class TestDiagonalSpecialCase:
    def test_construction_and_conditions(self):
        sol = diagonal_special_case(PhysicalParams(**DIAG_PHYS))
        assert sol.N == 0
        assert sol.basis.rho == 1.0
        assert sol.basis.sigma_minus == 0.0
        assert sol.form_minus.is_zero

    def test_dirac_residual_exact(self):
        sol = diagonal_special_case(PhysicalParams(**DIAG_PHYS))
        r = default_r_grid(sol.basis)
        row1, row2 = dirac_residual(sol, r)
        scale = np.max(residual_scale(sol, r))
        assert np.max(np.abs(row1)) < 1e-10 * scale
        assert np.max(np.abs(row2)) < 1e-10 * scale

    def test_second_order_residual_exact(self):
        sol = diagonal_special_case(PhysicalParams(**DIAG_PHYS))
        r = default_r_grid(sol.basis)
        res = second_order_residual(sol, r, "+")
        assert np.max(np.abs(res)) < 1e-8 * np.max(second_order_grid(sol, r, "+").scale)

    def test_rejects_wrong_sector(self):
        with pytest.raises(ValueError, match="beta\\*kappa"):
            diagonal_special_case(PhysicalParams(A=3.0, mu=-2.0, kappa=1))
        with pytest.raises(ValueError, match="beta\\*A"):
            diagonal_special_case(PhysicalParams(A=-2.0, mu=0.5, kappa=-1))
        with pytest.raises(ValueError, match="constructed at eps = \\+1"):
            diagonal_special_case(PhysicalParams(A=2.0, mu=0.5, kappa=-1, eps=-1))

    def test_conditions_scan_unique(self):
        kappas = [k for k in range(-4, 5) if k != 0]
        mus = [-2.5, -2.0, -0.5, 0.5, 1.5, 2.0, 3.0]
        hits = diagonal_conditions_scan(kappas, mus)
        assert hits, "scan found no diagonalizable point"
        for h in hits:
            assert h["n"] == 0
            assert h["rho"] == 1.0
            assert not h["beta_kappa_positive"]

    def test_correspondence_metadata(self):
        sol = diagonal_special_case(PhysicalParams(**DIAG_PHYS))
        corr = diagonal_correspondence(sol.basis)
        beta = sol.basis.beta
        assert corr["nu_eff"] == pytest.approx(1.0 / beta - 0.5)
        assert corr["lambda_sq_eff"] == pytest.approx(sol.basis.omega ** beta)


class TestEnergyReflection:
    def test_map_params_involution(self):
        phys = PhysicalParams(A=3.0, mu=-2.0, kappa=1, eps=-1)
        assert map_params(map_params(phys)) == phys

    def test_swap_energy_involution_pointwise(self):
        phys = PhysicalParams(A=3.0, mu=-2.0, kappa=1)
        sol = solve(phys, N=8, omega=1.0)
        back = swap_energy(swap_energy(sol))
        rng = np.random.default_rng(11)
        r = np.sort(rng.uniform(0.3, 4.0, size=10))
        a1, a2 = evaluate_grid(back, r)
        b1, b2 = evaluate_grid(sol, r)
        ref = max(np.max(np.abs(b1)), np.max(np.abs(b2)))
        assert np.max(np.abs(a1 - b1)) < 1e-8 * ref
        assert np.max(np.abs(a2 - b2)) < 1e-8 * ref

    @pytest.mark.parametrize("eps", [1, -1])
    def test_swap_energy_involution_parameters(self, eps):
        sol = solve(PhysicalParams(A=3.0, mu=-2.0, kappa=1, eps=eps), N=4, omega=1.0)
        back = swap_energy(swap_energy(sol))
        assert (back.eps, back.phys) == (sol.eps, sol.phys)
        assert swap_energy(back).phys == swap_energy(sol).phys == map_params(sol.phys)
        assert back.N == sol.N == 4

    def test_negative_energy_solves_original_equations(self):
        # reflected problem (-A, -kappa) sits in the decaying rep-b sector
        phys = PhysicalParams(A=-1.0, mu=-1.5, kappa=3, eps=-1)
        sol = negative_energy_solution(phys, N=14)
        assert sol.eps == -1
        assert sol.phys == phys
        r = default_r_grid(sol.basis)
        row1, row2 = dirac_residual(sol, r)
        scale = np.max(residual_scale(sol, r))
        # at eps = -1 the upper-led row is the identity row
        assert np.max(np.abs(row1)) < 1e-12 * scale
        # reflected problem is in the decaying sector: truncation row is small
        assert np.max(np.abs(row2[5:-5])) < 1e-3 * scale

    def test_negative_energy_kinetic_balance(self):
        # phi+ = -(lam/2)(kappa/r + A/r^mu - d/dr) phi- for the reflected basis
        phys = PhysicalParams(A=3.0, mu=-2.0, kappa=1, eps=-1)
        sol = negative_energy_solution(phys, N=6, omega=1.0)
        from diracpl.basis import phi_minus_form, phi_plus_form
        basis = sol.basis
        m = basis.measure
        r = default_r_grid(basis)
        x = m.x_of_r(r)
        for n in range(11):
            upper = phi_minus_form(basis, n)   # swapped roles at eps = -1
            lower = phi_plus_form(basis, n)
            pot = phys.kappa / r + phys.A * np.power(r, -phys.mu)
            rhs = -(phys.lam / 2.0) * (pot * lower.eval(x) - lower.d_dr(m).eval(x))
            lhs = upper.eval(x)
            scale = np.max(np.abs(lhs)) + 1e-300
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale

    def test_requires_negative_eps(self):
        # and assemble, its eps = +1 counterpart, refuses eps = -1
        phys = PhysicalParams(A=3.0, mu=-2.0, kappa=1)
        with pytest.raises(ValueError):
            negative_energy_solution(phys, N=4)
        with pytest.raises(ValueError, match="assemble works at eps = \\+1"):
            assemble(replace(phys, eps=-1), select_representation(phys, omega=1.0), 4)

    def test_solve_dispatches_on_eps(self):
        phys = PhysicalParams(A=3.0, mu=-2.0, kappa=1, eps=-1)
        sol = solve(phys, N=5, omega=1.0)
        assert sol.eps == -1
        assert swap_energy(sol).phys == map_params(phys)

    @pytest.mark.parametrize("N", [0, 6, 20])
    def test_weak_form_takes_either_energy_sign(self, N):
        # an eps = -1 solution is projected as its eps = +1 partner
        sol = solve(PhysicalParams(A=2.0, mu=0.5, kappa=-1, eps=-1), N=N)
        partner = swap_energy(sol)
        assert weak_form_boundary_check(sol) == weak_form_boundary_check(partner)
        n = np.arange(N + 1)
        for got, want in zip(weak_form_residual(sol, n), weak_form_residual(partner, n)):
            np.testing.assert_array_equal(got, want)
