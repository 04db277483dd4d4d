"""Matrix elements of the wave operator: closed forms vs quadrature."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import CASE_IDS, PARAM_SETS, build_case
import diracpl.wave_operator as wave_operator
from diracpl.basis import (PhysicalParams, Rep, derived_params, phi_minus_form, phi_plus_form,
                          select_representation, spinor_forms)
from diracpl.forms import integrate_product
from diracpl.solution import assemble
from diracpl.wave_operator import (band_elements, basis_spinor, bilinear_form, build_operator,
                                   matrix_element_analytic, matrix_element_numeric)


# A contract-sweep draw where kappa - beta (kappa/beta) is not 0 in doubles.
C0_ROUNDOFF = (dict(A=-0.07871724553852956, mu=1.4334522641709198, kappa=-7),
               dict(omega=15.358355579731617))


class TestDerivedParams:
    def test_rep_a_frozen_example(self):
        phys = PhysicalParams(A=3.0, mu=-2.0, kappa=1)
        basis = select_representation(phys, omega=1.0)
        assert basis.rho == pytest.approx(2.0)
        assert basis.sigma_minus == pytest.approx(3.0)
        assert basis.theta == pytest.approx(math.asinh(4.0 / 3.0))
        assert basis.y == pytest.approx(0.0)

    @pytest.mark.parametrize("phys_kw,sel_kw", [
        *[(p, s) for _, p, s in PARAM_SETS], C0_ROUNDOFF], ids=[*CASE_IDS, "c0_roundoff"])
    def test_constants_are_the_written_expressions(self, phys_kw, sel_kw):
        # each recursion constant is the same double as its written expression
        # in the basis fields and the physics' kappa
        phys = PhysicalParams(**phys_kw)
        basis = select_representation(phys, **sel_kw)
        beta, tau, rho, gamma = basis.beta, basis.tau, basis.rho, basis.gamma
        sigma_minus = (rho - 1.0) * (rho + 1.0)
        assert basis.kappa == phys.kappa
        assert basis.p == beta * (1.0 - 2.0 * tau)
        assert basis.sigma_minus == sigma_minus
        if sigma_minus == 0.0:
            assert basis.theta is None and basis.y is None
        else:
            assert basis.theta == math.asinh(2.0 * rho / sigma_minus)
            assert basis.y == (phys.kappa + 0.5) / beta - 0.5
        assert basis.z == gamma + 1.0 / (2.0 * beta)
        assert basis.d == (basis.alpha + rho * gamma - (rho + 1.0) / 2.0
                           + (rho - 1.0) / (2.0 * beta))

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_kappa_mismatch_rejected(self, label):
        # a physics of another kappa would mix two problems' constants
        phys, basis = build_case(label)
        other = replace(phys, kappa=-phys.kappa)  # the reflected problem's kappa
        assert derived_params(basis, phys) is basis
        with pytest.raises(ValueError, match="kappa"):
            derived_params(basis, other)
        with pytest.raises(ValueError, match="kappa"):
            matrix_element_numeric(basis, other, 0, 0)
        with pytest.raises(ValueError, match="kappa"):
            assemble(other, basis, 5)

    def test_kinetic_balance_forces_q_and_u_zero(self):
        # select_representation ties rho to the inputs' A, so the cross weight
        # q = A/omega^beta - beta rho/2 the operator route leaves out is 0 up
        # to roundoff in omega^beta
        for label in CASE_IDS:
            phys, basis = build_case(label)
            beta, rho = basis.beta, basis.rho
            q = phys.A / basis.omega ** beta - beta * rho / 2.0
            assert abs(q) < 1e-12 * (abs(rho * beta) / 2.0 + 1.0)
            assert rho * beta * (phys.kappa / beta - basis.gamma) == 0.0
            assert basis.p == pytest.approx(beta / 2.0, rel=1e-14)

    def test_u_is_exactly_zero_at_gamma_kappa_over_beta(self):
        # the cross weight u = rho beta (kappa/beta - gamma) the operator route
        # leaves out is 0 in doubles for every basis select_representation
        # builds; on the C0_ROUNDOFF input kappa - beta (kappa/beta) is not
        cases = [build_case(label) for label in CASE_IDS]
        phys = PhysicalParams(**C0_ROUNDOFF[0])
        cases.append((phys, select_representation(phys, **C0_ROUNDOFF[1])))
        for phys, basis in cases:
            assert basis.gamma == phys.kappa / basis.beta
            assert basis.rho * basis.beta * (phys.kappa / basis.beta - basis.gamma) == 0.0

    def test_rep_c_frozen_example(self):
        phys = PhysicalParams(A=1.0, mu=2.0, kappa=-1)
        basis = select_representation(phys, alpha=1.0)
        assert basis.z == pytest.approx(0.5)
        assert basis.z * basis.z == pytest.approx(0.25)
        assert basis.nu == pytest.approx(2.0)

    def test_hyperbolic_identity(self):
        for label in ("a_rho2", "a_rho_small", "b_rho2", "b_rho_small"):
            _, basis = build_case(label)
            assert basis.theta is not None
            assert abs(math.cosh(basis.theta) ** 2 - math.sinh(basis.theta) ** 2 - 1.0) < 1e-14

    def test_tau_half_rejected(self):
        phys, basis = build_case("a_rho2")
        with pytest.raises(ValueError, match="tau"):
            derived_params(replace(basis, tau=0.5), phys)


class TestAnalyticElements:
    def test_rep_a_frozen_values(self):
        phys = PhysicalParams(A=3.0, mu=-2.0, kappa=1)
        basis = select_representation(phys, omega=1.0)
        der = derived_params(basis, phys)
        assert matrix_element_analytic(der, 0, 0) == pytest.approx(11.25, rel=1e-14)
        expected_off = -27.0 * math.sqrt(2.0) / 8.0
        assert matrix_element_analytic(der, 1, 0) == pytest.approx(expected_off, rel=1e-14)
        assert matrix_element_analytic(der, 0, 1) == pytest.approx(expected_off, rel=1e-14)

    def test_rep_b_frozen_values(self):
        # rho = 2, nu = alpha = 1/4, p = 2, common = 1:
        # D_0 = (1 + nu) p (rho^2 + 1) + 2 (-nu - 1) p rho = 5/2,
        # B_0 = -p (rho^2 - 1) sqrt(1 + nu) = -3 sqrt(5)
        phys = PhysicalParams(A=4.0, mu=-3.0, kappa=-1)
        basis = select_representation(phys, omega=1.0)
        der = derived_params(basis, phys)
        assert basis.rep is Rep.B and der.rho == 2.0 and der.nu == 0.25
        assert matrix_element_analytic(der, 0, 0) == pytest.approx(2.5, rel=1e-14)
        expected_off = -3.0 * math.sqrt(5.0)
        assert matrix_element_analytic(der, 1, 0) == pytest.approx(expected_off, rel=1e-14)
        assert matrix_element_analytic(der, 0, 1) == pytest.approx(expected_off, rel=1e-14)

    def test_far_elements_are_exact_zero(self):
        phys, basis = build_case("b_rho2")
        der = derived_params(basis, phys)
        assert matrix_element_analytic(der, 0, 2) == 0.0
        assert matrix_element_analytic(der, 7, 3) == 0.0

    def test_build_operator_symmetry_and_values(self):
        phys = PhysicalParams(A=3.0, mu=-2.0, kappa=1)
        basis = select_representation(phys, omega=1.0)
        der = derived_params(basis, phys)
        op = build_operator(der, 6)
        assert op[0, 0] == pytest.approx(11.25)
        assert op[1, 0] == pytest.approx(-27.0 * math.sqrt(2.0) / 8.0)
        np.testing.assert_allclose(op, op.T, rtol=0, atol=0)
        assert op[3, 4] == op[4, 3]
        assert op[2, 5] == 0.0

    def test_build_operator_refusals(self):
        phys = PhysicalParams(A=3.0, mu=-2.0, kappa=1)
        der = derived_params(select_representation(phys, omega=1.0), phys)
        with pytest.raises(ValueError, match="N must be >= 1"):
            build_operator(der, 0)
        with pytest.raises(ValueError, match="finite"):
            build_operator(replace(der, omega=1e200), 4)  # omega^2 overflows the bands
        with pytest.raises(ValueError, match="underflows: largest element 0"):
            build_operator(replace(der, omega=1e-200), 4)  # omega^2 underflows the bands
        with pytest.raises(ValueError, match="matrix indices must be non-negative"):
            matrix_element_analytic(der, -1, 0)


class TestNumericAgreement:
    @pytest.mark.parametrize("label", CASE_IDS)
    def test_bands_match_closed_forms(self, label):
        phys, basis = build_case(label)
        der = derived_params(basis, phys)
        for n in range(0, 13, 3):
            for m in (n, n + 1):
                ana = matrix_element_analytic(der, n, m)
                num = matrix_element_numeric(basis, phys, n, m)
                assert num == pytest.approx(ana, rel=1e-8)

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_far_bands_vanish(self, label):
        phys, basis = build_case(label)
        der = derived_params(basis, phys)
        op = build_operator(der, 12)
        scale = max(np.max(np.abs(op)), 1.0)
        for n in range(0, 9, 2):
            for gap in (2, 3, 4):
                num = matrix_element_numeric(basis, phys, n, n + gap)
                assert abs(num) < 1e-8 * scale

    @pytest.mark.parametrize("label", ["a_rho2", "a_neg_beta", "b_rho2", "b_pos_beta"])
    def test_general_parameter_path(self, label):
        # away from the balanced parameters (rho off the inputs' A, p != beta/2)
        # the closed forms still match quadrature, both reading the basis
        # under its own A; gamma stays at kappa/beta
        phys, basis = build_case(label)
        general = replace(basis, rho=0.55 * basis.rho, tau=0.35)
        der = derived_params(general, phys)
        for n in range(0, 8, 2):
            for m in (n, n + 1):
                ana = matrix_element_analytic(der, n, m)
                num = matrix_element_numeric(general, phys, n, m)
                assert num == pytest.approx(ana, rel=1e-8)
            assert abs(matrix_element_numeric(general, phys, n, n + 2)) \
                < 1e-8 * max(abs(matrix_element_analytic(der, n, n)), 1.0)

    @pytest.mark.parametrize("label", ["c_rho_minus", "c_rho_plus"])
    def test_rep_c_detached_gamma_path(self, label):
        # gamma off kappa/beta: both routes read the basis under its own
        # kappa = beta gamma
        phys, basis = build_case(label)
        general = replace(basis, gamma=basis.gamma + 0.3, tau=0.35)
        der = derived_params(general, phys)
        for n in range(0, 8, 2):
            for m in (n, n + 1):
                ana = matrix_element_analytic(der, n, m)
                num = matrix_element_numeric(general, phys, n, m)
                assert num == pytest.approx(ana, rel=1e-8)

    def test_negative_energy_rejected(self):
        phys = PhysicalParams(A=3.0, mu=-2.0, kappa=1, eps=-1)
        basis = select_representation(PhysicalParams(A=3.0, mu=-2.0, kappa=1), omega=1.0)
        with pytest.raises(ValueError, match="reflection"):
            matrix_element_numeric(basis, phys, 0, 0)

    def test_upper_overlap_is_dense(self):
        # the first term of the operator expansion carries coefficient (1-eps),
        # exactly zero at eps = +1; the overlap itself is a dense Gram matrix
        phys, basis = build_case("a_rho2")
        assert (1 - phys.eps) == 0
        off = integrate_product(phi_plus_form(basis, 0), phi_plus_form(basis, 3), basis.measure)
        assert abs(off) > 1e-6


def _literal_element(basis, phys, n, m):
    """<psi_n|H-1|psi_m> written out term by term from the four basis forms.

    The cross terms lam omega <phi^+| x^{-1/beta} [kappa - beta gamma + q x]
    |phi^-> + (n<->m), q = A/omega^beta - beta rho/2, are taken with the
    basis's own A = beta rho omega^beta / 2 and, in rep c, its own kappa =
    beta gamma: both weights are 0."""
    measure, eps = basis.measure, float(phys.eps)
    fp_n, fp_m = phi_plus_form(basis, n), phi_plus_form(basis, m)
    fm_n, fm_m = phi_minus_form(basis, n), phi_minus_form(basis, m)
    total = (1.0 - eps) * integrate_product(fp_n, fp_m, measure)
    total -= (1.0 + eps - 1.0 / basis.tau) * integrate_product(fm_n, fm_m, measure)
    return total


def _general_basis(basis):
    """Parameters off the balanced assignment: rho detuned from the inputs'
    A (reps a, b) or gamma from their kappa (rep c), and tau off 1/4."""
    if basis.rep is Rep.C:
        return replace(basis, gamma=basis.gamma + 0.3, tau=0.35)
    return replace(basis, rho=0.55 * basis.rho, tau=0.35)


class TestBilinearForm:
    @pytest.mark.parametrize("label", CASE_IDS)
    @pytest.mark.parametrize("general", [False, True])
    def test_matrix_elements_bitwise_unchanged_on_band(self, label, general):
        phys, basis = build_case(label)
        if general:
            basis = _general_basis(basis)
        for n in range(9):
            for m in (n, n + 1):
                assert matrix_element_numeric(basis, phys, n, m) == _literal_element(basis, phys, n, m)

    @pytest.mark.parametrize("label", ["a_rho2", "b_pos_beta", "c_rho_plus"])
    @pytest.mark.parametrize("general", [False, True])
    def test_linear_in_right_argument(self, label, general):
        phys, basis = build_case(label)
        if general:
            basis = _general_basis(basis)
        left = basis_spinor(basis, 3)
        u = [basis_spinor(basis, m) for m in range(6)]
        weights = [0.7, -1.3, 2.1, 0.4, -0.9, 1.6]
        mix = spinor_forms(basis, weights)
        der = derived_params(basis, phys)
        parts = [bilinear_form(der, left, s) for s in u]
        expected = sum(w * v for w, v in zip(weights, parts))
        scale = sum(abs(w * v) for w, v in zip(weights, parts))
        assert abs(bilinear_form(der, left, mix) - expected) < 1e-13 * scale


@pytest.mark.parametrize("phys_kw,sel_kw", [
    *[(p, s) for _, p, s in PARAM_SETS], C0_ROUNDOFF], ids=[*CASE_IDS, "c0_roundoff"])
@pytest.mark.parametrize("batched", [False, True])
def test_one_integral_per_bilinear_form_at_the_balanced_parameters(phys_kw, sel_kw, batched,
                                                                  monkeypatch):
    # the cross terms are left out, so only the lower-lower integral is taken
    phys = PhysicalParams(**phys_kw)
    basis = select_representation(phys, **sel_kw)
    calls = []
    original = wave_operator.integrate_product
    monkeypatch.setattr(wave_operator, "integrate_product",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    n = np.arange(6) if batched else 3
    bilinear_form(derived_params(basis, phys), basis_spinor(basis, n), basis_spinor(basis, n))
    assert len(calls) == 1


class TestGram:
    """bilinear_form of two batches against one call per pair."""

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_gram_matches_pairwise_bilinear_form(self, label):
        phys, basis = build_case(label)
        der = derived_params(basis, phys)
        op = build_operator(der, 12)
        scale = max(float(np.max(np.abs(op))), 1.0)
        psi = basis_spinor(basis, np.arange(13))
        gram = bilinear_form(der, psi, psi)
        assert gram.shape == (13, 13)
        pairwise = np.array([[matrix_element_numeric(basis, phys, n, m) for m in range(13)]
                             for n in range(13)])
        assert np.max(np.abs(gram - pairwise)) <= 1e-14 * scale

    @pytest.mark.parametrize("label", ["a_rho2", "b_pos_beta", "c_rho_plus"])
    def test_general_parameters_and_mixed_batches(self, label):
        # off the balanced assignment; a batch against a single spinor gives
        # one row of the Gram
        phys, basis = build_case(label)
        basis = _general_basis(basis)
        der = derived_params(basis, phys)
        left, right = basis_spinor(basis, np.arange(8)), basis_spinor(basis, np.array([2, 5]))
        gram = bilinear_form(der, left, right)
        row = bilinear_form(der, left, basis_spinor(basis, 5))
        scale = np.max(np.abs(gram))
        for n in range(8):
            for j, m in enumerate((2, 5)):
                ref = bilinear_form(der, basis_spinor(basis, n), basis_spinor(basis, m))
                assert abs(gram[n, j] - ref) <= 1e-14 * scale
            assert abs(row[n] - gram[n, 1]) <= 1e-14 * scale

    def test_zero_batch_gives_zero_gram(self):
        phys, basis = build_case("b_rho2")
        zero = spinor_forms(basis, np.zeros((3, 4)))
        assert np.array_equal(
            bilinear_form(derived_params(basis, phys), zero, basis_spinor(basis, np.arange(2))),
            np.zeros((3, 2)))


def _scalar_element(derived, n, m):
    """The per-index closed forms, one scalar index at a time, kept as the
    reference for `band_elements` (reps a/b in the product form of `ab_diagonal`)."""
    if abs(n - m) > 1:
        return 0.0
    lam, omega, beta, tau = derived.lam, derived.omega, derived.beta, derived.tau
    p, rho, nu = derived.p, derived.rho, derived.nu
    common = lam * lam * omega * omega * beta * tau
    k = max(n, m)

    if derived.rep is not Rep.C:
        nut = (2.0 * derived.kappa + 1.0) / beta
        if n == m:
            return common * p * ((2.0 * n + 1.0 + nu) * (rho - 1.0) ** 2
                                 + 2.0 * rho * (2.0 * n + nu + nut))
        return -common * p * derived.sigma_minus * math.sqrt(k * (k + nu))

    alpha, gamma = derived.alpha, derived.gamma
    if n == m:
        s = n + alpha + rho * gamma + (rho - 1.0) / (2.0 * beta)
        t = n + alpha - rho / 2.0 - 1.0 / (2.0 * beta)
        return 4.0 * common * (p * (s * s + t * t - nu * nu / 4.0))
    s = k + alpha + rho * gamma - (rho + 1.0) / 2.0 + (rho - 1.0) / (2.0 * beta)
    return -4.0 * common * (p * s) * math.sqrt(k * (k + nu))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestBandElements:
    N_BAND = 59

    @pytest.mark.parametrize("label", CASE_IDS)
    @pytest.mark.parametrize("general", [False, True])
    def test_bands_equal_scalar_formulas_bit_for_bit(self, label, general):
        phys, basis = build_case(label)
        if general:
            basis = _general_basis(basis)
        der = derived_params(basis, phys)
        n = range(self.N_BAND + 1)
        diag = [_scalar_element(der, k, k) for k in n]
        off = [_scalar_element(der, k + 1, k) for k in n]
        op = build_operator(der, self.N_BAND + 1)
        np.testing.assert_array_equal(_bits(np.diag(op)[:-1]), _bits(diag))
        np.testing.assert_array_equal(_bits(np.diag(op, 1)), _bits(off))
        k = np.arange(self.N_BAND + 1)
        np.testing.assert_array_equal(_bits(band_elements(der, k)), _bits(diag))
        np.testing.assert_array_equal(_bits(band_elements(der, k + 1, offdiag=True)),
                                      _bits(off))
        for k in n:
            for m in (k, k + 1):
                for pair in ((k, m), (m, k)):
                    got = matrix_element_analytic(der, *pair)
                    assert type(got) is float
                    assert _bits(got) == _bits(_scalar_element(der, *pair))

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_subdiagonal_vanishes_at_zero(self, label):
        # <psi_0|H-1|psi_{-1}> = B_{-1} comes out 0 of sqrt(k (k + nu)) at k = 0
        phys, basis = build_case(label)
        assert band_elements(derived_params(basis, phys), 0, offdiag=True) == 0.0
