"""Coefficient recursions: forward solve, closed forms, the running product R_n."""

import math
from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from conftest import CASE_IDS, build_case
from diracpl.basis import (PhysicalParams, Rep, cdh_parameters, derived_params, mp_lambda,
                           select_representation)
from diracpl.orthopoly import hyp_mp_series, mod_cdh_series
from diracpl.recursion import (ThreeTermRecursion, build_recursion, closed_form_sequence,
                               coefficient_sequence, rescale, solve_forward)
from diracpl.solution import assemble, solve
from diracpl.wave_operator import build_operator


def _case_with_derived(label):
    phys, basis = build_case(label)
    return phys, basis, derived_params(basis, phys)


def _raw_relation(der, N):
    """Rows 0..N-1 of the raw relation D_n f_n + B_{n-1} f_{n-1} + B_n f_{n+1} = 0,
    read off the operator matrix build_operator(der, N) (so N >= 1)."""
    op = build_operator(der, N)
    diag, band = np.diag(op), np.r_[0.0, np.diag(op, 1)]  # band[n] = B_{n-1}
    return ThreeTermRecursion(a=lambda n: diag[n], b=lambda n: band[n],
                              c=lambda n: band[n + 1])


def _relative_residual(rec, seq, n):
    """|rec.residual| at index n over the sum of its three terms' magnitudes."""
    prev = np.where(np.asarray(n) >= 1, seq[n - 1], 0.0)
    terms = (rec.a(n) * seq[n], rec.b(n) * prev, rec.c(n) * seq[n + 1])
    return np.abs(sum(terms)) / (sum(np.abs(t) for t in terms) + 1e-300)


# (physics, omega) with |rho| = 1: rep a at rho = +1 (exact), rep b at rho = +-1
UNIT_RHO_CASES = [
    (PhysicalParams(A=1.5, mu=-2.0, kappa=1), 1.0),
    (PhysicalParams(A=2.0, mu=0.5, kappa=-1), 64.0),
    (PhysicalParams(A=-2.0, mu=0.5, kappa=-1), 64.0),
]


def _unit_rho_case(phys, omega):
    basis = select_representation(phys, omega=omega)
    assert basis.rep is not Rep.C and basis.rho ** 2 == 1.0
    return basis, derived_params(basis, phys)


class TestBuildRecursion:
    def test_rep_a_frozen_coefficients(self):
        # rho = 2, kappa = 1, beta = 3: a(n) = 2(n+1)(5/3), b = c = -(n+1)
        _, basis, der = _case_with_derived("a_rho2")
        rec = build_recursion(basis.rep, der, basis.nu)
        for n in range(6):
            assert rec.a(n) == pytest.approx(2.0 * (n + 1.0) * (5.0 / 3.0), rel=1e-14)
            assert rec.b(n) == pytest.approx(-(n + 1.0), rel=1e-14)
            assert rec.c(n) == pytest.approx(-(n + 1.0), rel=1e-14)

    def test_small_rho_branch_sign_pattern(self):
        # for rho^2 < 1 the neighbor terms enter with positive sign
        _, basis, der = _case_with_derived("a_rho_small")
        rec = build_recursion(basis.rep, der, basis.nu)
        for n in range(5):
            assert rec.b(n) == pytest.approx(+(n + basis.nu), rel=1e-14)
            assert rec.c(n) == pytest.approx(+(n + 1.0), rel=1e-14)
            assert rec.a(n) == pytest.approx(
                2.0 * ((n + mp_lambda(der)) * math.cosh(der.theta)
                       - der.y * math.sinh(der.theta)), rel=1e-12)

    def test_rep_c_frozen_bracket(self):
        # kappa = -1, beta = -1, alpha = 1: bracket (n+3)(n+2) + n(n+1) - 2
        phys = PhysicalParams(A=1.0, mu=2.0, kappa=-1)
        basis = select_representation(phys, alpha=1.0)
        der = derived_params(basis, phys)
        rec = build_recursion(basis.rep, der, basis.nu)
        for n in range(6):
            expected = (n + 3.0) * (n + 2.0) + n * (n + 1.0) - 9.0 / 4.0 + 0.25
            assert rec.a(n) == pytest.approx(expected, rel=1e-13)
            assert rec.b(n) == pytest.approx(-n * (n + 1.0), rel=1e-13)
            assert rec.c(n) == pytest.approx(-(n + 3.0) * (n + 2.0), rel=1e-13)

    def test_unit_rho_refused(self):
        # rep a (rho = +1 exactly) and rep b (rho = +-1): the relation degenerates
        for phys, omega in UNIT_RHO_CASES:
            basis, der = _unit_rho_case(phys, omega)
            with pytest.raises(ValueError, match="representation c"):
                build_recursion(basis.rep, der, basis.nu)

    def test_unit_rho_rejected_and_redirected(self):
        # the basis and the derived constants exist at rho = 1; the solve is
        # refused where the recursion is built, and representation c takes it
        phys = PhysicalParams(A=2.0, mu=0.5, kappa=-1)  # beta = 0.5
        omega_unit = (2.0 * phys.A / phys.beta) ** (1.0 / phys.beta)
        assert select_representation(phys, omega=omega_unit).rho == pytest.approx(1.0)
        with pytest.raises(ValueError, match="use representation c"):
            solve(phys, 5, omega=omega_unit)
        assert solve(phys, 5, rep="c").basis.rep is Rep.C

    def test_unit_rho_rejected_for_a_b(self):
        # derived_params accepts sigma_- = 0; build_recursion is the one check
        for phys, omega in UNIT_RHO_CASES:
            basis, der = _unit_rho_case(phys, omega)
            assert der.sigma_minus == 0.0 and der.theta is None
            with pytest.raises(ValueError, match=r"\|rho\| = 1"):
                coefficient_sequence(der, 5)
            with pytest.raises(ValueError, match=r"\|rho\| != 1"):
                closed_form_sequence(der, 5)

    def test_index_arrays_match_single_indices(self):
        # a, b, c and residual take one index (as callers with ints do) or an
        # index array, with the same values
        for label in CASE_IDS:
            _, basis, der = _case_with_derived(label)
            seq, n = closed_form_sequence(der, 12), np.arange(12)
            rec = build_recursion(basis.rep, der, basis.nu)
            for f in (rec.a, rec.b, rec.c):
                np.testing.assert_array_equal(f(n), [f(k) for k in range(12)])
            np.testing.assert_array_equal(rec.residual(seq, n),
                                          [rec.residual(seq, k) for k in range(12)])

    def test_parameters_must_match_derived(self):
        # a rep or nu of another case would silently build the natural
        # relation from mixed constants
        _, basis, der = _case_with_derived("a_rho2")
        with pytest.raises(ValueError, match="does not match"):
            build_recursion(Rep.C, der, basis.nu)
        with pytest.raises(ValueError, match="does not match"):
            build_recursion(basis.rep, der, basis.nu + 1.0)


class TestSolveForward:
    def test_rep_a_first_step(self):
        _, basis, der = _case_with_derived("a_rho2")
        seq = solve_forward(build_recursion(basis.rep, der, basis.nu), 3)
        assert seq[0] == 1.0
        assert seq[1] == pytest.approx(10.0 / 3.0, rel=1e-14)

    def test_rep_c_first_step(self):
        phys = PhysicalParams(A=1.0, mu=2.0, kappa=-1)
        basis = select_representation(phys, alpha=1.0)
        der = derived_params(basis, phys)
        seq = solve_forward(build_recursion(basis.rep, der, basis.nu), 2)
        assert seq[1] == pytest.approx(2.0 / 3.0, rel=1e-13)

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_defining_property(self, label):
        _, basis, der = _case_with_derived(label)
        rec = build_recursion(basis.rep, der, basis.nu)
        seq = solve_forward(rec, 20)
        for n in range(20):
            lead = abs(rec.a(n) * seq[n]) + 1e-300
            assert abs(rec.residual(seq, n)) < 1e-12 * lead

    def test_zero_c_reported_with_index(self):
        der = _case_with_derived("c_rho_plus")[2]
        rec = build_recursion(Rep.C, der, der.nu)
        broken = type(rec)(a=rec.a, b=rec.b, c=lambda n: np.where(n == 2, 0.0, rec.c(n)))
        with pytest.raises(ValueError, match="c\\(2\\)"):
            solve_forward(broken, 5)


def _counting(rec):
    """rec with a, b and c wrapped to count their calls."""
    calls = {"a": 0, "b": 0, "c": 0}

    def wrap(name):
        def f(n):
            calls[name] += 1
            return getattr(rec, name)(n)
        return f

    return replace(rec, a=wrap("a"), b=wrap("b"), c=wrap("c")), calls


class TestCoefficientEvaluationCount:
    @pytest.mark.parametrize("label", CASE_IDS)
    def test_forward_evaluates_each_coefficient_once(self, label):
        _, basis, der = _case_with_derived(label)
        for rec in (build_recursion(basis.rep, der, basis.nu), _raw_relation(der, 40)):
            rec, calls = _counting(rec)
            solve_forward(rec, 40)
            assert calls == {"a": 1, "b": 1, "c": 1}


def _forward_loop(rec, N):
    # the per-n forward loop solve_forward replaced (reference)
    vals = [1.0]
    for n in range(N):
        prev = vals[n - 1] if n >= 1 else 0.0
        vals.append(-(rec.a(n) * vals[n] + rec.b(n) * prev) / rec.c(n))
    return np.array(vals)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


class TestLoopReference:
    @pytest.mark.parametrize("label", CASE_IDS)
    def test_passes_equal_per_index_loops_bit_for_bit(self, label):
        _, basis, der = _case_with_derived(label)
        for rec in (build_recursion(basis.rep, der, basis.nu), _raw_relation(der, 40)):
            np.testing.assert_array_equal(_bits(solve_forward(rec, 40)),
                                          _bits(_forward_loop(rec, 40)))


class TestClosedForm:
    @pytest.mark.parametrize("label", CASE_IDS)
    def test_matches_forward_recurrence(self, label):
        _, basis, der = _case_with_derived(label)
        fwd = solve_forward(build_recursion(basis.rep, der, basis.nu), 20)
        cf = closed_form_sequence(der, 20)
        np.testing.assert_allclose(cf, fwd, rtol=1e-6, atol=1e-6 * np.max(np.abs(fwd)))

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_sequence_equals_per_order_series(self, label):
        # one terminating-series family per sequence gives the values of the
        # per-order oracles: g_n = P_n(y) or (-1)^n P_n(-y) for a/b, h_n the
        # modified continuous dual Hahn value for c
        _, basis, der = _case_with_derived(label)
        N = 24
        if der.rep is Rep.C:
            per_order = [mod_cdh_series(n, *cdh_parameters(der)) for n in range(N + 1)]
        else:
            sign, y = (1.0, der.y) if der.rho ** 2 > 1.0 else (-1.0, -der.y)
            per_order = [sign ** n * hyp_mp_series(n, mp_lambda(der), y, der.theta)
                         for n in range(N + 1)]
        np.testing.assert_allclose(closed_form_sequence(der, N), per_order,
                                   rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_normalized_start(self, label):
        # N = 0 is s_0 = 1 alone; each sequence function refuses N < 0
        _, basis, der = _case_with_derived(label)
        assert closed_form_sequence(der, 0)[0] == pytest.approx(1.0)
        for sequence in (closed_form_sequence, coefficient_sequence,
                         lambda der, N: solve_forward(build_recursion(der.rep, der, der.nu), N)):
            with pytest.raises(ValueError, match="N must be non-negative"):
                sequence(der, -1)

    def test_rep_a_first_value_is_hyperbolic_cosine(self):
        _, basis, der = _case_with_derived("a_rho2")
        cf = closed_form_sequence(der, 1)
        assert cf[1] == pytest.approx(2.0 * math.cosh(der.theta), rel=1e-13)
        assert cf[1] == pytest.approx(10.0 / 3.0, rel=1e-13)

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_satisfies_recursion(self, label):
        _, basis, der = _case_with_derived(label)
        rec = build_recursion(basis.rep, der, basis.nu)
        cf = closed_form_sequence(der, 16)
        for n in range(15):
            lead = abs(rec.a(n) * cf[n]) + 1e-300
            assert abs(rec.residual(cf, n)) < 1e-10 * lead

    @pytest.mark.parametrize("label", ["c_rho_minus", "c_rho_plus", "c_requested"])
    def test_cdh_parameter_matching(self, label):
        # lam = a = (nu+1)/2 and b = d + (1-nu)/2 realize the index map
        # n+lam+a = n+nu+1, n+lam+b = n+d+1, n+a+b-1 = n+d
        _, basis, der = _case_with_derived(label)
        lam, y, a, b = cdh_parameters(der)
        rng = np.random.default_rng(7)
        for n in rng.integers(0, 30, size=5):
            assert n + lam + a == pytest.approx(n + basis.nu + 1.0, rel=1e-12)
            assert n + lam + b == pytest.approx(n + der.d + 1.0, rel=1e-12)
            assert n + a + b - 1.0 == pytest.approx(n + der.d, rel=1e-12)

    @pytest.mark.parametrize("label,expected_sign", [("c_rho_plus", 1.0), ("c_requested", -1.0)])
    def test_cdh_b_slot_closed_form(self, label, expected_sign):
        # under the balanced parameters the b-argument reduces to
        # (1 -+ 1)/2 +- (2 kappa + 1)/(2 beta) for rho = +-1
        phys, basis = build_case(label)
        der = derived_params(basis, phys)
        _, y, _, b = cdh_parameters(der)
        assert der.rho == expected_sign
        if der.rho > 0:
            expected = (2.0 * phys.kappa + 1.0) / (2.0 * basis.beta)
        else:
            expected = 1.0 - (2.0 * phys.kappa + 1.0) / (2.0 * basis.beta)
        assert b == pytest.approx(expected, rel=1e-12)
        assert y == pytest.approx(abs((phys.kappa + 0.5) / basis.beta), rel=1e-12)


class TestScalings:
    def test_rep_a_frozen_rescale(self):
        # nu = 1: f_1 = R_1 s_1 = sqrt(1/2) (10/3)
        _, basis, der = _case_with_derived("a_rho2")
        f = solve_forward(build_recursion(basis.rep, der, basis.nu), 2) * rescale(der, 2)
        assert f[0] == 1.0
        assert f[1] == pytest.approx((10.0 / 3.0) / math.sqrt(2.0), rel=1e-13)

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_scaling_equivalence_chain_coefficients(self, label):
        # the natural relation is the raw one conjugated by the running product
        # R_n: term by term, raw coefficients transported through its steps
        # reproduce the natural ones up to a common factor
        _, basis, der = _case_with_derived(label)
        nu = basis.nu
        raw = _raw_relation(der, 21)
        red = build_recursion(basis.rep, der, nu)
        for n in range(1, 21):
            # R_{n-1}/R_n and R_{n+1}/R_n of the running product f_n = R_n s_n,
            # steps sqrt(n/(n+nu)) in a/b, inverted in c
            ratio_dn = math.sqrt((n + nu) / n)
            ratio_up = math.sqrt((n + 1.0) / (n + 1.0 + nu))
            if basis.rep is Rep.C:
                ratio_dn, ratio_up = 1.0 / ratio_dn, 1.0 / ratio_up
            common = raw.a(n) / red.a(n)
            assert raw.b(n) * ratio_dn == pytest.approx(common * red.b(n), rel=1e-12)
            assert raw.c(n) * ratio_up == pytest.approx(common * red.c(n), rel=1e-12)

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_scaling_equivalence_chain_sequences(self, label):
        # the natural solve times the running product is the raw solve: both
        # start at f_0 = s_0 = 1, so no factor is left.  When the pinned
        # solution is the decaying (minimal) one, any forward solve loses it
        # to dominant-solution contamination, so the sequence-level comparison
        # is restricted to the range where both solves still carry it.
        _, basis, der = _case_with_derived(label)
        cf = closed_form_sequence(der, 20)
        growing = abs(cf[-1]) >= abs(cf[0])
        horizon = 20 if growing else 10
        raw = solve_forward(_raw_relation(der, horizon), horizon)
        reduced = solve_forward(build_recursion(basis.rep, der, basis.nu), horizon)
        np.testing.assert_allclose(reduced * rescale(der, horizon), raw,
                                   rtol=1e-12 if growing else 1e-9)

    @pytest.mark.parametrize("N", [20, 60])
    @pytest.mark.parametrize("label", CASE_IDS)
    def test_raw_relation_sector_stable_over_full_horizon(self, label, N):
        # verify's scaling-equivalence leg: the production sequence times the
        # running product satisfies the raw relation read off the operator's
        # bands over the whole horizon, decaying (minimal) cases included, each
        # row against its own term magnitudes
        _, basis, der = _case_with_derived(label)
        f = coefficient_sequence(der, N) * rescale(der, N)
        assert np.max(_relative_residual(_raw_relation(der, N), f, np.arange(N))) <= 1e-12

    @pytest.mark.parametrize("label", CASE_IDS)
    def test_raw_recursion_matches_operator(self, label):
        # D_n f_n + B_{n-1} f_{n-1} + B_n f_{n+1} = 0 ties the natural
        # relation's closed form, times R_n, to the tridiagonal matrix elements
        _, basis, der = _case_with_derived(label)
        f = closed_form_sequence(der, 15) * rescale(der, 15)
        op = build_operator(der, 15)
        for n in range(14):
            res = op[n, n] * f[n] + op[n + 1, n] * f[n + 1] \
                + (op[n, n - 1] * f[n - 1] if n >= 1 else 0.0)
            assert abs(res) < 1e-10 * (abs(op[n, n] * f[n]) + 1e-300)


ORACLE_N = 160


@lru_cache(maxsize=None)
def _oracle(label):
    # closed-form values do not depend on the horizon, so one N = ORACLE_N
    # evaluation per case serves every shorter horizon
    _, basis, der = _case_with_derived(label)
    return closed_form_sequence(der, ORACLE_N)


def _rep_b_case(A, rho, mu=-1.5, kappa=-3):
    # omega tuned so that rho = 2A/(beta omega^beta) takes the given value (A/beta
    # must have its sign); by default mu = -1.5, kappa = -3 (beta = 5/2)
    phys = PhysicalParams(A=A, mu=mu, kappa=kappa)
    omega = (2.0 * A / (phys.beta * rho)) ** (1.0 / phys.beta)
    basis = select_representation(phys, omega=omega)
    assert basis.rep is Rep.B and basis.rho == pytest.approx(rho, rel=1e-12)
    return basis, derived_params(basis, phys)


# (mu, kappa) pairs of representation b (beta kappa < 0), both signs of beta
REP_B_POWERS = [(-1.5, -3), (0.5, -2), (-0.0003961086828168446, -6), (3.0, 2),
                (2.8386956774008363, 7)]


class TestCoefficientSequence:
    @pytest.mark.parametrize("N", [20, 41, ORACLE_N])
    @pytest.mark.parametrize("label", CASE_IDS)
    def test_matches_oracle_over_full_horizon(self, label, N):
        _, basis, der = _case_with_derived(label)
        seq = coefficient_sequence(der, N)
        np.testing.assert_allclose(seq, _oracle(label)[:N + 1], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("A,rho", [(1.0, 1.4), (1.0, 2.0), (1.0, 4.0), (1.0, 16.0),
                                       (1.0, 0.3), (1.0, 0.7),
                                       (-1.0, -0.5), (-1.0, -2.0), (-1.0, -16.0)])
    def test_rep_b_omega_sweep(self, A, rho):
        # rho > 0: the pinned sequence decays (minimal solution), slowly at
        # rho = 16 (theta = 0.125); rho < 0: it grows
        basis, der = _rep_b_case(A, rho)
        N = 80
        seq = coefficient_sequence(der, N)
        ref = closed_form_sequence(der, N)
        np.testing.assert_allclose(seq, ref, rtol=1e-12, atol=0.0)
        assert (abs(ref[N]) < abs(ref[0])) == (rho > 0.0)

    def test_small_positive_rho_matches_exact_product(self):
        # 0 < rho < 1 (reached only through omega): the closed form is
        # (-1)^n e^{n theta} (2 lam)_n / n! with theta < 0, a minimal solution;
        # at N = 60 it cancels ~60 digits in the 2F1 sum, beyond a fixed
        # 40-digit evaluation, so it is checked against the exact expression
        basis, der = _rep_b_case(1.0, 0.5071505162084872)
        N = 60
        two_lam = 2.0 * mp_lambda(der)
        n = np.arange(N + 1.0)
        exact = (-1.0) ** n * np.exp(gammaln(n + two_lam) - gammaln(two_lam)
                                     - gammaln(n + 1.0) + n * der.theta)
        seq = coefficient_sequence(der, N)
        np.testing.assert_allclose(seq, exact, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(closed_form_sequence(der, N), exact,
                                   rtol=1e-12, atol=0.0)

    def test_production_sequence_satisfies_raw_relation(self):
        # the decaying rep-b product times R_n against the operator's bands
        _, basis, der = _case_with_derived("b_pos_beta")
        rec = _raw_relation(der, 40)
        seq = coefficient_sequence(der, 40)
        assert seq[0] == 1.0
        f = seq * rescale(der, 40)
        for n in range(40):
            assert _relative_residual(rec, f, n) < 1e-12

    def test_rho_40_matches_oracle_at_n160(self):
        # rho >> 1 (theta = 0.05) with nu = 6, where the recursion's rounded
        # coefficients once limited agreement to 4.6e-9
        basis, der = _rep_b_case(0.7, 40.0, mu=0.5, kappa=-2)
        assert basis.nu == 6.0
        np.testing.assert_allclose(coefficient_sequence(der, 160),
                                   closed_form_sequence(der, 160), rtol=1e-12, atol=0.0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(powers=st.sampled_from(REP_B_POWERS), log_rho=st.floats(-3.0, 3.0),
           sign=st.sampled_from([-1.0, 1.0]), N=st.integers(0, 60))
    def test_rep_b_product_property(self, powers, log_rho, sign, N):
        # the running product against the oracle, and, times R_n, against
        # the raw relation of the operator's bands; entries below the normal
        # range (only within ~1e-5 of |rho| = 1) are held to an absolute bound.
        # Near rho = -1 the sequence grows like (2/|rho + 1|)^n: where the
        # oracle's values leave double range, the product must refuse
        mu, kappa = powers
        beta = 1.0 - mu
        basis, der = _rep_b_case(math.copysign(1.0, sign * beta), sign * 10.0 ** log_rho,
                                 mu=mu, kappa=kappa)
        if basis.rho ** 2 == 1.0:
            with pytest.raises(ValueError, match="representation c"):
                coefficient_sequence(der, N)
            return
        ref = closed_form_sequence(der, N)
        if not np.all(np.isfinite(ref)):
            with pytest.raises(ValueError, match="double range"):
                coefficient_sequence(der, N)
            return
        seq = coefficient_sequence(der, N)
        np.testing.assert_allclose(seq, ref, rtol=1e-12, atol=np.finfo(float).tiny)
        if N >= 1:  # the operator matrix has N + 1 >= 2 rows
            f = seq * rescale(der, N)
            assert np.all(_relative_residual(_raw_relation(der, N), f, np.arange(N)) <= 1e-12)

    def test_detuned_omega_product_matches_closed_form(self):
        # a basis carries its own physics, so an omega not tied to rho by the
        # inputs' A still has theta, and its product is the closed form's
        phys, basis, _ = _case_with_derived("b_pos_beta")
        der = derived_params(replace(basis, omega=1.1 * basis.omega), phys)
        assert der.theta is not None and der.rho ** 2 != 1.0
        np.testing.assert_allclose(coefficient_sequence(der, 40), closed_form_sequence(der, 40),
                                   rtol=1e-12, atol=0.0)

    def test_rep_b_product_out_of_double_range_raises(self):
        # rho = -1.001: theta = -7.6, so g_n grows like e^{7.6 n} past 1e308 near n = 90
        _, der = _rep_b_case(-1.0, -1.001)
        assert np.all(np.isfinite(coefficient_sequence(der, 80)))
        with pytest.raises(ValueError, match="double range"):
            coefficient_sequence(der, 200)

    def test_out_of_double_range_raises(self):
        # rep a at rho = 4/3 grows like ~e^{1.94 n}: past 1e308 before n = 400
        phys = PhysicalParams(A=3.0, mu=-2.0, kappa=1)
        basis = select_representation(phys, omega=1.5 ** (1.0 / 3.0))
        der = derived_params(basis, phys)
        assert basis.rho == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert np.all(np.isfinite(coefficient_sequence(der, 300)))
        with pytest.raises(ValueError, match="double range"):
            coefficient_sequence(der, 400)
        with pytest.raises(ValueError, match="double range"):
            assemble(phys, basis, 400)


def sqrt_gamma_ratio(a, b):
    """sqrt(Gamma(a)/Gamma(b)) for positive a, b, in log space."""
    return math.exp(0.5 * (math.lgamma(a) - math.lgamma(b)))


class TestRescaleContract:
    def test_vectorised_factors_match_scalar_loop(self):
        # R_n^2 = n!/(nu+1)_n in a/b (inverted in c), against Gamma ratios
        # taken to n = 0 one index at a time
        loop = np.array([sqrt_gamma_ratio(n + 1.0, n + 3.7) / sqrt_gamma_ratio(1.0, 3.7)
                         for n in range(50)])
        np.testing.assert_allclose(rescale(SimpleNamespace(rep=Rep.A, nu=2.7), 49), loop,
                                   rtol=1e-13)
        np.testing.assert_allclose(rescale(SimpleNamespace(rep=Rep.C, nu=2.7), 49), 1.0 / loop,
                                   rtol=1e-13)

    @pytest.mark.parametrize("nu", [1.0, 30.5, 400.0, 957.0])
    def test_matches_extended_precision(self, nu):
        # sqrt((nu+1)_n/n!) to 30 digits, n <= 400; where the Gamma factors
        # themselves leave double range (nu = 400, 957) the running product
        # stays accurate to a few rounding errors
        N = 400
        with mpmath.workdps(30):
            exact = np.array([float(mpmath.sqrt(mpmath.rf(nu + 1, n) / mpmath.factorial(n)))
                              for n in range(N + 1)])
        np.testing.assert_allclose(rescale(SimpleNamespace(rep=Rep.C, nu=nu), N), exact,
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(rescale(SimpleNamespace(rep=Rep.B, nu=nu), N), 1.0 / exact,
                                   rtol=1e-14, atol=0.0)

    def test_factor_overflow_raises(self):
        # representation c at nu = 1e10: R_n ~ nu^{n/2}/sqrt(n!) passes 1e308 before n = 80
        der = SimpleNamespace(rep=Rep.C, nu=1e10)
        assert np.all(np.isfinite(rescale(der, 60)))
        with pytest.raises(ValueError, match="double range"):
            rescale(der, 80)

    def test_non_finite_coefficient_raises(self):
        # a non-finite nu gives no finite factor past R_0, and is refused at n = 1
        for rep in (Rep.A, Rep.C):
            with pytest.raises(ValueError, match="double range at n = 1"):
                rescale(SimpleNamespace(rep=rep, nu=math.nan), 3)
