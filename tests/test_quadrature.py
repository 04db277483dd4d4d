"""Gauss-Laguerre rules and the radial measure."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_genlaguerre

from diracpl import quadrature
from diracpl.forms import LaguerreForm, integrate_product
from diracpl.orthopoly import gamma_ratio
from diracpl.quadrature import MAX_ORDER, RadialMeasure, gauss_laguerre


def christoffel(rule):
    """The rule's weights for f against x^nu e^{-x}: its own weights integrate f dx."""
    return rule.weights * rule.nodes ** rule.nu * np.exp(-rule.nodes)


class TestRuleConstruction:
    def test_order_one(self):
        rule = gauss_laguerre(1, 0.0)
        np.testing.assert_allclose(rule.nodes, [1.0], rtol=1e-14)
        np.testing.assert_allclose(christoffel(rule), [1.0], rtol=1e-14)

    def test_order_two(self):
        rule = gauss_laguerre(2, 0.0)
        np.testing.assert_allclose(rule.nodes, [2.0 - math.sqrt(2), 2.0 + math.sqrt(2)],
                                   rtol=1e-13)
        np.testing.assert_allclose(christoffel(rule),
                                   [(2.0 + math.sqrt(2)) / 4.0, (2.0 - math.sqrt(2)) / 4.0],
                                   rtol=1e-13)

    @pytest.mark.parametrize("order", [1, 5, 25, 60])
    @pytest.mark.parametrize("nu", [-0.5, 0.0, 1.0, 2.5, 7.0])
    def test_rule_invariants(self, order, nu):
        rule = gauss_laguerre(order, nu)
        assert np.all(rule.nodes > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert np.sum(christoffel(rule)) == pytest.approx(math.gamma(nu + 1.0), rel=1e-12)

    @pytest.mark.parametrize("order,nu", [(6, 0.0), (12, -0.5), (20, 1.5), (40, 3.0)])
    def test_moment_exactness(self, order, nu):
        # integrates x^k exactly against x^nu e^{-x} for k <= 2 order - 1
        rule = gauss_laguerre(order, nu)
        for k in range(2 * order):
            got = np.dot(christoffel(rule), rule.nodes ** k)
            exact = math.exp(math.lgamma(nu + k + 1.0))
            assert got == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("order,nu", [(10, 0.0), (25, -0.4), (50, 2.3)])
    def test_against_library_rule(self, order, nu):
        nodes, weights = roots_genlaguerre(order, nu)
        rule = gauss_laguerre(order, nu)
        np.testing.assert_allclose(rule.nodes, nodes, rtol=1e-12)
        np.testing.assert_allclose(christoffel(rule), weights, rtol=1e-10)

    @pytest.mark.parametrize("order,nu", [(20, 0.3), (49, 3.7), (49, -0.5), (120, 12.5)])
    def test_nodes_against_extended_precision_roots(self, order, nu):
        # the roots of L_order^nu by Newton at 40 digits (L' = -L_{order-1}^{nu+1}),
        # started from scipy's nodes, against the rule's one-step nodes
        rule = gauss_laguerre(order, nu)
        with mpmath.workdps(40):
            roots = []
            for x in roots_genlaguerre(order, nu)[0]:
                x = mpmath.mpf(float(x))
                for _ in range(8):
                    x += mpmath.laguerre(order, nu, x) / mpmath.laguerre(order - 1, nu + 1, x)
                roots.append(x)
            assert all(a < b for a, b in zip(roots, roots[1:]))
            err = max(abs(float((node - root) / root)) for node, root in zip(rule.nodes, roots))
        assert err <= 3e-14

    def test_one_psi_pass_per_rule(self, monkeypatch):
        # the Newton step and the weights read the same table
        calls, table = [], quadrature.laguerre_functions

        def counted(*args, **kwargs):
            calls.append(args)
            return table(*args, **kwargs)

        monkeypatch.setattr(quadrature, "laguerre_functions", counted)
        gauss_laguerre(30, 1.3)
        assert len(calls) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            gauss_laguerre(0, 0.0)
        with pytest.raises(ValueError):
            gauss_laguerre(5, -1.0)

    def test_refuses_order_above_bound_before_allocating(self, monkeypatch):
        # the dense Jacobi matrix of order 10^5 would take 75 GiB
        def no_solve(_):
            raise AssertionError("eigvalsh reached")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        for order in (MAX_ORDER + 1, 100_000):
            with pytest.raises(ValueError, match=f"from 1 to {MAX_ORDER}, got {order}"):
                gauss_laguerre(order, 0.5)
        assert MAX_ORDER >= 800


class TestHighOrderRules:
    """Rules past the raw Laguerre table's range, up to where sqrt(psi_0)
    underflows at the largest node."""

    @pytest.mark.parametrize("nu", [-0.5, 1.0, 2.5])
    def test_weights_of_the_envelope_sum_to_gamma(self, nu):
        rule = gauss_laguerre(700, nu)
        assert np.all(rule.weights > 0)
        assert np.sum(christoffel(rule)) == pytest.approx(math.gamma(nu + 1.0), rel=1e-12)

    def test_refuses_where_the_functions_leave_double_range(self):
        with pytest.raises(ValueError, match="double range"):
            gauss_laguerre(800, 1.0)


class TestLaguerreOrthogonality:
    @pytest.mark.parametrize("nu", [-0.5, 0.0, 2.5])
    def test_weighted_gram_matrix(self, nu):
        from diracpl.orthopoly import laguerre_all
        rule = gauss_laguerre(32, nu)
        table = laguerre_all(20, nu, rule.nodes)
        for n in range(21):
            for m in range(n, 21):
                val = np.dot(christoffel(rule), table[n] * table[m])
                if n == m:
                    expected = gamma_ratio(n + nu + 1.0, n + 1.0)
                    assert val == pytest.approx(expected, rel=1e-10)
                else:
                    diag = gamma_ratio(n + nu + 1.0, n + 1.0)
                    assert abs(val) < 1e-10 * diag


class TestRadialMeasure:
    def test_coordinate_round_trip(self):
        for beta, omega in [(3.0, 1.2), (-2.0, 0.7), (0.5, 2.0)]:
            m = RadialMeasure(beta=beta, omega=omega)
            r = np.geomspace(0.1, 10.0, 7)
            np.testing.assert_allclose(m.r_of_x(m.x_of_r(r)), r, rtol=1e-13)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            RadialMeasure(beta=0.0, omega=1.0)
        with pytest.raises(ValueError):
            RadialMeasure(beta=1.0, omega=-2.0)

    @pytest.mark.parametrize("beta,omega,a_pow", [(3.0, 1.1, 1.4), (-2.0, 0.8, 0.9),
                                                  (2.5, 1.0, 2.0), (-0.5, 1.3, 3.5)])
    def test_substitution_matches_adaptive_quadrature(self, beta, omega, a_pow):
        # same positive integrand via the x-substitution rule and via adaptive
        # integration on the r half-line
        m = RadialMeasure(beta=beta, omega=omega)

        def f(r):
            x = m.x_of_r(r)
            return np.power(x, a_pow) * np.exp(-x)

        # x^a_pow e^{-x} as the product of x^a_pow e^{-x/2} and e^{-x/2}
        ours = integrate_product(LaguerreForm(a_pow, 0.0, [[1.0]]),
                                 LaguerreForm(0.0, 0.0, [[1.0]]), m)
        ref, err = quad(lambda r: float(f(r)), 0.0, np.inf, limit=400)
        assert ours == pytest.approx(ref, rel=1e-6)


class TestInnerProductRadial:
    """Radial inner products of one-term forms through integrate_product."""

    def test_zeroth_moment_round_trip(self):
        # constant-envelope case: the transformed integral is Gamma(nu+1)
        m = RadialMeasure(beta=3.0, omega=1.4)
        nu = 1.7
        a_pow = nu + 1.0 - 1.0 / m.beta
        f = LaguerreForm(a_pow, 0.0, [[m.omega * abs(m.beta)]])
        one = LaguerreForm(0.0, 0.0, [[1.0]])
        val = integrate_product(f, one, m)
        assert val == pytest.approx(math.gamma(nu + 1.0), rel=1e-12)

    def test_matched_exponent_normalization(self):
        # a basis-shaped function x^alpha e^{-x/2} L_n whose exponents match
        # the weight integrates to exactly 1 with the standard normalization,
        # which psi_n carries: sqrt(omega beta) x^{alpha - nu/2} psi_n
        beta, omega, nu = 3.0, 1.2, 1.0
        alpha = (nu + 1.0 - 1.0 / beta) / 2.0
        m = RadialMeasure(beta=beta, omega=omega)

        def make(n):
            return LaguerreForm(alpha - nu / 2.0, nu, math.sqrt(omega * beta) * np.eye(1, n + 1, n))

        def inner(n, k):
            return integrate_product(make(n), make(k), m)

        assert inner(0, 0) == pytest.approx(1.0, rel=1e-12)
        assert abs(inner(0, 1)) < 1e-12
        assert inner(3, 3) == pytest.approx(1.0, rel=1e-12)
