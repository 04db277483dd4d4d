"""Polynomial families: recurrence vs series agreement and classical identities."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracpl.orthopoly import (cdh_eval, cdh_series, cdh_weight, forward_recurrence,
                               gamma_ratio, hyp_mp_diagonal, hyp_mp_eval, hyp_mp_series,
                               laguerre_all, laguerre_deriv, laguerre_eval, laguerre_functions,
                               laguerre_offdiag, laguerre_series, mod_cdh_eval, mod_cdh_series,
                               mp_eval, mp_series, sqrt_psi0, terminating_series)

NU_GRID = [-0.5, 0.0, 1.0, 2.5]
RNG = np.random.default_rng(20250809)
X_GRID = np.sort(RNG.uniform(1e-3, 50.0, size=40))


class TestLaguerre:
    def test_degree_zero_is_one(self):
        assert laguerre_eval(0, 2.5, 7.3) == 1.0
        assert laguerre_series(0, -0.3, 11.0) == 1.0

    def test_frozen_values(self):
        # 1 - x at x = 1; 1 - 2x + x^2/2 at x = 2; value at x = 0 is binom(n+nu, n)
        assert laguerre_eval(1, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert laguerre_eval(2, 0.0, 2.0) == pytest.approx(-1.0, rel=1e-14)
        assert laguerre_series(2, 0.0, 2.0) == pytest.approx(-1.0, rel=1e-14)
        assert laguerre_series(1, 3.0, 0.0) == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("nu", NU_GRID)
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 20])
    def test_recurrence_matches_series(self, n, nu):
        # relative to the local polynomial size; near roots only the absolute
        # deviation on that scale is meaningful
        for x in X_GRID:
            a = laguerre_eval(n, nu, x)
            b = laguerre_series(n, nu, x)
            scale = max(abs(laguerre_series(n - 1, nu, x)), abs(b), 1.0)
            assert abs(a - b) < 1e-10 * scale

    @pytest.mark.parametrize("nu", NU_GRID)
    @pytest.mark.parametrize("n", [0, 1, 3, 7, 15, 20])
    def test_three_term_relation(self, n, nu):
        # x L_n = (2n+nu+1) L_n - (n+nu) L_{n-1} - (n+1) L_{n+1}
        vals = laguerre_all(n + 1, nu, X_GRID)
        lnm1 = vals[n - 1] if n >= 1 else np.zeros_like(X_GRID)
        lhs = X_GRID * vals[n]
        rhs = (2 * n + nu + 1) * vals[n] - (n + nu) * lnm1 - (n + 1) * vals[n + 1]
        scale = np.maximum(np.abs(lhs), np.maximum((n + 1) * np.abs(vals[n + 1]), 1.0))
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-10

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("n", [0, 1, 4, 9, 20])
    def test_parameter_lowering(self, n, nu):
        # x L_n^nu = (n+nu) L_n^{nu-1} - (n+1) L_{n+1}^{nu-1},   nu > 0
        low = laguerre_all(n + 1, nu - 1.0, X_GRID)
        lhs = X_GRID * laguerre_all(n, nu, X_GRID)[n]
        rhs = (n + nu) * low[n] - (n + 1) * low[n + 1]
        scale = np.maximum(np.abs(lhs), np.maximum((n + 1) * np.abs(low[n + 1]), 1.0))
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-10

    @pytest.mark.parametrize("nu", NU_GRID)
    @pytest.mark.parametrize("n", [1, 2, 6, 13, 20])
    def test_parameter_raising_difference(self, n, nu):
        # L_n^nu = L_n^{nu+1} - L_{n-1}^{nu+1}
        up = laguerre_all(n, nu + 1.0, X_GRID)
        lhs = laguerre_all(n, nu, X_GRID)[n]
        rhs = up[n] - up[n - 1]
        scale = np.maximum(np.abs(lhs), np.maximum(np.abs(up[n]), 1.0))
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-10

    @pytest.mark.parametrize("nu", NU_GRID)
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
    def test_derivative_relation(self, n, nu):
        # x dL_n/dx = n L_n - (n+nu) L_{n-1}, cross-checked against the
        # series-route derivative dL_n^nu/dx = -L_{n-1}^{nu+1}
        for x in X_GRID[::4]:
            d = laguerre_deriv(n, nu, x)
            oracle = -laguerre_series(n - 1, nu + 1.0, x)
            scale = max(abs(oracle), n * abs(laguerre_series(n, nu, x)) / x, 1.0)
            assert abs(d - oracle) < 1e-10 * scale

    def test_derivative_frozen(self):
        assert laguerre_deriv(0, 1.7, 3.0) == 0.0
        assert laguerre_deriv(1, 0.0, 5.0) == pytest.approx(-1.0, rel=1e-14)
        assert laguerre_deriv(2, 0.0, 2.0) == pytest.approx(0.0, abs=1e-14)

    def test_derivative_at_zero_limit(self):
        for n, nu in [(1, 0.0), (3, 0.5), (8, 2.5)]:
            expected = -gamma_ratio(n + nu + 1.0, nu + 2.0) / gamma_ratio(n, 1.0)
            assert laguerre_deriv(n, nu, 0.0) == pytest.approx(expected, rel=1e-12)
            h = 1e-7
            fd = (laguerre_series(n, nu, h) - laguerre_series(n, nu, 0.0)) / h
            assert laguerre_deriv(n, nu, 0.0) == pytest.approx(fd, rel=1e-5)

    @pytest.mark.parametrize("nu", NU_GRID)
    @pytest.mark.parametrize("n", [1, 3, 8, 14, 20])
    def test_differential_equation(self, n, nu):
        # x L'' + (nu+1-x) L' + n L = 0 with both derivative orders built
        # from the first-derivative relation
        for x in X_GRID[::4]:
            ln = laguerre_eval(n, nu, x)
            d1 = laguerre_deriv(n, nu, x)
            d1m = laguerre_deriv(n - 1, nu, x) if n >= 1 else 0.0
            lnm = laguerre_eval(n - 1, nu, x) if n >= 1 else 0.0
            d2 = (n * d1 - (n + nu) * d1m) / x - (n * ln - (n + nu) * lnm) / x ** 2
            res = x * d2 + (nu + 1.0 - x) * d1 + n * ln
            assert abs(res) < 1e-8 * (abs(ln) + 1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            laguerre_eval(2, -1.0, 1.0)
        with pytest.raises(ValueError):
            laguerre_eval(2, 0.0, -0.5)
        with pytest.raises(ValueError):
            laguerre_eval(-1, 0.0, 1.0)


class TestLaguerreFunctions:
    """psi_k^nu = sqrt(k!/Gamma(k+nu+1)) x^(nu/2) e^(-x/2) L_k^nu, the kernel of
    every form, against extended precision far beyond the raw table's range."""

    ORDERS = [0, 1, 2, 7, 50, 201, 450, 690]
    X = np.geomspace(1e-3, 2700.0, 9)

    @pytest.mark.parametrize("nu", [-0.5, 1.8, 30.0])
    def test_matches_extended_precision(self, nu):
        # the worst point, k = 690 at x = 6.4e-3 for nu = 1.8, errs by 6.9e-12
        # on the raw polynomial route too: the recurrence's conditioning there
        table = laguerre_functions(max(self.ORDERS), nu, self.X)
        with mpmath.workdps(60):
            for k in self.ORDERS:
                for x, got in zip(self.X, table[k]):
                    x_mp = mpmath.mpf(float(x))
                    ref = (mpmath.sqrt(mpmath.factorial(k) / mpmath.gamma(k + nu + 1))
                           * x_mp ** (mpmath.mpf(nu) / 2) * mpmath.exp(-x_mp / 2)
                           * mpmath.laguerre(k, nu, x_mp))
                    assert abs(got - float(ref)) <= 1e-11, (k, x)

    @pytest.mark.parametrize("nu", [-0.5, 1.0, 30.0])
    def test_orthonormal_in_dx(self, nu):
        # sum_i w_i psi_n psi_m with the rule's own weights: the integral in dx
        from diracpl.quadrature import gauss_laguerre
        rule = gauss_laguerre(40, nu)
        table = laguerre_functions(30, nu, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(31))) < 1e-12

    @pytest.mark.parametrize("nu", [6.0, 800.0, 8e4, 8e5])
    def test_orthonormal_at_large_nu(self, nu):
        # |kappa| = 1e6 reaches nu ~ 8e5: psi_0's exponent is then a sum of
        # terms ~1e7 whose rounding, written out, erred by 4.8e-10 here
        from diracpl.quadrature import gauss_laguerre
        rule = gauss_laguerre(20, nu)
        table = laguerre_functions(12, nu, rule.nodes)
        gram = (table * rule.weights) @ table.T
        assert np.max(np.abs(gram - np.eye(13))) <= 1e-12

    def test_sqrt_psi0_forms_meet_at_the_switch(self):
        # at nu = 20 the centered form agrees with the exponent as written
        nu = 20.0
        x = np.linspace(0.2 * nu, 3.0 * nu, 97)
        written = np.exp(0.25 * (nu * np.log(x) - x - math.lgamma(nu + 1.0)))
        assert np.max(np.abs(sqrt_psi0(nu, x) / written - 1.0)) <= 1e-14
        below = np.nextafter(nu, 0.0)
        np.testing.assert_array_equal(
            sqrt_psi0(below, x), np.exp(0.25 * (below * np.log(x) - x - math.lgamma(below + 1.0))))

    def test_rows_do_not_depend_on_the_degree(self):
        x = X_GRID[::5]
        np.testing.assert_array_equal(laguerre_functions(40, 1.5, x)[:8],
                                      laguerre_functions(7, 1.5, x))

    @staticmethod
    def _row_by_row(n, nu, x):
        """The recurrence one row at a time: the step factor of row k+1 is formed
        in that row (subtract, divide), then multiplied and the b_k term taken off."""
        shape = np.shape(x)
        x = np.asarray(x, dtype=float).reshape(-1)
        h, b = sqrt_psi0(nu, x), laguerre_offdiag(n, nu)
        out = np.empty((n + 1, x.size))
        out[0] = h
        if n >= 1:
            out[1] = (nu + 1.0 - x) / b[1] * h
        for k in range(1, n):
            row = out[k + 1]
            np.subtract(2 * k + nu + 1.0, x, out=row)
            row /= b[k + 1]
            row *= out[k]
            row -= b[k] / b[k + 1] * out[k - 1]
        out *= h
        return out.reshape((n + 1,) + shape)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 49, 80, 400, 900])
    @pytest.mark.parametrize("nu", [-0.5, 0.3, 7.7, 250.0])
    def test_block_step_factors_are_bit_identical_to_row_by_row(self, n, nu):
        # the step factors filled for all rows at once round exactly as the
        # row-by-row recurrence does; inf/nan far out must agree too
        rng = np.random.default_rng(n)
        for x in (3.7, rng.uniform(0.0, 80.0, 37), rng.uniform(0.0, 400.0, (5, 7))):
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = laguerre_functions(n, nu, x), self._row_by_row(n, nu, x)
            assert got.shape == (n + 1,) + np.shape(x)
            assert np.array_equal(got, want, equal_nan=True)


class TestMeixnerPollaczek:
    def test_frozen_values(self):
        assert mp_eval(0, 1.3, 0.4, 1.0) == 1.0
        assert mp_eval(1, 1.0, 0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
        assert mp_eval(1, 2.0, 1.0, math.pi / 2) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("lam", [0.6, 1.5, 2.5])
    @pytest.mark.parametrize("theta", [0.8, math.pi / 2, 2.4])
    @pytest.mark.parametrize("y", [-2.0, 0.0, 0.7])
    def test_recurrence_matches_series(self, lam, theta, y):
        for n in range(21):
            a = mp_eval(n, lam, y, theta)
            b = mp_series(n, lam, y, theta)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10 * (abs(b) + 1.0))

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            mp_eval(3, 1.0, 0.0, -0.2)
        with pytest.raises(ValueError):
            mp_eval(3, 1.0, 0.0, math.pi)
        with pytest.raises(ValueError):
            mp_eval(3, -1.0, 0.0, 1.0)


class TestHyperbolicMeixnerPollaczek:
    def test_theta_zero_reduces_to_gamma_ratio(self):
        # 2F1 argument vanishes at theta = 0, leaving Gamma(n+2lam)/(n! Gamma(2lam))
        for n, lam in [(0, 0.8), (2, 1.0), (5, 1.7), (9, 0.5)]:
            expected = gamma_ratio(n + 2 * lam, 2 * lam) / gamma_ratio(n + 1.0, 1.0)
            assert hyp_mp_eval(n, lam, 0.37, 0.0) == pytest.approx(expected, rel=1e-12)
        assert hyp_mp_eval(2, 1.0, 5.0, 0.0) == pytest.approx(3.0, rel=1e-14)
        # gamma_ratio takes positive arguments and a ratio inside double range
        with pytest.raises(ValueError, match="requires positive arguments"):
            gamma_ratio(0.0, 1.0)
        with pytest.raises(ValueError, match="leaves double range"):
            gamma_ratio(200.0, 1.0)

    def test_first_order_frozen(self):
        theta = math.asinh(4.0 / 3.0)
        assert hyp_mp_eval(1, 1.0, 0.0, theta) == pytest.approx(10.0 / 3.0, rel=1e-14)
        for lam, y, th in [(0.7, -1.2, 0.5), (2.0, 3.0, -1.1)]:
            expected = 2.0 * (lam * math.cosh(th) + y * math.sinh(th))
            assert hyp_mp_eval(1, lam, y, th) == pytest.approx(expected, rel=1e-13)

    def test_diagonal_is_the_recurrence_diagonal(self):
        # d_k = 2[(k+lam) cosh(theta) + y sinh(theta)] where nothing cancels,
        # one index or an index array, and P_1 = d_0 exactly
        k = np.arange(6)
        for lam, y, th in [(0.7, -1.2, 0.5), (2.0, 3.0, -1.1)]:
            diag = hyp_mp_diagonal(k, lam, y, th)
            np.testing.assert_allclose(
                diag, 2.0 * ((k + lam) * math.cosh(th) + y * math.sinh(th)), rtol=1e-13)
            assert [hyp_mp_diagonal(j, lam, y, th) for j in range(6)] == diag.tolist()
            assert hyp_mp_eval(1, lam, y, th) == diag[0]

    def test_large_theta_keeps_the_decaying_exponential(self):
        # at theta = -114, P_1 = (lam+y) e^theta + (lam-y) e^{-theta} = 3 e^{-114}:
        # cosh and sinh (each ~1.6e49 in size) cancel exactly in floats
        expected = hyp_mp_series(1, 1.5, 1.5, -114.0)
        assert expected == pytest.approx(3.0 * math.exp(-114.0), rel=1e-14, abs=0.0)
        assert hyp_mp_eval(1, 1.5, 1.5, -114.0) == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("lam", [0.5, 1.25, 2.0])
    @pytest.mark.parametrize("theta", [-0.7, 0.4, 1.2])
    @pytest.mark.parametrize("y", [-1.0, 0.0, 0.8])
    def test_recurrence_matches_series(self, lam, theta, y):
        for n in range(21):
            a = hyp_mp_eval(n, lam, y, theta)
            b = hyp_mp_series(n, lam, y, theta)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-10 * (abs(b) + 1.0))

    @pytest.mark.parametrize("lam,y,theta", [(0.9, 0.3, 0.8), (1.5, -0.6, -0.4)])
    def test_recurrence_residual(self, lam, y, theta):
        c, s = math.cosh(theta), math.sinh(theta)
        vals = [hyp_mp_eval(n, lam, y, theta) for n in range(22)]
        for n in range(21):
            lead = 2.0 * ((n + lam) * c + y * s) * vals[n]
            res = lead - (n + 2 * lam - 1.0) * (vals[n - 1] if n else 0.0) \
                - (n + 1.0) * vals[n + 1]
            assert abs(res) < 1e-10 * (abs(lead) + 1.0)


class TestContinuousDualHahn:
    def test_frozen_values(self):
        assert cdh_eval(0, 0.9, 1.3, 0.4, 2.0) == 1.0
        # [(lam+a)(lam+b) - lam^2 - y^2] / [(lam+a)(lam+b)] at n = 1
        assert cdh_eval(1, 0.5, 0.0, 0.5, 0.5) == pytest.approx(0.75, rel=1e-14)
        assert cdh_eval(1, 0.5, 1.0, 0.5, 0.5) == pytest.approx(-0.25, rel=1e-14)

    @pytest.mark.parametrize("lam,a,b", [(0.6, 0.8, 1.2), (1.0, 1.0, 1.0), (1.5, 0.7, 2.0)])
    @pytest.mark.parametrize("ysq", [0.0, 0.5, 2.0, 7.0])
    def test_recurrence_matches_series(self, lam, a, b, ysq):
        for n in range(21):
            u = cdh_eval(n, lam, ysq, a, b)
            v = cdh_series(n, lam, ysq, a, b)
            assert u == pytest.approx(v, rel=1e-10, abs=1e-10 * (abs(v) + 1.0))

    def test_rejects_negative_ysq(self):
        # and non-positive lam, a or b, and a weight at y <= 0
        with pytest.raises(ValueError):
            cdh_eval(2, 1.0, -0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="requires lam, a, b > 0"):
            cdh_eval(2, 1.0, 0.5, -1.0, 1.0)
        with pytest.raises(ValueError, match="weight defined for y > 0"):
            cdh_weight(0.0, 1.0, 1.0, 1.0)


class TestModifiedContinuousDualHahn:
    def test_frozen_values(self):
        assert mod_cdh_eval(0, 1.1, 0.3, 0.5, 0.9) == 1.0
        # 1 - (lam^2 - y^2)/((lam+a)(lam+b)) at n = 1
        assert mod_cdh_eval(1, 0.5, 1.0, 0.5, 0.5) == pytest.approx(1.75, rel=1e-14)
        lam, y, a, b = 1.2, 0.7, 0.9, 1.4
        expected = 1.0 - (lam * lam - y * y) / ((lam + a) * (lam + b))
        assert mod_cdh_series(1, lam, y, a, b) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("lam,a,b", [(0.6, 0.8, 1.2), (1.5, 1.5, 0.5), (2.0, 0.3, 1.0)])
    @pytest.mark.parametrize("y", [0.0, 0.5, 1.7, 3.0])
    def test_recurrence_matches_series(self, lam, a, b, y):
        # the recurrence is the sign-flipped squared-argument relation
        for n in range(21):
            u = mod_cdh_eval(n, lam, y, a, b)
            v = mod_cdh_series(n, lam, y, a, b)
            assert u == pytest.approx(v, rel=1e-10, abs=1e-10 * (abs(v) + 1.0))

    def test_matches_cdh_at_zero_argument(self):
        for n in range(12):
            assert mod_cdh_eval(n, 1.1, 0.0, 0.8, 0.6) == pytest.approx(
                cdh_eval(n, 1.1, 0.0, 0.8, 0.6), rel=1e-13)

    def test_rejects_bad_denominators(self):
        with pytest.raises(ValueError):
            mod_cdh_eval(3, 1.0, 0.5, -1.0, 1.0)


class TestOraclePrecision:
    """The series oracles raise their working precision to match the cancellation."""

    def test_mod_cdh_pinned_at_n_200(self):
        # (lam, y, a, b) of the c_rho_minus case; 200- and 400-digit
        # hypergeometric 3F2 evaluations both give 1.5634161061382907701e-3,
        # where a fixed 40-digit sum returned -4.4e13
        assert mod_cdh_series(200, 2.0, 0.5, 2.0, 0.5) == pytest.approx(
            1.5634161061382907701e-3, rel=1e-12)

    def test_hyp_mp_cancelling_sum(self):
        # y = lam: 2F1(-n, 2 lam; 2 lam; 1 - e^{2 theta}) = e^{2 n theta}, so
        # P_n = (2 lam)_n / n! e^{n theta}; for theta < 0 the sum cancels about
        # 60 digits at n = 60
        lam, theta, n = 1.5, -1.12, 60
        exact = math.exp(math.lgamma(n + 2 * lam) - math.lgamma(2 * lam)
                         - math.lgamma(n + 1.0) + n * theta)
        assert hyp_mp_series(n, lam, lam, theta) == pytest.approx(exact, rel=1e-12)

    def test_laguerre_and_mp_against_mpmath(self):
        import mpmath as mp
        with mp.workdps(200):
            lag = float(mp.laguerre(150, 0.5, 300))
            lam, y, theta, n = 1.0, 3.0, 0.3, 80
            mp_ref = float(mp.re(mp.rf(2 * lam, n) / mp.factorial(n) * mp.exp(1j * n * theta)
                                 * mp.hyp2f1(-n, mp.mpc(lam, y), 2 * lam,
                                             1 - mp.exp(-2j * mp.mpf(theta)))))
        assert laguerre_series(150, 0.5, 300.0) == pytest.approx(lag, rel=1e-12)
        assert mp_series(n, lam, y, theta) == pytest.approx(mp_ref, rel=1e-12)


def _mp_loop(n, lam, diag):
    # the per-step Meixner-Pollaczek loop the kernel replaced (reference), with
    # the family's diagonal diag(k)
    p_prev, p = 0.0, 1.0
    for k in range(n):
        p_next = (diag(k) * p - (k + 2.0 * lam - 1.0) * p_prev) / (k + 1.0)
        p_prev, p = p, p_next
    return p


def _cdh_loop(n, lam, ysq, a, b):
    # the per-step continuous dual Hahn loop the kernel replaced (reference)
    s_prev, s = 0.0, 1.0
    for k in range(n):
        ka, kb = k + lam + a, k + lam + b
        diag = ka * kb + k * (k + a + b - 1.0) - lam * lam - ysq
        s_prev, s = s, (diag * s - k * (k + a + b - 1.0) * s_prev) / (ka * kb)
    return s


class TestForwardRecurrence:
    def test_empty_coefficients_give_s0(self):
        np.testing.assert_array_equal(forward_recurrence([], [], []), [1.0])

    @pytest.mark.parametrize("nu", NU_GRID)
    def test_laguerre_recurrence_bit_for_bit(self, nu):
        # (k+1) L_{k+1} - (2k+nu+1-x) L_k + (k+nu) L_{k-1} = 0
        k = np.arange(30)
        for x in X_GRID[::8]:
            got = forward_recurrence(-(2 * k + nu + 1.0 - x), k + nu, k + 1.0)
            np.testing.assert_array_equal(got, laguerre_all(30, nu, x))

    @pytest.mark.parametrize("n", [0, 1, 7, 40])
    def test_family_evaluators_bit_for_bit(self, n):
        for lam, y, theta in [(0.6, -2.0, 0.8), (2.5, 0.7, 2.4)]:
            c, s = math.cos(theta), math.sin(theta)
            assert mp_eval(n, lam, y, theta) == _mp_loop(
                n, lam, lambda k: 2.0 * ((k + lam) * c + y * s))
        for lam, y, theta in [(0.5, -1.0, -0.7), (2.0, 0.8, 1.2)]:
            up, down = math.exp(theta), math.exp(-theta)
            assert hyp_mp_eval(n, lam, y, theta) == _mp_loop(
                n, lam, lambda k: (k + lam + y) * up + (k + lam - y) * down)
        for lam, ysq, a, b in [(0.6, 0.5, 0.8, 1.2), (1.5, 7.0, 0.7, 2.0)]:
            assert cdh_eval(n, lam, ysq, a, b) == _cdh_loop(n, lam, ysq, a, b)
            y = math.sqrt(ysq)
            assert mod_cdh_eval(n, lam, y, a, b) == _cdh_loop(n, lam, -y * y, a, b)

    def test_zero_c_names_the_index(self):
        c = np.array([1.0, 2.0, 0.0, 4.0])
        with pytest.raises(ValueError, match="c\\(2\\) = 0"):
            forward_recurrence(np.ones(4), np.ones(4), c)


FAMILIES = ("laguerre", "mp", "hyp_mp", "cdh", "mod_cdh")


def _series_and_reference(family, n, lam, y, theta, a, b, x, dps=50):
    """The family's terminating-series value, and the same value from mpmath's
    own hypergeometric function at dps digits.  The reference takes the inputs
    the series sees: Laguerre parameter nu = a - 1 and y^2 rounded to a float."""
    nu, ysq = a - 1.0, y * y
    with mpmath.workdps(dps):
        lam_, y_, theta_, a_, b_, x_ = (mpmath.mpf(v) for v in (lam, y, theta, a, b, x))
        nu1, y_sq = mpmath.mpf(nu) + 1, mpmath.sqrt(ysq)

        def pfq(upper, lower, z):  # an exact zero, such as L_1^0(1), is 0, not an error
            return mpmath.hyper([-n, *upper], lower, z, zeroprec=1000)

        pochhammer = mpmath.rf(2 * lam_, n) / mpmath.factorial(n)
        if family == "laguerre":
            return (laguerre_series(n, nu, x),
                    mpmath.rf(nu1, n) / mpmath.factorial(n) * pfq([], [nu1], x_))
        if family == "mp":
            return (mp_series(n, lam, y, theta),
                    mpmath.re(pochhammer * mpmath.expj(n * theta_) * pfq(
                        [mpmath.mpc(lam_, y_)], [2 * lam_], 1 - mpmath.expj(-2 * theta_))))
        if family == "hyp_mp":
            return (hyp_mp_series(n, lam, y, theta),
                    pochhammer * mpmath.exp(-n * theta_)
                    * pfq([lam_ + y_], [2 * lam_], 1 - mpmath.exp(2 * theta_)))
        if family == "cdh":
            return (cdh_series(n, lam, ysq, a, b),
                    mpmath.re(pfq([mpmath.mpc(lam_, y_sq), mpmath.mpc(lam_, -y_sq)],
                                  [lam_ + a_, lam_ + b_], 1)))
        return (mod_cdh_series(n, lam, y, a, b),
                pfq([lam_ + y_sq, lam_ - y_sq], [lam_ + a_, lam_ + b_], 1))


_positive = st.floats(0.1, 4.0)


class TestTerminatingSeries:
    """One exact-integer binomial table per family, at one precision per sequence."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(family=st.sampled_from(FAMILIES), n=st.integers(0, 40), lam=_positive,
           y=st.floats(-4.0, 4.0), theta=st.floats(0.05, 3.09), sign=st.sampled_from([-1, 1]),
           a=_positive, b=_positive, x=st.floats(0.0, 60.0))
    def test_matches_mpmath_hypergeometric_functions(self, family, n, lam, y, theta, sign,
                                                      a, b, x):
        if family == "hyp_mp":
            theta *= sign  # the hyperbolic family takes either sign of theta
        value, reference = _series_and_reference(family, n, lam, y, theta, a, b, x)
        assert value == pytest.approx(float(reference), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("family, lam, y, theta, a, b", [
        # verify's closed forms: readme-verify (rep a) and the rep-c default;
        # then the rep-b one of `verify --A -1 --mu 2 --kappa 1 --omega 0.3`,
        # whose series needs 80 digits at n = 20 and 824 at n = 400
        ("hyp_mp", 1.0, 0.0, 1.0986122886681096, 1.0, 1.0),
        ("mod_cdh", 2.0, 0.5, 1.0, 2.0, 0.5),
        ("hyp_mp", 2.0, 2.0, -1.3862943611198904, 1.0, 1.0),
    ])
    @pytest.mark.parametrize("n", [160, 400])
    def test_large_orders_match_mpmath_hypergeometric_functions(self, family, n, lam, y,
                                                                theta, a, b):
        value, reference = _series_and_reference(family, n, lam, y, theta, a, b, 0.0,
                                                  dps=1000)
        assert value == pytest.approx(float(reference), rel=1e-14, abs=0.0)

    @staticmethod
    def _power_family(N, c, seen):
        # u_k = c^k, so v_n = sum_k (-1)^k C(n, k) c^k = (1 - c)^n exactly; the
        # terms reach (1 + c)^n, so about n log10((1 + c)/|1 - c|) digits cancel
        def terms():
            seen.append(mpmath.mp.dps)
            return ([1] * N, [1] * N, c()), ([1] * N, [1] * N, None)
        return terms

    def test_cancellation_raises_the_precision(self):
        # c = 1 + 2^-10: v_30 = 2^-300 under ~99 cancelled digits, which the
        # 40-digit start cannot hold; the result is exact
        seen = []
        values = terminating_series(30, self._power_family(30, lambda: 1 + mpmath.mpf(2) ** -10,
                                                           seen))
        assert seen[0] == 40 and seen[-1] >= 99 + 20
        np.testing.assert_array_equal(values, [(-2.0 ** -10) ** n for n in range(31)])

    def test_refuses_beyond_max_dps(self):
        # c = 1 + 2^-100 cancels ~30 digits per order: ~4100 at n = 135
        with pytest.raises(ValueError, match="more than 4000 would be needed"):
            terminating_series(135, self._power_family(135, lambda: 1 + mpmath.mpf(2) ** -100,
                                                       []))

    def test_exact_zero_at_two_precisions(self):
        # c = 1: every v_n with n >= 1 is exactly zero at 40 digits and again at
        # the precision where its rounding bound 7 * 2^n * 10^-dps lies below the
        # smallest double, which makes it an exact zero, not a total cancellation
        seen = []
        values = terminating_series(6, self._power_family(6, lambda: mpmath.mpf(1), seen))
        assert len(seen) == 2 and seen[0] == 40 and seen[1] >= 324 + math.log10(7 * 2 ** 6)
        np.testing.assert_array_equal(values, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        # L_1^nu(x) = nu + 1 - x, and S_1 = 1 - (lam^2 + y^2)/((lam+a)(lam+b)) is 0
        # at lam = a = b = 1, y^2 = 3
        assert laguerre_series(1, 0.5, 1.5) == 0.0
        assert cdh_series(1, 1.0, 3.0, 1.0, 1.0) == 0.0

    def test_rounded_argument_is_no_exact_zero(self):
        # z = 1 - e^{2 theta} = 1 - 1e-99 rounds to 1 at 40 and at 80 digits, so
        # S_1 = 1 - z is exactly zero there; P_1 = 3 e^theta = 9.28e-50 is in
        # double range, and the series gives it or refuses
        try:
            value = hyp_mp_series(1, 1.5, 1.5, -114.0)
        except ValueError:
            return
        assert value == pytest.approx(9.28005003392568e-50, rel=1e-12, abs=0.0)
