"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 8a (interior residual decreasing with the truncation, for every
representation) is implemented exactly as stated and is expected to fail for
representations a and c: their coefficient recursions pin the dominant
(growing) solution, so the truncated series is a weak/formal expansion whose
pointwise residual does not shrink on a fixed window.  Representation b has a
genuinely normalizable sector (beta*kappa < 0, beta*A > 0, any rho > 0 other
than the diagonal case rho = 1, where the closed form truncates to a decaying
exponential) and passes.  The projected
(weak-form) identities, which carry the actual mathematical content of the
tridiagonal construction, pass everywhere at 1e-8..1e-14.
"""

import math

import numpy as np

from conftest import PARAM_SETS, build_case
from diracpl.basis import (PhysicalParams, derived_params, kinetic_balance_apply, phi_minus,
                           phi_minus_form, phi_plus_form, select_representation)
from diracpl.orthopoly import (cdh_eval, cdh_series, cdh_weight, gamma_ratio,
                               hyp_mp_eval, hyp_mp_series, laguerre_all,
                               laguerre_deriv, laguerre_eval, laguerre_series,
                               mod_cdh_eval, mod_cdh_series, mp_eval, mp_series,
                               mp_weight)
from diracpl.quadrature import gauss_laguerre
from diracpl.recursion import build_recursion, closed_form_sequence, solve_forward
from diracpl.solution import (assemble, default_r_grid, diagonal_conditions_scan,
                              diagonal_special_case, dirac_residual, evaluate_grid,
                              map_params, negative_energy_solution, residual_scale,
                              second_order_grid, second_order_residual, solve,
                              swap_energy, weak_form_boundary_check)
from diracpl.wave_operator import build_operator, matrix_element_numeric

NU_GRID = [-0.5, 0.0, 1.0, 2.5]
X_GRID = np.sort(np.random.default_rng(20250809).uniform(1e-3, 50.0, size=40))

# per-representation parameter sets for the convergence study; the b set sits
# in the decaying sector (rho = 4)
CONVERGENCE_SETS = {
    "a": (dict(A=3.0, mu=-2.0, kappa=1), dict(omega=1.0)),
    "b": (dict(A=1.0, mu=-1.5, kappa=-3), dict(omega=(2.0 / (2.5 * 4.0)) ** 0.4)),
    "c": (dict(A=1.0, mu=2.0, kappa=-1), dict()),
}


def report(criterion, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert passed, line


def test_criterion_1_laguerre_identity_suite():
    worst = 0.0
    worst_diffeq = 0.0
    for nu in NU_GRID:
        for n in range(21):
            table = laguerre_all(n + 2, nu, X_GRID)
            up = laguerre_all(n + 1, nu + 1.0, X_GRID)
            lnm1 = table[n - 1] if n >= 1 else np.zeros_like(X_GRID)
            # three-term relation in x
            lhs = X_GRID * table[n]
            rhs = (2 * n + nu + 1) * table[n] - (n + nu) * lnm1 - (n + 1) * table[n + 1]
            scale = np.maximum.reduce([np.abs(lhs), (n + 1) * np.abs(table[n + 1]),
                                       np.ones_like(lhs)])
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
            # parameter-lowering relation (needs nu > 0)
            if nu > 0:
                low = laguerre_all(n + 1, nu - 1.0, X_GRID)
                rhs2 = (n + nu) * low[n] - (n + 1) * low[n + 1]
                scale2 = np.maximum.reduce([np.abs(lhs), (n + 1) * np.abs(low[n + 1]),
                                            np.ones_like(lhs)])
                worst = max(worst, float(np.max(np.abs(lhs - rhs2) / scale2)))
            # parameter-raising difference
            if n >= 1:
                rhs3 = up[n] - up[n - 1]
                scale3 = np.maximum.reduce([np.abs(table[n]), np.abs(up[n]),
                                            np.ones_like(lhs)])
                worst = max(worst, float(np.max(np.abs(table[n] - rhs3) / scale3)))
            # derivative relation and differential equation on a subgrid
            for x in X_GRID[::5]:
                d1 = laguerre_deriv(n, nu, x)
                ln = table[n][0] if False else laguerre_eval(n, nu, x)
                if n >= 1:
                    oracle = -laguerre_series(n - 1, nu + 1.0, x)
                    s = max(abs(oracle), 1.0)
                    worst = max(worst, abs(d1 - oracle) / s)
                d1m = laguerre_deriv(n - 1, nu, x) if n >= 1 else 0.0
                lnm = laguerre_eval(n - 1, nu, x) if n >= 1 else 0.0
                d2 = (n * d1 - (n + nu) * d1m) / x - (n * ln - (n + nu) * lnm) / x ** 2
                res = x * d2 + (nu + 1.0 - x) * d1 + n * ln
                worst_diffeq = max(worst_diffeq, abs(res) / (abs(ln) + 1.0))
    passed = worst < 1e-10 and worst_diffeq < 1e-8
    report(1, passed, f"Laguerre identities max rel {worst:.2e} (tol 1e-10), "
                      f"differential equation {worst_diffeq:.2e} (tol 1e-8)")


def test_criterion_2_orthogonality():
    # Laguerre Gram against x^nu e^{-x}
    worst_lag = 0.0
    for nu in (-0.5, 0.0, 2.5):
        rule = gauss_laguerre(32, nu)
        weights = rule.weights * rule.nodes ** nu * np.exp(-rule.nodes)  # against x^nu e^{-x}
        table = laguerre_all(20, nu, rule.nodes)
        for n in range(21):
            diag = gamma_ratio(n + nu + 1.0, n + 1.0)
            got = np.dot(weights, table[n] * table[n])
            worst_lag = max(worst_lag, abs(got - diag) / diag)
            for m in range(n + 1, 21):
                worst_lag = max(worst_lag, abs(np.dot(weights, table[n] * table[m])) / diag)

    # Meixner-Pollaczek family on the line, truncated trapezoid
    worst_mp = 0.0
    for lam, theta in [(0.75, math.pi / 3.0), (1.5, 2.0), (2.5, 1.0)]:
        half = 5.0
        while mp_weight(half, lam, theta) + mp_weight(-half, lam, theta) > 1e-16:
            half *= 1.5
        y = np.linspace(-half, half, 6001)
        w = np.array([mp_weight(v, lam, theta) for v in y])
        table = np.array([[mp_eval(n, lam, v, theta) for v in y] for n in range(6)])
        for n in range(6):
            diag_exact = gamma_ratio(n + 2.0 * lam, n + 1.0)
            diag = np.trapezoid(w * table[n] * table[n], y)
            worst_mp = max(worst_mp, abs(diag - diag_exact) / diag_exact)
            for m in range(n + 1, 6):
                off = np.trapezoid(w * table[n] * table[m], y)
                worst_mp = max(worst_mp, abs(off) / diag_exact)

    # continuous dual Hahn family on the half line
    worst_cdh = 0.0
    for lam, a, b in [(0.6, 0.8, 1.2), (1.0, 1.0, 1.0), (1.5, 0.7, 2.0)]:
        y = np.linspace(1e-8, 45.0, 4501)
        w = np.array([cdh_weight(v, lam, a, b) for v in y])
        table = np.array([[cdh_eval(n, lam, v * v, a, b) for v in y] for n in range(6)])
        for n in range(6):
            diag_exact = (gamma_ratio(n + 1.0, n + lam + a) * gamma_ratio(n + a + b, n + lam + b))
            diag = np.trapezoid(w * table[n] * table[n], y)
            worst_cdh = max(worst_cdh, abs(diag - diag_exact) / diag_exact)
            for m in range(n + 1, 6):
                off = np.trapezoid(w * table[n] * table[m], y)
                worst_cdh = max(worst_cdh, abs(off) / diag_exact)

    passed = worst_lag < 1e-10 and worst_mp < 1e-6 and worst_cdh < 1e-6
    report(2, passed, f"Laguerre Gram {worst_lag:.2e} (tol 1e-10), "
                      f"line family {worst_mp:.2e}, half-line family {worst_cdh:.2e} (tol 1e-6)")


def test_criterion_3_dual_definitions():
    worst = 0.0

    def tally(a, b, local):
        nonlocal worst
        worst = max(worst, abs(a - b) / max(abs(b), local, 1.0))

    for nu in NU_GRID:
        for n in (0, 3, 9, 16, 20):
            for x in X_GRID[::6]:
                tally(laguerre_eval(n, nu, x), laguerre_series(n, nu, x),
                      abs(laguerre_series(max(n - 1, 0), nu, x)))
    for lam in (0.6, 1.5):
        for theta in (0.8, 2.4):
            for y in (-2.0, 0.7):
                for n in (1, 5, 12, 20):
                    tally(mp_eval(n, lam, y, theta), mp_series(n, lam, y, theta),
                          abs(mp_series(n - 1, lam, y, theta)))
    for lam in (0.5, 1.25):
        for theta in (-0.7, 0.4, 1.2):
            for y in (-1.0, 0.8):
                for n in (1, 5, 12, 20):
                    tally(hyp_mp_eval(n, lam, y, theta), hyp_mp_series(n, lam, y, theta),
                          abs(hyp_mp_series(n - 1, lam, y, theta)))
    for lam, a, b in [(0.6, 0.8, 1.2), (1.5, 0.7, 2.0)]:
        for ysq in (0.0, 0.5, 2.0):
            for n in (1, 6, 14, 20):
                tally(cdh_eval(n, lam, ysq, a, b), cdh_series(n, lam, ysq, a, b),
                      abs(cdh_series(n - 1, lam, ysq, a, b)))
        for y in (0.0, 0.9, 2.2):
            for n in (1, 6, 14, 20):
                tally(mod_cdh_eval(n, lam, y, a, b), mod_cdh_series(n, lam, y, a, b),
                      abs(mod_cdh_series(n - 1, lam, y, a, b)))
    report(3, worst < 1e-10,
           f"recurrence vs terminating series, all five families: {worst:.2e} (tol 1e-10)")


def test_criterion_4_tridiagonality():
    worst_far, worst_band = 0.0, 0.0
    for label, phys_kw, sel_kw in PARAM_SETS:
        phys, basis = build_case(label)
        der = derived_params(basis, phys)
        op = build_operator(der, 13)
        scale = max(np.max(np.abs(op)), 1.0)
        for n in range(13):
            for m in range(n, min(n + 5, 13)):
                num = matrix_element_numeric(basis, phys, n, m)
                if m - n <= 1:
                    ana = op[n, m]
                    worst_band = max(worst_band, abs(num - ana) / max(abs(ana), 1e-30))
                else:
                    worst_far = max(worst_far, abs(num) / scale)
    passed = worst_far < 1e-8 and worst_band < 1e-8
    report(4, passed,
           f"{len(PARAM_SETS)} parameter sets: far bands {worst_far:.2e}, "
           f"band agreement {worst_band:.2e} (tol 1e-8)")


def test_criterion_5_closed_form_solutions():
    worst_dual, worst_res = 0.0, 0.0
    for label, phys_kw, sel_kw in PARAM_SETS:
        phys, basis = build_case(label)
        der = derived_params(basis, phys)
        rec = build_recursion(basis.rep, der, basis.nu)
        cf = closed_form_sequence(der, 21)
        # forward recurrence loses decaying (minimal) sequences to dominant
        # contamination; the dual comparison is meaningful on the horizon
        # where the recurrence still carries the pinned solution
        growing = abs(cf[20]) >= abs(cf[0])
        horizon = 20 if growing else 12
        fwd = solve_forward(rec, horizon)
        ref = np.max(np.abs(cf[:horizon + 1]))
        worst_dual = max(worst_dual, float(
            np.max(np.abs(fwd - cf[:horizon + 1])) / ref))
        for n in range(20):
            lead = abs(rec.a(n) * cf[n]) + abs(rec.c(n) * cf[n + 1]) + 1e-300
            worst_res = max(worst_res, abs(rec.residual(cf, n)) / lead)
    passed = worst_dual < 1e-6 and worst_res < 1e-10
    report(5, passed, f"forward vs closed form {worst_dual:.2e} (tol 1e-6), "
                      f"recursion residual {worst_res:.2e} (tol 1e-10)")


def test_criterion_6_kinetic_balance():
    worst = 0.0
    for label, phys_kw, sel_kw in PARAM_SETS:
        phys, basis = build_case(label)
        r = default_r_grid(basis)
        for n in range(11):
            direct = phi_minus(basis, n, r)
            operator = kinetic_balance_apply(basis, n, r)
            scale = np.max(np.abs(operator)) + 1e-300
            worst = max(worst, float(np.max(np.abs(direct - operator)) / scale))
        # reflected-energy basis: the upper component equals the lowered-sign
        # first-order operator applied to the lower one
        reflected = map_params(PhysicalParams(**phys_kw, eps=-1))
        rbasis = select_representation(reflected, **sel_kw)
        m = rbasis.measure
        rr = default_r_grid(rbasis)
        x = m.x_of_r(rr)
        pot = reflected.kappa / rr + reflected.A * np.power(rr, -reflected.mu)
        for n in range(11):
            upper = phi_minus_form(rbasis, n).eval(x)
            lower = phi_plus_form(rbasis, n)
            # original-problem operator: phi+ = -(lam/2)(kappa/r + A/r^mu - d/dr) phi-
            orig_pot = -reflected.kappa / rr - reflected.A * np.power(rr, -reflected.mu)
            rhs = -(reflected.lam / 2.0) * (orig_pot * lower.eval(x)
                                            - lower.d_dr(m).eval(x))
            scale = np.max(np.abs(upper)) + 1e-300
            worst = max(worst, float(np.max(np.abs(upper - rhs)) / scale))
    report(6, worst < 1e-8,
           f"first-order operator reproduces the partner component, both energy "
           f"signs: {worst:.2e} (tol 1e-8)")


def test_criterion_7_diagonal_special_case():
    phys = PhysicalParams(A=2.0, mu=0.5, kappa=-1)
    sol = diagonal_special_case(phys)
    r = default_r_grid(sol.basis)
    row1, row2 = dirac_residual(sol, r)
    first = max(np.max(np.abs(row1)), np.max(np.abs(row2))) / np.max(residual_scale(sol, r))
    second = 0.0
    for comp in ("+", "-"):
        s = np.max(second_order_grid(sol, r, comp).scale)
        if s > 0.0:
            second = max(second, float(
                np.max(np.abs(second_order_residual(sol, r, comp))) / s))
    hits = diagonal_conditions_scan([k for k in range(-4, 5) if k != 0],
                                    [-2.5, -2.0, -0.5, 0.5, 1.5, 2.0, 3.0])
    unique = bool(hits) and all(
        h["n"] == 0 and h["rho"] == 1.0 and not h["beta_kappa_positive"] for h in hits)
    passed = first < 1e-8 and second < 1e-8 and unique
    report(7, passed,
           f"single-term solution residuals {first:.2e}/{second:.2e} (tol 1e-8), "
           f"conditions scan unique={unique} over n <= 40")


def test_criterion_8_convergence_behavior():
    lines = []
    decrease_ok = True
    boundary_worst = 0.0
    for rep_label, (phys_kw, sel_kw) in CONVERGENCE_SETS.items():
        phys = PhysicalParams(**phys_kw)
        seq = []
        for N in (5, 10, 20, 40):
            sol = solve(phys, N=N, **sel_kw)
            r = default_r_grid(sol.basis)
            row1, _ = dirac_residual(sol, r)
            interior = slice(5, len(r) - 5)
            seq.append(float(np.max(np.abs(row1[interior])) / np.max(residual_scale(sol, r))))
            boundary = weak_form_boundary_check(sol)
            assert boundary["resolvable"], (rep_label, N)
            boundary_worst = max(boundary_worst, boundary["relative_error"])
        monotone = all(seq[i + 1] <= 1.10 * seq[i] for i in range(3)) and seq[-1] < seq[0]
        decrease_ok = decrease_ok and monotone
        lines.append(f"rep {rep_label}: " + " -> ".join(f"{v:.2e}" for v in seq)
                     + (" (decreasing)" if monotone else " (NOT decreasing)"))
    passed = decrease_ok and boundary_worst < 1e-6
    report(8, passed,
           "interior residual over N=5,10,20,40 [" + "; ".join(lines) + "], "
           f"boundary identity {boundary_worst:.2e} (tol 1e-6)")


def test_criterion_9_negative_energy_involution():
    phys = PhysicalParams(A=3.0, mu=-2.0, kappa=1, eps=-1)
    neg = negative_energy_solution(phys, N=10, omega=1.0)
    back = swap_energy(neg)
    direct = assemble(map_params(phys),
                      select_representation(map_params(phys), omega=1.0), 10)
    rng = np.random.default_rng(20250809)
    r = np.sort(rng.uniform(0.2, 5.0, size=10))
    a1, a2 = evaluate_grid(back, r)
    b1, b2 = evaluate_grid(direct, r)
    ref = max(np.max(np.abs(b1)), np.max(np.abs(b2)))
    worst = float(max(np.max(np.abs(a1 - b1)), np.max(np.abs(a2 - b2))) / ref)
    report(9, worst < 1e-8,
           f"doubly reflected solution matches the direct one at 10 radii: "
           f"{worst:.2e} (tol 1e-8)")
