"""Truncated series spinor solutions, residual diagnostics, and the special cases.

A solution is chi_N = C * sum_{n=0}^N f_n psi_n with C fixed by
<chi_N|chi_N> = 1 and f_n = R_n s_n, f_0 = 1: the natural sequence s_n from
float arithmetic (a running product or forward recurrence, by the
representation's `basis.Family`: `recursion.coefficient_sequence`) times one
running product (`recursion.rescale`); the closed forms, summed in exact
integer arithmetic, are the oracle of the s_n, not the production route.
The two component forms are built from the coefficient vector in one pass
(`basis.spinor_forms`).
Because the basis satisfies the first-order (kinetic-balance) relation
identically, one row of the Dirac system vanishes by construction and the
other row carries the whole truncation error; both rows are evaluated with
exact analytic derivatives.  Each equation is one list of its separate terms:
the residual is their sum and its cancellation scale the sum of their
magnitudes.

Negative-energy (eps = -1) solutions are built by the energy reflection
A -> -A, kappa -> -kappa with the two spinor components swapped; applying the
reflection twice is the identity.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basis import (_EXCLUDED_MU, BasisParams, DerivedParams, PhysicalParams, Rep, _check_r,
                    _scale_power, ab_diagonal, derived_params, select_representation, spinor_forms)
from .forms import LaguerreForm, integrate_product, quadrature_order
from .quadrature import MAX_ORDER
from .recursion import _check_finite, coefficient_sequence, rescale
from .wave_operator import (band_elements, basis_spinor, bilinear_form,
                            matrix_element_analytic, operator_band)

__all__ = [
    "SpinorSample",
    "SeriesSolution",
    "assemble",
    "lower_norm_sq",
    "solve",
    "evaluate",
    "default_r_grid",
    "DiracGrid",
    "dirac_grid",
    "dirac_residual",
    "residual_scale",
    "SecondOrderGrid",
    "second_order_grid",
    "second_order_residual",
    "weak_form_residual",
    "weak_form_boundary_check",
    "diagonal_special_case",
    "diagonal_conditions_scan",
    "map_params",
    "swap_energy",
    "negative_energy_solution",
]


@dataclass(frozen=True)
class SpinorSample:
    """Both spinor components at one radial point."""

    r: float
    phi_plus: float
    phi_minus: float


@dataclass(frozen=True)
class SeriesSolution:
    """Normalized truncated series solution.

    coeffs holds f_0..f_N (pre-normalization, f_0 = 1); f_next = f_{N+1}
    gives the lower norm (`lower_norm_sq`) and the weak-form boundary identity;
    norm_const is C.  The series is held once, in exact scale
    (`_normalized`): series_scale = C 2^k times form_plus
    or form_minus is the normalized component.  derived is the one record of
    the basis and its recursion constants; for eps = -1 it belongs to the
    reflected (+1) problem and the component forms are already swapped, so
    `swap_energy` gives the eps = +1 partner.  Each integral of the forms takes
    the exact Gauss-Laguerre order for its degree.  eps, N and basis are read
    off the fields, so they cannot disagree.
    """

    phys: PhysicalParams
    derived: DerivedParams
    coeffs: np.ndarray
    f_next: float
    norm_const: float
    series_scale: float
    form_plus: LaguerreForm
    form_minus: LaguerreForm

    @property
    def basis(self) -> BasisParams:
        return self.derived

    @property
    def eps(self) -> int:
        return self.phys.eps

    @property
    def N(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> float:
        """Normalized expansion coefficient C * f_n."""
        return float(self.norm_const * self.coeffs[n])

    @cached_property
    def weak_form_scale(self) -> float:
        """Operator-weighted coefficient mass sum_m |C f_m| (|D_m| + |B_m| + |B_{m-1}|)."""
        diag, off = map(np.abs, operator_band(self.derived, self.N + 1))
        below = np.concatenate(([0.0], off[:-1]))
        mass = np.abs(self.norm_const * self.coeffs)
        return max(float(np.sum(mass * (diag[:-1] + off + below))), 1e-300)

    @cached_property
    def d_dr_forms(self) -> dict[str, LaguerreForm]:
        """d/dr of each component form (in exact scale), keyed "+" and "-"."""
        return {k: form.d_dr(self.basis.measure)
                for k, form in zip("+-", (self.form_plus, self.form_minus))}

    @cached_property
    def d2_dr2_forms(self) -> dict[str, LaguerreForm]:
        """d^2/dr^2 of each scaled component form, keyed "+" and "-"."""
        return {k: form.d_dr(self.basis.measure) for k, form in self.d_dr_forms.items()}


def default_r_grid(basis: BasisParams) -> np.ndarray:
    """60 log-spaced radii covering x = (omega r)^beta in [0.01, 30]; a
    ValueError when a radius is not a positive finite double."""
    with np.errstate(over="ignore"):  # an overflow to inf is refused below
        r = np.sort(basis.measure.r_of_x(np.geomspace(0.01, 30.0, 60)))
    if not 0.0 < r[0] <= r[-1] < np.inf:
        raise ValueError(f"radial grid leaves double range (omega = {basis.omega:.4g}, "
                         f"beta = {basis.beta:.4g})")
    return r


def _normalized(phys: PhysicalParams, der: DerivedParams, coeffs: np.ndarray,
                f_next: float) -> SeriesSolution:
    """The eps = +1 series solution with coefficients coeffs, scaled to unit norm.

    The component forms are built once, from c = coeffs times 2^-k, k the frexp
    exponent of max |f_n|: growing coefficients would overflow the forms'
    values and integrals, and a power of two rescales them exactly.  The upper
    norm is integrated on them and the lower one is the boundary term
    `lower_norm_sq` of c and c_{N+1} = f_next 2^-k; a ValueError when their sum
    is not a positive finite number."""
    k = math.frexp(float(np.max(np.abs(coeffs))))[1]
    c = coeffs * math.ldexp(1.0, -k)
    form_plus, form_minus = spinor_forms(der, c)
    norm_sq = (integrate_product(form_plus, form_plus, der.measure)
               + lower_norm_sq(der, c, math.ldexp(f_next, -k)))
    if not 0.0 < norm_sq < math.inf:
        raise ValueError(f"series norm^2 = {norm_sq} is not a positive finite number; "
                         "cannot normalize")
    series_scale = 1.0 / math.sqrt(norm_sq)
    return SeriesSolution(phys=phys, derived=der, coeffs=coeffs, f_next=f_next,
                          norm_const=math.ldexp(series_scale, -k), series_scale=series_scale,
                          form_plus=form_plus, form_minus=form_minus)


def lower_norm_sq(der: DerivedParams, c: np.ndarray, c_next: float) -> float:
    """<chi-|chi-> of the series sum_n c_n psi_n, n <= N, from its boundary term.

    At the rest-mass-energy assignments <u|H-1|v> = 2 <u-|v-> (`bilinear_form`),
    so <chi-|chi-> = c^T T c / 2 over n, m <= N.  c_0..c_{N+1} solve rows 0..N
    of T c = 0, so every row of T c but the last vanishes and the last lacks
    only B_N c_{N+1}: <chi-|chi-> = -c_N B_N c_{N+1} / 2, with no integral."""
    b_n = float(band_elements(der, len(c), offdiag=True))
    return -0.5 * float(c[-1]) * b_n * c_next


def assemble(phys: PhysicalParams, basis: BasisParams, N: int) -> SeriesSolution:
    """Build and normalize the N-term series solution at eps = +1.

    Raises ValueError when the coefficients or the norm leave double range, and
    before the recursion when the norm's exact order would exceed MAX_ORDER."""
    if phys.eps != 1:
        raise ValueError("assemble works at eps = +1; use negative_energy_solution")
    if N < 0:
        raise ValueError("truncation N must be non-negative")
    if (order := quadrature_order(2 * N)) > MAX_ORDER:  # <phi+|phi+>
        raise ValueError(f"N = {N} is too large: the series norm needs quadrature order "
                         f"{order}, above the largest, {MAX_ORDER}")
    der = derived_params(basis, phys)
    with np.errstate(over="ignore"):
        fall = coefficient_sequence(der, N + 1) * rescale(der, N + 1)
    _check_finite(fall, "coefficient f_n")
    return _normalized(phys, der, fall[:N + 1], float(fall[N + 1]))


def solve(phys: PhysicalParams, N: int, omega: float | None = None,
          alpha: float | None = None, rep: Rep | str | None = None) -> SeriesSolution:
    """Representation selection + assembly, dispatching on the energy sign."""
    if phys.eps == -1:
        return negative_energy_solution(phys, N, omega=omega, alpha=alpha, rep=rep)
    basis = select_representation(phys, omega=omega, alpha=alpha, rep=rep)
    return assemble(phys, basis, N)


def evaluate(sol: SeriesSolution, r) -> SpinorSample:
    """Spinor components at a single radius."""
    r = float(r)
    plus, minus = evaluate_grid(sol, r)
    return SpinorSample(r=r, phi_plus=float(plus), phi_minus=float(minus))


def evaluate_grid(sol: SeriesSolution, r) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (phi_plus, phi_minus) over a radial grid."""
    x = sol.basis.measure.x_of_r(_check_r(r))
    c = sol.series_scale
    return c * sol.form_plus.eval(x), c * sol.form_minus.eval(x)


# chi+, chi-, the two first-order Dirac rows and their cancellation scale at r.
DiracGrid = namedtuple("DiracGrid", "phi_plus phi_minus row1 row2 scale")


def dirac_grid(sol: SeriesSolution, r) -> DiracGrid:
    """chi+, chi-, the two first-order Dirac rows and their cancellation scale
    at radius r, from one evaluation of the four first-order forms.

    Row 1: (1-eps) chi+ + lam (kappa/r + A/r^mu - d/dr) chi-
    Row 2: lam (kappa/r + A/r^mu + d/dr) chi+ - (1+eps) chi-
    """
    r = _check_r(r)
    x = sol.basis.measure.x_of_r(r)
    c, lam, eps = sol.series_scale, sol.phys.lam, float(sol.eps)
    plus, minus = c * sol.form_plus.eval(x), c * sol.form_minus.eval(x)
    dplus, dminus = (c * sol.d_dr_forms[k].eval(x) for k in "+-")
    spin_orbit = lam * sol.phys.kappa / r
    potential = lam * sol.phys.A * np.power(r, -sol.phys.mu)
    rows = ([(1.0 - eps) * plus, spin_orbit * minus, potential * minus, -lam * dminus],
            [spin_orbit * plus, potential * plus, lam * dplus, -(1.0 + eps) * minus])
    return DiracGrid(plus, minus, *(sum(terms) for terms in rows),
                     sum(np.abs(term) for terms in rows for term in terms))


# The second-order residual of one component and its cancellation scale at r.
SecondOrderGrid = namedtuple("SecondOrderGrid", "residual scale")


def second_order_grid(sol: SeriesSolution, r, component: str = "+") -> SecondOrderGrid:
    """The second-order radial equation for one component at radius r, from one
    evaluation of its value and second-derivative forms:

    [-d^2/dr^2 + kappa(kappa+-1)/r^2 + A^2/r^{2 mu} + A(2 kappa +- mu)/r^{mu+1}
     - (eps^2-1)/lam^2] chi^+-

    The residual is the sum of the separate terms and the scale the sum of
    their magnitudes.  The energy term vanishes identically at eps = +-1 but is
    kept literally."""
    if component not in ("+", "-"):
        raise ValueError("component must be '+' or '-'")
    r = _check_r(r)
    kappa, A, mu, lam, eps = (sol.phys.kappa, sol.phys.A, sol.phys.mu, sol.phys.lam,
                              float(sol.eps))
    sgn = 1.0 if component == "+" else -1.0
    c, form = sol.series_scale, sol.form_plus if component == "+" else sol.form_minus
    x = sol.basis.measure.x_of_r(r)
    val = c * form.eval(x)
    d2 = c * sol.d2_dr2_forms[component].eval(x)
    terms = [-d2, kappa * (kappa + sgn) * (val / r) / r,
             A * A * np.power(r, -2.0 * mu) * val,
             A * (2.0 * kappa + sgn * mu) * np.power(r, -(mu + 1.0)) * val,
             -(eps * eps - 1.0) / lam / lam * val]
    return SecondOrderGrid(sum(terms), sum(np.abs(term) for term in terms))


def dirac_residual(sol: SeriesSolution, r):
    """Residuals of the two rows of the first-order Dirac system at radius r,
    each the sum of its terms in `dirac_grid`.

    For the basis-led component the corresponding row vanishes identically
    (kinetic balance); the other row measures the truncation error.
    """
    grid = dirac_grid(sol, r)
    if np.ndim(r) == 0:
        return float(grid.row1), float(grid.row2)
    return grid.row1, grid.row2


def residual_scale(sol: SeriesSolution, r):
    """Sum of the magnitudes of the separate terms of both Dirac rows (`dirac_grid`).

    Residuals are near-total cancellations, so pass/fail thresholds compare
    against the magnitudes of the separate terms, not their sum."""
    return dirac_grid(sol, r).scale


def second_order_residual(sol: SeriesSolution, r, component: str = "+"):
    """Residual of the second-order (Schroedinger-type) radial equation for the
    chosen component: the sum of its terms in `second_order_grid`."""
    res = second_order_grid(sol, r, component).residual
    return float(res) if np.ndim(r) == 0 else res


def weak_form_residual(sol: SeriesSolution, n) -> tuple:
    """(<psi_n|(H-eps)|chi_N>, cancellation scale), by quadrature.

    The projection is one bilinear form of psi_n against the assembled series
    chi_N = C (form_plus, form_minus): the one integral of a matrix element,
    whatever N.
    An index array n gives its projections from one batched bilinear form.
    The tridiagonal structure telescopes it: interior projections vanish up
    to quadrature error and the n = N projection equals -B_N f_{N+1}.
    The scale is the operator-weighted coefficient mass
    sum_m |C f_m| (|D_m| + |B_m| + |B_{m-1}|), the magnitude flowing through
    the quadrature; roundoff from large high-order coefficients is measured
    against it, not against the (near-zero) projection itself.  It does not
    depend on n and is computed once per solution.  The stored forms are
    projected in exact scale, and the result multiplied by series_scale.
    derived and basis belong to the eps = +1 problem at either sign, so an
    eps = -1 solution is projected as its partner swap_energy(sol)."""
    plus = sol if sol.eps == 1 else swap_energy(sol)
    value = bilinear_form(sol.derived, basis_spinor(sol.basis, n),
                          (plus.form_plus, plus.form_minus))
    return sol.series_scale * value, sol.weak_form_scale


def weak_form_boundary_check(sol: SeriesSolution) -> dict:
    """The weak-form rows 0..N from one projection (`weak_form_residual`).

    `interior` is the largest interior row, max |row n| / scale over n < N
    (0.0 at N = 0); each vanishes up to quadrature error.  Row N is compared
    with the analytic -B_N f_{N+1}, sign included.  That identity is only
    testable while the boundary term stands above the double-precision
    quadrature noise of the full coefficient mass; for strongly decaying
    sequences at large N it drops below that floor, and `resolvable` turns
    False.  Callers should treat an unresolvable comparison as vacuous."""
    rows, scale = weak_form_residual(sol, np.arange(sol.N + 1))
    interior, value = rows[:-1], rows[-1]
    b_n = matrix_element_analytic(sol.derived, sol.N + 1, sol.N)
    expected = -b_n * sol.norm_const * sol.f_next
    rel = abs(value - expected) / max(abs(expected), 1e-300)
    return {"projection": float(value), "expected": float(expected),
            "relative_error": float(rel), "scale": float(scale),
            "interior": float(np.max(np.abs(interior), initial=0.0) / scale),
            "resolvable": bool(abs(expected) >= 1e-9 * scale)}


def map_params(phys: PhysicalParams) -> PhysicalParams:
    """Energy reflection A -> -A, kappa -> -kappa, eps -> -eps."""
    return PhysicalParams(A=-phys.A, mu=phys.mu, kappa=-phys.kappa,
                          lam=phys.lam, eps=-phys.eps)


def swap_energy(sol: SeriesSolution) -> SeriesSolution:
    """The reflected-energy partner solution: components swapped, parameters
    reflected.  An involution: swap_energy(swap_energy(s)) reproduces s."""
    return replace(sol, phys=map_params(sol.phys),
                   form_plus=sol.form_minus, form_minus=sol.form_plus)


def negative_energy_solution(phys: PhysicalParams, N: int, omega: float | None = None,
                             alpha: float | None = None,
                             rep: Rep | str | None = None) -> SeriesSolution:
    """Solution at eps = -1, via the reflected eps = +1 problem.

    The reflected problem (-A, -kappa) is solved at eps = +1 and the two
    spinor components are swapped; the stored basis belongs to the reflected
    problem (its lower component leads)."""
    if phys.eps != -1:
        raise ValueError("negative_energy_solution expects eps = -1 parameters")
    return swap_energy(solve(map_params(phys), N, omega=omega, alpha=alpha, rep=rep))


def diagonal_special_case(phys: PhysicalParams) -> SeriesSolution:
    """The single-term solution where the representation turns diagonal.

    Requires beta*kappa < 0 and beta*A > 0; omega is tuned so rho = +1, which
    zeroes both the off-diagonal elements (sigma_- = 0) and the n = 0 diagonal
    element, and makes the n = 0 lower component vanish identically.  The
    resulting chi = C psi_0 = C (phi_0^+, 0) solves the Dirac system exactly.
    """
    if phys.eps != 1:
        raise ValueError("the diagonal case is constructed at eps = +1; "
                         "reflect the parameters for eps = -1")
    beta = phys.beta
    if beta * phys.kappa >= 0.0:
        raise ValueError("diagonal case requires beta*kappa < 0 (representation b)")
    if beta * phys.A <= 0.0:
        raise ValueError("diagonal case requires beta*A > 0 so that rho = +1 is reachable")
    omega = _scale_power(2.0 * phys.A / beta, 1.0 / beta, "omega",
                         f"A = {phys.A!r}, mu = {phys.mu!r}")
    basis = select_representation(phys, omega=omega)
    if abs(basis.rho - 1.0) > 1e-10:
        raise ValueError(f"omega tuning failed to reach rho = +1 (rho = {basis.rho})")
    basis = replace(basis, rho=1.0)  # snap roundoff so the degeneracy is exact

    der = derived_params(basis, phys)
    x0, x1 = ab_diagonal(der, np.arange(2))  # D_k = common p X_k, no band formed
    if der.sigma_minus != 0.0 or abs(x0) > 1e-12 * abs(x1):
        raise ValueError("diagonal reduction conditions failed: "
                         f"sigma_-={der.sigma_minus}, X_0={x0}")

    return _normalized(phys, der, np.array([1.0]), 0.0)


def diagonal_correspondence(basis: BasisParams) -> dict:
    """Parameter correspondence of the diagonal case to its single-term
    construction: nu_eff = 1/beta - 1/2 and lambda_sq_eff = omega^beta."""
    return {"nu_eff": 1.0 / basis.beta - 0.5,
            "lambda_sq_eff": basis.omega ** basis.beta}


def diagonal_conditions_scan(kappa_values, mu_values) -> list[dict]:
    """Scan the diagonalization conditions over a parameter grid.

    The off-diagonal elements vanish only for rho^2 = 1, and the diagonal
    element at index n vanishes when

        nu_t (rho + s) + 1 - rho + 2 n = 0,   nu_t = (2 kappa+1)/beta,

    with s = +1 for beta*kappa > 0 and s = -1 for beta*kappa < 0.  Returns
    every (kappa, mu, rho, n) zero (to 1e-9) with integer 0 <= n <= 40.
    """
    hits = []
    for kappa in kappa_values:
        if kappa == 0:
            continue
        for mu in mu_values:
            if float(mu) in _EXCLUDED_MU:
                continue
            beta = 1.0 - mu
            nut = (2.0 * kappa + 1.0) / beta
            s = 1.0 if beta * kappa > 0.0 else -1.0
            for rho in (1.0, -1.0):
                for n in range(41):
                    if abs(nut * (rho + s) + 1.0 - rho + 2.0 * n) < 1e-9:
                        hits.append({"kappa": kappa, "mu": mu, "rho": rho, "n": n,
                                     "beta_kappa_positive": s > 0})
    return hits
