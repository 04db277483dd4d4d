"""Tridiagonal matrix elements of the Dirac wave operator at rest-mass energy.

In the spinor basis psi_n = (phi_n^+, phi_n^-) the operator H - 1 is
symmetric tridiagonal.  Elements are produced two independent ways:

* analytic closed forms per representation, written with

      p = beta (1 - 2 tau),   q = A / omega^beta - beta rho / 2,

  which reduce to p = beta/2, q = 0 under the rest-mass-energy parameter
  assignments (tau = 1/4, gamma = kappa/beta, rho = 2A/(beta omega^beta));

* direct quadrature of the bilinear form

      <u|H-eps|v> = (1-eps) <u^+|v^+> - (1+eps-1/tau) <u^-|v^->
          + lam omega { <u^+| x^{-1/beta} [kappa - beta gamma + q x] |v^-> + (u<->v) }

  for any two spinors u = (u^+, u^-), v = (v^+, v^-) written as Laguerre
  forms (`bilinear_form`).  A matrix element takes u = psi_n, v = psi_m; a
  weak-form projection takes v = chi_N, the assembled series, so it costs
  the same handful of integrals whatever the truncation.  Batched spinors
  give the whole matrix from the same handful of Gram integrals.

Each path is the oracle for the other.  This module works at eps = +1 only;
eps = -1 is reached through the energy-reflection mapping in `solution`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .basis import BasisParams, PhysicalParams, _unit, ab_diagonal, spinor_forms
from .forms import LaguerreForm, integrate_product

__all__ = [
    "DerivedParams",
    "derived_params",
    "band_elements",
    "ab_diagonal",
    "matrix_element_analytic",
    "matrix_element_numeric",
    "Spinor",
    "basis_spinor",
    "bilinear_form",
    "build_operator",
]

_KB_TOL = 1e-12

Spinor = tuple[LaguerreForm, LaguerreForm]  # (upper, lower) components


@dataclass(frozen=True)
class DerivedParams(BasisParams):
    """One basis with the recursion-level constants it has under one physics.

    theta and y are the hyperbolic angle and shift entering the a/b-family
    recursions; they are only defined under the rest-mass-energy assignments
    (q = 0) away from the |rho| = 1 boundary, and are None otherwise.
    """

    kappa: int
    p: float
    q: float
    sigma_plus: float
    sigma_minus: float
    zeta: float
    theta: float | None
    y: float | None
    z: float
    d: float
    u: float


def derived_params(basis: BasisParams, phys: PhysicalParams) -> DerivedParams:
    """The basis (or a DerivedParams' basis) with p, q, sigma_+-, zeta, theta, y, z, d, u."""
    beta, omega, tau, gamma, rho = basis.beta, basis.omega, basis.tau, basis.gamma, basis.rho
    if tau == 0.5:
        raise ValueError("tau = 1/2 makes p vanish; the recursion reduction needs p != 0")
    p = beta * (1.0 - 2.0 * tau)
    q = phys.A / omega ** beta - beta * rho / 2.0
    q_zero = abs(q) <= _KB_TOL * (abs(rho * beta) / 2.0 + 1.0)
    if q_zero:
        # The rest-mass-energy assignments make q vanish identically; its
        # roundoff would otherwise swamp the terms of order rho - 1 near |rho| = 1.
        q = 0.0
        if tau == 0.25:  # p = beta/2 is forced once tau takes its balanced value
            assert abs(p - beta / 2.0) <= 1e-13 * abs(beta)
    c = q / p
    # rho^2 - 1 as a product: rho -+ 1 is exact near rho = +-1
    sigma_plus = rho * rho + 1.0 + 2.0 * rho * c
    sigma_minus = (rho - 1.0) * (rho + 1.0) + 2.0 * rho * c
    if not (math.isfinite(sigma_plus) and math.isfinite(sigma_minus)):
        raise ValueError(f"rho^2 leaves double range (rho = {rho:.3g}, omega = {omega:.3g})")
    nut = (2.0 * phys.kappa + 1.0) / beta
    zeta = (nut - 1.0) * (rho + c)

    # The hyperbolic reduction of the a/b recursions exists whenever q = 0
    # away from the |rho| = 1 boundary.
    theta = y = None
    if q_zero and sigma_minus != 0.0:
        theta = math.asinh(2.0 * rho / sigma_minus)
        y = (phys.kappa + 0.5) / beta - 0.5

    z = gamma + 1.0 / (2.0 * beta)
    u = rho * beta * (phys.kappa / beta - gamma)  # exactly 0 at gamma = kappa/beta
    d = basis.alpha + rho * gamma - (rho + 1.0) / 2.0 + (rho - 1.0) / (2.0 * beta) + u / (2.0 * p)

    return DerivedParams(**{f.name: getattr(basis, f.name) for f in fields(BasisParams)},
                         kappa=phys.kappa, p=p, q=q, sigma_plus=sigma_plus,
                         sigma_minus=sigma_minus, zeta=zeta, theta=theta, y=y, z=z, d=d, u=u)


def band_elements(derived: DerivedParams, k, offdiag: bool = False):
    """Closed-form band of H-1 over an index array k (or one index): D_k =
    <psi_k|H-1|psi_k>, or with offdiag B_{k-1} = <psi_k|H-1|psi_{k-1}>, which
    sqrt(k (k+nu)) makes 0 at k = 0.  The formula is the representation's
    `Family.band`."""
    lam, omega, beta, tau = derived.lam, derived.omega, derived.beta, derived.tau
    common = lam * lam * omega * omega * beta * tau
    return derived.rep.family.band(derived, np.asarray(k), offdiag, common)


def matrix_element_analytic(derived: DerivedParams, n: int, m: int) -> float:
    """Closed-form element <psi_n|H-1|psi_m>; exactly 0 for |n-m| > 1."""
    if n < 0 or m < 0:
        raise ValueError("matrix indices must be non-negative")
    return 0.0 if abs(n - m) > 1 else float(band_elements(derived, max(n, m), offdiag=n != m))


def basis_spinor(basis: BasisParams, n) -> Spinor:
    """psi_n = (phi_n^+, phi_n^-) as a pair of Laguerre forms (batched over n)."""
    return spinor_forms(basis, _unit(n))


def bilinear_form(derived: DerivedParams, left: Spinor, right: Spinor):
    """<left|H-1|right> by quadrature of the literal operator expansion.

    Linear in each argument, so a projection on a series costs the same
    integrals as a single matrix element: one at the rest-mass-energy
    assignments, where the cross weights kappa - beta gamma and q are exactly
    0, and up to five off them.  Batched spinors give the array of every
    pair, of shape left batch + right batch."""
    beta, measure = derived.beta, derived.measure
    (up_l, low_l), (up_r, low_r) = left, right

    # at eps = +1 the upper-upper term (1 - eps) <u+|v+> vanishes
    total = -(2.0 - 1.0 / derived.tau) * integrate_product(low_l, low_r, measure)

    c0 = beta * (derived.kappa / beta - derived.gamma)  # exactly 0 at gamma = kappa/beta
    cross = 0.0
    for weight, extra in ((c0, -1.0 / beta), (derived.q, 1.0 - 1.0 / beta)):
        if weight != 0.0:
            cross += weight * (integrate_product(up_l, low_r, measure, extra_power=extra)
                               + integrate_product(low_l, up_r, measure, extra_power=extra))
    return total + derived.lam * derived.omega * cross


def matrix_element_numeric(basis: BasisParams, phys: PhysicalParams, n: int, m: int) -> float:
    """<psi_n|H-eps|psi_m> by quadrature of the literal operator expansion."""
    if phys.eps != 1:
        raise ValueError(
            "matrix elements are computed at eps = +1; eps = -1 solutions come "
            "from the energy-reflection mapping in the solution module"
        )
    return bilinear_form(derived_params(basis, phys), basis_spinor(basis, n),
                         basis_spinor(basis, m))


def build_operator(derived: DerivedParams, N: int) -> np.ndarray:
    """The (N+1) x (N+1) symmetric tridiagonal matrix of H-1 from the closed
    forms: D_0..D_N on the diagonal, B_0..B_{N-1} beside it.  A ValueError for
    N < 1, a non-finite element, or a largest element below the normal range."""
    if N < 1:
        raise ValueError("operator size N must be >= 1")
    k = np.arange(N + 1)
    mat = np.diag(band_elements(derived, k))
    mat[k[:-1], k[1:]] = mat[k[1:], k[:-1]] = band_elements(derived, k[1:], offdiag=True)
    largest = np.max(np.abs(mat))  # nan or inf if an element is not finite
    if not largest < np.inf:
        raise ValueError("matrix elements must be finite")
    if largest < np.finfo(float).tiny:  # no scale left to measure the matrix in
        raise ValueError(f"operator matrix underflows: largest element {largest:.3g}")
    return mat
