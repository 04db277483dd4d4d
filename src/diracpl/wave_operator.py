"""Tridiagonal matrix elements of the Dirac wave operator at rest-mass energy.

In the spinor basis psi_n = (phi_n^+, phi_n^-) the operator H - 1 is
symmetric tridiagonal.  Elements are produced two independent ways:

* analytic closed forms per representation (`basis.Family.band`), written
  with the recursion constants of `basis.BasisParams`, among them p = beta
  (1 - 2 tau), which is beta/2 at the rest-mass-energy value tau = 1/4;

* direct quadrature of the bilinear form

      <u|H-eps|v> = (1-eps) <u^+|v^+> - (1+eps-1/tau) <u^-|v^->

  for any two spinors u = (u^+, u^-), v = (v^+, v^-) written as Laguerre
  forms (`bilinear_form`).  The operator's cross terms, weighted by
  kappa - beta gamma and A/omega^beta - beta rho/2, are absent: each basis
  is read under the physics it was built for (`basis`), where both are 0.
  A matrix element takes u = psi_n, v = psi_m; a weak-form projection takes
  v = chi_N, the assembled series, so it costs the same one integral
  whatever the truncation.  Batched spinors give the whole matrix from one
  Gram integral.

Each path is the oracle for the other.  This module works at eps = +1 only;
eps = -1 is reached through the energy-reflection mapping in `solution`.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisParams, PhysicalParams, _unit, derived_params, spinor_forms
from .forms import LaguerreForm, integrate_product

__all__ = [
    "band_elements",
    "matrix_element_analytic",
    "matrix_element_numeric",
    "Spinor",
    "basis_spinor",
    "bilinear_form",
    "operator_band",
    "build_operator",
]

Spinor = tuple[LaguerreForm, LaguerreForm]  # (upper, lower) components


def band_elements(basis: BasisParams, k, offdiag: bool = False):
    """Closed-form band of H-1 over an index array k (or one index): D_k =
    <psi_k|H-1|psi_k>, or with offdiag B_{k-1} = <psi_k|H-1|psi_{k-1}>, which
    sqrt(k (k+nu)) makes 0 at k = 0.  The formula is the representation's
    `Family.band`."""
    lam, omega, beta, tau = basis.lam, basis.omega, basis.beta, basis.tau
    common = lam * lam * omega * omega * beta * tau
    return basis.rep.family.band(basis, np.asarray(k), offdiag, common)


def matrix_element_analytic(basis: BasisParams, n: int, m: int) -> float:
    """Closed-form element <psi_n|H-1|psi_m>; exactly 0 for |n-m| > 1."""
    if n < 0 or m < 0:
        raise ValueError("matrix indices must be non-negative")
    return 0.0 if abs(n - m) > 1 else float(band_elements(basis, max(n, m), offdiag=n != m))


def basis_spinor(basis: BasisParams, n) -> Spinor:
    """psi_n = (phi_n^+, phi_n^-) as a pair of Laguerre forms (batched over n)."""
    return spinor_forms(basis, _unit(n))


def bilinear_form(basis: BasisParams, left: Spinor, right: Spinor):
    """<left|H-1|right> by quadrature of the literal operator expansion.

    Linear in each argument, so a projection on a series costs the same one
    integral as a single matrix element: at eps = +1 the upper-upper term
    (1 - eps) <u+|v+> vanishes, and so do the cross terms (module docstring).
    Batched spinors give the array of every pair, of shape left batch + right
    batch."""
    low_l, low_r = left[1], right[1]
    return -(2.0 - 1.0 / basis.tau) * integrate_product(low_l, low_r, basis.measure)


def matrix_element_numeric(basis: BasisParams, phys: PhysicalParams, n: int, m: int) -> float:
    """<psi_n|H-eps|psi_m> by quadrature of the literal operator expansion."""
    if phys.eps != 1:
        raise ValueError(
            "matrix elements are computed at eps = +1; eps = -1 solutions come "
            "from the energy-reflection mapping in the solution module"
        )
    return bilinear_form(derived_params(basis, phys), basis_spinor(basis, n),
                         basis_spinor(basis, m))


def operator_band(basis: BasisParams, N: int) -> tuple[np.ndarray, np.ndarray]:
    """D_0..D_N and B_0..B_{N-1}, the band of the (N+1) x (N+1) symmetric
    tridiagonal matrix of H-1 from the closed forms.  A ValueError for N < 1, a
    non-finite element, or a largest element below the normal range."""
    if N < 1:
        raise ValueError("operator size N must be >= 1")
    k = np.arange(N + 1)
    diag, off = band_elements(basis, k), band_elements(basis, k[1:], offdiag=True)
    largest = np.max(np.abs(np.r_[diag, off]))  # nan or inf if an element is not finite
    if not largest < np.inf:
        raise ValueError("matrix elements must be finite")
    if largest < np.finfo(float).tiny:  # no scale left to measure the matrix in
        raise ValueError(f"operator matrix underflows: largest element {largest:.3g}")
    return diag, off


def build_operator(basis: BasisParams, N: int) -> np.ndarray:
    """The (N+1) x (N+1) matrix of `operator_band`: D_0..D_N on the diagonal,
    B_0..B_{N-1} beside it, with its refusals."""
    diag, off = operator_band(basis, N)
    mat = np.diag(diag)
    k = np.arange(N)
    mat[k, k + 1] = mat[k + 1, k] = off
    return mat
