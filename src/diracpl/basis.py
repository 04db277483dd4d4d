"""Spinor basis construction for the power-law radial Dirac problem.

The potential is the odd component W(r) = A / r^mu; with beta = 1 - mu and
x = (omega r)^beta the upper basis component is

    phi_n^+(r) = sqrt(omega |beta|) x^{alpha - nu/2} psi_n^nu(x),

with psi_n^nu the orthonormal Laguerre function of `orthopoly.laguerre_functions`,
which carries the normalization of the paper's a_n x^alpha e^{-x/2} L_n^nu(x),
and the lower component follows from the first-order (kinetic-balance)
operator.  Three parameter families exist:

  rep a:  beta*kappa > 0, kappa != -1:   gamma = kappa/beta,
          alpha = (kappa+1)/beta, nu = (2 kappa + 1)/beta
  rep b:  beta*kappa < 0:                gamma = kappa/beta,
          alpha = -kappa/beta,  nu = -(2 kappa + 1)/beta
  rep c:  rho = sign(beta A) = +-1, omega = |2A/beta|^{1/beta},
          nu = 2 alpha - 1 - 1/beta (alpha free within bounds)

The default is b if beta*kappa < 0, else c if kappa = -1, else a; an explicit
request must name the default or c.  Square integrability bounds only rep c's
free alpha: alpha > max(1/beta, -1/(2 beta)), which gives alpha > 0 and
nu > -1.  Reps a and b always meet their bounds (rep a has nu > 0, rep b
nu >= 1/|beta|).

Matching the first-order operator to the Dirac equation at rest-mass energy
fixes tau = 1/4, gamma = kappa/beta and rho = 2A/(beta omega^beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .forms import LaguerreForm
from .orthopoly import laguerre_offdiag
from .quadrature import RadialMeasure

__all__ = [
    "Rep",
    "PhysicalParams",
    "BasisParams",
    "select_representation",
    "phi_plus",
    "phi_minus",
    "kinetic_balance_apply",
    "spinor_forms",
    "phi_plus_form",
    "phi_minus_form",
    "kinetic_balance_form",
]

_EXCLUDED_MU = {
    0.0: "mu = 0 gives a constant odd potential, a Coulomb-type problem "
         "(the strength plays Z/kappa); it is excluded here",
    1.0: "mu = 1 is the free-particle case (A can be absorbed into kappa); "
         "it is excluded here",
    -1.0: "mu = -1 gives a linear odd potential, the relativistic-oscillator "
          "case; it is excluded here",
}


class Rep(str, Enum):
    A = "a"
    B = "b"
    C = "c"


def _require_finite(**values) -> None:
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class PhysicalParams:
    """Inputs defining the problem: W(r) = A/r^mu, spin-orbit kappa, Compton
    length lam, and the energy sign eps (in rest-mass units)."""

    A: float
    mu: float
    kappa: int
    lam: float = 1.0
    eps: int = 1

    def __post_init__(self):
        _require_finite(A=self.A, mu=self.mu, lam=self.lam)
        if self.A == 0.0:
            raise ValueError("potential strength A must be nonzero")
        if float(self.mu) in _EXCLUDED_MU:
            raise ValueError(_EXCLUDED_MU[float(self.mu)])
        if not isinstance(self.kappa, (int, np.integer)) or self.kappa == 0:
            raise ValueError(
                f"kappa must be a nonzero integer (kappa = +-(j+1/2)), got {self.kappa!r}"
            )
        if self.lam <= 0.0:
            raise ValueError("Compton length lam must be positive")
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1 (rest-mass units)")

    @property
    def beta(self) -> float:
        return 1.0 - self.mu


@dataclass(frozen=True)
class BasisParams:
    """Constants fixing one spinor basis family, including the map x = (omega r)^beta."""

    rep: Rep
    beta: float
    omega: float
    alpha: float
    nu: float
    gamma: float
    rho: float
    tau: float
    lam: float

    @property
    def measure(self) -> RadialMeasure:
        return RadialMeasure(beta=self.beta, omega=self.omega)

def _scale_power(base: float, exponent: float, what: str, inputs: str) -> float:
    """base**exponent for the basis scale, or a ValueError naming the inputs
    that entered it when it is not a positive finite float (a large |A|, a
    user omega far from 1, or mu near the excluded mu = 1, where beta -> 0)."""
    try:
        value = base ** exponent
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(
            f"{what} = {base!r}**{exponent!r} is out of floating-point range at {inputs}")
    return value


def select_representation(phys: PhysicalParams, omega: float | None = None,
                          alpha: float | None = None, rep: Rep | str | None = None) -> BasisParams:
    """Choose the basis family from the physics and fix all its constants.

    The default and the admissible requests follow the rule in the module
    docstring.  For a/b the scale omega is free and defaults to the value
    giving |rho| = 2; at |rho| = 1 the a/b recursion degenerates, which
    `recursion.build_recursion` reports (representation c owns that boundary).
    """
    _require_finite(omega=omega, alpha=alpha)
    beta = phys.beta
    kappa = phys.kappa
    a_mu = f"A = {phys.A!r}, mu = {phys.mu!r}"  # the inputs of the default omega

    default = Rep.B if beta * kappa < 0.0 else Rep.C if kappa == -1 else Rep.A
    rep = Rep(rep or default)
    if rep not in (default, Rep.C):
        raise ValueError(
            f"representation {rep.value} does not apply at beta*kappa = {beta * kappa!r}, "
            f"kappa = {kappa}: use {default.value} (the default) or c")

    if rep is Rep.C:
        if omega is not None:
            raise ValueError(
                "omega is fixed to |2A/beta|^(1/beta) in representation c"
            )
        omega = _scale_power(abs(2.0 * phys.A / beta), 1.0 / beta, "omega", a_mu)
        rho = math.copysign(1.0, beta * phys.A)
        bound = max(1.0 / beta, -1.0 / (2.0 * beta))  # square integrability
        alpha = 1.0 + bound if alpha is None else alpha
        nu = 2.0 * alpha - 1.0 - 1.0 / beta
        if alpha <= bound or nu <= -1.0:  # at |beta| >~ 1e16, nu can round onto -1
            raise ValueError(
                f"square integrability requires alpha > {bound} for representation c "
                f"with beta={beta}, got alpha={alpha}")
    else:
        if alpha is not None:
            raise ValueError(
                f"alpha is fixed by kappa and beta in representation {rep.value}"
            )
        if omega is None:
            omega = _scale_power(abs(phys.A / beta), 1.0 / beta, "omega", a_mu)  # |rho| = 2
        elif omega <= 0.0:
            raise ValueError("omega must be positive")
        rho = 2.0 * phys.A / (beta * _scale_power(omega, beta, "omega^beta",
                                                  f"omega = {omega!r}"))
        if rep is Rep.A:
            alpha = (kappa + 1.0) / beta
            nu = (2.0 * kappa + 1.0) / beta
        else:
            alpha = -kappa / beta
            nu = -(2.0 * kappa + 1.0) / beta

    return BasisParams(rep=rep, beta=beta, omega=omega, alpha=alpha, nu=nu,
                       gamma=kappa / beta, rho=rho, tau=0.25, lam=phys.lam)


def _upper(basis: BasisParams, c) -> LaguerreForm:
    """The upper form sum_n c_n phi_n^+ for coefficient rows c."""
    c = np.asarray(c, dtype=float)
    return LaguerreForm(basis.alpha - basis.nu / 2.0, basis.nu,
                        math.sqrt(basis.omega * abs(basis.beta)) * c[..., None, :])


def spinor_forms(basis: BasisParams, c) -> tuple[LaguerreForm, LaguerreForm]:
    """The spinor series sum_n c_n psi_n as its (upper, lower) Laguerre forms.

    A matrix c, one row per spinor, gives batched forms.  The upper form is the
    row sqrt(omega |beta|) c_n on psi^nu.  The lower form is the kinetic-balance
    operator applied to it: per n a 2- or 3-term stencil, written with the
    Laguerre parameter that makes the representation's matrix elements
    band-limited.  Reps a and c share one stencil on psi^nu; rep b's nu term is
    mapped onto psi^{nu+1} by x^{1/2} psi_m^nu = sqrt(m+nu+1) psi_m^{nu+1}
    - sqrt(m) psi_{m-1}^{nu+1}, since the form's integrability needs its factor x.
    The stencils are added as shifted vectors, highest shift first: each order
    sums elements n-1, n, n+1.
    """
    c = np.asarray(c, dtype=float)
    upper = _upper(basis, c)
    n = np.arange(c.shape[-1], dtype=float)
    a, nu, g, rho = basis.alpha, basis.nu, basis.gamma, basis.rho
    pre = (basis.lam * basis.omega * basis.tau * basis.beta
           * math.sqrt(basis.omega * abs(basis.beta)))  # the upper form's scale
    if not math.isfinite(pre):  # inf times a zero stencil entry would be nan
        raise ValueError(f"lower-component scale leaves double range (omega = "
                         f"{basis.omega:.4g}, beta = {basis.beta:.4g})")
    # stencil[k, j] holds power offset k and order n - 1 + j
    if basis.rep is Rep.B:
        # 2(g+a) x^p L_n^nu - x^{p+1} [(1-rho) L_n^{nu+1} + (1+rho) L_{n-1}^{nu+1}],
        # written on psi^{nu+1}
        down, up = np.sqrt(n), np.sqrt(n + nu + 1.0)
        stencil = np.array([[-2.0 * (g + a) * down, 2.0 * (g + a) * up],
                            [-(1.0 + rho) * down, -(1.0 - rho) * up]])
        nu += 1.0
    else:
        # -(1+rho) b_n psi_{n-1} + [2(g+a-(nu+1)/2) + 2 rho (n+(nu+1)/2)] psi_n
        # + (1-rho) b_{n+1} psi_{n+1}
        b = np.array(laguerre_offdiag(len(n), nu))
        stencil = np.array([[-(1.0 + rho) * b[:-1],
                             2.0 * (g + a - (nu + 1.0) / 2.0) + 2.0 * rho * (n + (nu + 1.0) / 2.0),
                             (1.0 - rho) * b[1:]]])
    terms = c[..., None, None, :] * (pre * stencil)
    rows, width = stencil.shape[:2]
    coef = np.zeros(c.shape[:-1] + (rows, len(n) + width - 1))  # column i holds order i - 1
    for j in reversed(range(width)):
        coef[..., j:j + len(n)] += terms[..., j, :]
    # order -1 is dropped
    return upper, LaguerreForm(a - 1.0 / basis.beta - nu / 2.0, nu, coef[..., 1:])


def _unit(n) -> np.ndarray:
    """The coefficient vector of basis element n alone (a row per index of an array)."""
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("basis index must be non-negative")
    return (np.arange(np.max(n, initial=0) + 1) == n[..., None]).astype(float)


def phi_plus_form(basis: BasisParams, n) -> LaguerreForm:
    """phi_n^+ = sqrt(omega |beta|) x^{alpha-nu/2} psi_n^nu(x), batched over n."""
    return _upper(basis, _unit(n))


def phi_minus_form(basis: BasisParams, n) -> LaguerreForm:
    """Lower spinor component of basis element n, in the active representation."""
    return spinor_forms(basis, _unit(n))[1]


def kinetic_balance_form(basis: BasisParams, n) -> LaguerreForm:
    """The first-order operator route to the lower component:

    phi_n^- = (2 lam omega tau beta / x^{1/beta}) (gamma + rho x/2 + x d/dx) phi_n^+,

    built from the upper form and its analytic Laguerre derivative, never from
    the stencil of spinor_forms.  Under the rest-mass-energy parameter
    assignments this is the oracle for phi_minus_form.
    """
    fp = phi_plus_form(basis, n)  # one row of coefficients
    d = fp.dx()
    k = round(d.power + 1.0 - fp.power)  # x d/dx starts k rows above fp
    inner = np.concatenate([basis.gamma * fp.coef, (basis.rho / 2.0) * fp.coef], axis=-2)
    inner[..., k:k + d.coef.shape[-2], :d.coef.shape[-1]] += d.coef
    pre = 2.0 * basis.lam * basis.omega * basis.tau * basis.beta
    return LaguerreForm(fp.power - 1.0 / basis.beta, fp.nu, pre * inner)


def _check_r(r):
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radial coordinate must be positive")
    return r


def _at_r(basis: BasisParams, form: LaguerreForm, r):
    """A form's value at radius r (scalar or array), batch axes first."""
    val = form.eval(basis.measure.x_of_r(_check_r(r)))
    return float(val) if np.ndim(val) == 0 else val


def phi_plus(basis: BasisParams, n, r):
    """Upper basis component at radius r (scalar or array), a row per index of n."""
    return _at_r(basis, phi_plus_form(basis, n), r)


def phi_minus(basis: BasisParams, n, r):
    """Lower basis component at radius r (scalar or array)."""
    return _at_r(basis, phi_minus_form(basis, n), r)


def kinetic_balance_apply(basis: BasisParams, n, r):
    """First-order-operator route to the lower component, at radius r."""
    return _at_r(basis, kinetic_balance_form(basis, n), r)
