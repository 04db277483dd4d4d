"""Spinor basis construction for the power-law radial Dirac problem.

The potential is the odd component W(r) = A / r^mu; with beta = 1 - mu and
x = (omega r)^beta the upper basis component is

    phi_n^+(r) = sqrt(omega |beta|) x^{alpha - nu/2} psi_n^nu(x),

with psi_n^nu the orthonormal Laguerre function of `orthopoly.laguerre_functions`,
which carries the normalization of the paper's a_n x^alpha e^{-x/2} L_n^nu(x),
and the lower component follows from the first-order (kinetic-balance)
operator.  Three parameter families exist, each with its rules in one `Family`
record, `rep.family`:

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
fixes tau = 1/4, gamma = kappa/beta and rho = 2A/(beta omega^beta).  A basis
carries its own physics: it is read under A = beta rho omega^beta / 2 and,
in rep c, kappa = beta gamma, so the operator's cross weights A/omega^beta -
beta rho/2 and rho beta (kappa/beta - gamma) are 0 by construction and no code
forms them (tau stays general).  The basis also carries the kappa it was
built for, and its recursion-level constants (p, sigma_-, theta, y, z, d)
are its properties, which the `Family` rules read; `derived_params` returns
the basis once a physics' kappa is checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .forms import LaguerreForm
from .orthopoly import hyp_mp_series_all, laguerre_offdiag, mod_cdh_series_all
from .quadrature import RadialMeasure

__all__ = [
    "Rep",
    "Family",
    "PhysicalParams",
    "BasisParams",
    "derived_params",
    "select_representation",
    "phi_plus",
    "phi_minus",
    "kinetic_balance_apply",
    "spinor_forms",
    "phi_plus_form",
    "phi_minus_form",
    "kinetic_balance_form",
    "sector_sign",
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

    family = property(lambda self: _FAMILIES[self], doc="The representation's `Family`.")


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
    """Constants fixing one spinor basis family, including the map x = (omega r)^beta,
    and the kappa it was built for; its recursion constants are its properties.
    tau = 1/2 and a rho whose square leaves double range are refused."""

    rep: Rep
    beta: float
    omega: float
    alpha: float
    nu: float
    gamma: float
    rho: float
    tau: float
    lam: float
    kappa: int

    def __post_init__(self):
        if self.tau == 0.5:
            raise ValueError("tau = 1/2 makes p and every band element vanish")
        if not math.isfinite(self.sigma_minus):
            raise ValueError(f"rho^2 leaves double range (rho = {self.rho:.3g}, "
                             f"omega = {self.omega:.3g})")

    @property
    def measure(self) -> RadialMeasure:
        return RadialMeasure(beta=self.beta, omega=self.omega)

    @property
    def p(self) -> float:
        return self.beta * (1.0 - 2.0 * self.tau)

    @property
    def sigma_minus(self) -> float:
        """rho^2 - 1 as a product: rho -+ 1 is exact near rho = +-1."""
        return (self.rho - 1.0) * (self.rho + 1.0)

    @property
    def theta(self) -> float | None:
        """The hyperbolic angle of the a/b recursions (y is their shift); both
        are None on the |rho| = 1 boundary."""
        sigma_minus = self.sigma_minus
        return None if sigma_minus == 0.0 else math.asinh(2.0 * self.rho / sigma_minus)

    @property
    def y(self) -> float | None:
        return None if self.sigma_minus == 0.0 else (self.kappa + 0.5) / self.beta - 0.5

    @property
    def z(self) -> float:
        return self.gamma + 1.0 / (2.0 * self.beta)

    @property
    def d(self) -> float:
        rho, beta = self.rho, self.beta
        return self.alpha + rho * self.gamma - (rho + 1.0) / 2.0 + (rho - 1.0) / (2.0 * beta)


def derived_params(basis: BasisParams, phys: PhysicalParams) -> BasisParams:
    """The basis, checked to be read under phys: a kappa not the basis' raises
    ValueError, since its constants would mix two problems."""
    if phys.kappa != basis.kappa:
        raise ValueError(f"kappa = {phys.kappa} is not the kappa = {basis.kappa} "
                         "the basis was built for")
    return basis


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


@dataclass(frozen=True)
class Family:
    """The rules that differ between the representations, one record each in
    `_FAMILIES`: hyperbolic Meixner-Pollaczek (reps a, b) or modified continuous
    dual Hahn (rep c) closed forms (Koekoek, Lesky & Swarttouw, "Hypergeometric
    Orthogonal Polynomials", 2010, secs. 9.7 and 9.3)."""

    exponents: Callable | None  # (kappa, beta) -> the fixed (alpha, nu); None: alpha free
    stencil: Callable  # (basis, n) -> `spinor_forms`' stencil, nu of the lower form
    band: Callable  # (basis, k, offdiag, common) -> D_k, or B_{k-1} if offdiag
    relation: Callable  # basis -> (a, b, c) of the natural relation (`recursion`)
    product: Callable | None  # (basis, N) -> s_0..s_N as one product; None: recurrence
    closed_form: Callable  # (basis, N) -> s_0..s_N from the closed form
    r_step: Callable  # (n, nu) -> R_n/R_{n-1} of `recursion.rescale`


def sector_sign(basis: BasisParams) -> float:
    """+1 for sigma_- > 0 (rho^2 > 1), else -1: the sector of every a/b route.

    With sigma_- > 0 the normalized coefficients of the natural relation read
    d_n(y) s_n - (n+2 lam_mp-1) s_{n-1} - (n+1) s_{n+1} = 0, d_n(y) =
    2[(n+lam_mp) cosh(theta) + y sinh(theta)] (`orthopoly.hyp_mp_diagonal`),
    while sigma_- < 0 flips the sign of the s_{n-1}, s_{n+1} terms and of y;
    both are the single sigma-form divided by |sigma_-|, with theta =
    asinh(2 rho/(rho^2-1)) throughout (for rho^2 < 1 that arcsinh argument is
    itself negative, which is exactly what makes the flipped relation hold)."""
    return 1.0 if basis.sigma_minus > 0.0 else -1.0


def _stencil_on_nu(basis: BasisParams, n):
    """-(1+rho) b_n psi_{n-1} + [2(g+a-(nu+1)/2) + 2 rho (n+(nu+1)/2)] psi_n
    + (1-rho) b_{n+1} psi_{n+1}, on psi^nu."""
    a, nu, g, rho = basis.alpha, basis.nu, basis.gamma, basis.rho
    b = np.array(laguerre_offdiag(len(n), nu))
    return np.array([[-(1.0 + rho) * b[:-1],
                      2.0 * (g + a - (nu + 1.0) / 2.0) + 2.0 * rho * (n + (nu + 1.0) / 2.0),
                      (1.0 - rho) * b[1:]]]), nu


def _stencil_on_nu_plus_1(basis: BasisParams, n):
    """2(g+a) x^p L_n^nu - x^{p+1} [(1-rho) L_n^{nu+1} + (1+rho) L_{n-1}^{nu+1}],
    written on psi^{nu+1}: the nu term is mapped there by x^{1/2} psi_m^nu =
    sqrt(m+nu+1) psi_m^{nu+1} - sqrt(m) psi_{m-1}^{nu+1}, since the form's
    integrability needs its factor x."""
    a, nu, g, rho = basis.alpha, basis.nu, basis.gamma, basis.rho
    down, up = np.sqrt(n), np.sqrt(n + nu + 1.0)
    return np.array([[-2.0 * (g + a) * down, 2.0 * (g + a) * up],
                     [-(1.0 + rho) * down, -(1.0 - rho) * up]]), nu + 1.0


def ab_diagonal(basis: BasisParams, k):
    """X_k = (2k+1+nu) sigma_+ + 2 zeta of representations a/b, sigma_+ = rho^2 + 1
    and zeta = (nut - 1) rho with nut = (2 kappa + 1)/beta, over an index
    array k: D_k = common p X_k, and the natural relation's diagonal is
    X_k/|sigma_-|.  Written with rho^2 + 1 = (rho-1)^2 + 2 rho, so the part
    that vanishes as rho -> 1 (X_0 of representation b, where nu + nut = 0) is a
    product, not a difference of rounded O(1) terms."""
    k = np.asarray(k)
    rho, nu = basis.rho, basis.nu
    nut = (2.0 * basis.kappa + 1.0) / basis.beta
    return (2.0 * k + 1.0 + nu) * (rho - 1.0) ** 2 + 2.0 * rho * (2.0 * k + nu + nut)


def _mp_band(basis: BasisParams, k, offdiag: bool, common: float):
    """D_k = common p X_k (`ab_diagonal`); B_{k-1} = -common p sigma_- sqrt(k (k+nu))."""
    if not offdiag:
        return common * basis.p * ab_diagonal(basis, k)
    return -common * basis.p * basis.sigma_minus * np.sqrt(k * (k + basis.nu))


def _cdh_band(basis: BasisParams, k, offdiag: bool, common: float):
    """The band of the free-alpha basis."""
    alpha, beta, gamma, nu = basis.alpha, basis.beta, basis.gamma, basis.nu
    p, rho = basis.p, basis.rho
    if not offdiag:
        s = k + alpha + rho * gamma + (rho - 1.0) / (2.0 * beta)
        t = k + alpha - rho / 2.0 - 1.0 / (2.0 * beta)
        return 4.0 * common * (p * (s * s + t * t - nu * nu / 4.0))
    s = k + alpha + rho * gamma - (rho + 1.0) / 2.0 + (rho - 1.0) / (2.0 * beta)
    return -4.0 * common * (p * s) * np.sqrt(k * (k + nu))


def _mp_relation(basis: BasisParams):
    """The natural relation normalized by |sigma_-|, so the coefficients carry
    the sign pattern of sigma_-'s sector; |rho| = 1 raises ValueError."""
    if basis.rho * basis.rho == 1.0 or basis.sigma_minus == 0.0:
        raise ValueError("|rho| = 1 degenerates the three-term recursion in representations "
                         "a/b; use representation c (rep='c') or a different omega")
    nu, sm, sgn = basis.nu, basis.sigma_minus, sector_sign(basis)
    return (lambda n: ab_diagonal(basis, n) / abs(sm),
            lambda n: -sgn * (n + nu),
            lambda n: -sgn * (n + 1.0))


def _cdh_relation(basis: BasisParams):
    """The modified continuous dual Hahn relation of order (nu+1)/2."""
    z, d, nu = basis.z, basis.d, basis.nu
    bracket_const = z * z - ((nu + 1.0) / 2.0) ** 2
    return (lambda n: (n + nu + 1.0) * (n + d + 1.0) + n * (n + d) + bracket_const,
            lambda n: -n * (n + d),
            lambda n: -(n + nu + 1.0) * (n + d + 1.0))


def mp_lambda(basis: BasisParams) -> float:
    """Order parameter of the Meixner-Pollaczek-type closed forms: (nu+1)/2."""
    return (basis.nu + 1.0) / 2.0


def cdh_parameters(basis: BasisParams) -> tuple[float, float, float, float]:
    """(lam, y, a, b) of the modified continuous dual Hahn closed form.

    lam = a = (nu+1)/2, b = d + (1-nu)/2, y^2 = z^2.
    """
    lam = (basis.nu + 1.0) / 2.0
    return lam, abs(basis.z), lam, basis.d + (1.0 - basis.nu) / 2.0


def _mp_product(basis: BasisParams, N: int) -> np.ndarray:
    """Where lam + y = 0 the hyperbolic Meixner-Pollaczek 2F1(-n, lam + y;
    2 lam; .) is a single term, so s_n = (2 lam)_n / n! (s e^{-s theta})^n,
    s = `sector_sign`, is one running product (unchecked for range); |rho| = 1
    is refused before it, by `recursion.build_recursion`."""
    s = sector_sign(basis)
    k = np.arange(1.0, N + 1.0)
    steps = (2.0 * mp_lambda(basis) + k - 1.0) / k * (s * math.exp(-(s * basis.theta)))
    with np.errstate(over="ignore"):
        return np.cumprod(np.r_[1.0, steps])


def _mp_closed_form(basis: BasisParams, N: int) -> np.ndarray:
    """s_n = s^n P_n(s y, theta), s = `sector_sign`, with P_n the hyperbolic
    Meixner-Pollaczek polynomial of order (nu+1)/2 and y = (kappa+1/2)/beta - 1/2."""
    if basis.theta is None:
        raise ValueError("closed forms for representations a/b need |rho| != 1, "
                         "where theta is defined")
    sign = sector_sign(basis)
    return sign ** np.arange(N + 1) * hyp_mp_series_all(N, mp_lambda(basis),
                                                        sign * basis.y, basis.theta)


def _r_step_down(n, nu):  # R_n^2 = n!/(nu+1)_n; rep c steps up by its reciprocal
    return np.sqrt(n / (n + nu))


_FAMILIES = {
    Rep.A: Family(exponents=lambda kappa, beta: ((kappa + 1.0) / beta,
                                                 (2.0 * kappa + 1.0) / beta),
                  stencil=_stencil_on_nu, band=_mp_band, relation=_mp_relation,
                  product=None, closed_form=_mp_closed_form, r_step=_r_step_down),
    Rep.B: Family(exponents=lambda kappa, beta: (-kappa / beta, -(2.0 * kappa + 1.0) / beta),
                  stencil=_stencil_on_nu_plus_1, band=_mp_band, relation=_mp_relation,
                  product=_mp_product, closed_form=_mp_closed_form, r_step=_r_step_down),
    Rep.C: Family(exponents=None,
                  stencil=_stencil_on_nu, band=_cdh_band, relation=_cdh_relation,
                  product=None, r_step=lambda n, nu: 1.0 / _r_step_down(n, nu),
                  closed_form=lambda basis, N: mod_cdh_series_all(N, *cdh_parameters(basis))),
}


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

    exponents = rep.family.exponents
    if exponents is None:
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
        if not math.isfinite(nu * nu):  # the recursion constants hold nu^2
            raise ValueError(f"nu^2 leaves double range for representation c (alpha = {alpha!r})")
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
        alpha, nu = exponents(kappa, beta)

    return BasisParams(rep=rep, beta=beta, omega=omega, alpha=alpha, nu=nu,
                       gamma=kappa / beta, rho=rho, tau=0.25, lam=phys.lam, kappa=kappa)


def _upper(basis: BasisParams, c) -> LaguerreForm:
    """The upper form sum_n c_n phi_n^+ for coefficient rows c."""
    c = np.asarray(c, dtype=float)
    return LaguerreForm(basis.alpha - basis.nu / 2.0, basis.nu,
                        math.sqrt(basis.omega * abs(basis.beta)) * c[..., None, :])


def spinor_forms(basis: BasisParams, c) -> tuple[LaguerreForm, LaguerreForm]:
    """The spinor series sum_n c_n psi_n as its (upper, lower) Laguerre forms.

    A matrix c, one row per spinor, gives batched forms.  The upper form is the
    row sqrt(omega |beta|) c_n on psi^nu.  The lower form is the kinetic-balance
    operator applied to it: per n a 2- or 3-term stencil (`Family.stencil`),
    written with the Laguerre parameter that makes the representation's matrix
    elements band-limited.  The stencils are added as shifted vectors, highest
    shift first: each order sums elements n-1, n, n+1.
    """
    c = np.asarray(c, dtype=float)
    upper = _upper(basis, c)
    n = np.arange(c.shape[-1], dtype=float)
    pre = (basis.lam * basis.omega * basis.tau * basis.beta
           * math.sqrt(basis.omega * abs(basis.beta)))  # the upper form's scale
    if not math.isfinite(pre):  # inf times a zero stencil entry would be nan
        raise ValueError(f"lower-component scale leaves double range (omega = "
                         f"{basis.omega:.4g}, beta = {basis.beta:.4g})")
    # stencil[k, j] holds power offset k and order n - 1 + j
    stencil, nu = basis.rep.family.stencil(basis, n)
    terms = c[..., None, None, :] * (pre * stencil)
    rows, width = stencil.shape[:2]
    coef = np.zeros(c.shape[:-1] + (rows, len(n) + width - 1))  # column i holds order i - 1
    for j in reversed(range(width)):
        coef[..., j:j + len(n)] += terms[..., j, :]
    # order -1 is dropped
    return upper, LaguerreForm(basis.alpha - 1.0 / basis.beta - nu / 2.0, nu, coef[..., 1:])


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
