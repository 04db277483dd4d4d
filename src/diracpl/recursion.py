"""Three-term recursions for the expansion coefficients and their closed forms.

The wave equation projected on the basis gives the raw relation D_n f_n
+ B_{n-1} f_{n-1} + B_n f_{n+1} = 0 on the basis coefficients f_n: the rows of
the matrix `wave_operator.build_operator`.  `build_recursion` gives the natural
relation below; its coefficients map an index array to an array, so a solve
evaluates them once per pass (kernel `orthopoly.forward_recurrence`).

There is one convention: f_0 = 1, the overall factor is fixed later by
wavefunction normalization, and f_n = R_n s_n, with R_n the running product
(`rescale`)

    R_0 = 1,   R_n = R_{n-1} sqrt(n/(n+nu))   (representations a, b)
               R_n = R_{n-1} sqrt((n+nu)/n)   (representation c).

The natural sequence s_n (s_0 = 1) satisfies the natural relation written out
here: a hyperbolic Meixner-Pollaczek recurrence (a, b) or a modified
continuous dual Hahn recurrence (c), so it has closed forms evaluated by
`orthopoly`.  R_n^2 = n!/(nu+1)_n (or its inverse) is a ratio of Gamma
functions taken one step at a time; no Gamma function is formed, so R_n stays
in double range long after Gamma(n+1+nu) has left it.

The production route (`coefficient_sequence`) is float arithmetic.  In
representation b, lam + y = 0, so the hyperbolic Meixner-Pollaczek
2F1(-n, lam + y; 2 lam; .) is a single term and the pinned sequence is the
running product s_n = s_{n-1} (2 lam + n - 1)/n s e^{-theta'}, s = +-1 by
branch (Koekoek, Lesky & Swarttouw, "Hypergeometric Orthogonal Polynomials",
2010, sec. 9.7).  In representations a and c the pinned sequence is the
dominant solution, and forward recurrence on the natural relation follows it.
The extended-precision closed forms (`closed_form_sequence`) cost O(N)
extended-precision operations plus O(N^2) exact integer additions, and serve
only as the oracle; each route is the oracle for the other.

Branch handling for a/b: the sign of sigma_- picks the sector in every route.
With sigma_- > 0 (rho^2 > 1) the normalized coefficients read d_n(y) s_n
- (n+2 lam_mp-1) s_{n-1} - (n+1) s_{n+1} = 0, d_n(y) = 2[(n+lam_mp) cosh(theta)
+ y sinh(theta)] (`orthopoly.hyp_mp_diagonal`), while sigma_- < 0 (rho^2 < 1)
flips the sign of the s_{n-1}, s_{n+1} terms and of y; both are the single
sigma-form divided by |sigma_-|, with theta = asinh(2 rho/(rho^2-1)) throughout
(for rho^2 < 1 that arcsinh argument is itself negative, which is exactly what
makes the flipped relation hold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import Rep
from .orthopoly import forward_recurrence, hyp_mp_series_all, mod_cdh_series_all
from .wave_operator import DerivedParams, ab_diagonal

__all__ = [
    "ThreeTermRecursion",
    "build_recursion",
    "solve_forward",
    "coefficient_sequence",
    "closed_form_sequence",
    "rescale",
    "mp_lambda",
    "cdh_parameters",
]


@dataclass(frozen=True)
class ThreeTermRecursion:
    """Coefficients of a(n) s_n + b(n) s_{n-1} + c(n) s_{n+1} = 0, s_0 = 1, s_{-1} = 0;
    a, b and c map an index array n >= 0 to an array, or one index to a float."""

    a: Callable
    b: Callable
    c: Callable

    def residual(self, seq: np.ndarray, n):
        """The relation's left side at index n (an array or one index)."""
        prev = np.where(np.asarray(n) >= 1, seq[n - 1], 0.0)
        return self.a(n) * seq[n] + self.b(n) * prev + self.c(n) * seq[n + 1]


def mp_lambda(derived: DerivedParams) -> float:
    """Order parameter of the Meixner-Pollaczek-type closed forms: (nu+1)/2."""
    return (derived.nu + 1.0) / 2.0


def cdh_parameters(derived: DerivedParams) -> tuple[float, float, float, float]:
    """(lam, y, a, b) of the modified continuous dual Hahn closed form.

    lam = a = (nu+1)/2, b = d + (1-nu)/2, y^2 = z (z + rho u / p).
    """
    lam = (derived.nu + 1.0) / 2.0
    ysq = derived.z * (derived.z + derived.rho * derived.u / derived.p)
    if ysq < 0.0:
        raise ValueError(
            "closed form needs z(z + rho u/p) >= 0; outside the rest-mass-energy "
            "assignments the argument may leave the real family"
        )
    return lam, math.sqrt(ysq), lam, derived.d + (1.0 - derived.nu) / 2.0


def build_recursion(rep: Rep, derived: DerivedParams, nu: float) -> ThreeTermRecursion:
    """The natural relation of the s_n (module docstring); for representations
    a/b normalized by |sigma_-|, so the coefficients carry the sign pattern of
    sigma_-'s sector.  A `rep` or `nu` not those of `derived` raises
    ValueError, and so does |rho| = 1 in a/b."""
    if rep is not derived.rep or nu != derived.nu:
        raise ValueError(f"representation {rep.value} with nu = {nu} does not match the "
                         f"derived parameters ({derived.rep.value}, nu = {derived.nu})")
    if rep is not Rep.C and (derived.rho * derived.rho == 1.0 or derived.sigma_minus == 0.0):
        raise ValueError("|rho| = 1 degenerates the three-term recursion in representations "
                         "a/b; use representation c (rep='c') or a different omega")

    if rep is Rep.C:
        z, rho, u, p, d = derived.z, derived.rho, derived.u, derived.p, derived.d
        bracket_const = z * (z + rho * u / p) - ((nu + 1.0) / 2.0) ** 2
        return ThreeTermRecursion(
            a=lambda n: (n + nu + 1.0) * (n + d + 1.0) + n * (n + d) + bracket_const,
            b=lambda n: -n * (n + d),
            c=lambda n: -(n + nu + 1.0) * (n + d + 1.0))

    sm = derived.sigma_minus
    sgn = math.copysign(1.0, sm)
    return ThreeTermRecursion(
        a=lambda n: ab_diagonal(derived, n) / abs(sm),
        b=lambda n: -sgn * (n + nu),
        c=lambda n: -sgn * (n + 1.0))


def _check_finite(values: np.ndarray, what: str) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{what} leaves double range at n = {bad[0]}")
    return values


def solve_forward(rec: ThreeTermRecursion, N: int) -> np.ndarray:
    """Forward recurrence s_0 = 1, s_{n+1} = -(a(n) s_n + b(n) s_{n-1}) / c(n),
    with a, b and c evaluated once, over n = 0..N-1.

    Stable where the pinned sequence is the dominant solution; raises
    ValueError when it leaves double range."""
    if N < 0:
        raise ValueError("N must be non-negative")
    n = np.arange(N)
    return _check_finite(forward_recurrence(rec.a(n), rec.b(n), rec.c(n)), "forward recurrence")


def coefficient_sequence(derived: DerivedParams, N: int) -> np.ndarray:
    """s_0..s_N of the natural relation, in float arithmetic with O(N) work.

    In representation b (lam + y = 0) the pinned sequence is a single term,
    s_n = (2 lam)_n / n! (s e^{-theta'})^n with (s, theta') = (1, theta) for
    sigma_- > 0 (rho^2 > 1) and (-1, -theta) for sigma_- < 0, computed as one
    running product.
    Everywhere else the pinned sequence is dominant and forward recurrence
    follows it.  Raises ValueError at |rho| = 1 in a/b, for representation b
    off the rest-mass-energy assignments, and if the sequence leaves double
    range."""
    rec = build_recursion(derived.rep, derived, derived.nu)  # refuses |rho| = 1 in a/b
    if derived.rep is not Rep.B:
        return solve_forward(rec, N)
    if N < 0:
        raise ValueError("N must be non-negative")
    if derived.theta is None:
        raise ValueError("representation b's coefficient product exists under the "
                         "rest-mass-energy assignments only")
    s, theta = (1.0, derived.theta) if derived.sigma_minus > 0.0 else (-1.0, -derived.theta)
    k = np.arange(1.0, N + 1.0)
    steps = (2.0 * mp_lambda(derived) + k - 1.0) / k * (s * math.exp(-theta))
    with np.errstate(over="ignore"):
        values = np.cumprod(np.r_[1.0, steps])
    return _check_finite(values, "coefficient product")


def closed_form_sequence(derived: DerivedParams, N: int) -> np.ndarray:
    """The natural sequence s_0..s_N from the orthogonal-polynomial closed forms.

    a/b:  s_n = P_n(y, theta) for sigma_- > 0 (rho^2 > 1) and
          s_n = (-1)^n P_n(-y, theta) for sigma_- < 0, with the hyperbolic
          Meixner-Pollaczek family of order (nu+1)/2 and
          y = (kappa+1/2)/beta - 1/2.

    c:    s_n = modified continuous dual Hahn of order (nu+1)/2 with
          arguments from `cdh_parameters`.

    Values come from one terminating-series family per sequence, at a
    precision its worst cancellation leaves intact; they are exact even where
    the coefficient sequence is the decaying (minimal) solution of the
    recursion.  The cost is O(N) extended-precision and O(N^2) exact integer
    operations, so this is the oracle the float routes of
    `coefficient_sequence` are judged against, not the production path.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    if derived.rep is Rep.C:
        return mod_cdh_series_all(N, *cdh_parameters(derived))

    if derived.theta is None or derived.y is None:
        raise ValueError(
            "closed forms for representations a/b exist under the rest-mass-energy "
            "assignments with |rho| != 1"
        )
    sign, y = (1.0, derived.y) if derived.sigma_minus > 0.0 else (-1.0, -derived.y)
    return sign ** np.arange(N + 1) * hyp_mp_series_all(N, mp_lambda(derived), y, derived.theta)


def rescale(derived: DerivedParams, N: int) -> np.ndarray:
    """R_0..R_N, the running product with f_n = R_n s_n (module docstring).

    R_0 = 1 and each step is sqrt(n/(n+nu)), or its reciprocal in
    representation c.  Raises ValueError when a factor leaves double range."""
    n = np.arange(1.0, N + 1.0)
    steps = np.sqrt(n / (n + derived.nu))
    if derived.rep is Rep.C:
        steps = 1.0 / steps
    with np.errstate(over="ignore"):
        factors = np.cumprod(np.r_[1.0, steps])
    return _check_finite(factors, f"scaling factor R_n at nu = {derived.nu:.6g}")
