"""Three-term recursions for the expansion coefficients and their closed forms.

The wave equation projected on the basis gives the raw relation D_n f_n
+ B_{n-1} f_{n-1} + B_n f_{n+1} = 0, whose coefficients are the rows of the
tridiagonal operator: `build_recursion(..., scaling="f")` reads them from
`wave_operator.band_elements` and writes no formula of its own.  Coefficients
map an index array to an array, so a solve evaluates them once per pass; the
forward pass is the kernel `orthopoly.forward_recurrence`.
After the Gamma-ratio rescalings

    g_n = sqrt(Gamma(n+1+nu)/Gamma(n+1)) f_n     (representations a, b)
    h_n = sqrt(Gamma(n+1)/Gamma(n+nu+1)) f_n     (representation c)

the relation reduces, per family, to the natural relations written out here:
a hyperbolic Meixner-Pollaczek recurrence (a, b) or a modified continuous dual
Hahn recurrence (c), so the coefficients have closed forms evaluated by
`orthopoly`.  Both routes are implemented; each is the oracle for the other.

The production route (`coefficient_sequence`) is the float recurrence, run
in the direction that is stable for the sector (Gautschi, "Computational
aspects of three-term recurrence relations", SIAM Rev. 9, 1967).  Where the
pinned sequence grows or is dominant (representations a and c, and b with
rho < 0) forward recurrence follows it.  In representation b with rho > 0 the
pinned sequence is the decaying, minimal solution, which forward recurrence
loses to the dominant one; there Miller's backward recurrence, in ratio form,
computes it (`solve_backward`).  The extended-precision closed forms
(`closed_form_sequence`) cost O(N) extended-precision operations plus O(N^2)
exact integer additions, and serve only as the oracle.

Branch handling for a/b: with sigma_- > 0 (rho^2 > 1) the normalized
coefficients read  2[(n+lam_mp) cosh(theta) + y sinh(theta)] g_n
- (n+2 lam_mp-1) g_{n-1} - (n+1) g_{n+1} = 0, while sigma_- < 0 (rho^2 < 1)
flips the sign of the g_{n-1}, g_{n+1} terms and of the y term; both are the
single sigma-form divided by |sigma_-|, with theta = asinh(2 rho/(rho^2-1))
throughout (for rho^2 < 1 that arcsinh argument is itself negative, which is
exactly what makes the flipped relation hold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import Rep
from .orthopoly import forward_recurrence, hyp_mp_series_all, mod_cdh_series_all
from .wave_operator import DerivedParams, band_elements

__all__ = [
    "ThreeTermRecursion",
    "CoefficientSequence",
    "natural_scaling",
    "build_recursion",
    "solve_forward",
    "solve_backward",
    "minimal_sector",
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
    scaling: str  # 'f', 'g' or 'h': which rescaling of the f_n it propagates
    nu: float

    def residual(self, seq: np.ndarray, n):
        """The relation's left side at index n (an array or one index)."""
        prev = np.where(np.asarray(n) >= 1, seq[n - 1], 0.0)
        return self.a(n) * seq[n] + self.b(n) * prev + self.c(n) * seq[n + 1]


@dataclass(frozen=True)
class CoefficientSequence:
    """Expansion coefficients in one of the f/g/h scalings."""

    values: np.ndarray
    scaling: str
    nu: float

    def __len__(self) -> int:
        return len(self.values)


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


def natural_scaling(rep: Rep) -> str:
    """The scaling whose relation the closed forms satisfy: 'h' for c, 'g' for a/b."""
    return "h" if rep is Rep.C else "g"


def build_recursion(rep: Rep, derived: DerivedParams, nu: float,
                    scaling: str | None = None) -> ThreeTermRecursion:
    """The coefficient recursion in its natural scaling (or the raw 'f' one).

    scaling='f' returns the raw relation D_n f_n + B_{n-1} f_{n-1} + B_n f_{n+1}
    = 0, read off the rows of the tridiagonal operator (the analytic matrix
    elements of `derived`).  The default is the natural relation
    (`natural_scaling`): for representations a/b the g-scaled relation
    normalized by |sigma_-|, so the coefficients carry the branch's sign
    pattern; for c the h-scaled relation.  Any other scaling raises ValueError,
    and so do a `rep` or `nu` not those of `derived`, and |rho| = 1 in a/b.
    """
    if rep is not derived.rep or nu != derived.nu:
        raise ValueError(f"representation {rep.value} with nu = {nu} does not match the "
                         f"derived parameters ({derived.rep.value}, nu = {derived.nu})")
    if rep is not Rep.C and (derived.rho * derived.rho == 1.0 or derived.sigma_minus == 0.0):
        raise ValueError("|rho| = 1 degenerates the three-term recursion in representations "
                         "a/b; use representation c (rep='c') or a different omega")
    natural = natural_scaling(rep)
    scaling = natural if scaling is None else scaling
    if scaling == "f":
        return ThreeTermRecursion(
            a=lambda n: band_elements(derived, n),
            b=lambda n: band_elements(derived, n, offdiag=True),
            c=lambda n: band_elements(derived, n + 1, offdiag=True),
            scaling="f", nu=nu)
    if scaling != natural:
        raise ValueError(f"unsupported scaling {scaling!r} for representation {rep.value}")

    if natural == "h":
        z, rho, u, p, d = derived.z, derived.rho, derived.u, derived.p, derived.d
        bracket_const = z * (z + rho * u / p) - ((nu + 1.0) / 2.0) ** 2
        return ThreeTermRecursion(
            a=lambda n: (n + nu + 1.0) * (n + d + 1.0) + n * (n + d) + bracket_const,
            b=lambda n: -n * (n + d),
            c=lambda n: -(n + nu + 1.0) * (n + d + 1.0),
            scaling="h", nu=nu)

    sp, sm, zeta = derived.sigma_plus, derived.sigma_minus, derived.zeta
    lam_mp = (nu + 1.0) / 2.0
    sgn = math.copysign(1.0, sm)
    return ThreeTermRecursion(
        a=lambda n: 2.0 * ((n + lam_mp) * sp + zeta) / abs(sm),
        b=lambda n: -sgn * (n + nu),
        c=lambda n: -sgn * (n + 1.0),
        scaling="g", nu=nu)


def _check_finite(values: np.ndarray, what: str) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{what} leaves double range at n = {bad[0]}")
    return values


def solve_forward(rec: ThreeTermRecursion, N: int) -> CoefficientSequence:
    """Forward recurrence s_0 = 1, s_{n+1} = -(a(n) s_n + b(n) s_{n-1}) / c(n),
    with a, b and c evaluated once, over n = 0..N-1.

    The overall factor is fixed later by wavefunction normalization.  Stable
    where the pinned sequence is the dominant solution; raises ValueError
    when it leaves double range."""
    if N < 0:
        raise ValueError("N must be non-negative")
    n = np.arange(N)
    values = _check_finite(forward_recurrence(rec.a(n), rec.b(n), rec.c(n)),
                           "forward recurrence")
    return CoefficientSequence(values=values, scaling=rec.scaling, nu=rec.nu)


# Miller start indices: the first is 2N + _MILLER_MIN_START, doubled until two
# starts agree to _MILLER_RTOL; beyond _MILLER_MAX_START the route gives up.
_MILLER_MIN_START = 20
_MILLER_MAX_START = 1 << 18
_MILLER_RTOL = 1e-14
# Entries below this magnitude sit in or near the subnormal range, where the
# relative agreement test is meaningless.
_MILLER_TINY = 1e-290


def _miller_pass(rec: ThreeTermRecursion, N: int, start: int) -> np.ndarray:
    # r_n = s_n / s_{n-1} = -b(n) / (a(n) + c(n) r_{n+1}) for n = start..1 from
    # r_{start+1} = 0, with a, b and c evaluated once over that range.
    n = np.arange(start, 0, -1)
    ratios, r = [], 0.0
    for k, ak, bk, ck in zip(n.tolist(), *(f(n).tolist() for f in (rec.a, rec.b, rec.c))):
        den = ak + ck * r
        if den == 0.0:
            raise ValueError(f"backward recurrence not solvable: zero denominator at n = {k}")
        r = -bk / den
        ratios.append(r)
    return np.cumprod([1.0] + ratios[::-1][:N])


def solve_backward(rec: ThreeTermRecursion, N: int) -> CoefficientSequence:
    """Minimal solution with s_0 = 1 by Miller's backward recurrence, in ratio form.

    The ratios r_n = s_n/s_{n-1} run downward from a start index M (taking
    s_{M+1} = 0), and s_n = prod_{k<=n} r_k upward, so no intermediate value
    can overflow.  M starts at 2N + 20 and doubles until the first N+1 values
    of two successive starts agree to 1e-14 on every entry inside double
    range; entries that underflow are returned as (sub)normal floats or zero.
    Stable only where the pinned sequence is the minimal solution.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    start = 2 * N + _MILLER_MIN_START
    prev = _miller_pass(rec, N, start)
    while True:
        start *= 2
        vals = _miller_pass(rec, N, start)
        inside = (np.abs(vals) > _MILLER_TINY) | (np.abs(prev) > _MILLER_TINY)
        if np.all(np.abs(vals - prev)[inside] <= _MILLER_RTOL * np.abs(vals[inside])):
            break
        if start >= _MILLER_MAX_START:
            raise ValueError(f"backward recurrence did not settle by start index {start}")
        prev = vals
    values = _check_finite(vals, "backward recurrence")
    return CoefficientSequence(values=values, scaling=rec.scaling, nu=rec.nu)


def minimal_sector(derived: DerivedParams) -> bool:
    """True where the pinned coefficient sequence is the recursion's minimal solution.

    That is representation b with rho > 0.  Representation b has lam + y = 0,
    so the closed form reduces to |g_n| = (2 lam)_n / n! e^{-n |theta|}, which
    decays against the e^{+n |theta|} growth of the second solution; for
    rho < 0 the same expression grows as e^{+n |theta|}.  Outside this sector
    the pinned sequence is dominant and forward recurrence is stable."""
    return derived.rep is Rep.B and derived.rho > 0.0


def coefficient_sequence(derived: DerivedParams, N: int,
                         scaling: str | None = None) -> CoefficientSequence:
    """s_0..s_N of the recursion by the route stable in its sector.

    The recursion is the one `build_recursion` gives for `scaling`: the
    natural relation by default, the raw one for 'f'.  Backward (Miller)
    recurrence in the minimal sector, forward recurrence elsewhere; float
    arithmetic, O(N) work.  Raises ValueError if the sequence leaves double
    range."""
    rec = build_recursion(derived.rep, derived, derived.nu, scaling)
    return solve_backward(rec, N) if minimal_sector(derived) else solve_forward(rec, N)


def closed_form_sequence(derived: DerivedParams, N: int) -> CoefficientSequence:
    """Coefficients from the orthogonal-polynomial closed forms.

    a/b (g-scaled):  g_n = P_n(y, theta) for rho^2 > 1 and
                     g_n = (-1)^n P_n(-y, theta) for rho^2 < 1,
    with the hyperbolic Meixner-Pollaczek family of order (nu+1)/2 and
    y = (kappa+1/2)/beta - 1/2.

    c (h-scaled):    h_n = modified continuous dual Hahn of order (nu+1)/2
                     with arguments from `cdh_parameters`.

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
        return CoefficientSequence(values=mod_cdh_series_all(N, *cdh_parameters(derived)),
                                   scaling="h", nu=derived.nu)

    if derived.theta is None or derived.y is None:
        raise ValueError(
            "closed forms for representations a/b exist under the rest-mass-energy "
            "assignments with |rho| != 1"
        )
    sign, y = (1.0, derived.y) if derived.rho ** 2 > 1.0 else (-1.0, -derived.y)
    vals = sign ** np.arange(N + 1) * hyp_mp_series_all(N, mp_lambda(derived), y, derived.theta)
    return CoefficientSequence(values=vals, scaling="g", nu=derived.nu)


def rescale(seq: CoefficientSequence, target: str) -> CoefficientSequence:
    """Convert between the f, g and h scalings; round trips are exact inverses.

    Raises ValueError when a scaling factor or a converted coefficient leaves
    double range."""
    if target not in ("f", "g", "h"):
        raise ValueError(f"unknown scaling {target!r}")
    nu = seq.nu
    if nu <= -1.0:
        raise ValueError("scaling factors need nu > -1 (positive Gamma arguments)")
    if target == seq.scaling:
        return CoefficientSequence(values=seq.values.copy(), scaling=target, nu=nu)
    # g_n / f_n = sqrt(Gamma(n+1+nu)/Gamma(n+1)); h_n / f_n is its inverse.
    with np.errstate(over="ignore"):
        factors = np.exp([0.5 * (math.lgamma(n + 1.0 + nu) - math.lgamma(n + 1.0))
                          for n in range(len(seq.values))])
    _check_finite(factors, f"scaling factor sqrt(Gamma(n+1+nu)/Gamma(n+1)) at nu = {nu:.6g}")
    to_f = {"f": 1.0, "g": 1.0 / factors, "h": factors}[seq.scaling]
    from_f = {"f": 1.0, "g": factors, "h": 1.0 / factors}[target]
    with np.errstate(over="ignore", invalid="ignore"):
        values = seq.values * to_f * from_f
    return CoefficientSequence(values=_check_finite(values, f"{target}-scaled coefficient"),
                               scaling=target, nu=nu)
