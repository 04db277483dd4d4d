"""Three-term recursions for the expansion coefficients and their closed forms.

The wave equation projected on the basis gives the raw relation D_n f_n
+ B_{n-1} f_{n-1} + B_n f_{n+1} = 0 on the basis coefficients f_n: the rows of
the matrix `wave_operator.build_operator`.  `build_recursion` gives the natural
relation below; its coefficients map an index array to an array, so a solve
evaluates them once per pass (kernel `orthopoly.forward_recurrence`).

There is one convention: f_0 = 1, the overall factor is fixed later by
wavefunction normalization, and f_n = R_n s_n, with R_n the running product
(`rescale`)

    R_0 = 1,   R_n = R_{n-1} sqrt(n/(n+nu))  or its reciprocal,

the direction being the representation's (`basis.Family.r_step`).  The natural
sequence s_n (s_0 = 1) satisfies the representation's natural relation
(`basis.Family.relation`): a hyperbolic Meixner-Pollaczek or a modified
continuous dual Hahn recurrence, so it has closed forms evaluated by
`orthopoly`.  R_n^2 = n!/(nu+1)_n (or its inverse) is a ratio of Gamma
functions taken one step at a time; no Gamma function is formed, so R_n stays
in double range long after Gamma(n+1+nu) has left it.

The production route (`coefficient_sequence`) is float arithmetic: a single
running product where the closed form is a single term (`Family.product`),
else forward recurrence on the natural relation, where the pinned sequence is
the dominant solution.  The closed forms (`closed_form_sequence`) are its
oracle, and it is theirs.  In the Meixner-Pollaczek family `basis.sector_sign`
picks the sector of every route.  Every route reads one record, the basis
(`basis.BasisParams`), whose properties are the relations' constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basis import BasisParams, Rep
from .orthopoly import forward_recurrence

__all__ = [
    "ThreeTermRecursion",
    "build_recursion",
    "solve_forward",
    "coefficient_sequence",
    "closed_form_sequence",
    "rescale",
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


def build_recursion(rep: Rep, basis: BasisParams, nu: float) -> ThreeTermRecursion:
    """The natural relation of the s_n, the representation's `Family.relation`.
    A `rep` or `nu` not those of `basis` raises ValueError, and so does
    |rho| = 1 in a/b."""
    if rep is not basis.rep or nu != basis.nu:
        raise ValueError(f"representation {rep.value} with nu = {nu} does not match the "
                         f"basis ({basis.rep.value}, nu = {basis.nu})")
    return ThreeTermRecursion(*rep.family.relation(basis))


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


def coefficient_sequence(basis: BasisParams, N: int) -> np.ndarray:
    """s_0..s_N of the natural relation, in float arithmetic with O(N) work.

    Where the representation's `Family.product` exists (lam + y = 0) the
    pinned sequence is that single running product; everywhere else it is
    dominant and forward recurrence follows it.  Raises ValueError at |rho| = 1
    in a/b and if the sequence leaves double range."""
    rec = build_recursion(basis.rep, basis, basis.nu)  # refuses |rho| = 1 in a/b
    if N < 0:
        raise ValueError("N must be non-negative")
    product = basis.rep.family.product
    if product is None:
        return solve_forward(rec, N)
    return _check_finite(product(basis, N), "coefficient product")


def closed_form_sequence(basis: BasisParams, N: int) -> np.ndarray:
    """The natural sequence s_0..s_N from the orthogonal-polynomial closed form
    of the representation (`Family.closed_form`).

    Values come from one terminating-series family per sequence, at a
    precision its worst cancellation leaves intact; they are exact even where
    the coefficient sequence is the decaying (minimal) solution of the
    recursion.  The sum is integer arithmetic: mpmath rounds at most two
    constants per precision (e^{-theta} and 1 - e^{2 theta} in reps a/b, none in
    rep c), and the rest is O(N) integer products and O(N^2) exact integer
    additions, with each sum's rounding bound (N+1) M_n 10^-dps, M_n the sum of
    its terms' magnitudes (`orthopoly.terminating_series`).  This is the
    oracle the float routes of `coefficient_sequence` are judged against, not
    the production path.
    """
    if N < 0:
        raise ValueError("N must be non-negative")
    return basis.rep.family.closed_form(basis, N)


def rescale(basis: BasisParams, N: int) -> np.ndarray:
    """R_0..R_N, the running product with f_n = R_n s_n (module docstring).

    R_0 = 1 and each step is the representation's `Family.r_step`.  Raises
    ValueError when a factor leaves double range."""
    n = np.arange(1.0, N + 1.0)
    steps = basis.rep.family.r_step(n, basis.nu)
    with np.errstate(over="ignore"):
        factors = np.cumprod(np.r_[1.0, steps])
    return _check_finite(factors, f"scaling factor R_n at nu = {basis.nu:.6g}")
