"""Generalized Gauss-Laguerre quadrature and the power-law radial measure.

All radial inner products are evaluated in the mapped coordinate x = (omega r)^beta,
where dr = +-(1/(omega beta)) x^(-1+1/beta) dx for +-beta > 0, so that every
integrand carries an exact x^nu e^{-x} envelope and a Gauss-Laguerre rule of
matching nu integrates the polynomial remainder exactly.  A rule weighs the
integrand itself, envelope included (`QuadratureRule`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orthopoly import laguerre_functions, laguerre_offdiag, sqrt_psi0

__all__ = [
    "QuadratureRule",
    "RadialMeasure",
    "gauss_laguerre",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating f dx on (0, inf).

    Nodes are the roots of L_order^nu, strictly increasing and positive.  The
    weights belong to the integrand itself: sum_i w_i f(x_i) = int f dx exactly
    for f = x^nu e^{-x} p(x) with deg p <= 2 order - 1.  They are
    w_i = 1/(x_i psi_order'(x_i)^2) = lambda_i e^{x_i} x_i^{-nu}, lambda_i the
    Christoffel weights of x^nu e^{-x}, and no Gamma function enters them."""

    order: int
    nu: float
    nodes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class RadialMeasure:
    """The coordinate map x = (omega r)^beta and its integration measure."""

    beta: float
    omega: float

    def __post_init__(self):
        if self.beta == 0.0:
            raise ValueError("beta must be nonzero")
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")

    def x_of_r(self, r):
        return np.power(self.omega * np.asarray(r, dtype=float), self.beta)

    def r_of_x(self, x):
        return np.power(np.asarray(x, dtype=float), 1.0 / self.beta) / self.omega

    @property
    def jacobian_prefactor(self) -> float:
        """1/(omega |beta|), the constant in dr = x^(-1+1/beta) dx / (omega |beta|)."""
        return 1.0 / (self.omega * abs(self.beta))


# Largest rule gauss_laguerre builds, checked before anything is allocated.  The
# nodes come from a dense order x order Jacobi matrix and an O(order^3) eigvalsh:
# 8 MB and ~0.13 s at 1000 on one BLAS thread (0.08 s on two; 2-vCPU x86-64
# host), against 0.012 s for the one psi pass; room for the orders to ~800 a
# dense solve serves well; an order of 10^5 would ask for 75 GiB.
MAX_ORDER = 1000


def gauss_laguerre(order: int, nu: float) -> QuadratureRule:
    """Generalized Gauss-Laguerre rule for the envelope x^nu e^{-x}.

    Nodes come from the eigenvalues of the symmetric Jacobi matrix of the
    Laguerre recurrence (diagonal 2k+nu+1, off-diagonal b_k = sqrt(k(k+nu))).
    One pass of psi_order^nu at those nodes gives
    g = x psi_n' = (n + (nu-x)/2) psi_n - b_n psi_{n-1}, which serves both one
    vectorised Newton step, x <- x - x psi_n/g, and the weights
    w_i = 1/(x_i psi_order'(x_i)^2) = x_i/g_i^2 at the stepped nodes
    (QuadratureRule).  g' = -(n + (nu+1)/2 - x/4 - nu^2/(4x)) psi_n vanishes at
    a root, so g read off a node that is delta from the root errs by
    O(delta^2), as does the stepped node.  A ValueError when sqrt(psi_0)
    underflows at the largest node, where the functions leave double range.
    """
    if not 1 <= order <= MAX_ORDER or order != int(order):
        raise ValueError(f"quadrature order must be an integer from 1 to {MAX_ORDER}, "
                         f"got {order}")
    if nu <= -1:
        raise ValueError(f"Gauss-Laguerre weight requires nu > -1, got {nu}")

    b = laguerre_offdiag(order, nu)
    k = np.arange(order, dtype=float)
    jacobi = np.diag(2.0 * k + nu + 1.0) + np.diag(b[1:-1], 1) + np.diag(b[1:-1], -1)
    nodes = np.linalg.eigvalsh(jacobi)
    if sqrt_psi0(nu, nodes[-1]) < np.finfo(float).tiny:  # the recurrence would start subnormal
        raise ValueError(f"Gauss-Laguerre rule of order {order}, nu={nu} leaves double "
                         f"range: sqrt(psi_0) underflows at its largest node, {nodes[-1]:.6g}")

    # the checks below turn any inf/nan left by the Newton step into a ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        psi = laguerre_functions(order, nu, nodes)
        x_dpsi = (order + (nu - nodes) / 2.0) * psi[order] - b[order] * psi[order - 1]
        nodes = nodes - nodes * psi[order] / x_dpsi

        # written as `not all(...)` so that nan nodes are rejected too
        if not (np.all(nodes > 0.0) and np.all(np.diff(nodes) > 0.0)):
            raise ValueError(
                f"Gauss-Laguerre node computation failed for order={order}, nu={nu}: "
                "nodes not positive strictly increasing"
            )

        weights = nodes / x_dpsi ** 2
    if np.any(~np.isfinite(weights)) or np.any(weights <= 0.0):
        raise ValueError(
            f"Gauss-Laguerre weight computation failed for order={order}, nu={nu}"
        )
    return QuadratureRule(order=order, nu=nu, nodes=nodes, weights=weights)
