"""Generalized Gauss-Laguerre quadrature and the power-law radial measure.

All radial inner products are evaluated in the mapped coordinate x = (omega r)^beta,
where dr = +-(1/(omega beta)) x^(-1+1/beta) dx for +-beta > 0, so that every
integrand carries an exact x^nu e^{-x} envelope and a Gauss-Laguerre rule of
matching nu integrates the polynomial remainder exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orthopoly import gamma_ratio, laguerre_all

__all__ = [
    "QuadratureRule",
    "RadialMeasure",
    "gauss_laguerre",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating f against x^nu e^{-x} on (0, inf).

    Nodes are the roots of L_order^nu, strictly increasing and positive;
    the weights are positive and sum to Gamma(nu+1)."""

    order: int
    nu: float
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum for integrand values sampled at the nodes."""
        return float(np.dot(self.weights, values))


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
# 8 MB and ~0.07 s at 1000 (2-vCPU host), room for the orders to ~800 a dense
# solve serves well; an order of 10^5 would ask for 75 GiB.
MAX_ORDER = 1000


def _laguerre_and_derivative(order: int, nu: float, x: np.ndarray):
    """(L_order^nu(x), d/dx L_order^nu(x)) for x > 0, from one upward recurrence,
    using x L_n' = n L_n - (n+nu) L_{n-1}."""
    vals = laguerre_all(order, nu, x)
    return vals[order], (order * vals[order] - (order + nu) * vals[order - 1]) / x


def gauss_laguerre(order: int, nu: float) -> QuadratureRule:
    """Generalized Gauss-Laguerre rule for the weight x^nu e^{-x}.

    Nodes come from the eigenvalues of the symmetric Jacobi matrix of the
    Laguerre recurrence (diagonal 2k+nu+1, off-diagonal sqrt(k(k+nu))),
    then are polished by two vectorised Newton steps on L_order^nu.  Weights
    use the derivative form
    w_i = Gamma(order+nu+1)/Gamma(order+1) / (x_i [L_order^nu'(x_i)]^2),
    evaluated at the polished nodes.
    """
    if not 1 <= order <= MAX_ORDER or order != int(order):
        raise ValueError(f"quadrature order must be an integer from 1 to {MAX_ORDER}, "
                         f"got {order}")
    if nu <= -1:
        raise ValueError(f"Gauss-Laguerre weight requires nu > -1, got {nu}")

    k = np.arange(order, dtype=float)
    off = np.sqrt(k[1:] * (k[1:] + nu))
    jacobi = np.diag(2.0 * k + nu + 1.0) + np.diag(off, 1) + np.diag(off, -1)
    nodes = np.linalg.eigvalsh(jacobi)

    # Past the order where L_order^nu leaves double range the polish and the
    # weights turn inf/nan; the checks below turn that into a ValueError.
    with np.errstate(over="ignore", invalid="ignore"):
        lag, dlag = _laguerre_and_derivative(order, nu, nodes)
        for _ in range(2):
            nodes = nodes - lag / dlag
            lag, dlag = _laguerre_and_derivative(order, nu, nodes)

        # written as `not all(...)` so that nan nodes are rejected too
        if not (np.all(nodes > 0.0) and np.all(np.diff(nodes) > 0.0)):
            raise ValueError(
                f"Gauss-Laguerre node computation failed for order={order}, nu={nu}: "
                "nodes not positive strictly increasing"
            )

        weights = gamma_ratio(order + nu + 1.0, order + 1.0) / (nodes * dlag ** 2)
    if np.any(~np.isfinite(weights)) or np.any(weights <= 0.0):
        raise ValueError(
            f"Gauss-Laguerre weight computation failed for order={order}, nu={nu}"
        )
    return QuadratureRule(order=order, nu=nu, nodes=nodes, weights=weights)
