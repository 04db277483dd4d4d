"""Closed algebra of Laguerre forms.

A LaguerreForm with power p, Laguerre parameter nu and coefficient matrix c is

    sum_{k,n}  c[k, n] x^{p+k} psi_n^nu(x),

on the orthonormal Laguerre functions psi_n^nu (`orthopoly.laguerre_functions`),
which hold the normalization, the envelope e^{-x/2} and x^{nu/2}, and stay
O(1); one nu per form and integer power offsets k.  Every spinor-basis
component, every truncated series, and every radial derivative of these is
such a form: the x-derivative maps a form to a form of the same nu (via
x psi_n' = (n + (nu-x)/2) psi_n - b_n psi_{n-1}, b_n = sqrt(n(n+nu))),
multiplication by a power of x shifts p, and d/dr = omega beta x^{1-1/beta}
d/dx stays inside the algebra.  This lets residuals use exact analytic
derivatives.

A single nu per form is possible because the Laguerre parameter can be
lowered by two-term identities, x^{1/2} psi_n^nu = sqrt(n+nu+1) psi_n^{nu+1}
- sqrt(n) psi_{n-1}^{nu+1} (from L_n^nu = L_n^{nu+1} - L_{n-1}^{nu+1}, DLMF
18.9), while raising it needs a full sum over all lower orders.  A form
therefore takes the largest nu among its terms: the lower component of
representation a (terms in nu and nu-1) is written on psi^nu, that of
representation b (terms in nu and nu+1) on psi^{nu+1}.

Edge rows and columns of c that are exactly zero are trimmed, so p is the
lowest power present; with the two forms' nu it selects the Gauss-Laguerre
weight exponent of a product for exact integration.

A form may be a batch: coef of shape (..., K, M), one matrix per entry on a
shared p and nu, edges trimmed over the union of the entries.  Values carry
the batch axes in front, and two batches integrate to the Gram array of every
pair, (F_a w) F_b^T, so a whole basis is one form and one matrix product.

Inner products reuse the Laguerre-function values at a rule's nodes.  The
table psi_0..psi_M^nu is kept per (order, rule exponent, form nu), next to
the cached rule, and refilled to a larger M when a form of higher degree asks
for it.  The recurrence does not depend on M, so its first rows equal
laguerre_functions at a lower degree bit for bit.  Tables are held up to
TABLE_BYTES in total (1 MiB); the least recently used goes first, so a scan
that never reuses a rule holds no more than that.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .orthopoly import laguerre_functions, laguerre_offdiag
from .quadrature import QuadratureRule, RadialMeasure, gauss_laguerre

__all__ = ["LaguerreForm", "integrate_product", "quadrature_order"]


@dataclass(frozen=True, eq=False)
class LaguerreForm:
    """Immutable sum_{k,n} coef[..., k, n] x^{power+k} psi_n^nu(x); leading axes
    of coef, if any, index a batch of forms on one power and nu."""

    power: float
    nu: float
    coef: np.ndarray

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=float)
        used = coef.any(axis=tuple(range(coef.ndim - 2))) if coef.ndim > 2 else coef
        rows = np.flatnonzero(used.any(axis=1))
        if rows.size == 0:
            coef = coef[..., :0, :0]
        else:
            cols = np.flatnonzero(used.any(axis=0))
            coef = coef[..., rows[0]:rows[-1] + 1, :cols[-1] + 1]
            object.__setattr__(self, "power", float(self.power) + int(rows[0]))
        coef.setflags(write=False)
        object.__setattr__(self, "coef", coef)

    @property
    def is_zero(self) -> bool:
        return self.coef.size == 0

    @property
    def batch_shape(self) -> tuple:
        return self.coef.shape[:-2]

    @cached_property
    def poly_degree(self) -> int:
        """Degree in x of the polynomial part relative to the base power (batch maximum)."""
        k, n = np.nonzero(self.coef)[-2:]
        return int(np.max(k + n)) if k.size else 0

    def scaled(self, c: float) -> "LaguerreForm":
        return LaguerreForm(self.power, self.nu, c * self.coef)

    def shifted(self, dp: float) -> "LaguerreForm":
        """Multiply by x^dp."""
        return LaguerreForm(self.power + dp, self.nu, self.coef)

    def dx(self) -> "LaguerreForm":
        """Exact x-derivative; closed under the term algebra."""
        c = self.coef
        rows, cols = c.shape[-2:]
        k = np.arange(rows)[:, None]
        n = np.arange(cols)
        out = np.zeros(self.batch_shape + (rows + 1, cols))
        out[..., :rows, :] = c * (self.power + self.nu / 2.0 + k + n)
        out[..., :rows, :-1] -= c[..., 1:] * laguerre_offdiag(cols - 1, self.nu)[1:]
        out[..., 1:, :] -= 0.5 * c
        return LaguerreForm(self.power - 1.0, self.nu, out)

    def d_dr(self, measure: RadialMeasure) -> "LaguerreForm":
        """Exact radial derivative through the chain rule of x = (omega r)^beta."""
        return self.dx().shifted(1.0 - 1.0 / measure.beta).scaled(measure.omega * measure.beta)

    def eval(self, x):
        """Value at x (scalar or array), batch axes first."""
        x = np.asarray(x, dtype=float)
        if self.is_zero:
            return np.zeros(self.batch_shape + x.shape)
        cols = self.coef.shape[-1]
        table = laguerre_functions(cols - 1, self.nu, x).reshape(cols, -1)
        stripped = self._stripped_on(table, x.reshape(-1)).reshape(self.batch_shape + x.shape)
        return np.power(x, self.power) * stripped

    def _stripped_on(self, table: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """sum_{k,n} coef[..., k, n] x^k psi_n^nu(x), the form without x^power, at the
        points flat from their table psi_0..psi_M^nu, M >= columns - 1."""
        poly = self.coef @ table[:self.coef.shape[-1]]
        total = poly[..., -1, :]
        for k in range(poly.shape[-2] - 2, -1, -1):
            total = total * flat + poly[..., k, :]
        return total


def integrate_product(fa: LaguerreForm, fb: LaguerreForm, measure: RadialMeasure,
                      *, extra_power: float = 0.0):
    """Exact radial integral of fa(r) * fb(r) * x^extra_power dr on (0, inf).

    In x it is x^rest Psi_a Psi_b dx, rest = p_a + p_b + extra_power - 1 + 1/beta;
    its envelope exponent rest + (nu_a + nu_b)/2 fixes the Gauss-Laguerre rule,
    and `quadrature_order` of deg(fa) + deg(fb) integrates the polynomial
    remainder exactly.  A non-finite integrand raises ValueError.  Two single
    forms give a float; batches give the Gram array (F_a w) F_b^T of every
    pair, of shape fa.batch_shape + fb.batch_shape.
    """
    shape = fa.batch_shape + fb.batch_shape
    if fa.is_zero or fb.is_zero:
        return np.zeros(shape) if shape else 0.0
    rest = fa.power + fb.power + extra_power - 1.0 + 1.0 / measure.beta
    nu_rule = rest + (fa.nu + fb.nu) / 2.0
    if nu_rule <= -1.0:
        raise ValueError(
            f"product envelope x^{nu_rule} e^-x is not integrable against the radial "
            "measure (weight exponent <= -1)"
        )
    order = quadrature_order(fa.poly_degree + fb.poly_degree)
    rule = _cached_rule(order, nu_rule)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = rule.weights * rule.nodes ** rest
        fa_x = fa._stripped_on(_TABLES.get(rule, fa), rule.nodes)
        fb_x = fb._stripped_on(_TABLES.get(rule, fb), rule.nodes)
        value = (np.tensordot(fa_x * weights, fb_x, axes=(-1, -1)) if shape
                 else float(np.dot(weights, fa_x * fb_x)))
    if not np.all(np.isfinite(value)):
        raise ValueError(f"product integrand leaves double range at quadrature order {order}")
    return measure.jacobian_prefactor * value


def quadrature_order(degree: int) -> int:
    """The order integrate_product takes for a degree-`degree` remainder."""
    # degree // 2 + 1 nodes are exact for the remainder, but seven more cut the
    # sums' rounding about threefold, which the checks near rho = 1 need: at the
    # bare order operator-band-agreement reads 3.4e-8 > 1e-8 at rho = 1 + 1e-7.
    return max(8, degree // 2 + 8)


@lru_cache(maxsize=512)
def _cached_rule(order: int, nu: float):
    # Rules are immutable; sharing across product integrals is safe.
    return gauss_laguerre(order, nu)


# Byte bound of all Laguerre-function tables kept at rule nodes.
TABLE_BYTES = 1 << 20


class _RuleTables:
    """psi_0..psi_M^nu at the nodes of cached rules, least recently used evicted
    first so that the held tables never exceed max_bytes together."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._tables: OrderedDict[tuple, np.ndarray] = OrderedDict()

    def get(self, rule: QuadratureRule, form: LaguerreForm) -> np.ndarray:
        """A table with at least the form's columns at the rule's nodes."""
        key, cols = (rule.order, rule.nu, form.nu), form.coef.shape[-1]
        table = self._tables.get(key)
        if table is not None and len(table) >= cols:
            self._tables.move_to_end(key)
            return table
        if table is not None:
            self.nbytes -= self._tables.pop(key).nbytes
        table = laguerre_functions(cols - 1, form.nu, rule.nodes)
        table.setflags(write=False)  # shared by every later integral on this rule
        if table.nbytes <= self.max_bytes:
            while self.nbytes + table.nbytes > self.max_bytes:
                self.nbytes -= self._tables.popitem(last=False)[1].nbytes
            self._tables[key] = table
            self.nbytes += table.nbytes
        return table


_TABLES = _RuleTables(TABLE_BYTES)
