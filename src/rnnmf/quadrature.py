"""Gaussian expectation engine.

1D and correlated-pair 2D expectations by Gauss-Hermite quadrature. The pair
parameterization is the Cholesky one: u_a = mu + Sigma z_a,
u_b = mu + Sigma (c z_a + sqrt(1 - c^2) z_b).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "NonFiniteIntegrand",
    "GaussianPairSpec",
    "DEFAULT_ORDER",
    "COLLAPSE_TOL",
    "expect1",
    "expect2",
]

DEFAULT_ORDER = 64

# |c| >= 1 - COLLAPSE_TOL is treated as a perfectly (anti)correlated pair to
# avoid the sqrt(1 - c^2) cancellation; the c -> 1 limit is an evaluation
# point the correlation analysis relies on, so it must be exact.
COLLAPSE_TOL = 1e-12


class NonFiniteIntegrand(ArithmeticError):
    """The integrand returned a non-finite value at a quadrature node."""


@dataclass(frozen=True)
class GaussianPairSpec:
    """Common mean/variance and correlation of a bivariate Gaussian pair."""

    mu: float
    sigma2: float
    c: float

    def __post_init__(self):
        if not (self.sigma2 >= 0):
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2}")
        if not (abs(self.c) <= 1 + 1e-12):
            raise ValueError(f"|c| must be <= 1, got {self.c}")


@lru_cache(maxsize=8)
def _nodes(order: int):
    # physicists' Hermite nodes rescaled to the standard normal measure;
    # numpy's weights stop being finite at high orders
    if order < 1:
        raise ValueError(f"quadrature order {order} < 1")
    with np.errstate(all="ignore"):
        x, w = np.polynomial.hermite.hermgauss(order)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise ValueError(f"quadrature order {order} unsupported: Gauss-Hermite nodes or weights are not finite")
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


def _check_finite(vals, g):
    if not np.all(np.isfinite(vals)):
        name = getattr(g, "__name__", repr(g))
        raise NonFiniteIntegrand(f"integrand {name} returned a non-finite value")


def _pair_nodes(x, mu: float, sig: float, c: float):
    """u_b on the pair grid: row i pairs with u_a = mu + sig x_i."""
    root = math.sqrt(max(1.0 - c * c, 0.0))
    return mu + sig * (c * x[:, None] + root * x[None, :])


def _node_values(g, mu: float, sigma2: float, order: int):
    """g at expect1's points for N(mu, sigma2): mu + sqrt(sigma2) x at the
    nodes x, or mu itself at a point mass."""
    x = _nodes(order)[0]  # an unsupported order raises here, also at a point mass
    if sigma2 > 0.0:
        return np.asarray(g(mu + math.sqrt(sigma2) * x), dtype=float)
    return np.asarray(g(np.asarray(mu, dtype=float)), dtype=float)


def _node_sum(vals, sigma2: float, order: int) -> float:
    """expect1's sum of node values from _node_values."""
    return float(_nodes(order)[1] @ vals) if sigma2 > 0.0 else float(vals)


def expect1(g, mu: float, sigma2: float, order: int = DEFAULT_ORDER) -> float:
    """E[g(X)] for X ~ N(mu, sigma2). Exact (g(mu)) when sigma2 = 0.

    g must accept numpy arrays elementwise.
    """

    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    vals = _node_values(g, mu, sigma2, order)
    out = _node_sum(vals, sigma2, order)
    if not math.isfinite(out):  # a non-finite node makes the sum non-finite
        _check_finite(vals, g)
    return out


def _expect_node_product(factors, g, mu: float, sigma2: float, order: int) -> float:
    """expect1(g, mu, sigma2, order) for g the product of functions whose
    _node_values are factors, multiplied left to right as g multiplies them;
    expect1 itself when the sum is not finite."""
    if sigma2 >= 0.0:
        out = _node_sum(reduce(operator.mul, factors), sigma2, order)
        if math.isfinite(out):
            return out
    return expect1(g, mu, sigma2, order)


def expect2(g1, g2, pair: GaussianPairSpec, order: int = DEFAULT_ORDER) -> float:
    """E[g1(U_a) g2(U_b)] for the correlated pair described by `pair`."""

    mu, sigma2, c = pair.mu, pair.sigma2, pair.c
    if sigma2 == 0.0:
        return expect1(lambda u: np.asarray(g1(u), dtype=float) * np.asarray(g2(u), dtype=float), mu, 0.0, order)
    if c >= 1.0 - COLLAPSE_TOL:
        return expect1(lambda u: np.asarray(g1(u), dtype=float) * np.asarray(g2(u), dtype=float), mu, sigma2, order)
    if c <= -1.0 + COLLAPSE_TOL:
        # u_b = 2 mu - u_a exactly for a perfectly anticorrelated pair
        return expect1(
            lambda u: np.asarray(g1(u), dtype=float) * np.asarray(g2(2.0 * mu - u), dtype=float),
            mu,
            sigma2,
            order,
        )
    x, w = _nodes(order)
    sig = math.sqrt(sigma2)
    ua = mu + sig * x
    v1 = np.asarray(g1(ua), dtype=float)
    _check_finite(v1, g1)
    v2 = np.asarray(g2(_pair_nodes(x, mu, sig, c)), dtype=float)
    out = float(w @ ((v1[:, None] * v2) @ w))
    if not math.isfinite(out):
        _check_finite(v2, g2)
    return out


def _expect_moments(g, mu: float, sigma2: float, c: float, order: int) -> tuple:
    """(E[g(U)], E[g(U)^2], E[g(U_a) g(U_b)]) for U ~ N(mu, sigma2) and the
    pair GaussianPairSpec(mu, sigma2, c), from one evaluation of g on the
    nodes plus one on the pair grid (none for c >= 1 - COLLAPSE_TOL). Bit
    for bit expect1(g, mu, sigma2), expect2(g, g, c = 1) and
    expect2(g, g, c), which it falls back to at a point mass, an
    anticorrelated pair or a non-finite integral.
    """

    if sigma2 > 0.0:
        x, w = _nodes(order)
        sig = math.sqrt(sigma2)
        v = np.asarray(g(mu + sig * x), dtype=float)
        e1, e2 = float(w @ v), float(w @ (v * v))
        if math.isfinite(e1) and math.isfinite(e2):
            pair = GaussianPairSpec(mu, sigma2, c)
            if c >= 1.0 - COLLAPSE_TOL:
                return e1, e2, e2
            if c <= -1.0 + COLLAPSE_TOL:
                return e1, e2, expect2(g, g, pair, order)
            # expect2's pair sum, its first factor's values reused
            vb = np.asarray(g(_pair_nodes(x, mu, sig, c)), dtype=float)
            epair = float(w @ ((v[:, None] * vb) @ w))
            if math.isfinite(epair):
                return e1, e2, epair
    e1 = expect1(g, mu, sigma2, order)
    e2 = expect2(g, g, GaussianPairSpec(mu, sigma2, 1.0), order)
    return e1, e2, expect2(g, g, GaussianPairSpec(mu, sigma2, c), order)
