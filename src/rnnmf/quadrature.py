"""Gaussian expectation engine.

1D and correlated-pair 2D expectations by Gauss-Hermite quadrature. The pair
parameterization is the Cholesky one: u_a = mu + Sigma z_a,
u_b = mu + Sigma (c z_a + sqrt(1 - c^2) z_b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


def _points(mu: float, sigma2: float, order: int):
    """Where an expectation over N(mu, sigma2) evaluates its integrand:
    mu + sqrt(sigma2) x at the nodes x, or mu alone (0-d) at a point mass."""
    if not sigma2 >= 0.0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    x = _nodes(order)[0]  # an unsupported order raises here, also at a point mass
    if sigma2 > 0.0:
        return mu + math.sqrt(sigma2) * x
    return np.asarray(mu, dtype=float)


def _partner(u, mu: float, sigma2: float, c: float, order: int):
    """u_b of the pair GaussianPairSpec(mu, sigma2, c) for u_a at
    u = _points(mu, sigma2, order): u itself at a point mass or a collapsed
    pair, 2 mu - u for an anticorrelated one, else the pair grid, whose
    row i pairs with u[i]."""
    if sigma2 == 0.0 or c >= 1.0 - COLLAPSE_TOL:
        return u
    if c <= -1.0 + COLLAPSE_TOL:
        return 2.0 * mu - u
    x = _nodes(order)[0]
    root = math.sqrt(max(1.0 - c * c, 0.0))
    return mu + math.sqrt(sigma2) * (c * x[:, None] + root * x[None, :])


def _weighted_sum(order: int, g, vals, first=None) -> float:
    """The quadrature sum of g's values vals, laid out as _points or
    _partner lays out g's arguments, each times the value of first at the
    same _points node when first is given. A point mass's 0-d value is
    returned as is, keeping the sign of a zero. A sum that is not finite
    raises NonFiniteIntegrand naming g (the integrand, or its name as a
    string) if one of vals is not finite; with every value finite it is the
    product's overflow and is returned."""
    prod = vals if first is None else (first[:, None] if vals.ndim == 2 else first) * vals
    w = _nodes(order)[1]
    if prod.ndim == 2:
        out = float(w @ (prod @ w))
    else:
        out = float(w @ prod) if prod.ndim else float(prod)
    if not (math.isfinite(out) or np.all(np.isfinite(vals))):
        name = g if isinstance(g, str) else getattr(g, "__name__", repr(g))
        raise NonFiniteIntegrand(f"integrand {name} returned a non-finite value")
    return out


def expect1(g, mu: float, sigma2: float, order: int = DEFAULT_ORDER) -> float:
    """E[g(X)] for X ~ N(mu, sigma2). Exact (g(mu)) when sigma2 = 0.

    g must accept numpy arrays elementwise.
    """

    return _weighted_sum(order, g, np.asarray(g(_points(mu, sigma2, order)), dtype=float))


def expect2(g1, g2, pair: GaussianPairSpec, order: int = DEFAULT_ORDER) -> float:
    """E[g1(U_a) g2(U_b)] for the correlated pair described by `pair`."""

    u = _points(pair.mu, pair.sigma2, order)
    v1 = np.asarray(g1(u), dtype=float)
    _weighted_sum(order, g1, v1)  # names g1 before its values enter the product
    v2 = np.asarray(g2(_partner(u, pair.mu, pair.sigma2, pair.c, order)), dtype=float)
    return _weighted_sum(order, g2, v2, v1)


def _expect_moments(g, mu: float, sigma2: float, c: float, order: int) -> tuple:
    """(E[g(U)], E[g(U)^2], E[g(U_a) g(U_b)]) for U ~ N(mu, sigma2) and the
    pair GaussianPairSpec(mu, sigma2, c), bit for bit expect1(g, mu, sigma2),
    expect2(g, g, c = 1) and expect2(g, g, c), from one evaluation of g at
    _points plus one at _partner's points unless those are the same.
    """

    u = _points(mu, sigma2, order)
    v = np.asarray(g(u), dtype=float)
    e1 = _weighted_sum(order, g, v)  # also checks v before it enters a product
    e2 = _weighted_sum(order, g, v, v)
    ub = _partner(u, mu, sigma2, c, order)
    if ub is u:
        return e1, e2, e2
    return e1, e2, _weighted_sum(order, g, np.asarray(g(ub), dtype=float), v)
