"""Gaussian expectation engine.

1D and correlated-pair 2D expectations by Gauss-Hermite quadrature, plus
seeded Monte Carlo sampling of correlated Gaussian pairs. The pair
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
    "sample_pair",
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


def expect1(g, mu: float, sigma2: float, order: int = DEFAULT_ORDER) -> float:
    """E[g(X)] for X ~ N(mu, sigma2). Exact (g(mu)) when sigma2 = 0.

    g must accept numpy arrays elementwise.
    """

    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    x, w = _nodes(order)
    if sigma2 == 0.0:
        v = float(np.asarray(g(np.asarray(mu, dtype=float))))
        if not math.isfinite(v):
            _check_finite(np.asarray(v), g)
        return v
    vals = np.asarray(g(mu + math.sqrt(sigma2) * x), dtype=float)
    _check_finite(vals, g)
    return float(w @ vals)


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
    root = math.sqrt(max(1.0 - c * c, 0.0))
    ub = mu + sig * (c * x[:, None] + root * x[None, :])
    v2 = np.asarray(g2(ub), dtype=float)
    _check_finite(v2, g2)
    return float(w @ ((v1[:, None] * v2) @ w))


def sample_pair(pair: GaussianPairSpec, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. draws of the correlated pair; deterministic given seed."""

    if n < 1:
        raise ValueError("n >= 1 required")
    rng = np.random.default_rng(seed)
    za = rng.standard_normal(n)
    zb = rng.standard_normal(n)
    sig = math.sqrt(pair.sigma2)
    ua = pair.mu + sig * za
    if pair.c >= 1.0 - COLLAPSE_TOL:
        ub = ua.copy()
    elif pair.c <= -1.0 + COLLAPSE_TOL:
        ub = 2.0 * pair.mu - ua
    else:
        root = math.sqrt(max(1.0 - pair.c * pair.c, 0.0))
        ub = pair.mu + sig * (pair.c * za + root * zb)
    return ua, ub
