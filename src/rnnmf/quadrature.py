"""Gaussian expectation engine.

1D and correlated-pair 2D expectations by quadrature. The pair
parameterization is the Cholesky one: u_a = mu + Sigma z_a,
u_b = mu + Sigma (c z_a + sqrt(1 - c^2) z_b).

Each law N(mu, sigma2) picks its rule by its SD. Up to WIDE_SD it is
Gauss-Hermite at the requested order. Above it the integrands' features
(width about 1 around u = 0) are narrow against the law, and Gauss-Hermite
misses them (E[tanh'(u)^2] off by 9.1e-4 at SD 2 and 3.1e-2 at SD 4 with 64
nodes). There the composite rule takes over: 8-point Gauss-Legendre panels
over the standard-normal coordinate, with breakpoints every 3 across the
+-9 frame and at +-{0.5, 1.5, 3, 6, 12} / SD around the point where u = 0.
It integrates every gate nonlinearity, its derivative and their squares
within 2e-9 for |mu| <= 10 and 2 < SD <= 10, in 1D and in the pair form,
whose partner rule is laid out row by row around the partner's own u_b = 0.
An infinite SD keeps Gauss-Hermite: its nodes then sit at +-inf, which
gives the limit of a bounded integrand.

_Law is the one home of the expectations over a law. Given a table of
named primitives (the moment maps pass core._PRIMS; this module imports
nothing of the package) it keeps the mean of every product of them asked
for, and the pair means at the last correlation asked for.
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
    "WIDE_SD",
    "expect1",
    "expect2",
]

DEFAULT_ORDER = 64

# |c| >= 1 - COLLAPSE_TOL is treated as a perfectly (anti)correlated pair to
# avoid the sqrt(1 - c^2) cancellation; the c -> 1 limit is an evaluation
# point the correlation analysis relies on, so it must be exact.
COLLAPSE_TOL = 1e-12

# laws whose SD exceeds this are integrated by the composite rule
WIDE_SD = 2.0

_FRAME_BREAKS = np.arange(-9.0, 9.5, 3.0)
_FEATURE_BREAKS = np.array([-12.0, -6.0, -3.0, -1.5, -0.5, 0.5, 1.5, 3.0, 6.0, 12.0])


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


@lru_cache(maxsize=1)
def _legendre():
    return np.polynomial.legendre.leggauss(8)


def _panels(*features):
    """Nodes and weights of the composite rule for a standard normal x, one
    row per entry of the feature centres: 8-point Gauss-Legendre panels
    between _FRAME_BREAKS and, for each (centre, scale) feature, the
    breakpoints centre + scale * _FEATURE_BREAKS clipped to the frame. The
    weights carry the normal density. A centre is a scalar or an array of
    row centres; every row has the same node count, a clipped breakpoint
    giving an empty panel whose nodes weigh 0."""
    t, wt = _legendre()
    cuts = [np.clip(np.asarray(centre)[..., None] + scale * _FEATURE_BREAKS, -9.0, 9.0) for centre, scale in features]
    rows = np.broadcast_shapes(*(b.shape[:-1] for b in cuts))
    b = np.sort(np.concatenate([np.broadcast_to(_FRAME_BREAKS, rows + _FRAME_BREAKS.shape)]
                               + [np.broadcast_to(k, rows + k.shape[-1:]) for k in cuts], axis=-1), axis=-1)
    half = 0.5 * np.diff(b, axis=-1)[..., None]
    x = ((b[..., :-1, None] + half) + half * t).reshape(rows + (-1,))
    w = (half * wt).reshape(rows + (-1,)) * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return x, w


def _check(g, out: float, vals) -> float:
    """out, a quadrature sum of g's values vals. A sum that is not finite
    raises NonFiniteIntegrand naming g (the integrand, its name as a string,
    or a product's primitive names as a tuple, joined by *) if one of vals
    is not finite; with every value finite it is the product's overflow and
    is returned."""
    if not (math.isfinite(out) or np.all(np.isfinite(vals))):
        if isinstance(g, tuple):
            g = "*".join(g)
        name = g if isinstance(g, str) else getattr(g, "__name__", repr(g))
        raise NonFiniteIntegrand(f"integrand {name} returned a non-finite value")
    return out


class _Law:
    """N(mu, sigma2) under its quadrature rule, and every expectation over
    it asked for: the points u where an integrand is evaluated (mu alone,
    0-d, at a point mass) and their weights; values(g) keeps each
    integrand's values there. A law built with a table of named primitives
    (name -> integrand) also keeps expect(prims), the mean of each product
    of named primitives, and one record for the last correlation that a
    pair was asked at: the pair layout and pair(pa, pb, c)'s means."""

    __slots__ = ("mu", "sigma2", "sd", "wide", "x", "weights", "points", "integrands", "_values", "_memo", "_last")

    def __init__(self, mu: float, sigma2: float, order: int, integrands=None):
        if not sigma2 >= 0.0:
            raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
        x, w = _nodes(order)  # an unsupported order raises here, also at a point mass
        sd = math.sqrt(sigma2)
        self.wide = WIDE_SD < sd < math.inf
        if self.wide:
            x, w = _panels((-mu / sd, 1.0 / sd))
        self.mu, self.sigma2, self.sd = mu, sigma2, sd
        self.x, self.weights = x, w
        self.points = mu + sd * x if sigma2 > 0.0 else np.asarray(mu, dtype=float)
        self.integrands = integrands  # primitive name -> integrand, for expect and pair
        self._values: dict = {}
        self._memo: dict = {}  # prims -> E[prod of prims(u)]
        self._last = (None, None, None)  # (c, pair layout, {(pa, pb): pair mean})

    def values(self, g):
        """g at the points, as floats: an array, or at a point mass one
        float, whose products cost no numpy call (the same bits)."""
        v = self._values.get(g)
        if v is None:
            v = np.asarray(g(self.points), dtype=float)
            v = self._values[g] = v if v.ndim else float(v)
        return v

    def mean(self, g, vals, first=None) -> float:
        """The weighted sum of g's values vals at the points, each times
        first's value at the same point when first is given. A point mass's
        value is returned as is, keeping the sign of a zero."""
        prod = vals if first is None else first * vals
        out = float(self.weights.dot(prod)) if self.sigma2 > 0.0 else float(prod)
        return out if math.isfinite(out) else _check(g, out, vals)

    def expect(self, prims: tuple) -> float:
        """E[prod of prims(u)], the named primitives multiplied in the given
        order: bit for bit expect1 of that product. A sum that is not
        finite names the product by its primitives, as in sig*tanh."""
        out = self._memo.get(prims)
        if out is None:
            vals = self.values(self.integrands[prims[0]])
            for p in prims[1:]:
                vals = vals * self.values(self.integrands[p])
            out = self._memo[prims] = self.mean(prims, vals)
        return out

    def pair(self, pa: str, pb: str, c: float) -> float:
        """E[pa(u_a) pb(u_b)] over the pair at correlation c, for the named
        primitives: bit for bit expect2, and expect((pa, pb)) when the pair
        collapses."""
        if self.collapsed(c):
            return self.expect((pa, pb) if pa <= pb else (pb, pa))
        means = self._at(c)[1]
        out = means.get((pa, pb))
        if out is None:
            out = means[(pa, pb)] = self.pair_mean(self.integrands[pa], self.integrands[pb], c)
        return out

    def collapsed(self, c: float) -> bool:
        """Whether the pair at correlation c is the law itself: a point mass
        or c >= 1 - COLLAPSE_TOL."""
        return self.sigma2 == 0.0 or c >= 1.0 - COLLAPSE_TOL

    def _at(self, c: float):
        """(pair layout, pair means) of the record at correlation c, not
        collapsed; a new c replaces the record."""
        if self._last[0] != c:
            self._last = (c, self._pair_layout(c), {})
        return self._last[1:]

    def _pair_layout(self, c: float):
        """(rows, row weights, partner points, partner weights) of the pair
        at correlation c, not collapsed: partner point [i] or row [i, j]
        pairs with rows[i]. An anticorrelated pair's partner is 2 mu - u,
        weighted with its row. Gauss-Hermite lays the grid out on its own
        nodes, with shared partner weights; the composite rule lays each
        partner row out around that row's u_b = 0, and adds the rows'
        breakpoints around where the partner's mean crosses 0."""
        mu, sd, x = self.mu, self.sd, self.x
        if c <= -1.0 + COLLAPSE_TOL:
            return self.points, self.weights, 2.0 * mu - self.points, None
        if not self.wide:
            root = math.sqrt(max(1.0 - c * c, 0.0))
            ub = c * x[:, None] + root * x[None, :]
            ub *= sd
            ub += mu  # mu + sd (c x_i + root x_j), in place
            return self.points, self.weights, ub, self.weights
        root = math.sqrt(1.0 - c * c)
        x0 = -mu / sd
        rows, wa = self.points, self.weights
        if c != 0.0:
            x, wa = _panels((x0, 1.0 / sd), (x0 / c, math.hypot(1.0, sd * root) / (sd * abs(c))))
            rows = mu + sd * x
        xb, wb = _panels(((x0 - c * x) / root, 1.0 / (sd * root)))
        return rows, wa, mu + sd * (c * x[:, None] + root * xb), wb

    def pair_mean(self, g1, g2, c: float) -> float:
        """E[g1(U_a) g2(U_b)] over the pair at correlation c, not collapsed.
        g1's values are checked before they enter the product."""
        rows, wa, ub, wb = self._at(c)[0]
        v1 = self.values(g1) if rows is self.points else np.asarray(g1(rows), dtype=float)
        _check(g1, float(wa.dot(v1)), v1)
        v2 = np.asarray(g2(ub), dtype=float)
        if wb is None:
            out = float(wa.dot(v1 * v2))
        else:
            prod = v1[:, None] * v2
            out = float(wa.dot(prod.dot(wb) if wb.ndim == 1 else (prod * wb).sum(axis=1)))
        return _check(g2, out, v2)


def expect1(g, mu: float, sigma2: float, order: int = DEFAULT_ORDER) -> float:
    """E[g(X)] for X ~ N(mu, sigma2). Exact (g(mu)) when sigma2 = 0.

    g must accept numpy arrays elementwise. order applies up to WIDE_SD.
    """

    law = _Law(mu, sigma2, order)
    return law.mean(g, law.values(g))


def expect2(g1, g2, pair: GaussianPairSpec, order: int = DEFAULT_ORDER) -> float:
    """E[g1(U_a) g2(U_b)] for the correlated pair described by `pair`."""

    law = _Law(pair.mu, pair.sigma2, order)
    if not law.collapsed(pair.c):
        return law.pair_mean(g1, g2, pair.c)
    v1 = law.values(g1)
    law.mean(g1, v1)  # names g1 before its values enter the product
    return law.mean(g2, np.asarray(g2(law.points), dtype=float), v1)
