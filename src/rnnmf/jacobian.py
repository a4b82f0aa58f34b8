"""Spectral moments of the asymptotic state-to-state Jacobian.

At the moment fixed point the Jacobian is a sum of a random diagonal and
independent Gaussian matrices with unit-dependent diagonal profiles,
J = D_0 + sum_k D_k W_k (+ the gated chain for the GRU). Its squared
singular value moments reduce to expectations of per-unit "contribution"
values a_k:

    m1    = E[sum_k a_k]
    sigma = E[(sum_k a_k)^2] - (E[a_0])^2
    m2    = sigma + m1^2

The four quadrature architectures evaluate these exactly with a small term
algebra over Gaussian gate expectations; the LSTM estimates them on a
sampled stationary cell frame. With fully correlated copies the correlation
map slope chi equals m1, which is the identity the tests pin down.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Optional

import numpy as np

from .cells import CELLS, _compiled, _rho_s, _shape_product
from .core import ArchitectureSpec, Hyperparameters, InputStats, MomentState, _as_state, sigmoid
from .lstm_cell_sampler import CellStateEnsemble, _frame
from .moment_maps import _full_laws, preactivation_stats
from .quadrature import DEFAULT_ORDER, GaussianPairSpec

__all__ = [
    "ContributionVector",
    "JacobianMoments",
    "IsometryGap",
    "contribution_vector",
    "moments",
    "isometry_gap",
    "lstm_chi_frame",
    "jacobian_report_dict",
    "CRITICAL_TOL",
]

CRITICAL_TOL = 1e-2  # per-component threshold for calling a point critical


def _products(arch_name: str) -> dict:
    """products[(k, l)]: the (number, shape) of every product of a term of
    label k with a term of label l (CellRules.entries), whose sums weighted
    by both labels' weights are E[a_k a_l]."""
    entries = CELLS[arch_name].entries
    return {
        (k, l): [(n1 * n2, _shape_product(s1, s2)) for n1, s1 in entries[k][1] for n2, s2 in entries[l][1]]
        for k in entries
        for l in entries
    }


def _weights(entries, theta: Hyperparameters) -> dict:
    """Each label's weight at theta: the product of its gates' sigma_k^2."""
    return {k: math.prod(theta.sigma2(g) for g in gates) for k, (gates, _) in entries.items()}


def _compile(sums) -> Callable:
    """The sums (key, labels, terms) as one function kernel(w, powers, ev)
    -> {key: the sum of its terms}, each term (number, shape) the number
    times its labels' weights w[k], then per block the state power
    powers[s_pow] and the gate factors ev(gate, prims), as in the term
    algebra (cells). It is compiled to straight-line code (its source is
    its __doc__): each weight, state power and gate expectation is read
    once, in the order a loop over the terms first reads it, so the same
    expectation raises first; products fold left to right and each sum
    adds from 0.0 in term order, so the loop's bits are kept (a number 1.0
    multiplies nothing, as 1.0 * x == x)."""
    names: dict = {}  # read expression -> local variable, in first-read order

    def read(expr):
        return names.setdefault(expr, f"v{len(names)}")

    lines = []
    for key, labels, terms in sums:
        products = []
        for n, shape in terms:
            factors = [repr(n)] * (n != 1.0) + [read(f"w[{k!r}]") for k in labels]
            for s_pow, funcs in shape:
                if s_pow:
                    factors.append(read(f"powers[{s_pow}]"))
                factors += [read(f"ev({g!r}, {ps!r})") for g, ps in funcs]
            products.append(" * ".join(factors) or "1.0")
        lines.append(f"        {key!r}: {' + '.join(['0.0', *products])},")
    body = [f"    {v} = {expr}" for expr, v in names.items()]
    source = "\n".join(["def kernel(w, powers, ev):", *body, "    return {", *lines, "    }"])
    return _compiled("kernel", source, {})


def _compile_powers(factors) -> Callable:
    """The state-power recursion of a cell's factors (CellRules.factors)
    as one function powers(ev, mu_star, q_star) -> [E[s^p] for p = 0..4]
    at the moment fixed point: p = 1, 2 are (mu*, Q*), and p = 3, 4
    follow from

        E[s^p] (1 - a(p, 0)) = sum_{j<p} C(p, j) a(j, p - j) E[s^j] b(p - j),

    ev(k, prims) = E[prod of prims(u_k)]. It is compiled to straight-line
    code (its source is its __doc__), as _compile does: each expectation is
    read once, in the order the recursion first reads it, and power 3's
    diverging denominator raises before power 4 reads anything; each
    product folds left to right, a and b each a product of its own, and
    each sum adds from 0.0 in j order, so the recursion's bits are kept (a
    factor 1 multiplies nothing, as 1.0 * x == x)."""
    names: dict = {}  # read -> local variable, in first-read order
    lines = []

    def product(reads):  # None is a zero
        if reads is None:
            return "0.0"
        for read in reads:
            if read not in names:
                names[read] = f"v{len(names)}"
                lines.append(f"    {names[read]} = ev{read!r}")
        expr = " * ".join(names[read] for read in reads)
        return f"({expr})" if len(reads) > 1 else expr or "1.0"

    for p in (3, 4):
        terms = []
        for j in range(p):
            a, b = factors(j, p - j)
            term = (str(math.comb(p, j)), product(a), ("1.0", "mu_star", "q_star", "m3")[j], product(b))
            terms.append(" * ".join(f for f in term if f not in ("1", "1.0")) or "1.0")
        lines.append(f"    m{p} = _state_power({' + '.join(['0.0', *terms])}, 1.0 - {product(factors(p, 0)[0])})")
    source = "\n".join(["def powers(ev, mu_star, q_star):", *lines, "    return [1.0, mu_star, q_star, m3, m4]"])
    return _compiled("powers", source, {"_state_power": _state_power})


def _state_power(acc: float, denom: float) -> float:
    """E[s^p] = acc / denom in the state-power recursion, which diverges
    where denom <= 1e-15: the forget gate saturated."""
    if denom <= 1e-15:
        raise ArithmeticError("stationary state power diverges (forget gate saturated)")
    return acc / denom


@lru_cache(maxsize=None)
def _kernels(arch_name: str) -> tuple:
    """(means, pairs, powers) of a quadrature cell: means and pairs are
    (w, powers, ev) -> dict (_compile), means[k] label k's mean
    contribution, the sum of its entry terms, and pairs[(k, l)] E[a_k a_l]
    (_products); powers is its state-power recursion (_compile_powers)."""
    return (
        _compile([(k, (k,), terms) for k, (_, terms) in CELLS[arch_name].entries.items()]),
        _compile([((k, l), (k, l), terms) for (k, l), terms in _products(arch_name).items()]),
        _compile_powers(CELLS[arch_name].factors),
    )


@dataclass(frozen=True)
class ContributionVector:
    """First and second moments of the per-unit contribution values.

    ea[k] = E[a_k]; eaa[(k, l)] = E[a_k a_l] with the shared gate variables
    of the two entries integrated jointly. Keys are 'a_0' plus gate labels.
    """

    labels: tuple
    ea: Mapping[str, float]
    eaa: Mapping[tuple, float]
    se_m1: Optional[float] = None

    def __post_init__(self):
        for k, v in self.ea.items():
            if v < -1e-10:
                raise ArithmeticError(f"contribution entry {k} = {v} < 0 (bug)")


@dataclass(frozen=True)
class JacobianMoments:
    """Mean, second moment and variance of the squared singular values."""

    m1: float
    m2: float
    sigma: float
    m1_se: Optional[float] = None


@dataclass(frozen=True)
class IsometryGap:
    chi_gap: float
    m1_gap: float
    sigma_gap: float
    norm: float
    critical: bool


def lstm_chi_frame(
    theta: Hyperparameters,
    stats: Mapping[str, GaussianPairSpec],
    n_s: int = 200,
    n_iters: int = 200,
    seed: int = 0,
    init: Optional[CellStateEnsemble] = None,
):
    """Per-sample contribution values on the last update of a stationary
    coupled cell frame.

    The frame is n_iters updates of two chains at the gate correlations
    carried by stats, from zero or from the `init` ensemble
    (lstm_cell_sampler._frame): the same run whose chains the LSTM
    correlation map reads at that state and seed. Its last update's gate
    values and the cells before it enter the contribution formulas.
    Returns a dict of per-sample arrays keyed 'a_0', 'i', 'f', 'r', 'o':
    a_0 is sig(u_f,a) sig(u_f,b), and gate k's entry sigma_k^2 dk_k(a)
    dk_k(b), with dk the LSTM's derivative table (CELLS) on each chain.
    With all C_k = 1 the two chains coincide and the arrays are the
    single-network contributions, whose mean is m1; at general C the mean
    of their sum is the correlation map slope chi. Same seed means the same
    frame for both uses.
    """

    frame = _frame(theta, stats, n_s, n_iters, seed, init)
    out = {"a_0": sigmoid(frame.u_a["f"]) * sigmoid(frame.u_b["f"])}
    for k, dk in CELLS["LSTM"].dk.items():
        out[k] = theta.sigma2(k) * dk(None, frame.u_a, frame.prev_a) * dk(None, frame.u_b, frame.prev_b)
    return out


def _sampled_contribution(theta, stats, n_s, n_iters, seed, cell):
    if cell is not None:
        n_s = cell.meta.n_s
    if n_s < 2:
        raise ValueError(f"n_s = {n_s}: the standard error of m1 needs n_s >= 2")
    frame = lstm_chi_frame(theta, stats, n_s=n_s, n_iters=n_iters, seed=seed, init=cell)
    labels = tuple(frame)
    ea = {k: float(np.mean(frame[k])) for k in labels}
    eaa = {(k, l): float(np.mean(frame[k] * frame[l])) for k in labels for l in labels}
    total = sum(frame[k] for k in labels)
    se_m1 = float(np.std(total, ddof=1) / math.sqrt(len(total)))
    return ContributionVector(labels=labels, ea=ea, eaa=eaa, se_m1=se_m1)


def contribution_vector(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    fixed,
    cell: Optional[CellStateEnsemble] = None,
    inputs: Optional[InputStats] = None,
    order: int = DEFAULT_ORDER,
    n_s: int = 200,
    n_iters: int = 200,
    seed: int = 0,
) -> ContributionVector:
    """E[a_k] and E[a_k a_l] of the per-unit contributions at the fixed point.

    `fixed` is a converged fixed-point report (or a MomentState); inputs are
    taken from it when it carries them. The contributions are
    single-network quantities, so every cell reads its gates at full
    correlation, C = 1 and sigma_z = 1. The quadrature architectures are
    exact; the LSTM samples a stationary cell frame (seeded, CRN-friendly),
    warm-started from `cell` when given.
    """

    st = _as_state(fixed)
    inp = inputs if inputs is not None else getattr(fixed, "inputs", None)
    if inp is None:
        raise ValueError("pass inputs= (the fixed-point object does not carry them)")
    if arch.needs_cell:
        gates = preactivation_stats(theta, arch, MomentState(st.mu_s, st.q_s, 1.0), InputStats(inp.R, 1.0), order)
        return _sampled_contribution(theta, gates, n_s, n_iters, seed, cell)
    laws = _full_laws(theta, arch, st.q_s, inp.R, order)

    def ev(k, prims):
        return laws[k].expect(prims)

    rules = CELLS[arch.name]
    means, pairs, powers = _kernels(arch.name)
    m = powers(ev, st.mu_s, st.q_s)
    w = _weights(rules.entries, theta)
    return ContributionVector(labels=tuple(rules.entries), ea=means(w, m, ev), eaa=pairs(w, m, ev))


def _correlation_slope(theta, arch, state: MomentState, inputs: InputStats, order: int) -> float:
    """The slope chi of a quadrature cell's correlation map at the state's
    correlation C, by Price's theorem: d/dC E[g(u_a) g(u_b)] =
    Sigma^2 E[g'(u_a) g'(u_b)], Sigma^2 the rate at which the gate's
    covariance grows with C. Summed over the map's terms this is the
    contribution functional of m1 with each two-primitive gate factor taken
    over the gate's pair at its correlation C_k, and s^2 read as E[s_a s_b]
    (the derivative's sigma*^2 cancels the map's normalization). With every
    pair collapsed (C = 1, fully correlated inputs) it is m1 to the bit:
    the same terms, expectations and sums."""

    gates = preactivation_stats(theta, arch, state, inputs, order)

    def ev(k, prims):
        return gates.pair(k, *prims) if len(prims) == 2 else gates.expect(k, prims)

    powers = (1.0, state.mu_s, _rho_s(state))
    means = _kernels(arch.name)[0]
    return sum(means(_weights(CELLS[arch.name].entries, theta), powers, ev).values())


def moments(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    fixed,
    cell: Optional[CellStateEnsemble] = None,
    inputs: Optional[InputStats] = None,
    order: int = DEFAULT_ORDER,
    n_s: int = 200,
    n_iters: int = 200,
    seed: int = 0,
) -> JacobianMoments:
    """(m1, m2, sigma) of the squared singular values of the Jacobian."""

    cv = contribution_vector(theta, arch, fixed, cell, inputs, order, n_s, n_iters, seed)
    m1 = sum(cv.ea.values())
    e_sum2 = sum(cv.eaa.values())
    sigma = e_sum2 - cv.ea["a_0"] ** 2
    if sigma < 0.0:
        if sigma < -1e-8:
            raise ArithmeticError(f"sigma = {sigma} strongly negative (bug)")
        if sigma < -4.0 * np.spacing(m1 * m1):  # beyond rounding of the m1^2-sized terms
            warnings.warn(f"clamping slightly negative sigma = {sigma:.3e} to 0", stacklevel=2)
        sigma = 0.0
    return JacobianMoments(m1=m1, m2=sigma + m1 * m1, sigma=sigma, m1_se=cv.se_m1)


def isometry_gap(mom: JacobianMoments, chi: float) -> IsometryGap:
    """Residuals of the dynamical isometry conditions chi = 1, m1 = 1,
    sigma = 0, with an aggregate norm and a criticality flag."""

    gaps = (chi - 1.0, mom.m1 - 1.0, mom.sigma - 0.0)
    norm = math.sqrt(sum(g * g for g in gaps))
    critical = all(abs(g) < CRITICAL_TOL for g in gaps)
    return IsometryGap(gaps[0], gaps[1], gaps[2], norm, critical)


def jacobian_report_dict(mom: JacobianMoments, chi: float) -> dict:
    gap = isometry_gap(mom, chi)
    return {
        "m1": mom.m1,
        "m2": mom.m2,
        "sigma": mom.sigma,
        "chi": chi,
        "residuals": {"chi": gap.chi_gap, "m1": gap.m1_gap, "sigma": gap.sigma_gap, "norm": gap.norm},
        "critical": gap.critical,
    }
