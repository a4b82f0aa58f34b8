"""Monte Carlo sampler for the stationary LSTM cell-state distribution.

The cell update c' = sigmoid(u_f) c + sigmoid(u_i) tanh(u_r) with i.i.d.
Gaussian gates is a perpetuity; its stationary law has no closed form, so
moments are estimated from sampled chains. It is not heavy tailed: the
multiplier sigmoid(u_f) lies in (0, 1) and the additive term in (-1, 1), so
E[sigmoid(u_f)^p] < 1 and every moment is finite (Vervaat 1979); Kesten's
power tails need a multiplier above 1 with positive probability.
Each call draws from two generators derived from its entropy (the seed,
or the seed and step index of an ensemble's lineage): one for chain a and
one for the independent part of the coupled chain b. Draws are made step
by step, so memory stays O(n_s).

This module is the one home of the sampled LSTM's rules: the cell update
(_lstm_cell, which the cell table's LSTM rules use too, and which the
peephole's rules derive from its law) and
the map from draws to gate values (_run). The correlation map, chi and the
Jacobian moments read one coupled frame per state and seed (_frame).
Finiteness is checked once, when an ensemble is built, on both chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .core import Hyperparameters, sigmoid, theta_hash

__all__ = [
    "NonFiniteSample",
    "EnsembleMeta",
    "CellStateEnsemble",
    "sample_cell_distribution",
    "correlated_cell_pairs",
    "advance_cell",
]

_GATES = ("i", "f", "r")  # column order of the per-step draws; o is drawn after the last step


class NonFiniteSample(ArithmeticError):
    """A sampled ensemble holds a non-finite cell value, in either chain.
    With finite gate statistics a chain cannot leave the finite range
    (|c'| < |c| + 1): it flags non-finite gate statistics or a non-finite
    warm start."""


@dataclass(frozen=True)
class EnsembleMeta:
    n_s: int
    n_iters: int
    seed: int
    theta_digest: str
    step_index: int = 0


@dataclass(frozen=True)
class CellStateEnsemble:
    """Sampled cell values; optionally a coupled second copy for
    correlation analysis."""

    samples: np.ndarray
    meta: EnsembleMeta
    samples_b: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.meta.n_s < 1:
            raise ValueError("n_s >= 1 required")
        if self.samples.shape != (self.meta.n_s,):
            raise ValueError("samples shape does not match n_s")
        if self.samples_b is not None and self.samples_b.shape != self.samples.shape:
            raise ValueError("paired samples must match in shape")
        for chain in (self.samples, self.samples_b):
            if chain is not None and not np.all(np.isfinite(chain)):
                raise NonFiniteSample(f"ensemble contains non-finite samples (theta {self.meta.theta_digest})")

    @property
    def paired(self) -> bool:
        return self.samples_b is not None


def _resolve_seed(seed) -> int:
    if seed is None:
        return int(np.random.SeedSequence().entropy)
    return int(seed)


def _streams(entropy):
    """Chain a's generator, SeedSequence(entropy), and chain b's, its first
    spawned child."""
    seq = np.random.SeedSequence(entropy)
    return np.random.default_rng(seq), np.random.default_rng(seq.spawn(1)[0])


def _lstm_cell(u, c_prev):
    """The LSTM cell update c' = sig(u_f) c + sig(u_i) tanh(u_r)."""
    return sigmoid(u["f"]) * c_prev + sigmoid(u["i"]) * np.tanh(u["r"])


def _run(stats, c_a, c_b, entropy, steps):
    """`steps` cell updates of chain c_a and, unless c_b is None, of the
    coupled chain c_b. With independent standard normal draws z_a and z_b,
    gate k is mu_k + SD_k z_a on chain a and mu_k + SD_k (C_k z_a +
    sqrt(1 - C_k^2) z_b) on chain b, from the gate's GaussianPairSpec in
    stats. z_a comes from chain a's generator alone, so chain a is the same
    whether or not c_b is carried; at C_k = 1 the chains coincide. Returns
    (c_a, c_b, prev_a, prev_b, u_a, u_b): the chains, the cells they held
    before the last update and that update's gate values {k: u_k}, with the
    output gate o drawn after it (all four None after no update)."""
    rng_a, rng_b = _streams(entropy)
    specs = [stats[k] for k in _GATES + ("o",)]
    # rows: mean, SD, C_k and sqrt(1 - C_k^2); columns: _GATES, then o
    coef = np.array([(s.mu, math.sqrt(s.sigma2), s.c, math.sqrt(max(1.0 - s.c * s.c, 0.0))) for s in specs]).T
    mu, sd, c, root = coef[:, :3]
    prev_a = prev_b = u_a = u_b = None
    for _ in range(steps):
        z_a = rng_a.standard_normal((c_a.size, 3))
        u_a = mu + sd * z_a
        prev_a, c_a = c_a, _lstm_cell(dict(zip(_GATES, u_a.T)), c_a)
        if c_b is not None:
            u_b = mu + sd * (c * z_a + root * rng_b.standard_normal(z_a.shape))
            prev_b, c_b = c_b, _lstm_cell(dict(zip(_GATES, u_b.T)), c_b)
    if steps:  # the output gate, drawn after the last update
        o_mu, o_sd, o_c, o_root = coef[:, 3]
        z_o = rng_a.standard_normal(c_a.size)
        u_a = dict(zip(_GATES, u_a.T), o=o_mu + o_sd * z_o)
        if c_b is not None:
            u_b = dict(zip(_GATES, u_b.T), o=o_mu + o_sd * (o_c * z_o + o_root * rng_b.standard_normal(c_b.size)))
    return c_a, c_b, prev_a, prev_b, u_a, u_b


def _ensemble(theta, c_a, c_b, n_iters, seed) -> CellStateEnsemble:
    meta = EnsembleMeta(n_s=c_a.size, n_iters=n_iters, seed=seed, theta_digest=theta_hash(theta))
    return CellStateEnsemble(samples=c_a, meta=meta, samples_b=c_b)


def _cold_start(theta, stats, n_s, n_iters, seed, paired: bool) -> CellStateEnsemble:
    """The ensemble of n_iters updates of n_s chains started at 0, with
    chain b carried when paired, at the resolved seed."""
    if n_s < 1 or n_iters < 0:
        raise ValueError("n_s >= 1 and n_iters >= 0 required")
    seed = _resolve_seed(seed)
    c_a, c_b = _run(stats, np.zeros(n_s), np.zeros(n_s) if paired else None, seed, n_iters)[:2]
    return _ensemble(theta, c_a, c_b, n_iters, seed)


def sample_cell_distribution(
    theta: Hyperparameters,
    stats,
    n_s: int = 200,
    n_iters: int = 200,
    seed=None,
) -> CellStateEnsemble:
    """n_iters cell updates of n_s chains started at 0; stats maps the i, f,
    r and o gates to their GaussianPairSpec (preactivation_stats), of which
    the mean mu and variance sigma2 are used (o's draw follows the last
    update and leaves the cells as they are). Deterministic given the seed,
    and chain a of correlated_cell_pairs at the same seed. Raw samples, not
    clipped."""

    return _cold_start(theta, stats, n_s, n_iters, seed, paired=False)


def correlated_cell_pairs(
    theta: Hyperparameters,
    stats,
    n_s: int = 200,
    n_iters: int = 200,
    seed=None,
) -> CellStateEnsemble:
    """Coupled chains (c_a, c_b) started at 0, with Cholesky-correlated gate
    draws at the pair correlations C_k of stats; at C_k = 1 they coincide
    exactly."""

    return _cold_start(theta, stats, n_s, n_iters, seed, paired=True)


class _Frame(NamedTuple):
    """A coupled frame: the chains after its updates (pairs), the cells
    they held before the last update, and that update's gate values
    {k: u_k} on each chain, the output gate o drawn after it."""

    pairs: CellStateEnsemble
    prev_a: np.ndarray
    prev_b: np.ndarray
    u_a: dict
    u_b: dict


def _frame(theta: Hyperparameters, stats, n_s: int, n_iters: int, seed, init=None) -> _Frame:
    """n_iters updates of the coupled chains of correlated_cell_pairs at the
    same arguments, from zero or, given an `init` ensemble of n_s samples,
    from its chains; an unpaired one starts chain b as a copy of chain a.
    The LSTM correlation map reads the chains, the Jacobian frame the last
    update. theta keeps its newest cold-start frame, keyed by the gate
    statistics, n_s, n_iters and the resolved seed, so the map, chi and m1
    at one state and seed share one run."""

    if n_iters < 1:
        raise ValueError("n_iters >= 1 required (one recorded update)")
    seed = _resolve_seed(seed)
    if init is None:
        key = (tuple(stats.items()), n_s, n_iters, seed)
        newest = theta._memo.get("lstm_frame")
        if newest is not None and newest[0] == key:
            return newest[1]
        c_a, c_b = np.zeros(n_s), np.zeros(n_s)
    elif init.meta.n_s == n_s:
        c_a, c_b = init.samples, init.samples_b if init.paired else init.samples
    else:
        raise ValueError(f"init holds {init.meta.n_s} samples, not n_s = {n_s}")
    c_a, c_b, *last = _run(stats, c_a, c_b, seed, n_iters)
    frame = _Frame(_ensemble(theta, c_a, c_b, n_iters, seed), *last)
    if init is None:
        theta._memo["lstm_frame"] = (key, frame)
    return frame


def advance_cell(theta: Hyperparameters, stats, cell: CellStateEnsemble) -> CellStateEnsemble:
    """One cell update with fresh draws from the ensemble's seed lineage,
    entropy [meta.seed, meta.step_index, 1]: the same ensemble and stats give
    bit-identical results. Paired ensembles advance both chains with
    correlated draws; chain a advances the same whether or not it is paired.
    """

    if theta_hash(theta) != cell.meta.theta_digest:
        raise ValueError("theta does not match the ensemble's theta digest")
    # SeedSequence pads entropy with zeros, so [seed, step_index] at step 0
    # would replay the stream of SeedSequence(seed) that built the ensemble;
    # the trailing 1 keeps every step's draws apart from it
    meta = cell.meta
    c_a, c_b = _run(stats, cell.samples, cell.samples_b, [meta.seed, meta.step_index, 1], 1)[:2]
    return CellStateEnsemble(c_a, replace(meta, step_index=meta.step_index + 1), c_b)
