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
(_lstm_cell, which the cell table's peephole and LSTM rules use too) and
the map from draws to gate values (_gate_values, which the Jacobian frame
reuses).
Finiteness is checked once, when an ensemble is built, on both chains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import Hyperparameters, sigmoid, theta_hash

__all__ = [
    "NonFiniteSample",
    "EnsembleMeta",
    "CellStateEnsemble",
    "sample_cell_distribution",
    "correlated_cell_pairs",
    "advance_cell",
    "recorded_step",
]

_GATES = ("i", "f", "r", "o")  # column order of the per-step Gaussian draws


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


def _gate_values(stats, z_a, z_b=None):
    """Gate pre-activations {k: u_k} of chain a from its draws z_a, one
    column per gate in _GATES order, or of the coupled chain b given its
    independent part z_b: gate k of chain b sees C_k z_a + sqrt(1 - C_k^2) z_b."""
    u = {}
    for j, k in enumerate(_GATES[: z_a.shape[1]]):
        s, z = stats[k], z_a[:, j]
        if z_b is not None:
            z = s.c * z + math.sqrt(max(1.0 - s.c * s.c, 0.0)) * z_b[:, j]
        u[k] = s.mu + math.sqrt(s.sigma2) * z
    return u


def _run(stats, c_a, c_b, entropy, steps, extra=0):
    """`steps` cell updates of chain c_a and, unless c_b is None, of the
    coupled chain c_b (_gate_values). z_a comes from chain a's generator
    alone, so chain a is the same whether or not c_b is carried; at C_k = 1
    the chains coincide. Returns both chains and the last step's draws
    (z_a, z_b)."""
    rng_a, rng_b = _streams(entropy)
    z_a = z_b = None
    for _ in range(steps):
        z_a = rng_a.standard_normal((c_a.size, 3))
        c_a = _lstm_cell(_gate_values(stats, z_a), c_a)
        if c_b is not None:
            z_b = rng_b.standard_normal(z_a.shape)
            c_b = _lstm_cell(_gate_values(stats, z_a, z_b), c_b)
    if extra:  # more standard normal columns, drawn after the last step
        z_a = np.column_stack([z_a, rng_a.standard_normal((c_a.size, extra))])
        if c_b is not None:
            z_b = np.column_stack([z_b, rng_b.standard_normal((c_b.size, extra))])
    return c_a, c_b, z_a, z_b


def _ensemble(theta, c_a, c_b, n_iters, seed) -> CellStateEnsemble:
    meta = EnsembleMeta(n_s=c_a.size, n_iters=n_iters, seed=seed, theta_digest=theta_hash(theta))
    return CellStateEnsemble(samples=c_a, meta=meta, samples_b=c_b)


def sample_cell_distribution(
    theta: Hyperparameters,
    stats,
    n_s: int = 200,
    n_iters: int = 200,
    seed=None,
) -> CellStateEnsemble:
    """n_iters cell updates of n_s chains started at 0; stats maps the i, f
    and r gates to their GaussianPairSpec (preactivation_stats), of which
    the mean mu and variance sigma2 are used. Deterministic given the seed,
    and chain a of correlated_cell_pairs at the same seed. Raw samples, not
    clipped."""

    if n_s < 1 or n_iters < 0:
        raise ValueError("n_s >= 1 and n_iters >= 0 required")
    seed = _resolve_seed(seed)
    c = _run(stats, np.zeros(n_s), None, seed, n_iters)[0]
    return _ensemble(theta, c, None, n_iters, seed)


def correlated_cell_pairs(
    theta: Hyperparameters,
    stats,
    n_s: int = 200,
    n_iters: int = 200,
    seed=None,
    init: Optional[CellStateEnsemble] = None,
) -> CellStateEnsemble:
    """Coupled chains (c_a, c_b) with Cholesky-correlated gate draws at the
    pair correlations C_k of stats; at C_k = 1 they coincide exactly. An
    `init` ensemble of n_s samples warm-starts the chains; an unpaired one
    starts chain b as a copy of chain a."""

    if n_s < 1 or n_iters < 0:
        raise ValueError("n_s >= 1 and n_iters >= 0 required")
    seed = _resolve_seed(seed)
    if init is None:
        c_a, c_b = np.zeros(n_s), np.zeros(n_s)
    elif init.meta.n_s == n_s:
        c_a, c_b = init.samples.copy(), (init.samples_b if init.paired else init.samples).copy()
    else:
        raise ValueError(f"init holds {init.meta.n_s} samples, not n_s = {n_s}")
    return _ensemble(theta, *_run(stats, c_a, c_b, seed, n_iters)[:2], n_iters, seed)


def _step(theta, stats, cell, extra):
    if theta_hash(theta) != cell.meta.theta_digest:
        raise ValueError("theta does not match the ensemble's theta digest")
    # SeedSequence pads entropy with zeros, so [seed, step_index] at step 0
    # would replay the stream of SeedSequence(seed) that built the ensemble;
    # the trailing 1 keeps every step's draws apart from it
    meta, entropy = cell.meta, [cell.meta.seed, cell.meta.step_index, 1]
    c_a, c_b, z_a, z_b = _run(stats, cell.samples, cell.samples_b, entropy, 1, extra)
    return CellStateEnsemble(c_a, replace(meta, step_index=meta.step_index + 1), c_b), z_a, z_b


def advance_cell(theta: Hyperparameters, stats, cell: CellStateEnsemble) -> CellStateEnsemble:
    """One cell update with fresh draws from the ensemble's seed lineage,
    entropy [meta.seed, meta.step_index, 1]: the same ensemble and stats give
    bit-identical results. Paired ensembles advance both chains with
    correlated draws; chain a advances the same whether or not it is paired.
    """

    return _step(theta, stats, cell, 0)[0]


def recorded_step(theta: Hyperparameters, stats, cell: CellStateEnsemble):
    """advance_cell and its draws (ensemble, z_a, z_b): columns i, f, r of the
    step (z_b: chain b's independent part, None if unpaired), then one more
    standard normal drawn after them, the Jacobian frame's output gate."""

    return _step(theta, stats, cell, 1)
