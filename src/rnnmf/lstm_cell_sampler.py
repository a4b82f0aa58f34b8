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

_DIVERGENCE_LIMIT = 1e12
_GATE_ORDER = ("i", "f", "r")  # column order of the per-step Gaussian draws


class NonFiniteSample(ArithmeticError):
    """A cell chain became non-finite or left the divergence limit. With
    finite gate statistics this cannot happen (|c'| < |c| + 1, so a chain
    started at 0 stays below its step count in absolute value): it flags
    non-finite gate statistics, or a warm start already beyond the limit."""


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
        if not np.all(np.isfinite(self.samples)):
            raise NonFiniteSample("ensemble contains non-finite samples")
        if self.samples_b is not None and self.samples_b.shape != self.samples.shape:
            raise ValueError("paired samples must match in shape")

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


def _check_divergence(c, theta: Hyperparameters):
    m = float(np.max(np.abs(c)))
    if not math.isfinite(m) or m > _DIVERGENCE_LIMIT:
        raise NonFiniteSample(
            f"cell chain diverged (max |c| = {m:.3g}) for theta {theta_hash(theta)}"
        )


def _update(c, z, mus, sigs):
    u_i = mus[0] + sigs[0] * z[..., 0]
    u_f = mus[1] + sigs[1] * z[..., 1]
    u_r = mus[2] + sigs[2] * z[..., 2]
    return sigmoid(u_f) * c + sigmoid(u_i) * np.tanh(u_r)


def _run(theta, stats, c_a, c_b, entropy, steps, extra=0):
    """`steps` cell updates of chain c_a and, unless c_b is None, of the
    coupled chain c_b, whose gate k sees C_k z_a + sqrt(1 - C_k^2) z_b.
    z_a comes from chain a's generator alone, so chain a is the same whether
    or not c_b is carried; at C_k = 1 the chains coincide. Returns both
    chains and the last step's draws (z_a, z_b)."""
    rng_a, rng_b = _streams(entropy)
    mus = np.array([stats[k].mu for k in _GATE_ORDER])
    sigs = np.array([math.sqrt(stats[k].sigma2) for k in _GATE_ORDER])
    if c_b is not None:
        cs = np.array([stats[k].c for k in _GATE_ORDER])
        roots = np.sqrt(np.maximum(1.0 - cs * cs, 0.0))
    z_a = z_b = None
    for _ in range(steps):
        z_a = rng_a.standard_normal((c_a.size, 3))
        c_a = _update(c_a, z_a, mus, sigs)
        _check_divergence(c_a, theta)
        if c_b is not None:
            z_b = rng_b.standard_normal(z_a.shape)
            c_b = _update(c_b, cs * z_a + roots * z_b, mus, sigs)
            _check_divergence(c_b, theta)
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
    c = _run(theta, stats, np.zeros(n_s), None, seed, n_iters)[0]
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
    pair correlations C_k of stats; at C_k = 1 they coincide exactly. A
    paired `init` of length n_s warm-starts the chains."""

    if n_s < 1 or n_iters < 0:
        raise ValueError("n_s >= 1 and n_iters >= 0 required")
    seed = _resolve_seed(seed)
    if init is None:
        c_a, c_b = np.zeros(n_s), np.zeros(n_s)
    elif init.paired and init.meta.n_s == n_s:
        c_a, c_b = init.samples.copy(), init.samples_b.copy()
    else:
        raise ValueError("init must be a paired ensemble of matching size")
    return _ensemble(theta, *_run(theta, stats, c_a, c_b, seed, n_iters)[:2], n_iters, seed)


def _step(theta, stats, cell, extra):
    if theta_hash(theta) != cell.meta.theta_digest:
        raise ValueError("theta does not match the ensemble's theta digest")
    # SeedSequence pads entropy with zeros, so [seed, step_index] at step 0
    # would replay the stream of SeedSequence(seed) that built the ensemble;
    # the trailing 1 keeps every step's draws apart from it
    meta, entropy = cell.meta, [cell.meta.seed, cell.meta.step_index, 1]
    c_a, c_b, z_a, z_b = _run(theta, stats, cell.samples, cell.samples_b, entropy, 1, extra)
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
