"""Monte Carlo sampler for the stationary LSTM cell-state distribution.

The cell update c' = sigmoid(u_f) c + sigmoid(u_i) tanh(u_r) with i.i.d.
Gaussian gates is a perpetuity; its stationary law has no closed form (and
is typically heavy tailed), so moments are estimated from sampled chains.
Each sample owns an RNG stream derived from (seed, sample index), making
serial and parallel evaluation bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.special import expit

from .core import Hyperparameters, theta_hash

__all__ = [
    "NonFiniteSample",
    "EnsembleMeta",
    "CellStateEnsemble",
    "sample_cell_distribution",
    "correlated_cell_pairs",
    "advance_cell",
]

_DIVERGENCE_LIMIT = 1e12
_GATE_ORDER = ("i", "f", "r")  # column order of the per-step Gaussian draws


class NonFiniteSample(ArithmeticError):
    """A cell chain diverged (the perpetuity has no reachable stationary
    law for this Theta, or overflow occurred)."""


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


def _draw_streams(entropy, n_s: int, shape) -> np.ndarray:
    """One standard normal block of `shape` per sample, each from its own
    child of SeedSequence(entropy)."""
    children = np.random.SeedSequence(entropy).spawn(n_s)
    out = np.empty((n_s,) + shape)
    for j, ch in enumerate(children):
        out[j] = np.random.default_rng(ch).standard_normal(shape)
    return out


def _gate_params(stats):
    mus = np.array([stats.mu(k) for k in _GATE_ORDER])
    sigs = np.array([math.sqrt(stats.sigma2_pre(k)) for k in _GATE_ORDER])
    return mus, sigs


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
    return expit(u_f) * c + expit(u_i) * np.tanh(u_r)


def sample_cell_distribution(
    theta: Hyperparameters,
    stats,
    n_s: int = 200,
    n_iters: int = 200,
    seed=None,
) -> CellStateEnsemble:
    """Iterates the cell update n_iters times on n_s chains started at 0.

    stats supplies (mu_k, Sigma_k^2) for the i, f, r gates (any object with
    mu(k) and sigma2_pre(k)). Deterministic given the seed. Raw samples are
    kept as-is: no clipping, heavy tails included.
    """

    if n_s < 1 or n_iters < 0:
        raise ValueError("n_s >= 1 and n_iters >= 0 required")
    seed = _resolve_seed(seed)
    mus, sigs = _gate_params(stats)
    Z = _draw_streams(seed, n_s, (n_iters, 3))
    c = np.zeros(n_s)
    for t in range(n_iters):
        c = _update(c, Z[:, t, :], mus, sigs)
        _check_divergence(c, theta)
    meta = EnsembleMeta(n_s=n_s, n_iters=n_iters, seed=seed, theta_digest=theta_hash(theta))
    return CellStateEnsemble(samples=c, meta=meta)


def _pair_gates(stats):
    cs = np.array([stats.pair_c(k) for k in _GATE_ORDER])
    roots = np.sqrt(np.maximum(1.0 - cs * cs, 0.0))
    return cs, roots


def correlated_cell_pairs(
    theta: Hyperparameters,
    stats,
    n_s: int = 200,
    n_iters: int = 200,
    seed=None,
    init: Optional[CellStateEnsemble] = None,
) -> CellStateEnsemble:
    """Coupled chains (c_a, c_b) driven by Cholesky-correlated gate draws at
    the pair correlations C_k carried by stats. With C_k = 1 for all gates
    the two chains coincide exactly. A paired `init` warm-starts the chains
    (its length must match n_s).
    """

    if n_s < 1 or n_iters < 0:
        raise ValueError("n_s >= 1 and n_iters >= 0 required")
    seed = _resolve_seed(seed)
    mus, sigs = _gate_params(stats)
    cs, roots = _pair_gates(stats)
    Z = _draw_streams(seed, n_s, (n_iters, 3, 2))
    if init is not None:
        if not init.paired or init.meta.n_s != n_s:
            raise ValueError("init must be a paired ensemble of matching size")
        ca, cb = init.samples.copy(), init.samples_b.copy()
    else:
        ca, cb = np.zeros(n_s), np.zeros(n_s)
    for t in range(n_iters):
        z1 = Z[:, t, :, 0]
        z2 = Z[:, t, :, 1]
        zb = cs * z1 + roots * z2
        ca = _update(ca, z1, mus, sigs)
        cb = _update(cb, zb, mus, sigs)
        _check_divergence(ca, theta)
        _check_divergence(cb, theta)
    meta = EnsembleMeta(n_s=n_s, n_iters=n_iters, seed=seed, theta_digest=theta_hash(theta))
    return CellStateEnsemble(samples=ca, meta=meta, samples_b=cb)


def advance_cell(theta: Hyperparameters, stats, cell: CellStateEnsemble) -> CellStateEnsemble:
    """One cell update with fresh draws from the ensemble's seed lineage.

    The draw streams are derived from (meta.seed, meta.step_index), so two
    callers advancing the same ensemble with the same stats get bit-identical
    results. Paired ensembles advance both chains with correlated draws.
    """

    if theta_hash(theta) != cell.meta.theta_digest:
        raise ValueError("theta does not match the ensemble's theta digest")
    mus, sigs = _gate_params(stats)
    n_s = cell.meta.n_s
    if cell.paired:
        cs, roots = _pair_gates(stats)
        Z = _draw_streams([cell.meta.seed, cell.meta.step_index], n_s, (3, 2))
        z1, z2 = Z[:, :, 0], Z[:, :, 1]
        ca = _update(cell.samples, z1, mus, sigs)
        cb = _update(cell.samples_b, cs * z1 + roots * z2, mus, sigs)
        _check_divergence(ca, theta)
        _check_divergence(cb, theta)
        new_b = cb
    else:
        Z = _draw_streams([cell.meta.seed, cell.meta.step_index], n_s, (3,))
        ca = _update(cell.samples, Z, mus, sigs)
        _check_divergence(ca, theta)
        new_b = None
    meta = replace(cell.meta, step_index=cell.meta.step_index + 1)
    return CellStateEnsemble(samples=ca, meta=meta, samples_b=new_b)
