"""Finite-width, untied-weights simulator: the package's empirical oracle.

Runs the actual recurrent systems at width N with fresh Gaussian weight
draws per step (untied mode; tied mode reuses the first step's draws purely
for the comparison experiments). Provides coupled-pair moment trajectories,
a one-step state-to-state Jacobian assembled from the displayed derivative
formula, the same map as a callable for finite-difference checks, and raw
stationary cell samples.

Untied steps never build the weights. A fresh W makes the rows of
(W s_a, W s_b) independent Gaussian pairs with covariance (sigma2/N)
Gram(s_a, s_b), and likewise for U and the inputs, so each step draws the
pre-activations from that exact law in O(N) per gate (_gram_preactivations):
untied simulate_pair, simulate_cell_distribution and jacobian_frame's
burn-in. Dense N x N draws (_draw_step) remain where real matrices are
needed: tied simulate_pair and the one frozen step of a JacobianFrame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .cells import CELLS
from .core import (
    _DERIVATIVES,
    _PRIMS,
    ArchitectureSpec,
    Hyperparameters,
    InputStats,
    InvalidSchedule,
    SimulationConfig,
    _sigma_z_schedule,
    dtanh,
    sigmoid,
    validate_theta,
)

__all__ = [
    "NonFiniteState",
    "InvalidSchedule",
    "WeightDraw",
    "SpectrumReport",
    "TrajectoryPoint",
    "JacobianFrame",
    "simulate_pair",
    "build_jacobian",
    "jacobian_frame",
    "assemble_jacobian",
    "simulate_cell_distribution",
]

_MAX_SVD_N = 2048  # dense SVD guardrail


class NonFiniteState(ArithmeticError):
    pass


@dataclass(frozen=True)
class WeightDraw:
    """One step's weight draws: per gate W (N x N), U (N x M), b (N,)."""

    W: Mapping[str, np.ndarray]
    U: Mapping[str, np.ndarray]
    b: Mapping[str, np.ndarray]


@dataclass(frozen=True)
class SpectrumReport:
    """Squared singular values (descending) with their mean and variance."""

    squared_singular_values: np.ndarray
    mean: float
    variance: float

    @classmethod
    def from_matrix(cls, J: np.ndarray) -> "SpectrumReport":
        sv = np.linalg.svd(J, compute_uv=False)
        sq = np.sort(sv * sv)[::-1]
        return cls(squared_singular_values=sq, mean=float(np.mean(sq)), variance=float(np.var(sq)))


@dataclass(frozen=True)
class TrajectoryPoint:
    """Cross-unit empirical moments of a coupled pair at one time step."""

    t: int
    mu: float
    q: float
    c: float  # NaN when the state variance is (numerically) zero
    se_mu: float
    se_q: float
    se_c: float


def _draw_step(rng, theta: Hyperparameters, labels, N: int, M: int) -> WeightDraw:
    W, U, b = {}, {}, {}
    for k in labels:
        W[k] = rng.standard_normal((N, N)) * math.sqrt(theta.sigma2(k) / N)
        U[k] = rng.standard_normal((N, M)) * math.sqrt(theta.nu2(k) / N)
        b[k] = theta.mu(k) + rng.standard_normal(N) * math.sqrt(theta.rho2(k))
    return WeightDraw(W=W, U=U, b=b)


def _preactivations(arch: ArchitectureSpec, draw: WeightDraw, s: np.ndarray, z: np.ndarray) -> dict:
    u: dict = {}
    for g in arch.gates:
        if g.form == "gated":
            inner = _PRIMS[g.g_name](u[g.gated_by])
            u[g.label] = draw.W[g.label] @ (inner * s) + draw.U[g.label] @ z + draw.b[g.label]
        else:
            u[g.label] = draw.W[g.label] @ s + draw.U[g.label] @ z + draw.b[g.label]
    return u


def _check_finite(x: np.ndarray, t: int):
    if not np.all(np.isfinite(x)):
        raise NonFiniteState(f"state became non-finite at step {t}")


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a 1 x 1 or 2 x 2 covariance, singular or not."""
    l11 = math.sqrt(a[0, 0])
    if a.shape[0] == 1:
        return np.array([[l11]])
    l21 = a[1, 0] / l11 if l11 > 0.0 else 0.0
    return np.array([[l11, 0.0], [l21, math.sqrt(max(a[1, 1] - l21 * l21, 0.0))]])


def _gram_preactivations(rng, theta: Hyperparameters, arch: ArchitectureSpec, S: np.ndarray, Z: np.ndarray) -> dict:
    """One untied step's pre-activations of K = 1 or 2 copies that share the
    step's fresh weights, given their states S and inputs Z (K x N).

    Unit i of gate k sees W_i . x_a, W_i . x_b for a fresh row W_i, a
    Gaussian pair with covariance (sigma2_k / N) Gram(x_a, x_b); U adds
    (nu2_k / N) Gram(z_a, z_b) and the shared bias mu_k + sqrt(rho2_k) xi_i;
    rows and gates are independent. So u_k = L g + b with L the Cholesky
    factor of the summed Gram terms, exactly the dense step's law. x is S,
    or g(u_inner) * S for a gated gate. Copies equal in S and Z share one
    draw, so they stay bit-identical.
    """

    K, N = S.shape
    if K == 2 and np.array_equal(S[0], S[1]) and np.array_equal(Z[0], Z[1]):
        one = _gram_preactivations(rng, theta, arch, S[:1], Z[:1])
        return {k: np.broadcast_to(v, S.shape) for k, v in one.items()}
    zz = Z @ Z.T
    u: dict = {}
    for g in arch.gates:
        k = g.label
        x = _PRIMS[g.g_name](u[g.gated_by]) * S if g.form == "gated" else S
        L = _cholesky((theta.sigma2(k) * (x @ x.T) + theta.nu2(k) * zz) / N)
        u[k] = L @ rng.standard_normal((K, N)) + (theta.mu(k) + math.sqrt(theta.rho2(k)) * rng.standard_normal(N))
    return u


def _run_single(theta, arch, config, seed, inputs, steps):
    """steps untied updates of one width-N network from zero on i.i.d.
    inputs, then the generator, the input scale and (s, c, u) of the last
    update, u's gates as 1 x N rows."""
    validate_theta(theta, arch)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed if seed is None else seed))
    N, sqrtR = config.N, math.sqrt(inputs.R)
    S, C, u = np.zeros((1, N)), (np.zeros((1, N)) if arch.needs_cell else None), None
    for t in range(1, steps + 1):
        u = _gram_preactivations(rng, theta, arch, S, sqrtR * rng.standard_normal((1, N)))
        S, C = CELLS[arch.name].update(S, u, C)
        _check_finite(S, t)
    return rng, sqrtR, (S[0], None if C is None else C[0], u)


def _empirical(sa, sb, t) -> TrajectoryPoint:
    N = sa.size
    rt = math.sqrt(N)
    mu = 0.5 * float(np.mean(sa) + np.mean(sb))
    q = 0.5 * float(np.mean(sa * sa) + np.mean(sb * sb))
    se_mu = float(np.std(sa)) / rt
    se_q = float(np.std(sa * sa)) / rt
    if np.array_equal(sa, sb):
        # identical computation path: correlation is 1 by construction
        return TrajectoryPoint(t, mu, q, 1.0, se_mu, se_q, 0.0)
    va = float(np.var(sa))
    vb = float(np.var(sb))
    if va <= 0.0 or vb <= 0.0:
        return TrajectoryPoint(t, mu, q, math.nan, se_mu, se_q, math.nan)
    prod = sa * sb
    cov = float(np.mean(prod)) - float(np.mean(sa)) * float(np.mean(sb))
    denom = math.sqrt(va * vb)
    se_c = float(np.std(prod)) / rt / denom
    return TrajectoryPoint(t, mu, q, cov / denom, se_mu, se_q, se_c)


def simulate_pair(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    config: SimulationConfig,
    inputs: InputStats,
    tied: bool = False,
    seed: Optional[int] = None,
    sigma_z_schedule=None,
) -> list:
    """Trajectory of empirical (mu, Q, C) for two weight-sharing copies.

    Both copies start from the zero state and see the same weight
    draws every step (fresh per step unless tied); their inputs are i.i.d.
    per-coordinate Gaussian pairs with covariance R [[1, sz], [sz, 1]],
    where sz is inputs.sigma_z or, when given, sigma_z_schedule[t]. Returns
    TrajectoryPoints for t = 0..T with single-copy standard errors. A
    schedule with fewer than T entries, or with an entry outside [-1, 1]
    (NaN included), raises InvalidSchedule, the rule moment_trajectory
    shares.
    """

    validate_theta(theta, arch)
    N, T = config.N, config.T
    sched = _sigma_z_schedule(inputs, T, sigma_z_schedule)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed if seed is None else seed))
    labels = arch.labels()
    S = np.zeros((2, N))  # rows: copies a and b, both starting at zero
    C = np.zeros((2, N)) if arch.needs_cell else None
    sqrtR = math.sqrt(inputs.R)
    out = [_empirical(S[0], S[1], 0)]
    draw = _draw_step(rng, theta, labels, N, N) if tied else None
    for t in range(1, T + 1):
        sz = float(sched[t - 1])
        g1 = rng.standard_normal(N)
        g2 = rng.standard_normal(N)
        za = sqrtR * g1
        zb = sqrtR * (sz * g1 + math.sqrt(max(1.0 - sz * sz, 0.0)) * g2) if sz != 1.0 else za.copy()
        if tied:
            ua = _preactivations(arch, draw, S[0], za)
            ub = _preactivations(arch, draw, S[1], zb)
            u = {k: np.stack([ua[k], ub[k]]) for k in labels}
        else:
            u = _gram_preactivations(rng, theta, arch, S, np.stack([za, zb]))
        S, C = CELLS[arch.name].update(S, u, C)
        _check_finite(S, t)
        out.append(_empirical(S[0], S[1], t))
    return out


@dataclass(frozen=True)
class JacobianFrame:
    """A burned-in state with the fresh draws of one assembly step.

    one_step re-runs the step from an arbitrary state vector with everything
    else held fixed, which is exactly the map the assembled Jacobian is the
    derivative of. For the LSTM the tracked state is h and the previous cell
    enters through the stored output-gate pre-activations: c = artanh(h /
    sigmoid(u_o_prev)), so the map is closed in h.
    """

    arch: ArchitectureSpec = field(repr=False)
    state: np.ndarray
    u_o_prev: Optional[np.ndarray]
    draw: WeightDraw = field(repr=False)
    z: np.ndarray
    u: dict = field(repr=False)

    def _prev_cell(self, s: np.ndarray) -> Optional[np.ndarray]:
        """The previous cell value behind state s (None without a carried cell)."""
        return np.arctanh(s / sigmoid(self.u_o_prev)) if self.arch.needs_cell else None

    def one_step(self, s: np.ndarray) -> np.ndarray:
        u = _preactivations(self.arch, self.draw, s, self.z)
        return CELLS[self.arch.name].update(s, u, self._prev_cell(s))[0]


def jacobian_frame(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    config: SimulationConfig,
    seed: Optional[int] = None,
    inputs: Optional[InputStats] = None,
    burn_in: int = 100,
) -> JacobianFrame:
    """Burn the network in for burn_in steps, then freeze one step's draws."""

    inputs = inputs if inputs is not None else InputStats(1.0, 1.0)
    rng, sqrtR, (s, _, u) = _run_single(theta, arch, config, seed, inputs, burn_in)
    if arch.needs_cell and u is None:
        raise ValueError("burn_in must be >= 1 for the cell-carrying architecture")
    u_o = u["o"][0] if arch.needs_cell else None
    draw = _draw_step(rng, theta, arch.labels(), config.N, config.N)
    z = sqrtR * rng.standard_normal(config.N)
    u = _preactivations(arch, draw, s, z)
    return JacobianFrame(arch=arch, state=s, u_o_prev=u_o, draw=draw, z=z, u=u)


def assemble_jacobian(theta: Hyperparameters, frame: JacobianFrame) -> np.ndarray:
    """Derivative matrix of frame.one_step at frame.state, assembled from
    the per-gate derivative profiles and the frame's weight draws."""

    arch, rules = frame.arch, CELLS[frame.arch.name]
    s, u, draw = frame.state, frame.u, frame.draw
    N = s.size
    c = frame._prev_cell(s)
    diag = rules.d0(s, u, c)
    if c is not None:  # chain dh'/dc_prev through c_prev = artanh(h / sigmoid(u_o_prev))
        diag = diag / (sigmoid(frame.u_o_prev) * dtanh(c))
    inner_labels = {g.gated_by for g in arch.gates if g.gated_by is not None}
    J = np.diag(np.broadcast_to(np.asarray(diag, dtype=float), (N,)))
    for g in arch.gates:
        if g.form == "gated":
            sign, dg = _DERIVATIVES[g.g_name]
            uk = u[g.gated_by]
            outer = rules.dk[g.label](s, u, c)[:, None] * draw.W[g.label]
            J += outer * _PRIMS[g.g_name](uk)[None, :]
            J += (outer * (s * (sign * _PRIMS[dg](uk)))[None, :]) @ draw.W[g.gated_by]
        elif g.label not in inner_labels:  # inner gates act through their consumer
            d = rules.dk[g.label](s, u, c)
            if d.any():  # the peephole's output gate has an identically zero profile
                J += d[:, None] * draw.W[g.label]
    return J


def build_jacobian(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    config: SimulationConfig,
    seed: Optional[int] = None,
    inputs: Optional[InputStats] = None,
    burn_in: int = 100,
):
    """State-to-state Jacobian after burn-in, with its squared-SV spectrum.

    Assembles J = diag + sum_k diag(df/du_k) W_k (plus the gated chain term
    for architectures with a gated gate) from one frozen step and returns
    (J, SpectrumReport). Width is capped at 2048 to keep the dense SVD fast.
    """

    if config.N > _MAX_SVD_N:
        raise ValueError(f"N = {config.N} exceeds the SVD cap {_MAX_SVD_N}")
    frame = jacobian_frame(theta, arch, config, seed=seed, inputs=inputs, burn_in=burn_in)
    J = assemble_jacobian(theta, frame)
    if not np.all(np.isfinite(J)):
        raise NonFiniteState("assembled Jacobian has non-finite entries")
    return J, SpectrumReport.from_matrix(J)


def simulate_cell_distribution(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    config: SimulationConfig,
    seed: Optional[int] = None,
    inputs: Optional[InputStats] = None,
) -> np.ndarray:
    """Cell values of one width-N network after T steps of i.i.d. inputs.

    Only meaningful for the cell-carrying architectures (the peephole's
    tracked state is its cell; the LSTM's hidden state is paired with an
    internal cell, which is what gets returned).
    """

    if not CELLS[arch.name].has_cell:
        raise ValueError(f"{arch.name} has no cell state")
    inputs = inputs if inputs is not None else InputStats(1.0, 1.0)
    s, c, _ = _run_single(theta, arch, config, seed, inputs, config.T)[2]
    return c if arch.needs_cell else s
