"""Fixed points of the moment and correlation maps, slope chi, timescale xi.

solve_moments iterates the single-network moment map to (mu*, Q*);
solve_correlation then iterates the correlation map at that fixed state and
linearizes it, packaging everything into a FixedPointReport. chi < 1 means
perturbations of the correlation decay like chi^t, i.e. over the timescale
xi = -1/log chi; chi >= 1 is reported with an infinite-timescale sentinel,
not an error, since criticality is the regime of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cells import _lstm_output_moments
from .core import (
    ZERO_STATE,
    ArchitectureSpec,
    Hyperparameters,
    InputStats,
    MomentState,
    sigmoid,
    validate_theta,
)
from .lstm_cell_sampler import CellStateEnsemble, sample_cell_distribution
from .moment_maps import (
    _DEG_TOL,
    preactivation_stats,
    step_correlation,
    step_moments,
)
from .quadrature import DEFAULT_ORDER, expect1
from . import jacobian as _jacobian

__all__ = [
    "NoConvergence",
    "DerivativeUnstable",
    "MomentsSolution",
    "FixedPointReport",
    "solve_moments",
    "solve_correlation",
    "chi_at",
]

_WINDOW = 10  # sampled-map convergence window (iterations)


class NoConvergence(ArithmeticError):
    """Iteration hit max_iter; carries the trajectory for diagnosis."""

    def __init__(self, msg, trajectory=()):
        super().__init__(msg)
        self.trajectory = tuple(trajectory)


class DerivativeUnstable(ArithmeticError):
    """Finite-difference slope estimates at two step sizes disagree."""


@dataclass(frozen=True)
class MomentsSolution:
    """Converged single-network moments with the iteration history."""

    state: MomentState
    trajectory: tuple
    iterations: int
    converged: bool
    residual: float
    inputs: InputStats
    arch: str
    cell: Optional[CellStateEnsemble] = None

    @property
    def mu_star(self) -> float:
        return self.state.mu_s

    @property
    def q_star(self) -> float:
        return self.state.q_s


@dataclass(frozen=True)
class FixedPointReport:
    """Everything about one fixed point: moments, correlation, chi, xi."""

    arch: str
    mu_star: float
    q_star: float
    c_star: float
    chi: float
    xi: float
    iterations: int
    residuals: dict
    converged: bool
    inputs: InputStats
    trajectory: tuple = field(default=(), repr=False)

    @property
    def stable(self) -> bool:
        return self.chi <= 1.0

    def to_json_dict(self) -> dict:
        return {
            "arch": self.arch,
            "mu_star": self.mu_star,
            "q_star": self.q_star,
            "c_star": self.c_star,
            "chi": self.chi,
            "xi": "inf" if math.isinf(self.xi) else self.xi,
            "iterations": self.iterations,
            "residuals": dict(self.residuals),
            "converged": self.converged,
            "inputs": {"R": self.inputs.R, "sigma_z": self.inputs.sigma_z},
        }


def _as_state(fixed) -> MomentState:
    if isinstance(fixed, MomentState):
        return fixed
    if isinstance(fixed, MomentsSolution):
        return fixed.state
    return MomentState(fixed.mu_star, fixed.q_star, getattr(fixed, "c_star", 0.0))


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _solve_moments_lstm(theta, arch, inputs, order, tol, max_iter, n_s, n_iters, seed):
    # Re-equilibration scheme: every outer iteration draws a fresh stationary
    # cell ensemble at the current (mu, Q), reads the output moments off it,
    # and repeats. Convergence is judged against the Monte Carlo noise floor:
    # the change across a 10-iteration window must drop below 3 pooled
    # standard errors for both moments. The reported moments are the window
    # mean, which averages down the per-iteration sampling noise.
    mu, q = 0.0, 0.0
    traj = [ZERO_STATE]
    hist = []  # (mu, q, se_mu, se_q)
    cell = None
    for it in range(1, max_iter + 1):
        state = MomentState(mu, q, 0.0)
        stats = preactivation_stats(theta, arch, state, inputs, order)
        cell = sample_cell_distribution(
            theta, stats, n_s=n_s, n_iters=n_iters, seed=_derived_seed(seed, it)
        )
        mu, q, _ = _lstm_output_moments(stats, cell, order)
        th = np.tanh(cell.samples)
        e_o = expect1(sigmoid, stats.mu("o"), stats.sigma2_pre("o"), order)
        e_o2 = expect1(lambda u: sigmoid(u) ** 2, stats.mu("o"), stats.sigma2_pre("o"), order)
        rt = math.sqrt(n_s)
        se_mu = e_o * float(np.std(th, ddof=1)) / rt
        se_q = e_o2 * float(np.std(th * th, ddof=1)) / rt
        traj.append(MomentState(mu, q, 0.0))
        hist.append((mu, q, se_mu, se_q))
        if len(hist) > _WINDOW:
            m0, q0, s0m, s0q = hist[-1 - _WINDOW]
            dm, dq = abs(mu - m0), abs(q - q0)
            pm = math.sqrt(se_mu**2 + s0m**2)
            pq = math.sqrt(se_q**2 + s0q**2)
            if dm < 3.0 * pm and dq < 3.0 * pq:
                tail = hist[-(_WINDOW + 1):]
                mu_bar = float(np.mean([h[0] for h in tail]))
                q_bar = float(np.mean([h[1] for h in tail]))
                q_bar = max(q_bar, mu_bar * mu_bar)
                return MomentsSolution(
                    state=MomentState(mu_bar, q_bar, 0.0),
                    trajectory=tuple(traj),
                    iterations=it,
                    converged=True,
                    residual=max(dm, dq),
                    inputs=inputs,
                    arch=arch.name,
                    cell=cell,
                )
    raise NoConvergence(
        f"moment iteration did not settle within {max_iter} iterations", traj
    )


def solve_moments(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    inputs: InputStats,
    order: int = DEFAULT_ORDER,
    tol: float = 1e-9,
    max_iter: int = 10000,
    start: Optional[MomentState] = None,
    n_s: int = 200,
    n_iters: int = 200,
    seed: int = 0,
) -> MomentsSolution:
    """Iterate the moment map from the zero state to its fixed point.

    Quadrature architectures use plain fixed-point iteration to |delta| < tol
    (relaxation 0.5 kicks in if the Q updates start alternating in sign).
    The LSTM resamples its cell ensemble every iteration and stops on a
    noise-aware window criterion. Raises NoConvergence with the trajectory
    attached when max_iter is exhausted.
    """

    validate_theta(theta, arch)
    if arch.needs_cell:
        if start is not None:
            raise ValueError("start state not supported for the sampled map")
        return _solve_moments_lstm(theta, arch, inputs, order, tol, max_iter, n_s, n_iters, seed)

    state = start if start is not None else ZERO_STATE
    traj = [state]
    damping = 1.0
    prev_dq = 0.0
    residual = math.inf
    for it in range(1, max_iter + 1):
        new = step_moments(theta, arch, state, inputs, order=order)
        dmu = new.mu_s - state.mu_s
        dq = new.q_s - state.q_s
        if damping == 1.0 and dq * prev_dq < 0.0:
            damping = 0.5
        prev_dq = dq
        if damping < 1.0:
            q_d = state.q_s + damping * dq
            mu_d = state.mu_s + damping * dmu
            new = MomentState(mu_d, max(q_d, mu_d * mu_d), new.c_s)
        traj.append(new)
        residual = max(abs(dmu), abs(dq))
        state = new
        if abs(dmu) < tol and abs(dq) < tol:
            return MomentsSolution(
                state=state,
                trajectory=tuple(traj),
                iterations=it,
                converged=True,
                residual=residual,
                inputs=inputs,
                arch=arch.name,
            )
    raise NoConvergence(
        f"moment iteration residual {residual:.3e} > tol after {max_iter} iterations", traj
    )


def _degenerate(state: MomentState) -> bool:
    return state.sigma2_s <= _DEG_TOL * max(1.0, abs(state.q_s))


def chi_at(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    inputs: InputStats,
    state,
    c: float,
    order: int = DEFAULT_ORDER,
    eps: float = 1e-4,
    n_s: int = 200,
    n_iters: int = 200,
    seed: int = 0,
    cell: Optional[CellStateEnsemble] = None,
) -> float:
    """Slope of the correlation map at correlation c around the fixed state.

    Quadrature architectures: central finite difference with step eps plus a
    Richardson pass at eps/2 (the extrapolated value is returned; the two raw
    estimates must agree to 1e-4 relative or DerivativeUnstable is raised).
    At c = 1 a one-sided second-order stencil is used since correlations
    cannot exceed 1. The LSTM evaluates the slope directly as the mean total
    contribution on a coupled stationary cell frame (same functional as m1,
    evaluated at the gate correlations induced by c), which sidesteps
    differencing a sampled map. A degenerate fixed state (zero variance) has
    no correlation direction; the slope then falls back to the contribution
    functional m1 evaluated at the fixed point.
    """

    st = _as_state(state)
    if not -1.0 <= c <= 1.0:
        raise ValueError(f"correlation c = {c} outside [-1, 1]")
    if arch.needs_cell:
        frame_state = MomentState(st.mu_s, max(st.q_s, st.mu_s**2), c)
        stats = preactivation_stats(theta, arch, frame_state, inputs, order)
        init = None
        if cell is not None and cell.paired:
            init = cell
        frame = _jacobian.lstm_chi_frame(theta, stats, n_s=n_s, n_iters=n_iters, seed=seed, init=init)
        # mean each contribution, then sum in label order: the same
        # accumulation the moment assembly uses, so common random numbers
        # make chi and m1 agree to the last bit at c = 1
        return float(sum(float(np.mean(v)) for v in frame.values()))

    if _degenerate(st):
        return _jacobian.moments(theta, arch, st, inputs=inputs, order=order).m1

    def M(cv: float) -> float:
        return step_correlation(theta, arch, st, cv, inputs, order=order)

    def slope(h: float) -> float:
        if c + h > 1.0:
            # one-sided, second order, stepping down from c
            return (3.0 * M(c) - 4.0 * M(c - h) + M(c - 2.0 * h)) / (2.0 * h)
        if c - h < -1.0:
            return (-3.0 * M(c) + 4.0 * M(c + h) - M(c + 2.0 * h)) / (2.0 * h)
        return (M(c + h) - M(c - h)) / (2.0 * h)

    s1 = slope(eps)
    s2 = slope(eps / 2.0)
    if abs(s1 - s2) > 1e-4 * max(1.0, abs(s2)):
        raise DerivativeUnstable(
            f"slope estimates {s1!r} (eps) and {s2!r} (eps/2) disagree beyond 1e-4 relative"
        )
    out = (4.0 * s2 - s1) / 3.0
    if out < 0.0:
        if out < -1e-8:
            raise ArithmeticError(f"chi = {out} negative beyond numerical noise (bug)")
        out = 0.0
    return out


def _xi_from_chi(chi: float) -> float:
    if chi >= 1.0:
        return math.inf
    if chi <= 0.0:
        return 0.0
    return -1.0 / math.log(chi)


def solve_correlation(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    inputs: InputStats,
    fixed,
    c0: float = 0.0,
    order: int = DEFAULT_ORDER,
    tol: float = 1e-9,
    max_iter: int = 10000,
    n_s: int = 200,
    n_iters: int = 200,
    seed: int = 0,
) -> FixedPointReport:
    """Iterate the correlation map from c0 to C*, then linearize.

    Returns the full report (mu*, Q*, C*, chi, xi). For the LSTM each
    iteration reuses the same seed, so the sampled map is a fixed
    deterministic function and the iteration converges like one. When the
    fixed state is degenerate the correlation is undefined and C* = 1 is
    reported by convention, with chi from the contribution functional.
    """

    st = _as_state(fixed)
    if not -1.0 <= c0 <= 1.0:
        raise ValueError(f"start correlation c0 = {c0} outside [-1, 1]")
    mu_res = fixed.residual if isinstance(fixed, MomentsSolution) else 0.0
    cell = fixed.cell if isinstance(fixed, MomentsSolution) else None

    if _degenerate(st):
        chi = chi_at(theta, arch, inputs, st, 1.0, order=order, n_s=n_s, n_iters=n_iters, seed=seed)
        return FixedPointReport(
            arch=arch.name,
            mu_star=st.mu_s,
            q_star=st.q_s,
            c_star=1.0,
            chi=chi,
            xi=_xi_from_chi(chi),
            iterations=0,
            residuals={"mu": mu_res, "q": mu_res, "c": 0.0},
            converged=True,
            inputs=inputs,
            trajectory=(1.0,),
        )

    kw = dict(order=order, n_s=n_s, n_iters=n_iters, seed=seed, cell=cell)
    c = float(c0)
    traj = [c]
    damping = 1.0
    prev_dc = 0.0
    converged = False
    it = 0
    step = 0.0
    for it in range(1, max_iter + 1):
        c_new = step_correlation(theta, arch, st, c, inputs, **kw)
        dc = c_new - c
        if damping == 1.0 and dc * prev_dc < 0.0:
            damping = 0.5
        prev_dc = dc
        c_next = c + damping * dc if damping < 1.0 else c_new
        c_next = min(max(c_next, -1.0), 1.0)
        # the iteration lives on [-1, 1]: convergence is judged on the
        # projected step, else a map overshooting 1.0 by a residual-sized
        # amount would pin at the boundary without ever registering
        step = c_next - c
        c = c_next
        traj.append(c)
        if abs(step) < tol:
            converged = True
            break
    if not converged:
        raise NoConvergence(
            f"correlation iteration |dc| = {abs(step):.3e} > tol after {max_iter} iterations",
            traj,
        )
    resid_c = abs(step_correlation(theta, arch, st, c, inputs, **kw) - c)
    chi = chi_at(
        theta, arch, inputs, st, c, order=order, n_s=n_s, n_iters=n_iters, seed=seed, cell=cell
    )
    return FixedPointReport(
        arch=arch.name,
        mu_star=st.mu_s,
        q_star=st.q_s,
        c_star=c,
        chi=chi,
        xi=_xi_from_chi(chi),
        iterations=it,
        residuals={"mu": mu_res, "q": mu_res, "c": resid_c},
        converged=True,
        inputs=inputs,
        trajectory=tuple(traj),
    )
