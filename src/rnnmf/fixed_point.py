"""Fixed points of the moment and correlation maps, slope chi, timescale xi.

solve_moments iterates the single-network moment map to (mu*, Q*);
solve_correlation then iterates the correlation map at that fixed state and
linearizes it, packaging everything into a FixedPointReport. chi < 1 means
perturbations of the correlation decay like chi^t, i.e. over the timescale
xi = -1/log chi; chi >= 1 is reported with an infinite-timescale sentinel,
not an error, since criticality is the regime of interest.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cells import _lstm_gate_o, _lstm_output_moments
from .core import (
    ZERO_STATE,
    ArchitectureSpec,
    Hyperparameters,
    InputStats,
    MomentState,
    validate_theta,
)
from .lstm_cell_sampler import CellStateEnsemble, sample_cell_distribution
from .moment_maps import (
    _DEG_TOL,
    _correlation_step,
    _moment_step,
    preactivation_stats,
)
from .quadrature import DEFAULT_ORDER
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
    """Converged single-network moments with the iteration history (see
    solve_moments for residual and error_estimate)."""

    state: MomentState
    trajectory: tuple
    iterations: int
    converged: bool
    residual: float
    inputs: InputStats
    arch: str
    cell: Optional[CellStateEnsemble] = None
    error_estimate: Optional[float] = None

    @property
    def mu_star(self) -> float:
        return self.state.mu_s

    @property
    def q_star(self) -> float:
        return self.state.q_s


@dataclass(frozen=True)
class FixedPointReport:
    """Everything about one fixed point: moments, correlation, chi, xi.
    residuals and error_estimates are keyed "mu", "q" and "c"."""

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
    error_estimates: dict = field(default_factory=dict)

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


def _state(x) -> MomentState:
    return MomentState(float(x[0]), float(x[1]), 0.0)


def _derived_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _solve_moments_lstm(theta, arch, inputs, order, tol, max_iter, n_s, n_iters, seed):
    # Re-equilibration scheme: every outer iteration draws a fresh stationary
    # cell ensemble at the current (mu, Q), reads the output moments off it,
    # and repeats. Convergence is judged against the Monte Carlo noise floor:
    # the change across a 10-iteration window must be at most 3 pooled
    # standard errors, or tol if that is larger (a point-mass cell has zero
    # standard errors), for both moments. The reported moments are the window
    # mean, which averages down the per-iteration sampling noise.
    mu, q = 0.0, 0.0
    traj = [ZERO_STATE]
    hist = []  # (mu, q, se_mu, se_q)
    cell = None
    for it in range(1, max_iter + 1):
        stats = preactivation_stats(theta, arch, MomentState(mu, q, 0.0), inputs, order)
        cell = sample_cell_distribution(theta, stats, n_s=n_s, n_iters=n_iters, seed=_derived_seed(seed, it))
        e_o, e_o2 = gate_o = _lstm_gate_o(stats, order)
        mu, q, _ = _lstm_output_moments(stats, cell, gate_o, order)
        th = np.tanh(cell.samples)
        se_mu = e_o * float(np.std(th, ddof=1)) / math.sqrt(n_s)
        se_q = e_o2 * float(np.std(th * th, ddof=1)) / math.sqrt(n_s)
        traj.append(MomentState(mu, q, 0.0))
        hist.append((mu, q, se_mu, se_q))
        if len(hist) > _WINDOW:
            m0, q0, s0m, s0q = hist[-1 - _WINDOW]
            dm, dq = abs(mu - m0), abs(q - q0)
            noise_m, noise_q = 3.0 * math.sqrt(se_mu**2 + s0m**2), 3.0 * math.sqrt(se_q**2 + s0q**2)
            if dm <= max(noise_m, tol) and dq <= max(noise_q, tol):
                mu_bar, q_bar = (float(np.mean([h[j] for h in hist[-(_WINDOW + 1):]])) for j in (0, 1))
                return MomentsSolution(
                    state=MomentState(mu_bar, max(q_bar, mu_bar * mu_bar), 0.0),
                    trajectory=tuple(traj),
                    iterations=it,
                    converged=True,
                    residual=max(dm, dq),
                    inputs=inputs,
                    arch=arch.name,
                    cell=cell,
                )
    raise NoConvergence(f"moment iteration did not settle within {max_iter} iterations", traj)


_DEPTH = 2  # Anderson history: differences mixed into each step (at most dim x)
_DAMPING = 0.5  # relaxation of the plain step that follows a rejected one


def _norm(v) -> float:
    return float(np.max(np.abs(v)))


def _iterate(G, x0, project, point, tol, max_iter, what):
    """Solve x = project(G(x)) by safeguarded Anderson iteration.

    rate, the largest secant slope |G(x) - G(x_j)| / |x - x_j| over the
    history, estimates the contraction rate. While rate < 1 the next
    iterate mixes the last _DEPTH differences (Anderson type II, Walker & Ni
    2011); otherwise it is the plain step G(x). An Anderson iterate that
    raises the residual g = G(x) - x is rejected for a plain step damped by
    _DAMPING from the last accepted one, and the history is cleared. The
    error estimate is twice the larger of |g| / (1 - rate) and the next
    Anderson step, (I - J)^-1 g for the secant Jacobian J: the factor covers
    the change of slope across the last step. Stops when it is <= tol
    (max norms). Returns (point(x), |g|, estimate, map evaluations,
    accepted iterates); NoConvergence carries the accepted iterates.
    """

    x = project(np.atleast_1d(np.array(x0, dtype=float)))
    depth = min(_DEPTH, x.size)
    xs, fs, traj = [], [], []  # last depth + 1 accepted iterates, their map values; every accepted one
    mixed = False  # x is an Anderson candidate, not a plain step
    r = err = math.inf
    for it in range(1, max_iter + 1):
        f = project(G(x))
        r_new = _norm(f - x)
        if mixed and r_new > r:
            xs, fs = xs[-1:], fs[-1:]
            x, mixed = project(xs[0] + _DAMPING * (fs[0] - xs[0])), False
            continue
        r = r_new
        xs, fs = xs[-depth:] + [x], fs[-depth:] + [f]
        traj.append(point(x))
        rate = max(
            (_norm(f - fj) / d for xj, fj in zip(xs[:-1], fs[:-1]) if (d := _norm(x - xj)) > 0.0),
            default=math.inf,
        )
        if rate < 1.0:
            dx = np.diff(xs, axis=0).T
            dg = np.diff(fs, axis=0).T - dx
            gamma = np.linalg.lstsq(dg, f - x, rcond=None)[0]
            nxt = project(f - (dx + dg) @ gamma)
            err = 2.0 * max(r / (1.0 - rate), _norm(nxt - x))
        else:  # no history yet, or the map expands along it: plain step
            nxt = f
            err = 0.0 if r == 0.0 else math.inf
        if err <= tol:
            return point(x), r, err, it, traj
        x, mixed = nxt, rate < 1.0
    raise NoConvergence(
        f"{what} residual {r:.3e}, error estimate {err:.3e} > tol {tol:g} "
        f"after {max_iter} map evaluations",
        traj,
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

    Quadrature architectures use safeguarded Anderson iteration on (mu, Q),
    projected onto Q >= mu^2, with a damped plain-step fallback (see
    _iterate). The map is the moment-only step: step_moments' (mu', Q')
    without the copies' pair integrals and without re-validating theta,
    which is validated once here. It stops when the estimated distance to
    the fixed point, about residual / (1 - rate), is <= tol: residual is
    max(|dmu|, |dQ|) of the map at the returned point, error_estimate that
    distance, iterations the map evaluations and trajectory the accepted
    iterates. The LSTM resamples its cell ensemble every iteration and stops
    on a noise-aware window criterion (residual: the change across it;
    error_estimate: None). Raises NoConvergence with the trajectory after
    max_iter.
    """

    validate_theta(theta, arch)
    if arch.needs_cell:
        if start is not None:
            raise ValueError("start state not supported for the sampled map")
        if n_s < 2:
            raise ValueError(f"n_s = {n_s}: the sampled map's standard errors need n_s >= 2")
        return _solve_moments_lstm(theta, arch, inputs, order, tol, max_iter, n_s, n_iters, seed)

    def G(x):
        return np.array(_moment_step(theta, arch, *x.tolist(), inputs.R, order))

    def project(x):
        return np.array([x[0], max(x[1], x[0] * x[0])])

    start = start if start is not None else ZERO_STATE
    state, r, err, it, traj = _iterate(G, (start.mu_s, start.q_s), project, _state, tol, max_iter, "moment")
    return MomentsSolution(
        state=state,
        trajectory=tuple(traj),
        iterations=it,
        converged=True,
        residual=r,
        error_estimate=err,
        inputs=inputs,
        arch=arch.name,
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

    validate_theta(theta, arch)

    @functools.cache  # the one-sided stencils at eps and eps/2 share two points
    def M(cv: float) -> float:
        return _correlation_step(theta, arch, st, cv, inputs, None, order, n_s, n_iters, seed)

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

    Returns the full report (mu*, Q*, C*, chi, xi). C* comes from the
    solver of solve_moments on [-1, 1]: residuals["c"] is the projected map
    residual at C*, error_estimates["c"] the distance estimate to the fixed
    point at the given (mu*, Q*), iterations the map evaluations. For the
    LSTM each evaluation reuses the same seed, so the sampled map is a
    fixed deterministic function. When the fixed state is degenerate the
    correlation is undefined and C* = 1 is reported by convention, with chi
    from the contribution functional.
    """

    st = _as_state(fixed)
    if not -1.0 <= c0 <= 1.0:
        raise ValueError(f"start correlation c0 = {c0} outside [-1, 1]")
    mu_res, mu_err = (fixed.residual, fixed.error_estimate) if isinstance(fixed, MomentsSolution) else (0.0, 0.0)
    cell = fixed.cell if isinstance(fixed, MomentsSolution) else None

    if _degenerate(st):  # no correlation direction: C* = 1 by convention
        c, resid_c, err_c, it, traj, cell = 1.0, 0.0, 0.0, 0, [1.0], None
    else:
        validate_theta(theta, arch)

        def G(x):
            return np.array([_correlation_step(theta, arch, st, float(x[0]), inputs, cell, order, n_s, n_iters, seed)])

        c, resid_c, err_c, it, traj = _iterate(
            G, c0, lambda x: np.clip(x, -1.0, 1.0), lambda x: float(x[0]), tol, max_iter, "correlation"
        )
    chi = chi_at(theta, arch, inputs, st, c, order=order, n_s=n_s, n_iters=n_iters, seed=seed, cell=cell)
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
        error_estimates={"mu": mu_err, "q": mu_err, "c": err_c},
    )
