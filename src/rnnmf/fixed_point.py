"""Fixed points of the moment and correlation maps, slope chi, timescale xi.

solve_moments iterates the single-network moment map to (mu*, Q*);
solve_correlation then iterates the correlation map at that fixed state and
linearizes it, packaging everything into a FixedPointReport. In the ordered
phase at fully correlated inputs (chi(1) < 1, sigma_z = 1) it iterates
nothing: C* = 1 is the map's only fixed point on [0, 1], read off one map
evaluation at C = 1 (iterations 1). chi < 1 means
perturbations of the correlation decay like chi^t, i.e. over the timescale
xi = -1/log chi; chi >= 1 is reported with an infinite-timescale sentinel,
not an error, since criticality is the regime of interest.
"""

from __future__ import annotations

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
    _as_state,
    validate_theta,
)
from .lstm_cell_sampler import CellStateEnsemble, sample_cell_distribution
from .moment_maps import _degenerate, _moment_step, preactivation_stats, step_correlation
from .quadrature import DEFAULT_ORDER
from . import jacobian as _jacobian

__all__ = [
    "NoConvergence",
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
        gates = preactivation_stats(theta, arch, MomentState(mu, q, 0.0), inputs, order)
        cell = sample_cell_distribution(theta, gates, n_s=n_s, n_iters=n_iters, seed=_derived_seed(seed, it))
        mu, q, _ = _lstm_output_moments(gates, cell)
        e_o, e_o2 = _lstm_gate_o(gates)
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


_DAMPING = 0.5  # relaxation of the plain step that follows a rejected one
_MAX_STRETCH = 1024.0  # cap of the forward factor while the map expands


def _check_solver(tol, max_iter) -> None:
    """A tolerance and an evaluation budget that can describe a fixed point:
    tol a positive finite number, max_iter at least 1; ValueError
    otherwise."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")


def _iterate(G, x0, lo, hi, tol, max_iter, what):
    """Solve x = G(x) on [lo, hi] by safeguarded Anderson iteration.

    Iterates are floats, each clamped to [lo, hi], as is every map value.
    rate, the secant slope |G(x) - G(x')| / |x - x'| to the last accepted
    iterate x', estimates the contraction rate. While rate < 1 the next
    iterate mixes the last difference (Anderson type II, Walker & Ni 2011:
    the secant step), its step capped at a trust radius that doubles after
    every accepted iterate. An Anderson iterate that raises the residual
    |g|, g = G(x) - x, is rejected: the radius drops to half the rejected
    step, and a step that long is retried along the same direction from the
    last accepted iterate; once the radius is below |g| a plain step damped
    by _DAMPING is taken instead. With no history, or while the map expands
    (rate >= 1), the step is the plain one, G(x), stretched to x + s g by a
    factor s that doubles on each such step in a row, up to _MAX_STRETCH,
    and drops back to 1 when g changes sign. The error estimate is twice
    the larger of |g| / (1 - rate) and the uncapped Anderson step, g / (1 -
    J) for the secant slope J: the factor covers the change of slope across
    the last step. Stops when it is <= tol. Returns (x, |g|, estimate, map
    evaluations, accepted iterates); NoConvergence carries the accepted
    iterates. The map runs with numpy's overflow warnings off: far probes
    can send a sigmoid's exp past the float range, where the sigmoid is
    exactly 0 or 1 either way.
    """

    def clamp(v):
        return min(max(v, lo), hi)

    x = clamp(float(x0))
    x_prev = f_prev = None  # the last accepted iterate and its map value
    traj = []  # every accepted iterate
    base = None  # (last accepted iterate, step, its length) while x is a trial step
    r = err = math.inf
    radius = math.inf
    stretch, g_prev = 1.0, None
    with np.errstate(over="ignore"):
        for it in range(1, max_iter + 1):
            f = clamp(G(x))
            g = f - x
            r_new = abs(g)
            if base is not None and r_new > r:
                x_acc, step, length = base
                radius = 0.5 * abs(x - x_acc)
                if radius >= r:  # retry a shorter step the same way
                    x = clamp(x_acc + radius / length * step)
                else:
                    x, base = clamp(x_acc + _DAMPING * g_prev), None
                continue
            r = r_new
            radius *= 2.0
            rate = None
            if x_prev is not None:
                dx = x - x_prev
                dg = f - f_prev - dx
                if abs(dx) > 0.0:
                    rate = abs(f - f_prev) / abs(dx)
            x_prev, f_prev = x, f
            traj.append(x)
            base = None
            if rate is not None and rate < 1.0:
                dd = dg * dg
                gamma = dg * g / dd if dd > 0.0 else 0.0
                nxt = clamp(f - (0.0 + gamma * (dx + dg)))  # the mix adds from 0.0
                step = nxt - x
                length = abs(step)
                err = 2.0 * max(r / (1.0 - rate), length)
                if length > radius:
                    nxt = clamp(x + radius / length * step)
                base = (x, step, length)
                stretch = 1.0
            else:  # no history yet, or the map expands along it: plain step, stretched
                if g_prev is None or g * g_prev <= 0.0:
                    stretch = 1.0
                nxt = f if stretch == 1.0 else clamp(x + stretch * g)
                stretch = min(2.0 * stretch, _MAX_STRETCH)
                err = 0.0 if r == 0.0 else math.inf
            if err <= tol:
                return x, r, err, it, traj
            x, g_prev = nxt, g
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
    n_s: int = 200,
    n_iters: int = 200,
    seed: int = 0,
) -> MomentsSolution:
    """Iterate the moment map from the zero state to its fixed point.

    Quadrature architectures solve for Q alone, by the safeguarded Anderson
    iteration of _iterate on Q >= 0: the mean rule is affine in mu, mu' =
    a mu + b, with gate laws that depend on Q alone, so at each Q mu is its
    fixed point mu*(Q) = b / (1 - a) (0 where a rounds to 1), and the map
    is Q -> Q' of the moment-only step at (mu*(Q), Q), step_moments' Q'
    without the copies' pair integrals. It stops when the estimated
    distance to the fixed point, about residual / (1 - rate), is <= tol:
    residual is |dQ| of that map at the returned Q, error_estimate that
    distance, iterations the map evaluations and trajectory the accepted
    iterates as states (mu*(Q), Q), Q lifted to mu*(Q)^2 where below it.
    The LSTM resamples its cell ensemble every iteration and stops
    on a noise-aware window criterion (residual: the change across it;
    error_estimate: None). Raises NoConvergence with the trajectory after
    max_iter, and ValueError unless tol is a positive finite number and
    max_iter at least 1.
    """

    _check_solver(tol, max_iter)
    if arch.needs_cell:
        validate_theta(theta, arch)  # a quadrature cell's first map evaluation checks it
        if n_s < 2:
            raise ValueError(f"n_s = {n_s}: the sampled map's standard errors need n_s >= 2")
        return _solve_moments_lstm(theta, arch, inputs, order, tol, max_iter, n_s, n_iters, seed)

    mus = {}  # mu*(Q) at every Q the map was evaluated at

    def G(q):
        mus[q], q_n = _moment_step(theta, arch, None, q, inputs.R, order)
        return q_n

    def state(q):  # an iterate's state, its Q lifted to mu*(Q)^2 where below it
        mu = mus[q]
        return MomentState(mu, max(q, mu * mu), 0.0)

    try:
        q, r, err, it, traj = _iterate(G, 0.0, 0.0, math.inf, tol, max_iter, "moment")
    except NoConvergence as exc:
        raise NoConvergence(str(exc), map(state, exc.trajectory)) from None
    return MomentsSolution(
        state=state(q),
        trajectory=tuple(map(state, traj)),
        iterations=it,
        converged=True,
        residual=r,
        error_estimate=err,
        inputs=inputs,
        arch=arch.name,
    )


def chi_at(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    inputs: InputStats,
    state,
    c: float,
    order: int = DEFAULT_ORDER,
    n_s: int = 200,
    n_iters: int = 200,
    seed: int = 0,
) -> float:
    """Slope of the correlation map at correlation c around the fixed state.

    Quadrature architectures: exact, by Price's theorem, d/dC E[g(u_a)
    g(u_b)] = Sigma^2 E[g'(u_a) g'(u_b)]: the contribution functional whose
    mean is m1, with every two-primitive gate factor taken over the gate's
    pair at the correlation C_k that c implies, and the state powers s and
    s^2 read as mu* and E[s_a s_b] = c sigma*^2 + mu*^2 (see
    jacobian._correlation_slope). At c = 1 with fully correlated inputs
    every pair collapses and chi is m1 to the last bit. The LSTM evaluates
    the slope directly as the mean total contribution on the last update
    of the coupled cell frame whose chains the correlation map reads at c,
    which sidesteps differencing a sampled map. It sums the per-label means
    of jacobian._sampled_contribution at the gate correlations c implies,
    the accumulation jacobian.moments sums into m1, so at c = 1 chi is m1
    on one frame by construction; like moments it needs n_s >= 2
    (ValueError). After solve_correlation at the same seed, chi at C*
    reuses that frame. A degenerate (point-mass, zero-variance) state has
    no correlation direction, so every cell reads it at full correlation,
    c = 1 and sigma_z = 1, whatever c and inputs.sigma_z are: its slope is
    then the Jacobian moments' m1 to the last bit. theta is checked against
    arch by the gate laws the slope reads.
    """

    st = _as_state(state)
    if not -1.0 <= c <= 1.0:
        raise ValueError(f"correlation c = {c} outside [-1, 1]")
    if _degenerate(st.mu_s, st.q_s):
        c, inputs = 1.0, InputStats(inputs.R, 1.0)
    if arch.needs_cell:
        gates = preactivation_stats(theta, arch, MomentState(st.mu_s, max(st.q_s, st.mu_s**2), c), inputs, order)
        return sum(_jacobian._sampled_contribution(theta, gates, n_s, n_iters, seed, None).ea.values())
    return _jacobian._correlation_slope(theta, arch, MomentState(st.mu_s, st.q_s, c), inputs, order)


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
    point at the given (mu*, Q*), iterations the map evaluations. chi is
    chi_at's slope at C*. For the LSTM each evaluation reuses the same
    seed, so the sampled map is a fixed deterministic function; it
    normalizes on its own chains, so M(1) = 1 exactly and fully correlated
    inputs (sigma_z = 1) give C* = 1 in the ordered phase.

    That case is answered from C = 1 itself, without iterating: with
    sigma_z = 1 and c0 >= 0 the solve first reads chi(1), where every pair
    collapses (m1 to the bit), and if chi(1) < 1 evaluates the map once at
    C = 1. If that value, clamped to 1, is 1, the report is C* = 1 with
    residual and estimate 0, iterations 1, trajectory (1.0,) and chi =
    chi(1): what the iteration returns when it lands on 1. The map is
    convex on [0, 1] with M(1) = 1 and M'(1) = chi(1) < 1, so M(c) >=
    1 - chi(1)(1 - c) > c on [0, 1) and an iteration from any c0 in
    [0, 1] can only end at 1. Otherwise (chi(1) >= 1; M(1) < 1, which a
    quadrature cell's moment residual can give, M(1) - 1 = dQ / sigma*^2;
    c0 < 0; sigma_z < 1) the map is iterated from c0 as if the probe had
    not run, and the probe, like chi's evaluations, is not counted.

    When the fixed state is degenerate the correlation is undefined: C* = 1
    is reported by convention, without a map evaluation, and chi_at reads
    the state at full correlation. tol must be a positive finite number and
    max_iter at least 1 (ValueError otherwise).
    """

    _check_solver(tol, max_iter)
    st = _as_state(fixed)
    if not -1.0 <= c0 <= 1.0:
        raise ValueError(f"start correlation c0 = {c0} outside [-1, 1]")
    mu_res, mu_err = (fixed.residual, fixed.error_estimate) if isinstance(fixed, MomentsSolution) else (0.0, 0.0)

    def slope(c):
        return chi_at(theta, arch, inputs, st, c, order, n_s, n_iters, seed)

    if _degenerate(st.mu_s, st.q_s):  # no correlation direction: C* = 1 by convention
        c, resid_c, err_c, it, traj = 1.0, 0.0, 0.0, 0, [1.0]
        chi = slope(c)
    else:
        def G(c):
            return step_correlation(theta, arch, st, c, inputs, order, n_s, n_iters, seed)

        # M is convex on [0, 1]; with M(1) = 1 and M'(1) = chi(1) < 1 it
        # stays above c on [0, 1), so an iteration from c0 >= 0 ends at 1
        at_one = inputs.sigma_z == 1.0 and c0 >= 0.0
        if at_one and (chi := slope(1.0)) < 1.0 and min(G(1.0), 1.0) == 1.0:
            c, resid_c, err_c, it, traj = 1.0, 0.0, 0.0, 1, [1.0]
        else:
            c, resid_c, err_c, it, traj = _iterate(G, c0, -1.0, 1.0, tol, max_iter, "correlation")
            chi = slope(c)
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
