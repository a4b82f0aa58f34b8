"""Pre-activation statistics and the deterministic moment / correlation maps.

At large width the gate pre-activations of one unit are jointly Gaussian and
independent across distinct gates, so the evolution of (mu_s, Q_s, C_s)
closes into scalar recursions whose coefficients are one- and two-point
Gaussian expectations. The LSTM is the exception: its hidden-state moments
depend on the cell-state distribution, supplied here as a sampled ensemble.

Every map reads its gates from their laws at the state's second moment
(_gate_table), built once per state, gates of equal mean and variance
sharing one. Each law (quadrature._Law) keeps every expectation over it,
so a correlation map evaluation at a fixed state computes only the gate
correlations, the pair grids at them and rho'. The maps hand a quadrature
cell's moment rule (cells.CellRules) the laws' expectations directly: the
moment map reads no pair and no correlation, since at full correlation
every pair is the law's E[g^2].
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from .cells import CELLS, _lstm_correlate, _lstm_step, _rho_s
from .core import (
    _PRIMS,
    ZERO_STATE,
    ArchitectureSpec,
    Hyperparameters,
    InputStats,
    MomentState,
    _sigma_z_schedule,
    validate_theta,
)
from .lstm_cell_sampler import correlated_cell_pairs
from .quadrature import DEFAULT_ORDER, GaussianPairSpec, _Law

__all__ = [
    "DegenerateCorrelation",
    "MissingCellEnsemble",
    "preactivation_stats",
    "step_moments",
    "step_correlation",
    "moment_trajectory",
]

# relative floor below which a variance is treated as a point mass
_DEG_TOL = 1e-13


class DegenerateCorrelation(ArithmeticError):
    """Correlation requested for a zero-variance (point mass) quantity."""


class MissingCellEnsemble(ValueError):
    """The LSTM moment map needs a sampled cell ensemble and none (or the
    wrong kind) was supplied."""


def _degenerate(mu: float, q: float) -> bool:
    """Whether moments (mu, Q) are a point mass: Q finite and Q - mu^2 at
    most a relative _DEG_TOL, where no correlation is defined. An infinite
    Q is not one: the maps reject its infinite gate laws."""
    return math.isfinite(q) and q - mu * mu <= _DEG_TOL * max(1.0, abs(q))


def _finish_corr(cov: float, var: float) -> float:
    """The correlation cov / var clamped to [-1, 1], 0 when var <= 0; beyond
    1 + 1e-9 the moments were not those of a pair (a bug)."""
    if var <= 0.0:
        return 0.0
    c = cov / var
    if abs(c) > 1.0 + 1e-9:
        raise ArithmeticError(f"correlation {c} out of range (bug)")
    return min(max(c, -1.0), 1.0)


def _gate_table(theta, arch, q: float, R: float, order: int) -> tuple:
    """(laws, plan) at state second moment q and input second moment R:
    laws maps each gate label to its quadrature._Law, one law for gates of
    equal (mu, sigma2), and plan lists (label, GateParams, inner gate or
    None, its g_name) in stats order, an inner gate before the gate it
    gates. theta keeps the newest pair it built, so the map evaluations,
    chi and Jacobian moments at one fixed point read one set of laws;
    theta is validated against arch when it holds none for arch. Linear
    gates are closed-form; a gated gate's variance integrates the inner
    gate's nonlinearity squared. An infinite law variance raises
    ValueError, with the message the pair record gives its correlation
    inf / inf, once every law is built."""
    key = (q, R, order, arch)
    newest = theta._memo.get("gate_table")
    if newest is not None and newest[0] == key:
        return newest[1]
    if newest is not None and newest[0][3] is arch:
        plan = newest[1][1]
    else:
        validate_theta(theta, arch)
        plan = [(g.label, theta[g.label], g.gated_by, g.g_name) for g in arch.linear_gates() + arch.gated_gates()]
    laws, shared = {}, {}  # shared: (mu, sigma2) -> law
    for label, p, inner, g in plan:
        gain = 1.0 if inner is None else laws[inner].expect((g, g))  # p.sigma2 * 1.0 is p.sigma2
        law_params = (p.mu, p.sigma2 * gain * q + p.nu2 * R + p.rho2)
        if law_params not in shared:
            shared[law_params] = _Law(*law_params, order, _PRIMS)
        laws[label] = shared[law_params]
    if any(law.sigma2 == math.inf for law in shared.values()):  # the pair record's correlation inf / inf
        raise ValueError("|c| must be <= 1, got nan")
    theta._memo["gate_table"] = (key, (laws, plan))
    return laws, plan


class _Gates(Mapping):
    """The gates' laws at one state's gate correlations c: a read-only
    mapping from gate label to GaussianPairSpec that also evaluates each
    gate's expectations, the one reading of the gates the cell rules
    take."""

    def __init__(self, laws: dict, c: dict):
        self._laws, self._c = laws, c

    def __getitem__(self, k: str) -> GaussianPairSpec:
        law = self._laws[k]
        return GaussianPairSpec(law.mu, law.sigma2, self._c[k])

    def __iter__(self):
        return iter(self._c)

    def __len__(self) -> int:
        return len(self._c)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"

    def expect(self, k: str, prims: tuple) -> float:
        """E[prod of prims(u_k)] (_Law.expect)."""
        return self._laws[k].expect(prims)

    def pair(self, k: str, pa: str, pb: str) -> float:
        """E[pa(u_k,a) pb(u_k,b)] at gate k's correlation (_Law.pair)."""
        return self._laws[k].pair(pa, pb, self._c[k])


def preactivation_stats(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    state: MomentState,
    inputs: InputStats,
    order: int = DEFAULT_ORDER,
) -> Mapping[str, GaussianPairSpec]:
    """Gaussian statistics of every gate pre-activation given the state
    moments, as a read-only mapping from gate label to the pair
    GaussianPairSpec(mu, sigma2, c) of its pre-activations on the two
    coupled sequences: mean mu, variance sigma2 and correlation c, which is
    0 at a point mass (sigma2 = 0), where any value works and the pair
    collapses to the mean. Linear gates are closed-form; gated
    pre-activations integrate the inner gate's nonlinearity over its
    (correlated pair) distribution. Only the correlations are computed
    here; the gates' laws are those of (Q, R).
    """

    return _Gates(*_correlations(theta, arch, state, inputs, order))


def _correlations(theta, arch, state, inputs, order) -> tuple:
    """(laws, c) of preactivation_stats: the gates' laws (_gate_table) and
    their correlations c by gate label."""
    laws, plan = _gate_table(theta, arch, state.q_s, inputs.R, order)
    rho_s = _rho_s(state)
    c = {}
    for label, p, inner, g in plan:
        state_cov = p.sigma2 * rho_s if inner is None else p.sigma2 * laws[inner].pair(g, g, c[inner]) * rho_s
        c[label] = _finish_corr(state_cov + p.nu2 * inputs.R * inputs.sigma_z + p.rho2, laws[label].sigma2)
    return laws, c


def _read(rules, laws, c=None) -> tuple:
    """(e, sq) of the quadrature cell's moment rule: e the means of its
    reads and sq their squares, or their pair means at the gate
    correlations c when given."""
    e = [laws[k].expect((p,)) for k, p in rules.reads]
    return e, [laws[k].expect((p, p)) if c is None else laws[k].pair(p, p, c[k]) for k, p in rules.reads]


def _correlation_from(rho: float, mu: float, q: float) -> float:
    return 0.0 if _degenerate(mu, q) else _finish_corr(rho - mu * mu, q - mu * mu)


def _step(theta, arch, state, inputs, cell, order):
    """One moment step: (new state, advanced cell), through a quadrature
    cell's record, or for the sampled LSTM through its step on the cell
    ensemble, which must be given; an unpaired one gives no rho'."""
    if not arch.needs_cell:
        rules = CELLS[arch.name]
        laws, c = _correlations(theta, arch, state, inputs, order)
        mu_n, q_n = _moments(rules, laws, state.mu_s, state.q_s)
        return MomentState(mu_n, q_n, _correlation_from(_cross_moment(rules, laws, c, state), mu_n, q_n)), None
    if cell is None:
        raise MissingCellEnsemble(f"the {arch.name} moment map needs a cell ensemble")
    mu_n, q_n, rho_n, cell_new = _lstm_step(theta, preactivation_stats(theta, arch, state, inputs, order), state, cell)
    if rho_n is None:  # unpaired ensemble
        if _degenerate(mu_n, q_n):
            return MomentState(mu_n, max(q_n, mu_n * mu_n), 0.0), cell_new
        raise MissingCellEnsemble(
            f"correlation stepping for the {arch.name} needs a paired ensemble "
            "(see correlated_cell_pairs)"
        )
    return MomentState(mu_n, q_n, _correlation_from(rho_n, mu_n, q_n)), cell_new


def _moments(rules, laws, mu, q: float) -> tuple:
    """(mu', Q') of a quadrature cell's moment rule over the gate laws at
    Q. With mu None it is (mu*(Q), Q') instead: mu*(Q) = b / (1 - a), the
    fixed point of the mean rule mu' = a mu + b, which is affine in mu with
    gate laws that depend on Q alone, and Q' taken at it. Where a rounds to
    1 every mean is carried and mu*(Q) is the zero start's, 0."""
    e, sq = _read(rules, laws)
    if mu is None:
        b = rules.mean(e, 0.0)
        a = rules.mean(e, 1.0) - b
        mu = b / (1.0 - a) if a < 1.0 else 0.0
        return mu, rules.second(e, sq, mu, q)
    return rules.mean(e, mu), rules.second(e, sq, mu, q)


def _moment_step(theta, arch, mu, q: float, R: float, order) -> tuple:
    """(mu', Q') of step_moments for a quadrature cell at state moments
    (mu, Q) and input second moment R, or with mu None the map
    solve_moments iterates, (mu*(Q), Q') (_moments). Neither depends on C
    or sigma_z, so the step reads the gates at full correlation: no pair
    grid or correlation is evaluated."""
    return _moments(CELLS[arch.name], _gate_table(theta, arch, q, R, order)[0], mu, q)


def _cross_moment(rules, laws, c, state: MomentState) -> float:
    """rho' = E[s_a' s_b'] of a quadrature cell: its second-moment rule
    over the pair means at the gate correlations c and E[s_a s_b]."""
    e, pairs = _read(rules, laws, c)
    return rules.second(e, pairs, state.mu_s, _rho_s(state))


def step_moments(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    state: MomentState,
    inputs: InputStats,
    cell=None,
    order: int = DEFAULT_ORDER,
) -> MomentState:
    """One step of the moment map: (mu, Q, C) -> (mu', Q', C').

    For the LSTM a cell ensemble must be supplied; it is advanced one step
    (using this state's gate statistics) to evaluate the output moments.
    advance_cell reproduces the identical advance from the ensemble's seed
    lineage. Correlation output for the LSTM requires a paired ensemble
    unless the result is degenerate.
    """

    return _step(theta, arch, state, inputs, cell, order)[0]


def step_correlation(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    fixed: MomentState,
    c_s: float,
    inputs: InputStats,
    order: int = DEFAULT_ORDER,
    n_s: int = 200,
    n_iters: int = 200,
    seed: int = 0,
) -> float:
    """The scalar correlation map C -> M_C(C) at a converged (mu*, Q*).

    For the quadrature cells the normalization uses the fixed (mu*, Q*), so
    at the moment fixed point the map is exactly one dimensional in C. For
    the LSTM the value is the correlation of the outputs of stationary
    coupled cell pairs equilibrated from zero at the gate correlations
    implied by C, divided by those same chains' output variances
    (deterministic in C for a fixed seed, which keeps fixed-point iteration
    well posed). Identical chains give exactly 1, so M(1) = 1 as for the
    other cells.
    """

    if _degenerate(fixed.mu_s, fixed.q_s):
        raise DegenerateCorrelation(
            "correlation map undefined at a degenerate (point mass) state"
        )
    if abs(c_s) > 1.0:
        raise ValueError(f"|C| must be <= 1, got {c_s}")
    state = MomentState(fixed.mu_s, fixed.q_s, c_s)
    if arch.needs_cell:  # sampled pairs, normalized on their own variances
        gates = preactivation_stats(theta, arch, state, inputs, order)
        cov, var_a, var_b = _lstm_correlate(theta, gates, n_s, n_iters, seed)
        return _finish_corr(cov, math.sqrt(var_a * var_b) if var_a > 0.0 and var_b > 0.0 else 0.0)
    rho_n = _cross_moment(CELLS[arch.name], *_correlations(theta, arch, state, inputs, order), state)
    return (rho_n - fixed.mu_s * fixed.mu_s) / (fixed.q_s - fixed.mu_s * fixed.mu_s)


def moment_trajectory(
    theta: Hyperparameters,
    arch: ArchitectureSpec,
    inputs: InputStats,
    T: int,
    order: int = DEFAULT_ORDER,
    n_s: int = 200,
    seed: int = 0,
    sigma_z_schedule=None,
) -> list:
    """T steps of the moment map from the zero state, as a list of states.

    Mirrors the simulator's transient: index t is the prediction after t
    updates. T must be a non-negative integer (ValueError otherwise). A
    per-step sigma_z schedule overrides inputs.sigma_z, under
    simulate_pair's rule: fewer than T entries, or an entry outside [-1, 1]
    (NaN included), raises InvalidSchedule. For the LSTM the cell ensemble
    starts at zero, the true transient, and is advanced in lockstep with
    the moments.
    """

    sched = _sigma_z_schedule(inputs, T, sigma_z_schedule)
    state = ZERO_STATE
    traj = [state]
    cell = None
    if arch.needs_cell:
        stats0 = preactivation_stats(theta, arch, state, inputs, order)
        cell = correlated_cell_pairs(theta, stats0, n_s=n_s, n_iters=0, seed=seed)
    for t in range(T):
        step_inputs = InputStats(inputs.R, float(sched[t]))
        if cell is None:
            state = step_moments(theta, arch, state, step_inputs, order=order)
        else:
            state, cell = _step(theta, arch, state, step_inputs, cell, order)
        traj.append(state)
    return traj
