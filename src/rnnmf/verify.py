"""The built-in property battery behind `rnnmf verify`, and the theta
builders it shares with the test suite.

Every check uses fixed seeds, so the battery prints the same lines on every
run. A check returns (passed, detail).
"""

from __future__ import annotations

import math

import numpy as np

from .core import ARCHITECTURES, GateParams, Hyperparameters, InputStats, SimulationConfig, get_architecture
from .fixed_point import chi_at, solve_correlation, solve_moments
from .jacobian import moments
from .moment_maps import moment_trajectory, step_correlation
from .quadrature import GaussianPairSpec, expect2
from .simulator import assemble_jacobian, jacobian_frame, simulate_pair

UNIT = InputStats(1.0, 1.0)


def make_theta(arch, sigma2=0.3, nu2=0.3, rho2=0.01, mu_f=1.0, mu_other=0.0) -> Hyperparameters:
    """The same variances on every gate; bias mean mu_f on f, mu_other elsewhere."""
    return Hyperparameters(
        {k: GateParams(sigma2, nu2, rho2, mu_f if k == "f" else mu_other) for k in arch.labels()}
    )


def random_theta(arch, rng) -> Hyperparameters:
    """Variances uniform on [0, 1], means uniform on [-2, 2]."""
    gates = {}
    for k in arch.labels():
        gates[k] = GateParams(
            sigma2=float(rng.uniform(0.0, 1.0)),
            nu2=float(rng.uniform(0.0, 1.0)),
            rho2=float(rng.uniform(0.0, 1.0)),
            mu=float(rng.uniform(-2.0, 2.0)),
        )
    return Hyperparameters(gates)


def zero_variance_theta(arch, mu_f=1.0) -> Hyperparameters:
    """Every variance zero: the network is a deterministic scalar chain."""
    mus = {"f": mu_f, "r": 0.3, "r2": 0.3, "i": 0.2, "o": 0.1}
    return Hyperparameters({k: GateParams(0.0, 0.0, 0.0, mus.get(k, 0.0)) for k in arch.labels()})


def _slope_identity_quadrature():
    rng = np.random.default_rng(11)
    worst = 0.0
    for arch_name in ("vanillaRNN", "minimalRNN", "GRU", "peepholeLSTM"):
        arch = get_architecture(arch_name)
        for _ in range(2):
            theta = random_theta(arch, rng)
            msol = solve_moments(theta, arch, UNIT)
            chi = chi_at(theta, arch, UNIT, msol.state, 1.0)
            m1 = moments(theta, arch, msol.state, inputs=UNIT).m1
            worst = max(worst, abs(m1 - chi))
    # chi(C = 1) sums m1's terms over m1's expectations: equal to the bit
    return worst == 0.0, f"max |m1 - chi(C=1)| = {worst:.3e}"


def _slope_identity_sampled():
    rng = np.random.default_rng(5)
    arch = get_architecture("LSTM")
    theta = random_theta(arch, rng)
    msol = solve_moments(theta, arch, UNIT, seed=3)
    m1 = moments(theta, arch, msol.state, inputs=UNIT, seed=9).m1
    chi = chi_at(theta, arch, UNIT, msol.state, 1.0, seed=9)
    # chi(C = 1) sums m1's per-label means over m1's frame: equal to the bit
    return m1 == chi, f"|m1 - chi(C=1)| = {abs(m1 - chi):.3e}"


def _pair_positivity():
    def odd_poly(x):
        return x**3 * np.exp(-(x**2))

    worst = math.inf
    for g in (np.tanh, odd_poly):
        for mu in (0.0, 0.7):
            for s2 in (0.25, 1.5):
                for c in (0.0, 0.4, 0.9, 1.0):
                    v = expect2(g, g, GaussianPairSpec(mu, s2, c))
                    worst = min(worst, v)
    return worst >= -1e-10, f"min pair expectation = {worst:.3e}"


def _convexity():
    rng = np.random.default_rng(23)
    arch = get_architecture("peepholeLSTM")
    worst = math.inf
    for _ in range(2):
        theta = random_theta(arch, rng)
        msol = solve_moments(theta, arch, UNIT)
        grid = np.linspace(0.0, 1.0, 21)
        vals = [step_correlation(theta, arch, msol.state, float(c), UNIT) for c in grid]
        second = np.diff(vals, 2)
        worst = min(worst, float(np.min(second)))
    return worst >= -1e-6, f"min second difference = {worst:.3e}"


def _zero_variance_exactness():
    worst = 0.0
    for arch_name in ARCHITECTURES:
        arch = get_architecture(arch_name)
        theta = zero_variance_theta(arch)
        T = 50
        pred = moment_trajectory(theta, arch, UNIT, T, n_s=16, seed=1)
        sim = simulate_pair(theta, arch, SimulationConfig(N=8, T=T, seed=2), UNIT)
        for p, s in zip(pred, sim):
            worst = max(worst, abs(p.mu_s - s.mu), abs(p.q_s - s.q))
    return worst < 1e-12, f"max |mean-field - simulator| = {worst:.3e}"


def _fd_jacobian_worst(arch_name: str, N: int, seed: int) -> float:
    arch = get_architecture(arch_name)
    theta = make_theta(arch, sigma2=0.2, nu2=0.2, rho2=0.01)
    frame = jacobian_frame(theta, arch, SimulationConfig(N=N, T=1, seed=seed), seed=seed)
    J = assemble_jacobian(theta, frame)
    s = frame.state
    eps = 1e-5
    worst = 0.0
    for j in range(N):
        e = np.zeros(N)
        e[j] = eps
        col = (frame.one_step(s + e) - frame.one_step(s - e)) / (2.0 * eps)
        denom = max(float(np.linalg.norm(J[:, j])), 1e-12)
        worst = max(worst, float(np.linalg.norm(col - J[:, j])) / denom)
    return worst


def _jacobian_transcription():
    worst = max(_fd_jacobian_worst("GRU", 48, 7), _fd_jacobian_worst("LSTM", 48, 8))
    return worst < 1e-4, f"max column rel err = {worst:.3e}"


def _timescale_anchor():
    arch = get_architecture("peepholeLSTM")
    theta = make_theta(arch, sigma2=0.0, nu2=0.0, rho2=0.0, mu_f=5.0)
    msol = solve_moments(theta, arch, UNIT)
    rep = solve_correlation(theta, arch, UNIT, msol)
    s5 = 1.0 / (1.0 + math.exp(-5.0))
    xi_ref = -1.0 / math.log(s5 * s5)
    rel = abs(rep.xi - xi_ref) / xi_ref
    return rel < 1e-3, f"xi = {rep.xi:.4f} vs {xi_ref:.4f} (rel {rel:.2e})"


CHECKS = (
    ("correlation-slope identity, quadrature architectures", _slope_identity_quadrature),
    ("correlation-slope identity, sampled LSTM", _slope_identity_sampled),
    ("pair-expectation positivity", _pair_positivity),
    ("correlation-map convexity (peephole)", _convexity),
    ("zero-variance mean-field vs simulator", _zero_variance_exactness),
    ("Jacobian assembly vs finite differences", _jacobian_transcription),
    ("critical peephole timescale anchor", _timescale_anchor),
)
