"""Finite-width untied simulator: trajectories, Jacobians, cell samples."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from rnnmf import (
    InputStats,
    SimulationConfig,
    SpectrumReport,
    assemble_jacobian,
    build_jacobian,
    get_architecture,
    jacobian_frame,
    moment_trajectory,
    simulate_cell_distribution,
    simulate_pair,
)
from rnnmf.simulator import InvalidSchedule, _draw_step, _gram_preactivations, _preactivations

from conftest import make_theta, zero_variance_theta

UNIT = InputStats(1.0, 1.0)


def test_trajectory_covers_t0_through_T(any_arch):
    theta = make_theta(any_arch)
    traj = simulate_pair(theta, any_arch, SimulationConfig(N=64, T=12, seed=0), UNIT)
    assert len(traj) == 13
    assert [p.t for p in traj] == list(range(13))
    start = traj[0]
    assert start.mu == 0.0 and start.q == 0.0
    assert start.c == 1.0  # both copies share the initial state bit for bit


def test_trajectories_are_seed_deterministic():
    arch = get_architecture("GRU")
    theta = make_theta(arch)
    cfg = SimulationConfig(N=32, T=8, seed=7)
    a = simulate_pair(theta, arch, cfg, UNIT)
    b = simulate_pair(theta, arch, cfg, UNIT)
    assert a == b
    c = simulate_pair(theta, arch, cfg, UNIT, seed=8)
    assert c != a


def test_seed_argument_overrides_config_seed():
    arch = get_architecture("minimalRNN")
    theta = make_theta(arch)
    base = simulate_pair(theta, arch, SimulationConfig(N=32, T=6, seed=5), UNIT)
    override = simulate_pair(theta, arch, SimulationConfig(N=32, T=6, seed=1), UNIT, seed=5)
    assert base == override


def test_fully_correlated_inputs_keep_the_copies_identical(any_arch):
    theta = make_theta(any_arch)
    traj = simulate_pair(theta, any_arch, SimulationConfig(N=48, T=10, seed=3), UNIT)
    assert all(p.c == 1.0 for p in traj)
    assert all(p.se_c == 0.0 for p in traj)


def test_decorrelated_inputs_split_the_copies():
    arch = get_architecture("GRU")
    theta = make_theta(arch, mu_f=0.0)
    traj = simulate_pair(
        theta, arch, SimulationConfig(N=256, T=20, seed=1), InputStats(1.0, 0.0)
    )
    assert traj[-1].c < 0.999
    assert math.isfinite(traj[-1].se_c)


def test_zero_variance_network_tracks_the_mean_field(any_arch):
    # without weight noise every unit follows the same scalar recursion
    theta = zero_variance_theta(any_arch)
    cfg = SimulationConfig(N=8, T=30, seed=0)
    traj = simulate_pair(theta, any_arch, cfg, UNIT)
    states = moment_trajectory(theta, any_arch, UNIT, cfg.T)
    for p, st in zip(traj, states):
        assert abs(p.mu - st.mu_s) < 1e-12
        assert abs(p.q - st.q_s) < 1e-12


def _two_sample_z(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column z of the difference of two sample means (rows: draws)."""
    return (a.mean(0) - b.mean(0)) / np.sqrt(a.var(0, ddof=1) / len(a) + b.var(0, ddof=1) / len(b))


def _sidak_z(family_alpha: float, m: int) -> float:
    """Two-sided |z| bound that m independent normal z-scores all stay
    within with probability 1 - family_alpha."""
    return NormalDist().inv_cdf(1.0 - (1.0 - (1.0 - family_alpha) ** (1.0 / m)) / 2.0)


def test_tied_weights_diverge_from_untied_after_the_first_step():
    # the first step of both runs is one fresh draw of the same law, so over
    # seeds its Q agrees in mean; from the second step on the tied run
    # reuses that draw and its Q pulls away (z about 8 at step 10 over 200
    # seeds of this setup)
    arch = get_architecture("GRU")
    theta = make_theta(arch)
    seeds = range(200)
    q = {
        tied: np.array(
            [[p.q for p in simulate_pair(theta, arch, SimulationConfig(N=64, T=10, seed=s), UNIT, tied=tied)] for s in seeds]
        )
        for tied in (False, True)
    }
    z_first, z_last = _two_sample_z(q[False][:, [1, 10]], q[True][:, [1, 10]])
    bound = _sidak_z(1e-3, 1)
    assert abs(z_first) < bound
    assert abs(z_last) > bound
    assert q[False][2, -1] != q[True][2, -1]


def test_exact_law_step_matches_the_dense_draws():
    # Fixed states S and inputs Z of two copies: per draw, each gate's unit
    # averages of u_a, u_b, u_a^2, u_a u_b, u_b^2 (and of u, u^2 for one
    # network) from the exact-law step and from dense weights must agree in
    # mean over n independent draws. The 21 z-scores are held to a Sidak
    # bound at family false-alarm 1e-3. The cross moment carries the shared
    # bias (rho2 = 0.3) and the shared U (nu2 z_a.z_b / N, about 0.3), each
    # about 20 SE, and r2's moments the inner gating sig(u_r) * s. Over 60
    # disjoint seed sets the largest |z| was 3.70.
    arch = get_architecture("GRU")
    theta = make_theta(arch, sigma2=0.8, nu2=0.6, rho2=0.3, mu_f=1.0, mu_other=-0.5)
    labels = arch.labels()
    N, n = 16, 2000
    rng = np.random.default_rng(0)
    S = 0.7 * rng.standard_normal((2, N))
    g = rng.standard_normal((2, N))
    Z = np.stack([g[0], 0.5 * g[0] + math.sqrt(0.75) * g[1]])

    def pair_stats(u):
        return [m for k in labels for m in (*u[k].mean(1), *(u[k] * u[k]).mean(1), (u[k][0] * u[k][1]).mean())]

    def single_stats(u):
        return [m for k in labels for m in (u[k].mean(), (u[k] * u[k]).mean())]

    exact_pair, exact_single, dense_pair, dense_single = [], [], [], []
    for i in range(n):
        exact_pair.append(pair_stats(_gram_preactivations(np.random.default_rng([1, i]), theta, arch, S, Z)))
        exact_single.append(single_stats(_gram_preactivations(np.random.default_rng([2, i]), theta, arch, S[:1], Z[:1])))
        draw = _draw_step(np.random.default_rng([3, i]), theta, labels, N, N)
        ua, ub = (_preactivations(arch, draw, S[j], Z[j]) for j in (0, 1))
        dense_pair.append(pair_stats({k: np.stack([ua[k], ub[k]]) for k in labels}))
        dense_single.append(single_stats(ua))
    z = np.concatenate(
        [
            _two_sample_z(np.array(exact_pair), np.array(dense_pair)),
            _two_sample_z(np.array(exact_single), np.array(dense_single)),
        ]
    )
    assert np.max(np.abs(z)) < _sidak_z(1e-3, z.size)


def test_jacobian_frame_freezes_one_dense_step(any_arch):
    theta = make_theta(any_arch)
    frame = jacobian_frame(theta, any_arch, SimulationConfig(N=24, T=1, seed=6), burn_in=20)
    u = _preactivations(any_arch, frame.draw, frame.state, frame.z)
    for k in any_arch.labels():
        assert frame.draw.W[k].shape == (24, 24) and frame.draw.U[k].shape == (24, 24)
        assert np.array_equal(u[k], frame.u[k])


def test_schedule_validation():
    arch = get_architecture("vanillaRNN")
    theta = make_theta(arch)
    cfg = SimulationConfig(N=16, T=5, seed=0)
    with pytest.raises(ValueError):
        simulate_pair(theta, arch, cfg, UNIT, sigma_z_schedule=[0.0, 0.0])
    with pytest.raises(ValueError):
        simulate_pair(theta, arch, cfg, UNIT, sigma_z_schedule=[0.0, 0.5, 1.5, 0.0, 0.0])


@pytest.mark.parametrize(
    "schedule, match",
    [([0.0, 0.0], "2 entries < T = 5"), ([0.0, math.nan, 0.0, 0.0, 0.0], "entry 1 = nan outside")],
    ids=["short", "nan"],
)
@pytest.mark.parametrize(
    "trajectory",
    [
        lambda theta, arch, sched: simulate_pair(
            theta, arch, SimulationConfig(N=16, T=5, seed=0), UNIT, sigma_z_schedule=sched
        ),
        lambda theta, arch, sched: moment_trajectory(theta, arch, UNIT, 5, sigma_z_schedule=sched),
    ],
    ids=["simulate_pair", "moment_trajectory"],
)
def test_schedule_rule_raises_invalid_schedule(trajectory, schedule, match):
    # one rule for the finite-width run and its mean-field twin; NaN fails
    # |s| <= 1, so it never reaches the state as a non-finite input
    arch = get_architecture("vanillaRNN")
    with pytest.raises(InvalidSchedule, match=match):
        trajectory(make_theta(arch), arch, schedule)


def test_schedule_switches_input_correlation_mid_run():
    arch = get_architecture("GRU")
    theta = make_theta(arch, mu_f=0.0)
    cfg = SimulationConfig(N=128, T=10, seed=4)
    sched = [0.0] * 5 + [1.0] * 5
    traj = simulate_pair(theta, arch, cfg, UNIT, sigma_z_schedule=sched)
    assert traj[5].c < 1.0  # decorrelated stretch pulled the copies apart
    assert traj[10].c > traj[5].c  # correlated stretch pulls them back


def test_simulation_config_rejects_bad_values():
    with pytest.raises(ValueError):
        SimulationConfig(N=0, T=5)
    with pytest.raises(ValueError):
        SimulationConfig(N=5, T=0)


def test_assembled_jacobian_matches_finite_differences(any_arch):
    theta = make_theta(any_arch)
    frame = jacobian_frame(theta, any_arch, SimulationConfig(N=24, T=1, seed=6), burn_in=20)
    J = assemble_jacobian(theta, frame)
    h = 1e-6
    worst = 0.0
    for j in range(0, 24, 5):
        e = np.zeros(24)
        e[j] = h
        col = (frame.one_step(frame.state + e) - frame.one_step(frame.state - e)) / (2 * h)
        scale = max(float(np.linalg.norm(J[:, j])), 1e-12)
        worst = max(worst, float(np.linalg.norm(col - J[:, j])) / scale)
    assert worst < 1e-4


def test_build_jacobian_returns_a_sorted_spectrum():
    arch = get_architecture("GRU")
    theta = make_theta(arch)
    J, rep = build_jacobian(theta, arch, SimulationConfig(N=48, T=1, seed=0), burn_in=30)
    assert J.shape == (48, 48)
    sq = rep.squared_singular_values
    assert sq.shape == (48,)
    assert np.all(np.diff(sq) <= 0.0)
    assert rep.mean == pytest.approx(float(np.mean(sq)))
    # mean squared singular value is the normalized Frobenius norm
    assert rep.mean == pytest.approx(float(np.sum(J * J)) / 48, rel=1e-12)


def test_build_jacobian_rejects_widths_beyond_the_svd_cap():
    arch = get_architecture("vanillaRNN")
    theta = make_theta(arch)
    with pytest.raises(ValueError):
        build_jacobian(theta, arch, SimulationConfig(N=4096, T=1, seed=0))


def test_spectrum_report_from_matrix():
    J = np.diag([3.0, 2.0, 1.0])
    rep = SpectrumReport.from_matrix(J)
    assert np.allclose(rep.squared_singular_values, [9.0, 4.0, 1.0])
    assert rep.mean == pytest.approx(14.0 / 3.0)
    assert rep.variance == pytest.approx(float(np.var([9.0, 4.0, 1.0])))


def test_cell_distribution_needs_a_cell_architecture():
    arch = get_architecture("GRU")
    theta = make_theta(arch)
    with pytest.raises(ValueError):
        simulate_cell_distribution(theta, arch, SimulationConfig(N=16, T=5, seed=0))


@pytest.mark.parametrize("name", ["LSTM", "peepholeLSTM"])
def test_cell_distribution_shape_and_determinism(name):
    arch = get_architecture(name)
    theta = make_theta(arch)
    cfg = SimulationConfig(N=40, T=15, seed=9)
    cells = simulate_cell_distribution(theta, arch, cfg)
    again = simulate_cell_distribution(theta, arch, cfg)
    assert cells.shape == (40,)
    assert np.array_equal(cells, again)
    assert np.all(np.isfinite(cells))
