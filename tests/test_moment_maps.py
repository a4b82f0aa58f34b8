import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rnnmf import (
    DegenerateCorrelation,
    GateParams,
    Hyperparameters,
    InputStats,
    MissingCellEnsemble,
    MomentState,
    ZERO_STATE,
    advance_cell,
    chi_at,
    correlated_cell_pairs,
    expect1,
    get_architecture,
    moment_trajectory,
    moments,
    preactivation_stats,
    step_correlation,
    step_moments,
)
from rnnmf.core import sigmoid
from rnnmf.moment_maps import _moment_step
from rnnmf.quadrature import GaussianPairSpec, _Law, expect2

from conftest import make_theta, random_theta, zero_variance_theta

UNIT = InputStats(1.0, 1.0)

# Direct 10^4-step iteration of the peephole cell moment recursion with raw
# Gauss-Hermite nodes (independent of this package), frozen ahead of time.
# Theta: sigma2 = 1e-5 on every gate, mu_f = 5, nu2_i = nu2_r = 0.1, rest 0,
# R = 1. The limit equals the geometric-sum value b/(1-a) to 1.6e-14.
PEEPHOLE_DRIVE_Q = 1.615938275436077


def peephole_drive_theta():
    return Hyperparameters(
        {
            "i": GateParams(1e-5, 0.1, 0.0, 0.0),
            "f": GateParams(1e-5, 0.0, 0.0, 5.0),
            "r": GateParams(1e-5, 0.1, 0.0, 0.0),
            "o": GateParams(1e-5, 0.0, 0.0, 0.0),
        }
    )


def test_preactivation_variance_decomposition():
    arch = get_architecture("minimalRNN")
    theta = make_theta(arch, sigma2=0.3, nu2=0.25, rho2=0.02)
    stats = preactivation_stats(theta, arch, MomentState(0.2, 0.5, 0.0), InputStats(1.5, 1.0))
    assert stats["f"].sigma2 == pytest.approx(0.3 * 0.5 + 0.25 * 1.5 + 0.02, rel=1e-14)
    assert stats["f"].mu == 1.0


def test_preactivation_pair_correlation_components():
    arch = get_architecture("minimalRNN")
    theta = make_theta(arch, sigma2=0.3, nu2=0.3, rho2=0.01, mu_f=0.0)
    state = MomentState(0.2, 0.5, 0.4)
    stats = preactivation_stats(theta, arch, state, InputStats(1.0, 0.8))
    rho_s = 0.4 * (0.5 - 0.04) + 0.04
    cov = 0.3 * rho_s + 0.3 * 0.8 * 1.0 + 0.01
    assert stats["f"].c == pytest.approx(cov / stats["f"].sigma2, rel=1e-14)


def test_gated_gate_variance_uses_squared_gate():
    arch = get_architecture("GRU")
    theta = make_theta(arch, mu_f=0.0)
    state = MomentState(0.2, 0.5, 0.4)
    stats = preactivation_stats(theta, arch, state, UNIT)
    sig2 = lambda x: 1.0 / (1.0 + np.exp(-x)) ** 2
    eg2 = expect1(sig2, stats["r"].mu, stats["r"].sigma2)
    expected = 0.3 * eg2 * 0.5 + 0.3 * 1.0 + 0.01
    assert stats["r2"].sigma2 == pytest.approx(expected, rel=1e-12)


def test_fully_correlated_pair_collapses():
    arch = get_architecture("vanillaRNN")
    theta = make_theta(arch)
    stats = preactivation_stats(theta, arch, MomentState(0.1, 0.4, 1.0), UNIT)
    assert stats["f"].c == pytest.approx(1.0, abs=1e-15)


def test_point_mass_gates_read_zero_correlation(any_arch):
    # a zero-variance pre-activation has no correlation: its pair collapses
    # to the mean whatever c is, and c reads 0.0
    stats = preactivation_stats(zero_variance_theta(any_arch), any_arch, MomentState(0.1, 0.4, 0.5), UNIT)
    for gate in stats.values():
        assert gate.sigma2 == 0.0
        assert gate.c == 0.0


@pytest.mark.parametrize("name", ["peepholeLSTM", "LSTM"])
def test_preactivation_stats_map_gates_to_gaussian_pairs(name):
    # one read-only record per gate, the one expect2 takes as is
    arch = get_architecture(name)
    theta = make_theta(arch, sigma2=0.4, nu2=0.3, rho2=0.05, mu_f=1.2)
    stats = preactivation_stats(theta, arch, MomentState(0.1, 0.4, 0.3), UNIT)
    assert set(stats) == set(arch.labels())
    assert all(isinstance(pair, GaussianPairSpec) for pair in stats.values())
    with pytest.raises(TypeError):
        stats["o"] = stats["f"]
    assert 0.0 < stats["o"].c < 1.0  # the pair grid, not a collapsed pair
    direct = expect2(sigmoid, sigmoid, stats["o"])
    assert direct.hex() == stats.pair("o", "sig", "sig").hex()


def test_vanilla_self_consistency():
    # fixed point of Q -> E tanh^2(u), u ~ N(mu_f, s2 Q + n2 R + r2),
    # found by direct 200-step iteration, must be stationary under the map
    arch = get_architecture("vanillaRNN")
    theta = make_theta(arch, sigma2=0.8, nu2=0.2, rho2=0.0, mu_f=0.3)
    state = ZERO_STATE
    for _ in range(200):
        state = step_moments(theta, arch, state, UNIT)
    nxt = step_moments(theta, arch, state, UNIT)
    assert nxt.mu_s == pytest.approx(state.mu_s, abs=1e-12)
    assert nxt.q_s == pytest.approx(state.q_s, abs=1e-12)


def test_peephole_drive_matches_frozen_iteration_oracle():
    arch = get_architecture("peepholeLSTM")
    theta = peephole_drive_theta()
    state = ZERO_STATE
    prev_q = -1.0
    for _ in range(4000):
        if abs(state.q_s - prev_q) < 1e-15 and state.q_s > 0:
            break
        prev_q = state.q_s
        state = step_moments(theta, arch, state, UNIT)
    assert state.q_s == pytest.approx(PEEPHOLE_DRIVE_Q, abs=1e-9)
    assert state.mu_s == pytest.approx(0.0, abs=1e-12)


def test_moment_trajectory_composes_step_moments():
    arch = get_architecture("GRU")
    theta = make_theta(arch)
    traj = moment_trajectory(theta, arch, UNIT, 5)
    state = ZERO_STATE
    for t in range(5):
        state = step_moments(theta, arch, state, UNIT)
        assert traj[t + 1].mu_s == state.mu_s
        assert traj[t + 1].q_s == state.q_s
        assert traj[t + 1].c_s == state.c_s
    assert len(traj) == 6

    # the LSTM at nonzero variance: a lockstep step_moments + advance_cell
    # loop from the same zero-start paired ensemble, bit for bit
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    inputs = InputStats(1.0, 0.5)
    traj = moment_trajectory(theta, arch, inputs, 6, n_s=64, seed=3)
    state = ZERO_STATE
    cell = correlated_cell_pairs(
        theta, preactivation_stats(theta, arch, state, inputs), n_s=64, n_iters=0, seed=3
    )
    for t in range(6):
        stats = preactivation_stats(theta, arch, state, inputs)
        state = step_moments(theta, arch, state, inputs, cell=cell)
        cell = advance_cell(theta, stats, cell)
        assert traj[t + 1] == state
    assert state.q_s > state.mu_s**2 and 0.0 < state.c_s < 1.0
    assert len(traj) == 7


def test_moment_trajectory_schedule_switches_inputs():
    arch = get_architecture("minimalRNN")
    theta = make_theta(arch)
    sched = [0.0] * 3 + [1.0] * 3
    traj = moment_trajectory(theta, arch, UNIT, 6, sigma_z_schedule=sched)
    # uncorrelated drive keeps C near zero, fully correlated drive pulls it up
    assert abs(traj[3].c_s) < 0.2
    assert traj[6].c_s > traj[3].c_s


def test_lstm_step_requires_cell_when_nondegenerate():
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    with pytest.raises(MissingCellEnsemble):
        step_moments(theta, arch, MomentState(0.0, 0.5, 0.0), UNIT)


def test_lstm_step_advances_with_paired_cells():
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    state = MomentState(0.0, 0.1, 0.5)
    stats = preactivation_stats(theta, arch, state, UNIT)
    pairs = correlated_cell_pairs(theta, stats, n_s=200, n_iters=50, seed=4)
    nxt = step_moments(theta, arch, state, UNIT, cell=pairs)
    assert 0.0 < nxt.q_s < 1.0  # output is squashed through sigmoid * tanh
    assert -1.0 <= nxt.c_s <= 1.0
    assert nxt.q_s >= nxt.mu_s**2


def test_lstm_step_reads_the_correlation_maps_pair_estimator():
    # the trajectory's C' is the map's estimator, the chains' output
    # covariance over the root of their own output variances, to the bit;
    # a rho' standardized to chain a's moments was 1 ulp off here
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    state = MomentState(0.1, 0.4, 0.5)
    gates = preactivation_stats(theta, arch, state, UNIT)
    pairs = correlated_cell_pairs(theta, gates, n_s=64, n_iters=40, seed=2)
    new = advance_cell(theta, gates, pairs)
    e_o, e_o2 = gates.expect("o", ("sig",)), gates.expect("o", ("sig", "sig"))
    th_a, th_b = np.tanh(new.samples), np.tanh(new.samples_b)
    mu_a, mu_b = e_o * float(np.mean(th_a)), e_o * float(np.mean(th_b))
    var_a = e_o2 * float(np.mean(th_a * th_a)) - mu_a * mu_a
    var_b = e_o2 * float(np.mean(th_b * th_b)) - mu_b * mu_b
    cov = gates.pair("o", "sig", "sig") * float(np.mean(th_a * th_b)) - mu_a * mu_b
    c_n = cov / math.sqrt(var_a * var_b)
    assert var_a > 0.0 and var_b > 0.0 and abs(c_n) < 1.0
    assert step_moments(theta, arch, state, UNIT, cell=pairs).c_s == c_n


def test_lstm_sampled_correlation_stays_in_range():
    # the two chains' sample moments differ; normalizing their covariance by
    # chain a's variance alone gave C = 1.024 at step 9 of this trajectory
    arch = get_architecture("LSTM")
    mus = {"f": 1.2, "i": 0.3, "r": 0.2, "o": -0.2}
    theta = Hyperparameters({k: GateParams(0.4, 0.3, 0.05, mus[k]) for k in arch.labels()})
    sched = [0.0] * 5 + [1.0] * 7
    traj = moment_trajectory(theta, arch, InputStats(1.0, 0.0), 12, n_s=32, seed=4, sigma_z_schedule=sched)
    assert all(-1.0 <= s.c_s <= 1.0 for s in traj)
    assert traj[-1].c_s > 0.9  # the fully correlated drive pulls the chains together


def test_step_correlation_fixed_point_at_one(quadrature_arch):
    rng = np.random.default_rng(17)
    theta = random_theta(quadrature_arch, rng)
    state = ZERO_STATE
    for _ in range(500):
        state = step_moments(theta, quadrature_arch, state, UNIT)
    m1c = step_correlation(theta, quadrature_arch, state, 1.0, UNIT)
    assert m1c == pytest.approx(1.0, abs=1e-7)


def test_step_correlation_degenerate_raises():
    arch = get_architecture("peepholeLSTM")
    theta = zero_variance_theta(arch, mu_f=5.0)
    with pytest.raises(DegenerateCorrelation):
        step_correlation(theta, arch, MomentState(0.0, 0.0, 0.0), 1.0, UNIT)


def test_step_correlation_rejects_out_of_range():
    arch = get_architecture("vanillaRNN")
    theta = make_theta(arch)
    with pytest.raises(ValueError):
        step_correlation(theta, arch, MomentState(0.0, 0.5, 0.0), 1.5, UNIT)


@settings(deadline=None, max_examples=25)
@given(c=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_correlation_map_stays_in_range(c):
    arch = get_architecture("minimalRNN")
    theta = make_theta(arch, sigma2=0.5, nu2=0.4, rho2=0.05)
    state = ZERO_STATE
    for _ in range(300):
        state = step_moments(theta, arch, state, UNIT)
    v = step_correlation(theta, arch, state, c, UNIT)
    assert -1.0 - 1e-9 <= v <= 1.0 + 1e-9


def test_lstm_zero_variance_trajectory_is_deterministic_chain():
    arch = get_architecture("LSTM")
    theta = zero_variance_theta(arch, mu_f=1.0)
    traj = moment_trajectory(theta, arch, UNIT, 20, n_s=8, seed=0)
    # closed-form chain: c' = sig(mu_f) c + sig(mu_i) tanh(mu_r), h = sig(mu_o) tanh(c)
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    c = 0.0
    for t in range(1, 21):
        c = sig(1.0) * c + sig(0.2) * math.tanh(0.3)
        h = sig(0.1) * math.tanh(c)
        assert traj[t].mu_s == pytest.approx(h, abs=1e-12)
        assert traj[t].q_s == pytest.approx(h * h, abs=1e-12)


_STATES = [ZERO_STATE, MomentState(0.1, 0.4, 0.5), MomentState(-0.3, 1.2, 0.0), MomentState(0.6, 0.36, 1.0)]


def test_moment_only_step_is_bitwise_step_moments(quadrature_arch):
    arch = quadrature_arch
    for theta in (make_theta(arch), random_theta(arch, np.random.default_rng(5)), zero_variance_theta(arch)):
        for state in _STATES:
            want = step_moments(theta, arch, state, UNIT)
            got = _moment_step(theta, arch, state.mu_s, state.q_s, UNIT.R, 64)
            assert [v.hex() for v in got] == [want.mu_s.hex(), want.q_s.hex()]


def test_gates_sharing_a_law_read_one_pair_grid_per_primitive_pair(monkeypatch):
    # with mu_f = 0 the peephole's four gates share one law and one
    # correlation, so each (pa, pb) pair grid is integrated once, whichever
    # gates read it, and chi keeps its bits. The state is the solved fixed
    # point written out, so that a solver change within tol leaves the pin.
    arch = get_architecture("peepholeLSTM")
    theta = make_theta(arch, mu_f=0.0)
    fixed = MomentState(0.0, float.fromhex("0x1.3daeb0e60427bp-4"), 0.0)
    stats = preactivation_stats(theta, arch, MomentState(fixed.mu_s, fixed.q_s, 0.4), UNIT)
    assert len({(p.mu, p.sigma2, p.c) for p in stats.values()}) == 1
    grids = []
    pair_mean = _Law.pair_mean

    def spy(self, g1, g2, c):
        grids.append((g1, g2, c))
        return pair_mean(self, g1, g2, c)

    monkeypatch.setattr(_Law, "pair_mean", spy)
    chi = chi_at(theta, arch, UNIT, fixed, 0.4)
    assert chi.hex() == "0x1.4bf6325d3c402p-2"
    assert grids and len(grids) == len(set(grids))


def test_moment_trajectory_takes_a_non_negative_integer_t():
    arch = get_architecture("vanillaRNN")
    theta = make_theta(arch)
    for schedule in (None, [0.0, 1.0]):
        with pytest.raises(ValueError, match=r"T must be a non-negative integer, got -1"):
            moment_trajectory(theta, arch, UNIT, -1, sigma_z_schedule=schedule)
        assert moment_trajectory(theta, arch, UNIT, 0, sigma_z_schedule=schedule) == [ZERO_STATE]
    with pytest.raises(ValueError, match=r"T must be a non-negative integer, got 2.0"):
        moment_trajectory(theta, arch, UNIT, 2.0)


_INFINITE_Q = MomentState(0.0, math.inf, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda theta, arch: _moment_step(theta, arch, _INFINITE_Q.mu_s, _INFINITE_Q.q_s, UNIT.R, 64),
        lambda theta, arch: step_moments(theta, arch, _INFINITE_Q, UNIT),
        lambda theta, arch: step_correlation(theta, arch, _INFINITE_Q, 0.5, UNIT),
        lambda theta, arch: chi_at(theta, arch, UNIT, _INFINITE_Q, 0.5),
        lambda theta, arch: moments(theta, arch, _INFINITE_Q, inputs=UNIT),
        lambda theta, arch: preactivation_stats(theta, arch, _INFINITE_Q, UNIT),
    ],
    ids=["_moment_step", "step_moments", "step_correlation", "chi_at", "moments", "preactivation_stats"],
)
def test_an_infinite_gate_variance_raises(quadrature_arch, call):
    # Q = inf gives each gate an infinite law variance, whose pair
    # correlation would be inf / inf
    with pytest.raises(ValueError, match="got nan"):
        call(make_theta(quadrature_arch), quadrature_arch)


def test_every_map_rejects_an_infinite_gate_variance_at_a_finite_correlation():
    # r's input variance overflows (nu2 R + rho2 = inf); at sigma_z = 0 its
    # correlation still comes out finite, 0, but the law is rejected all
    # the same, as the moment step rejects it
    arch, state, inputs = get_architecture("GRU"), MomentState(0.1, 0.4, 0.5), InputStats(1.0, 0.0)
    theta = make_theta(arch).replace("r", nu2=1e308, rho2=1e308)
    calls = [
        lambda: _moment_step(theta, arch, state.mu_s, state.q_s, inputs.R, 64),
        lambda: step_moments(theta, arch, state, inputs),
        lambda: step_correlation(theta, arch, state, 0.5, inputs),
        lambda: chi_at(theta, arch, inputs, state, 0.5),
        lambda: preactivation_stats(theta, arch, state, inputs),
        lambda: moment_trajectory(theta, arch, inputs, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"\|c\| must be <= 1, got nan"):
            call()
