import math

import numpy as np
import pytest

from rnnmf import (
    GateParams,
    Hyperparameters,
    InputStats,
    MomentState,
    advance_cell,
    correlated_cell_pairs,
    get_architecture,
    lstm_chi_frame,
    preactivation_stats,
    sample_cell_distribution,
    step_correlation,
)
from rnnmf.core import sigmoid
from rnnmf.lstm_cell_sampler import CellStateEnsemble, EnsembleMeta, NonFiniteSample, _frame, _lstm_cell

from conftest import make_theta, zero_variance_theta

ARCH = get_architecture("LSTM")
UNIT = InputStats(1.0, 1.0)


def stats_for(theta, state=MomentState(0.0, 0.1, 0.5)):
    return preactivation_stats(theta, ARCH, state, UNIT)


def test_zero_variance_limit_is_geometric_sum():
    # c <- sig(mu_f) c + sig(mu_i) tanh(mu_r): contraction to a point mass
    theta = zero_variance_theta(ARCH, mu_f=1.0)
    stats = stats_for(theta, MomentState(0.0, 0.0, 0.0))
    ens = sample_cell_distribution(theta, stats, n_s=32, n_iters=2000, seed=0)
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    limit = sig(0.2) * math.tanh(0.3) / (1.0 - sig(1.0))
    assert np.allclose(ens.samples, limit, rtol=0, atol=1e-9)


def test_chains_from_zero_stay_below_their_step_count():
    # |c'| <= sig(u_f) |c| + |sig(u_i) tanh(u_r)| < |c| + 1: with the forget
    # gate saturated the chains drift like a random walk, yet never diverge
    theta = make_theta(ARCH, sigma2=0.5, nu2=0.5, rho2=0.5, mu_f=40.0)
    stats = stats_for(theta)
    pairs = correlated_cell_pairs(theta, stats, n_s=64, n_iters=50, seed=1)
    for chain in (pairs.samples, pairs.samples_b):
        assert 1.0 < np.max(np.abs(chain)) < 50


def test_sampler_deterministic_in_seed():
    theta = make_theta(ARCH)
    stats = stats_for(theta)
    a = sample_cell_distribution(theta, stats, n_s=64, n_iters=40, seed=9)
    b = sample_cell_distribution(theta, stats, n_s=64, n_iters=40, seed=9)
    c = sample_cell_distribution(theta, stats, n_s=64, n_iters=40, seed=10)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_ensemble_meta_records_provenance():
    theta = make_theta(ARCH)
    ens = sample_cell_distribution(theta, stats_for(theta), n_s=16, n_iters=5, seed=3)
    assert ens.meta.n_s == 16
    assert ens.meta.n_iters == 5
    assert ens.meta.seed == 3
    assert not ens.paired


def test_paired_sampler_collapses_at_full_correlation():
    theta = make_theta(ARCH)
    stats = stats_for(theta, MomentState(0.0, 0.1, 1.0))
    pairs = correlated_cell_pairs(theta, stats, n_s=64, n_iters=30, seed=2)
    assert pairs.paired
    assert np.array_equal(pairs.samples, pairs.samples_b)


def test_chain_a_does_not_depend_on_carrying_chain_b():
    theta = make_theta(ARCH)
    stats = stats_for(theta, MomentState(0.0, 0.1, 0.5))
    single = sample_cell_distribution(theta, stats, n_s=32, n_iters=20, seed=4)
    pairs = correlated_cell_pairs(theta, stats, n_s=32, n_iters=20, seed=4)
    assert not np.array_equal(pairs.samples, pairs.samples_b)
    assert np.array_equal(single.samples, pairs.samples)
    # the next step of the lineage, unpaired or paired
    assert np.array_equal(advance_cell(theta, stats, single).samples, advance_cell(theta, stats, pairs).samples)


def test_paired_sampler_decorrelates_at_zero():
    # state correlation 0, uncorrelated inputs, no shared bias: the two
    # replicas see independent gate draws and their cells decouple
    theta = make_theta(ARCH, rho2=0.0, mu_f=0.0)
    stats = preactivation_stats(theta, ARCH, MomentState(0.0, 0.1, 0.0), InputStats(1.0, 0.0))
    pairs = correlated_cell_pairs(theta, stats, n_s=4000, n_iters=60, seed=2)
    r = np.corrcoef(pairs.samples, pairs.samples_b)[0, 1]
    assert abs(r) < 0.1


def test_paired_correlation_between_extremes():
    theta = make_theta(ARCH)
    lo = correlated_cell_pairs(theta, stats_for(theta, MomentState(0.0, 0.1, 0.2)), 4000, 60, 5)
    hi = correlated_cell_pairs(theta, stats_for(theta, MomentState(0.0, 0.1, 0.9)), 4000, 60, 5)
    r_lo = np.corrcoef(lo.samples, lo.samples_b)[0, 1]
    r_hi = np.corrcoef(hi.samples, hi.samples_b)[0, 1]
    assert r_lo < r_hi < 1.0


def test_advance_cell_checks_theta_digest():
    theta = make_theta(ARCH)
    ens = sample_cell_distribution(theta, stats_for(theta), n_s=16, n_iters=5, seed=3)
    other = theta.replace("f", mu=2.5)
    with pytest.raises(ValueError):
        advance_cell(other, stats_for(other), ens)


def test_advance_cell_continues_seed_lineage():
    theta = make_theta(ARCH)
    stats = stats_for(theta)
    ens = sample_cell_distribution(theta, stats, n_s=16, n_iters=5, seed=3)
    step1 = advance_cell(theta, stats, ens)
    step1_again = advance_cell(theta, stats, ens)
    step2 = advance_cell(theta, stats, step1)
    assert np.array_equal(step1.samples, step1_again.samples)
    assert not np.array_equal(step1.samples, step2.samples)
    assert step2.meta.step_index == step1.meta.step_index + 1


def test_step_draws_are_not_the_burn_in_draws():
    # an ensemble's first advance must not replay the first step that built it
    theta = make_theta(ARCH)
    stats = stats_for(theta, MomentState(0.0, 0.1, 0.5))
    start = correlated_cell_pairs(theta, stats, n_s=32, n_iters=0, seed=4)
    burn_in = correlated_cell_pairs(theta, stats, n_s=32, n_iters=1, seed=4)
    step = advance_cell(theta, stats, start)
    assert not np.array_equal(step.samples, burn_in.samples)
    assert not np.array_equal(step.samples_b, burn_in.samples_b)


def test_chi_frame_reads_the_last_update_of_the_correlation_frame():
    theta = make_theta(ARCH)
    stats = stats_for(theta, MomentState(0.0, 0.1, 0.5))
    frame = _frame(theta, stats, 32, 10, 4)
    # the chains the correlation map reads, and the cells one update earlier
    pairs = correlated_cell_pairs(theta, stats, n_s=32, n_iters=10, seed=4)
    before = correlated_cell_pairs(theta, stats, n_s=32, n_iters=9, seed=4)
    assert np.array_equal(frame.pairs.samples, pairs.samples)
    assert np.array_equal(frame.pairs.samples_b, pairs.samples_b)
    assert np.array_equal(frame.prev_a, before.samples)
    assert np.array_equal(frame.prev_b, before.samples_b)
    # the last update, redrawn from the chains' own streams: column f of the
    # tenth step's draws
    seq = np.random.SeedSequence(4)
    rng_a, rng_b = np.random.default_rng(seq), np.random.default_rng(seq.spawn(1)[0])
    for _ in range(10):
        z_a, z_b = rng_a.standard_normal((32, 3)), rng_b.standard_normal((32, 3))
    mu, sd, c = stats["f"].mu, math.sqrt(stats["f"].sigma2), stats["f"].c
    u_a = mu + sd * z_a[:, 1]
    u_b = mu + sd * (c * z_a[:, 1] + math.sqrt(1.0 - c * c) * z_b[:, 1])
    assert np.array_equal(frame.u_a["f"], u_a) and np.array_equal(frame.u_b["f"], u_b)
    assert np.array_equal(_lstm_cell(frame.u_a, frame.prev_a), pairs.samples)
    assert np.array_equal(_lstm_cell(frame.u_b, frame.prev_b), pairs.samples_b)
    chi_frame = lstm_chi_frame(theta, stats, n_s=32, n_iters=10, seed=4)
    assert np.array_equal(chi_frame["a_0"], sigmoid(u_a) * sigmoid(u_b))


def test_frame_needs_one_update():
    # the correlation map too: at n_iters = 0 it read all-zero chains and returned 0
    theta = make_theta(ARCH)
    stats = stats_for(theta)
    for build in (
        lambda: _frame(theta, stats, 32, 0, 4),
        lambda: lstm_chi_frame(theta, stats, 32, 0, 4),
        lambda: step_correlation(theta, ARCH, MomentState(0.0, 0.1, 0.0), 0.5, UNIT, n_s=32, n_iters=0, seed=4),
    ):
        with pytest.raises(ValueError, match=r"n_iters >= 1 required \(one recorded update\)"):
            build()


def test_warm_start_adopts_init_samples():
    theta = make_theta(ARCH)
    stats = stats_for(theta, MomentState(0.0, 0.1, 0.5))
    base = correlated_cell_pairs(theta, stats, n_s=32, n_iters=20, seed=6)
    warm = _frame(theta, stats, 32, 1, 6, init=base)
    assert np.array_equal(warm.prev_a, base.samples)
    assert np.array_equal(warm.prev_b, base.samples_b)


def test_unpaired_warm_start_copies_chain_a_into_chain_b():
    theta = make_theta(ARCH)
    stats = stats_for(theta, MomentState(0.0, 0.1, 0.5))
    base = sample_cell_distribution(theta, stats, n_s=32, n_iters=20, seed=6)
    start = _frame(theta, stats, 32, 1, 6, init=base)
    assert np.array_equal(start.prev_a, base.samples)
    assert np.array_equal(start.prev_b, base.samples)
    # and it continues as the explicitly paired copy would
    twin = CellStateEnsemble(base.samples, base.meta, base.samples.copy())
    warm = _frame(theta, stats, 32, 3, 6, init=base).pairs
    warm_twin = _frame(theta, stats, 32, 3, 6, init=twin).pairs
    assert np.array_equal(warm.samples, warm_twin.samples)
    assert np.array_equal(warm.samples_b, warm_twin.samples_b)


def test_ensemble_rejects_a_non_finite_chain_b():
    meta = EnsembleMeta(n_s=3, n_iters=0, seed=0, theta_digest="test")
    CellStateEnsemble(np.zeros(3), meta, np.zeros(3))
    with pytest.raises(NonFiniteSample):
        CellStateEnsemble(np.zeros(3), meta, np.array([0.0, np.nan, 0.0]))
    with pytest.raises(NonFiniteSample):
        CellStateEnsemble(np.array([0.0, np.inf, 0.0]), meta, np.zeros(3))


def test_sampler_mean_tracks_drive():
    # positive reconstruction drive shifts the stationary cell mean up
    pos = Hyperparameters(
        {
            "i": GateParams(0.05, 0.0, 0.0, 0.0),
            "f": GateParams(0.05, 0.0, 0.0, 1.0),
            "r": GateParams(0.05, 0.0, 0.0, 1.0),
            "o": GateParams(0.05, 0.0, 0.0, 0.0),
        }
    )
    neg = pos.replace("r", mu=-1.0)
    s_pos = sample_cell_distribution(pos, stats_for(pos), 2000, 100, 8).samples
    s_neg = sample_cell_distribution(neg, stats_for(neg), 2000, 100, 8).samples
    assert np.mean(s_pos) > 0.5
    assert np.mean(s_neg) < -0.5
