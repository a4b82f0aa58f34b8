"""Pinned bits of the quadrature pipeline.

A change to the hot path (quadrature, moment maps, solvers, Jacobian terms)
that is meant to keep every output bit must keep these: each quadrature
cell's fixed point, slope, timescale and Jacobian moments at
`verify.make_theta` and at one `verify.random_theta` draw, with both solves'
evaluation counts; every state of a T = 10 moment trajectory under a sigma_z
schedule; and one critical search. The values are float.hex() strings;
`tools/digest.py` compares far more outputs, outside this suite.

The correlation solve is also pinned from a fixed state per quadrature cell,
so that a change to the moment solve alone leaves those pins, and the
sampled LSTM's pipeline is pinned whole. The LSTM cell sampler's raw outputs
are pinned on their own, so that a change to the sampler alone must keep
its bits too.
"""

import hashlib

import numpy as np
import pytest

from rnnmf import InputStats, MomentState, advance_cell, correlated_cell_pairs, get_architecture, moment_trajectory
from rnnmf import moments, preactivation_stats, sample_cell_distribution, search_critical, solve_correlation
from rnnmf import solve_moments
from rnnmf.lstm_cell_sampler import _frame

from conftest import make_theta, random_theta

INPUTS = InputStats(1.0, 0.5)  # sigma_z < 1: C* lies inside (0, 1)
SCHEDULE = [0.0] * 4 + [1.0] * 6

# (mu*, Q*, C*, chi, xi, m1, m2, sigma) as float.hex(), then the moment and
# correlation solves' map evaluations
PIPELINE = {
    ("vanillaRNN", "make"): (
        "0x1.6ce3b09edb5e7p-1", "0x1.0cc39718a2274p-1", "0x1.560e08a155079p-1", "0x1.6a04597798d81p-7",
        "0x1.c68dca90bdc80p-3", "0x1.728640c1873efp-7", "0x1.282e842b6687bp-12", "0x1.4438db8b2a18fp-13",
        4, 4,
    ),
    ("vanillaRNN", "random"): (
        "0x1.82a881cd8730ap-2", "0x1.3cc8e01ee106ap-3", "0x1.ffa9fdf165d3cp-1", "0x1.09def55ce8103p-7",
        "0x1.a968908f17446p-3", "0x1.09dfd82617af1p-7", "0x1.1b507ab918b91p-13", "0x1.227fc4390b8c2p-14",
        4, 4,
    ),
    ("minimalRNN", "make"): (
        "0x0.0p+0", "0x1.48a17c6a530fcp-5", "0x1.deaf2b7ec4bc7p-2", "0x1.1414e3450822ep-1",
        "0x1.9e7d260c93a79p+0", "0x1.18e6a5001224ap-1", "0x1.5ec8052d52e6fp-2", "0x1.5475638225e90p-5",
        5, 5,
    ),
    ("minimalRNN", "random"): (
        "0x1.2df52e0e8b3fcp-1", "0x1.dcaec54474c1dp-2", "0x1.c9f665c895ac6p-1", "0x1.48dd81fea2e17p-3",
        "0x1.17f0589d3ec61p-1", "0x1.49bf32067ea0bp-3", "0x1.2abf65bcc195ep-5", "0x1.59839c324476ap-7",
        5, 5,
    ),
    ("GRU", "make"): (
        "0x0.0p+0", "0x1.426c78cf68c65p-5", "0x1.e01bfc6561538p-2", "0x1.0ddc25691979dp-1",
        "0x1.8fbc99ea660dap+0", "0x1.11f60ab499372p-1", "0x1.437585321767ep-2", "0x1.e46d5e4551740p-6",
        5, 5,
    ),
    ("GRU", "random"): (
        "0x1.91a4dccc36600p-1", "0x1.5741cd0862442p-1", "0x1.b1c1079e878eap-1", "0x1.51b0836bfc983p-3",
        "0x1.1c0d19786f36ep-1", "0x1.532cba36e115dp-3", "0x1.44b502591d4ecp-5", "0x1.90150f68b0594p-7",
        5, 5,
    ),
    ("peepholeLSTM", "make"): (
        "0x0.0p+0", "0x1.fa293e79aa376p-4", "0x1.eaf77b5e9c546p-2", "0x1.2494f9947376dp-1",
        "0x1.c97c6edcd16a7p+0", "0x1.2b82cdf0581dep-1", "0x1.ba8f29b25c347p-2", "0x1.7091673482698p-4",
        5, 5,
    ),
    ("peepholeLSTM", "random"): (
        "0x1.0a908f74eecc6p+0", "0x1.3e829e707433dp+0", "0x1.ce755e5fd5088p-1", "0x1.1c72aef7d5bddp-1",
        "0x1.b38a98190a899p+0", "0x1.1e470d0768d6fp-1", "0x1.87844e053d68ep-2", "0x1.1d85e4c1d18acp-4",
        5, 5,
    ),
}

# (mu*, Q*) of PIPELINE's solves written out, and the correlation solve's
# (C*, chi, xi) as float.hex() and its map evaluations from that state
CORRELATION_AT_STATE = {
    ("vanillaRNN", "make"): (
        ("0x1.6ce3b09edb554p-1", "0x1.0cc39718a6fcap-1"),
        ("0x1.560e08a093eebp-1", "0x1.6a04597798981p-7", "0x1.c68dca90bdb63p-3", 4),
    ),
    ("vanillaRNN", "random"): (
        ("0x1.82a881cd9b88cp-2", "0x1.3cc8e01f41268p-3"),
        ("0x1.ffa9fde9a9791p-1", "0x1.09def55ce74f5p-7", "0x1.a968908f17044p-3", 4),
    ),
    ("minimalRNN", "make"): (
        ("0x0.0p+0", "0x1.48a17c6a530fcp-5"),
        ("0x1.deaf2b7ec4bc7p-2", "0x1.1414e3450822ep-1", "0x1.9e7d260c93a79p+0", 5),
    ),
    ("minimalRNN", "random"): (
        ("0x1.2df52e0e95ca3p-1", "0x1.dcaec54469e70p-2"),
        ("0x1.c9f665c8cfa92p-1", "0x1.48dd81fea2a6fp-3", "0x1.17f0589d3eaaep-1", 5),
    ),
    ("GRU", "make"): (
        ("0x0.0p+0", "0x1.426c78cf68c65p-5"),
        ("0x1.e01bfc6561538p-2", "0x1.0ddc25691979dp-1", "0x1.8fbc99ea660dap+0", 5),
    ),
    ("GRU", "random"): (
        ("0x1.91a4dccc2789dp-1", "0x1.5741cd0898469p-1"),
        ("0x1.b1c1079b0f4cdp-1", "0x1.51b0836bfd445p-3", "0x1.1c0d19786f872p-1", 5),
    ),
    ("peepholeLSTM", "make"): (
        ("0x0.0p+0", "0x1.fa293e79aa376p-4"),
        ("0x1.eaf77b5e9c546p-2", "0x1.2494f9947376dp-1", "0x1.c97c6edcd16a7p+0", 5),
    ),
    ("peepholeLSTM", "random"): (
        ("0x1.0a908f74eecbap+0", "0x1.3e829e70752fap+0"),
        ("0x1.ce755e5fc9b38p-1", "0x1.1c72aef7d5bd5p-1", "0x1.b38a98190a885p+0", 5),
    ),
}

# the sampled LSTM's pipeline at make_theta, seed 0: PIPELINE's fields
LSTM_PIPELINE = (
    "-0x1.3514e89d52cb6p-10", "0x1.b4e3a0a017b53p-6", "0x1.d0164787a87e0p-2", "0x1.0507f3b57cbc3p-1",
    "0x1.7bffdafec3041p+0", "0x1.07ddb0ebb0c3ap-1", "0x1.3859279b27a66p-2", "0x1.42ff30df8a028p-5",
    11, 4,
)

# SHA-256 of the trajectory's states, each "mu.hex() q.hex() c.hex()", joined by spaces
TRAJECTORY = {
    "vanillaRNN": "735bfda3150f3c365a0ecc793f9c671778f383b2b2e939e9f6f9227233a80ec6",
    "minimalRNN": "92586d4ae8b74ca993861717747fba6614a863f90f8d6dc915e2fc580b6f16ab",
    "GRU": "03314b2a583de22c74d92a3f9f74c21cc497efcf7c1317316e2d188113055ce1",
    "peepholeLSTM": "8114d19f7a6ad1523ec0d8a6304b8fcf44d198b116531192f84729a03cac2d8d",
}

# SHA-256 of the bytes of each LSTM cell sampler output, at make_theta's gates
# at SAMPLER_STATE, n_s = n_iters = 200 and seed SAMPLER_SEED: both chains
# of a cold-start run, the last update of _frame and one advance_cell step
SAMPLER_STATE = MomentState(0.1, 0.5, 0.5)
SAMPLER_SEED = 3
SAMPLER = {
    "sample_cell_distribution": "747f55b179e9dd6036086c9e239938edd860600df0ef3d7aef1604d5597366aa",
    "correlated_cell_pairs a": "747f55b179e9dd6036086c9e239938edd860600df0ef3d7aef1604d5597366aa",
    "correlated_cell_pairs b": "87ec03b7d3d4e403674c84e442c17f201671419869cf2ba7181908d6c3ba5aa5",
    "_frame prev_a": "a197c04a6b4cdff6ed5b95bc86952ddbce791ee68256acb563291b2fd4b5fdcd",
    "_frame prev_b": "818617a28f9b28875cd47679ecb97d19bd3d726dec4d9d208d04c8d2a628b437",
    "_frame u_a[i]": "8562856059e1a138605992568225a67f2ae76da1b858b06e69bf2e1cdcb42c69",
    "_frame u_b[i]": "3e72177ab65c7e267118d0b6640f8489a70bdf39ba0424b068c3b238a141e57b",
    "_frame u_a[f]": "e1e90ed75a23a927daf8de66764412599706ca61fed5da0a828759f857d9525b",
    "_frame u_b[f]": "46c19d6b9680c0e9690200cafcb436061eb633ffcd10eaaa5242fcaf67a4cc2b",
    "_frame u_a[r]": "d79b61ae1127c010ef1ea75c906f6a4a3b4581cb34221a65358fb4e8b1adf1fd",
    "_frame u_b[r]": "f66cb2c37d4a1e2e115cec58c44e22c9c0f16364bf51d0d493fec7d124231121",
    "_frame u_a[o]": "72bbe02bb2cd0b7845a626d5b5b14b0ada634e0ed36ea26fd35c727c13e23405",
    "_frame u_b[o]": "cc4ee752c261960d18057d0ea73d35289c864d444b7503280b2b8aa7c46d32ae",
    "advance_cell a": "ca7e2093daa4fd82badaa44362d0fbfeb7542fcb2a2cc747f9a3cd9b8cd2584f",
    "advance_cell b": "7642b116d44870f808804c134c3d9d639e5b3f3bfb2cd9d932ada6e54df95d0f",
}


def _theta(arch, tag):
    return make_theta(arch) if tag == "make" else random_theta(arch, np.random.default_rng(25))


@pytest.mark.parametrize("arch_name, tag", sorted(PIPELINE))
def test_pipeline_keeps_its_bits(arch_name, tag):
    arch = get_architecture(arch_name)
    theta = _theta(arch, tag)
    ms = solve_moments(theta, arch, INPUTS)
    rep = solve_correlation(theta, arch, INPUTS, ms)
    mom = moments(theta, arch, ms.state, inputs=INPUTS)
    values = (ms.mu_star, ms.q_star, rep.c_star, rep.chi, rep.xi, mom.m1, mom.m2, mom.sigma)
    assert tuple(float(v).hex() for v in values) + (ms.iterations, rep.iterations) == PIPELINE[arch_name, tag]


@pytest.mark.parametrize("arch_name, tag", sorted(CORRELATION_AT_STATE))
def test_correlation_solve_from_a_fixed_state_keeps_its_bits(arch_name, tag):
    arch = get_architecture(arch_name)
    (mu, q), want = CORRELATION_AT_STATE[arch_name, tag]
    state = MomentState(float.fromhex(mu), float.fromhex(q), 0.0)
    rep = solve_correlation(_theta(arch, tag), arch, INPUTS, state)
    assert tuple(float(v).hex() for v in (rep.c_star, rep.chi, rep.xi)) + (rep.iterations,) == want


def test_lstm_pipeline_keeps_its_bits():
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    ms = solve_moments(theta, arch, INPUTS)
    rep = solve_correlation(theta, arch, INPUTS, ms)
    mom = moments(theta, arch, ms.state, inputs=INPUTS)
    values = (ms.mu_star, ms.q_star, rep.c_star, rep.chi, rep.xi, mom.m1, mom.m2, mom.sigma)
    assert tuple(float(v).hex() for v in values) + (ms.iterations, rep.iterations) == LSTM_PIPELINE


@pytest.mark.parametrize("arch_name", sorted(TRAJECTORY))
def test_moment_trajectory_keeps_its_bits(arch_name):
    arch = get_architecture(arch_name)
    traj = moment_trajectory(make_theta(arch), arch, INPUTS, 10, sigma_z_schedule=SCHEDULE)
    text = " ".join(f"{s.mu_s.hex()} {s.q_s.hex()} {s.c_s.hex()}" for s in traj)
    assert hashlib.sha256(text.encode()).hexdigest() == TRAJECTORY[arch_name]


def test_critical_search_keeps_its_bits():
    theta, rep = search_critical("GRU")
    assert (theta["f"].mu.hex(), rep.evaluations) == ("0x1.3fffb2bd98c30p+3", 26)


def _sampler_digests() -> dict:
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    stats = preactivation_stats(theta, arch, SAMPLER_STATE, INPUTS)
    args = (theta, stats, 200, 200, SAMPLER_SEED)
    pairs = correlated_cell_pairs(*args)
    frame = _frame(*args)
    stepped = advance_cell(theta, stats, pairs)
    out = {
        "sample_cell_distribution": sample_cell_distribution(*args).samples,
        "correlated_cell_pairs a": pairs.samples,
        "correlated_cell_pairs b": pairs.samples_b,
        "_frame prev_a": frame.prev_a,
        "_frame prev_b": frame.prev_b,
        "advance_cell a": stepped.samples,
        "advance_cell b": stepped.samples_b,
    }
    for k in ("i", "f", "r", "o"):
        out[f"_frame u_a[{k}]"], out[f"_frame u_b[{k}]"] = frame.u_a[k], frame.u_b[k]
    return {name: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest() for name, v in out.items()}


def test_lstm_cell_sampler_keeps_its_bits():
    assert _sampler_digests() == SAMPLER
