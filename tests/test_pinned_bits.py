"""Pinned bits of the quadrature pipeline.

A change to the hot path (quadrature, moment maps, solvers, Jacobian terms)
that is meant to keep every output bit must keep these: each quadrature
cell's fixed point, slope, timescale and Jacobian moments at
`verify.make_theta` and at one `verify.random_theta` draw, with both solves'
evaluation counts; every state of a T = 10 moment trajectory under a sigma_z
schedule; and one critical search. The values are float.hex() strings;
`tools/digest.py` compares far more outputs, outside this suite.
"""

import hashlib

import numpy as np
import pytest

from rnnmf import InputStats, get_architecture, moment_trajectory, moments, search_critical
from rnnmf import solve_correlation, solve_moments

from conftest import make_theta, random_theta

INPUTS = InputStats(1.0, 0.5)  # sigma_z < 1: C* lies inside (0, 1)
SCHEDULE = [0.0] * 4 + [1.0] * 6

# (mu*, Q*, C*, chi, xi, m1, m2, sigma) as float.hex(), then the moment and
# correlation solves' map evaluations
PIPELINE = {
    ("vanillaRNN", "make"): (
        "0x1.6ce3b09edb554p-1", "0x1.0cc39718a6fcap-1", "0x1.560e08a093eebp-1", "0x1.6a04597798981p-7",
        "0x1.c68dca90bdb63p-3", "0x1.728640c18723dp-7", "0x1.282e842b6674ep-12", "0x1.4438db8b2a1a9p-13",
        5, 4,
    ),
    ("vanillaRNN", "random"): (
        "0x1.82a881cd9b88cp-2", "0x1.3cc8e01f41268p-3", "0x1.ffa9fde9a9791p-1", "0x1.09def55ce74f5p-7",
        "0x1.a968908f17044p-3", "0x1.09dfd82617188p-7", "0x1.1b507ab917aacp-13", "0x1.227fc4390aa83p-14",
        4, 4,
    ),
    ("minimalRNN", "make"): (
        "0x0.0p+0", "0x1.48a17c6a530fcp-5", "0x1.deaf2b7ec4bc7p-2", "0x1.1414e3450822ep-1",
        "0x1.9e7d260c93a79p+0", "0x1.18e6a5001224ap-1", "0x1.5ec8052d52e6fp-2", "0x1.5475638225e90p-5",
        5, 5,
    ),
    ("minimalRNN", "random"): (
        "0x1.2df52e0e95ca3p-1", "0x1.dcaec54469e70p-2", "0x1.c9f665c8cfa92p-1", "0x1.48dd81fea2a6fp-3",
        "0x1.17f0589d3eaaep-1", "0x1.49bf32067dd72p-3", "0x1.2abf65bcbf423p-5", "0x1.59839c323f364p-7",
        6, 5,
    ),
    ("GRU", "make"): (
        "0x0.0p+0", "0x1.426c78cf68c65p-5", "0x1.e01bfc6561538p-2", "0x1.0ddc25691979dp-1",
        "0x1.8fbc99ea660dap+0", "0x1.11f60ab499372p-1", "0x1.437585321767ep-2", "0x1.e46d5e4551740p-6",
        5, 5,
    ),
    ("GRU", "random"): (
        "0x1.91a4dccc2789dp-1", "0x1.5741cd0898469p-1", "0x1.b1c1079b0f4cdp-1", "0x1.51b0836bfd445p-3",
        "0x1.1c0d19786f872p-1", "0x1.532cba36e5b2fp-3", "0x1.44b502592be8ep-5", "0x1.90150f68d24e0p-7",
        6, 5,
    ),
    ("peepholeLSTM", "make"): (
        "0x0.0p+0", "0x1.fa293e79aa376p-4", "0x1.eaf77b5e9c546p-2", "0x1.2494f9947376dp-1",
        "0x1.c97c6edcd16a7p+0", "0x1.2b82cdf0581dep-1", "0x1.ba8f29b25c347p-2", "0x1.7091673482698p-4",
        5, 5,
    ),
    ("peepholeLSTM", "random"): (
        "0x1.0a908f74eecbap+0", "0x1.3e829e70752fap+0", "0x1.ce755e5fc9b38p-1", "0x1.1c72aef7d5bd5p-1",
        "0x1.b38a98190a885p+0", "0x1.1e470d0768d6ep-1", "0x1.87844e053d68dp-2", "0x1.1d85e4c1d18b4p-4",
        7, 5,
    ),
}

# SHA-256 of the trajectory's states, each "mu.hex() q.hex() c.hex()", joined by spaces
TRAJECTORY = {
    "vanillaRNN": "735bfda3150f3c365a0ecc793f9c671778f383b2b2e939e9f6f9227233a80ec6",
    "minimalRNN": "92586d4ae8b74ca993861717747fba6614a863f90f8d6dc915e2fc580b6f16ab",
    "GRU": "03314b2a583de22c74d92a3f9f74c21cc497efcf7c1317316e2d188113055ce1",
    "peepholeLSTM": "8114d19f7a6ad1523ec0d8a6304b8fcf44d198b116531192f84729a03cac2d8d",
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


@pytest.mark.parametrize("arch_name", sorted(TRAJECTORY))
def test_moment_trajectory_keeps_its_bits(arch_name):
    arch = get_architecture(arch_name)
    traj = moment_trajectory(make_theta(arch), arch, INPUTS, 10, sigma_z_schedule=SCHEDULE)
    text = " ".join(f"{s.mu_s.hex()} {s.q_s.hex()} {s.c_s.hex()}" for s in traj)
    assert hashlib.sha256(text.encode()).hexdigest() == TRAJECTORY[arch_name]


def test_critical_search_keeps_its_bits():
    theta, rep = search_critical("GRU")
    assert (theta["f"].mu.hex(), rep.evaluations) == ("0x1.3fffb2bd98c30p+3", 26)
