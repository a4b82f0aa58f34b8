"""The rules each quadrature cell derives from its affine law s' = A s + W."""

import math

import numpy as np
import pytest

from rnnmf import InputStats, MomentState, preactivation_stats, step_moments
from rnnmf.cells import CELLS, _evaluate, _rho_s
from rnnmf.core import _PRIMS, dsigmoid, dtanh, sigmoid
from rnnmf.lstm_cell_sampler import _lstm_cell

from conftest import make_theta

UNIT = InputStats(1.0, 1.0)
H = 1e-5  # central-difference step


def _random_point(arch, seed):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal(64)
    u = {k: 1.5 * rng.standard_normal(64) for k in arch.labels()}
    return s, u


def _central(update, s, u, k=None):
    """The central difference of update at (s, u) in u_k, or in s for k None."""

    def at(h):
        if k is None:
            return update(s + h, u, None)[0]
        return update(s, {**u, k: u[k] + h}, None)[0]

    return (at(H) - at(-H)) / (2.0 * H)


def test_derivative_profiles_match_central_differences(quadrature_arch):
    rules = CELLS[quadrature_arch.name]
    for seed in range(3):
        s, u = _random_point(quadrature_arch, seed)
        # the absolute floor sits above the differences' rounding, eps |s'| / H
        np.testing.assert_allclose(rules.d0(s, u, None), _central(rules.update, s, u), rtol=1e-7, atol=1e-9)
        for k, dk in rules.dk.items():  # the GRU's inner gate acts through r2 and has no profile
            np.testing.assert_allclose(dk(s, u, None), _central(rules.update, s, u, k), rtol=1e-7, atol=1e-9)


def _written_rules(name):
    """(update, d0, dk) of each quadrature cell as written out by hand, in
    the order of operations whose bits the derived rules keep."""
    if name == "vanillaRNN":
        return lambda s, u: sigmoid(u["f"]), lambda s, u: np.zeros_like(s), {"f": lambda s, u: dsigmoid(u["f"])}
    if name == "peepholeLSTM":
        dk = {
            "i": lambda s, u: dsigmoid(u["i"]) * np.tanh(u["r"]),
            "f": lambda s, u: dsigmoid(u["f"]) * s,
            "r": lambda s, u: sigmoid(u["i"]) * dtanh(u["r"]),
            "o": lambda s, u: np.zeros_like(s),
        }
        return lambda s, u: _lstm_cell(u, s), lambda s, u: sigmoid(u["f"]), dk
    x = {"minimalRNN": "r", "GRU": "r2"}[name]
    dk = {
        "f": lambda s, u: dsigmoid(u["f"]) * (s - np.tanh(u[x])),
        x: lambda s, u: (1.0 - sigmoid(u["f"])) * dtanh(u[x]),
    }
    return lambda s, u: sigmoid(u["f"]) * s + (1.0 - sigmoid(u["f"])) * np.tanh(u[x]), lambda s, u: sigmoid(u["f"]), dk


def test_derived_rules_keep_the_written_rules_bits(quadrature_arch):
    rules = CELLS[quadrature_arch.name]
    update, d0, dk = _written_rules(quadrature_arch.name)
    for seed in range(3):
        s, u = _random_point(quadrature_arch, seed)
        s_new, c_new = rules.update(s, u, None)
        assert c_new is None
        assert np.array_equal(s_new, update(s, u))
        assert np.array_equal(rules.d0(s, u, None), d0(s, u))
        assert rules.dk.keys() == dk.keys()
        for k, profile in rules.dk.items():
            assert np.array_equal(profile(s, u, None), dk[k](s, u)), k


def test_compiled_profile_evaluates_each_primitive_once(monkeypatch):
    calls = []
    for p in ("sig", "omsig", "tanh"):
        monkeypatch.setitem(_PRIMS, p, lambda x, p=p, f=_PRIMS[p]: calls.append(p) or f(x))
    # the GRU's law: sig(u_f) s + omsig(u_f) tanh(u_r2)
    law = ((1.0, 1, (("f", "sig"),)), (1.0, 0, (("f", "omsig"), ("r2", "tanh"))))
    s, u = np.array([0.3, -0.7]), {"f": np.array([0.2, 1.1]), "r2": np.array([-0.4, 0.9])}
    got = _evaluate((), law)(s, u, None)
    assert sorted(calls) == ["sig", "tanh"]  # omsig is 1.0 minus the one sigmoid
    g = sigmoid(u["f"])
    assert np.array_equal(got, g * s + (1.0 - g) * np.tanh(u["r2"]))


def _law_moments(factors, ev, mu, q, rho):
    """The law's p = 1, 2 recursion through the cell's state-power factors,
    each the product of its reads ev(gate, prims): E[s'] = a(0, 1) b(1) +
    a(1, 0) mu and E[s'^2] = a(0, 2) b(2) + 2 a(1, 1) b(1) mu + a(2, 0)
    E[s^2], E[s^2] = rho."""

    def product(reads):
        return 0.0 if reads is None else math.prod((ev(g, prims) for g, prims in reads), start=1.0)

    def a(j, m):
        return product(factors(j, m)[0])

    def b(m):
        return product(factors(0, m)[1])

    return a(0, 1) * b(1) + a(1, 0) * mu, a(0, 2) * b(2) + 2.0 * a(1, 1) * b(1) * mu + a(2, 0) * rho


@pytest.mark.parametrize("c", [0.3, 0.8])
def test_moment_steps_match_the_laws_recursion(quadrature_arch, c):
    arch = quadrature_arch
    rules = CELLS[arch.name]
    theta = make_theta(arch, mu_other=0.5)  # E[tanh(u_r)] != 0: every cross term counts
    state = MomentState(0.1, 0.4, c)
    gates = preactivation_stats(theta, arch, state, UNIT)
    e = [gates.expect(k, (p,)) for k, p in rules.reads]
    mu_n = rules.mean(e, state.mu_s)
    q_n = rules.second(e, [gates.expect(k, (p, p)) for k, p in rules.reads], state.mu_s, state.q_s)
    rho_n = rules.second(e, [gates.pair(k, p, p) for k, p in rules.reads], state.mu_s, _rho_s(state))
    stepped = step_moments(theta, arch, state, UNIT)
    assert (stepped.mu_s, stepped.q_s) == (mu_n, q_n)

    # (mu', Q') from single-network expectations
    mu_law, q_law = _law_moments(rules.factors, gates.expect, state.mu_s, state.q_s, state.q_s)
    assert mu_n == pytest.approx(mu_law, rel=1e-12)
    assert q_n == pytest.approx(q_law, rel=1e-12)

    # rho' = E[s_a' s_b'] from pair expectations: a two-primitive factor
    # holds one primitive per copy
    def pair(k, prims):
        return gates.pair(k, *prims) if len(prims) == 2 else gates.expect(k, prims)

    _, rho_law = _law_moments(rules.factors, pair, state.mu_s, state.q_s, _rho_s(state))
    assert rho_n == pytest.approx(rho_law, rel=1e-12)
    assert not math.isclose(rho_n, q_n, rel_tol=1e-6)  # the pair term is not Q' itself
