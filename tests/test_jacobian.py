"""Spectral moments of the state-to-state Jacobian at a moment fixed point."""

import math
from importlib.resources import files

import jsonschema
import numpy as np
import pytest

from rnnmf import (
    CRITICAL_TOL,
    ContributionVector,
    Hyperparameters,
    InputStats,
    JacobianMoments,
    MomentState,
    chi_at,
    contribution_vector,
    expect1,
    get_architecture,
    isometry_gap,
    jacobian_report_dict,
    moments,
    preactivation_stats,
    solve_moments,
)
from rnnmf import jacobian
from rnnmf.cells import CELLS, _rho_s
from rnnmf.core import _PRIMS
from rnnmf.moment_maps import _degenerate
from rnnmf.quadrature import NonFiniteIntegrand, _Law

from conftest import make_theta, random_theta, zero_variance_theta

UNIT = InputStats(1.0, 1.0)

SIG5_SQ = 0.9866590924049252  # sigmoid(5)^2, exact to double precision

EXPECTED_LABELS = {
    "vanillaRNN": ("a_0", "f"),
    "minimalRNN": ("a_0", "f", "r"),
    "GRU": ("a_0", "f", "r", "r2"),
    "peepholeLSTM": ("a_0", "i", "f", "r"),
    "LSTM": ("a_0", "i", "f", "r", "o"),
}


def report_schema():
    path = files("rnnmf") / "schemas" / "jacobian_report.schema.json"
    import json

    return json.loads(path.read_text())


def _solved_cv(arch, seed=0, **kw):
    theta = make_theta(arch, **kw)
    msol = solve_moments(theta, arch, UNIT, seed=seed)
    return theta, msol, contribution_vector(theta, arch, msol.state, inputs=UNIT, seed=seed)


def test_contribution_labels_match_architecture(any_arch):
    _, _, cv = _solved_cv(any_arch)
    assert cv.labels == EXPECTED_LABELS[any_arch.name]


def test_entries_are_nonnegative(any_arch):
    _, _, cv = _solved_cv(any_arch)
    for k in cv.labels:
        assert cv.ea[k] >= -1e-10
        assert cv.eaa[(k, k)] >= -1e-10


def test_contribution_values_are_floats(quadrature_arch):
    # an entry without terms (the vanillaRNN's a_0) sums to 0.0, not to the int 0
    _, _, cv = _solved_cv(quadrature_arch)
    for v in (*cv.ea.values(), *cv.eaa.values()):
        assert type(v) is float


def test_minimal_a0_equals_mean_squared_forget_gate():
    # convex update s' = g s + (1-g) tanh(u_r): the direct path entry is E[g^2]
    arch = get_architecture("minimalRNN")
    theta = make_theta(arch)
    msol = solve_moments(theta, arch, UNIT)
    cv = contribution_vector(theta, arch, msol.state, inputs=UNIT)
    stats = preactivation_stats(theta, arch, msol.state, UNIT)

    def sig(u):
        return 1.0 / (1.0 + np.exp(-u))

    direct = expect1(lambda u: sig(u) ** 2, stats["f"].mu, stats["f"].sigma2)
    assert cv.ea["a_0"] == pytest.approx(direct, rel=1e-12)


def test_m1_is_the_sum_of_mean_entries(quadrature_arch):
    theta, msol, cv = _solved_cv(quadrature_arch)
    mom = moments(theta, quadrature_arch, msol.state, inputs=UNIT)
    assert mom.m1 == pytest.approx(sum(cv.ea.values()), rel=1e-14)
    assert mom.m2 == mom.sigma + mom.m1 * mom.m1
    assert mom.sigma >= 0.0


def test_second_moments_satisfy_jensen(quadrature_arch):
    rng = np.random.default_rng(7)
    theta = random_theta(quadrature_arch, rng)
    msol = solve_moments(theta, quadrature_arch, UNIT)
    cv = contribution_vector(theta, quadrature_arch, msol.state, inputs=UNIT)
    for k in cv.labels:
        assert cv.eaa[(k, k)] >= cv.ea[k] ** 2 - 1e-12


def test_cross_moments_are_symmetric():
    arch = get_architecture("GRU")
    _, _, cv = _solved_cv(arch, mu_f=0.5)
    for k in cv.labels:
        for l in cv.labels:
            assert cv.eaa[(k, l)] == pytest.approx(cv.eaa[(l, k)], rel=1e-12)


def test_vanilla_moments_match_closed_form():
    # s' = sig(u_f): a_f = sigma_f^2 sig'(u_f)^2 is the only entry, so
    # m1 = sigma_f^2 E[d^2] and m2 = sigma_f^4 (E[d^4] + E[d^2]^2)
    arch = get_architecture("vanillaRNN")
    theta = make_theta(arch, sigma2=1.3, nu2=0.4, rho2=0.1, mu_f=0.3)
    msol = solve_moments(theta, arch, UNIT)
    mom = moments(theta, arch, msol.state, inputs=UNIT)
    stats = preactivation_stats(theta, arch, msol.state, UNIT)

    def dsig(u):
        s = 1.0 / (1.0 + np.exp(-u))
        return s * (1.0 - s)

    mu, s2 = stats["f"].mu, stats["f"].sigma2
    s2f = theta.sigma2("f")
    e_d2 = expect1(lambda u: dsig(u) ** 2, mu, s2)
    e_d4 = expect1(lambda u: dsig(u) ** 4, mu, s2)
    assert mom.m1 == pytest.approx(s2f * e_d2, rel=1e-12)
    assert mom.m2 == pytest.approx(s2f**2 * (e_d4 + e_d2**2), rel=1e-12)


def test_peephole_zero_variance_moments_are_the_forget_power():
    # no weight noise: the Jacobian is the deterministic diagonal sig(mu_f),
    # so m1 = sig(5)^2 exactly and the spread vanishes
    arch = get_architecture("peepholeLSTM")
    theta = zero_variance_theta(arch, mu_f=5.0)
    msol = solve_moments(theta, arch, UNIT)
    mom = moments(theta, arch, msol.state, inputs=UNIT)
    assert mom.m1 == pytest.approx(SIG5_SQ, abs=1e-15)
    assert mom.sigma == pytest.approx(0.0, abs=1e-15)
    chi = chi_at(theta, arch, UNIT, msol.state, 1.0)
    assert chi == pytest.approx(SIG5_SQ, abs=1e-9)


def test_isometry_gap_flags_a_critical_point():
    gap = isometry_gap(JacobianMoments(m1=1.0, m2=1.0, sigma=0.0), chi=1.0)
    assert gap.critical
    assert gap.norm == 0.0
    near = isometry_gap(JacobianMoments(m1=1.005, m2=1.012, sigma=0.002), chi=0.996)
    assert near.critical  # every residual below CRITICAL_TOL
    assert all(abs(g) < CRITICAL_TOL for g in (near.chi_gap, near.m1_gap, near.sigma_gap))


def test_isometry_gap_flags_departures():
    off = isometry_gap(JacobianMoments(m1=1.0, m2=1.0, sigma=0.0), chi=1.02)
    assert not off.critical
    assert off.chi_gap == pytest.approx(0.02)
    spread = isometry_gap(JacobianMoments(m1=1.0, m2=1.05, sigma=0.05), chi=1.0)
    assert not spread.critical
    expected = math.sqrt(0.05**2)
    assert spread.norm == pytest.approx(expected)


def test_lstm_moments_carry_a_standard_error():
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    msol = solve_moments(theta, arch, UNIT, seed=0)
    mom = moments(theta, arch, msol.state, inputs=UNIT, seed=0)
    assert mom.m1_se is not None and mom.m1_se > 0.0
    assert mom.sigma >= 0.0


def test_quadrature_moments_have_no_standard_error(quadrature_arch):
    theta, msol, _ = _solved_cv(quadrature_arch)
    mom = moments(theta, quadrature_arch, msol.state, inputs=UNIT)
    assert mom.m1_se is None


def test_lstm_moments_are_seed_deterministic():
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    msol = solve_moments(theta, arch, UNIT, seed=4)
    a = moments(theta, arch, msol.state, inputs=UNIT, seed=11)
    b = moments(theta, arch, msol.state, inputs=UNIT, seed=11)
    c = moments(theta, arch, msol.state, inputs=UNIT, seed=12)
    assert a.m1 == b.m1 and a.m2 == b.m2
    assert c.m1 != a.m1


def test_lstm_warm_start_from_solved_cell_ensemble():
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    msol = solve_moments(theta, arch, UNIT, seed=2)
    cv = contribution_vector(theta, arch, msol.state, cell=msol.cell, inputs=UNIT, seed=2)
    assert cv.labels == EXPECTED_LABELS["LSTM"]
    assert sum(cv.ea.values()) > 0.0


def test_report_dict_validates_against_schema(any_arch):
    theta = make_theta(any_arch)
    msol = solve_moments(theta, any_arch, UNIT, seed=1)
    mom = moments(theta, any_arch, msol.state, inputs=UNIT, seed=1)
    chi = chi_at(theta, any_arch, UNIT, msol.state, 1.0, seed=1)
    doc = jacobian_report_dict(mom, chi)
    jsonschema.validate(doc, report_schema())
    assert doc["critical"] in (True, False)
    assert doc["residuals"]["norm"] >= 0.0


def test_report_residuals_reconstruct_the_moments():
    arch = get_architecture("GRU")
    theta, msol, _ = _solved_cv(arch)
    mom = moments(theta, arch, msol.state, inputs=UNIT)
    doc = jacobian_report_dict(mom, 0.9)
    assert doc["residuals"]["m1"] == pytest.approx(mom.m1 - 1.0)
    assert doc["residuals"]["chi"] == pytest.approx(-0.1)
    assert doc["m2"] == mom.m2


def _gate_factors(shape):
    """(gate, prims) of every gate factor of a term shape, pre-averaged
    blocks included."""
    for _, funcs in shape:
        yield from funcs


def test_cell_entries_are_data_over_the_cells_own_gates(quadrature_arch):
    entries = CELLS[quadrature_arch.name].entries
    gates = set(quadrature_arch.labels())
    assert tuple(entries) == EXPECTED_LABELS[quadrature_arch.name]
    for weights, terms in entries.values():
        assert set(weights) <= gates
        for number, shape in terms:
            assert number in (1.0, -2.0)  # powers of two: a weight times one rounds once
            for gate, prims in _gate_factors(shape):
                assert gate in gates
                assert set(prims) <= set(_PRIMS)


def _solved_moments(theta, arch):
    return moments(theta, arch, solve_moments(theta, arch, UNIT).state, inputs=UNIT)


def test_a_second_theta_reuses_the_cells_term_products(quadrature_arch, monkeypatch):
    arch = quadrature_arch
    _solved_moments(make_theta(arch), arch)

    def rebuilt(*args):
        raise AssertionError("term products rebuilt for a second theta")

    monkeypatch.setattr(jacobian, "_shape_product", rebuilt)
    _solved_moments(make_theta(arch, sigma2=0.7, mu_f=2.0), arch)


# the generic term loop that the compiled kernels replace, kept as their
# reference: each term's coefficient times its blocks' state powers and gate
# factors, each label's terms summed from 0.0


def _term(coef, shape, powers, ev):
    v = coef
    for s_pow, funcs in shape:
        if s_pow:
            v *= powers[s_pow]
        for g, ps in funcs:
            v *= ev(g, ps)
    return v


def _entry_means(entries, weights, powers, ev):
    return {
        k: sum((_term(n * weights[k], shape, powers, ev) for n, shape in terms), 0.0)
        for k, (_, terms) in entries.items()
    }


def _state_powers(factors, ev, mu_star, q_star):
    """E[s^p] for p = 0..4 by the state-power recursion as a loop over the
    cell's factors (CellRules.factors), the compiled recursion's reference."""

    def product(reads):
        return 0.0 if reads is None else math.prod((ev(g, ps) for g, ps in reads), start=1.0)

    M = [1.0, mu_star, q_star, 0.0, 0.0]
    for p in (3, 4):
        acc = 0.0
        for j in range(p):
            a, b = factors(j, p - j)
            acc += math.comb(p, j) * product(a) * M[j] * product(b)
        denom = 1.0 - product(factors(p, 0)[0])
        if denom <= 1e-15:
            raise ArithmeticError("stationary state power diverges (forget gate saturated)")
        M[p] = acc / denom
    return M


def _reads(ev, calls):
    """ev, recording each (gate, prims) it is asked for."""

    def spy(g, ps):
        calls.append((g, ps))
        return ev(g, ps)

    return spy


@pytest.mark.parametrize("tag", ["make", "random", "zero"])
def test_compiled_kernels_keep_the_term_loops_bits(quadrature_arch, tag):
    arch, rules = quadrature_arch, CELLS[quadrature_arch.name]
    theta = {
        "make": make_theta,
        "random": lambda a: random_theta(a, np.random.default_rng(17)),
        "zero": zero_variance_theta,
    }[tag](arch)
    state = solve_moments(theta, arch, UNIT).state
    gates = preactivation_stats(theta, arch, MomentState(state.mu_s, state.q_s, 1.0), UNIT)
    power_reads, kernel_reads = [], []
    powers = _state_powers(rules.factors, _reads(gates.expect, power_reads), state.mu_s, state.q_s)
    compiled = jacobian._kernels(arch.name)[2](_reads(gates.expect, kernel_reads), state.mu_s, state.q_s)
    assert [v.hex() for v in compiled] == [v.hex() for v in powers]
    assert kernel_reads == list(dict.fromkeys(power_reads))
    w = jacobian._weights(rules.entries, theta)
    mean_reads, pair_reads = [], []
    ea = _entry_means(rules.entries, w, powers, _reads(gates.expect, mean_reads))
    ev = _reads(gates.expect, pair_reads)
    eaa = {
        (k, l): sum((_term(n * w[k] * w[l], shape, powers, ev) for n, shape in terms), 0.0)
        for (k, l), terms in jacobian._products(arch.name).items()
    }
    cv = contribution_vector(theta, arch, state, inputs=UNIT)
    assert {k: v.hex() for k, v in cv.ea.items()} == {k: v.hex() for k, v in ea.items()}
    assert {kl: v.hex() for kl, v in cv.eaa.items()} == {kl: v.hex() for kl, v in eaa.items()}
    # each kernel reads each expectation once, in its loop's first-read
    # order, so the same non-finite integrand raises first
    for kernel, loop_reads in zip(jacobian._kernels(arch.name), (mean_reads, pair_reads)):
        kernel_reads = []
        kernel(w, powers, _reads(gates.expect, kernel_reads))
        assert kernel_reads == list(dict.fromkeys(loop_reads))
    for c in (0.3, 1.0):
        at = MomentState(state.mu_s, state.q_s, 1.0 if _degenerate(state.mu_s, state.q_s) else c)
        pairs = preactivation_stats(theta, arch, at, UNIT)

        def ev(k, prims):
            return pairs.pair(k, *prims) if len(prims) == 2 else pairs.expect(k, prims)

        want = sum(_entry_means(rules.entries, w, (1.0, at.mu_s, _rho_s(at)), ev).values())
        assert chi_at(theta, arch, UNIT, state, c).hex() == want.hex()


@pytest.mark.parametrize("arch_name", ["minimalRNN", "GRU", "peepholeLSTM"])
def test_saturated_forget_gate_stops_the_compiled_state_powers_at_power_3(arch_name):
    # sig(40) rounds to 1: 1 - E[sig^3] is 0, and the recursion raises
    # before power 4 reads anything, as its loop does
    law = _Law(40.0, 0.0, 64, _PRIMS)

    def ev(g, prims):
        return law.expect(prims)

    factors = CELLS[arch_name].factors
    loop_reads, kernel_reads = [], []
    with pytest.raises(ArithmeticError, match="stationary state power diverges"):
        _state_powers(factors, _reads(ev, loop_reads), 0.5, 0.3)
    with pytest.raises(ArithmeticError, match="stationary state power diverges"):
        jacobian._kernels(arch_name)[2](_reads(ev, kernel_reads), 0.5, 0.3)
    assert kernel_reads == list(dict.fromkeys(loop_reads))
    assert ("f", ("sig",) * 4) not in kernel_reads


def test_contribution_vector_reads_no_coefficient_of_the_theta_before(quadrature_arch):
    arch = quadrature_arch

    def bits(theta):
        cv = contribution_vector(theta, arch, solve_moments(theta, arch, UNIT).state, inputs=UNIT)
        return {k: float(v).hex() for k, v in cv.ea.items()}, {kl: float(v).hex() for kl, v in cv.eaa.items()}

    # B differs from A in every gate variance, so in every weight
    a, b = make_theta(arch), make_theta(arch, sigma2=0.7, mu_f=2.0)
    first = bits(a)
    bits(b)
    assert bits(Hyperparameters(a.gates)) == first


def _prod_func(names):
    """The product of the named primitives as one integrand, expect1's
    reference for the gate laws' expectations."""
    fs = tuple(_PRIMS[n] for n in names)

    def g(u):
        out = fs[0](u)
        for f in fs[1:]:
            out = out * f(u)
        return out

    return g


_PRIM_PRODUCTS = [
    ("sig",),
    ("sig", "sig", "omsig"),
    ("omsig", "sig", "sig"),
    ("dsig", "dsig", "tanh", "tanh"),
    ("dtanh", "dtanh"),
    ("tanh",) * 4,
]


def test_gate_expectations_reuse_node_values_bitwise(quadrature_arch):
    arch = quadrature_arch
    for theta in (make_theta(arch), random_theta(arch, np.random.default_rng(4)), zero_variance_theta(arch)):
        stats = preactivation_stats(theta, arch, MomentState(0.1, 0.4, 1.0), UNIT)
        for gate, pair in stats.items():
            for prims in _PRIM_PRODUCTS:
                want = expect1(_prod_func(prims), pair.mu, pair.sigma2)
                assert stats.expect(gate, prims).hex() == want.hex()


@pytest.mark.parametrize("sigma2", [0.0, 0.5])
def test_non_finite_gate_expectation_raises_as_expect1(sigma2):
    # a non-finite node sum raises as expect1 does, naming the product by
    # its primitives
    law = _Law(math.nan, sigma2, 64, _PRIMS)
    prims = ("sig", "tanh")
    with pytest.raises(NonFiniteIntegrand, match="integrand g returned"):
        expect1(_prod_func(prims), math.nan, sigma2)
    with pytest.raises(NonFiniteIntegrand, match=r"integrand sig\*tanh returned"):
        law.expect(prims)
