import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rnnmf import GaussianPairSpec, NonFiniteIntegrand, expect1, expect2
from rnnmf.core import _PRIMS, sigmoid
from rnnmf.quadrature import DEFAULT_ORDER, _Law

# Monte Carlo reference for E[tanh^2(Z)], Z ~ N(0,1): 10^6 samples at
# default_rng(12345), frozen before the quadrature tests were written.
MC_TANH2 = 0.393992826500791
MC_TANH2_SE = 3.1233e-4


def test_expect1_gaussian_identities():
    assert expect1(lambda x: x, 0.7, 2.0) == pytest.approx(0.7, abs=1e-12)
    assert expect1(lambda x: x * x, 0.7, 2.0) == pytest.approx(2.0 + 0.49, abs=1e-10)
    assert expect1(np.tanh, 0.0, 1.3) == pytest.approx(0.0, abs=1e-15)


def test_expect1_matches_frozen_monte_carlo():
    v = expect1(lambda x: np.tanh(x) ** 2, 0.0, 1.0)
    assert abs(v - MC_TANH2) < 4.0 * MC_TANH2_SE


def test_expect1_zero_variance_is_point_evaluation():
    assert expect1(np.tanh, 0.4, 0.0) == math.tanh(0.4)


@pytest.mark.parametrize("sigma2", [-0.1, math.nan])
def test_invalid_variance_raises(sigma2):
    # a NaN variance is no point mass
    with pytest.raises(ValueError, match="sigma2 must be >= 0"):
        expect1(np.tanh, 0.4, sigma2)


@pytest.mark.parametrize("sigma2", [-0.1, math.nan])
def test_pair_record_rejects_a_variance_as_the_integrals_do(sigma2):
    # preactivation_stats builds these records, so a bad gate variance
    # raises there with the message the integrals would give
    with pytest.raises(ValueError) as at_integral:
        expect1(np.tanh, 0.4, sigma2)
    with pytest.raises(ValueError) as at_record:
        GaussianPairSpec(0.4, sigma2, 0.0)
    assert str(at_record.value) == str(at_integral.value)


def test_expect2_independent_factorizes():
    pair = GaussianPairSpec(0.3, 0.8, 0.0)
    prod = expect2(np.tanh, np.tanh, pair)
    single = expect1(np.tanh, 0.3, 0.8)
    assert prod == pytest.approx(single * single, abs=1e-12)


def test_expect2_full_correlation_collapses():
    pair = GaussianPairSpec(0.1, 0.5, 1.0)
    assert expect2(np.tanh, np.tanh, pair) == pytest.approx(
        expect1(lambda x: np.tanh(x) ** 2, 0.1, 0.5), abs=1e-14
    )


def test_expect2_anticorrelation():
    pair = GaussianPairSpec(0.0, 0.5, -1.0)
    v = expect2(np.tanh, np.tanh, pair)
    assert v == pytest.approx(-expect1(lambda x: np.tanh(x) ** 2, 0.0, 0.5), abs=1e-14)


def test_expect2_continuous_at_collapse():
    pair_hi = GaussianPairSpec(0.2, 0.7, 1.0 - 1e-9)
    pair_1 = GaussianPairSpec(0.2, 0.7, 1.0)
    assert expect2(np.tanh, np.tanh, pair_hi) == pytest.approx(
        expect2(np.tanh, np.tanh, pair_1), abs=1e-7
    )


def test_non_finite_integrand_raises():
    with pytest.raises(NonFiniteIntegrand):
        expect1(lambda x: np.where(x > 0, np.inf, 0.0), 0.0, 1.0)


def _poisoned(value):
    """tanh with one node (the sixth, in either layout; the only one at a
    point mass) set to value."""

    def bad(u):
        out = np.array(np.tanh(u), dtype=float)
        out.flat[min(5, out.size - 1)] = value
        return out

    return bad


# a point mass, an anticorrelated and a collapsed pair, and the pair grid
_LAYOUTS = [(0.0, 0.3), (0.9, -1.0), (0.9, 1.0), (0.9, 0.3)]


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_one_non_finite_node_raises_naming_the_integrand(value):
    bad = _poisoned(value)
    for sigma2, c in _LAYOUTS:
        pair = GaussianPairSpec(0.2, sigma2, c)
        with pytest.raises(NonFiniteIntegrand, match="integrand bad returned"):
            expect1(bad, 0.2, sigma2)
        with pytest.raises(NonFiniteIntegrand, match="integrand bad returned"):
            expect2(bad, np.tanh, pair)
        with pytest.raises(NonFiniteIntegrand, match="integrand bad returned"):
            expect2(np.tanh, bad, pair)
        with pytest.raises(NonFiniteIntegrand, match="integrand bad returned"):
            expect2(bad, bad, GaussianPairSpec(0.2, sigma2, 1.0))


def test_finite_nodes_whose_product_overflows_integrate_to_inf():
    def huge(u):
        return np.full_like(u, 1e200)

    for sigma2, c in _LAYOUTS:
        with np.errstate(over="ignore"):
            assert expect2(huge, huge, GaussianPairSpec(0.0, sigma2, c)) == math.inf
            assert expect2(huge, huge, GaussianPairSpec(0.0, sigma2, 1.0)) == math.inf


_CORRELATIONS = [-1.0, -1.0 + 1e-13, -0.5, 0.0, 0.3, 1.0 - 1e-13, 1.0]


@pytest.mark.parametrize("g", [sigmoid, np.tanh])
@pytest.mark.parametrize("sigma2", [0.0, 0.8])
@pytest.mark.parametrize("c", _CORRELATIONS)
def test_expect_moments_is_bitwise_the_three_separate_integrals(g, sigma2, c):
    # a gate's (E[g], E[g^2], E[g_a g_b]) reads one law's values
    # of g for all three, and must give the standalone integrals' bits
    mu = -0.4
    want = (
        expect1(g, mu, sigma2),
        expect2(g, g, GaussianPairSpec(mu, sigma2, 1.0)),
        expect2(g, g, GaussianPairSpec(mu, sigma2, c)),
    )
    law, prim = _Law(mu, sigma2, DEFAULT_ORDER, _PRIMS), "sig" if g is sigmoid else "tanh"
    got = law.expect((prim,)), law.expect((prim, prim)), law.pair(prim, prim, c)
    assert [v.hex() for v in got] == [v.hex() for v in want]


@pytest.mark.parametrize("order", [0, 400])
def test_unsupported_order_raises_naming_the_order(order):
    # numpy's Gauss-Hermite weights are not finite at order 400; the error
    # must name the order, not yield nan or blame the integrand
    with pytest.raises(ValueError, match=f"order {order}"):
        expect1(np.tanh, 0.3, 1.0, order=order)
    with pytest.raises(ValueError, match=f"order {order}"):
        expect2(np.tanh, np.tanh, GaussianPairSpec(0.3, 1.0, 0.5), order=order)
    with pytest.raises(ValueError, match=f"order {order}"):
        expect1(np.tanh, 0.3, 0.0, order=order)  # also at a point mass


_mu = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
_var = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
_c = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(deadline=None, max_examples=80)
@given(mu=_mu, var=_var, c=_c)
def test_pair_expectation_bounded_by_cauchy_schwarz(mu, var, c):
    pair = GaussianPairSpec(mu, var, c)
    cross = expect2(np.tanh, np.tanh, pair)
    diag = expect1(lambda x: np.tanh(x) ** 2, mu, var)
    assert abs(cross) <= diag + 1e-12


@settings(deadline=None, max_examples=60)
@given(mu=_mu, var=_var, c=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_odd_function_pair_expectation_nonnegative(mu, var, c):
    v = expect2(np.tanh, np.tanh, GaussianPairSpec(mu, var, c))
    assert v >= -1e-10


# laws wider than the Gauss-Hermite threshold (SD 5 and 8), where the
# composite rule integrates within 2e-9 (quadrature's stated bound)
_WIDE = [(-5.0, 25.0), (2.0, 64.0)]
_PRIMS = {"sig": sigmoid, "dsig": lambda u: sigmoid(u) * (1.0 - sigmoid(u)), "tanh": np.tanh,
          "dtanh": lambda u: 1.0 - np.tanh(u) ** 2}


def _trapezoid_axis(n=1201):
    # over +-12 in the standard-normal coordinate; for these integrands,
    # analytic within 0.19 of the real axis at SD 8, the trapezoid rule's
    # error is below 1e-25
    x = np.linspace(-12.0, 12.0, n)
    return x, np.exp(-0.5 * x * x) * (x[1] - x[0]) / math.sqrt(2.0 * math.pi)


def _dense_pair(g1, g2, mu, sigma2, c):
    x, w = _trapezoid_axis()
    sd, root = math.sqrt(sigma2), math.sqrt(1.0 - c * c)
    inner = [w @ g2(mu + sd * (c * xa + root * x)) for xa in x]
    return float(w @ (g1(mu + sd * x) * np.array(inner)))


@pytest.mark.parametrize("mu,sigma2", _WIDE)
def test_wide_laws_match_a_dense_reference(mu, sigma2):
    x, w = _trapezoid_axis()
    for name, g in _PRIMS.items():
        dense = float(w @ g(mu + math.sqrt(sigma2) * x))
        assert abs(expect1(g, mu, sigma2) - dense) <= 2e-9, name
        for c in (-0.5, 0.4, 0.9):
            dense_pair = _dense_pair(g, g, mu, sigma2, c)
            assert abs(expect2(g, g, GaussianPairSpec(mu, sigma2, c)) - dense_pair) <= 2e-9, (name, c)
        collapsed = expect2(g, g, GaussianPairSpec(mu, sigma2, 1.0))
        assert abs(collapsed - float(w @ g(mu + math.sqrt(sigma2) * x) ** 2)) <= 2e-9, name


def test_gauss_hermite_misses_a_wide_law_the_composite_rule_resolves():
    # the threshold is met from above: Gauss-Hermite at 64 nodes is off by
    # 1e-3 or more on E[tanh'(u)^2] at SD 5, so it is not what expect1 uses
    mu, sigma2 = _WIDE[0]
    g = lambda u: (1.0 - np.tanh(u) ** 2) ** 2
    x, w = _trapezoid_axis()
    dense = float(w @ g(mu + math.sqrt(sigma2) * x))
    gh_x, gh_w = np.polynomial.hermite.hermgauss(DEFAULT_ORDER)
    gauss_hermite = float(gh_w @ g(mu + math.sqrt(2.0 * sigma2) * gh_x)) / math.sqrt(math.pi)
    assert abs(gauss_hermite - dense) > 1e-3
    assert abs(expect1(g, mu, sigma2) - dense) <= 2e-9


def test_order_applies_up_to_the_threshold_only():
    # at SD 2 the rule is Gauss-Hermite at the requested order, node for
    # node; above it the composite rule ignores the order
    for order in (16, 64):
        x, w = np.polynomial.hermite.hermgauss(order)
        want = float((w / math.sqrt(math.pi)) @ np.tanh(0.3 + 2.0 * (x * math.sqrt(2.0))))
        assert expect1(np.tanh, 0.3, 4.0, order) == want
    assert expect1(np.tanh, 0.3, 4.41, 16) == expect1(np.tanh, 0.3, 4.41, 128)
