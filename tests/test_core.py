import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rnnmf import (
    ARCHITECTURES,
    GateParams,
    Hyperparameters,
    InputStats,
    InvalidTheta,
    MomentState,
    NegativeVariance,
    UnknownArchitecture,
    get_architecture,
    theta_from_json_dict,
    theta_to_json_dict,
    validate_theta,
)
from rnnmf import lstm_cell_sampler
from rnnmf.cells import CELLS
from rnnmf.core import MissingGate, UnknownGate, dsigmoid, sigmoid, theta_hash

from conftest import make_theta


def test_registry_contents():
    assert set(ARCHITECTURES) == {"vanillaRNN", "minimalRNN", "GRU", "peepholeLSTM", "LSTM"}
    assert get_architecture("GRU").labels() == ("f", "r", "r2")
    assert get_architecture("LSTM").needs_cell
    assert not get_architecture("peepholeLSTM").needs_cell


def test_every_architecture_has_a_cell_record():
    assert set(CELLS) == set(ARCHITECTURES)
    for name, arch in ARCHITECTURES.items():
        rules = CELLS[name]
        inner = {g.gated_by for g in arch.gates if g.gated_by is not None}
        # a derivative profile for every gate that reaches the state directly
        assert set(rules.dk) == set(arch.labels()) - inner
        # the sampled cell has no closed-form contribution terms
        assert (rules.entries is None) == (rules.factors is None) == arch.needs_cell
        assert rules.has_cell == (name in {"peepholeLSTM", "LSTM"})


def test_unknown_architecture():
    with pytest.raises(UnknownArchitecture):
        get_architecture("transformer")


def test_gru_inner_gate_wiring():
    arch = get_architecture("GRU")
    (gated,) = [g for g in arch.gates if g.gated_by is not None]
    assert gated.label == "r2"
    assert gated.gated_by == "r"


def test_negative_variance_rejected():
    with pytest.raises(NegativeVariance):
        GateParams(sigma2=-1e-9, nu2=0.0, rho2=0.0, mu=0.0)
    with pytest.raises(NegativeVariance):
        GateParams(sigma2=0.0, nu2=-0.5, rho2=0.0, mu=0.0)


@pytest.mark.parametrize("value", [(0.1, 0.1, 0.0, 0.0), {"sigma2": 0.1, "nu2": 0.1, "rho2": 0.0, "mu": 0.0}, None])
def test_hyperparameters_accept_only_gate_params(value):
    # a theta is valid by construction: the per-gate rules live in GateParams
    with pytest.raises(InvalidTheta, match="gate 'f': expected GateParams"):
        Hyperparameters({"f": value})


def test_validate_theta_gate_mismatch():
    arch = get_architecture("minimalRNN")
    with pytest.raises(MissingGate):
        validate_theta(Hyperparameters({"f": GateParams(0.1, 0.1, 0.0, 0.0)}), arch)
    extra = {
        "f": GateParams(0.1, 0.1, 0.0, 0.0),
        "r": GateParams(0.1, 0.1, 0.0, 0.0),
        "o": GateParams(0.1, 0.1, 0.0, 0.0),
    }
    with pytest.raises(UnknownGate):
        validate_theta(Hyperparameters(extra), arch)


def test_replace_returns_new_theta():
    arch = get_architecture("vanillaRNN")
    theta = make_theta(arch)
    theta2 = theta.replace("f", mu=3.0)
    assert theta2.mu("f") == 3.0
    assert theta.mu("f") == 1.0


def test_replace_rejects_an_unknown_gate_or_field():
    theta = make_theta(get_architecture("vanillaRNN"))
    with pytest.raises(MissingGate, match="'zz'"):
        theta.replace("zz", mu=1.0)
    # a misspelled field is an error, not a silent no-op
    with pytest.raises(InvalidTheta, match=r"gate 'f': unknown keys \['mU'\]"):
        theta.replace("f", mU=3.0)
    with pytest.raises(NegativeVariance):
        theta.replace("f", sigma2=-1.0)


def test_moment_state_sigma2():
    st_ = MomentState(0.5, 1.0, 0.3)
    assert math.isclose(st_.sigma2_s, 0.75)


@pytest.mark.parametrize("moments", [(0.1, 0.4, math.nan), (0.0, math.nan, 0.0), (math.nan, 0.4, 0.0)])
def test_moment_state_rejects_nan(moments):
    with pytest.raises(ValueError):
        MomentState(*moments)


@pytest.mark.parametrize("R, sigma_z", [(math.inf, 1.0), (math.nan, 1.0), (-1.0, 1.0), (1.0, 1.5), (1.0, math.nan)])
def test_input_stats_rejects_values_off_their_range(R, sigma_z):
    # an infinite R would fail only later, as a NaN gate correlation
    with pytest.raises(ValueError, match="R must be >= 0 and finite" if R != 1.0 else "sigma_z"):
        InputStats(R, sigma_z)


def test_json_round_trip():
    arch = get_architecture("LSTM")
    theta = make_theta(arch, sigma2=0.25, nu2=0.5, rho2=0.125, mu_f=1.5)
    doc = theta_to_json_dict(theta, arch.name)
    name, back = theta_from_json_dict(json.loads(json.dumps(doc)))
    assert name == "LSTM"
    for k in arch.labels():
        assert back.sigma2(k) == theta.sigma2(k)
        assert back.nu2(k) == theta.nu2(k)
        assert back.rho2(k) == theta.rho2(k)
        assert back.mu(k) == theta.mu(k)


def test_json_rejects_malformed():
    with pytest.raises(InvalidTheta):
        theta_from_json_dict({"gates": "nope"})
    with pytest.raises(InvalidTheta):
        theta_from_json_dict({"gates": {"f": {"sigma2": 0.1}}})
    with pytest.raises(InvalidTheta):
        theta_from_json_dict(
            {"gates": {"f": {"sigma2": 0.1, "nu2": 0.1, "rho2": 0.0, "mu": 0.0, "junk": 1}}}
        )


finite = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
mus = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@settings(deadline=None, max_examples=50)
@given(s2=finite, n2=finite, r2=finite, m=mus)
def test_round_trip_preserves_exact_floats(s2, n2, r2, m):
    arch = get_architecture("vanillaRNN")
    theta = Hyperparameters({"f": GateParams(s2, n2, r2, m)})
    _, back = theta_from_json_dict(theta_to_json_dict(theta, arch.name))
    assert back.sigma2("f") == s2 and back.nu2("f") == n2
    assert back.rho2("f") == r2 and back.mu("f") == m


def test_theta_hash_stable_and_sensitive():
    arch = get_architecture("GRU")
    theta = make_theta(arch)
    h = theta_hash(theta)
    assert h == theta_hash(make_theta(arch))
    assert h != theta_hash(theta.replace("f", mu=1.0 + 1e-12))
    assert len(h) == 16


def test_sigmoid_matches_libm_within_two_ulp():
    xs = np.linspace(-40.0, 40.0, 8001)
    ref = np.array([1.0 / (1.0 + math.exp(-x)) for x in xs])
    bound = 2.0 * np.spacing(ref)
    for got in (sigmoid(xs), np.array([sigmoid(float(x)) for x in xs])):
        assert np.all(np.abs(got - ref) <= bound)
    # s (1 - s) carries the error of s, so dsigmoid's bound is 2 ulp of s in
    # absolute terms: near s = 1 the cancellation in 1 - s magnifies it
    # relative to the derivative itself
    for got in (dsigmoid(xs), np.array([dsigmoid(float(x)) for x in xs])):
        assert np.all(np.abs(got - ref * (1.0 - ref)) <= bound)


def test_sigmoid_saturates_exactly():
    for x, s in ((-np.inf, 0.0), (800.0, 1.0), (np.inf, 1.0)):
        assert sigmoid(x) == s and dsigmoid(x) == 0.0
    assert list(sigmoid(np.array([-np.inf, 800.0, np.inf]))) == [0.0, 1.0, 1.0]
    # below x = -709.78 exp(-x) overflows: numpy warns and the value is still exactly 0
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert sigmoid(-800.0) == 0.0 and dsigmoid(-800.0) == 0.0


def test_package_has_one_sigmoid():
    assert lstm_cell_sampler.sigmoid is sigmoid
    assert not hasattr(lstm_cell_sampler, "expit")
