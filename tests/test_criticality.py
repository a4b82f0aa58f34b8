"""Presets, the residual search, and phase-diagram sweeps."""

import math

import numpy as np
import pytest

from rnnmf import (
    InputStats,
    InvalidTheta,
    PRESET_NAMES,
    SIGMA2_FLOOR,
    SWEEP_COLUMNS,
    SearchFailed,
    UnknownPreset,
    direction_from_json_dict,
    get_architecture,
    isometry_gap,
    moments,
    preset_default_arch,
    preset_init,
    search_critical,
    solve_correlation,
    solve_moments,
    sweep_phase_diagram,
    theta_from_json_dict,
    theta_to_json_dict,
)
from rnnmf import criticality, jacobian
from rnnmf.core import UnknownGate

from conftest import make_theta

UNIT = InputStats(1.0, 1.0)

XI_ANCHOR = 74.45629974531285  # timescale of the zero-variance forget family at mu_f = 5


def test_preset_names_are_registered():
    assert PRESET_NAMES == ("lstm_cifar_critical", "peephole_critical", "standard")
    for name in PRESET_NAMES:
        assert isinstance(preset_default_arch(name), str)


def test_unknown_preset_raises():
    with pytest.raises(UnknownPreset):
        preset_init("no_such_preset")
    with pytest.raises(UnknownPreset):
        preset_default_arch("no_such_preset")


def test_peephole_critical_preset_values():
    assert preset_default_arch("peephole_critical") == "peepholeLSTM"
    theta = preset_init("peephole_critical")
    for k, p in theta.gates.items():
        assert p.sigma2 == SIGMA2_FLOOR
        assert p.nu2 == 0.0 and p.rho2 == 0.0
        assert p.mu == (5.0 if k == "f" else 0.0)


def test_lstm_cifar_preset_values():
    theta = preset_init("lstm_cifar_critical")
    g = theta.gates
    assert set(g) == {"i", "f", "r", "o"}
    assert g["o"].sigma2 == 1.0
    for k in ("i", "f", "r"):
        assert g[k].sigma2 == SIGMA2_FLOOR
    assert g["i"].nu2 == 1.0 and g["r"].nu2 == 1.0
    assert g["f"].nu2 == 0.0 and g["o"].nu2 == 0.0
    assert g["f"].mu == 1.0
    assert all(p.rho2 == 0.0 for p in g.values())


def test_standard_preset_scales_with_width():
    theta = preset_init("standard", N=512)
    p = theta.gates["f"]
    assert p.sigma2 == 1.0 / 512
    assert p.nu2 == 2.0 / (512 + 512)
    assert p.mu == 1.0
    narrow = preset_init("standard", N=256, input_dim=64)
    assert narrow.gates["o"].sigma2 == 1.0 / 256
    assert narrow.gates["o"].nu2 == 2.0 / (64 + 256)


@pytest.mark.parametrize(
    "widths, name",
    [({"N": 0}, "N"), ({"N": -5}, "N"), ({"N": 4, "input_dim": -4}, "input_dim"), ({"input_dim": 0}, "input_dim")],
)
def test_preset_rejects_a_width_below_one(widths, name):
    with pytest.raises(ValueError, match=f"^{name} must be a positive integer"):
        preset_init("standard", **widths)


def test_preset_resolves_over_another_architecture():
    theta = preset_init("peephole_critical", arch_name="GRU")
    assert set(theta.gates) == set(get_architecture("GRU").labels())
    assert theta.gates["f"].mu == 5.0
    assert theta.gates["r2"].mu == 0.0


def test_preset_round_trips_through_json():
    theta = preset_init("lstm_cifar_critical")
    doc = theta_to_json_dict(theta, "LSTM")
    arch_name, back = theta_from_json_dict(doc)
    assert arch_name == "LSTM"
    assert back.gates == theta.gates


def test_search_hits_a_target_timescale():
    theta, rep = search_critical("peepholeLSTM", target_xi=XI_ANCHOR)
    assert rep.xi == pytest.approx(XI_ANCHOR, rel=1e-3)
    assert theta.gates["f"].mu == pytest.approx(5.0, abs=5e-3)
    assert rep.target_xi == XI_ANCHOR
    assert rep.evaluations > 0
    assert rep.source in ("search", "preset")


def test_search_minimizes_the_isometry_residual():
    theta, rep = search_critical("peepholeLSTM")
    assert rep.gap.norm < 1e-2
    assert rep.gap.critical
    assert rep.objective == rep.gap.norm
    # the residual keeps shrinking with mu_f, so the optimum rides the bound
    assert theta.gates["f"].mu == pytest.approx(10.0, abs=1e-3)


def test_search_respects_constraints():
    theta, rep = search_critical(
        "peepholeLSTM", constraints={"r": {"nu2": 0.25}}, target_xi=10.0
    )
    assert theta.gates["r"].nu2 == 0.25
    assert rep.xi == pytest.approx(10.0, rel=0.1)


@pytest.mark.parametrize(
    "constraints",
    [None, {"r": {"nu2": 1.0}, "r2": {"sigma2": 0.5, "nu2": 1.0}}],
    ids=["degenerate", "interior"],
)
def test_search_computes_the_jacobian_moments_once_per_evaluation(monkeypatch, constraints):
    # each evaluation asks for the Jacobian moments once. On the
    # zero-variance family the fixed state is degenerate and chi is their
    # m1, reached by Price's slope at full correlation, which builds no
    # contribution vector. With these constraints the state is not
    # degenerate and chi is the slope at C*.
    calls = []
    contribution_vector = jacobian.contribution_vector

    def spy(*args, **kwargs):
        calls.append(args)
        return contribution_vector(*args, **kwargs)

    monkeypatch.setattr(jacobian, "contribution_vector", spy)
    theta, rep = search_critical("GRU", constraints=constraints)
    assert len(calls) == rep.evaluations
    monkeypatch.undo()
    # the report matches the public pipeline at its theta, bit for bit
    arch = get_architecture("GRU")
    msol = solve_moments(theta, arch, UNIT)
    fp = solve_correlation(theta, arch, UNIT, msol)
    mom = moments(theta, arch, msol.state, inputs=UNIT)
    assert (rep.chi, rep.xi, rep.m1, rep.m2, rep.sigma) == (fp.chi, fp.xi, mom.m1, mom.m2, mom.sigma)
    assert rep.gap == isometry_gap(mom, fp.chi)


def test_search_counts_a_preset_whose_evaluation_raises(monkeypatch):
    # a preset is scored like a searched point: an evaluation that raises
    # scores inf and still counts
    preset = preset_init("peephole_critical", "peepholeLSTM")
    calls = []
    pipeline_eval = criticality._pipeline_eval

    def planted(theta, *args, **kwargs):
        calls.append(theta)
        if theta == preset:
            raise ArithmeticError("planted failure")
        return pipeline_eval(theta, *args, **kwargs)

    monkeypatch.setattr(criticality, "_pipeline_eval", planted)
    theta, rep = search_critical("peepholeLSTM")
    assert preset in calls
    assert rep.evaluations == len(calls)
    assert rep.source == "search"


def test_search_validates_free_parameters():
    with pytest.raises(ValueError):
        search_critical("peepholeLSTM", constraints={"f": {"mu": 3.0}})  # mu:f is searched
    with pytest.raises(UnknownGate, match=r"unexpected gate entries \['zz'\]"):  # as in a direction
        search_critical("peepholeLSTM", constraints={"zz": {"mu": 3.0}})
    for value in ("0.25", True):  # read as theta entries are: neither is a number
        with pytest.raises(InvalidTheta, match="gate 'r': nu2 must be a number"):
            search_critical("peepholeLSTM", constraints={"r": {"nu2": value}})


# r's pre-activation variance overflows to inf, so every evaluation of
# this family raises a ValueError (|c| = nan) inside the pipeline
_OVERFLOWING = {"r": {"nu2": 1e308, "rho2": 1e308}}


def test_search_and_sweep_share_one_failure_rule():
    with pytest.raises(SearchFailed, match=r"every evaluation failed; the first raised ValueError") as exc:
        search_critical("GRU", constraints=_OVERFLOWING)
    assert exc.value.best is None
    assert isinstance(exc.value.__cause__, ValueError)
    theta0 = make_theta(get_architecture("GRU"), sigma2=SIGMA2_FLOOR, nu2=0.0, rho2=0.0, mu_f=0.0)
    theta0 = theta0.replace("r", **_OVERFLOWING["r"])
    direction = {"f": {"sigma2": 0.0, "nu2": 0.0, "rho2": 0.0, "mu": 1.0}}
    rows = sweep_phase_diagram("GRU", theta0, direction, [0.0, 1.0], UNIT, seed=0)
    assert [r["status"] for r in rows] == ["error:ValueError"] * 2


def test_search_names_an_argument_error_every_evaluation_raised():
    with pytest.raises(SearchFailed, match=r"first raised ValueError: n_s = 1"):
        search_critical("LSTM", n_s=1)


def test_search_failure_attaches_the_best_point():
    with pytest.raises(SearchFailed) as exc:
        search_critical("peepholeLSTM", target_xi=1e9)
    best = exc.value.best
    assert best is not None
    theta, rep = best
    assert math.isfinite(rep.xi)
    assert rep.xi < 1e9


def test_search_failure_counts_returned_and_raised_evaluations(monkeypatch):
    # every finite xi misses an infinite target by inf: the evaluations
    # returned, and the message says so instead of calling them failed
    returned = r"no evaluation reached a finite objective \(\d+ returned a report, 0 raised\)"
    with pytest.raises(SearchFailed, match=returned) as exc:
        search_critical("peepholeLSTM", target_xi=math.inf)
    assert exc.value.best is None

    def planted(*args, **kwargs):
        raise ArithmeticError("planted failure")

    monkeypatch.setattr(criticality, "_pipeline_eval", planted)
    with pytest.raises(SearchFailed, match=r"every evaluation failed"):
        search_critical("peepholeLSTM", target_xi=math.inf)


def _gru_ray():
    theta0 = make_theta(get_architecture("GRU"), sigma2=0.4, nu2=0.4, rho2=0.02, mu_f=0.0)
    direction = {"f": {"sigma2": 0.0, "nu2": 0.0, "rho2": 0.0, "mu": 1.0}}
    return theta0, direction


@pytest.mark.parametrize("target_xi", [math.nan, -1.0])
def test_search_rejects_a_nan_or_negative_target_before_evaluating(monkeypatch, target_xi):
    # no xi can meet such a target, so no evaluation is spent on it
    calls = []
    monkeypatch.setattr(criticality, "_pipeline_eval", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="target_xi must be a number >= 0"):
        search_critical("peepholeLSTM", target_xi=target_xi)
    assert calls == []


@pytest.mark.parametrize("workers", [0, -1])
def test_sweep_rejects_fewer_than_one_worker(workers):
    theta0 = make_theta(get_architecture("GRU"))
    with pytest.raises(ValueError, match="workers must be >= 1"):
        sweep_phase_diagram("GRU", theta0, {"f": {"mu": 1.0}}, [0.0, 1.0], UNIT, workers=workers)


def test_sweep_is_deterministic_across_worker_counts():
    theta0, direction = _gru_ray()
    alphas = [0.0, 1.0, 2.0]
    serial = sweep_phase_diagram("GRU", theta0, direction, alphas, UNIT, seed=3, workers=1)
    parallel = sweep_phase_diagram("GRU", theta0, direction, alphas, UNIT, seed=3, workers=2)
    assert serial == parallel


def test_sweep_rows_cover_the_columns_in_alpha_order():
    theta0, direction = _gru_ray()
    rows = sweep_phase_diagram("GRU", theta0, direction, [2.0, 0.0, 1.0], UNIT, seed=0)
    assert [r["alpha"] for r in rows] == [0.0, 1.0, 2.0]
    for row in rows:
        assert set(row) == set(SWEEP_COLUMNS)
        assert row["status"] == "ok"
        assert row["xi3"] == 3.0 * row["xi"]
        assert row["xi6"] == 6.0 * row["xi"]


def test_sweep_marks_invalid_points_and_continues():
    theta0, _ = _gru_ray()
    direction = {"f": {"sigma2": -1.0, "nu2": 0.0, "rho2": 0.0, "mu": 0.0}}
    rows = sweep_phase_diagram("GRU", theta0, direction, [0.0, 10.0], UNIT, seed=0)
    assert rows[0]["status"] == "ok"
    assert rows[1]["status"] == "invalid_theta"
    assert math.isnan(rows[1]["chi"])


def test_sweep_marks_divergent_points():
    arch = get_architecture("peepholeLSTM")
    gates = {
        "i": {"sigma2": 0.1, "nu2": 1.0, "rho2": 0.0, "mu": 0.0},
        # sigmoid(40) rounds to 1: the cell integrates its input and Q grows
        # without bound (at forget bias 10 the solve converges, to Q* ~ 5127)
        "f": {"sigma2": 0.0, "nu2": 0.0, "rho2": 0.0, "mu": 40.0},
        "r": {"sigma2": 0.1, "nu2": 1.0, "rho2": 0.0, "mu": 0.0},
        "o": {"sigma2": 0.1, "nu2": 1.0, "rho2": 0.0, "mu": 0.0},
    }
    _, theta0 = theta_from_json_dict({"arch": "peepholeLSTM", "gates": gates})
    zero = {k: {"sigma2": 0.0, "nu2": 0.0, "rho2": 0.0, "mu": 0.0} for k in gates}
    rows = sweep_phase_diagram("peepholeLSTM", theta0, zero, [0.0], UNIT, seed=0)
    assert rows[0]["status"] == "no_convergence"
    assert math.isnan(rows[0]["m1"])


def test_direction_parser_defaults_and_rejects():
    arch_name, gates = direction_from_json_dict(
        {"arch": "GRU", "gates": {"f": {"mu": -2.0}}}
    )
    assert arch_name == "GRU"
    assert gates["f"]["mu"] == -2.0
    assert gates["f"]["sigma2"] == 0.0  # omitted fields are zero
    with pytest.raises(InvalidTheta):
        direction_from_json_dict({"no_gates": {}})
    with pytest.raises(InvalidTheta):
        direction_from_json_dict({"gates": {"f": {"weird": 1.0}}})


_NOT_A_NUMBER = "gate 'f': mu must be a number"


@pytest.mark.parametrize(
    "value, match",
    [("1", _NOT_A_NUMBER), (True, _NOT_A_NUMBER), (None, _NOT_A_NUMBER), ([1], _NOT_A_NUMBER),
     (10**400, "gate 'f': mu does not fit a float"), (math.inf, "gate 'f': mu must be finite")],
    ids=["string", "bool", "null", "list", "huge_int", "inf"],
)
def test_direction_entries_must_be_numbers(monkeypatch, value, match):
    # directions, theta documents and search constraints share one reader,
    # and a sweep or search reads its entries before evaluating any point
    monkeypatch.setattr(criticality, "_evaluate", lambda *args: pytest.fail("a point was evaluated"))
    with pytest.raises(InvalidTheta, match=match):
        direction_from_json_dict({"gates": {"f": {"mu": value}}})
    with pytest.raises(InvalidTheta, match=match):
        theta_from_json_dict({"arch": "vanillaRNN", "gates": {"f": {"sigma2": 0.0, "nu2": 0.0, "rho2": 0.0, "mu": value}}})
    theta0, _ = _gru_ray()
    with pytest.raises(InvalidTheta, match=match):
        sweep_phase_diagram("GRU", theta0, {"f": {"mu": value}}, [0.0], UNIT, seed=0)
    with pytest.raises(InvalidTheta, match=match.replace("'f': mu", "'r': mu")):
        search_critical("GRU", constraints={"r": {"mu": value}})


def test_mixed_key_types_are_named_not_compared():
    # a library caller's keys need not all be strings; the messages list
    # them sorted by their text instead of comparing an int with a str
    with pytest.raises(InvalidTheta, match=r"gate 'f': unknown keys \[1, 'x'\]"):
        direction_from_json_dict({"gates": {"f": {1: 0.5, "x": 1}}})
    theta0, _ = _gru_ray()
    with pytest.raises(UnknownGate, match=r"GRU: unexpected gate entries \[2, 'zz'\]"):
        sweep_phase_diagram("GRU", theta0, {"f": {"mu": 1.0}, 2: {}, "zz": {}}, [0.0], UNIT, seed=0)


def test_a_partial_library_direction_steps_its_omitted_fields_by_zero():
    theta0, full = _gru_ray()
    partial = sweep_phase_diagram("GRU", theta0, {"f": {"mu": 1.0}}, [0.0, 1.0], UNIT, seed=0)
    assert partial == sweep_phase_diagram("GRU", theta0, full, [0.0, 1.0], UNIT, seed=0)
    assert [r["status"] for r in partial] == ["ok", "ok"]
