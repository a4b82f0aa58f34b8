import json
import math

import numpy as np
import pytest

import importlib.resources as ir
import jsonschema

from rnnmf import (
    GateParams,
    Hyperparameters,
    InputStats,
    MomentState,
    NoConvergence,
    ZERO_STATE,
    chi_at,
    get_architecture,
    moments,
    solve_correlation,
    solve_moments,
    step_correlation,
    step_moments,
)
from rnnmf import SIGMA2_FLOOR, fixed_point, lstm_cell_sampler
from rnnmf.moment_maps import _degenerate

from conftest import make_theta, random_theta, zero_variance_theta
from test_moment_maps import PEEPHOLE_DRIVE_Q, peephole_drive_theta

UNIT = InputStats(1.0, 1.0)

# closed-form anchors (frozen): sigmoid(5)^2 and the matching timescale
SIG5_SQ = 0.9866590924049252
XI_ANCHOR = 74.45629974531285


def report_schema():
    path = ir.files("rnnmf") / "schemas" / "fixed_point_report.schema.json"
    return json.loads(path.read_text())


def test_solve_moments_matches_frozen_oracle():
    arch = get_architecture("peepholeLSTM")
    msol = solve_moments(peephole_drive_theta(), arch, UNIT)
    # the solve stops on an estimate of the distance to the limit, not on
    # the last step, so the default tol 1e-9 bounds the error
    assert abs(msol.q_star - PEEPHOLE_DRIVE_Q) < 1e-9
    assert abs(msol.mu_star) < 1e-12
    assert msol.converged


def test_solve_moments_agrees_with_direct_iteration(quadrature_arch):
    theta = make_theta(quadrature_arch)
    msol = solve_moments(theta, quadrature_arch, UNIT)
    state = ZERO_STATE
    for _ in range(3000):
        state = step_moments(theta, quadrature_arch, state, UNIT)
    assert msol.q_star == pytest.approx(state.q_s, abs=1e-7)
    assert msol.mu_star == pytest.approx(state.mu_s, abs=1e-7)


def _slow_peephole_theta():
    # forget bias 10: the moment map expands for Q below about 1000 and
    # contracts at rate sigmoid(10)^2 near Q* ~ 5127
    return Hyperparameters(
        {
            "i": GateParams(0.1, 1.0, 0.0, 0.0),
            "f": GateParams(0.0, 0.0, 0.0, 10.0),
            "r": GateParams(0.1, 1.0, 0.0, 0.0),
            "o": GateParams(0.1, 1.0, 0.0, 0.0),
        }
    )


def test_no_convergence_has_monotone_trajectory():
    arch = get_architecture("peepholeLSTM")
    with pytest.raises(NoConvergence) as exc:
        # ten evaluations stay in the expanding phase (Q ends near 104)
        solve_moments(_slow_peephole_theta(), arch, UNIT, max_iter=10)
    traj = exc.value.trajectory
    q = np.array([s.q_s for s in traj])
    # while the map expands every step is a stretched plain one, and each
    # is accepted
    assert len(traj) == 10
    assert traj[0] == ZERO_STATE
    assert np.all(np.diff(q) > 0.0)


def test_slow_peephole_reaches_a_verified_fixed_point():
    arch = get_architecture("peepholeLSTM")
    theta = _slow_peephole_theta()
    msol = solve_moments(theta, arch, UNIT)
    # stretched steps cross the expanding phase, where plain steps alone
    # take 1,969 evaluations
    assert msol.iterations <= 100
    assert msol.error_estimate <= 1e-9
    # mpmath reference (30 digits): Q* = 5126.82399889. The gates' SD is 23
    # there; Gauss-Hermite at 64 nodes gave 5472.38
    assert msol.q_star == pytest.approx(5126.824, abs=0.01)
    nxt = step_moments(theta, arch, msol.state, UNIT)
    assert max(abs(nxt.mu_s - msol.mu_star), abs(nxt.q_s - msol.q_star)) == msol.residual
    assert msol.residual <= 1e-9
    rep = solve_correlation(theta, arch, UNIT, msol)
    c_next = step_correlation(theta, arch, msol.state, rep.c_star, UNIT)
    assert abs(min(c_next, 1.0) - rep.c_star) == rep.residuals["c"] <= 1e-9


# the forget-bias ray of the quadrature-sweep benchmark, plus the peephole
# near its transition, where plain iteration took thousands of steps
# (mu_f = 4) or did not converge within max_iter (mu_f = 3.9)
_RAY = [(a, mu_f) for a in ("vanillaRNN", "minimalRNN", "GRU", "peepholeLSTM") for mu_f in range(6)]
_RAY += [("peepholeLSTM", 3.9), ("peepholeLSTM", 4.0)]


@pytest.mark.parametrize("arch_name,mu_f", _RAY)
def test_fixed_point_is_within_tol_and_its_error_estimate_bounds_the_error(arch_name, mu_f):
    arch = get_architecture(arch_name)
    theta = make_theta(arch, sigma2=0.5, nu2=0.5, rho2=0.05, mu_f=mu_f)
    msol = solve_moments(theta, arch, UNIT)
    rep = solve_correlation(theta, arch, UNIT, msol)
    ref_m = solve_moments(theta, arch, UNIT, tol=1e-13)
    # C* is the fixed point of the correlation map at the given (mu*, Q*),
    # so its reference is taken at the same state
    ref_c = solve_correlation(theta, arch, UNIT, msol, tol=1e-13)
    moment_bound = msol.error_estimate + ref_m.error_estimate
    checks = {
        "mu": (abs(msol.mu_star - ref_m.mu_star), moment_bound),
        "q": (abs(msol.q_star - ref_m.q_star), moment_bound),
        "c": (abs(rep.c_star - ref_c.c_star), rep.error_estimates["c"] + ref_c.error_estimates["c"]),
    }
    for k, (err, bound) in checks.items():
        assert err <= 1e-9, (k, err)
        assert err <= bound, (k, err, bound)
    assert rep.error_estimates["mu"] == rep.error_estimates["q"] == msol.error_estimate <= 1e-9
    assert rep.error_estimates["c"] <= 1e-9


def _peephole_ray_theta(mu_f):
    arch = get_architecture("peepholeLSTM")
    return arch, make_theta(arch, sigma2=0.5, nu2=0.5, rho2=0.05, mu_f=mu_f)


def _spy_moment_map(monkeypatch):
    """Record every Q the moment solve evaluates its map at."""
    points = []
    step = fixed_point._moment_step

    def spy(theta, arch, mu, q, R, order):
        points.append(q)
        return step(theta, arch, mu, q, R, order)

    monkeypatch.setattr(fixed_point, "_moment_step", spy)
    return points


@pytest.mark.parametrize("mu_f", [4.0, 4.5, 5.0])
def test_peephole_near_transition_solves_in_few_evaluations(monkeypatch, mu_f):
    # the map's secant slope nears 1 here: Anderson steps overshoot Q* many
    # times over, and plain steps crawl
    points = _spy_moment_map(monkeypatch)
    arch, theta = _peephole_ray_theta(mu_f)
    msol = solve_moments(theta, arch, UNIT)
    assert len(points) == msol.iterations <= 30
    assert msol.error_estimate <= 1e-9


def test_rejected_candidate_is_retried_shorter_along_its_direction(monkeypatch):
    # at mu_f = 5 the Anderson step from Q = 2.9 lands at Q = 7.4, where
    # the residual is larger; the retry goes half as far the same way and
    # is accepted, instead of a damped plain step
    points = _spy_moment_map(monkeypatch)
    arch, theta = _peephole_ray_theta(5.0)
    msol = solve_moments(theta, arch, UNIT)
    accepted = [s.q_s for s in msol.trajectory]
    k = next(i for i, p in enumerate(points) if p not in accepted)
    base, rejected, retry = points[k - 1], points[k], points[k + 1]
    assert retry in accepted
    assert retry - base == pytest.approx(0.5 * (rejected - base), rel=1e-12, abs=1e-30)


def _spied(G):
    """G and the list of the points it is evaluated at."""
    points = []

    def spy(x):
        points.append(x)
        return G(x)

    return spy, points


def test_scalar_solve_of_an_affine_contraction_meets_tol_in_three_evaluations():
    # one plain step, then the secant step lands on the fixed point
    G, points = _spied(lambda x: 0.5 * x + 0.25)
    x, r, err, it, traj = fixed_point._iterate(G, 0.0, -math.inf, math.inf, 1e-9, 100, "affine")
    assert (x, r, err, it) == (0.5, 0.0, 0.0, 3)
    assert points == traj == [0.0, 0.25, 0.5]


def test_scalar_solve_retries_a_rejected_step_at_half_its_length():
    # the secant of the line 0.75 x + 1 points at its fixed point x = 4,
    # past the kink at x = 2, where the residual is larger: the step is
    # retried from x = 1 at half its length, 2.5, and accepted
    G, points = _spied(lambda x: 0.75 * x + 1.0 if x < 2.0 else 0.25 * x + 2.0)
    x, r, err, it, traj = fixed_point._iterate(G, 0.0, -math.inf, math.inf, 1e-9, 100, "kinked")
    assert points[:4] == [0.0, 1.0, 4.0, 2.5]
    assert traj[:3] == [0.0, 1.0, 2.5]
    assert x == pytest.approx(8.0 / 3.0, abs=1e-9) and err <= 1e-9


def test_scalar_solve_stretches_its_steps_while_the_map_expands():
    # at slope 1 every plain step is stretched twice as far as the last,
    # until the map contracts to its fixed point at 120; plain steps alone
    # would take about 120 evaluations
    G, points = _spied(lambda x: min(x + 1.0, 0.5 * x + 60.0))
    x, r, err, it, traj = fixed_point._iterate(G, 0.0, 0.0, math.inf, 1e-9, 100, "expanding")
    assert points[:8] == [0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 127.0]
    assert x == pytest.approx(120.0, abs=1e-9) and err <= 1e-9 and it <= 20


def _saturated_theta(arch, **kw):
    # sigmoid(40 + 3 sd) rounds to 1 at Q = 0: the forget gate carries
    # every mean, a = 1 in the mean rule mu' = a mu + b
    return make_theta(arch, sigma2=0.5, nu2=0.5, rho2=0.0, mu_f=40.0, **kw)


@pytest.mark.parametrize("arch_name", ["minimalRNN", "GRU"])
def test_saturated_forget_gate_returns_the_zero_state_in_one_evaluation(arch_name):
    arch = get_architecture(arch_name)
    msol = solve_moments(_saturated_theta(arch), arch, UNIT)
    assert (msol.state, msol.iterations, msol.error_estimate) == (ZERO_STATE, 1, 0.0)


def test_saturated_peephole_reaches_the_fixed_point_of_its_growing_cell():
    arch = get_architecture("peepholeLSTM")
    msol = solve_moments(_saturated_theta(arch), arch, UNIT)
    assert msol.q_star == pytest.approx(331.0853, abs=1e-4)
    assert abs(msol.mu_star) < 1e-12
    # with nonzero means the cell grows until the forget gate's spread
    # lets it forget, at Q* = 347, where the scalar solve takes 22
    # evaluations
    msol = solve_moments(_saturated_theta(arch, mu_other=0.3), arch, UNIT)
    assert (msol.mu_star, msol.q_star) == pytest.approx((6.9059084, 347.05275), rel=1e-7)
    assert msol.iterations <= 30 and msol.error_estimate <= 1e-9


@pytest.mark.parametrize("tag", ["make", "random"])
def test_reported_chi_equals_a_fresh_chi_at(quadrature_arch, tag):
    # the solve hands its last map value M(C*) to the stencil; chi_at
    # evaluates it afresh, and both must agree to the last bit
    rng = np.random.default_rng(11)
    theta = make_theta(quadrature_arch) if tag == "make" else random_theta(quadrature_arch, rng)
    msol = solve_moments(theta, quadrature_arch, UNIT)
    rep = solve_correlation(theta, quadrature_arch, UNIT, msol)
    assert rep.chi == chi_at(theta, quadrature_arch, UNIT, msol.state, rep.c_star)


def test_chi_evaluates_no_correlation_map(monkeypatch):
    # the solve iterates the public map, once per counted iteration; chi
    # comes from Price's theorem, not from differencing the map
    arch = get_architecture("GRU")
    theta = make_theta(arch)
    inputs = InputStats(1.0, 0.5)
    msol = solve_moments(theta, arch, inputs)
    seen = []

    def spy(theta, arch, fixed, c_s, *args):
        seen.append(c_s)
        return step_correlation(theta, arch, fixed, c_s, *args)

    monkeypatch.setattr(fixed_point, "step_correlation", spy)
    rep = solve_correlation(theta, arch, inputs, msol)
    assert 0.0 < rep.c_star < 1.0
    assert len(seen) == rep.iterations and seen[-1] == rep.c_star
    seen.clear()
    assert chi_at(theta, arch, inputs, msol.state, rep.c_star) == rep.chi
    assert seen == []


# gate SD <= 1 at these thetas, where Gauss-Hermite at 64 nodes is exact to
# about 1e-7 for the derivative integrands
_SLOPE_THETA = dict(sigma2=0.4, nu2=0.4, rho2=0.05, mu_f=1.0)


def test_chi_matches_a_central_difference_of_the_map(quadrature_arch):
    arch = quadrature_arch
    theta = make_theta(arch, **_SLOPE_THETA)
    inputs = InputStats(1.0, 0.5)
    msol = solve_moments(theta, arch, inputs)
    rep = solve_correlation(theta, arch, inputs, msol)
    assert 0.0 < rep.c_star < 1.0
    h = 1e-4
    up, down = (step_correlation(theta, arch, msol.state, rep.c_star + d, inputs) for d in (h, -h))
    assert rep.chi == pytest.approx((up - down) / (2.0 * h), rel=1e-6)


@pytest.mark.parametrize("order", [64, 128])
def test_chi_at_full_correlation_is_m1_to_the_bit(quadrature_arch, order):
    rng = np.random.default_rng(5)
    for theta in [make_theta(quadrature_arch)] + [random_theta(quadrature_arch, rng) for _ in range(4)]:
        msol = solve_moments(theta, quadrature_arch, UNIT, order=order)
        chi = chi_at(theta, quadrature_arch, UNIT, msol.state, 1.0, order=order)
        assert chi == moments(theta, quadrature_arch, msol.state, inputs=UNIT, order=order).m1


@pytest.mark.parametrize("mu_f", [7.0, 8.0, 9.0])
def test_saturated_forget_gate_chi_is_the_slope_not_rounding_noise(mu_f):
    # sigma*^2 is 4.3e-6 to 8.0e-8 here, so differencing the map would
    # resolve only its rounding (a difference quotient read chi = -1.0e-5 at
    # mu_f = 8). C* lies within 3e-8 of 1, so chi is about m1.
    arch = get_architecture("vanillaRNN")
    theta = make_theta(arch, sigma2=0.5, nu2=0.5, rho2=0.05, mu_f=mu_f)
    msol = solve_moments(theta, arch, UNIT)
    rep = solve_correlation(theta, arch, UNIT, msol)
    m1 = moments(theta, arch, msol.state, inputs=UNIT).m1
    assert math.isfinite(rep.chi) and rep.chi >= 0.0
    assert abs(rep.c_star - 1.0) <= 3e-8
    assert rep.chi == pytest.approx(m1, rel=1e-6)
    assert chi_at(theta, arch, UNIT, msol.state, 1.0) == m1


def test_lstm_standard_errors_need_two_samples():
    # one sample has no standard deviation, so the LSTM solve's noise-window
    # test could never pass; both sampled paths reject it before sampling
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    with pytest.raises(ValueError, match="n_s >= 2"):
        solve_moments(theta, arch, UNIT, n_s=1, max_iter=20)
    with pytest.raises(ValueError, match="n_s >= 2"):
        moments(theta, arch, MomentState(0.0, 0.3, 1.0), inputs=UNIT, n_s=1)


def test_lstm_chi_needs_two_samples_as_m1_does():
    # chi sums m1's per-label frame means, so it takes moments' n_s rule
    arch = get_architecture("LSTM")
    with pytest.raises(ValueError, match="n_s = 1: .*n_s >= 2"):
        chi_at(make_theta(arch), arch, UNIT, MomentState(0.0, 0.1, 0.0), 0.5, n_s=1)


def test_lstm_zero_variance_solve_settles_on_tol():
    # every cell sample is the same number, so both standard errors are 0 and
    # only the tol floor of the noise-window test lets the solve stop
    arch = get_architecture("LSTM")
    msol = solve_moments(zero_variance_theta(arch), arch, UNIT, max_iter=200, seed=1)
    sig = lambda x: 1.0 / (1.0 + math.exp(-x))
    mu = sig(0.1) * math.tanh(sig(0.2) * math.tanh(0.3) / (1.0 - sig(1.0)))
    assert msol.converged and msol.iterations == 11  # the first window test passes
    assert msol.mu_star == pytest.approx(mu, abs=1e-9)
    assert msol.q_star == pytest.approx(mu * mu, abs=1e-9)


def test_full_correlation_is_fixed_point_and_classified(quadrature_arch):
    rng = np.random.default_rng(31)
    theta = random_theta(quadrature_arch, rng)
    msol = solve_moments(theta, quadrature_arch, UNIT)
    rep = solve_correlation(theta, quadrature_arch, UNIT, msol)
    assert rep.c_star == pytest.approx(1.0, abs=1e-6)
    assert rep.converged


@pytest.mark.parametrize("seed", range(4))
def test_lstm_correlation_map_keeps_full_correlation_fixed(seed):
    # identical inputs keep two copies identical, so M(1) = 1 and C* = 1;
    # normalizing the pairs by the moment solve's (mu*, Q*), another
    # estimator, gave M(1) = 0.909 and C* = 0.906 at seed 0
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    msol = solve_moments(theta, arch, UNIT, seed=seed)
    assert step_correlation(theta, arch, msol.state, 1.0, UNIT, seed=seed) == 1.0
    rep = solve_correlation(theta, arch, UNIT, msol, seed=seed)
    assert abs(rep.c_star - 1.0) <= 1e-9


def test_correlation_starts_converge_to_same_point():
    arch = get_architecture("peepholeLSTM")
    theta = make_theta(arch, sigma2=0.4, nu2=0.4, rho2=0.02)
    msol = solve_moments(theta, arch, UNIT)
    r0 = solve_correlation(theta, arch, UNIT, msol, c0=0.0)
    r9 = solve_correlation(theta, arch, UNIT, msol, c0=0.9)
    assert abs(r0.c_star - r9.c_star) < 1e-8


def _spy_correlation_map(monkeypatch):
    """Record every c the correlation solve evaluates its map at."""
    points = []
    step = fixed_point.step_correlation

    def spy(theta, arch, state, c, *args):
        points.append(c)
        return step(theta, arch, state, c, *args)

    monkeypatch.setattr(fixed_point, "step_correlation", spy)
    return points


def test_ordered_phase_at_full_input_correlation_reads_c_star_one_at_once(monkeypatch, any_arch):
    # chi(1) < 1 and M(1) = 1: C = 1 is the only fixed point on [0, 1], so
    # one collapsed map evaluation there is the whole solve
    theta = make_theta(any_arch)
    kw = {"seed": 1} if any_arch.needs_cell else {}
    msol = solve_moments(theta, any_arch, UNIT, **kw)
    points = _spy_correlation_map(monkeypatch)
    rep = solve_correlation(theta, any_arch, UNIT, msol, **kw)
    assert points == [1.0]
    assert rep.c_star == 1.0 and rep.iterations == 1 and rep.trajectory == (1.0,)
    assert rep.residuals["c"] == rep.error_estimates["c"] == 0.0
    assert rep.chi == moments(theta, any_arch, msol.state, inputs=UNIT, **kw).m1


def _wide_law_peephole(draw):
    """The peephole's draw-th (1-based) `random_theta` from default_rng(7),
    after 60 draws each for vanillaRNN, minimalRNN and the GRU. Draws 20
    and 49 have gate variances of 2 to 5.7, where the composite pair rule
    applies."""
    rng = np.random.default_rng(7)
    for name in ("vanillaRNN", "minimalRNN", "GRU"):
        for _ in range(60):
            random_theta(get_architecture(name), rng)
    arch = get_architecture("peepholeLSTM")
    for _ in range(draw):
        theta = random_theta(arch, rng)
    return arch, theta


@pytest.mark.parametrize("draw", [20, 49])
def test_wide_law_peephole_reads_the_exact_c_star(draw):
    # plain iteration from c0 = 0 stops 1.8e-9 (draw 20) and 6.5e-9 (draw
    # 49) short of the exact C* = 1, with estimates 7.7e-13 and 2.4e-14
    arch, theta = _wide_law_peephole(draw)
    msol = solve_moments(theta, arch, UNIT)
    rep = solve_correlation(theta, arch, UNIT, msol)
    assert rep.c_star == 1.0 and rep.iterations == 1
    assert rep.chi == moments(theta, arch, msol.state, inputs=UNIT).m1 < 1.0


# where the answer at C = 1 is not known, the solve iterates from c0 and
# keeps its bits: (C*, chi, residual, estimate) as float.hex(), evaluations
ITERATED = {
    # chi(1) = 1.014: C = 1 repels, C* is interior
    ("peepholeLSTM", "ray", 4.5, 0.0): (
        "0x1.1acaecc9bf5a3p-1", "0x1.fac96472d25c4p-1", "0x1.6000000000000p-50", "0x1.0e15f66ea51a1p-42", 9,
    ),
    # M(1) - 1 = -1.0e-10: the fixed point sits just below 1
    ("vanillaRNN", "ray", 3.5, 0.0): (
        "0x1.ffffffff228d3p-1", "0x1.8b272ba89ef2fp-10", "0x1.33c0000000000p-40", "0x1.33c0000000000p-39", 4,
    ),
    # c0 < 0, where convexity on [0, 1] says nothing
    ("peepholeLSTM", "make", 1.0, -0.5): (
        "0x1.0000000000000p+0", "0x1.2b82cdf0581dep-1", "0x0.0p+0", "0x0.0p+0", 6,
    ),
    ("GRU", "make", 1.0, -0.5): (
        "0x1.fffffffffccc5p-1", "0x1.11f60ab49936cp-1", "0x1.8440000000000p-41", "0x1.a18b92da2561dp-39", 5,
    ),
}


@pytest.mark.parametrize("arch_name, tag, mu_f, c0", sorted(ITERATED))
def test_correlation_solve_iterates_where_c_star_one_is_not_known(arch_name, tag, mu_f, c0):
    arch = get_architecture(arch_name)
    ray = {"sigma2": 0.5, "nu2": 0.5, "rho2": 0.05} if tag == "ray" else {}
    theta = make_theta(arch, mu_f=mu_f, **ray)
    rep = solve_correlation(theta, arch, UNIT, solve_moments(theta, arch, UNIT), c0=c0)
    got = (rep.c_star.hex(), rep.chi.hex(), rep.residuals["c"].hex(), rep.error_estimates["c"].hex(), rep.iterations)
    assert got == ITERATED[arch_name, tag, mu_f, c0]


def test_timescale_anchor_exact_at_zero_variance():
    arch = get_architecture("peepholeLSTM")
    theta = Hyperparameters(
        {k: GateParams(0.0, 0.0, 0.0, 5.0 if k == "f" else 0.0) for k in arch.labels()}
    )
    msol = solve_moments(theta, arch, UNIT)
    rep = solve_correlation(theta, arch, UNIT, msol)
    assert rep.chi == pytest.approx(SIG5_SQ, abs=1e-12)
    assert rep.xi == pytest.approx(XI_ANCHOR, rel=1e-12)
    assert rep.c_star == 1.0 and rep.iterations == 0


def test_unstable_point_reports_infinite_timescale():
    arch = get_architecture("minimalRNN")
    theta = Hyperparameters(
        {"f": GateParams(0.0, 0.0, 0.0, -5.0), "r": GateParams(25.0, 0.0, 0.0, 0.0)}
    )
    inputs = InputStats(1.0, 0.5)
    msol = solve_moments(theta, arch, inputs)
    rep = solve_correlation(theta, arch, inputs, msol)
    assert rep.chi > 1.0
    assert math.isinf(rep.xi)
    assert rep.to_json_dict()["xi"] == "inf"


def test_chaotic_phase_has_interior_fixed_point():
    arch = get_architecture("minimalRNN")
    theta = Hyperparameters(
        {"f": GateParams(0.0, 0.0, 0.0, -5.0), "r": GateParams(25.0, 0.5, 0.0, 0.0)}
    )
    inputs = InputStats(1.0, 0.5)
    msol = solve_moments(theta, arch, inputs)
    rep = solve_correlation(theta, arch, inputs, msol)
    assert rep.c_star < 0.5  # memory of common input mostly destroyed
    # the slope at C* = 1 exceeds one (that fixed point repels) while the
    # interior fixed point attracts
    assert chi_at(theta, arch, inputs, msol.state, 1.0) > 1.0
    assert rep.chi < 1.0


def test_chi_matches_numpy_gradient_at_interior_point():
    arch = get_architecture("minimalRNN")
    theta = Hyperparameters(
        {"f": GateParams(0.0, 0.0, 0.0, -5.0), "r": GateParams(25.0, 0.5, 0.0, 0.0)}
    )
    inputs = InputStats(1.0, 0.5)
    msol = solve_moments(theta, arch, inputs)
    rep = solve_correlation(theta, arch, inputs, msol)
    h = 1e-5
    grid = [rep.c_star - h, rep.c_star, rep.c_star + h]
    vals = [step_correlation(theta, arch, msol.state, c, inputs) for c in grid]
    fd = (vals[2] - vals[0]) / (2.0 * h)
    assert rep.chi == pytest.approx(fd, rel=1e-5)


def test_chi_equals_mean_contribution_at_full_correlation(quadrature_arch):
    # chi(C = 1) sums m1's terms over m1's expectations: equal to the bit
    rng = np.random.default_rng(43)
    theta = random_theta(quadrature_arch, rng)
    msol = solve_moments(theta, quadrature_arch, UNIT)
    chi = chi_at(theta, quadrature_arch, UNIT, msol.state, 1.0)
    m1 = moments(theta, quadrature_arch, msol.state, inputs=UNIT).m1
    assert m1 == chi


def test_lstm_chi_and_m1_share_every_bit():
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    msol = solve_moments(theta, arch, UNIT, seed=3)
    chi = chi_at(theta, arch, UNIT, msol.state, 1.0, seed=9)
    m1 = moments(theta, arch, msol.state, inputs=UNIT, seed=9).m1
    assert m1 == chi  # both read one frame, so the two estimators are identical


def _count_sampler_steps(monkeypatch) -> list:
    """The step counts of every sampler run from here on."""
    steps, run = [], lstm_cell_sampler._run

    def spy(stats, c_a, c_b, entropy, n):
        steps.append(n)
        return run(stats, c_a, c_b, entropy, n)

    monkeypatch.setattr(lstm_cell_sampler, "_run", spy)
    return steps


def test_lstm_chi_reads_the_frame_of_the_correlation_solve(monkeypatch):
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    inputs = InputStats(1.0, 0.5)
    msol = solve_moments(theta, arch, inputs, seed=3)
    rep = solve_correlation(theta, arch, inputs, msol, seed=3)
    assert 0.0 < rep.c_star < 1.0
    steps = _count_sampler_steps(monkeypatch)
    assert chi_at(theta, arch, inputs, msol.state, rep.c_star, seed=3) == rep.chi
    assert steps == []


def test_lstm_m1_reads_the_frame_of_chi_at_full_correlation(monkeypatch):
    # C* itself may sit a few ulp below 1, so m1's frame is built by chi_at(1)
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    msol = solve_moments(theta, arch, UNIT, seed=3)
    steps = _count_sampler_steps(monkeypatch)
    chi = chi_at(theta, arch, UNIT, msol.state, 1.0, seed=5)
    assert steps == [200]
    assert moments(theta, arch, msol.state, inputs=UNIT, seed=5).m1 == chi
    assert steps == [200]
    # a fresh theta rebuilds the same frame
    assert moments(make_theta(arch), arch, msol.state, inputs=UNIT, seed=5).m1 == chi
    assert steps == [200, 200]


# thetas with every variance zero (a deterministic scalar chain), the
# search's zero-variance family (recurrent variance SIGMA2_FLOOR), and one
# whose gates carry input variance, so that their pair correlations follow
# c and sigma_z even at a point-mass state
_DEGENERATE_THETAS = {
    "zero_variance": zero_variance_theta,
    "floor": lambda arch: make_theta(arch, sigma2=SIGMA2_FLOOR, nu2=0.0, rho2=0.0),
    "make": make_theta,
}
# point masses: exactly, and with a variance inside the degeneracy band
_POINT_MASSES = [ZERO_STATE, MomentState(0.3, 0.3 * 0.3, 0.0), MomentState(0.3, 0.3 * 0.3 + 1e-14, 0.0)]


def _degenerate_chi_cases(theta, arch, state, **kw):
    """(chi_at, m1) at the point-mass state for c in {0, 0.5, 1} and
    sigma_z in {0, 0.5, 1}."""
    assert _degenerate(state.mu_s, state.q_s)
    for sigma_z in (0.0, 0.5, 1.0):
        inputs = InputStats(1.0, sigma_z)
        m1 = moments(theta, arch, state, inputs=inputs, **kw).m1
        for c in (0.0, 0.5, 1.0):
            yield chi_at(theta, arch, inputs, state, c, **kw), m1


@pytest.mark.parametrize("tag", sorted(_DEGENERATE_THETAS))
def test_degenerate_chi_is_m1_at_every_correlation_and_input(quadrature_arch, tag):
    # a point mass has no correlation direction: chi_at reads it at full
    # correlation, where Price's slope is m1 to the bit
    theta = _DEGENERATE_THETAS[tag](quadrature_arch)
    states = list(_POINT_MASSES)
    if tag == "zero_variance":  # its fixed point is a point mass too
        states.append(solve_moments(theta, quadrature_arch, UNIT).state)
    for state in states:
        for chi, m1 in _degenerate_chi_cases(theta, quadrature_arch, state):
            assert chi == m1


def test_degenerate_lstm_chi_is_m1_at_every_correlation_and_input():
    arch = get_architecture("LSTM")
    theta = zero_variance_theta(arch)
    msol = solve_moments(theta, arch, UNIT, max_iter=200, seed=1)
    cases = [(theta, msol.state)] + [(make_theta(arch), state) for state in _POINT_MASSES]
    for theta, state in cases:
        for chi, m1 in _degenerate_chi_cases(theta, arch, state, n_s=16, n_iters=40, seed=3):
            assert chi == m1


@pytest.mark.parametrize("degenerate", [False, True], ids=["make_theta", "zero_variance"])
def test_solve_correlation_takes_chi_from_chi_at(monkeypatch, quadrature_arch, degenerate):
    theta = (zero_variance_theta if degenerate else make_theta)(quadrature_arch)
    inputs = InputStats(1.0, 0.5)
    msol = solve_moments(theta, quadrature_arch, inputs)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[4])
        return chi_at(*args, **kwargs)

    monkeypatch.setattr(fixed_point, "chi_at", spy)
    rep = solve_correlation(theta, quadrature_arch, inputs, msol)
    assert calls == [rep.c_star]
    assert (rep.c_star == 1.0) == degenerate


@pytest.mark.parametrize("solve", ["moments", "correlation"])
@pytest.mark.parametrize("tol, max_iter", [(math.inf, 10), (-1.0, 10), (math.nan, 10), (0.0, 10), (1e-9, 0)])
def test_solvers_reject_settings_that_cannot_describe_a_fixed_point(any_arch, solve, tol, max_iter):
    # an infinite tol accepts the start point, a negative or NaN one can
    # never be met, and max_iter = 0 evaluates nothing
    theta = make_theta(any_arch)
    with pytest.raises(ValueError, match="tol must be|max_iter must be"):
        if solve == "moments":
            solve_moments(theta, any_arch, UNIT, tol=tol, max_iter=max_iter)
        else:
            solve_correlation(theta, any_arch, UNIT, MomentState(0.1, 0.4, 0.0), tol=tol, max_iter=max_iter)


def test_chi_at_rejects_out_of_range():
    arch = get_architecture("vanillaRNN")
    theta = make_theta(arch)
    with pytest.raises(ValueError):
        chi_at(theta, arch, UNIT, MomentState(0.0, 0.5, 0.0), 1.5)


def test_lstm_pipeline_report_validates():
    arch = get_architecture("LSTM")
    theta = make_theta(arch)
    msol = solve_moments(theta, arch, UNIT, seed=0)
    rep = solve_correlation(theta, arch, UNIT, msol, seed=0)
    doc = rep.to_json_dict()
    jsonschema.validate(doc, report_schema())
    assert doc["arch"] == "LSTM"
    assert 0.0 <= doc["c_star"] <= 1.0


def test_report_schema_accepts_all_architectures(any_arch):
    theta = make_theta(any_arch)
    msol = solve_moments(theta, any_arch, UNIT, seed=1)
    rep = solve_correlation(theta, any_arch, UNIT, msol, seed=1)
    jsonschema.validate(rep.to_json_dict(), report_schema())


def test_correlation_decay_is_log_linear():
    # |C_t - C*| decays like chi^t: fit the log slope over a window and
    # compare to log chi from the linearization
    arch = get_architecture("GRU")
    theta = make_theta(arch, sigma2=0.5, nu2=0.5, rho2=0.05, mu_f=1.0)
    msol = solve_moments(theta, arch, UNIT)
    rep = solve_correlation(theta, arch, UNIT, msol)
    c = 0.0
    gaps = []
    for _ in range(20):
        # the raw map can overshoot 1.0 by a residual-sized amount, so clamp
        # the iterate like the solver does
        c = min(max(step_correlation(theta, arch, msol.state, c, UNIT), -1.0), 1.0)
        gaps.append(abs(c - rep.c_star))
    gaps = np.array(gaps[5:18])  # geometric regime, above the residual floor
    assert gaps.min() > 0.0
    slope = np.polyfit(np.arange(gaps.size), np.log(gaps), 1)[0]
    assert slope == pytest.approx(math.log(rep.chi), rel=0.1)
