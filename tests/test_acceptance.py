"""Acceptance battery: every validation agreement at its stated tolerance.

One test per criterion; each prints a single pass/fail line with the
measured quantity and its runtime so the battery doubles as a report.
"""

import time

import numpy as np
import pytest
from scipy import stats as sps

from rnnmf import (
    ARCHITECTURES,
    GaussianPairSpec,
    Hyperparameters,
    InputStats,
    SimulationConfig,
    assemble_jacobian,
    build_jacobian,
    chi_at,
    expect2,
    get_architecture,
    jacobian_frame,
    moment_trajectory,
    moments,
    preactivation_stats,
    preset_init,
    sample_cell_distribution,
    simulate_cell_distribution,
    simulate_pair,
    solve_correlation,
    solve_moments,
    step_correlation,
)

from conftest import make_theta, random_theta, zero_variance_theta

UNIT = InputStats(1.0, 1.0)
QUAD_ARCHS = ("vanillaRNN", "minimalRNN", "GRU", "peepholeLSTM")

SIG5_SQ = 0.9866590924049252  # sigmoid(5)^2
XI_ANCHOR = 74.45629974531285  # -1 / ln sigmoid(5)^2


def _line(n, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n} {status}: {detail} ({time.perf_counter() - t0:.1f}s)")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_jacobian_mean_equals_correlation_slope():
    # the quadrature chi(C = 1) sums m1's terms over m1's expectations, and
    # the sampled one m1's per-label means over m1's frame: both equal to the bit
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for name in QUAD_ARCHS:
        arch = get_architecture(name)
        for _ in range(20):
            theta = random_theta(arch, rng)
            msol = solve_moments(theta, arch, UNIT)
            chi = chi_at(theta, arch, UNIT, msol.state, 1.0)
            m1 = moments(theta, arch, msol.state, inputs=UNIT).m1
            worst = max(worst, abs(m1 - chi))
    arch = get_architecture("LSTM")
    worst_sampled = 0.0
    for i in range(20):
        theta = random_theta(arch, rng)
        msol = solve_moments(theta, arch, UNIT, seed=1000 + i)
        chi = chi_at(theta, arch, UNIT, msol.state, 1.0, seed=2000 + i)
        mom = moments(theta, arch, msol.state, inputs=UNIT, seed=2000 + i)
        worst_sampled = max(worst_sampled, abs(mom.m1 - chi))
    ok = worst == 0.0 and worst_sampled == 0.0
    _line(1, ok, f"quadrature worst |m1 - chi| = {worst:.3e}, sampled worst = {worst_sampled:.3e}", t0)


def test_criterion_2_critical_peephole_timescale():
    t0 = time.perf_counter()
    arch = get_architecture("peepholeLSTM")
    theta = preset_init("peephole_critical")
    for k in theta.labels():
        theta = theta.replace(k, sigma2=0.0)  # the preset's floor, taken to its limit
    msol = solve_moments(theta, arch, UNIT)
    rep = solve_correlation(theta, arch, UNIT, msol)
    dchi = abs(rep.chi - SIG5_SQ) / SIG5_SQ
    dxi = abs(rep.xi - XI_ANCHOR) / XI_ANCHOR
    ok = dchi < 1e-3 and dxi < 1e-3
    _line(2, ok, f"chi rel err {dchi:.2e}, xi rel err {dxi:.2e} (xi = {rep.xi:.4f})", t0)


def test_criterion_3_spectrum_agreement_at_width_512():
    t0 = time.perf_counter()
    arch = get_architecture("peepholeLSTM")
    variances = {}
    details = []
    ok = True
    for preset, tol in (("peephole_critical", 0.05), ("standard", 0.15)):
        theta = preset_init(preset, arch_name="peepholeLSTM", N=512)
        msol = solve_moments(theta, arch, UNIT, order=128)
        mom = moments(theta, arch, msol.state, inputs=UNIT, order=128)
        _, rep = build_jacobian(theta, arch, SimulationConfig(N=512, T=1, seed=0), burn_in=100)
        dm = abs(rep.mean - mom.m1) / mom.m1
        dv = abs(rep.variance - mom.sigma) / mom.sigma
        variances[preset] = rep.variance
        ok = ok and dm < tol and dv < tol
        details.append(f"{preset} mean {dm:.4f} var {dv:.4f}")
    ratio = variances["standard"] / variances["peephole_critical"]
    ok = ok and ratio >= 10.0
    _line(3, ok, "; ".join(details) + f"; variance ratio {ratio:.0f}x", t0)


C4_SEEDS = 48  # simulator runs per theta
C4_MU_F = (0.0, 1.0, 2.0)
C4_SCHEDULE = [0.0] * 10 + [1.0] * 40  # decorrelate the copies, then pull them back
# floor under a deviation's SE: once 1 - C < 1e-12 the seed-to-seed SD of C
# falls to about 1e-16, where both sides are rounding and differ systematically
C4_FLOOR = 1e-12


def _c4_runs(n_seeds, sim_theta=lambda theta: theta):
    """(simulated, predicted, is_q): Q and C at t = 1..50 for each mu_f,
    simulated at seeds 1..n_seeds (one row each) with the theta passed
    through sim_theta, and predicted by the mean field for the theta as is."""
    arch = get_architecture("GRU")
    inputs = InputStats(1.0, 0.0)
    sim, pred = [], []
    for mu_f in C4_MU_F:
        theta = make_theta(arch, sigma2=0.5, nu2=0.5, rho2=0.05, mu_f=mu_f)
        # t = 0 is skipped: a zero-variance start has no correlation, and the
        # two sides pick different conventions for it
        mf = moment_trajectory(theta, arch, inputs, 50, sigma_z_schedule=C4_SCHEDULE)[1:]
        pred += [st.q_s for st in mf] + [st.c_s for st in mf]
        runs = []
        for seed in range(1, n_seeds + 1):
            config = SimulationConfig(N=2048, T=50, seed=seed)
            traj = simulate_pair(sim_theta(theta), arch, config, inputs, sigma_z_schedule=C4_SCHEDULE)[1:]
            runs.append([p.q for p in traj] + [p.c for p in traj])
        sim.append(np.array(runs))
    is_q = np.tile(np.repeat([True, False], 50), len(C4_MU_F))
    return np.hstack(sim), np.array(pred), is_q


def _c4_worst(sim, pred):
    """(max |t| over the points, its Sidak bound at 1% family false alarm):
    t is a point's mean deviation over its seed-to-seed SE."""
    dev = sim - pred
    n, m = dev.shape
    t = dev.mean(0) / np.sqrt(dev.var(0, ddof=1) / n + C4_FLOOR**2)
    return float(np.max(np.abs(t))), float(sps.t.isf((1.0 - 0.99 ** (1.0 / m)) / 2.0, n - 1))


def test_criterion_4_gru_moment_dynamics_over_seeds():
    # A run's error at step t includes what it carried over from earlier
    # steps, which its per-step cross-unit SE leaves out, so each point's
    # mean deviation is judged against its spread over C4_SEEDS runs. The
    # same runs with Q x 1.02 planted must fail the check.
    t0 = time.perf_counter()
    sim, pred, is_q = _c4_runs(C4_SEEDS)
    worst, bound = _c4_worst(sim, pred)
    planted = _c4_worst(np.where(is_q, 1.02 * sim, sim), pred)[0]
    ok = worst < bound and planted > bound
    detail = f"worst |t| {worst:.2f} (bound {bound:.2f}) over {C4_SEEDS} seeds x {pred.size} points"
    _line(4, ok, f"{detail}; with Q x 1.02 planted {planted:.2f}", t0)


def test_criterion_4_rejects_a_swapped_gru_gate():
    # the simulated network swaps its update and reset gates; at mu_f = 0
    # the two gates are alike, at mu_f = 1 and 2 the swap shows
    def swap(theta):
        return Hyperparameters({**theta.gates, "f": theta["r"], "r": theta["f"]})

    worst, bound = _c4_worst(*_c4_runs(8, swap)[:2])
    assert worst > bound, f"swapped gates pass criterion 4: worst |t| {worst:.2f} <= {bound:.2f}"


def test_criterion_5_cell_sampler_matches_the_simulator():
    t0 = time.perf_counter()
    arch = get_architecture("LSTM")
    thetas = {
        "cifar_critical": preset_init("lstm_cifar_critical"),
        "moderate": make_theta(arch, sigma2=0.5, nu2=0.5, rho2=0.1, mu_f=1.0),
    }
    details = []
    ok = True
    for name, theta in thetas.items():
        msol = solve_moments(theta, arch, UNIT, seed=0)
        stats = preactivation_stats(theta, arch, msol.state, UNIT)
        ens = sample_cell_distribution(theta, stats, n_s=200, n_iters=200, seed=0)
        cells = simulate_cell_distribution(theta, arch, SimulationConfig(N=200, T=200, seed=0))
        ks = sps.ks_2samp(ens.samples, cells).statistic
        ok = ok and ks < 0.15
        details.append(f"{name} KS = {ks:.3f}")
    _line(5, ok, "; ".join(details), t0)


def test_criterion_6_correlation_map_convexity_and_uniqueness():
    t0 = time.perf_counter()
    arch = get_architecture("peepholeLSTM")
    rng = np.random.default_rng(2026)
    grid = np.linspace(0.0, 1.0, 101)
    min_d2 = np.inf
    worst_dc = 0.0
    for _ in range(10):
        theta = random_theta(arch, rng)
        msol = solve_moments(theta, arch, UNIT)
        vals = np.array(
            [step_correlation(theta, arch, msol.state, float(c), UNIT) for c in grid]
        )
        d2 = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        min_d2 = min(min_d2, float(d2.min()))
        ra = solve_correlation(theta, arch, UNIT, msol, c0=0.0)
        rb = solve_correlation(theta, arch, UNIT, msol, c0=0.9)
        worst_dc = max(worst_dc, abs(ra.c_star - rb.c_star))
    ok = min_d2 >= -1e-6 and worst_dc < 1e-8
    _line(6, ok, f"min second difference {min_d2:.2e}, start disagreement {worst_dc:.2e}", t0)


def test_criterion_7_pair_expectation_positivity():
    t0 = time.perf_counter()

    def cube(x):
        return x**3 * np.exp(-x * x)

    worst = np.inf
    for g in (np.tanh, cube):
        for mu in np.linspace(-2.0, 2.0, 5):
            for s2 in (0.25, 1.0, 4.0):
                for c in np.linspace(0.0, 1.0, 11):
                    pair = GaussianPairSpec(float(mu), float(s2), float(c))
                    worst = min(worst, expect2(g, g, pair))
    ok = worst >= -1e-10
    _line(7, ok, f"min pair expectation = {worst:.3e}", t0)


def test_criterion_8_zero_variance_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ARCHITECTURES:
        arch = get_architecture(name)
        theta = zero_variance_theta(arch)
        pred = moment_trajectory(theta, arch, UNIT, 100)
        traj = simulate_pair(theta, arch, SimulationConfig(N=8, T=100, seed=0), UNIT)
        for p, st in zip(traj, pred):
            worst = max(worst, abs(p.mu - st.mu_s), abs(p.q - st.q_s))
    ok = worst < 1e-12
    _line(8, ok, f"worst |simulator - mean-field| = {worst:.3e} over 100 steps", t0)


def test_criterion_9_jacobian_assembly_matches_finite_differences():
    t0 = time.perf_counter()
    details = []
    ok = True
    for name in ("GRU", "LSTM"):
        arch = get_architecture(name)
        theta = make_theta(arch, sigma2=0.2, nu2=0.2, rho2=0.01, mu_f=1.0)
        frame = jacobian_frame(theta, arch, SimulationConfig(N=128, T=1, seed=0), burn_in=100)
        J = assemble_jacobian(theta, frame)
        h = 1e-6
        worst = 0.0
        for j in range(128):
            e = np.zeros(128)
            e[j] = h
            col = (frame.one_step(frame.state + e) - frame.one_step(frame.state - e)) / (2 * h)
            rel = float(np.linalg.norm(col - J[:, j]) / max(np.linalg.norm(J[:, j]), 1e-12))
            worst = max(worst, rel)
        ok = ok and worst < 1e-4
        details.append(f"{name} worst column rel err {worst:.2e}")
    _line(9, ok, "; ".join(details), t0)
