"""The benchmark's four workloads and the correctness gate of every operation.

A workload turns a seed into a list of operations per pass. An operation is
one call into the library (or one CLI child process) that a user would make,
plus a gate that checks its output. Gates run outside the timed call. A
failed gate, or an operation that raises, counts as a failed operation.

Why each workload exists:

- quadrature-sweep: the exact-quadrature pipeline along a forget-bias ray.
  Quadrature, moment maps, the fixed-point solvers and the Jacobian term
  algebra do the work; the cell sampler and the simulator do none. Points
  near the peephole transition (mu_f ~ 4) need thousands of correlation
  iterations and set the tail, easy points set the median.
- lstm-sampled: the sampled LSTM pipeline. The cell sampler dominates;
  quadrature work is small and the simulator is unused.
- finite-width: the width-N simulator, untied and tied, the assembled
  Jacobian and the cell-distribution run. Weight draws dominate; no theory
  runs inside the timed calls. The tied run and build_jacobian need dense
  matrices, the untied runs do not.
- cli-battery: every subcommand as a fresh `python -m rnnmf.cli` process,
  the way a user runs it, so import and start-up cost are measured.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import rnnmf as R

TOL = 1e-9  # the solvers' default tolerance, which every op here uses
UNIT = R.InputStats(1.0, 1.0)


@dataclass
class Op:
    """One timed call and the gate applied to its result.

    check returns None when the result is correct, else a message.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


def _seeds(seed: int, pass_index: int, n: int) -> list[int]:
    ss = np.random.SeedSequence([seed, pass_index])
    return [int(x) for x in ss.generate_state(n, np.uint32)]


def _rng(seed: int, pass_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, pass_index, 1]))


def _theta(arch, sigma2, nu2, rho2, mu_f, mus=None) -> R.Hyperparameters:
    mus = mus or {}
    return R.Hyperparameters(
        {k: R.GateParams(sigma2, nu2, rho2, mu_f if k == "f" else mus.get(k, 0.0)) for k in arch.labels()}
    )


def _zero_variance_theta(arch, mu_f):
    mus = {"r": 0.3, "r2": 0.3, "i": 0.2, "o": 0.1}
    return _theta(arch, 0.0, 0.0, 0.0, mu_f, mus)


def _finite(*xs) -> bool:
    return all(math.isfinite(x) for x in xs)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class Workload:
    name = ""
    ops_per_pass = 0
    trace_in_process = False  # trace_ops runs other calls than pass_ops

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.inputs: dict = {}  # generated inputs, recorded with the run
        self.observations: dict = {}  # gate statistics, recorded with the run

    def pass_ops(self, k: int) -> list[Op]:
        raise NotImplementedError

    def trace_ops(self, k: int) -> list[Op]:
        """Operations of the traced pass: the same calls as pass_ops unless
        trace_in_process is set."""
        return self.pass_ops(k)

    def peak_rss_mb(self) -> Optional[float]:
        """Peak RSS of the processes doing the work, when not this process."""
        return None


class _Reproducible:
    """Later passes of a fixed-input workload must reproduce pass 0 bit for
    bit; the full (costly) gate runs on the first occurrence only."""

    def __init__(self):
        self._ref: dict[str, str] = {}

    def check(self, key: str, digest: str, full_gate: Callable[[], Optional[str]]) -> Optional[str]:
        if key in self._ref:
            if self._ref[key] != digest:
                return "output differs from the first pass with identical inputs and seed"
            return None
        err = full_gate()
        if err is None:
            self._ref[key] = digest
        return err


# ---------------------------------------------------------------------------
# quadrature-sweep

QUAD_ARCHS = ("vanillaRNN", "minimalRNN", "GRU", "peepholeLSTM")
RAY = tuple(float(x) for x in np.linspace(0.0, 5.0, 11))
# +-2% keeps every ray point clear of the peephole transition just below
# mu_f = 4, where the correlation solve would exceed max_iter
JITTER = 0.02
TRAJ_T = 50
TRAJ_SCHEDULE = [0.0] * 10 + [1.0] * 40
IDENTITY_REL_TOL = 1e-3


class QuadratureSweep(Workload):
    name = "quadrature-sweep"
    ops_per_pass = len(QUAD_ARCHS) * len(RAY) + 2 + len(QUAD_ARCHS) + 1

    def _pass_inputs(self, k: int) -> dict:
        rng = _rng(self.seed, k)
        base = {}
        for a in QUAD_ARCHS:
            u = rng.uniform(-1.0, 1.0, 3)
            base[a] = {
                "sigma2": 0.5 * (1 + JITTER * u[0]),
                "nu2": 0.5 * (1 + JITTER * u[1]),
                "rho2": 0.05 * (1 + JITTER * u[2]),
            }
        return {
            "base": base,
            "identity_op": int(rng.integers(len(QUAD_ARCHS) * len(RAY))),
            "anchor_mu_f": float(rng.uniform(3.0, 6.0)),
            "trajectory_mu_f": float(rng.uniform(0.0, 3.0)),
        }

    def pass_ops(self, k: int) -> list[Op]:
        inp = self._pass_inputs(k)
        self.inputs[f"pass{k}"] = inp
        ops = []
        for a in QUAD_ARCHS:
            arch = R.get_architecture(a)
            b = inp["base"][a]
            for mu_f in RAY:
                theta = _theta(arch, b["sigma2"], b["nu2"], b["rho2"], mu_f)
                identity = len(ops) == inp["identity_op"]
                ops.append(self._pipeline_op(arch, theta, mu_f, identity))
        ops.append(self._search_op("peepholeLSTM", 50.0))
        ops.append(self._search_op("GRU", None))
        for a in QUAD_ARCHS:
            arch = R.get_architecture(a)
            b = inp["base"][a]
            theta = _theta(arch, b["sigma2"], b["nu2"], b["rho2"], inp["trajectory_mu_f"])
            ops.append(self._trajectory_op(arch, theta))
        ops.append(self._anchor_op(inp["anchor_mu_f"]))
        return ops

    def _pipeline_op(self, arch, theta, mu_f, identity: bool) -> Op:
        def call():
            ms = R.solve_moments(theta, arch, UNIT)
            rep = R.solve_correlation(theta, arch, UNIT, ms)
            mom = R.moments(theta, arch, ms.state, inputs=UNIT)
            return ms, rep, mom

        def check(out):
            ms, rep, mom = out
            if not (_finite(rep.chi, mom.m1, mom.m2, mom.sigma) and rep.chi >= 0 and mom.sigma >= 0):
                return f"chi={rep.chi} m1={mom.m1} sigma={mom.sigma}: not finite or negative"
            if rep.residuals["mu"] > TOL or rep.residuals["q"] > TOL:
                return f"reported moment residuals {rep.residuals} above tol {TOL}"
            # re-evaluate both maps at the reported fixed point: the last
            # (possibly damped) step was below tol, so one more undamped
            # step is below 2 tol; 4 tol leaves room for rounding
            st = ms.state
            nxt = R.step_moments(theta, arch, st, UNIT)
            dmu, dq = abs(nxt.mu_s - st.mu_s), abs(nxt.q_s - st.q_s)
            if dmu > 4 * TOL or dq > 4 * TOL:
                return f"(mu*, Q*) is not a fixed point: one more step moves it by ({dmu:.3e}, {dq:.3e})"
            dc = abs(R.step_correlation(theta, arch, st, rep.c_star, UNIT) - rep.c_star)
            allowed = 4 * TOL
            if rep.c_star == 1.0:
                # at the clamp C* = 1 the correlation residual is exactly the
                # moment residual dQ over sigma*^2: M(1) - 1 = dQ / sigma*^2
                allowed += dq / st.sigma2_s * (1 + 1e-6)
            if dc > allowed or rep.residuals["c"] > allowed:
                return f"C* residual {dc:.3e} (reported {rep.residuals['c']:.3e}) above {allowed:.3e}"
            if identity:
                # at the default order 64 both sides carry quadrature
                # truncation error: up to 9.6e-5 relative on this ray
                # (peephole, mu_f = 5), 5e-7 at order 128. The observed
                # error is recorded; the gate allows ten times the worst
                chi1 = R.chi_at(theta, arch, UNIT, st, 1.0)
                rel = abs(chi1 - mom.m1) / max(1.0, abs(mom.m1))
                self.observations.setdefault("identity_rel_err", []).append([name, rel])
                if not rel <= IDENTITY_REL_TOL:
                    return f"chi(C=1) = {chi1!r} != m1 = {mom.m1!r} (rel {rel:.2e})"
            return None

        name = f"pipeline {arch.name} mu_f={mu_f:g}"
        return Op(name, call, check)

    @staticmethod
    def _search_op(arch_name: str, target_xi) -> Op:
        def call():
            return R.search_critical(arch_name, target_xi=target_xi)

        def check(out):
            theta, rep = out
            if target_xi is not None:
                if not abs(rep.xi - target_xi) <= 0.01 * target_xi:
                    return f"searched xi = {rep.xi} misses {target_xi} by more than 1%"
            elif not rep.gap.critical:
                return f"isometry search ended off-critical, gap norm {rep.gap.norm:.3e}"
            return None

        label = f"xi={target_xi:g}" if target_xi is not None else "isometry"
        return Op(f"search {arch_name} {label}", call, check)

    @staticmethod
    def _trajectory_op(arch, theta) -> Op:
        inputs = R.InputStats(1.0, 0.0)

        def call():
            return R.moment_trajectory(theta, arch, inputs, TRAJ_T, sigma_z_schedule=TRAJ_SCHEDULE)

        def check(traj):
            if len(traj) != TRAJ_T + 1:
                return f"trajectory has {len(traj)} states, expected {TRAJ_T + 1}"
            if not all(_finite(s.mu_s, s.q_s, s.c_s) for s in traj):
                return "non-finite state in trajectory"
            last = R.step_moments(theta, arch, traj[-2], R.InputStats(1.0, TRAJ_SCHEDULE[-1]))
            if last != traj[-1]:
                return f"final state {traj[-1]} != one step from the previous state {last}"
            return None

        return Op(f"trajectory {arch.name} T={TRAJ_T}", call, check)

    @staticmethod
    def _anchor_op(mu_f: float) -> Op:
        arch = R.get_architecture("peepholeLSTM")
        theta = _theta(arch, 0.0, 0.0, 0.0, mu_f)
        s = 1.0 / (1.0 + math.exp(-mu_f))
        xi_ref = -1.0 / math.log(s * s)

        def call():
            ms = R.solve_moments(theta, arch, UNIT)
            return R.solve_correlation(theta, arch, UNIT, ms)

        def check(rep):
            rel = abs(rep.xi - xi_ref) / xi_ref
            if not rel < 1e-3:
                return f"zero-variance peephole xi = {rep.xi} vs -1/log sigmoid(mu_f)^2 = {xi_ref} (rel {rel:.2e})"
            return None

        return Op(f"anchor peepholeLSTM mu_f={mu_f:.4f}", call, check)


# ---------------------------------------------------------------------------
# lstm-sampled

LSTM_RANDOM_THETAS = 10


class LstmSampled(Workload):
    name = "lstm-sampled"
    ops_per_pass = 2 + LSTM_RANDOM_THETAS + 2

    def pass_ops(self, k: int) -> list[Op]:
        arch = R.get_architecture("LSTM")
        rng = _rng(self.seed, k)
        seeds = _seeds(self.seed, k, LSTM_RANDOM_THETAS + 4)
        thetas = [("lstm_cifar_critical", R.preset_init("lstm_cifar_critical")), ("standard", R.preset_init("standard"))]
        labels = arch.labels()
        # a Latin hypercube over (sigma2, nu2 per gate, mu_f): one draw in
        # each tenth of every range, so the pass's mix of easy and slow
        # solves, and its cost, varies little from seed to seed
        n = LSTM_RANDOM_THETAS
        u = (np.argsort(rng.random((2 * len(labels) + 1, n)), axis=1).T + rng.random((n, 2 * len(labels) + 1))) / n
        docs = []
        for i in range(n):
            gates = {
                g: R.GateParams(
                    sigma2=float(u[i, j]),
                    nu2=float(u[i, len(labels) + j]),
                    rho2=0.05,
                    mu=float(2.0 * u[i, -1]) if g == "f" else 0.0,
                )
                for j, g in enumerate(labels)
            }
            theta = R.Hyperparameters(gates)
            thetas.append((f"random{i}", theta))
            docs.append(R.theta_to_json_dict(theta, "LSTM"))
        self.inputs[f"pass{k}"] = {"random_thetas": docs, "seeds": seeds}
        ops = [self._pipeline_op(arch, label, theta, s) for (label, theta), s in zip(thetas, seeds)]
        ops.append(self._trajectory_op(arch, thetas[2][1], seeds[-2]))
        # the sampler's cost does not depend on where its gate statistics
        # come from; a fixed state keeps this op free of a fixed-point solve
        stats = R.preactivation_stats(thetas[1][1], arch, R.MomentState(0.0, 0.1, 0.0), UNIT)
        ops.append(self._cell_op(thetas[1][1], stats, seeds[-1]))
        return ops

    @staticmethod
    def _pipeline_op(arch, label, theta, seed) -> Op:
        def call():
            ms = R.solve_moments(theta, arch, UNIT, seed=seed)
            rep = R.solve_correlation(theta, arch, UNIT, ms, seed=seed)
            mom = R.moments(theta, arch, ms.state, cell=ms.cell, inputs=UNIT, seed=seed)
            return ms, rep, mom

        def check(out):
            ms, rep, mom = out
            if not (_finite(rep.chi, mom.m1, mom.m2, mom.sigma) and mom.sigma >= 0):
                return f"chi={rep.chi} m1={mom.m1} sigma={mom.sigma}: not finite or negative"
            if not np.all(np.isfinite(ms.cell.samples)):
                return "non-finite cell samples"
            # the sampled slope identity, as `rnnmf verify` checks it: two
            # estimates with standard error m1_se each, 5 SE of their difference
            chi1 = R.chi_at(theta, arch, UNIT, ms.state, 1.0, seed=seed)
            tol = 5.0 * math.sqrt(2.0) * mom.m1_se
            if not abs(mom.m1 - chi1) <= tol:
                return f"|m1 - chi(C=1)| = {abs(mom.m1 - chi1):.3e} > 5 sqrt(2) SE = {tol:.3e}"
            return None

        return Op(f"pipeline LSTM {label}", call, check)

    @staticmethod
    def _trajectory_op(arch, theta, seed) -> Op:
        def call():
            return R.moment_trajectory(theta, arch, UNIT, TRAJ_T, seed=seed)

        def check(traj):
            if len(traj) != TRAJ_T + 1 or not all(_finite(s.mu_s, s.q_s, s.c_s) for s in traj):
                return "trajectory has the wrong length or a non-finite state"
            return None

        return Op(f"trajectory LSTM T={TRAJ_T}", call, check)

    @staticmethod
    def _cell_op(theta, stats, seed) -> Op:
        def call():
            return R.sample_cell_distribution(theta, stats, n_s=200, n_iters=200, seed=seed)

        def check(ens):
            if ens.samples.shape != (200,) or not np.all(np.isfinite(ens.samples)):
                return "cell samples have the wrong shape or non-finite values"
            return None

        return Op("sample_cell_distribution n_s=200", call, check)


# ---------------------------------------------------------------------------
# finite-width

SIM_T = 50
# |Q_sim(T) - Q_mf(T)| / SE against 5: for a normal z the false-alarm rate is
# 5.7e-7 per check, under 1e-5 for a run's few untied checks
Z_LIMIT = 5.0
FD_COLUMNS = 5
FD_EPS = 1e-5
FD_REL_TOL = 1e-4  # the tolerance `rnnmf verify` uses for the same check
MF_N_S = 200  # cell-ensemble size of the LSTM mean-field reference


class FiniteWidth(Workload):
    name = "finite-width"
    ops_per_pass = 8

    def __init__(self, seed, root, workdir):
        super().__init__(seed, root, workdir)
        rng = _rng(seed, 0)
        self.thetas = {}
        for a in ("GRU", "LSTM"):
            arch = R.get_architecture(a)
            u = rng.uniform(-1.0, 1.0, 4)
            self.thetas[a] = _theta(arch, 0.5 * (1 + 0.1 * u[0]), 0.5 * (1 + 0.1 * u[1]), 0.05 * (1 + 0.1 * u[2]), 1.0 + 0.2 * u[3])
        self.sim_inputs = R.InputStats(1.0, float(rng.uniform(0.3, 0.7)))
        self.seeds = _seeds(seed, 0, 8)
        self.fd_columns = [int(x) for x in rng.integers(1, 255, FD_COLUMNS - 2)]
        self.inputs = {
            "thetas": {a: R.theta_to_json_dict(t, a) for a, t in self.thetas.items()},
            "sigma_z": self.sim_inputs.sigma_z,
            "seeds": self.seeds,
            "fd_columns": [0, 255] + self.fd_columns,
        }
        self._repro = _Reproducible()
        self._mean_field: dict[str, list] = {}

    def pass_ops(self, k: int) -> list[Op]:
        s = self.seeds
        return [
            self._sim_op("GRU", 256, False, s[0]),
            self._sim_op("GRU", 512, False, s[1]),
            self._sim_op("GRU", 768, False, s[2]),
            self._sim_op("LSTM", 512, False, s[3]),
            self._sim_op("GRU", 512, True, s[4]),
            self._jacobian_op("GRU", 256, s[5]),
            self._jacobian_op("LSTM", 256, s[6]),
            self._cell_op(200, 200, s[7]),
        ]

    def _mf(self, arch) -> list:
        if arch.name not in self._mean_field:
            self._mean_field[arch.name] = R.moment_trajectory(
                self.thetas[arch.name], arch, self.sim_inputs, SIM_T, n_s=MF_N_S, seed=self.seed
            )
        return self._mean_field[arch.name]

    def _sim_op(self, arch_name, N, tied, seed) -> Op:
        arch = R.get_architecture(arch_name)
        theta = self.thetas[arch_name]
        config = R.SimulationConfig(N=N, T=SIM_T, seed=seed)
        name = f"simulate_pair {arch_name} N={N} T={SIM_T} {'tied' if tied else 'untied'}"

        def call():
            return R.simulate_pair(theta, arch, config, self.sim_inputs, tied=tied)

        def full_gate(traj) -> Optional[str]:
            if len(traj) != SIM_T + 1 or not all(_finite(p.mu, p.q, p.se_q) for p in traj):
                return "trajectory has the wrong length or a non-finite point"
            # zero variance: the simulator must equal the mean field exactly
            zv = _zero_variance_theta(arch, theta.mu("f"))
            small = R.simulate_pair(zv, arch, R.SimulationConfig(N=8, T=SIM_T, seed=seed), self.sim_inputs, tied=tied)
            pred = R.moment_trajectory(zv, arch, self.sim_inputs, SIM_T, n_s=16, seed=1)
            worst = max(max(abs(p.mu_s - q.mu), abs(p.q_s - q.q)) for p, q in zip(pred, small))
            if not worst < 1e-12:
                return f"zero-variance simulator differs from the mean field by {worst:.3e}"
            if not tied:
                # tied weights are outside the untied theory, so only the
                # untied runs are held to the mean field
                ref = self._mf(arch)[-1].q_s
                se = traj[-1].se_q
                if arch.needs_cell:
                    # the LSTM reference is itself sampled on MF_N_S cells
                    se *= math.sqrt(1.0 + N / MF_N_S)
                z = abs(traj[-1].q - ref) / se
                self.observations.setdefault("mean_field_z", {})[name] = z
                if not z <= Z_LIMIT:
                    return f"final Q = {traj[-1].q} vs mean field {ref}: z = {z:.2f} > {Z_LIMIT}"
            return None

        def check(traj):
            fields = np.array([[p.mu, p.q, p.c, p.se_mu, p.se_q, p.se_c] for p in traj])
            return self._repro.check(name, _digest(fields), lambda: full_gate(traj))

        return Op(name, call, check)

    def _jacobian_op(self, arch_name, N, seed) -> Op:
        arch = R.get_architecture(arch_name)
        theta = self.thetas[arch_name]
        config = R.SimulationConfig(N=N, T=1, seed=seed)
        name = f"build_jacobian {arch_name} N={N}"

        def call():
            return R.build_jacobian(theta, arch, config, seed=seed, inputs=self.sim_inputs, burn_in=100)

        def full_gate(J, spec) -> Optional[str]:
            if not (np.all(np.isfinite(J)) and math.isfinite(spec.mean)):
                return "non-finite Jacobian or spectrum"
            # the same frame again (deterministic in the seed), differenced
            frame = R.jacobian_frame(theta, arch, config, seed=seed, inputs=self.sim_inputs, burn_in=100)
            s = frame.state
            for j in [0, N - 1] + self.fd_columns:
                e = np.zeros(N)
                e[j] = FD_EPS
                col = (frame.one_step(s + e) - frame.one_step(s - e)) / (2.0 * FD_EPS)
                rel = float(np.linalg.norm(col - J[:, j])) / max(float(np.linalg.norm(J[:, j])), 1e-12)
                if not rel <= FD_REL_TOL:
                    return f"column {j} differs from central differences by {rel:.3e} relative"
            return None

        def check(out):
            J, spec = out
            return self._repro.check(name, _digest(J), lambda: full_gate(J, spec))

        return Op(name, call, check)

    def _cell_op(self, N, T, seed) -> Op:
        arch = R.get_architecture("LSTM")
        theta = self.thetas["LSTM"]
        config = R.SimulationConfig(N=N, T=T, seed=seed)
        name = f"simulate_cell_distribution LSTM N={N} T={T}"

        def call():
            return R.simulate_cell_distribution(theta, arch, config, inputs=self.sim_inputs)

        def full_gate(cells):
            if cells.shape != (N,) or not np.all(np.isfinite(cells)):
                return "cell values have the wrong shape or non-finite entries"
            return None

        def check(cells):
            return self._repro.check(name, _digest(cells), lambda: full_gate(cells))

        return Op(name, call, check)


# ---------------------------------------------------------------------------
# cli-battery

CLI_MODULE = [sys.executable, "-m", "rnnmf.cli"]
SWEEP_COLUMNS = ["alpha", "chi", "xi", "m1", "m2", "sigma", "status", "xi3", "xi6"]


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str


class CliBattery(Workload):
    name = "cli-battery"
    ops_per_pass = 13
    trace_in_process = True

    def __init__(self, seed, root, workdir, command=None):
        super().__init__(seed, root, workdir)
        # command: how a child is started; the planted-defect test swaps in
        # a launcher that installs a defect before running the CLI
        self.command = list(command or CLI_MODULE)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.max_rss_mb = 0.0
        d = workdir / "cli"
        d.mkdir(parents=True, exist_ok=True)
        rng = _rng(seed, 0)
        files = {}
        for a in ("GRU", "LSTM"):
            arch = R.get_architecture(a)
            u = rng.uniform(-1.0, 1.0, 4)
            theta = _theta(arch, 0.5 * (1 + 0.1 * u[0]), 0.5 * (1 + 0.1 * u[1]), 0.05 * (1 + 0.1 * u[2]), 1.0 + 0.2 * u[3])
            files[a] = R.theta_to_json_dict(theta, a)
        files["direction"] = {"gates": {"f": {"mu": 1.0}}}
        self.paths = {}
        for key, doc in files.items():
            p = d / f"{key}.json"
            p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            self.paths[key] = str(p)
        sd = [str(x % 2**31) for x in _seeds(seed, 0, 12)]
        gru, lstm = self.paths["GRU"], self.paths["LSTM"]
        # (label, argv, expected output): "json:<schema name>", "verify" or
        # ("csv", header, data rows)
        self.commands = [
            ("fixed-point GRU", ["fixed-point", "--theta", gru, "--seed", sd[0]], "json:fixed_point_report"),
            ("fixed-point LSTM", ["fixed-point", "--theta", lstm, "--seed", sd[1]], "json:fixed_point_report"),
            ("jacobian GRU", ["jacobian", "--theta", gru, "--seed", sd[2]], "json:jacobian_report"),
            ("jacobian LSTM", ["jacobian", "--theta", lstm, "--seed", sd[3]], "json:jacobian_report"),
            ("timescale GRU", ["timescale", "--theta", gru, "--seed", sd[4]], "json:fixed_point_report"),
            ("critical-init preset", ["critical-init", "--preset", "lstm_cifar_critical"], "json:theta"),
            ("critical-init search", ["critical-init", "--search", "--arch", "peepholeLSTM", "--target-xi", "50",
                                      "--seed", sd[5]], "json:theta"),
            ("sweep GRU 5 points", ["sweep", "--theta0", gru, "--direction", self.paths["direction"],
                                    "--alphas", "0:2:5", "--workers", "1", "--seed", sd[6]], ("csv", SWEEP_COLUMNS, 5)),
            ("simulate GRU N=256 T=50", ["simulate", "--theta", gru, "--N", "256", "--T", "50", "--seed", sd[7]],
             ("csv", ["t", "mu", "q", "c", "se_mu", "se_q", "se_c"], 51)),
            ("spectrum GRU N=128", ["spectrum", "--theta", gru, "--N", "128", "--seed", sd[8]],
             ("csv", ["rank", "squared_singular_value"], 128)),
            ("cell-dist LSTM", ["cell-dist", "--theta", lstm, "--seed", sd[9]], ("csv", ["cell"], 200)),
            ("cell-dist LSTM --simulate", ["cell-dist", "--theta", lstm, "--simulate", "--seed", sd[10]],
             ("csv", ["cell"], 200)),
            ("verify", ["verify"], "verify"),
        ]
        self.inputs = {"files": files, "argv": [argv for _, argv, _ in self.commands]}
        self._schemas = {}
        self._first_stdout: dict[str, str] = {}

    def peak_rss_mb(self):
        return self.max_rss_mb

    def _ops(self, prefix, run) -> list[Op]:
        return [
            Op(f"{prefix} {label}", (lambda argv=argv: run(argv)),
               (lambda r, argv=argv, kind=kind: self._gate(argv, kind, r)))
            for label, argv, kind in self.commands
        ]

    def pass_ops(self, k: int) -> list[Op]:
        return self._ops("cli", self._child)

    def trace_ops(self, k: int) -> list[Op]:
        """The same commands through rnnmf.cli.run in this process."""
        return self._ops("in-process", self._in_process)

    def _child(self, argv) -> CliResult:
        err_path = self.workdir / "cli" / "stderr.txt"
        with open(err_path, "w+b") as err:
            p = subprocess.Popen(self.command + argv, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root)
            with p.stdout:
                out = p.stdout.read()
            # wait4 gives this child's own peak RSS (ru_maxrss is in KiB here)
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        self.max_rss_mb = max(self.max_rss_mb, usage.ru_maxrss / 1024.0)
        return CliResult(p.returncode, out.decode("utf-8", "replace"), stderr)

    @staticmethod
    def _in_process(argv) -> CliResult:
        import rnnmf.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = rnnmf.cli.run(list(argv))
        return CliResult(rc, out.getvalue(), err.getvalue())

    def _schema(self, name):
        if name not in self._schemas:
            import jsonschema

            path = self.root / "src" / "rnnmf" / "schemas" / f"{name}.schema.json"
            schema = json.loads(path.read_text(encoding="utf-8"))
            self._schemas[name] = jsonschema.Draft202012Validator(schema)
        return self._schemas[name]

    def _gate(self, argv, kind, r: CliResult) -> Optional[str]:
        if r.returncode != 0:
            return f"exit code {r.returncode}: {r.stderr.strip()[-300:]}"
        err = self._check_output(kind, r.stdout)
        if err is not None:
            return err
        key = " ".join(argv)
        first = self._first_stdout.setdefault(key, r.stdout)
        if first != r.stdout:
            return "stdout differs from the first run of the same command and seed"
        return None

    def _check_output(self, kind, stdout: str) -> Optional[str]:
        if kind == "verify":
            return None if "7/7 checks passed" in stdout else f"verify: {stdout.strip().splitlines()[-1:]}"
        if isinstance(kind, str) and kind.startswith("json:"):
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError as e:
                return f"stdout is not JSON: {e}"
            errors = sorted(self._schema(kind[5:]).iter_errors(doc), key=str)
            return f"schema {kind[5:]}: {errors[0].message}" if errors else None
        _, header, rows = kind
        table = list(csv.reader(io.StringIO(stdout)))
        if not table or table[0] != header:
            return f"CSV header {table[:1]} != {header}"
        if len(table) - 1 != rows:
            return f"CSV has {len(table) - 1} rows, expected {rows}"
        if header == SWEEP_COLUMNS:
            bad = [row for row in table[1:] if row[header.index("status")] != "ok"]
            if bad:
                return f"sweep rows not ok: {bad[:2]}"
        return None


WORKLOADS = {w.name: w for w in (QuadratureSweep, LstmSampled, FiniteWidth, CliBattery)}


def timed(op: Op, tracer=None, op_index: int = 0) -> tuple[float, Optional[str]]:
    """Runs one op: times the call alone, then applies its gate."""
    try:
        if tracer is None:
            t0 = time.perf_counter()
            out = op.call()
            dt = time.perf_counter() - t0
        else:
            with tracer.op_span(op_index):
                t0 = time.perf_counter()
                out = op.call()
                dt = time.perf_counter() - t0
    except Exception as e:  # a raising op is a failed op; the run goes on
        return time.perf_counter() - t0, f"{type(e).__name__}: {e}"
    try:
        return dt, op.check(out)
    except Exception as e:
        return dt, f"gate raised {type(e).__name__}: {e}"
