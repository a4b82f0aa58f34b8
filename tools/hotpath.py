"""Print the in-process costs of the hot paths, in CPU time.

Each figure is the minimum over --repeats samples of the CPU time
(`time.process_time_ns`) per call, a sample timing a batch of calls:

- one moment-map evaluation (`moment_maps._moment_step`, GRU at
  `verify.make_theta`), at a fresh state and at a memoized one;
- one correlation-map evaluation (`step_correlation`) at a new c;
- the solver loop (`fixed_point._iterate`) per map evaluation, on a
  trivial affine map, through the solver signature of the checkout loaded;
- `quadrature._Law()` alone and with its first reads, E[sig] and E[sig^2];
- `jacobian.moments` at a solved state and its state-power recursion;
- one pipeline op (solve_moments, solve_correlation, moments) per
  quadrature cell at fully correlated inputs, and one for the GRU at
  sigma_z = 0.5, where the correlation solve always iterates; one T = 50
  moment trajectory and one critical search;
- the LSTM cell sampler at `verify.make_theta`'s gates: one cold-start run
  of 200 chains for 200 steps, single (`sample_cell_distribution`) and
  coupled (`correlated_cell_pairs`), and one sampled LSTM pipeline op at
  the quadrature cells' pipeline theta.

Run from the root of a checkout:

    PYTHONPATH=src python3 tools/hotpath.py
    PYTHONPATH=src python3 tools/hotpath.py --compare ../other-checkout

--compare PATH loads PATH/src/rnnmf as a second package, `rnnmf_base`, and
runs each op kind on the two packages in turn for --rounds rounds,
alternating which goes first, so that a drift of the machine's speed reaches
both sides alike. It prints each side's median over the rounds and the
median and quartiles of the per-round ratios of this checkout's time to the
other's: a ratio is taken within one round, so one round in which the
machine drifted moves one ratio, not the reading.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import rnnmf

GRU_POINT = (0.05, 0.4)  # (mu, Q) of the moment-map evaluations
SAMPLER_POINT = (0.1, 0.5, 0.5)  # (mu, Q, C) of the sampler's gate statistics
TRAJ_T = 50
TRAJ_SCHEDULE = [0.0] * 10 + [1.0] * 40


def load_package(path: Path, name: str = "rnnmf_base"):
    """PATH/src/rnnmf imported under the module name `name`."""
    src = path / "src" / "rnnmf"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def _modules(pkg):
    return {m: importlib.import_module(f"{pkg.__name__}.{m}")
            for m in ("core", "quadrature", "moment_maps", "fixed_point", "jacobian", "verify")}


def _fresh(pkg, theta):
    """theta as a new object, with none of the gate laws kept on theta."""
    return pkg.Hyperparameters(dict(theta.gates))


def op_kinds(pkg) -> dict:
    """name -> (calls per sample, make), make() returning a function that
    times one sample and returns its CPU nanoseconds per call."""
    m = _modules(pkg)
    unit = pkg.InputStats(1.0, 1.0)
    gru = pkg.get_architecture("GRU")
    make_theta = m["verify"].make_theta
    mu, q = GRU_POINT
    counter = [0]

    def batch(n, body):
        def sample():
            t0 = time.process_time_ns()
            for i in range(n):
                body(i)
            return (time.process_time_ns() - t0) / n

        return sample

    def moment_fresh():
        theta = make_theta(gru)
        counter[0] += 1
        base = q + 1e-3 * counter[0]  # a state no earlier sample used
        return batch(50, lambda i: m["moment_maps"]._moment_step(theta, gru, mu, base + 1e-9 * i, 1.0, 64))

    def moment_memo():
        theta = make_theta(gru)
        m["moment_maps"]._moment_step(theta, gru, mu, q, 1.0, 64)
        return batch(200, lambda i: m["moment_maps"]._moment_step(theta, gru, mu, q, 1.0, 64))

    def correlation_new_c():
        theta = make_theta(gru)
        state = pkg.solve_moments(theta, gru, unit).state
        counter[0] += 1
        base = 0.1 + 1e-4 * counter[0]
        return batch(20, lambda i: pkg.step_correlation(theta, gru, state, base + 1e-6 * i, unit))

    def iterate():
        fp = m["fixed_point"]
        args = (lambda x: 0.5 * x + 0.25, 0.0, -math.inf, math.inf)
        evals = fp._iterate(*args, 1e-9, 100, "trivial")[3]

        def sample():
            t0 = time.process_time_ns()
            for _ in range(100):
                fp._iterate(*args, 1e-9, 100, "trivial")
            return (time.process_time_ns() - t0) / (100 * evals)

        return sample

    def law(reads):
        def make():
            law_cls, prims = m["quadrature"]._Law, m["core"]._PRIMS

            def body(i):
                law = law_cls(0.3, 0.7 + 1e-9 * i, 64, prims)
                for p in reads:
                    law.expect(p)

            return batch(200, body)

        return make

    def solved(arch_name):
        arch = pkg.get_architecture(arch_name)
        theta = make_theta(arch)
        return arch, theta, pkg.solve_moments(theta, arch, unit).state

    def moments(arch_name):
        def make():
            arch, theta, state = solved(arch_name)
            pkg.moments(theta, arch, state, inputs=unit)
            return batch(100, lambda i: pkg.moments(theta, arch, state, inputs=unit))

        return make

    def state_powers(arch_name):
        def make():
            arch, theta, state = solved(arch_name)
            jac = m["jacobian"]
            at = pkg.MomentState(state.mu_s, state.q_s, 1.0)
            ev = pkg.preactivation_stats(theta, arch, at, unit).expect
            powers = jac._kernels(arch_name)[2]
            return batch(100, lambda i: powers(ev, state.mu_s, state.q_s))

        return make

    def pipeline(arch_name, calls=5, inputs=unit):
        def make():
            arch = pkg.get_architecture(arch_name)
            theta = make_theta(arch, sigma2=0.5, nu2=0.5, rho2=0.05, mu_f=2.0)

            def body(i):
                th = _fresh(pkg, theta)
                ms = pkg.solve_moments(th, arch, inputs)
                pkg.solve_correlation(th, arch, inputs, ms)
                pkg.moments(th, arch, ms.state, inputs=inputs)

            return batch(calls, body)

        return make

    def trajectory():
        theta = make_theta(gru, sigma2=0.5, nu2=0.5, rho2=0.05, mu_f=1.5)
        inputs = pkg.InputStats(1.0, 0.0)
        return batch(2, lambda i: pkg.moment_trajectory(
            _fresh(pkg, theta), gru, inputs, TRAJ_T, sigma_z_schedule=TRAJ_SCHEDULE))

    def search():
        return batch(1, lambda i: pkg.search_critical("GRU"))

    def sampler(run):
        def make():
            lstm = pkg.get_architecture("LSTM")
            theta = make_theta(lstm)
            stats = pkg.preactivation_stats(theta, lstm, pkg.MomentState(*SAMPLER_POINT), unit)
            return batch(5, lambda i: run(theta, stats, n_s=200, n_iters=200, seed=i))

        return make

    kinds = {
        "moment map, fresh state (GRU)": moment_fresh,
        "moment map, memoized (GRU)": moment_memo,
        "correlation map, new c (GRU)": correlation_new_c,
        "_iterate per evaluation": iterate,
        "_Law()": law(()),
        "_Law() + E[sig], E[sig^2]": law((("sig",), ("sig", "sig"))),
    }
    for a in ("minimalRNN", "GRU"):
        kinds[f"moments, memoized ({a})"] = moments(a)
        kinds[f"state powers ({a})"] = state_powers(a)
    for a in ("vanillaRNN", "minimalRNN", "GRU", "peepholeLSTM"):
        kinds[f"pipeline op ({a})"] = pipeline(a)
    kinds["pipeline op (GRU, sigma_z = 0.5)"] = pipeline("GRU", inputs=pkg.InputStats(1.0, 0.5))
    kinds["trajectory T = 50 (GRU)"] = trajectory
    kinds["search (GRU, isometry)"] = search
    kinds["sampler run 200 x 200"] = sampler(pkg.sample_cell_distribution)
    kinds["sampler coupled run 200 x 200"] = sampler(pkg.correlated_cell_pairs)
    kinds["pipeline op (LSTM, sampled)"] = pipeline("LSTM", calls=1)
    return kinds


def measure(make, repeats: int) -> float:
    """Minimum over repeats samples, in microseconds per call."""
    sample = make()
    sample()  # warm the caches a first call fills
    return min(sample() for _ in range(repeats)) / 1e3


def main():
    parser = argparse.ArgumentParser(description="In-process costs of the hot paths.")
    parser.add_argument("--repeats", type=int, default=5, help="samples per figure (min is printed)")
    parser.add_argument("--compare", type=Path, default=None, help="another checkout to compare against")
    parser.add_argument("--rounds", type=int, default=10, help="alternating rounds with --compare")
    args = parser.parse_args()
    ours = op_kinds(rnnmf)
    if args.compare is None:
        for name, make in ours.items():
            print(f"{measure(make, args.repeats):12.1f} us  {name}")
        return
    theirs = op_kinds(load_package(args.compare.resolve()))
    print(f"{'this':>12s} {'other':>12s} {'ratio':>7s} {'q1':>7s} {'q3':>7s}  "
          f"(median us and per-round ratio quartiles over {args.rounds} rounds)")
    for name in ours:
        a, b = [], []
        for r in range(args.rounds):
            sides = [(ours, a), (theirs, b)]
            for kinds, out in sides if r % 2 == 0 else sides[::-1]:
                out.append(measure(kinds[name], args.repeats))
        q1, ratio, q3 = np.percentile([x / y for x, y in zip(a, b)], [25, 50, 75])
        print(f"{statistics.median(a):12.1f} {statistics.median(b):12.1f} {ratio:7.3f} {q1:7.3f} {q3:7.3f}  {name}")


if __name__ == "__main__":
    main()
