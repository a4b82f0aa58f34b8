"""Planted defects: one library function made to return a wrong answer.

The gate self-test plants each defect and checks that the workload's gates
reject it. Defects are installed like the tracer's wrappers, by identity in
every rnnmf module namespace, so no source file changes.

    python3 perfbench/defects.py DEFECT [rnnmf CLI arguments ...]

runs the CLI with DEFECT installed; the cli-battery self-test starts its
children this way.
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from tracer import restore, swap_everywhere


def _solve_moments_q(fn):
    import rnnmf

    def wrong(*args, **kwargs):
        ms = fn(*args, **kwargs)
        st = ms.state
        return dataclasses.replace(ms, state=rnnmf.MomentState(st.mu_s, 1.02 * st.q_s, st.c_s))

    return wrong


def _solve_correlation_chi(fn):
    def wrong(*args, **kwargs):
        rep = fn(*args, **kwargs)
        chi = 1.02 * rep.chi
        return dataclasses.replace(rep, chi=chi, xi=math.inf if chi >= 1.0 else -1.0 / math.log(chi))

    return wrong


def _moments_m1(fn):
    def wrong(*args, **kwargs):
        mom = fn(*args, **kwargs)
        return dataclasses.replace(mom, m1=1.02 * mom.m1, m2=mom.sigma + (1.02 * mom.m1) ** 2)

    return wrong


def _simulate_pair_q(fn):
    def wrong(*args, **kwargs):
        return [dataclasses.replace(p, q=1.02 * p.q) for p in fn(*args, **kwargs)]

    return wrong


def _build_jacobian_column(fn):
    def wrong(*args, **kwargs):
        J, spectrum = fn(*args, **kwargs)
        J = J.copy()
        J[:, 0] += 1e-3 * max(float(np.linalg.norm(J[:, 0])), 1.0) / math.sqrt(J.shape[0])
        return J, spectrum

    return wrong


# name -> (module, function, wrapper factory)
DEFECTS = {
    "solve_moments_q_x1.02": ("fixed_point", "solve_moments", _solve_moments_q),
    "solve_correlation_chi_x1.02": ("fixed_point", "solve_correlation", _solve_correlation_chi),
    "moments_m1_x1.02": ("jacobian", "moments", _moments_m1),
    "simulate_pair_q_x1.02": ("simulator", "simulate_pair", _simulate_pair_q),
    "build_jacobian_column0": ("simulator", "build_jacobian", _build_jacobian_column),
}


def plant(name: str) -> list:
    """Installs a defect; pass the result to tracer.restore to remove it."""
    import rnnmf.cli  # noqa: F401  (so its namespace is rebound too)

    module, fname, factory = DEFECTS[name]
    original = getattr(sys.modules[f"rnnmf.{module}"], fname)
    return swap_everywhere({original: factory(original)})


def main(argv) -> int:
    import rnnmf.cli

    saved = plant(argv[0])
    try:
        return rnnmf.cli.run(argv[1:])
    finally:
        restore(saved)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
