"""Print one digest line per output of the public rnnmf entry points.

Run from the root of a checkout, once on each of two commits, and diff the
two outputs: a line that differs names an output that changed.

    PYTHONPATH=src python3 tools/digest.py > digest.txt
    PYTHONPATH=src python3 tools/digest.py --compare old.txt new.txt

--compare summarizes two saved digests: the number of lines that changed,
the largest relative deviation of each output field over the float lines
that changed (the field is a line's path without its theta tag:
`solve_moments.state.mu_s` for `GRU/make solve_moments.state.mu_s`), and
every iteration or evaluation count that changed, with the sums of the
changed counts.

Each cell's Jacobian contribution entries (`CELLS[name].entries`) print as
the SHA-256 of their repr, and each quadrature cell's compiled sources as
one SHA-256 over the `__doc__` of its `update`, `d0` and each `dk[k]` in
label order, then of its Jacobian kernels (`jacobian._kernels(name)`), so a
change to the compilers shows like any output. Every entry point is run for the five cells at
three thetas each (`verify.make_theta`, a `verify.random_theta` draw,
`verify.zero_variance_theta`), plus the quadrature engine (also at a point mass and in every pair layout,
with a NaN-poisoned integrand too), sweeps (one through a worker pool),
searches (one constrained, one whose every evaluation fails) and the
presets, the private fast path (the moment-only step
`moment_maps._moment_step`, and with mu None the map the moment solve
iterates, (mu*(Q), Q'), at the visited state and at the solved one), and the solvers' slow paths (fixed points,
iteration counts and error estimates at thetas whose maps expand or
overshoot, or whose forget gate saturates), the LSTM correlation solve at
two input correlations and four seeds, the quadrature engine on laws wider
than its Gauss-Hermite threshold and the solve of a theta with such a gate,
and the inputs that the theta, direction, constraint, schedule and
SimulationConfig rules reject or complete; chi_at also runs at a point mass, (0.3, 0.09), and
at a fixed state that is one, at input correlations 0 and 0.5; then each
command of the benchmark's cli-battery set (`perfbench/workloads.py`) runs
in process at seeds 1 and 2 and its stdout and stderr are hashed. Scalars print as
`float.hex`, arrays and stdout as the SHA-256 of their bytes; a call that
raises prints its exception type and message.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import difflib
import hashlib
import io
import re
import sys
import tempfile
from collections.abc import Mapping
from pathlib import Path

import numpy as np

import rnnmf as R
import rnnmf.cli
from rnnmf import jacobian
from rnnmf.cells import CELLS
from rnnmf.core import sigmoid
from rnnmf.moment_maps import _degenerate, _moment_step
from rnnmf.verify import make_theta, random_theta, zero_variance_theta

ROOT = Path(__file__).resolve().parent.parent
UNIT = R.InputStats(1.0, 1.0)
CORRELATIONS = (-0.5, 0.0, 0.3, 0.8, 1.0)
POINT_MASS = R.MomentState(0.3, 0.3 * 0.3, 0.0)
# anticorrelated, nearly anticorrelated, grid and (nearly) collapsed pairs
LAYOUT_CORRELATIONS = (-1.0, -1.0 + 1e-13, -0.5, 0.4, 1.0 - 1e-13, 1.0)
# the solver-path lines leave out the trajectories, which a change of
# iteration rule changes while the fixed point stays within tol
SOLVE_FIELDS = ("mu_star", "q_star", "iterations", "residual", "error_estimate")
CORRELATION_FIELDS = ("c_star", "chi", "xi", "iterations", "residuals", "error_estimates")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _leaves(value, path):
    """(path, encoded value) for every scalar or array inside value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _leaves(getattr(value, f.name), f"{path}.{f.name}")
    elif isinstance(value, Mapping):  # dicts and read-only mappings alike
        for k in sorted(value, key=repr):
            yield from _leaves(value[k], f"{path}[{k!r}]")
    elif isinstance(value, (list, tuple)):
        if len(value) <= 4:
            for i, v in enumerate(value):
                yield from _leaves(v, f"{path}[{i}]")
        else:  # long sequences (trajectories, rows) hash to one line
            parts = [f"{p} {e}" for i, v in enumerate(value) for p, e in _leaves(v, f"[{i}]")]
            yield path, f"seq{len(value)}:{_sha(chr(10).join(parts).encode())}"
    elif isinstance(value, np.ndarray):
        yield path, f"{value.dtype}{value.shape}:{_sha(np.ascontiguousarray(value).tobytes())}"
    elif isinstance(value, (float, np.floating)):
        yield path, float(value).hex()
    else:
        yield path, repr(value)


def emit(label, call, fields=None):
    """Print the digest of call()'s value, or only of the named fields."""
    try:
        value = call()
    except Exception as e:  # a raised error is an output too
        print(f"{label} raises {type(e).__name__}: {e}")
        return None
    shown = value if fields is None else {k: getattr(value, k) for k in fields}
    for path, enc in _leaves(shown, label):
        print(path, enc)
    return value


def _thetas(arch):
    rng = np.random.default_rng([7, sorted(R.ARCHITECTURES).index(arch.name)])
    return {"make": make_theta(arch), "random": random_theta(arch, rng), "zero": zero_variance_theta(arch)}


def library():
    pair = R.GaussianPairSpec(0.3, 0.7, 0.4)
    direction = R.direction_from_json_dict({"gates": {"f": {"mu": 1.0}}})[1]
    for order in (16, 64, 128):
        emit(f"expect1[{order}]", lambda: R.expect1(np.tanh, 0.3, 0.7, order))
        emit(f"expect2[{order}]", lambda: R.expect2(np.tanh, sigmoid, pair, order))
    for name in R.PRESET_NAMES:
        emit(f"preset_init[{name}]", lambda: R.preset_init(name, N=64))

    for arch_name in sorted(R.ARCHITECTURES):
        arch = R.get_architecture(arch_name)
        rules = CELLS[arch_name]
        print(f"{arch_name}/entries {_sha(repr(rules.entries).encode())}")
        if not arch.needs_cell:
            dk = [rules.dk[k] for k in arch.labels() if k in rules.dk]
            sources = [f.__doc__ for f in (rules.update, rules.d0, *dk, *jacobian._kernels(arch_name))]
            print(f"{arch_name}/compiled {_sha(repr(sources).encode())}")
        for tag, theta in _thetas(arch).items():
            _one_theta(f"{arch_name}/{tag}", arch, theta)
        theta = make_theta(arch)
        emit(f"{arch_name}/sweep", lambda: R.sweep_phase_diagram(
            arch_name, theta, direction, [0.0, 0.5, 1.0], UNIT, seed=1, workers=1, n_s=64, n_iters=40))
    emit("search[peepholeLSTM]", lambda: R.search_critical("peepholeLSTM", target_xi=50.0, seed=1))
    # the isometry objective, and the preset-scoring path
    emit("search[GRU, isometry]", lambda: R.search_critical("GRU"))
    emit("search[peepholeLSTM, isometry]", lambda: R.search_critical("peepholeLSTM"))
    emit("search[peepholeLSTM, r nu2 = 0.25]", lambda: R.search_critical(
        "peepholeLSTM", constraints={"r": {"nu2": 0.25}}, target_xi=10.0))
    # r's pre-activation variance overflows: every evaluation fails
    emit("search[GRU, r nu2 = rho2 = 1e308]", lambda: R.search_critical(
        "GRU", constraints={"r": {"nu2": 1e308, "rho2": 1e308}}))
    # the thetas travel to the worker processes pickled
    emit("GRU/sweep[workers=2]", lambda: R.sweep_phase_diagram(
        "GRU", make_theta(R.get_architecture("GRU")), direction, [0.0, 0.5, 1.0], UNIT,
        seed=1, workers=2, n_s=64, n_iters=40))


def nan_tanh(u):
    """tanh with its sixth node (its only one at a point mass) set to NaN."""
    out = np.array(np.tanh(u), dtype=float)
    out.flat[min(5, out.size - 1)] = np.nan
    return out


def quadrature_layouts():
    """expect1 and expect2 at a point mass and at
    sigma2 = 0.7, over every pair layout, plain and with nan_tanh."""
    for sigma2 in (0.0, 0.7):
        for g in (np.tanh, nan_tanh):
            emit(f"layout[{sigma2}] expect1[{g.__name__}]", lambda: R.expect1(g, 0.3, sigma2))
        for c in LAYOUT_CORRELATIONS:
            pair = R.GaussianPairSpec(0.3, sigma2, c)
            tag = f"layout[{sigma2}, {c!r}]"
            for g1, g2 in ((np.tanh, sigmoid), (nan_tanh, sigmoid), (sigmoid, nan_tanh)):
                emit(f"{tag} expect2[{g1.__name__}, {g2.__name__}]", lambda: R.expect2(g1, g2, pair))


def _one_theta(tag, arch, theta):
    state = R.MomentState(0.1, 0.4, 0.5)
    stats = emit(f"{tag} preactivation_stats", lambda: R.preactivation_stats(theta, arch, state, UNIT))
    sk = dict(n_s=64, n_iters=40, seed=2)
    cell = paired = None
    if arch.needs_cell and stats is not None:
        cell = emit(f"{tag} sample_cell_distribution", lambda: R.sample_cell_distribution(theta, stats, **sk))
        paired = emit(f"{tag} correlated_cell_pairs", lambda: R.correlated_cell_pairs(theta, stats, **sk))
        for name, ens in (("unpaired", cell), ("paired", paired)):
            if ens is not None:
                emit(f"{tag} advance_cell[{name}]", lambda: R.advance_cell(theta, stats, ens))
                emit(f"{tag} step_moments[{name}]", lambda: R.step_moments(theta, arch, state, UNIT, cell=ens))
        emit(f"{tag} lstm_chi_frame", lambda: R.lstm_chi_frame(theta, stats, **sk))
    else:
        emit(f"{tag} step_moments", lambda: R.step_moments(theta, arch, state, UNIT))
        emit(f"{tag} _moment_step", lambda: _moment_step(theta, arch, state.mu_s, state.q_s, UNIT.R, R.DEFAULT_ORDER))
        emit(f"{tag} _moment_step[mu*]", lambda: _moment_step(theta, arch, None, state.q_s, UNIT.R, R.DEFAULT_ORDER))
    msol = emit(f"{tag} solve_moments", lambda: R.solve_moments(theta, arch, UNIT, **sk))
    if msol is not None and not arch.needs_cell:
        emit(f"{tag} _moment_step[mu*, solved]", lambda: _moment_step(
            theta, arch, None, msol.q_star, UNIT.R, R.DEFAULT_ORDER))
    if msol is not None:
        for c in CORRELATIONS:
            emit(f"{tag} step_correlation[{c}]", lambda: R.step_correlation(theta, arch, msol.state, c, UNIT, **sk))
        rep = emit(f"{tag} solve_correlation", lambda: R.solve_correlation(theta, arch, UNIT, msol, **sk))
        for c in (0.3, 1.0):
            emit(f"{tag} chi_at[{c}]", lambda: R.chi_at(theta, arch, UNIT, msol.state, c, **sk))
        # a point mass is read at full correlation, whatever c and sigma_z
        points = {"point mass": POINT_MASS}
        if _degenerate(msol.mu_star, msol.q_star):
            points["fixed point mass"] = msol.state
        for name, point in points.items():
            for sigma_z in (0.0, 0.5):
                inputs = R.InputStats(1.0, sigma_z)
                emit(f"{tag} chi_at[{name}, sigma_z={sigma_z}]",
                     lambda: R.chi_at(theta, arch, inputs, point, 0.3, **sk))
        fixed = rep if rep is not None else msol
        emit(f"{tag} contribution_vector", lambda: R.contribution_vector(theta, arch, fixed, inputs=UNIT, **sk))
        emit(f"{tag} moments", lambda: R.moments(theta, arch, fixed, inputs=UNIT, **sk))
    emit(f"{tag} moment_trajectory", lambda: R.moment_trajectory(theta, arch, UNIT, 12, n_s=64, seed=2))
    emit(f"{tag} moment_trajectory[schedule]", lambda: R.moment_trajectory(
        theta, arch, UNIT, 12, n_s=64, seed=2, sigma_z_schedule=[0.0] * 5 + [1.0] * 7))
    config = R.SimulationConfig(N=64, T=10)
    for tied in (False, True):
        emit(f"{tag} simulate_pair[tied={tied}]", lambda: R.simulate_pair(theta, arch, config, UNIT, tied=tied, seed=3))
    emit(f"{tag} build_jacobian", lambda: R.build_jacobian(theta, arch, R.SimulationConfig(N=32, T=1), seed=3, burn_in=10))
    if CELLS[arch.name].has_cell:
        emit(f"{tag} simulate_cell_distribution", lambda: R.simulate_cell_distribution(theta, arch, config, seed=3))


def solver_paths():
    """The solvers' slow paths: the expanding phase of the forget-bias-10
    peephole, the peephole near its transition (mu_f 3.9 to 5), and a
    saturated forget gate, where sigma*^2 is 5.9e-7 (vanillaRNN at
    mu_f = 8)."""
    peep, vanilla = R.get_architecture("peepholeLSTM"), R.get_architecture("vanillaRNN")
    drive = R.GateParams(0.1, 1.0, 0.0, 0.0)
    forget_bias_10 = {"i": drive, "f": R.GateParams(0.0, 0.0, 0.0, 10.0), "r": drive, "o": drive}
    cases = [(peep, "forget_bias_10", R.Hyperparameters(forget_bias_10))]
    for arch, mu_f in ((peep, 3.9), (peep, 4.5), (peep, 5.0), (vanilla, 8.0)):
        cases.append((arch, f"mu_f={mu_f}", make_theta(arch, sigma2=0.5, nu2=0.5, rho2=0.05, mu_f=mu_f)))
    for arch, name, theta in cases:
        tag = f"solver/{arch.name}/{name}"
        msol = emit(f"{tag} solve_moments", lambda: R.solve_moments(theta, arch, UNIT), SOLVE_FIELDS)
        if msol is not None:
            emit(f"{tag} solve_correlation", lambda: R.solve_correlation(theta, arch, UNIT, msol),
                 CORRELATION_FIELDS)


def lstm_correlation_solves():
    """The LSTM correlation solve at make_theta, seeds 0-3, at sigma_z = 0.5,
    where C* lies inside (0, 1), and at sigma_z = 1, where identical inputs
    keep the copies identical and C* = 1."""
    arch = R.get_architecture("LSTM")
    theta = make_theta(arch)
    for sigma_z in (0.5, 1.0):
        inputs = R.InputStats(1.0, sigma_z)
        for seed in range(4):
            tag = f"lstm_solve[sigma_z={sigma_z}, seed={seed}]"
            msol = emit(f"{tag} solve_moments", lambda: R.solve_moments(theta, arch, inputs, seed=seed), SOLVE_FIELDS)
            if msol is not None:
                emit(f"{tag} solve_correlation", lambda: R.solve_correlation(
                    theta, arch, inputs, msol, seed=seed), CORRELATION_FIELDS)


def wide_gates():
    """expect1 and expect2 on laws wider than the
    Gauss-Hermite threshold (SD 5 and 8), and the solve and chi of the
    minimalRNN theta whose r gate is that wide (SD about 4.8 at Q*), at
    input correlation 0.5."""
    for mu, sigma2 in ((-5.0, 25.0), (2.0, 64.0)):
        tag = f"wide[{mu}, {sigma2}]"
        emit(f"{tag} expect1", lambda: R.expect1(np.tanh, mu, sigma2))
        for c in (-0.5, 0.4, 0.9):
            pair = R.GaussianPairSpec(mu, sigma2, c)
            emit(f"{tag} expect2[{c}]", lambda: R.expect2(np.tanh, sigmoid, pair))
    arch = R.get_architecture("minimalRNN")
    theta = R.Hyperparameters({"f": R.GateParams(0.0, 0.0, 0.0, -5.0), "r": R.GateParams(25.0, 0.5, 0.0, 0.0)})
    inputs = R.InputStats(1.0, 0.5)
    msol = emit("wide/minimalRNN solve_moments", lambda: R.solve_moments(theta, arch, inputs), SOLVE_FIELDS)
    if msol is not None:
        rep = emit("wide/minimalRNN solve_correlation", lambda: R.solve_correlation(theta, arch, inputs, msol),
                   CORRELATION_FIELDS)
        emit("wide/minimalRNN chi_at[1.0]", lambda: R.chi_at(theta, arch, inputs, msol.state, 1.0))
        if rep is not None:
            emit("wide/minimalRNN moments", lambda: R.moments(theta, arch, rep, inputs=inputs))


def rule_paths():
    """Inputs that a theta, direction, constraint or schedule rule rejects
    or completes: a gate entry that is not a GateParams, a theta replace of
    a misspelled field and of an unknown gate, four direction
    entries that are not numbers, an integer too large for a float in a
    theta document and in a direction, an infinite direction step (read
    and swept), entry keys of mixed types, a partial library direction, a
    string and a bool search constraint, a NaN and a short sigma_z
    schedule through simulate_pair and moment_trajectory, and a float N,
    a float T and a float seed of a SimulationConfig."""
    vanilla = R.get_architecture("vanillaRNN")
    emit("rule/theta[tuple entry] solve_moments", lambda: R.solve_moments(
        R.Hyperparameters({"f": (0.5, 0.5, 0.05, 1.0)}), vanilla, UNIT))
    emit("rule/theta.replace[f, mU = 3.0]", lambda: make_theta(vanilla).replace("f", mU=3.0))
    emit("rule/theta.replace[zz, mu = 1.0]", lambda: make_theta(vanilla).replace("zz", mu=1.0))
    for value in ("1", True, None, [1]):
        emit(f"rule/direction[mu = {value!r}]", lambda: R.direction_from_json_dict({"gates": {"f": {"mu": value}}}))
    huge = 10**400
    emit("rule/theta[mu = 10**400]", lambda: R.theta_from_json_dict(
        {"arch": "vanillaRNN", "gates": {"f": {"sigma2": 0.5, "nu2": 0.5, "rho2": 0.05, "mu": huge}}}))
    emit("rule/direction[mu = 10**400]", lambda: R.direction_from_json_dict({"gates": {"f": {"mu": huge}}}))
    emit("rule/direction[mu = inf]", lambda: R.direction_from_json_dict({"gates": {"f": {"mu": float("inf")}}}))
    emit("rule/sweep[mu step = inf]", lambda: R.sweep_phase_diagram(
        "GRU", make_theta(R.get_architecture("GRU")), {"f": {"mu": float("inf")}}, [0.0, 1.0], UNIT, seed=1, workers=1))
    emit("rule/direction[keys 1, 'x']", lambda: R.direction_from_json_dict({"gates": {"f": {1: 0.5, "x": 1}}}))
    emit("rule/sweep[partial library direction]", lambda: R.sweep_phase_diagram(
        "GRU", make_theta(R.get_architecture("GRU")), {"f": {"mu": 1.0}}, [0.0, 0.5, 1.0], UNIT, seed=1, workers=1))
    for value in ("0.25", True):
        emit(f"rule/search[r nu2 = {value!r}]", lambda: R.search_critical(
            "peepholeLSTM", constraints={"r": {"nu2": value}}, target_xi=10.0))
    theta, config = make_theta(vanilla), R.SimulationConfig(N=16, T=5)
    for name, schedule in (("nan", [0.0, np.nan, 0.0, 0.0, 0.0]), ("short", [0.0, 0.0])):
        emit(f"rule/simulate_pair[{name} schedule]", lambda: R.simulate_pair(
            theta, vanilla, config, UNIT, seed=3, sigma_z_schedule=schedule))
        emit(f"rule/moment_trajectory[{name} schedule]", lambda: R.moment_trajectory(
            theta, vanilla, UNIT, 5, sigma_z_schedule=schedule))
    for name, fields in (("N = 4.0", dict(N=4.0, T=3)), ("T = 2.5", dict(N=4, T=2.5)),
                         ("seed = 1.5", dict(N=4, T=3, seed=1.5))):
        emit(f"rule/SimulationConfig[{name}]", lambda: R.SimulationConfig(**fields))


def cli(seed: int):
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import CliBattery

    with tempfile.TemporaryDirectory() as tmp:
        battery = CliBattery(seed, ROOT, Path(tmp))
        for label, argv, _ in battery.commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = rnnmf.cli.run(list(argv))
            print(
                f"cli[{seed}] {label} rc={rc} stdout {_sha(out.getvalue().encode())} "
                f"stderr {_sha(err.getvalue().encode())}"
            )


COUNT = re.compile(r"(iterations|evaluations)\W*$")
TAG = re.compile(r"^[^ \[]+/[^ \[]+ ")  # a theta tag such as "GRU/make " or "solver/GRU/mu_f=3.9 "


def _hexfloat(value):
    try:
        return float.fromhex(value)
    except ValueError:
        return None


def compare(old_file, new_file):
    """Print the changed-line count, the largest relative deviation per
    output field and the changed counts of two digests. Lines are aligned
    by difflib; a changed line is paired with its counterpart when the two
    keep the same path."""
    old, new = (Path(f).read_text().splitlines() for f in (old_file, new_file))
    changed, pairs = 0, []
    for op, i1, i2, j1, j2 in difflib.SequenceMatcher(None, old, new, autojunk=False).get_opcodes():
        if op != "equal":
            changed += max(i2 - i1, j2 - j1)
            pairs += zip(old[i1:i2], new[j1:j2])
    print(f"{changed} of {len(new)} lines changed ({len(old)} before)")
    deviations, counts = {}, []
    for a, b in pairs:
        path, _, va = a.rpartition(" ")
        path_b, _, vb = b.rpartition(" ")
        if path != path_b:
            continue
        if COUNT.search(path):
            counts.append((path, int(va), int(vb)))
            continue
        x, y = _hexfloat(va), _hexfloat(vb)
        if x is None or y is None:
            continue
        field = TAG.sub("", path)
        dev = abs(y - x) / abs(x) if x else abs(y - x)
        deviations[field] = max(deviations.get(field, 0.0), dev)
    print("largest relative deviation per field (absolute where the old value is 0):")
    for field, dev in sorted(deviations.items(), key=lambda kv: -kv[1]):
        print(f"  {dev:.3g}  {field}")
    print(f"changed counts: {sum(c[1] for c in counts)} -> {sum(c[2] for c in counts)}")
    for path, x, y in counts:
        print(f"  {path}: {x} -> {y}")


def main():
    library()
    quadrature_layouts()
    solver_paths()
    lstm_correlation_solves()
    wide_gates()
    rule_paths()
    cli(1)
    cli(2)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print or compare the digest of the rnnmf outputs.")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="summarize two saved digests")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
    else:
        main()
