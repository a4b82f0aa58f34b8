"""Command-line surface: JSON/CSV in, JSON/CSV out.

Exit codes: 0 success, 2 usage problems, 1 computation failures (a JSON
error object is printed to stderr). Every sampling subcommand is
deterministic given --seed; when --seed is omitted a fresh one is drawn and
printed to stderr so the run can be reproduced. CSV output uses '.' decimal,
comma separator, a header row, and 17-significant-digit floats.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .cells import CELLS
from .core import (
    ARCHITECTURES,
    InputStats,
    InvalidSchedule,
    SimulationConfig,
    UnknownGate,
    get_architecture,
    theta_from_json_dict,
    theta_to_json_dict,
)
from .criticality import (
    SWEEP_COLUMNS,
    _pipeline_eval,
    direction_from_json_dict,
    preset_default_arch,
    preset_init,
    search_critical,
    sweep_phase_diagram,
)
from .fixed_point import solve_correlation, solve_moments
from .jacobian import jacobian_report_dict, moments
from .lstm_cell_sampler import sample_cell_distribution
from .moment_maps import preactivation_stats
from .quadrature import DEFAULT_ORDER, _nodes
from .simulator import build_jacobian, simulate_cell_distribution, simulate_pair
from .verify import CHECKS

__all__ = ["run", "main"]


class _UsageError(Exception):
    pass


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _number(cast, ok, what: str):
    """An argparse type: cast(text) (int or float) for which ok holds, else
    a usage error naming the flag and what it expects."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    parse.__name__ = "integer" if cast is int else "float"  # argparse: "invalid float value: 'x'"
    return parse


_non_negative = _number(int, lambda v: v >= 0, "a non-negative integer")
_positive = _number(int, lambda v: v >= 1, "a positive integer")
# the sampled LSTM moment solve needs n_s >= 2 for its standard errors
_ensemble_size = _number(int, lambda v: v >= 2, "an integer >= 2")
_correlation = _number(float, lambda v: -1.0 <= v <= 1.0, "a correlation in [-1, 1]")
_tolerance = _number(float, lambda v: 0.0 < v < math.inf, "a positive finite number")
# a timescale: inf asks for the critical point itself
_timescale = _number(float, lambda v: v >= 0.0, "a number >= 0")


def _order(text: str) -> int:
    """A quadrature order: a positive integer at which numpy's Gauss-Hermite
    rule is finite, by the check the quadrature itself makes."""
    order = _positive(text)
    try:
        _nodes(order)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return order


_order.__name__ = "integer"  # argparse: "invalid integer value: 'x'"


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = int(np.random.SeedSequence().entropy) % (2**32)
        print(f"seed = {seed}", file=sys.stderr)
    return seed


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise _UsageError(f"cannot read {path}: {e}") from None


def _resolve_theta(args, path):
    """(arch, theta) of the theta file at path; a bad file, or an --arch
    that contradicts it, is a usage error."""
    try:
        arch_name, theta = theta_from_json_dict(_load_json(path))
    except ValueError as e:
        raise _UsageError(f"bad theta file {path}: {e}") from None
    if args.arch and args.arch != arch_name:
        raise _UsageError(f"--arch {args.arch} contradicts the arch {arch_name} of {path}")
    return get_architecture(arch_name), theta


def _inputs(args) -> InputStats:
    try:
        return InputStats(args.R, args.sigma_z)
    except ValueError as e:
        raise _UsageError(f"argument --R/--sigma-z: {e}") from None


def _write_csv(columns, rows) -> None:
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(columns)
    for row in rows:
        w.writerow([_fmt(v) for v in row])


def _solve(args, arch, theta, inputs, seed):
    msol = solve_moments(
        theta, arch, inputs, order=args.order, tol=args.tol, max_iter=args.max_iter,
        n_s=args.n_s, n_iters=args.n_iters, seed=seed,
    )
    return solve_correlation(
        theta, arch, inputs, msol, c0=args.c0, order=args.order, tol=args.tol,
        max_iter=args.max_iter, n_s=args.n_s, n_iters=args.n_iters, seed=seed,
    )


def _cmd_fixed_point(args) -> int:
    arch, theta = _resolve_theta(args, args.theta)
    seed = _resolve_seed(args)
    rep = _solve(args, arch, theta, _inputs(args), seed)
    _print_json(rep.to_json_dict())
    if args.highlight:
        xi_s = "inf" if math.isinf(rep.xi) else f"{rep.xi:.6g}"
        print(
            f"xi = {xi_s} steps (chi = {rep.chi:.6g}, C* = {rep.c_star:.6g})",
            file=sys.stderr,
        )
    return 0


def _cmd_jacobian(args) -> int:
    arch, theta = _resolve_theta(args, args.theta)
    seed = _resolve_seed(args)
    rep, mom, _ = _pipeline_eval(
        theta, arch, _inputs(args), args.order, args.n_s, args.n_iters, seed,
        c0=args.c0, tol=args.tol, max_iter=args.max_iter,
    )
    _print_json(jacobian_report_dict(mom, rep.chi))
    return 0


def _cmd_critical_init(args) -> int:
    if args.preset is None and not args.search:
        raise _UsageError("pass --preset NAME or --search")
    if args.preset is not None and args.search:
        raise _UsageError("--preset and --search are mutually exclusive")
    if args.preset is not None:
        try:
            arch_name = args.arch or preset_default_arch(args.preset)
            theta = preset_init(args.preset, arch_name, N=args.N, input_dim=args.input_dim)
        except ValueError as e:
            raise _UsageError(str(e)) from None
        _print_json(theta_to_json_dict(theta, arch_name))
        return 0
    if not args.arch:
        raise _UsageError("--search needs --arch")
    seed = _resolve_seed(args)
    theta, report = search_critical(
        args.arch, target_xi=args.target_xi, order=args.order,
        n_s=args.n_s, n_iters=args.n_iters, seed=seed,
    )
    _print_json(theta_to_json_dict(theta, args.arch))
    xi_s = "inf" if math.isinf(report.xi) else f"{report.xi:.6g}"
    print(
        f"search: objective = {report.objective:.3e}, chi = {report.chi:.6g}, "
        f"xi = {xi_s}, evaluations = {report.evaluations}, source = {report.source}",
        file=sys.stderr,
    )
    return 0


def _parse_alphas(spec: str):
    parts = spec.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--alphas must be a:b:n, got {spec!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise _UsageError(f"bad --alphas {spec!r}: {e}") from None
    if n < 1:
        raise _UsageError("--alphas needs n >= 1")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise _UsageError(f"--alphas endpoints must be finite, got {spec!r}")
    return np.linspace(a, b, n)


def _cmd_sweep(args) -> int:
    arch, theta0 = _resolve_theta(args, args.theta0)
    try:
        _, direction = direction_from_json_dict(_load_json(args.direction))
    except ValueError as e:
        raise _UsageError(f"bad direction file {args.direction}: {e}") from None
    alphas = _parse_alphas(args.alphas)
    seed = _resolve_seed(args)
    workers = args.workers if args.workers is not None else (os.cpu_count() or 1)
    try:
        rows = sweep_phase_diagram(
            arch.name, theta0, direction, alphas, _inputs(args), seed=seed,
            workers=workers, order=args.order, n_s=args.n_s, n_iters=args.n_iters,
        )
    except UnknownGate as e:
        raise _UsageError(f"bad direction file {args.direction}: {e}") from None
    _write_csv(SWEEP_COLUMNS, ([r[c] for c in SWEEP_COLUMNS] for r in rows))
    return 0


def _cmd_simulate(args) -> int:
    arch, theta = _resolve_theta(args, args.theta)
    seed = _resolve_seed(args)
    schedule = None
    if args.sigma_z_schedule:
        try:
            schedule = np.loadtxt(args.sigma_z_schedule, ndmin=1)
        except (OSError, ValueError) as e:
            raise _UsageError(f"cannot read schedule {args.sigma_z_schedule}: {e}") from None
    config, inputs = SimulationConfig(N=args.N, T=args.T, seed=seed), _inputs(args)
    try:
        traj = simulate_pair(
            theta, arch, config, inputs, tied=args.tied, seed=seed, sigma_z_schedule=schedule,
        )
    except InvalidSchedule as e:
        raise _UsageError(f"bad schedule {args.sigma_z_schedule}: {e}") from None
    cols = ("t", "mu", "q", "c", "se_mu", "se_q", "se_c")
    _write_csv(cols, ([p.t, p.mu, p.q, p.c, p.se_mu, p.se_q, p.se_c] for p in traj))
    return 0


def _cmd_spectrum(args) -> int:
    arch, theta = _resolve_theta(args, args.theta)
    seed = _resolve_seed(args)
    inputs = _inputs(args)
    config = SimulationConfig(N=args.N, T=args.burn_in, seed=seed)
    _, sr = build_jacobian(theta, arch, config, seed=seed, inputs=inputs, burn_in=args.burn_in)
    sk = dict(order=args.order, n_s=args.n_s, n_iters=args.n_iters, seed=seed)
    msol = solve_moments(theta, arch, inputs, tol=args.tol, max_iter=args.max_iter, **sk)
    mom = moments(theta, arch, msol.state, cell=msol.cell, inputs=inputs, **sk)
    _write_csv(
        ("rank", "squared_singular_value"),
        ([i, v] for i, v in enumerate(sr.squared_singular_values, start=1)),
    )

    def rel(a, b):
        return abs(a - b) / max(abs(b), 1e-300)

    print(
        f"empirical mean = {sr.mean:.6g}, predicted m1 = {mom.m1:.6g} "
        f"(rel err {rel(sr.mean, mom.m1):.3g})",
        file=sys.stderr,
    )
    print(
        f"empirical variance = {sr.variance:.6g}, predicted sigma = {mom.sigma:.6g} "
        f"(rel err {rel(sr.variance, mom.sigma):.3g})",
        file=sys.stderr,
    )
    return 0


def _cmd_cell_dist(args) -> int:
    arch, theta = _resolve_theta(args, args.theta)
    seed = _resolve_seed(args)
    inputs = _inputs(args)
    if args.simulate:
        if not CELLS[arch.name].has_cell:
            raise _UsageError("--simulate needs a cell-carrying architecture")
        config = SimulationConfig(N=args.N, T=args.T, seed=seed)
        cells = simulate_cell_distribution(theta, arch, config, seed=seed, inputs=inputs)
    else:
        if not arch.needs_cell:
            raise _UsageError("the stationary cell sampler applies to the LSTM only")
        msol = solve_moments(
            theta, arch, inputs, order=args.order, n_s=args.n_s, n_iters=args.n_iters, seed=seed
        )
        stats = preactivation_stats(theta, arch, msol.state, inputs, args.order)
        ens = sample_cell_distribution(theta, stats, n_s=args.n_s, n_iters=args.n_iters, seed=seed)
        cells = ens.samples
    _write_csv(("cell",), ([v] for v in cells))
    return 0


def _cmd_verify(args) -> int:
    failures = 0
    for name, check in CHECKS:
        try:
            ok, detail = check()
        except Exception as e:  # a crashed check is a failed check
            ok, detail = False, f"{type(e).__name__}: {e}"
        if not ok:
            failures += 1
        print(f"{'PASS' if ok else 'FAIL'}  {name:<50s} {detail}")
    total = len(CHECKS)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(p, theta=True, sampling=True):
    """The theta, input and seed flags, and with sampling the quadrature
    order and the LSTM cell sampler's flags too."""
    if theta:
        p.add_argument("--theta", required=True, help="theta JSON file")
    p.add_argument("--arch", choices=sorted(ARCHITECTURES), help="architecture name")
    p.add_argument("--R", type=float, default=1.0, help="input second moment (default 1)")
    p.add_argument("--sigma-z", dest="sigma_z", type=float, default=1.0,
                   help="input cross-correlation (default 1)")
    if sampling:
        _add_sampling(p)
    else:
        _add_seed(p)


def _add_seed(p):
    p.add_argument("--seed", type=_non_negative, default=None, help="seed (omitted: drawn and printed)")


def _add_sampling(p):
    p.add_argument("--order", type=_order, default=DEFAULT_ORDER, help="quadrature order")
    _add_seed(p)
    p.add_argument("--n-s", dest="n_s", type=_ensemble_size, default=200, help="cell ensemble size")
    # the chi frame reads the last of these updates
    p.add_argument("--n-iters", dest="n_iters", type=_positive, default=200,
                   help="cell equilibration steps")


def _add_solver(p, correlation=True):
    """The fixed-point solver's flags; --c0 only where a correlation is
    solved."""
    if correlation:
        p.add_argument("--c0", type=_correlation, default=0.0, help="correlation start (default 0)")
    p.add_argument("--tol", type=_tolerance, default=1e-9, help="fixed-point tolerance")
    p.add_argument("--max-iter", dest="max_iter", type=_positive, default=10000)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rnnmf",
        description="Mean-field signal propagation and Jacobian spectra for gated RNNs",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("fixed-point", help="solve (mu*, Q*, C*), chi and xi; print report JSON")
    _add_common(p)
    _add_solver(p)
    p.set_defaults(func=_cmd_fixed_point, highlight=False)

    p = sub.add_parser("timescale", help="fixed-point report with xi highlighted")
    _add_common(p)
    _add_solver(p)
    p.set_defaults(func=_cmd_fixed_point, highlight=True)

    p = sub.add_parser("jacobian", help="squared-singular-value moments m1, m2, sigma")
    _add_common(p)
    _add_solver(p)
    p.set_defaults(func=_cmd_jacobian)

    p = sub.add_parser("critical-init", help="preset or searched critical initialization")
    p.add_argument("--preset", default=None, help="preset name")
    p.add_argument("--search", action="store_true", help="residual search along mu_f")
    p.add_argument("--arch", default=None, choices=sorted(ARCHITECTURES))
    p.add_argument("--target-xi", dest="target_xi", type=_timescale, default=None)
    p.add_argument("--N", type=_positive, default=512, help="width for the standard preset")
    p.add_argument("--input-dim", dest="input_dim", type=_positive, default=None)
    _add_sampling(p)
    p.set_defaults(func=_cmd_critical_init)

    p = sub.add_parser("sweep", help="chi/xi/m1/m2/sigma along theta0 + alpha * direction")
    p.add_argument("--theta0", required=True, help="base theta JSON file")
    p.add_argument("--direction", required=True, help="direction JSON file (same shape)")
    p.add_argument("--alphas", required=True, help="grid a:b:n (linspace)")
    _add_common(p, theta=False)
    p.add_argument("--workers", type=_positive, default=None,
                   help="parallel workers (default: all cores)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("simulate", help="coupled-pair trajectory CSV from the simulator")
    _add_common(p, sampling=False)
    p.add_argument("--N", type=_positive, required=True, help="width")
    p.add_argument("--T", type=_positive, required=True, help="steps")
    p.add_argument("--tied", action="store_true", help="reuse step-0 weights every step")
    p.add_argument("--sigma-z-schedule", dest="sigma_z_schedule", default=None,
                   help="file with one sigma_z per step")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("spectrum", help="empirical squared-SV spectrum + theory comparison")
    _add_common(p)
    _add_solver(p, correlation=False)
    p.add_argument("--N", type=_positive, required=True)
    p.add_argument("--burn-in", dest="burn_in", type=_positive, default=100)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("cell-dist", help="stationary cell samples (sampler or simulator)")
    _add_common(p)
    p.add_argument("--simulate", action="store_true", help="use the width-N simulator instead")
    p.add_argument("--N", type=_positive, default=200, help="simulator width")
    p.add_argument("--T", type=_positive, default=200, help="simulator steps")
    p.set_defaults(func=_cmd_cell_dist)

    p = sub.add_parser("verify", help="run the built-in property battery")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--alphas" in argv[:-1]:  # a grid may start with "-", which argparse takes for a flag
        i = argv.index("--alphas")
        argv[i:i + 2] = [f"--alphas={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
