"""Critical initializations: presets, residual search, phase-diagram sweeps.

Presets encode the published critical and standard initialization values.
search_critical tunes the forget-gate mean along the zero-variance family
until the isometry conditions hold (or a requested timescale is hit), and
sweep_phase_diagram maps chi/xi/m1/sigma over a one-parameter
hyperparameter ray for phase-diagram overlays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Optional

from . import jacobian as _jacobian
from .core import (
    _GATE_KEYS,
    _gate_entries,
    GateParams,
    Hyperparameters,
    InputStats,
    InvalidTheta,
    get_architecture,
    validate_theta,
)
from .fixed_point import NoConvergence, _derived_seed, solve_correlation, solve_moments
from .jacobian import IsometryGap, isometry_gap
from .quadrature import DEFAULT_ORDER

__all__ = [
    "UnknownPreset",
    "SearchFailed",
    "SearchReport",
    "PRESET_NAMES",
    "SIGMA2_FLOOR",
    "SWEEP_COLUMNS",
    "preset_init",
    "preset_default_arch",
    "search_critical",
    "sweep_phase_diagram",
    "direction_from_json_dict",
]

SIGMA2_FLOOR = 1e-5  # small recurrent variance standing in for "exactly 0"
# what an entry's omitted keys read: in a search constraint the
# zero-variance family, in a sweep direction no step
_FLOOR = {"sigma2": SIGMA2_FLOOR, "nu2": 0.0, "rho2": 0.0, "mu": 0.0}
_NO_STEP = dict.fromkeys(_GATE_KEYS, 0.0)
MU_F_BOUNDS = (0.0, 10.0)  # search_critical's forget-gate mean interval
MU_F_TOL = 1e-4  # bracket width at which that golden section stops
SWEEP_COLUMNS = ("alpha", "chi", "xi", "m1", "m2", "sigma", "status", "xi3", "xi6")


class UnknownPreset(ValueError):
    pass


class SearchFailed(ArithmeticError):
    """Search could not reach the target; .best holds (theta, report)."""

    def __init__(self, msg, best=None):
        super().__init__(msg)
        self.best = best


# each preset is its per-gate rule (gate label, N, input_dim) -> GateParams


def _peephole_critical(k, N, input_dim):
    return GateParams(sigma2=1e-5, nu2=0.0, rho2=0.0, mu=5.0 if k == "f" else 0.0)


def _lstm_cifar_critical(k, N, input_dim):
    return GateParams(
        sigma2=1.0 if k == "o" else 1e-5,
        nu2=1.0 if k in ("i", "r") else 0.0,
        rho2=0.0,
        mu=1.0 if k == "f" else 0.0,
    )


def _standard(k, N, input_dim):
    # sigma2 and nu2 are entry variances times N: an orthogonal recurrent
    # matrix has entries of variance 1/N, so its Gaussian stand-in is
    # sigma2 = 1, and Glorot's input entry variance 2/(input_dim + N) is
    # nu2 = 2N/(input_dim + N)
    return GateParams(sigma2=1.0, nu2=2.0 * N / (input_dim + N), rho2=0.0, mu=1.0 if k == "f" else 0.0)


_PRESETS = {
    "peephole_critical": ("peepholeLSTM", _peephole_critical),
    "lstm_cifar_critical": ("LSTM", _lstm_cifar_critical),
    "standard": ("LSTM", _standard),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_default_arch(name: str) -> str:
    if name not in _PRESETS:
        raise UnknownPreset(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    return _PRESETS[name][0]


def preset_init(
    name: str,
    arch_name: Optional[str] = None,
    N: int = 512,
    input_dim: Optional[int] = None,
) -> Hyperparameters:
    """Named initialization, resolved over the given architecture's gates.

    `standard` depends on the widths. Like every theta it gives weight
    variances times the width N: sigma2 = 1, the Gaussian stand-in for an
    orthogonal recurrent matrix (entries of variance 1/N), and nu2 =
    2N/(input_dim + N), Glorot's input entry variance 2/(input_dim + N)
    times N; input_dim defaults to N. A width below 1 raises ValueError
    naming it.
    """

    default_arch = preset_default_arch(name)
    for label, width in (("N", N), ("input_dim", input_dim)):
        if width is not None and width < 1:
            raise ValueError(f"{label} must be a positive integer, got {width!r}")
    rule = _PRESETS[name][1]
    dim = input_dim if input_dim is not None else N
    # a GateParams for each of arch's gates: valid by construction
    return Hyperparameters({k: rule(k, N, dim) for k in get_architecture(arch_name or default_arch).labels()})


@dataclass(frozen=True)
class SearchReport:
    theta: Hyperparameters
    arch: str
    objective: float
    chi: float
    xi: float
    m1: float
    m2: float
    sigma: float
    gap: IsometryGap
    evaluations: int
    target_xi: Optional[float]
    source: str  # "search" or "preset"
    at_bound: Optional[float] = None  # the end of MU_F_BOUNDS a searched mu_f lies within MU_F_TOL of


def _golden_min(f, lo, hi, tol=1e-4, max_iter=80):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def _pipeline_eval(theta, arch, inputs, order, n_s, n_iters, seed, c0=0.0, tol=1e-9, max_iter=10000):
    """(report, Jacobian moments, isometry gap) at theta's fixed point."""
    msol = solve_moments(theta, arch, inputs, order, tol, max_iter, n_s=n_s, n_iters=n_iters, seed=seed)
    rep = solve_correlation(theta, arch, inputs, msol, c0, order, tol, max_iter, n_s, n_iters, seed)
    mom = _jacobian.moments(
        theta, arch, msol.state, cell=msol.cell, inputs=inputs,
        order=order, n_s=n_s, n_iters=n_iters, seed=seed,
    )
    return rep, mom, isometry_gap(mom, rep.chi)


def _evaluate(theta, arch, inputs, order, n_s, n_iters, seed):
    """_pipeline_eval's (report, moments, gap) at theta, or the error it
    raised: the one failure rule of searches and sweeps."""
    try:
        return _pipeline_eval(theta, arch, inputs, order, n_s, n_iters, seed)
    except (ArithmeticError, ValueError) as e:
        return e


def search_critical(
    arch_name: str,
    constraints: Optional[Mapping] = None,
    target_xi: Optional[float] = None,
    inputs: Optional[InputStats] = None,
    order: int = DEFAULT_ORDER,
    n_s: int = 200,
    n_iters: int = 200,
    seed: int = 0,
):
    """Golden-section search over the forget-gate mean for a critical
    initialization.

    Works along the zero-variance family: every gate starts at
    (sigma2 = SIGMA2_FLOOR, nu2 = rho2 = 0, mu = 0), `constraints`
    ({gate: {field: value}}, never mu on f) pins entries, and mu:f is
    searched on MU_F_BOUNDS to MU_F_TOL. Constraints are read by the theta
    documents' entry reader: a gate the architecture lacks raises
    UnknownGate, an unknown field or a value that is not a number
    InvalidTheta. The objective is |xi - target_xi| when a target is
    given, otherwise the isometry-gap norm; a target that is NaN or
    negative raises ValueError before any evaluation (inf is allowed).
    Matching presets are scored as candidates too, so an unconstrained
    search never does worse than the published values. An evaluation that
    raises an ArithmeticError or ValueError scores inf, as the same failure
    marks a sweep row. Returns (theta, SearchReport), whose at_bound is
    the end of MU_F_BOUNDS that a searched mu_f lies within MU_F_TOL of
    (None otherwise, and for a preset); raises SearchFailed
    (best attached) if the objective never came out finite, naming the
    first failure's type and message when every evaluation failed, or if a
    target xi was missed by more than 10% relative.
    """

    if target_xi is not None and not target_xi >= 0.0:  # NaN included
        raise ValueError(f"target_xi must be a number >= 0 (inf allowed), got {target_xi!r}")
    arch = get_architecture(arch_name)
    inputs = inputs if inputs is not None else InputStats(1.0, 1.0)
    constraints = constraints or {}
    pinned = _gate_entries(constraints, _FLOOR, arch)
    if "mu" in constraints.get("f", {}):
        raise ValueError("mu:f is the searched parameter and cannot be constrained")
    base = Hyperparameters({k: GateParams(**entry) for k, entry in pinned.items()})

    scored = {}  # mu_f or preset name -> (objective, (theta, report, moments, gap) or the error)

    def score(key, theta):
        """The objective at theta, recorded under key: inf where the
        evaluation failed."""
        got = _evaluate(theta, arch, inputs, order, n_s, n_iters, seed)
        if isinstance(got, Exception):
            scored[key] = (math.inf, got)
        else:
            rep, _, gap = got
            if target_xi is None:
                obj = gap.norm
            elif math.isinf(rep.xi) and math.isinf(target_xi):
                obj = 0.0
            else:
                obj = abs(rep.xi - target_xi)
            scored[key] = (obj, (theta, *got))
        return scored[key][0]

    def score_mu(mu):  # _golden_min evaluates each point once
        return score(mu, base.replace("f", mu=mu))

    best_key, best_obj = _golden_min(score_mu, *MU_F_BOUNDS, tol=MU_F_TOL)
    source = "search"

    # score matching presets under the same objective
    for pname, (parch, _) in _PRESETS.items():
        if parch != arch.name or pname == "standard":
            continue
        ptheta = preset_init(pname, arch.name)
        if any(getattr(ptheta.gates[g], f) != pinned[g][f] for g, entry in constraints.items() for f in entry):
            continue
        obj = score(pname, ptheta)
        if obj < best_obj:
            best_obj, best_key, source = obj, pname, "preset"

    if not math.isfinite(best_obj):
        errors = [got for _, got in scored.values() if isinstance(got, Exception)]
        if len(errors) == len(scored):
            first = errors[0]
            raise SearchFailed(
                f"no feasible point found (every evaluation failed; the first raised "
                f"{type(first).__name__}: {first})",
                best=None,
            ) from first
        raise SearchFailed(
            f"no evaluation reached a finite objective ({len(scored) - len(errors)} returned a report, "
            f"{len(errors)} raised)",
            best=None,
        )
    theta, rep, mom, gap = scored[best_key][1]
    at_bound = None if source == "preset" else next((b for b in MU_F_BOUNDS if abs(best_key - b) <= MU_F_TOL), None)
    report = SearchReport(
        theta=theta, arch=arch.name, objective=best_obj, chi=rep.chi, xi=rep.xi,
        m1=mom.m1, m2=mom.m2, sigma=mom.sigma, gap=gap, evaluations=len(scored),
        target_xi=target_xi, source=source, at_bound=at_bound,
    )
    if target_xi is not None and best_obj > 0.1 * max(1.0, abs(target_xi)):
        raise SearchFailed(
            f"best xi = {report.xi} misses target {target_xi} by more than 10%",
            best=(theta, report),
        )
    return theta, report


def direction_from_json_dict(obj: dict):
    """Parse a sweep direction: same shape as a theta document, read by the
    same per-gate entry reader, but a gate entry may omit keys (they read
    0) and hold negative steps (it is a ray direction, not a valid
    initialization)."""

    if not isinstance(obj, dict) or not isinstance(obj.get("gates"), dict):
        raise InvalidTheta('direction document needs a "gates" object')
    return obj.get("arch"), _gate_entries(obj["gates"], _NO_STEP)


def _combine(theta0: Hyperparameters, direction, alpha: float) -> Hyperparameters:
    """theta0 + alpha * direction, the direction holding every gate's entry."""
    gates = {}
    for k, p in theta0.gates.items():
        gates[k] = GateParams(**{f: getattr(p, f) + alpha * direction[k][f] for f in _GATE_KEYS})
    return Hyperparameters(gates)


def _sweep_point(arch, theta0, direction, inputs, seed, order, n_s, n_iters, point):
    """The row of point (index, alpha) of a sweep; the other arguments are
    the sweep's own, bound once (functools.partial)."""
    index, alpha = point
    row = {c: math.nan for c in SWEEP_COLUMNS}
    row["alpha"] = alpha
    try:  # GateParams rejects a point off the valid region; theta0's gate set is checked
        theta = _combine(theta0, direction, alpha)
    except ValueError:
        row["status"] = "invalid_theta"
        return row
    got = _evaluate(theta, arch, inputs, order, n_s, n_iters, _derived_seed(seed, index))
    if isinstance(got, NoConvergence):
        row["status"] = "no_convergence"
    elif isinstance(got, Exception):
        row["status"] = f"error:{type(got).__name__}"
    else:
        rep, mom, _gap = got
        row.update(
            chi=rep.chi, xi=rep.xi, m1=mom.m1, m2=mom.m2, sigma=mom.sigma,
            status="ok", xi3=3.0 * rep.xi, xi6=6.0 * rep.xi,
        )
    return row


def sweep_phase_diagram(
    arch_name: str,
    theta0: Hyperparameters,
    direction,
    alphas,
    inputs: InputStats,
    seed: int = 0,
    workers: Optional[int] = None,
    order: int = DEFAULT_ORDER,
    n_s: int = 200,
    n_iters: int = 200,
):
    """chi/xi/m1/m2/sigma along the ray theta0 + alpha * direction.

    `direction` maps gate labels to {field: step} dicts, as
    direction_from_json_dict returns them, read by the theta documents'
    entry reader: an omitted gate or field steps by 0, a gate the
    architecture lacks raises UnknownGate, and a step that is not a number
    raises InvalidTheta, before any point is evaluated. A point off the
    valid theta region is marked invalid_theta; a point whose evaluation
    raises is marked by the rule search_critical scores inf:
    no_convergence for NoConvergence, error:<Type> for any other
    ArithmeticError or ValueError. The sweep continues past both. Points get independent
    derived seeds, so the grid is deterministic for a given seed regardless
    of worker count (workers > 1 evaluates the points in a process pool;
    workers below 1 raises ValueError).
    Returns rows sorted by alpha, each a dict over SWEEP_COLUMNS (xi3/xi6
    are the 3 xi and 6 xi overlay columns).
    """

    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers!r}")
    arch = get_architecture(arch_name)
    validate_theta(theta0, arch)
    direction = _gate_entries(direction, _NO_STEP, arch)
    row = partial(_sweep_point, arch, theta0, direction, inputs, seed, order, n_s, n_iters)
    points = [(i, float(a)) for i, a in enumerate(alphas)]
    if workers is not None and workers > 1 and len(points) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: 16 ms of import per process

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(row, points))
    else:
        rows = list(map(row, points))
    return sorted(rows, key=lambda r: r["alpha"])  # stable: equal alphas keep grid order
