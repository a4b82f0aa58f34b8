"""Shared domain types: gate sets, hyperparameters, moment states, architectures.

Everything here is immutable after construction and safe to share across
worker processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

__all__ = [
    "MissingGate",
    "NegativeVariance",
    "UnknownGate",
    "UnknownArchitecture",
    "InvalidTheta",
    "InvalidSchedule",
    "sigmoid",
    "dsigmoid",
    "dtanh",
    "GateId",
    "GateParams",
    "Hyperparameters",
    "InputStats",
    "MomentState",
    "ArchitectureSpec",
    "SimulationConfig",
    "ARCHITECTURES",
    "get_architecture",
    "validate_theta",
    "theta_to_json_dict",
    "theta_from_json_dict",
    "load_theta",
    "dump_theta",
    "theta_hash",
    "ZERO_STATE",
]


class MissingGate(ValueError):
    """Theta lacks an entry for a gate the architecture requires."""


class NegativeVariance(ValueError):
    """A variance hyperparameter is negative."""


class UnknownGate(ValueError):
    """Theta carries an entry for a gate the architecture does not define."""


class UnknownArchitecture(ValueError):
    """Architecture name not in the registry."""


class InvalidTheta(ValueError):
    """Malformed hyperparameter description (bad JSON shape, unknown keys)."""


def sigmoid(x):
    # exp(-x) overflows to inf below x = -709.78 (numpy warns), and the
    # result is then exactly 0; +-inf map exactly to 0 and 1.
    return 1.0 / (1.0 + np.exp(-x))


def dsigmoid(x):
    s = sigmoid(x)
    return s * (1.0 - s)


def dtanh(x):
    t = np.tanh(x)
    return 1.0 - t * t


# the gate nonlinearities by name: the primitives of the cell laws and of
# the Jacobian term algebra, and GateId.g_name's table
_PRIMS = {
    "sig": sigmoid,
    "dsig": dsigmoid,
    "tanh": np.tanh,
    "dtanh": dtanh,
    "omsig": lambda u: 1.0 - sigmoid(u),
}
# a differentiable primitive's derivative as (sign, primitive): d omsig = -dsig
_DERIVATIVES = {"sig": (1.0, "dsig"), "omsig": (-1.0, "dsig"), "tanh": (1.0, "dtanh")}


@dataclass(frozen=True)
class GateId:
    """A gate label plus its pre-activation form.

    form is "linear" (u_k = W_k s + U_k z + b_k) or "gated"
    (u_k2 = W_k2 (g(u_k) o s) + U_k2 z + b_k2). Gated entries name the inner
    gate whose nonlinearity g does the gating.
    """

    label: str
    form: str = "linear"
    gated_by: Optional[str] = None
    g_name: Optional[str] = None  # _PRIMS name of the nonlinearity applied to the inner gate

    def __post_init__(self):
        if self.form not in ("linear", "gated"):
            raise ValueError(f"unknown gate form {self.form!r}")
        if self.form == "gated" and (self.gated_by is None or self.g_name not in _DERIVATIVES):
            raise ValueError("gated gate needs gated_by and a g_name whose derivative _DERIVATIVES holds")


@dataclass(frozen=True)
class GateParams:
    """Per-gate weight and bias distribution parameters."""

    sigma2: float  # recurrent weight variance
    nu2: float  # input weight variance
    rho2: float  # bias variance
    mu: float  # bias mean

    def __post_init__(self):
        for name in ("sigma2", "nu2", "rho2"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidTheta(f"{name} must be finite, got {v!r}")
            if v < 0:
                raise NegativeVariance(f"{name} = {v} < 0")
        if not math.isfinite(self.mu):
            raise InvalidTheta(f"mu must be finite, got {self.mu!r}")


class Hyperparameters:
    """Mapping from gate label to GateParams for one architecture.

    Every value must be a GateParams (InvalidTheta otherwise), so the
    per-gate rules of GateParams hold for every theta; validate_theta adds
    the one rule that needs the architecture, its gate set.
    """

    def __init__(self, gates: Mapping[str, GateParams]):
        for label, p in gates.items():
            if not isinstance(p, GateParams):
                raise InvalidTheta(f"gate {label!r}: expected GateParams, got {type(p).__name__}")
        self._gates = MappingProxyType(dict(gates))
        # what other modules derive from this theta and keep with it (the
        # moment maps' newest gate laws, the LSTM sampler's newest frame);
        # not part of its value, so equality, hashing and pickling ignore
        # it. The Jacobian's contribution terms are per-cell data
        # (CellRules.entries) that theta's gate variances weight per call
        self._memo: dict = {}

    def __reduce__(self):  # a mappingproxy does not pickle
        return Hyperparameters, (dict(self._gates),)

    @property
    def gates(self) -> Mapping[str, GateParams]:
        return self._gates

    def labels(self):
        return tuple(self._gates.keys())

    def __getitem__(self, label: str) -> GateParams:
        try:
            return self._gates[label]
        except KeyError:
            raise MissingGate(f"no hyperparameters for gate {label!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self._gates

    def sigma2(self, label: str) -> float:
        return self[label].sigma2

    def nu2(self, label: str) -> float:
        return self[label].nu2

    def rho2(self, label: str) -> float:
        return self[label].rho2

    def mu(self, label: str) -> float:
        return self[label].mu

    def replace(self, label: str, **changes) -> "Hyperparameters":
        """theta with gate label's fields changed. Raises MissingGate for a
        gate theta lacks and InvalidTheta naming a field GateParams lacks."""
        entry = self[label]
        bad = changes.keys() - set(_GATE_KEYS)
        if bad:
            raise InvalidTheta(f"gate {label!r}: unknown keys {sorted(bad)}")
        return Hyperparameters({**self._gates, label: dataclasses.replace(entry, **changes)})

    def __eq__(self, other):
        if not isinstance(other, Hyperparameters):
            return NotImplemented
        return dict(self._gates) == dict(other._gates)

    def __hash__(self):
        return hash(tuple(sorted((k, v.sigma2, v.nu2, v.rho2, v.mu) for k, v in self._gates.items())))

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self._gates.items())
        return f"Hyperparameters({inner})"


@dataclass(frozen=True)
class InputStats:
    """Second moment R of the input coordinates (finite, >= 0) and the
    inter-sequence correlation Sigma_z of the two driving input streams
    (|Sigma_z| <= 1); ValueError otherwise."""

    R: float
    sigma_z: float

    def __post_init__(self):
        if not 0 <= self.R < math.inf:
            raise ValueError(f"R must be >= 0 and finite, got {self.R}")
        if not (abs(self.sigma_z) <= 1):
            raise ValueError(f"|sigma_z| must be <= 1, got {self.sigma_z}")


class InvalidSchedule(ValueError):
    """A sigma_z schedule shorter than the horizon, or with an entry outside
    [-1, 1] (NaN included)."""


def _sigma_z_schedule(inputs: InputStats, T: int, schedule=None) -> np.ndarray:
    """The input correlation of steps 1..T as an array whose entry t - 1 is
    step t's: inputs.sigma_z throughout, or the given per-step schedule. The
    one schedule rule of the finite-width and the mean-field trajectory: a
    schedule with fewer than T entries, or with an entry outside [-1, 1]
    (NaN included), raises InvalidSchedule."""

    if schedule is None:
        return np.full(T, inputs.sigma_z)
    sched = np.asarray(schedule, dtype=float)
    if sched.size < T:
        raise InvalidSchedule(f"schedule has {sched.size} entries < T = {T}")
    bad = np.flatnonzero(~(np.abs(sched) <= 1.0))  # NaN fails the comparison too
    if bad.size:
        raise InvalidSchedule(f"schedule entry {bad[0]} = {float(sched.flat[bad[0]])!r} outside [-1, 1]")
    return sched


_Q_TOL = 1e-12


@dataclass(frozen=True)
class MomentState:
    """State moments (mu_s, Q_s, C_s) of a pair of coupled sequences.

    sigma2_s = Q_s - mu_s^2 is derived. For degenerate states (sigma2_s = 0)
    the correlation is undefined; the convention is to store c_s = 0, which
    is inert because downstream formulas only consume C * sigma2 products.
    """

    mu_s: float
    q_s: float
    c_s: float

    def __post_init__(self):
        # written so that a NaN fails them
        if not (self.q_s >= self.mu_s * self.mu_s - _Q_TOL * max(1.0, abs(self.q_s))):
            raise ValueError(f"Q_s = {self.q_s} < mu_s^2 = {self.mu_s ** 2}")
        if not (abs(self.c_s) <= 1 + 1e-9):
            raise ValueError(f"|C_s| = {abs(self.c_s)} > 1")

    @property
    def sigma2_s(self) -> float:
        return max(self.q_s - self.mu_s * self.mu_s, 0.0)


ZERO_STATE = MomentState(0.0, 0.0, 0.0)


def _as_state(fixed) -> MomentState:
    """The state a fixed-point object stands for: a MomentState itself, a
    solution's .state, or a report's (mu_star, q_star, c_star), c_star
    defaulting to 0."""
    if isinstance(fixed, MomentState):
        return fixed
    if hasattr(fixed, "state"):  # a MomentsSolution
        return fixed.state
    return MomentState(fixed.mu_star, fixed.q_star, getattr(fixed, "c_star", 0.0))


@dataclass(frozen=True)
class ArchitectureSpec:
    """A recurrent cell's gates: s^t = f(s^{t-1}, {u_k^t}).

    The cell's rules (moment step, Jacobian terms, width-N update) live in
    the cell table, rnnmf.cells.CELLS, under the same name. For the LSTM the
    tracked state is h and the update also reads the previous cell value;
    needs_cell marks that the moment maps require a sampled cell ensemble
    (the map is not closed in (mu, Q, C) alone).
    """

    name: str
    gates: tuple[GateId, ...]
    needs_cell: bool = False

    def labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.gates)

    def linear_gates(self) -> tuple[GateId, ...]:
        return tuple(g for g in self.gates if g.form == "linear")

    def gated_gates(self) -> tuple[GateId, ...]:
        return tuple(g for g in self.gates if g.form == "gated")


ARCHITECTURES: Mapping[str, ArchitectureSpec] = MappingProxyType(
    {
        "vanillaRNN": ArchitectureSpec(name="vanillaRNN", gates=(GateId("f"),)),
        "minimalRNN": ArchitectureSpec(name="minimalRNN", gates=(GateId("f"), GateId("r"))),
        "GRU": ArchitectureSpec(
            name="GRU",
            gates=(GateId("f"), GateId("r"), GateId("r2", form="gated", gated_by="r", g_name="sig")),
        ),
        "peepholeLSTM": ArchitectureSpec(
            name="peepholeLSTM",
            gates=(GateId("i"), GateId("f"), GateId("r"), GateId("o")),
        ),
        "LSTM": ArchitectureSpec(
            name="LSTM",
            gates=(GateId("i"), GateId("f"), GateId("r"), GateId("o")),
            needs_cell=True,
        ),
    }
)


def get_architecture(name: str) -> ArchitectureSpec:
    try:
        return ARCHITECTURES[name]
    except KeyError:
        raise UnknownArchitecture(
            f"unknown architecture {name!r}; known: {sorted(ARCHITECTURES)}"
        ) from None


@dataclass(frozen=True)
class SimulationConfig:
    """Finite-width simulation settings: width, horizon and the RNG seed.
    Every run starts from the zero state, as the mean-field trajectory does."""

    N: int
    T: int
    seed: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N >= 1 required")
        if self.T < 1:
            raise ValueError("T >= 1 required")


def validate_theta(theta: Hyperparameters, arch: ArchitectureSpec) -> None:
    """Checks that theta covers exactly the gates of arch. Raises MissingGate
    or UnknownGate; the per-gate rules (finite values, nonnegative
    variances) hold already, GateParams enforces them."""

    want = set(arch.labels())
    have = set(theta.labels())
    missing = want - have
    if missing:
        raise MissingGate(f"{arch.name}: missing hyperparameters for {sorted(missing)}")
    extra = have - want
    if extra:
        raise UnknownGate(f"{arch.name}: unexpected gate entries {sorted(extra)}")


_GATE_KEYS = ("sigma2", "nu2", "rho2", "mu")


def theta_to_json_dict(theta: Hyperparameters, arch_name: str) -> dict:
    return {
        "arch": arch_name,
        "gates": {
            k: {"sigma2": p.sigma2, "nu2": p.nu2, "rho2": p.rho2, "mu": p.mu}
            for k, p in theta.gates.items()
        },
    }


def _gate_entry(label, entry, defaults=None) -> dict:
    """One gate's entry as {key: float} over _GATE_KEYS. Values must be
    numbers (not bools or strings) that fit a float and are finite; a key
    the entry omits reads defaults[key], and without defaults every key is
    required. Raises InvalidTheta naming the gate and key; unknown keys are
    listed sorted by their text, so keys of mixed types can be named."""

    if not isinstance(entry, Mapping):
        raise InvalidTheta(f"gate {label!r} entry must be an object")
    bad = set(entry) - set(_GATE_KEYS)
    if bad:
        raise InvalidTheta(f"gate {label!r}: unknown keys {sorted(bad, key=str)}")
    missing = set(_GATE_KEYS) - set(entry)
    if missing and defaults is None:
        raise InvalidTheta(f"gate {label!r}: missing keys {sorted(missing)}")
    vals = {}
    for key in _GATE_KEYS:
        v = entry[key] if key in entry else defaults[key]
        if not isinstance(v, numbers.Real) or isinstance(v, bool):
            raise InvalidTheta(f"gate {label!r}: {key} must be a number")
        try:
            vals[key] = float(v)
        except OverflowError:  # an integer beyond the float range
            raise InvalidTheta(f"gate {label!r}: {key} does not fit a float") from None
        if not math.isfinite(vals[key]):  # a JSON literal such as 1e400 parses to inf
            raise InvalidTheta(f"gate {label!r}: {key} must be finite")
    return vals


def _gate_entries(gates, defaults=None, arch: Optional[ArchitectureSpec] = None) -> dict:
    """The one reader of {gate: entry} maps: theta documents (no defaults),
    sweep directions (omitted keys read 0) and search constraints (omitted
    keys read the zero-variance floor). Returns {gate: {key: float}}, each
    entry read by _gate_entry. Given arch, a gate it lacks raises
    UnknownGate (its message lists the unknown labels sorted by their
    text) and a gate the map omits reads defaults in full."""

    if not isinstance(gates, Mapping):
        raise InvalidTheta(f"gate entries must be an object, got {type(gates).__name__}")
    labels = tuple(gates)
    if arch is not None:
        unknown = set(gates) - set(arch.labels())
        if unknown:
            raise UnknownGate(f"{arch.name}: unexpected gate entries {sorted(unknown, key=str)}")
        labels = arch.labels()
    return {label: _gate_entry(label, gates.get(label, {}), defaults) for label in labels}


def theta_from_json_dict(obj: dict) -> tuple[str, Hyperparameters]:
    """Parses {"arch": ..., "gates": {...}}; unknown keys are rejected."""

    if not isinstance(obj, dict):
        raise InvalidTheta("theta document must be a JSON object")
    extra = set(obj) - {"arch", "gates"}
    if extra:
        raise InvalidTheta(f"unknown top-level keys {sorted(extra)}")
    if "arch" not in obj or "gates" not in obj:
        raise InvalidTheta('theta document needs "arch" and "gates"')
    arch_name = obj["arch"]
    if not isinstance(arch_name, str):
        raise InvalidTheta('"arch" must be a string')
    gates_obj = obj["gates"]
    if not isinstance(gates_obj, dict):
        raise InvalidTheta('"gates" must be an object')
    theta = Hyperparameters({label: GateParams(**entry) for label, entry in _gate_entries(gates_obj).items()})
    arch = get_architecture(arch_name)
    validate_theta(theta, arch)
    return arch_name, theta


def load_theta(path) -> tuple[str, Hyperparameters]:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return theta_from_json_dict(obj)


def dump_theta(theta: Hyperparameters, arch_name: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(theta_to_json_dict(theta, arch_name), fh, indent=2, sort_keys=True)
        fh.write("\n")


def theta_hash(theta: Hyperparameters) -> str:
    """Stable short digest of the gate parameters, used in ensemble metadata."""

    doc = {
        k: [repr(p.sigma2), repr(p.nu2), repr(p.rho2), repr(p.mu)]
        for k, p in sorted(theta.gates.items())
    }
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
