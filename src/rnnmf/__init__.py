"""Mean-field theory of signal propagation in gated recurrent networks.

The library computes forward moment maps (state mean, second moment,
cross-replica correlation), their fixed points, the input-output Jacobian's
squared-singular-value moments, and critical initializations tuned for
dynamical isometry, for five recurrent cells: vanillaRNN, minimalRNN, GRU,
peepholeLSTM and LSTM. A finite-width simulator with untied weights serves
as the empirical counterpart throughout.

The namespace is lazy (PEP 562): `import rnnmf` loads no submodule, and
the first use of an exported name loads only its home module (and what that
module imports). `rnnmf.<name>` reads the home module's attribute on every
access and is never copied into the package, so a patched submodule
attribute is seen through the package too. `rnnmf.cli` imports every layer
when it loads.
"""

import importlib
import sys

__version__ = "0.1.0"

# home module -> the names the package exports from it
_EXPORTS = {
    "core": (
        "ARCHITECTURES", "ArchitectureSpec", "GateParams", "Hyperparameters",
        "InputStats", "InvalidTheta", "MomentState", "NegativeVariance",
        "SimulationConfig", "UnknownArchitecture", "ZERO_STATE",
        "get_architecture", "load_theta", "dump_theta", "theta_from_json_dict",
        "theta_to_json_dict", "validate_theta",
    ),
    "quadrature": ("DEFAULT_ORDER", "GaussianPairSpec", "NonFiniteIntegrand", "expect1", "expect2"),
    "moment_maps": (
        "DegenerateCorrelation", "MissingCellEnsemble", "moment_trajectory",
        "preactivation_stats", "step_correlation", "step_moments",
    ),
    "lstm_cell_sampler": (
        "CellStateEnsemble", "advance_cell", "correlated_cell_pairs", "sample_cell_distribution",
    ),
    "jacobian": (
        "CRITICAL_TOL", "ContributionVector", "IsometryGap", "JacobianMoments",
        "contribution_vector", "isometry_gap", "jacobian_report_dict",
        "lstm_chi_frame", "moments",
    ),
    "fixed_point": (
        "FixedPointReport", "MomentsSolution", "NoConvergence",
        "chi_at", "solve_correlation", "solve_moments",
    ),
    "criticality": (
        "PRESET_NAMES", "SIGMA2_FLOOR", "SearchFailed", "SearchReport", "SWEEP_COLUMNS",
        "UnknownPreset", "direction_from_json_dict", "preset_default_arch",
        "preset_init", "search_critical", "sweep_phase_diagram",
    ),
    "simulator": (
        "JacobianFrame", "NonFiniteState", "SpectrumReport", "TrajectoryPoint",
        "assemble_jacobian", "build_jacobian", "jacobian_frame",
        "simulate_cell_distribution", "simulate_pair",
    ),
}

_HOME = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

# submodules reachable as `rnnmf.<module>` without importing them first
_SUBMODULES = frozenset(_EXPORTS) | {"cells"}

__all__ = sorted(_HOME)


def __getattr__(name):
    # no caching: a resolved name stored here would outlive a later rebinding
    # of the home module's attribute
    home = _HOME.get(name)
    if home is not None:
        return getattr(sys.modules.get(home) or importlib.import_module(home), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
