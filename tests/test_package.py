"""The package namespace: lazy loading, the export list, and no copies."""

import importlib
import subprocess
import sys

import pytest

import rnnmf

# home module -> the names the package exports from it
EXPORTS = {
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


def _fresh(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_loads_no_submodule_and_a_name_loads_only_its_home():
    loaded = "sorted(m for m in sys.modules if m.startswith('rnnmf'))"
    code = (
        f"import sys, rnnmf; print({loaded}); rnnmf.expect1; print({loaded});"
        f" rnnmf.core.sigmoid; print({loaded})"
    )
    bare, first_use, submodule = _fresh(code)
    assert bare == "['rnnmf']"
    assert first_use == "['rnnmf', 'rnnmf.quadrature']"
    # a submodule is reachable as an attribute without importing it first
    assert "'rnnmf.core'" in submodule


def test_all_lists_the_67_exports_each_read_from_its_home_module():
    names = sorted(n for group in EXPORTS.values() for n in group)
    assert len(names) == 67
    assert rnnmf.__all__ == names
    for module, group in EXPORTS.items():
        home = importlib.import_module(f"rnnmf.{module}")
        for name in group:
            assert getattr(rnnmf, name) is getattr(home, name), name


def test_star_import_and_dir_cover_the_exports_without_copying_them():
    namespace = {}
    exec("from rnnmf import *", namespace)
    assert all(namespace[name] is getattr(rnnmf, name) for name in rnnmf.__all__)
    assert set(rnnmf.__all__) <= set(dir(rnnmf))
    assert rnnmf.__version__ == "0.1.0"
    assert not set(rnnmf.__all__) & set(vars(rnnmf))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        rnnmf.no_such_name


def test_a_patched_submodule_attribute_is_seen_through_the_package(monkeypatch):
    # perfbench's tracer and defect planter rebind submodule attributes and
    # later restore them. A __getattr__ that cached a resolved name in the
    # package would keep serving the original read below while the fake is
    # installed, so it fails the first assert.
    original = rnnmf.solve_moments

    def fake(*args, **kwargs):
        raise AssertionError("not called")

    with monkeypatch.context() as m:
        m.setattr(rnnmf.fixed_point, "solve_moments", fake)
        assert rnnmf.solve_moments is fake
    assert rnnmf.solve_moments is original
