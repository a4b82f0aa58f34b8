"""Self-test of the benchmark: every workload's gates reject a planted
defect, the tracer leaves results unchanged, and the metric names agree with
BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_gates.py

(about a minute; not part of the library's test suite).
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import defects  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, restore  # noqa: E402

WORKDIR = ROOT / ".perfbench_run" / "selftest"


def _failures(ops):
    return [(op.name, err) for op in ops for _, err in [workloads.timed(op)] if err is not None]


def _workload(name, **kwargs):
    WORKDIR.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](1, ROOT, WORKDIR, **kwargs)


# (workload, defect, op-name filter, text every failure's message contains)
PLANTED = [
    ("quadrature-sweep", "solve_moments_q_x1.02", "pipeline", "is not a fixed point"),
    ("lstm-sampled", "moments_m1_x1.02", "pipeline LSTM lstm_cifar", "chi(C=1)"),
    ("finite-width", "simulate_pair_q_x1.02", "simulate_pair GRU N=256", "zero-variance simulator"),
    ("finite-width", "build_jacobian_column0", "build_jacobian", "central differences"),
]


@pytest.mark.parametrize("workload,defect,op_filter,message", PLANTED)
def test_gate_rejects_planted_defect(workload, defect, op_filter, message):
    wl = _workload(workload)
    ops = [op for op in wl.pass_ops(0) if op.name.startswith(op_filter)]
    assert ops
    saved = defects.plant(defect)
    try:
        failures = _failures(ops)
    finally:
        restore(saved)
    assert failures, f"{defect} passed every {workload} gate"
    assert all(message in err for _, err in failures), failures
    # the same ops pass once the defect is gone
    assert _failures([op for op in _workload(workload).pass_ops(0) if op.name.startswith(op_filter)]) == []


def test_cli_gate_rejects_planted_defect():
    command = [sys.executable, str(HERE / "defects.py"), "solve_correlation_chi_x1.02"]
    wl = _workload("cli-battery", command=command)
    failures = _failures(wl.pass_ops(0))
    assert failures and len(failures) / wl.ops_per_pass > 0
    assert any(name == "cli verify" for name, _ in failures), failures


def test_tracer_leaves_results_unchanged_and_accounts_for_time():
    wl = _workload("quadrature-sweep")
    ops = wl.pass_ops(0)[:3]
    plain = [op.call() for op in ops]
    tracer = Tracer(layers.fact_functions())
    tracer.install()
    try:
        for i, op in enumerate(ops):
            with tracer.op_span(i):
                out = op.call()
            assert out[1].to_json_dict() == plain[i][1].to_json_dict()
    finally:
        tracer.uninstall()
    import rnnmf

    assert not hasattr(rnnmf.solve_moments, "__wrapped__")
    self_ns = tracer.self_times_ns()
    roots = [i for i in range(len(tracer)) if tracer.parent[i] < 0]
    assert len(roots) == 3
    assert sum(self_ns) == sum(tracer.end[i] - tracer.start[i] for i in roots)
    m = layers.layer_metrics(tracer, 1)
    assert m["fixed_point.solves"] == 3
    assert m["fixed_point.moment_iterations"] == sum(p[0].iterations for p in plain)
    assert m["fixed_point.correlation_iterations"] == sum(p[1].iterations for p in plain)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(layers.PER_LAYER.values())
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOAD_NAMES)
