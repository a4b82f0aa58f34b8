"""rnnmf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload quadrature-sweep --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout; the library is imported from ./src (it
need not be installed). The run is closed-loop: one operation at a time,
whole passes over the workload's operation list until --seconds have passed
(at least MIN_PASSES). Every operation's output is gated for correctness
outside its timed call.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes over the same inputs and prints the per-layer metrics, the
tracing overhead among them. Human-readable lines come first; the last line
of stdout is one JSON object with correct, attempted, failed and metrics.
The run record (versions, machine, seed, generated inputs, every operation's
time and gate result) and the traced spans go to .perfbench_run/.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads and inherited by child processes:
# the box is small and shared, and the workloads' matrix products are
# matrix-vector sized, so threads add noise rather than speed
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOAD_NAMES = ("quadrature-sweep", "lstm-sampled", "finite-width", "cli-battery")
MIN_PASSES = 2
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
# fresh-process set-up as a user pays it: import plus the first quadrature
# call, which builds the Gauss-Hermite node cache
SETUP_CODE = "import numpy, rnnmf; rnnmf.expect1(numpy.tanh, 0.0, 1.0)"
IMPORT_CODE = "import time; t = time.perf_counter(); import rnnmf.cli; print(time.perf_counter() - t)"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root: Path, n: int) -> float:
    """Median wall time of n fresh interpreters doing SETUP_CODE."""
    env = _child_env(root)
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=root, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_cli_import(root: Path, n: int) -> float:
    """Median in-process time of `import rnnmf.cli` in n fresh interpreters."""
    env = _child_env(root)
    times = []
    for _ in range(n):
        r = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=env, cwd=root, check=True,
                           capture_output=True, text=True)
        times.append(float(r.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_record(root: Path, args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs between numpy versions
        blas_version = "unknown"
    sha = None
    if (root / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        sha = r.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "nproc": os.cpu_count(),
        "loadavg_1min_at_start": os.getloadavg()[0],
        "started_unix": time.time(),
    }


def run_pass(ops, results, tracer=None, first_index=0) -> float:
    """Runs ops in order, appending (name, seconds, error) to results.
    Returns the summed op time of this pass."""
    from workloads import timed

    total = 0.0
    for i, op in enumerate(ops):
        dt, err = timed(op, tracer, first_index + i)
        results.append((op.name, dt, err))
        total += dt
    return total


def hd_quantile(times, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, weighted by a Beta((n+1)p, (n+1)(1-p)) over their ranks.

    A workload repeats a fixed list of operations, so its times form one
    cluster per operation. A single order statistic jumps from one cluster to
    the next when two operations trade places; this estimate moves smoothly.
    """
    import numpy
    from scipy.special import betainc

    x = numpy.sort(numpy.asarray(times, dtype=float))
    n = len(x)
    cdf = betainc((n + 1) * p, (n + 1) * (1.0 - p), numpy.arange(n + 1) / n)
    return float(numpy.diff(cdf) @ x)


def tail_quantile(times, ops_per_pass: int):
    """The op_tail_ms percentile: the highest with at least ten samples
    beyond it in a run of MIN_PASSES passes. Longer runs keep the same
    percentile (and have more samples beyond it), so runs of different
    length report the same statistic."""
    n_ref = MIN_PASSES * ops_per_pass
    p = 1.0 - 10.0 / n_ref
    return hd_quantile(times, p), 100.0 * p


def end_to_end(args, root, wl) -> tuple[dict, list, dict]:
    setup_s = measure_setup(root, SETUP_SAMPLES)
    results = []
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < args.seconds:
        run_pass(wl.pass_ops(passes), results)
        passes += 1
    times = [dt for _, dt, _ in results]
    ok = sum(1 for _, _, e in results if e is None)
    tail, pct = tail_quantile(times, wl.ops_per_pass)
    rss = wl.peak_rss_mb()
    if rss is None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ok / sum(times),
        "op_p50_ms": 1e3 * hd_quantile(times, 0.5),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": rss,
    }
    notes = {
        "passes": passes,
        "wall_s": time.perf_counter() - start,
        "op_tail_percentile": pct,
        "op_samples": len(times),
        "op_samples_beyond_tail": sum(1 for t in times if t > tail),
    }
    return metrics, results, notes


def traced(args, root, wl, workdir) -> tuple[dict, list, dict]:
    from layers import fact_functions, layer_metrics
    from tracer import Tracer

    import_s = measure_cli_import(root, IMPORT_SAMPLES)
    tracer = Tracer(fact_functions())
    results = []
    untraced_s = traced_s = process_s = 0.0
    start = time.perf_counter()
    k = 0
    while k < 1 or time.perf_counter() - start < args.seconds:
        plain = run_pass(wl.pass_ops(k), results)
        if wl.trace_in_process:
            # the traced pass runs the CLI in this process: time those calls
            # untraced too, so the overhead compares like with like, and the
            # children's extra time is the process overhead
            ref = run_pass(wl.trace_ops(k), results)
            process_s += plain - ref
        else:
            ref = plain
        tracer.install()
        try:
            traced_s += run_pass(wl.trace_ops(k), results, tracer, first_index=k * wl.ops_per_pass)
        finally:
            tracer.uninstall()
        untraced_s += ref
        k += 1
    metrics = layer_metrics(tracer, k)
    metrics.update({
        "cli.import_s": import_s,
        "cli.process_overhead_s": process_s / k,
        "trace.untraced_pass_s": untraced_s / k,
        "trace.overhead_s": (traced_s - untraced_s) / k,
    })
    spans_path = workdir / f"{wl.name}.seed{args.seed}.spans.csv"
    tracer.write(spans_path)
    notes = {"traced_passes": k, "wall_s": time.perf_counter() - start, "spans_file": str(spans_path)}
    return metrics, results, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rnnmf" / "__init__.py").is_file():
        print(f"error: {root} has no src/rnnmf; run from the root of an rnnmf checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    workdir = Path(".perfbench_run")  # relative to the checkout, so records hold no absolute paths
    workdir.mkdir(exist_ok=True)

    record = run_record(root, args)
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, root, workdir)
    if args.trace:
        metrics, results, notes = traced(args, root, wl, workdir)
        from layers import PER_LAYER as units
    else:
        metrics, results, notes = end_to_end(args, root, wl)
        units = END_TO_END

    attempted = len(results)
    failures = [(name, err) for name, _, err in results if err is not None]
    record.update(
        notes=notes,
        inputs=wl.inputs,
        observations=wl.observations,
        ops=[{"name": n, "seconds": dt, "error": e} for n, dt, e in results],
        metrics=metrics,
    )
    out_path = workdir / f"{wl.name}.seed{args.seed}.trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  record {out_path}")
    for key, value in notes.items():
        print(f"  {key:<34s} {value}")
    for name, unit in units.items():
        print(f"  {name:<40s} {metrics[name]:>16.6g} {unit}")
    print(f"  {'error_rate':<40s} {len(failures) / attempted:>16.6g} ratio ({len(failures)} of {attempted} failed)")
    for name, err in failures[:20]:
        print(f"  FAILED {name}: {err}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
