"""Per-layer metrics computed from a traced run.

Every value is per traced pass (a pass runs a workload's operation list
once), so runs of different length compare directly. Counts are read from
spans (calls), from arguments (sizes) and from returned data (iterations,
evaluations). Sizes marked "computed" come from array shapes, not from
measuring memory traffic.
"""

from __future__ import annotations

import inspect

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "quadrature.expect1.calls": "count",
    "quadrature.expect2.calls": "count",
    "quadrature.self_s": "s",
    "core.validate_theta.calls": "count",
    "core.theta_hash.calls": "count",
    "core.self_s": "s",
    "moment_maps.preactivation_stats.calls": "count",
    "moment_maps.step_moments.calls": "count",
    "moment_maps.step_correlation.calls": "count",
    "moment_maps.self_s": "s",
    "fixed_point.solves": "count",
    "fixed_point.moment_iterations": "count",
    "fixed_point.correlation_iterations": "count",
    "fixed_point.map_evals_per_solve": "count",
    "fixed_point.chi_at.calls": "count",
    "fixed_point.self_s": "s",
    "jacobian.moments.calls": "count",
    "jacobian.lstm_chi_frame.calls": "count",
    "jacobian.self_s": "s",
    "lstm_cell_sampler.calls": "count",
    "lstm_cell_sampler.chain_steps": "count",
    "lstm_cell_sampler.ns_per_chain_step": "ns",
    "lstm_cell_sampler.self_s": "s",
    "simulator.unit_steps": "count",
    "simulator.weight_bytes_computed": "bytes",
    "simulator.matmul_flops_computed": "flop",
    "simulator.simulate_pair.untied.s": "s",
    "simulator.simulate_pair.tied.s": "s",
    "simulator.jacobian_frame.s": "s",
    "simulator.assemble_jacobian.s": "s",
    "simulator.spectrum.s": "s",
    "simulator.self_s": "s",
    "criticality.sweep_points": "count",
    "criticality.search_evaluations": "count",
    "criticality.self_s": "s",
    "cli.import_s": "s",
    "cli.run.self_s": "s",
    "cli.process_overhead_s": "s",
    "trace.spans": "count",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
}

_SAMPLER = ("sample_cell_distribution", "correlated_cell_pairs", "advance_cell")


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments

    return arguments


def _sim_sizes(N: int, gates: int, draws: int, matvecs: int) -> dict:
    # one draw: W (N x N), U (N x N; inputs have width N) and b (N) per gate;
    # one matvec pass: W s and U z per gate, 2 N^2 flops each
    return {
        "weight_bytes": 8 * draws * gates * (2 * N * N + N),
        "flops": matvecs * gates * 4 * N * N,
    }


def fact_functions() -> dict:
    """Callables (args, kwargs, result) -> dict for the spans that carry counts."""
    from rnnmf import fixed_point, lstm_cell_sampler, simulator

    def chain_steps(fn, steps_key):
        arguments = _bound(fn)

        def fact(args, kwargs, result):
            a = arguments(args, kwargs)
            if steps_key is None:  # advance_cell: one step of the ensemble
                return {"chain_steps": a["cell"].meta.n_s}
            return {"chain_steps": a["n_s"] * a[steps_key]}

        return fact

    sim_args = _bound(simulator.simulate_pair)

    def simulate_pair(args, kwargs, result):
        a = sim_args(args, kwargs)
        N, T, gates = a["config"].N, a["config"].T, len(a["arch"].gates)
        out = _sim_sizes(N, gates, 1 if a["tied"] else T, 2 * T)
        out.update(unit_steps=2 * N * T, tied=bool(a["tied"]))
        return out

    frame_args = _bound(simulator.jacobian_frame)

    def jacobian_frame(args, kwargs, result):
        a = frame_args(args, kwargs)
        N, steps, gates = a["config"].N, a["burn_in"], len(a["arch"].gates)
        out = _sim_sizes(N, gates, steps + 1, steps + 1)
        out["unit_steps"] = N * steps
        return out

    def assemble_jacobian(args, kwargs, result):
        frame = args[1] if len(args) > 1 else kwargs["frame"]
        N = frame.state.size
        gated = sum(1 for g in frame.arch.gates if g.form == "gated")
        return {"flops": gated * 2 * N**3}  # the gated chain's N x N product

    cell_args = _bound(simulator.simulate_cell_distribution)

    def simulate_cell_distribution(args, kwargs, result):
        a = cell_args(args, kwargs)
        N, T, gates = a["config"].N, a["config"].T, len(a["arch"].gates)
        out = _sim_sizes(N, gates, T, T)
        out["unit_steps"] = N * T
        return out

    return {
        "fixed_point.solve_moments": lambda a, k, r: {"iterations": r.iterations},
        "fixed_point.solve_correlation": lambda a, k, r: {"iterations": r.iterations},
        "criticality.search_critical": lambda a, k, r: {"evaluations": r[1].evaluations},
        "criticality.sweep_phase_diagram": lambda a, k, r: {"points": len(r)},
        "lstm_cell_sampler.sample_cell_distribution": chain_steps(
            lstm_cell_sampler.sample_cell_distribution, "n_iters"
        ),
        "lstm_cell_sampler.correlated_cell_pairs": chain_steps(
            lstm_cell_sampler.correlated_cell_pairs, "n_iters"
        ),
        "lstm_cell_sampler.advance_cell": chain_steps(lstm_cell_sampler.advance_cell, None),
        "simulator.simulate_pair": simulate_pair,
        "simulator.jacobian_frame": jacobian_frame,
        "simulator.assemble_jacobian": assemble_jacobian,
        "simulator.simulate_cell_distribution": simulate_cell_distribution,
    }


def layer_metrics(tracer, passes: int) -> dict:
    """The span-derived entries of PER_LAYER, per traced pass."""
    names, layers = tracer.names, tracer.layers
    self_ns = tracer.self_times_ns()
    n = len(tracer)
    calls: dict[str, int] = {}
    incl_ns: dict[str, int] = {}
    layer_self: dict[str, int] = {}
    facts: dict[str, float] = {}
    under_fp = [False] * n  # span has a fixed_point ancestor
    fp_map_evals = 0
    tied_ns = untied_ns = 0
    for i in range(n):
        name = names[tracer.name[i]]
        layer = layers[tracer.name[i]]
        dur = tracer.end[i] - tracer.start[i]
        calls[name] = calls.get(name, 0) + 1
        incl_ns[name] = incl_ns.get(name, 0) + dur
        layer_self[layer] = layer_self.get(layer, 0) + self_ns[i]
        p = tracer.parent[i]
        if p >= 0:
            under_fp[i] = under_fp[p] or layers[tracer.name[p]] == "fixed_point"
        if under_fp[i] and name in ("moment_maps.step_moments", "moment_maps.step_correlation"):
            fp_map_evals += 1
        f = tracer.facts.get(i)
        if f:
            for key, value in f.items():
                if key == "tied":
                    if value:
                        tied_ns += dur
                    else:
                        untied_ns += dur
                    continue
                fkey = f"{name}.{key}"
                facts[fkey] = facts.get(fkey, 0) + value

    def c(name):
        return calls.get(name, 0)

    def fact_sum(key, *fns):
        return sum(facts.get(f"{fn}.{key}", 0) for fn in fns)

    sampler = [f"lstm_cell_sampler.{f}" for f in _SAMPLER]
    sims = ["simulator.simulate_pair", "simulator.jacobian_frame", "simulator.simulate_cell_distribution"]
    chain = fact_sum("chain_steps", *sampler)
    sampler_ns = sum(incl_ns.get(s, 0) for s in sampler)
    solves = c("fixed_point.solve_moments")
    out = {
        "quadrature.expect1.calls": c("quadrature.expect1"),
        "quadrature.expect2.calls": c("quadrature.expect2"),
        "quadrature.self_s": layer_self.get("quadrature", 0) * 1e-9,
        "core.validate_theta.calls": c("core.validate_theta"),
        "core.theta_hash.calls": c("core.theta_hash"),
        "core.self_s": layer_self.get("core", 0) * 1e-9,
        "moment_maps.preactivation_stats.calls": c("moment_maps.preactivation_stats"),
        "moment_maps.step_moments.calls": c("moment_maps.step_moments"),
        "moment_maps.step_correlation.calls": c("moment_maps.step_correlation"),
        "moment_maps.self_s": layer_self.get("moment_maps", 0) * 1e-9,
        "fixed_point.solves": solves,
        "fixed_point.moment_iterations": fact_sum("iterations", "fixed_point.solve_moments"),
        "fixed_point.correlation_iterations": fact_sum("iterations", "fixed_point.solve_correlation"),
        "fixed_point.chi_at.calls": c("fixed_point.chi_at"),
        "fixed_point.self_s": layer_self.get("fixed_point", 0) * 1e-9,
        "jacobian.moments.calls": c("jacobian.moments"),
        "jacobian.lstm_chi_frame.calls": c("jacobian.lstm_chi_frame"),
        "jacobian.self_s": layer_self.get("jacobian", 0) * 1e-9,
        "lstm_cell_sampler.calls": sum(c(s) for s in sampler),
        "lstm_cell_sampler.chain_steps": chain,
        "lstm_cell_sampler.self_s": layer_self.get("lstm_cell_sampler", 0) * 1e-9,
        "simulator.unit_steps": fact_sum("unit_steps", *sims),
        "simulator.weight_bytes_computed": fact_sum("weight_bytes", *sims),
        "simulator.matmul_flops_computed": fact_sum("flops", *sims, "simulator.assemble_jacobian"),
        "simulator.simulate_pair.untied.s": untied_ns * 1e-9,
        "simulator.simulate_pair.tied.s": tied_ns * 1e-9,
        "simulator.jacobian_frame.s": incl_ns.get("simulator.jacobian_frame", 0) * 1e-9,
        "simulator.assemble_jacobian.s": incl_ns.get("simulator.assemble_jacobian", 0) * 1e-9,
        "simulator.spectrum.s": incl_ns.get("simulator.SpectrumReport.from_matrix", 0) * 1e-9,
        "simulator.self_s": layer_self.get("simulator", 0) * 1e-9,
        "criticality.sweep_points": fact_sum("points", "criticality.sweep_phase_diagram"),
        "criticality.search_evaluations": fact_sum("evaluations", "criticality.search_critical"),
        "criticality.self_s": layer_self.get("criticality", 0) * 1e-9,
        "cli.run.self_s": layer_self.get("cli", 0) * 1e-9,
        "trace.spans": n,
    }
    out = {k: v / passes for k, v in out.items()}
    # ratios: their bases (solves, chain steps) are reported beside them
    out["fixed_point.map_evals_per_solve"] = fp_map_evals / solves if solves else 0.0
    out["lstm_cell_sampler.ns_per_chain_step"] = sampler_ns / chain if chain else 0.0
    return out
