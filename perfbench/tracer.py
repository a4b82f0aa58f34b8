"""Outside-in tracer: spans around calls into the public functions of rnnmf.

The tracer wraps each listed function by identity in every loaded
``rnnmf.*`` module namespace, so calls through a name imported with
``from .x import f``, through a module attribute (``_jacobian.moments``) and
through a lazy import inside a function body are all recorded. Nothing in
the library changes; ``uninstall`` puts the original objects back.

Spans live in memory as flat integer arrays (name, start, end, parent, op)
and are written out once, when the run ends. Self time of a span is its
duration minus the durations of its direct children; spans of one thread
nest, so the children never overlap.
"""

from __future__ import annotations

import array
import contextlib
import functools
import json
import sys
import time

# (module, function) pairs traced, by layer. Every public entry point of each
# layer that the workloads reach is listed; core's elementwise helpers
# (sigmoid, dtanh, ...) run inside quadrature integrands hundreds of
# thousands of times per pass and are left out, so their cost stays in the
# caller's self time.
TRACED = {
    "core": ("validate_theta", "theta_hash"),
    "quadrature": ("expect1", "expect2"),
    "moment_maps": ("preactivation_stats", "step_moments", "step_correlation", "moment_trajectory"),
    "lstm_cell_sampler": ("sample_cell_distribution", "correlated_cell_pairs", "advance_cell"),
    "fixed_point": ("solve_moments", "solve_correlation", "chi_at"),
    "jacobian": ("moments", "contribution_vector", "lstm_chi_frame"),
    "criticality": ("preset_init", "search_critical", "sweep_phase_diagram"),
    "simulator": (
        "simulate_pair",
        "build_jacobian",
        "jacobian_frame",
        "assemble_jacobian",
        "simulate_cell_distribution",
    ),
    "cli": ("run",),
}

# classmethods are wrapped on their class rather than in module namespaces
TRACED_CLASSMETHODS = {"simulator": (("SpectrumReport", "from_matrix"),)}

ROOT = "bench.op"


def swap_everywhere(replacements) -> list:
    """Rebind every rnnmf module attribute that is (by identity) a key of
    `replacements` to its value. Returns what `restore` needs to undo it."""
    by_id = {id(k): v for k, v in replacements.items()}
    saved = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "rnnmf" or name.startswith("rnnmf.")):
            continue
        for attr, value in list(vars(mod).items()):
            new = by_id.get(id(value))
            if new is not None:
                saved.append((mod, attr, value))
                setattr(mod, attr, new)
    return saved


def restore(saved) -> None:
    for owner, attr, value in reversed(saved):
        setattr(owner, attr, value)


class Tracer:
    """Records spans for calls into rnnmf while installed."""

    def __init__(self, fact_fns=None):
        # fact_fns maps "layer.function" to a callable (args, kwargs, result)
        # -> dict, stored with the span: counts read from arguments and results
        self._fact_fns = dict(fact_fns or {})
        self.names: list[str] = [ROOT]
        self.layers: list[str] = ["bench"]
        self._name_ids = {ROOT: 0}
        self.name = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("q")
        self.op = array.array("i")
        self.facts: dict[int, dict] = {}
        self._stack: list[int] = []
        self._op_index = -1
        self._saved: list = []

    # -- recording -----------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_index)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op_index: int):
        """Root span around one benchmark operation; op_index is the span
        identifier shared by every span the operation causes."""
        self._op_index = op_index
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def _name_id(self, layer: str, qualname: str) -> int:
        full = f"{layer}.{qualname}"
        if full not in self._name_ids:
            self._name_ids[full] = len(self.names)
            self.names.append(full)
            self.layers.append(layer)
        return self._name_ids[full]

    def _wrap(self, fn, layer: str, qualname: str, fact_fn=None):
        name_id = self._name_id(layer, qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if fact_fn is not None:
                tracer.facts[idx] = fact_fn(args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED function in every loaded rnnmf module."""
        import rnnmf.cli  # noqa: F401  (not imported by the package)

        originals = {}
        for layer, fnames in TRACED.items():
            mod = sys.modules[f"rnnmf.{layer}"]
            for fname in fnames:
                fn = getattr(mod, fname)
                fact = self._fact_fns.get(f"{layer}.{fname}")
                originals[fn] = self._wrap(fn, layer, fname, fact)
        self._saved = swap_everywhere(originals)
        for layer, pairs in TRACED_CLASSMETHODS.items():
            mod = sys.modules[f"rnnmf.{layer}"]
            for cls_name, meth in pairs:
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                fact = self._fact_fns.get(f"{layer}.{cls_name}.{meth}")
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, classmethod(self._wrap(raw.__func__, layer, f"{cls_name}.{meth}", fact)))

    def uninstall(self) -> None:
        restore(self._saved)
        self._saved = []

    # -- analysis ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name)

    def self_times_ns(self) -> list[int]:
        """Duration minus the summed durations of direct children."""
        n = len(self.name)
        out = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def write(self, path) -> None:
        """One JSON header line naming the columns, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "columns": ["name", "start_ns", "end_ns", "parent", "op"]}))
            fh.write("\n")
            for i in range(len(self.name)):
                fh.write(f"{self.name[i]},{self.start[i]},{self.end[i]},{self.parent[i]},{self.op[i]}\n")
