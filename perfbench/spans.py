"""Span tracer that wraps the package's public callables from outside.

Each listed callable is replaced, for the length of one traced repeat, by a
wrapper that records a span (name, start, end, parent span) and adds the
span's self time (its duration minus the time of its traced children) to
its name. Module-level functions are replaced under every name a package
module binds them to, so ``fogplace.cli.run_compare`` and
``fogplace.experiment.run_compare`` are both traced; methods are replaced
on their class. Private helpers are not wrapped, so their time shows as the
self time of the public callable that called them.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# layer (package module) -> public callables traced in that layer
LAYERS: dict[str, tuple[str, ...]] = {
    "model": ("load_bucket", "save_bucket", "validate_bucket", "Placement.assign"),
    "scoring": ("with_priorities",),
    "costs": (
        "CostContext.from_bucket", "CostContext.fn_step_cost",
        "placement_step_cost_sum", "bucket_objective", "bucket_step_cost",
    ),
    "workload": ("generate_bucket", "generate_sweep"),
    "env": (
        "PlacementEnv.__init__", "PlacementEnv.reset", "PlacementEnv.step",
        "PlacementEnv.record",
    ),
    "agent": (
        "train", "select_action", "ValueNetwork.forward", "ValueNetwork.gradient",
        "ValueNetwork.apply_gradients", "ValueNetwork.copy", "ReplayBuffer.push",
        "ReplayBuffer.sample", "greedy_rollout", "ValueNetwork.save", "ValueNetwork.load",
    ),
    "baselines": (
        "fog_first", "cloud_only", "random_feasible", "greedy_cost", "brute_force_optimum",
    ),
    "metrics": ("report", "report_row"),
    "experiment": (
        "run_compare", "run_placement", "aggregate_rows", "write_detail_csv",
        "write_mean_csv",
    ),
    "cli": ("main", "cmd_generate", "cmd_train", "cmd_compare", "cmd_oracle", "cmd_validate"),
}

ROOT_SPAN = "bench.job"


def span_names() -> list[str]:
    """Every span name the tracer can report, in table order.

    ``ValueNetwork.forward`` is split by input rank into ``forward_b1``
    (one state) and ``forward_batch``; ``__init__`` is reported as ``init``.
    """
    names = []
    for layer, callables in LAYERS.items():
        for dotted in callables:
            if dotted == "ValueNetwork.forward":
                names += [f"{layer}.ValueNetwork.forward_b1", f"{layer}.ValueNetwork.forward_batch"]
            else:
                names.append(f"{layer}.{dotted.replace('__init__', 'init')}")
    return names


# counters and ratios derived from span counts or from arguments seen at the
# boundary; they are reported next to the spans
DERIVED = (
    ("env.steps", "count", "lower"),
    ("env.free_decision_ratio", "ratio", "higher"),
    ("agent.forward_ratio", "ratio", "lower"),
    ("agent.learn_per_step", "ratio", "lower"),
    ("baselines.oracle_placements", "count", "lower"),
)

# figures about the trace itself
TRACE_FIGURES = (
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.self_sum_share", "ratio", "higher"),
    ("bench.job.self_ms", "ms", "lower"),
)


def per_layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    specs = []
    for name in span_names():
        specs.append((f"{name}.calls", "count", "lower"))
        specs.append((f"{name}.self_ms", "ms", "lower"))
    return specs + list(DERIVED) + list(TRACE_FIGURES)


class Tracer:
    """Records spans for one traced repeat; install before it, uninstall after."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {"env.free_steps": 0}
        self.absent: list[str] = []
        self._names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list[list[int]] = []  # [span index, child ns]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _record(self, name: str, fn, args, kwargs):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self._names)
            self._names.append(name)
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_start.append(0)
        self.span_end.append(0)
        self.span_parent.append(stack[-1][0] if stack else -1)
        frame = [idx, 0]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            duration = end - start
            self.span_start[idx] = start
            self.span_end[idx] = end
            self.self_ns[name] = self.self_ns.get(name, 0) + duration - frame[1]
            self.calls[name] = self.calls.get(name, 0) + 1
            if stack:
                stack[-1][1] += duration

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the given name (used for the root span)."""
        return self._record(name, fn, args, kwargs)

    def _wrap(self, name: str, fn):
        tracer = self
        if name.endswith(".forward"):
            b1, batch = name + "_b1", name + "_batch"

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                x = args[1] if len(args) > 1 else kwargs.get("x")
                rank = x.ndim if hasattr(x, "ndim") else np.ndim(x)
                return tracer._record(b1 if rank == 1 else batch, fn, args, kwargs)
            return traced
        if name.endswith(".PlacementEnv.step"):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                mask = getattr(args[1] if len(args) > 1 else kwargs.get("state"), "mask", None)
                if mask is not None and all(mask):
                    tracer.counts["env.free_steps"] += 1
                return tracer._record(name, fn, args, kwargs)
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._record(name, fn, args, kwargs)
        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "fogplace" or key.startswith("fogplace."))]
        for layer, callables in LAYERS.items():
            module = sys.modules.get(f"fogplace.{layer}")
            for dotted in callables:
                name = f"{layer}.{dotted.replace('__init__', 'init')}"
                if module is None:
                    self.absent.append(name)
                    continue
                if "." in dotted:
                    self._install_method(module, dotted, name)
                else:
                    self._install_function(modules, module, dotted, name)

    def _install_method(self, module, dotted: str, name: str) -> None:
        cls_name, attr = dotted.split(".")
        cls = getattr(module, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            self.absent.append(name)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(name, raw.__func__))
        else:
            wrapped = self._wrap(name, raw)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _install_function(self, modules, module, attr: str, name: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            self.absent.append(name)
            return
        wrapped = self._wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------
    def figures(self, oracle_placements: int) -> dict[str, float]:
        """Per-span calls and self ms, plus the derived counters and ratios."""
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_ms"] = self.self_ns.get(name, 0) / 1e6
        steps = self.calls.get("env.PlacementEnv.step", 0)
        selects = self.calls.get("agent.select_action", 0)
        out["env.steps"] = steps
        out["env.free_decision_ratio"] = self.counts["env.free_steps"] / steps if steps else 0.0
        out["agent.forward_ratio"] = (
            self.calls.get("agent.ValueNetwork.forward_b1", 0) / selects if selects else 0.0
        )
        out["agent.learn_per_step"] = (
            self.calls.get("agent.ValueNetwork.gradient", 0) / steps if steps else 0.0
        )
        out["baselines.oracle_placements"] = oracle_placements
        out["bench.job.self_ms"] = self.self_ns.get(ROOT_SPAN, 0) / 1e6
        return out

    def self_sum_ms(self) -> float:
        return sum(self.self_ns.values()) / 1e6

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV: index, name, start_ns, end_ns, parent."""
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            base = self.span_start[0] if self.span_start else 0
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i},{self._names[self.span_name[i]]},{self.span_start[i] - base},"
                    f"{self.span_end[i] - base},{self.span_parent[i]}\n"
                )
