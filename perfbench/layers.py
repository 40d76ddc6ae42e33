"""Per-layer tracing installed from outside the program.

:func:`install` wraps the coarse public entry points of each layer (listed in
:data:`LAYERS`) after ``repro`` is imported.  A wrapped function is rebound
in every ``repro`` module namespace (and module-level dict, such as
``TOPOLOGY_BUILDERS``) that holds it, because modules that imported the name
directly -- ``balanced_completion_times`` in both ``repro.service.cluster``
and ``repro.fleet.engine`` -- keep their own reference.  Methods are wrapped
on their class.  Hot inner calls (``SetAssociativeCache.fill`` runs millions
of times) are never wrapped.

A layer's self time is its wrapper's duration minus the time spent inside
nested wrappers.  Work counts are read from arguments and results after the
wrapped call returns; that reading is charged to no layer.  Spans stay in
memory until the sample ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _warm_fills(args, result, before) -> "dict[str, int]":
    system = args[0]
    return {
        "sim.warm.fills": sum(
            bank.resident_lines + bank.stats.evictions for bank in system.banks
        )
    }


def _window_stats(args, result, before) -> "dict[str, int]":
    return {
        "sim.instructions": result.instructions,
        "sim.llc_accesses": result.llc_accesses,
        "sim.llc_misses": result.llc_misses,
    }


def _events_before(args) -> int:
    return args[0].processed


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point.

    Attributes:
        name: layer name; its self time is reported as ``<name>.self_s``.
        module: module defining the target.
        target: ``function`` or ``Class.method`` inside ``module``.
        count: ``(args, result, before) -> {count metric: increment}``.
        before: ``args -> state`` read just before the call, for ``count``.
    """

    name: str
    module: str
    target: str
    count: "Callable[[tuple, object, object], dict[str, int]] | None" = None
    before: "Callable[[tuple], object] | None" = None


LAYERS = (
    # Self time of simulate_system is mostly freeing the simulated system.
    Layer("sim.simulate", "repro.sim.system", "simulate_system"),
    Layer("sim.build", "repro.sim.system", "SimulatedSystem.__init__"),
    Layer("sim.warm_caches", "repro.sim.system", "SimulatedSystem.warm_caches", _warm_fills),
    Layer("sim.window", "repro.sim.system", "SimulatedSystem.run", _window_stats),
    Layer(
        "workloads.trace_gen",
        "repro.workloads.traces",
        "SyntheticTraceGenerator.events_for_core",
        lambda args, result, before: {"workloads.trace_events": len(result)},
    ),
    Layer("perfmodel.validate", "repro.perfmodel.validation", "validate_against"),
    Layer("runtime.executor", "repro.runtime.executor", "SweepExecutor.map"),
    Layer("noc.topology", "repro.noc.topology", "build_mesh"),
    Layer("noc.topology", "repro.noc.topology", "build_flattened_butterfly"),
    Layer("noc.topology", "repro.noc.topology", "build_nocout"),
    Layer("noc.topology", "repro.noc.fastpath", "compile_topology"),
    Layer("noc.traffic", "repro.noc.traffic", "generate_bilateral_batch"),
    Layer(
        "noc.run_batch",
        "repro.noc.network",
        "NocNetwork.run_batch",
        lambda args, result, before: {"noc.packets": len(args[1])},
    ),
    Layer("fleet.traffic", "repro.fleet.traffic", "generate_chunk"),
    Layer("fleet.routing", "repro.fleet.routing", "route_demand"),
    Layer("fleet.histogram", "repro.fleet.metrics", "LatencyHistogram.add_batch"),
    Layer(
        "fleet.day",
        "repro.fleet.engine",
        "FleetSimulation.run",
        lambda args, result, before: {
            "fleet.requests": result.total_requests,
            "fleet.chunks": len(result.epoch_stats),
        },
    ),
    Layer(
        "service.jsq_kernel",
        "repro.service.cluster",
        "balanced_completion_times",
        lambda args, result, before: {"service.jsq_kernel.requests": len(args[0])},
    ),
    Layer("service.fcfs_kernel", "repro.service.cluster", "fcfs_completion_times"),
    Layer("service.cluster", "repro.service.cluster", "ClusterSimulation.run"),
    Layer("faults.schedule", "repro.faults.generator", "FaultLoadGenerator.schedule"),
    Layer("faults.inject", "repro.faults.inject", "run_faulted"),
    Layer(
        "sim.engine",
        "repro.sim.engine",
        "EventQueue.run",
        lambda args, result, before: {"sim.engine.events": args[0].processed - before},
        _events_before,
    ),
)

#: Count metrics, each the sum of its layer's increments.
COUNTS = (
    "sim.warm.fills",
    "sim.instructions",
    "sim.llc_accesses",
    "sim.llc_misses",
    "workloads.trace_events",
    "noc.packets",
    "fleet.requests",
    "fleet.chunks",
    "service.jsq_kernel.requests",
    "sim.engine.events",
)

#: ``ratio metric -> (layer, count)``: the layer's self time per counted unit, in ns.
RATIOS = {
    "sim.warm.ns_per_fill": ("sim.warm_caches", "sim.warm.fills"),
    "sim.window.ns_per_llc_access": ("sim.window", "sim.llc_accesses"),
    "noc.run_batch.ns_per_packet": ("noc.run_batch", "noc.packets"),
    "service.jsq_kernel.ns_per_request": ("service.jsq_kernel", "service.jsq_kernel.requests"),
    "sim.engine.ns_per_event": ("sim.engine", "sim.engine.events"),
}

#: Per-run metrics derived from a traced and an untraced sample set.
BENCH_METRICS = ("bench.unattributed_s", "bench.trace_overhead_pct")

#: Every layer's name, in first-listed order.
LAYER_NAMES = tuple(dict.fromkeys(layer.name for layer in LAYERS))


class Tracer:
    """Accumulates self time, counts and spans of the wrapped calls."""

    def __init__(self) -> None:
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.counts: "dict[str, int]" = defaultdict(int)
        #: ``(layer, start, end, depth)`` in completion order.
        self.spans: "list[tuple[str, float, float, int]]" = []
        #: Time spent reading counts after wrapped calls (charged to no layer).
        self.hook_s = 0.0
        self._stack: "list[list[float]]" = []

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        """``fn`` timed as ``layer``, nesting under any enclosing wrapper."""
        perf_counter = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = layer.before(args) if layer.before is not None else None
            child_s = [0.0]
            stack.append(child_s)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self.self_s[layer.name] += elapsed - child_s[0]
                self.spans.append((layer.name, start, end, len(stack)))
                if stack:
                    stack[-1][0] += elapsed
            if layer.count is not None:
                for key, value in layer.count(args, result, before).items():
                    self.counts[key] += value
                hook_s = perf_counter() - end
                self.hook_s += hook_s
                if stack:
                    stack[-1][0] += hook_s
            return result

        return wrapper

    def metrics(self, wall_s: float) -> "dict[str, float]":
        """Self time per layer, counts, ratios and unattributed time of one sample."""
        out: "dict[str, float]" = {
            f"{name}.self_s": self.self_s.get(name, 0.0) for name in LAYER_NAMES
        }
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        for name, (layer, count) in RATIOS.items():
            units = self.counts.get(count, 0)
            out[name] = self.self_s.get(layer, 0.0) / units * 1e9 if units else 0.0
        out["bench.unattributed_s"] = wall_s - sum(self.self_s.values()) - self.hook_s
        return out


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every ``repro`` module global and module-level dict at ``wrapped``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
            elif type(value) is dict:
                for item_key, item in list(value.items()):
                    if item is original:
                        value[item_key] = wrapped


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`LAYERS` with ``tracer``."""
    for layer in LAYERS:
        module = importlib.import_module(layer.module)
        owner_name, _, attr = layer.target.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, attr, tracer.wrap(layer, owner.__dict__[attr]))
        else:
            original = getattr(module, attr)
            _rebind(original, tracer.wrap(layer, original))


def chrome_trace(spans: "list[list]", origin: float) -> "dict[str, object]":
    """Spans as a Chrome trace-event document (microseconds from ``origin``)."""
    return {
        "traceEvents": [
            {
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"depth": depth},
            }
            for name, start, end, depth in spans
        ]
    }
