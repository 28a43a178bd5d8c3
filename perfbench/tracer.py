"""Outside-in layer tracing for the benchmark's traced run.

:class:`Tracer` wraps each layer's public entry points from the
benchmark's side (no file under ``src/`` changes).  Every wrapped call
is a span with a name, start, end and parent; spans stay in memory and
are written once, as Chrome trace-event JSON, when the run ends.  Per
span name the tracer also keeps the call count, busy time, and the
part of that time covered by child spans, from which self time
follows.

A wrapper is installed where the caller looks the attribute up: a
function imported by name is patched in the importing module, a method
on its class.  :data:`PATCHES` is that table.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.obs.timeline import chrome_trace

#: (owner, attribute, span name).  The owner is a module path, or
#: ``module:Class`` for a method.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.generators", "delaunay_planar_graph", "generators"),
    ("repro.core.framework", "run_framework", "core.framework"),
    ("repro.core.framework", "expander_decomposition",
     "decomposition.expander"),
    ("repro.core.framework", "gather_topology", "routing.gather"),
    ("repro.core.framework", "diameter_within", "core.failure"),
    ("repro.core.framework", "degree_condition_holds", "core.failure"),
    ("repro.routing.gather", "elect_leader", "routing.leader"),
    ("repro.routing.gather", "orient_low_out_degree", "routing.orientation"),
    ("repro.routing.gather", "walk_exchange", "routing.walk_exchange"),
    ("repro.decomposition.expander", "lambda2_and_fiedler",
     "spectral.eigensolve"),
    ("repro.decomposition.expander", "sweep_cut", "spectral.sweep_cut"),
    ("repro.decomposition.expander", "exact_conductance",
     "spectral.exact_conductance"),
    # Imported at call time inside routing.gather, so patched at home.
    ("repro.spectral.random_walk", "mixing_time_bound",
     "spectral.mixing_bound"),
    ("repro.graph:Graph", "subgraph", "graph.subgraph"),
    ("repro.congest.network:CongestSimulator", "__init__", "congest.init"),
    ("repro.congest.network:CongestSimulator", "run", "congest.run"),
    ("repro.congest.kernels:KernelBase", "step_round",
     "congest.kernels.step"),
    ("repro.congest.kernels:SendPlan", "account",
     "congest.kernels.plan_account"),
    ("repro.congest.faults:FaultInjector", "classify", "congest.faults"),
    ("repro.congest.faults:FaultInjector", "delay_rounds", "congest.faults"),
    ("repro.congest.faults:FaultInjector", "partitioned", "congest.faults"),
    ("repro.congest.faults:FaultInjector", "topology_live",
     "congest.faults"),
    ("repro.congest.faults:FaultInjector", "link_down", "congest.faults"),
    ("repro.congest.engine:FastEngine", "capture_checkpoint",
     "congest.checkpoint.capture"),
    ("repro.congest.checkpoint:SimulationCheckpoint", "save",
     "congest.checkpoint.save"),
    ("repro.congest.checkpoint:SimulationCheckpoint", "load",
     "congest.checkpoint.load"),
    ("repro.congest.checkpoint", "resume_simulation",
     "congest.checkpoint.resume"),
    ("repro.storage", "atomic_write_bytes", "storage.write"),
    ("repro.storage", "read_bytes", "storage.read"),
)

#: Called once per message on the faulty channel: aggregated only, so a
#: run does not hold millions of span records.
AGGREGATE_ONLY = frozenset({"congest.faults"})

class SpanStat:
    """Calls, busy time and child-covered time of one span name."""

    __slots__ = ("calls", "ns", "child_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0
        self.child_ns = 0


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStat] = {}
        self.extra: Counter = Counter()
        self.root_ns = 0
        #: Finished spans: (name, start_ns, end_ns, span id, parent id).
        self.spans: List[Tuple[str, int, int, int, int]] = []
        #: The telemetry registry of the pass being traced.
        self.registry = None
        # Open frames: [child ns, id of the nearest recorded span].
        self._stack: List[List[int]] = []
        self._next_id = 1
        self._hooks = {
            "routing.walk_exchange": (self._rounds_now, self._after_walk),
            "congest.checkpoint.save": (None, self._after_save),
            "storage.write": (None, self._after_write),
        }

    # -- recording -----------------------------------------------------
    def reset(self) -> None:
        """Zero the aggregates (the recorded spans are kept)."""
        for stat in self.stats.values():
            stat.calls = stat.ns = stat.child_ns = 0
        self.extra.clear()
        self.root_ns = 0

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, SpanStat())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        before, after = self._hooks.get(name, (None, None))

        if name in AGGREGATE_ONLY:
            def leaf(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat.calls += 1
                    stat.ns += elapsed
                    if stack:
                        stack[-1][0] += elapsed
                    else:
                        self.root_ns += elapsed
            return leaf

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            span_id = self._next_id
            self._next_id += 1
            frame = [0, span_id]
            stack.append(frame)
            state = before() if before is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat.calls += 1
                stat.ns += elapsed
                stat.child_ns += frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_ns += elapsed
                spans.append((name, start, end, span_id, parent))
            if after is not None:
                after(state, args, kwargs, result)
            return result
        return wrapper

    # -- per-layer counts gathered at the boundaries -------------------
    def _rounds_now(self) -> int:
        hist = self.registry.histograms.get("congest.active_vertices")
        return hist.count if hist is not None else 0

    def _after_walk(self, rounds_before, args, kwargs, result) -> None:
        self.extra["walk.executed_rounds"] += self._rounds_now() - rounds_before
        self.extra["walk.delivered"] += len(result.requests_delivered)
        self.extra["walk.tokens"] += (
            len(result.requests_delivered) + len(result.undelivered)
        )

    def _after_save(self, _state, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.extra["checkpoint.saves"] += 1
        self.extra["checkpoint.bytes"] += os.path.getsize(path)

    def _after_write(self, _state, args, kwargs, result) -> None:
        data = args[1] if len(args) > 1 else kwargs["data"]
        self.extra["storage.bytes"] += len(data)

    # -- installation --------------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every wrapper in :data:`PATCHES`; restore on exit."""
        saved: List[Tuple[Any, str, Any]] = []
        try:
            for owner, attr, name in PATCHES:
                target = _resolve(owner)
                raw = (
                    target.__dict__[attr] if isinstance(target, type)
                    else getattr(target, attr)
                )
                saved.append((target, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                setattr(target, attr, wrapped)
            yield self
        finally:
            for target, attr, raw in reversed(saved):
                setattr(target, attr, raw)

    # -- export --------------------------------------------------------
    def chrome(self) -> Dict[str, Any]:
        """The recorded spans as a Chrome trace-event object."""
        pid = os.getpid()
        events: List[Tuple[Tuple[int, int, int], Dict[str, Any]]] = []
        for name, start, end, _span_id, _parent in self.spans:
            # At equal timestamps ends sort before begins, an outer
            # begin before an inner one, and an inner end before an
            # outer one; chrome_trace's stable sort keeps this order.
            events.append(((start, 1, -end), {
                "ph": "B", "name": name, "ts_ns": start, "pid": pid,
                "tid": 0,
            }))
            events.append(((end, 0, -start), {
                "ph": "E", "name": name, "ts_ns": end, "pid": pid,
                "tid": 0,
            }))
        events.sort(key=lambda item: item[0])
        return chrome_trace([e for _key, e in events], process_label="perfbench")


def layer_metrics(tracer: Tracer, registry, pass_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``registry`` is the pass's ``telemetry_scope()`` registry: executed
    rounds and vertex-steps come from its ``congest.active_vertices``
    histogram (count and total), message and simulation counts and
    kernel engagement from its counters, and ``congest.collect.s`` from
    the program's own ``congest.collect`` span.
    """
    stats = tracer.stats
    extra = tracer.extra

    def busy(name: str) -> float:
        stat = stats.get(name)
        return stat.ns / 1e9 if stat else 0.0

    def self_time(name: str) -> float:
        stat = stats.get(name)
        return (stat.ns - stat.child_ns) / 1e9 if stat else 0.0

    def calls(name: str) -> int:
        stat = stats.get(name)
        return stat.calls if stat else 0

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    hist = registry.histograms.get("congest.active_vertices")
    executed = hist.count if hist is not None else 0
    vertex_steps = int(hist.total) if hist is not None else 0
    counters = registry.counters
    messages = int(counters.get("congest.messages", 0))
    collect_ns = sum(
        span.wall_ns for path, span in registry.spans.items()
        if path.rsplit("/", 1)[-1] == "congest.collect"
    )
    run_s = busy("congest.run")
    saves = extra["checkpoint.saves"]
    return {
        "routing.walk_exchange.s": busy("routing.walk_exchange"),
        "routing.walk_exchange.us_per_executed_round": ratio(
            busy("routing.walk_exchange"), extra["walk.executed_rounds"], 1e6
        ),
        "routing.walk_exchange.delivered_frac": ratio(
            extra["walk.delivered"], extra["walk.tokens"]
        ),
        "routing.leader.s": busy("routing.leader"),
        "routing.orientation.s": busy("routing.orientation"),
        "routing.gather.self_s": self_time("routing.gather"),
        "decomposition.expander.s": busy("decomposition.expander"),
        "decomposition.expander.self_s": self_time("decomposition.expander"),
        "spectral.eigensolve.s": busy("spectral.eigensolve"),
        "spectral.eigensolve.calls": calls("spectral.eigensolve"),
        "spectral.sweep_cut.s": busy("spectral.sweep_cut"),
        "spectral.exact_conductance.s": busy("spectral.exact_conductance"),
        "spectral.mixing_bound.s": busy("spectral.mixing_bound"),
        "graph.subgraph.s": busy("graph.subgraph"),
        "graph.subgraph.calls": calls("graph.subgraph"),
        "core.framework.self_s": self_time("core.framework"),
        "core.failure.s": busy("core.failure"),
        "congest.init.s": busy("congest.init"),
        "congest.run.s": run_s,
        "congest.run.self_s": self_time("congest.run"),
        "congest.collect.s": collect_ns / 1e9,
        "congest.simulations": int(counters.get("congest.simulations", 0)),
        "congest.executed_rounds": executed,
        "congest.skipped_rounds": max(
            0, int(counters.get("congest.rounds", 0)) - executed
        ),
        "congest.vertex_steps": vertex_steps,
        "congest.messages": messages,
        "congest.us_per_executed_round": ratio(run_s, executed, 1e6),
        "congest.ns_per_vertex_step": ratio(run_s, vertex_steps, 1e9),
        "congest.ns_per_message": ratio(run_s, messages, 1e9),
        "congest.kernels.engaged": int(
            counters.get("congest.kernel.engaged", 0)
        ),
        "congest.kernels.fallback": int(
            counters.get("congest.kernel.fallback", 0)
        ),
        "congest.kernels.step.s": busy("congest.kernels.step"),
        "congest.kernels.plan_account.s": busy("congest.kernels.plan_account"),
        "congest.faults.s": busy("congest.faults"),
        "congest.faults.decisions": calls("congest.faults"),
        "congest.checkpoint.capture.s": busy("congest.checkpoint.capture"),
        "congest.checkpoint.save.s": busy("congest.checkpoint.save"),
        "congest.checkpoint.load.s": busy("congest.checkpoint.load"),
        "congest.checkpoint.resume.s": busy("congest.checkpoint.resume"),
        "congest.checkpoint.mb": ratio(extra["checkpoint.bytes"], saves)
        / 2**20,
        "storage.write.s": busy("storage.write"),
        "storage.writes": calls("storage.write"),
        "storage.mb_written": extra["storage.bytes"] / 2**20,
        "trace.unattributed_frac": max(
            0.0, 1.0 - ratio(tracer.root_ns / 1e9, pass_wall_s)
        ),
    }


def layer_table(tracer: Tracer) -> List[Dict[str, Any]]:
    """Calls, busy and self seconds of every span name seen."""
    return [
        {
            "layer": name,
            "calls": stat.calls,
            "s": stat.ns / 1e9,
            "self_s": (stat.ns - stat.child_ns) / 1e9,
        }
        for name, stat in sorted(tracer.stats.items())
        if stat.calls
    ]
