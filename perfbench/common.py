"""Shared pieces of the workloads: round results, checks, layer tracing."""

from __future__ import annotations

import dataclasses
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from tracing import Tracer


#: The clock of every timed operation: CPU time of the calling thread.
#: This host is a virtual machine on a shared machine, and wall time
#: there includes the time the hypervisor gives other tenants (steal
#: time, up to 22 % of 0.3-s intervals on the reference host in the
#: README); CPU time leaves it out.  ``design``, ``simulate`` and ``casestudy`` run every
#: operation on the calling thread; ``admission`` adds the server thread
#: and the shard workers (see ``workloads/admission.py``).
op_clock = time.thread_time


class CheckFailure(RuntimeError):
    """An output the reference checker (or a method property) rejects."""


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailure` unless ``condition`` holds."""
    if not condition:
        raise CheckFailure(message)


@dataclass
class RoundResult:
    """One round: per-operation latencies (s) of the operations that
    succeeded, the measured host time, and the operation accounting."""

    latencies: List[float] = field(default_factory=list)
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0


#: Every per-layer metric with its unit; each traced run reports all of
#: them (0 where the workload does not reach the layer).  Times are per
#: operation of the traced rounds unless the name says otherwise.
LAYER_UNITS: Dict[str, str] = {
    "api.build_system_ms": "ms/op",
    "api.analyze_ms": "ms/op",
    "api.simulate_ms": "ms/op",
    "synth.servers_ms": "ms/op",
    "synth.table_ms": "ms/op",
    "synth.oracle_calls": "count/op",
    "synth.nodes_expanded": "count/op",
    "synth.pruned_nodes": "count/op",
    "synth.rounds": "count/op",
    "analysis.lsched_batch_ms": "ms/op",
    "analysis.gsched_batch_ms": "ms/op",
    "analysis.lanes": "count/op",
    "analysis.decided_early": "count/op",
    "analysis.fallback_lanes": "count/op",
    "analysis.grids_built": "count/op",
    "analysis.grids_shared": "count/op",
    "analysis.grids_tiled": "count/op",
    "analysis.cache_hit_ratio": "ratio",
    "core.gsched_tick_ms": "ms/op",
    "core.pchannel_ms": "ms/op",
    "core.rchannel_ms": "ms/op",
    "core.submit_ms": "ms/op",
    "core.host_us_per_slot": "us/slot",
    "core.busy_slots": "slots/op",
    "core.idle_slots": "slots/op",
    "core.admit_ms": "ms/admit",
    "baselines.trial_ms.legacy": "ms/trial",
    "baselines.trial_ms.rt-xen": "ms/trial",
    "baselines.trial_ms.bv": "ms/trial",
    "baselines.trial_ms.ioguard-40": "ms/trial",
    "baselines.trial_ms.ioguard-70": "ms/trial",
    "baselines.prepare_workload_ms": "ms/op",
    "serve.parse_ms": "ms/op",
    "serve.encode_ms": "ms/op",
    "serve.shard_rpc_ms": "ms/op",
    "serve.epoch_batch_ms": "ms/batch",
    "serve.epoch_wait_ms": "ms/analyze",
    "serve.requests_per_batch": "req/batch",
    "obs.trace_overhead": "ratio",
}

#: (metric, span) pairs reported as span time per operation.
_PER_OP_SPANS = (
    ("api.build_system_ms", "api.build_system"),
    ("api.analyze_ms", "api.analyze"),
    ("api.simulate_ms", "api.simulate"),
    ("synth.servers_ms", "synth.servers"),
    ("synth.table_ms", "synth.table"),
    ("analysis.lsched_batch_ms", "analysis.lsched_batch"),
    ("analysis.gsched_batch_ms", "analysis.gsched_batch"),
    ("core.gsched_tick_ms", "core.gsched_tick"),
    ("core.pchannel_ms", "core.pchannel"),
    ("core.rchannel_ms", "core.rchannel"),
    ("core.submit_ms", "core.submit"),
    ("baselines.prepare_workload_ms", "baselines.prepare_workload"),
    ("serve.parse_ms", "serve.parse"),
    ("serve.encode_ms", "serve.encode"),
    ("serve.shard_rpc_ms", "serve.shard_rpc"),
)

#: Counters reported per operation.
_PER_OP_COUNTERS = (
    "synth.oracle_calls",
    "synth.nodes_expanded",
    "synth.pruned_nodes",
    "synth.rounds",
    "analysis.lanes",
    "analysis.decided_early",
    "analysis.fallback_lanes",
    "analysis.grids_built",
    "analysis.grids_shared",
    "analysis.grids_tiled",
    "core.busy_slots",
    "core.idle_slots",
)

BATCH_FIELDS = (
    "lanes",
    "decided_early",
    "fallback_lanes",
    "grids_built",
    "grids_shared",
    "grids_tiled",
)


def _with_batch_stats(tracer: Tracer, func):
    """Hand the batch entry point a ``BatchStats`` and count its fields."""
    from repro.analysis.batched import BatchStats

    def call(requests, *args: Any, stats: Optional[Any] = None, **kwargs: Any):
        own = stats if stats is not None else BatchStats()
        before = dataclasses.asdict(own)
        result = func(requests, *args, stats=own, **kwargs)
        for name in BATCH_FIELDS:
            tracer.count(f"analysis.{name}", getattr(own, name) - before[name])
        return result

    return call


def install_layer_tracing(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    import repro.api  # noqa: F401 -- loads every layer module
    from repro.core.gsched import GlobalScheduler
    from repro.core.pchannel import PChannel
    from repro.core.rchannel import RChannel
    from repro.serve.shard import ShardHandle

    tracer.patch_function("repro.api", "build_system", "api.build_system")
    tracer.patch_function("repro.api", "analyze", "api.analyze")
    tracer.patch_function("repro.api", "simulate", "api.simulate")
    tracer.patch_function("repro.synth.servers", "synthesize_servers", "synth.servers")
    tracer.patch_function("repro.synth.table", "synthesize_table", "synth.table")
    for kind in ("lsched", "gsched"):
        tracer.patch_function(
            "repro.analysis.batched",
            f"{kind}_schedulable_batch",
            f"analysis.{kind}_batch",
            wrapper=lambda func: _with_batch_stats(tracer, func),
        )
    tracer.patch_method(GlobalScheduler, "tick", "core.gsched_tick", leaf=True)
    tracer.patch_method(PChannel, "execute_slot", "core.pchannel", leaf=True)
    tracer.patch_method(RChannel, "execute_slot", "core.rchannel", leaf=True)
    tracer.patch_method(RChannel, "submit", "core.submit", leaf=True)
    tracer.patch_function(
        "repro.baselines.base", "prepare_workload", "baselines.prepare_workload"
    )
    # Server-side framing only: the client module binds its own copies.
    for attribute in ("decode_message", "validate_request"):
        tracer.patch_function(
            "repro.serve.server", attribute, "serve.parse", everywhere=False
        )
    tracer.patch_function(
        "repro.serve.server", "encode_message", "serve.encode", everywhere=False
    )
    tracer.patch_method(ShardHandle, "call", "serve.shard_rpc")


def clear_memo_caches() -> None:
    """Empty every module-level memo cache of the loaded ``repro`` modules."""
    from repro.analysis.cache import clear_caches

    clear_caches()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for value in list(vars(module).values()):
            if (
                not isinstance(value, type)
                and hasattr(value, "cache_info")
                and callable(getattr(value, "cache_clear", None))
            ):
                value.cache_clear()


def cache_totals() -> Dict[str, int]:
    from repro.analysis.cache import cache_stats

    stats = cache_stats()
    return {
        "hits": sum(entry["hits"] for entry in stats.values()),
        "misses": sum(entry["misses"] for entry in stats.values()),
    }


class BaseWorkload:
    """Defaults shared by the four workloads."""

    #: The last failed operation's error, for the run's stderr summary.
    last_error: Optional[str] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._cache_before: Dict[str, int] = {}

    def begin_trace(self, tracer: Tracer) -> None:
        self._cache_before = cache_totals()
        install_layer_tracing(tracer)

    def end_trace(self, tracer: Tracer) -> None:
        tracer.unpatch()
        after = cache_totals()
        for key in ("hits", "misses"):
            tracer.count(f"cache.{key}", after[key] - self._cache_before[key])

    def finish(self, tracer: Optional[Tracer]) -> Dict[str, Any]:
        return {}

    def child_pids(self) -> List[int]:
        return []

    def close(self) -> None:
        pass

    def layer_metrics(self, tracer: Tracer, ops: int) -> Dict[str, float]:
        ops = max(1, ops)
        metrics = {name: 0.0 for name in LAYER_UNITS}
        for metric, span in _PER_OP_SPANS:
            metrics[metric] = tracer.total_ms(span) / ops
        for counter in _PER_OP_COUNTERS:
            metrics[counter] = tracer.counters.get(counter, 0) / ops
        lookups = tracer.counters.get("cache.hits", 0) + tracer.counters.get(
            "cache.misses", 0
        )
        if lookups:
            metrics["analysis.cache_hit_ratio"] = (
                tracer.counters.get("cache.hits", 0) / lookups
            )
        slots = tracer.counters.get("core.slots", 0)
        if slots:
            metrics["core.host_us_per_slot"] = (
                1e3 * tracer.counters.get("core.slot_loop_ms", 0) / slots
            )
        return metrics
