"""Per-layer spans and counts for the traced run.

The program is not edited: :class:`Tracer` wraps public entry points of
each layer (module functions and class methods) for the duration of a
traced round, and restores the originals afterwards.  Every span is
kept in memory as an aggregate per name -- count, inclusive time and
self time (inclusive minus the time of spans nested inside it) -- plus
a bounded sample of raw spans carrying their parent and operation ids;
:meth:`Tracer.to_json` renders both as one document at the end of the
run.

Hot per-slot functions use a leaner *leaf* wrapper that keeps no stack
entry of its own (it only charges its time to the enclosing span), so
that tracing the slot loop does not swamp the loop itself.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Raw spans kept for the JSON document (aggregates cover the rest).
SPAN_SAMPLE_LIMIT = 2_000

_clock = time.perf_counter


class _Aggregate:
    __slots__ = ("count", "total", "self_time")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Span aggregates, counters and the patches that feed them."""

    def __init__(self) -> None:
        self.spans: Dict[str, _Aggregate] = {}
        self.counters: Dict[str, float] = {}
        self.sample: List[Dict[str, Any]] = []
        #: Identifier shared by the spans of one operation; sequential
        #: workloads advance it per operation (server-side spans of the
        #: admission workload keep the round's value).
        self.operation = 0
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._next_id = 0
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _aggregate(self, name: str) -> _Aggregate:
        aggregate = self.spans.get(name)
        if aggregate is None:
            with self._lock:
                aggregate = self.spans.setdefault(name, _Aggregate())
        return aggregate

    def record(self, name: str, elapsed: float) -> None:
        """Account a span measured elsewhere (e.g. client-side latency)."""
        aggregate = self._aggregate(name)
        with self._lock:
            aggregate.count += 1
            aggregate.total += elapsed
            aggregate.self_time += elapsed

    def span(self, name: str, func: Callable) -> Callable:
        """Wrap ``func`` in a span with parent/child bookkeeping."""
        tracer = self
        aggregate = self._aggregate(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            with tracer._lock:
                span_id = tracer._next_id
                tracer._next_id += 1
            parent = stack[-1][0] if stack else None
            entry = [span_id, 0.0]
            stack.append(entry)
            start = _clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                with tracer._lock:
                    aggregate.count += 1
                    aggregate.total += elapsed
                    aggregate.self_time += elapsed - entry[1]
                    if len(tracer.sample) < SPAN_SAMPLE_LIMIT:
                        tracer.sample.append(
                            {
                                "id": span_id,
                                "parent": parent,
                                "name": name,
                                "operation": tracer.operation,
                                "start": start,
                                "end": start + elapsed,
                            }
                        )

        return traced

    def leaf(self, name: str, func: Callable) -> Callable:
        """Cheap wrapper for per-slot calls: no stack entry, no sample."""
        tracer = self
        aggregate = self._aggregate(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = _clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack = getattr(tracer._local, "stack", None)
                if stack:
                    stack[-1][1] += elapsed
                aggregate.count += 1
                aggregate.total += elapsed
                aggregate.self_time += elapsed

        return traced

    # -- patching -----------------------------------------------------------

    def patch_function(
        self, module_name: str, attribute: str, span_name: str, *,
        everywhere: bool = True, wrapper: Optional[Callable[[Callable], Callable]] = None,
    ) -> None:
        """Wrap a module-level function wherever it is bound.

        ``everywhere`` also replaces the same function object in every
        loaded ``repro`` module that imported it by name, so callers that
        did ``from module import function`` are traced too.
        """
        module = sys.modules[module_name]
        original = getattr(module, attribute)
        inner = wrapper(original) if wrapper is not None else original
        traced = self.span(span_name, inner)
        targets = [module]
        if everywhere:
            targets = [
                loaded
                for name, loaded in sorted(sys.modules.items())
                if name.split(".")[0] == "repro" and loaded is not None
            ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patches.append((target, key, original))
                    setattr(target, key, traced)

    def patch_method(
        self, cls: type, attribute: str, span_name: str, *, leaf: bool = False,
        wrapper: Optional[Callable[[Callable], Callable]] = None,
    ) -> None:
        """Wrap a method on ``cls`` (instances created later see it)."""
        original = cls.__dict__[attribute]
        inner = wrapper(original) if wrapper is not None else original
        self._patches.append((cls, attribute, original))
        setattr(cls, attribute, (self.leaf if leaf else self.span)(span_name, inner))

    def unpatch(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches = []

    # -- reporting ----------------------------------------------------------

    def total_ms(self, name: str) -> float:
        aggregate = self.spans.get(name)
        return 1e3 * aggregate.total if aggregate is not None else 0.0

    def calls(self, name: str) -> int:
        aggregate = self.spans.get(name)
        return aggregate.count if aggregate is not None else 0

    def to_json(self) -> Dict[str, Any]:
        return {
            "spans": {
                name: {
                    "count": aggregate.count,
                    "total_ms": 1e3 * aggregate.total,
                    "self_ms": 1e3 * aggregate.self_time,
                }
                for name, aggregate in sorted(self.spans.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "span_sample": self.sample,
        }
