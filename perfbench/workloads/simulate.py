"""``simulate``: run designed systems on the hypervisor model.

Set-up synthesizes ``BASES`` schedulable sparse systems (low-to-moderate
utilization, two Ethernet devices each).  One operation is one
``repro.api.simulate`` call over ``HORIZON`` slots of a system that no
earlier operation of the run simulated: a base system with a seeded,
never-repeated subset of its run-time tasks, on the base's servers (a
subset of an accepted task set stays accepted).  Building the variant
is input preparation and is not timed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import checker
import inputs
from common import BaseWorkload, RoundResult, op_clock, require
from repro import api
from repro.sim.trace import TraceRecorder
from tracing import Tracer

BASES = 24
HORIZON = 6_000
WARMUP_HORIZON = 1_000
#: Chance that a run-time task stays in a variant; a kept task keeps a
#: seeded WCET between half and all of its own (smaller WCETs keep an
#: accepted system accepted).
KEEP = 0.75
#: A base needs this many distinct variants so a run never exhausts
#: them (a 20-second run uses about 25 per base).
MIN_VARIANTS = 512
VARIANT_ATTEMPTS = 1_000

_clock = op_clock


def released_jobs(task, horizon: int) -> Tuple[int, int]:
    """(jobs released before ``horizon``, jobs due by ``horizon``)."""
    releases = range(task.offset, horizon, task.period)
    due = sum(1 for release in releases if release + task.deadline <= horizon)
    return len(releases), due


class Workload(BaseWorkload):
    name = "simulate"

    def setup(self) -> None:
        self.bases: List[Tuple[api.System, List[api.IOTask]]] = []
        index = 0
        while len(self.bases) < BASES:
            config = inputs.sparse_config(self.seed, "base", index, vms=2 + index % 2)
            index += 1
            variants = 1
            for task in config.tasks:
                if task.kind == api.TaskKind.RUNTIME:
                    variants *= 2 + task.wcet - max(1, task.wcet // 2)
            if variants - 1 < MIN_VARIANTS:
                continue
            system = api.build_system(config)
            if api.analyze(system).schedulable:
                self.bases.append((system, list(config.tasks)))
        self.seen = set()
        self.pending: List[Tuple[api.System, Any]] = []
        warm = self._variant(0, "warm")
        api.simulate(warm, WARMUP_HORIZON)

    def _variant(self, base_index: int, label: object) -> api.System:
        system, tasks = self.bases[base_index]
        runtime = [task for task in tasks if task.kind == api.TaskKind.RUNTIME]
        rng = inputs.stream("variant", self.seed, label, base_index)
        for _attempt in range(VARIANT_ATTEMPTS):
            kept = [
                api.IOTask(
                    name=task.name,
                    period=task.period,
                    wcet=rng.randint(max(1, task.wcet // 2), task.wcet),
                    deadline=task.deadline,
                    vm_id=task.vm_id,
                    device=task.device,
                    payload_bytes=task.payload_bytes,
                )
                for task in runtime
                if rng.random() < KEEP
            ]
            key = (base_index, tuple((task.name, task.wcet) for task in kept))
            if kept and key not in self.seen:
                break
        else:
            raise RuntimeError(f"base {base_index} ran out of unseen variants")
        self.seen.add(key)
        predefined = [task for task in tasks if task.kind == api.TaskKind.PREDEFINED]
        config = api.SystemConfig(
            tasks=predefined + kept,
            name=f"{system.config.name}.{label}",
            servers=[
                api.ServerConfig(spec.vm_id, pi=spec.pi, theta=spec.theta)
                for spec in system.servers
            ],
        )
        return api.build_system(config)

    def run_round(self, index: int, tracer: Optional[Tracer]) -> RoundResult:
        result = RoundResult()
        for base_index in range(BASES):
            system = self._variant(base_index, index)
            recorder = TraceRecorder(enabled=False) if tracer is not None else None
            result.attempted += 1
            if tracer is not None:
                tracer.operation += 1
            start = _clock()
            try:
                report = api.simulate(system, HORIZON, trace=recorder)
            except Exception as exc:  # an operation that raises has failed
                result.failed += 1
                self.last_error = repr(exc)
                continue
            elapsed = _clock() - start
            result.busy += elapsed
            result.latencies.append(elapsed)
            self.pending.append((system, report))
            if recorder is not None:
                devices = len({task.device for task in system.tasks})
                busy = recorder.counters.get("pchannel.fire", 0) + recorder.counters.get(
                    "rchannel.dispatch", 0
                ) + recorder.counters.get("rchannel.burn", 0)
                tracer.count("core.busy_slots", busy)
                tracer.count("core.idle_slots", devices * HORIZON - busy)
                tracer.count("core.slots", devices * HORIZON)
                tracer.count("core.slot_loop_ms", 1e3 * elapsed)
        return result

    def check_round(self, index: int) -> None:
        for system, report in self.pending:
            name = system.config.name
            vm_tasks = {
                vm: inputs.triples(tasks)
                for vm, tasks in system.tasks.runtime().by_vm().items()
            }
            servers = {spec.vm_id: (spec.pi, spec.theta) for spec in system.servers}
            verdict = checker.design_verdict(
                system.table.occupancy_pattern(), servers, vm_tasks
            )[0]
            require(verdict, f"{name}: variant of an accepted system is rejected")
            require(
                report.deadline_misses == 0,
                f"{name}: {report.deadline_misses} deadline misses on an "
                f"analysis-accepted system ({report.missed_jobs[:3]})",
            )
            released = due = 0
            for task in list(system.predefined) + list(system.tasks.runtime()):
                task_released, task_due = released_jobs(task, HORIZON)
                released += task_released
                due += task_due
            require(
                due <= report.completed <= released,
                f"{name}: {report.completed} jobs completed, expected between "
                f"{due} (due by the horizon) and {released} (released)",
            )
        self.pending = []

    def finish(self, tracer: Optional[Tracer]) -> Dict[str, Any]:
        return {"slots_per_op": HORIZON * len(inputs.DEVICES)}
