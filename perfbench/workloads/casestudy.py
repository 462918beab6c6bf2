"""``casestudy``: Fig. 7 sweep trials against the baselines.

One operation is one trial, run through
``repro.exp.fig7.run_sweep_cell`` on a one-trial cell of the 8-VM
group: workload padding and release draws, then one system's
``run_trial``.  A round is every system of Fig. 7 (Legacy, RT-Xen,
BV, I/O-GUARD-40, I/O-GUARD-70) at every utilization of the upper half
of the sweep; each round draws fresh workloads (its own cell seed).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from common import BaseWorkload, RoundResult, op_clock, require
from repro.baselines import IOVirtSystem
from repro.baselines.ioguard_system import IOGuardSystem
from repro.exp.fig7 import DEFAULT_UTILIZATIONS, SweepCell, default_systems, run_sweep_cell
from tracing import Tracer

VM_COUNT = 8
HORIZON = 5_000
UTILIZATIONS = DEFAULT_UTILIZATIONS[len(DEFAULT_UTILIZATIONS) // 2 :]
#: Cell seeds of timed rounds are ``seed * SEED_STRIDE + round``;
#: warm-up cells use offsets from ``WARM_OFFSET``, which no round reaches.
SEED_STRIDE = 1_000_003
WARM_OFFSET = 900_000

_clock = op_clock


class RecordingSystem(IOVirtSystem):
    """Delegates to a Fig. 7 system and keeps its last trial's input,
    output and ``run_trial`` time for the checks and the trace."""

    def __init__(self, inner: IOVirtSystem) -> None:
        self.inner = inner
        self.name = inner.name
        self.last: Any = None

    def run_trial(self, workload, rng):
        start = _clock()
        result = self.inner.run_trial(workload, rng)
        self.last = (workload, result, _clock() - start)
        return result


def check_trial(system: IOVirtSystem, workload, result, point) -> None:
    """Job accounting and throughput against the prepared releases."""
    name = f"{system.name} U={workload.target_utilization}"
    horizon = workload.config.horizon_slots
    releases = workload.releases
    due = [job for job in releases if job.release_slot + job.task.deadline <= horizon]
    due_bytes = sum(job.task.payload_bytes for job in due)
    require(
        result.total_released == len(releases),
        f"{name}: {result.total_released} releases reported, workload has {len(releases)}",
    )
    completed = sum(done for done, _missed in result.per_criticality.values())
    missed = sum(missed for _done, missed in result.per_criticality.values())
    require(
        completed == result.total_completed and missed == result.total_missed,
        f"{name}: per-criticality counts {result.per_criticality} do not add up "
        f"to {result.total_completed} completed / {result.total_missed} missed",
    )
    require(
        result.unfinished <= result.total_missed <= result.total_completed,
        f"{name}: unfinished {result.unfinished} > missed {result.total_missed} "
        f"or missed > completed {result.total_completed}",
    )
    if isinstance(system, IOGuardSystem):
        # Pre-defined jobs run strictly periodically from the table, not
        # at the drawn release slots: a task may gain one job at each end.
        slack_jobs = 2 * len(workload.taskset)
        slack_bytes = 2 * sum(task.payload_bytes for task in workload.taskset)
        require(
            result.total_completed <= len(due) + slack_jobs,
            f"{name}: {result.total_completed} jobs accounted, only {len(due)} "
            f"released jobs are due by the horizon",
        )
    else:
        # FIFO service accounts every job due by the horizon exactly once.
        slack_bytes = 0
        require(
            result.total_completed == len(due),
            f"{name}: {result.total_completed} jobs accounted, {len(due)} due",
        )
    offered_mbps = (due_bytes + slack_bytes) * 8 / (horizon * workload.config.slot_seconds) / 1e6
    require(
        result.throughput_mbps <= offered_mbps + 1e-9,
        f"{name}: throughput {result.throughput_mbps:.3f} Mbps exceeds the "
        f"offered load {offered_mbps:.3f} Mbps",
    )
    require(
        point.trials == 1 and point.mean_throughput_mbps == result.throughput_mbps,
        f"{name}: sweep point {point} does not match its trial",
    )


class Workload(BaseWorkload):
    name = "casestudy"

    def setup(self) -> None:
        self.systems = [RecordingSystem(system) for system in default_systems()]
        self.trials = 0
        for offset, system in enumerate(self.systems):
            self._trial(system, UTILIZATIONS[-1], self.seed * SEED_STRIDE + WARM_OFFSET + offset)

    def _trial(self, system: RecordingSystem, utilization: float, cell_seed: int):
        cell = SweepCell(
            seed=cell_seed,
            vm_count=VM_COUNT,
            utilization=utilization,
            trials=1,
            horizon_slots=HORIZON,
            system=system,
        )
        start = _clock()
        point = run_sweep_cell(cell)
        return point, _clock() - start

    def run_round(self, index: int, tracer: Optional[Tracer]) -> RoundResult:
        result = RoundResult()
        cell_seed = self.seed * SEED_STRIDE + index
        for utilization in UTILIZATIONS:
            for system in self.systems:
                result.attempted += 1
                if tracer is not None:
                    tracer.operation += 1
                system.last = None
                try:
                    point, elapsed = self._trial(system, utilization, cell_seed)
                except Exception as exc:  # an operation that raises has failed
                    result.failed += 1
                    self.last_error = repr(exc)
                    continue
                result.busy += elapsed
                result.latencies.append(elapsed)
                workload, trial, trial_time = system.last
                system.last = None
                check_trial(system.inner, workload, trial, point)
                self.trials += 1
                if tracer is not None:
                    tracer.record(f"baselines.trial.{system.name}", trial_time)
                    if isinstance(system.inner, IOGuardSystem):
                        tracer.count("core.slots", HORIZON)
                        tracer.count("core.slot_loop_ms", 1e3 * trial_time)
        return result

    def check_round(self, index: int) -> None:
        """Trials are checked as they finish, so workloads need not be kept."""

    def layer_metrics(self, tracer: Tracer, ops: int) -> Dict[str, float]:
        metrics = super().layer_metrics(tracer, ops)
        for system in self.systems:
            span = f"baselines.trial.{system.name}"
            calls = tracer.calls(span)
            metrics[f"baselines.trial_ms.{system.name}"] = (
                tracer.total_ms(span) / calls if calls else 0.0
            )
        return metrics

    def finish(self, tracer: Optional[Tracer]) -> Dict[str, Any]:
        return {"trials_checked": self.trials, "horizon": HORIZON}
