"""Seeded input generation for every workload.

Every draw comes from a ``random.Random`` keyed by a string naming the
workload, the run seed, the round and the slot within the round, so
the same seed always yields the same inputs and no two operations of a
run share an input.  Warm-up draws use the stream label ``warm``,
which the timed rounds never use.

Periods come from one bounded-hyperperiod basis (every period divides
120 slots), so exact tests and the checker's brute-force windows stay
small.  Tasks sit on Ethernet devices, whose single-slot operations fit
the default 2000-cycle slot (generic ``io*`` devices are rejected by
``IOGuardHypervisor.attach_device``).
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from repro.api import IOTask, SystemConfig, TableConstraint, TaskKind
from repro.tasks.generators import HyperperiodBasis

BASIS = HyperperiodBasis(factors=(2, 2, 2, 3, 5), period_min=10, period_max=120)
PERIODS: Tuple[int, ...] = BASIS.candidate_periods()
PREDEFINED_PERIODS: Tuple[int, ...] = tuple(p for p in PERIODS if p >= 20)
DEVICES = ("eth0", "eth1")

#: One design round: every (VM count, P-channel load, VM load) stratum
#: once.  Stratifying keeps the mix of easy and hard searches the same
#: in every round, whatever the seed.
DESIGN_STRATA: Tuple[Tuple[int, str, str], ...] = tuple(
    (vms, pload, vmload)
    for vms in (2, 3, 4)
    for pload in ("low", "high")
    for vmload in ("low", "high")
)

P_LOAD = {"low": (0.04, 0.12), "high": (0.15, 0.30), "sparse": (0.03, 0.10)}
VM_LOAD = {"low": (0.10, 0.30), "high": (0.30, 0.55), "sparse": (0.08, 0.25)}


def stream(*key: object) -> random.Random:
    return random.Random(":".join(str(part) for part in key))


def _wcet(utilization: float, period: int) -> int:
    return max(1, min(period, round(utilization * period)))


def _deadline(rng: random.Random, wcet: int, period: int) -> int:
    """Implicit deadline half the time, otherwise constrained."""
    if rng.random() < 0.5:
        return period
    return rng.randint(max(wcet, period // 2), period)


def predefined_tasks(
    rng: random.Random, load: Tuple[float, float], *, chain: bool
) -> Tuple[List[IOTask], List[TableConstraint]]:
    """P-channel tasks on the Ethernet devices, optionally one chain.

    A chain is two tasks of one period where the second must start at
    least ``min_lag`` slots after the first completes; it routes the
    table through ``repro.synth.table.synthesize_table``.
    """
    count = rng.randint(1, 3)
    share = rng.uniform(*load) / count
    tasks = []
    for index in range(count):
        period = rng.choice(PREDEFINED_PERIODS)
        wcet = _wcet(share, period)
        tasks.append(
            IOTask(
                name=f"p{index}",
                period=period,
                wcet=wcet,
                deadline=_deadline(rng, wcet, period),
                vm_id=index % 2,
                kind=TaskKind.PREDEFINED,
                device=DEVICES[index % 2],
                payload_bytes=64,
            )
        )
    constraints: List[TableConstraint] = []
    if chain:
        head = tasks[0]
        tasks.append(
            IOTask(
                name="p_chain",
                period=head.period,
                wcet=max(1, head.wcet // 2),
                vm_id=head.vm_id,
                kind=TaskKind.PREDEFINED,
                device=head.device,
                payload_bytes=64,
            )
        )
        constraints.append(
            TableConstraint(before=head.name, after="p_chain", min_lag=rng.randint(0, 3))
        )
    return tasks, constraints


def runtime_tasks(rng: random.Random, vms: int, load: Tuple[float, float]) -> List[IOTask]:
    """Sporadic R-channel tasks: 1-4 per VM, VM loads drawn in ``load``.

    ``load`` bounds the *total* run-time utilization, split evenly in
    expectation across the VMs.
    """
    tasks = []
    total = rng.uniform(*load)
    for vm in range(vms):
        share = total / vms * rng.uniform(0.6, 1.4)
        count = rng.randint(1, 4)
        for index in range(count):
            period = rng.choice(PERIODS)
            wcet = _wcet(share / count, period)
            tasks.append(
                IOTask(
                    name=f"v{vm}t{index}",
                    period=period,
                    wcet=wcet,
                    deadline=_deadline(rng, wcet, period),
                    vm_id=vm,
                    device=DEVICES[vm % 2],
                    payload_bytes=64,
                )
            )
    return tasks


def design_config(seed: int, label: object, slot: int) -> SystemConfig:
    """The design input at ``slot`` of round ``label``; servers left open."""
    vms, pload, vmload = DESIGN_STRATA[slot % len(DESIGN_STRATA)]
    rng = stream("design", seed, label, slot)
    predefined, constraints = predefined_tasks(
        rng, P_LOAD[pload], chain=slot % 4 == 0
    )
    tasks = predefined + runtime_tasks(rng, vms, VM_LOAD[vmload])
    return SystemConfig(
        tasks=tasks,
        name=f"design.{seed}.{label}.{slot}",
        table_constraints=constraints,
    )


def sparse_config(seed: int, label: object, index: int, vms: int) -> SystemConfig:
    """A low-to-moderate utilization system for the simulate workload.

    Both Ethernet devices always carry a pre-defined task, so every
    simulated system steps the same number of device slots.
    """
    rng = stream("sparse", seed, label, index)
    tasks = []
    for device_index, device in enumerate(DEVICES):
        period = rng.choice(PREDEFINED_PERIODS)
        wcet = _wcet(rng.uniform(*P_LOAD["sparse"]), period)
        tasks.append(
            IOTask(
                name=f"p{device_index}",
                period=period,
                wcet=wcet,
                vm_id=device_index % vms,
                kind=TaskKind.PREDEFINED,
                device=device,
                payload_bytes=64,
            )
        )
    tasks += runtime_tasks(rng, vms, VM_LOAD["sparse"])
    return SystemConfig(tasks=tasks, name=f"sparse.{seed}.{label}.{index}")


def task_payload(task: IOTask) -> Dict[str, object]:
    """The admission service's wire form of one run-time task."""
    return {
        "name": task.name,
        "vm_id": task.vm_id,
        "period": task.period,
        "wcet": task.wcet,
        "deadline": task.deadline,
        "device": task.device,
    }


def admission_task(rng: random.Random, name: str, vm: int) -> IOTask:
    """One sporadic task offered to the admission service."""
    period = rng.choice(PERIODS)
    wcet = _wcet(rng.uniform(0.01, 0.05), period)
    return IOTask(
        name=name,
        period=period,
        wcet=wcet,
        deadline=_deadline(rng, wcet, period),
        vm_id=vm,
        device=DEVICES[vm % 2],
        payload_bytes=64,
    )


def triples(tasks: Sequence[IOTask]) -> List[Tuple[int, int, int]]:
    """``(T, C, D)`` triples for the checker."""
    return [(task.period, task.wcet, task.deadline) for task in tasks]
