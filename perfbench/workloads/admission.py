"""``admission``: closed-loop clients against the admission service.

Set-up synthesizes a four-VM design and starts an ``AdmissionServer``
with its default ``ServeConfig`` (process shards, epoch batching) on a
loopback port, its event loop on one thread of this process.  Two
client connections own two VMs apiece and send a seeded
admit/withdraw/analyze mix.  The benchmark's own thread drives both:
they take turns, one request in flight at a time, each sent as soon as
the previous one is answered (closed loop, no sleeps).  So the benchmark
never has more work runnable at once than one request's path through
client, server and shard, which a 2-core host can run without queueing.
Withdraws name only tasks that client saw admitted.  One operation is
one request answered; a round is ``REQUESTS_PER_ROUND`` requests from
each client.

A request's time is the CPU time it costs the host: this process (the
client and the server thread) plus the shard workers, read from
``/proc/<pid>/schedstat`` before and after.  With one request in flight
that is all the work done for it; the wall time it waits for its epoch
(an ``analyze``) or for the host to run it is left out, and kept only
for the ``serve.epoch_wait_ms`` layer metric.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import checker
import inputs
from common import BaseWorkload, RoundResult, require
from repro import api
from repro.serve import AdmissionServer, ServeClient, ServeConfig
from tracing import Tracer

VMS = 4
CLIENTS = 2
REQUESTS_PER_ROUND = 32
#: Decision-log entries of the first rounds are digested; every run of
#: one seed reaches them, so the digest must not change between runs.
DIGEST_ROUNDS = 2
SEQ_STRIDE = 1_000_000_000
WARM_SEQ = 500_000_000
#: Request mix: the admit/withdraw/analyze mix of
#: ``repro.serve.bench.generate_workload`` with the analyze share raised
#: from 10 % to 15 %.  An analyze costs 4-7 ms of host CPU time (its
#: epoch batch), an admit 1-2 ms and a withdraw about 1 ms (seeds 1, 4
#: and 5, 60 rounds each).  At 10 % the 90th percentile falls on the
#: gap between the admits and the analyzes, so a few requests more or
#: less of either kind swing it between about 2 and 4.5 ms; at 15 % it
#: falls inside the analyzes, at about their 33rd percentile.
ANALYZE_SHARE = 0.15
WITHDRAW_SHARE = 0.20
START_TIMEOUT = 60.0

_wall = time.perf_counter


class _Client:
    """One connection's request stream and its view of admitted tasks."""

    def __init__(self, index: int, seed: int, vms: List[int], port: int) -> None:
        self.index = index
        self.vms = vms
        self.rng = inputs.stream("admission", seed, index)
        self.admitted: Dict[int, Dict[str, api.IOTask]] = {vm: {} for vm in vms}
        self.connection = ServeClient("127.0.0.1", port)
        self.sent = 0

    def next_request(self, label: object) -> Tuple[Dict[str, Any], int, List[api.IOTask]]:
        """The next message, its VM and the new tasks it carries."""
        rng = self.rng
        vm = rng.choice(self.vms)
        held = self.admitted[vm]
        name = f"c{self.index}.{label}.{self.sent}"
        message: Dict[str, Any]
        roll = rng.random()
        if roll < ANALYZE_SHARE:
            probe = inputs.admission_task(rng, f"{name}.probe", vm)
            message = {"op": "analyze", "tasks": [inputs.task_payload(probe)]}
            carried = [probe]
        elif roll < ANALYZE_SHARE + WITHDRAW_SHARE and held:
            message = {"op": "withdraw", "vm_id": vm, "task_name": rng.choice(sorted(held))}
            carried = []
        else:
            task = inputs.admission_task(rng, name, vm)
            message = {"op": "admit", "task": inputs.task_payload(task)}
            carried = [task]
        message["seq"] = self.index * SEQ_STRIDE + (
            WARM_SEQ + self.sent if label == "warm" else self.sent
        )
        self.sent += 1
        return message, vm, carried

    def step(self, label: object, clock: Callable[[], float]) -> Tuple[Any, ...]:
        """Send the next request, wait for its answer; return its record
        with the request's ``clock`` time and wall time."""
        message, vm, carried = self.next_request(label)
        before = list(self.admitted[vm].values())
        wall = _wall()
        start = clock()
        try:
            response = self.connection.request(message)
        except (OSError, ValueError) as exc:
            response = {"ok": False, "error": {"kind": "client", "message": repr(exc)}}
        elapsed = clock() - start
        wall = _wall() - wall
        if response.get("ok"):
            if message["op"] == "admit" and response["decision"]["schedulable"]:
                self.admitted[vm][carried[0].name] = carried[0]
            elif message["op"] == "withdraw":
                del self.admitted[vm][message["task_name"]]
        return message, vm, carried, before, response, elapsed, wall

    def close(self) -> None:
        self.connection.close()


class Workload(BaseWorkload):
    name = "admission"

    def setup(self) -> None:
        self.system = self._design()
        self.pattern = self.system.table.occupancy_pattern()
        self.servers = {spec.vm_id: (spec.pi, spec.theta) for spec in self.system.servers}
        self.global_ok = checker.theorem2(self.pattern, list(self.servers.values()))[0]
        config = ServeConfig.from_system_payload(
            {
                "table_pattern": self.pattern,
                "servers": [[vm, pi, theta] for vm, (pi, theta) in sorted(self.servers.items())],
            },
            name=f"bench.{self.seed}",
        )
        self._start_server(config)
        self.shard_stats = [
            os.open(f"/proc/{pid}/schedstat", os.O_RDONLY) for pid in self.child_pids()
        ]
        if len(self.shard_stats) != config.shards:
            raise RuntimeError(f"expected {config.shards} shard workers, found {len(self.shard_stats)}")
        vms = sorted(self.servers)
        self.clients = [
            _Client(index, self.seed, vms[index::CLIENTS], self.server.port)
            for index in range(CLIENTS)
        ]
        self.pending: List[Tuple[bool, Tuple[Any, ...]]] = []
        self.batch_times: Dict[int, float] = {}
        self.tracer: Optional[Tracer] = None
        self.requests = 0
        # Warm-up on its own task names: admit, analyze, then withdraw
        # everything admitted, so the timed rounds start from empty VMs.
        for client in self.clients:
            for _ in range(6):
                client.step("warm", self.host_cpu)
            for vm in client.vms:
                for task_name in sorted(client.admitted[vm]):
                    client.connection.request(
                        {"op": "withdraw", "vm_id": vm, "task_name": task_name,
                         "seq": client.index * SEQ_STRIDE + WARM_SEQ + client.sent}
                    )
                    client.sent += 1
                client.admitted[vm].clear()
            client.sent = 0
        # Decides every admit again in this process, in the service's
        # per-VM order; the traced run times these calls as core.admit_ms.
        self.controller = api.AdmissionController(
            api.TimeSlotTable.from_pattern(self.pattern),
            [api.ServerSpec(vm, pi, theta) for vm, (pi, theta) in sorted(self.servers.items())],
        )

    def host_cpu(self) -> float:
        """CPU seconds used so far by this process and the shard workers."""
        total = time.process_time()
        for handle in self.shard_stats:
            total += int(os.pread(handle, 64, 0).split()[0]) * 1e-9
        return total

    def _design(self) -> api.System:
        attempt = 0
        while True:
            rng = inputs.stream("admission-design", self.seed, attempt)
            attempt += 1
            predefined, _ = inputs.predefined_tasks(rng, inputs.P_LOAD["low"], chain=False)
            tasks = predefined + inputs.runtime_tasks(rng, VMS, inputs.VM_LOAD["high"])
            system = api.build_system(
                api.SystemConfig(tasks=tasks, name=f"admission.{self.seed}")
            )
            if len(system.servers) == VMS and api.analyze(system).schedulable:
                return system

    def _start_server(self, config: ServeConfig) -> None:
        self.loop = asyncio.new_event_loop()
        ready = threading.Event()
        self.stop_event: Optional[asyncio.Event] = None
        self.failure: Optional[BaseException] = None

        async def serve() -> None:
            self.stop_event = asyncio.Event()
            self.server = AdmissionServer(config)
            await self.server.start()
            ready.set()
            try:
                await self.stop_event.wait()
            finally:
                await self.server.stop()

        def main() -> None:
            asyncio.set_event_loop(self.loop)
            try:
                self.loop.run_until_complete(serve())
            except BaseException as exc:  # reported by close()/setup()
                self.failure = exc
                ready.set()
            finally:
                self.loop.close()

        self.thread = threading.Thread(target=main, name="bench-server", daemon=True)
        self.thread.start()
        if not ready.wait(START_TIMEOUT) or self.failure is not None:
            raise RuntimeError(f"admission server did not start: {self.failure!r}")

    # -- rounds -------------------------------------------------------------

    def run_round(self, index: int, tracer: Optional[Tracer]) -> RoundResult:
        result = RoundResult()
        records = [
            client.step(index, self.host_cpu)
            for _ in range(REQUESTS_PER_ROUND)
            for client in self.clients
        ]
        for record in records:
            message, _vm, _carried, _before, response, elapsed, wall = record
            result.attempted += 1
            if not response.get("ok"):
                result.failed += 1
                self.last_error = json.dumps(response)[:300]
                continue
            result.busy += elapsed
            result.latencies.append(elapsed)
            self.pending.append((tracer is not None, record))
            if message["op"] == "analyze" and tracer is not None:
                batch = self.batch_times.get(response["epoch"])
                if batch is not None:
                    tracer.count("serve.epoch_wait_ms", 1e3 * (wall - batch))
                    tracer.count("serve.analyzes", 1)
        self.requests += result.attempted
        return result

    def check_round(self, index: int) -> None:
        for traced, (message, vm, carried, before, response, *_times) in self.pending:
            pi, theta = self.servers[vm]
            if message["op"] == "admit":
                expected = checker.theorem4(pi, theta, inputs.triples(before + carried))[0]
                got = response["decision"]["schedulable"]
                require(
                    got == expected,
                    f"admit {carried[0].name} to VM {vm}: service says {got}, "
                    f"checker says {expected} over {len(before)} admitted tasks",
                )
                start = _wall()
                decision = self.controller.try_admit(carried[0])
                if traced:
                    self.tracer.record("core.admit", _wall() - start)
                require(
                    decision.schedulable == got,
                    f"in-process AdmissionController disagrees with the service on "
                    f"{carried[0].name}",
                )
            elif message["op"] == "withdraw":
                require(
                    response["task"]["name"] == message["task_name"],
                    f"withdraw {message['task_name']}: service removed {response['task']}",
                )
                self.controller.withdraw(vm, message["task_name"])
            else:
                report = response["report"]
                expected = checker.theorem4(pi, theta, inputs.triples(before + carried))[0]
                local = report["local_results"][str(vm)]["schedulable"]
                require(
                    local == expected,
                    f"analyze for VM {vm}: service says {local}, checker says {expected}",
                )
                require(
                    report["global_result"]["schedulable"] == self.global_ok,
                    "analyze: global verdict disagrees with the checker",
                )
        self.pending = []

    # -- tracing ------------------------------------------------------------

    def begin_trace(self, tracer: Tracer) -> None:
        super().begin_trace(tracer)
        self.tracer = tracer
        times = self.batch_times

        def record_epoch(func):
            def call(server, population, payloads):
                start = _wall()
                try:
                    return func(server, population, payloads)
                finally:
                    times[server.epoch] = _wall() - start
                    tracer.count("serve.batched_requests", len(payloads))

            return call

        tracer.patch_method(
            AdmissionServer, "_run_analyze_batch", "serve.epoch_batch", wrapper=record_epoch
        )

    def layer_metrics(self, tracer: Tracer, ops: int) -> Dict[str, float]:
        metrics = super().layer_metrics(tracer, ops)
        batches = tracer.calls("serve.epoch_batch")
        if batches:
            metrics["serve.epoch_batch_ms"] = tracer.total_ms("serve.epoch_batch") / batches
            metrics["serve.requests_per_batch"] = (
                tracer.counters.get("serve.batched_requests", 0) / batches
            )
        analyzes = tracer.counters.get("serve.analyzes", 0)
        if analyzes:
            metrics["serve.epoch_wait_ms"] = tracer.counters["serve.epoch_wait_ms"] / analyzes
        admits = tracer.calls("core.admit")
        if admits:
            metrics["core.admit_ms"] = tracer.total_ms("core.admit") / admits
        return metrics

    def finish(self, tracer: Optional[Tracer]) -> Dict[str, Any]:
        lines = self.server.decision_log_lines()
        prefix = [
            line for line in lines
            if json.loads(line)["seq"] % SEQ_STRIDE < DIGEST_ROUNDS * REQUESTS_PER_ROUND
        ]
        digest = hashlib.sha256(("\n".join(prefix) + "\n").encode()).hexdigest()
        return {
            "requests": self.requests,
            "log_entries": len(lines),
            "digest_entries": len(prefix),
            "log_digest": digest,
        }

    def child_pids(self) -> List[int]:
        return [process.pid for process in multiprocessing.active_children()]

    def close(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        for handle in getattr(self, "shard_stats", []):
            os.close(handle)
        self.shard_stats = []
        if getattr(self, "thread", None) is not None:
            if self.stop_event is not None and not self.loop.is_closed():
                self.loop.call_soon_threadsafe(self.stop_event.set)
            self.thread.join(START_TIMEOUT)
            require(not self.thread.is_alive(), "admission server did not stop")
