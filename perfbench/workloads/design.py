"""``design``: synthesize and verify a stream of unseen configurations.

One operation is ``build_system`` (bandwidth-minimal server synthesis
over sigma*, through the table synthesizer when a pre-defined chain is
present) followed by ``analyze`` on one ``SystemConfig`` whose servers
are left open.  A round is one configuration of every stratum in
``inputs.DESIGN_STRATA``.  "No design exists" is a correct answer.

On every configuration of at most ``SMALL_VMS`` VMs and ``SMALL_GRID``
candidate-period combinations whose search stayed within its node cap,
the returned bandwidth is compared with the checker's brute-force
minimum over the same candidate grid.  Two outcomes match faults of
the program's synthesis search that show on some seeds only (see
``README.md``): a feasible design that costs more than the minimum or
than a feasible policy seed, and an infeasible verdict although a
design exists while the policy seed fails Theorem 2.  They are counted (``non_minimal``,
``missed_designs``) and printed with the run, not failed, because a
failure that depends on the seed would change the failed share from
run to run.  Every other disagreement fails the run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple, Union

import checker
import inputs
from common import BaseWorkload, RoundResult, op_clock, require
from repro import api
from repro.analysis.servers import design_servers
from repro.synth.servers import ASSEMBLY_MAX_NODES, candidate_periods_for
from tracing import Tracer

#: Configurations given the brute-force optimality check: at most this
#: many VMs and this many candidate-period combinations.
SMALL_VMS = 2
SMALL_GRID = 400

#: Warm-up configurations per set-up (stream label ``warm``).
WARMUP_CONFIGS = 4

_clock = op_clock


def _bandwidth(system) -> Fraction:
    return sum((Fraction(spec.theta, spec.pi) for spec in system.servers), Fraction(0))


class Workload(BaseWorkload):
    name = "design"

    def setup(self) -> None:
        self.pending: List[Tuple[api.SystemConfig, Any, Any]] = []
        self.feasible = 0
        self.brute_forced = 0
        self.non_minimal: List[str] = []
        self.missed_designs: List[str] = []
        for slot in range(WARMUP_CONFIGS):
            api.analyze(api.build_system(inputs.design_config(self.seed, "warm", slot)))

    def run_round(self, index: int, tracer: Optional[Tracer]) -> RoundResult:
        result = RoundResult()
        for slot in range(len(inputs.DESIGN_STRATA)):
            config = inputs.design_config(self.seed, index, slot)
            result.attempted += 1
            if tracer is not None:
                tracer.operation += 1
            start = _clock()
            try:
                system = api.build_system(config)
                report = api.analyze(system)
            except Exception as exc:  # an operation that raises has failed
                result.failed += 1
                self.last_error = repr(exc)
                continue
            elapsed = _clock() - start
            result.busy += elapsed
            result.latencies.append(elapsed)
            self.pending.append((config, system, report))
            if tracer is not None and system.synthesis is not None:
                stats = system.synthesis.stats
                tracer.count("synth.oracle_calls", stats.oracle_calls)
                tracer.count("synth.nodes_expanded", stats.nodes_expanded)
                tracer.count("synth.pruned_nodes", stats.pruned_nodes)
                tracer.count("synth.rounds", stats.rounds)
        return result

    def check_round(self, index: int) -> None:
        for config, system, report in self.pending:
            self._check(config, system, report)
        self.pending = []

    def _check(self, config, system, report) -> None:
        name = config.name
        pattern = system.table.occupancy_pattern()
        by_vm = system.tasks.runtime().by_vm()
        vm_tasks = {vm: inputs.triples(tasks) for vm, tasks in by_vm.items()}
        servers = {spec.vm_id: (spec.pi, spec.theta) for spec in system.servers}
        verdict, global_ok, local = checker.design_verdict(pattern, servers, vm_tasks)
        require(
            verdict == report.schedulable,
            f"{name}: analyze says {report.schedulable}, checker says {verdict} "
            f"for servers {servers}",
        )
        if report.global_result is not None:
            require(
                report.global_result.schedulable == global_ok,
                f"{name}: Theorem-2 verdict {report.global_result.schedulable} "
                f"disagrees with the checker",
            )
        for vm, ok in local.items():
            require(
                report.local_results[vm].schedulable == ok,
                f"{name}: Theorem-4 verdict for VM {vm} disagrees with the checker",
            )
        self.feasible += verdict
        bandwidth = _bandwidth(system)

        seed = design_servers(
            system.table,
            by_vm,
            policy=config.policy,
            uniform_period=config.uniform_period,
            global_validation=False,
        )
        seed_ok = len(seed.servers) == len(by_vm) and checker.design_verdict(
            pattern, dict(seed.servers), vm_tasks
        )[0]
        if seed_ok:
            seed_bandwidth = sum(
                (Fraction(theta, pi) for pi, theta in seed.servers.values()), Fraction(0)
            )
            require(
                verdict,
                f"{name}: the policy seed {dict(seed.servers)} is feasible "
                f"(bandwidth {seed_bandwidth}) but no design was returned",
            )
            if bandwidth > seed_bandwidth:
                self.non_minimal.append(
                    f"{name}: {bandwidth} returned, the policy seed's {seed_bandwidth} passes"
                )
                return

        best = self._brute_force(config, system)
        if best is False:
            return
        if verdict and best is not None and best < bandwidth:
            self.non_minimal.append(f"{name}: {bandwidth} returned, {best} exists")
            return
        if not verdict and best is not None and not seed_ok:
            self.missed_designs.append(f"{name}: infeasible returned, {best} exists")
            return
        require(
            best == (bandwidth if verdict else None),
            f"{name}: brute-force minimum bandwidth on the candidate grid is "
            f"{best if best is not None else 'infeasible'}, the design returned "
            f"{bandwidth if verdict else 'infeasible'}",
        )

    def _brute_force(self, config, system) -> Union[Fraction, None, bool]:
        """The checker's minimum bandwidth over the candidate grid.

        ``None`` when no design exists on the grid, ``False`` when the
        configuration is too large to enumerate or its search hit the
        node cap.
        """
        by_vm = system.tasks.runtime().by_vm()
        if len(by_vm) > SMALL_VMS or system.synthesis.stats.nodes_expanded >= ASSEMBLY_MAX_NODES:
            return False
        grid = {
            vm: candidate_periods_for(
                system.table, tasks, policy=config.policy, uniform_period=config.uniform_period
            )
            for vm, tasks in by_vm.items()
        }
        combinations = 1
        for periods in grid.values():
            combinations *= len(periods)
        if combinations > SMALL_GRID:
            return False
        self.brute_forced += 1
        vm_tasks = {vm: inputs.triples(tasks) for vm, tasks in by_vm.items()}
        return checker.minimum_bandwidth(system.table.occupancy_pattern(), vm_tasks, grid)

    def finish(self, tracer: Optional[Tracer]) -> Dict[str, Any]:
        return {
            "feasible": self.feasible,
            "brute_forced": self.brute_forced,
            "non_minimal": len(self.non_minimal),
            "missed_designs": len(self.missed_designs),
            "first_non_minimal": self.non_minimal[:1],
            "first_missed_design": self.missed_designs[:1],
        }
