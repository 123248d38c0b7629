"""Schedule results, and the one path that finishes a schedule.

Every scheduler (MIRS-C, the [31] baseline and the exact backend) ends
the same way: :func:`allocate` runs the batch register allocation of the
finished placement once (the paper makes allocation part of MIRS-C
itself, footnote 2), and :func:`finish` turns placement and allocation
into a converged :class:`ScheduleResult` and re-validates it with
:func:`~repro.core.verify.verify_schedule`.  A give-up is recorded by
:func:`unconverged`.  The result carries its allocation, so the code
emitter and the MVE factor read it instead of re-deriving it.
"""

from __future__ import annotations

import dataclasses

from repro.core.state import SchedulerStats
from repro.core.verify import verify_schedule
from repro.errors import SchedulingError
from repro.graph.ddg import DependenceGraph
from repro.machine.config import MachineConfig
from repro.machine.resources import OpKind
from repro.schedule.lifetimes import LifetimeAnalysis
from repro.schedule.partial import PartialSchedule
from repro.schedule.regalloc import allocate_registers


@dataclasses.dataclass
class ScheduleResult:
    """The outcome of scheduling one loop on one machine configuration.

    Attributes:
        loop: the loop's name.
        machine: the target configuration.
        converged: False when the scheduler gave up (possible for the
            non-iterative baseline; MIRS-C always converges).
        ii: achieved initiation interval (meaningless when not converged).
        mii: the lower bound the search started from.
        times / clusters: per-node issue cycles and cluster assignments.
        register_usage: physical registers used per cluster (after
            allocation).
        max_live: MaxLive per cluster.
        value_registers / lifetimes: the allocation behind
            ``register_usage`` — per value its register indices (one per
            overlapped live instance, the shared arc register last) and
            its lifetime length in cycles.  A function of the graph and
            the placement, so ``result_fingerprint`` leaves it out.
        memory_traffic: memory operations per iteration, spill included.
        spill_operations: spill loads+stores inserted.
        move_operations: inter-cluster moves in the final schedule.
        stage_count: kernel stages (depth of iteration overlap).
        restarts: times the II had to be increased.
        scheduling_seconds: wall-clock time spent scheduling.
        stats: low-level scheduler counters.
        graph: the final dependence graph (with spill/move nodes), used by
            the memory-hierarchy simulator.
        trip_count: loop trip count (from the workload).
    """

    loop: str
    machine: MachineConfig
    converged: bool
    ii: int
    mii: int
    times: dict[int, int] = dataclasses.field(default_factory=dict)
    clusters: dict[int, int] = dataclasses.field(default_factory=dict)
    register_usage: dict[int, int] = dataclasses.field(default_factory=dict)
    max_live: dict[int, int] = dataclasses.field(default_factory=dict)
    value_registers: dict[int, list[int]] = dataclasses.field(
        default_factory=dict
    )
    lifetimes: dict[int, int] = dataclasses.field(default_factory=dict)
    memory_traffic: int = 0
    spill_operations: int = 0
    move_operations: int = 0
    stage_count: int = 1
    restarts: int = 0
    scheduling_seconds: float = 0.0
    stats: SchedulerStats = dataclasses.field(default_factory=SchedulerStats)
    graph: DependenceGraph | None = None
    trip_count: int = 0
    #: Exact-backend verdict (``scheduler="smt"`` only): engine, status
    #: (``optimal`` / ``feasible`` / ``skipped`` / ``infeasible``), the
    #: proven lower II and the per-II certificate ledger.  ``None`` for
    #: heuristic results.  Like ``scheduling_seconds`` it is diagnostic
    #: provenance, deliberately outside ``result_fingerprint`` (which
    #: builds its payload explicitly).
    oracle: dict | None = None

    @property
    def execution_cycles(self) -> int:
        """Kernel cycles to run the whole loop, prologue/epilogue included.

        A software-pipelined loop with SC kernel stages executes for
        ``II * (N + SC - 1)`` cycles over N iterations.
        """
        if not self.converged:
            raise ValueError(f"loop {self.loop} did not converge")
        overlap = max(0, self.stage_count - 1)
        return self.ii * (self.trip_count + overlap)

    @property
    def total_registers_used(self) -> int:
        return sum(self.register_usage.values())

    def summary(self) -> str:
        """One-line human-readable summary."""
        status = "ok" if self.converged else "NOT CONVERGED"
        return (
            f"{self.loop}: II={self.ii} (MII={self.mii}) [{status}] "
            f"traffic={self.memory_traffic} moves={self.move_operations} "
            f"spills={self.spill_operations} "
            f"regs={self.register_usage}"
        )


@dataclasses.dataclass(frozen=True)
class Allocation:
    """A finished placement and its batch register allocation.

    ``overshoot`` maps each cluster whose allocation exceeds the
    register file to the excess (empty when everything fits); the
    allocation itself is stored on the result by :func:`finish`.
    """

    graph: DependenceGraph
    machine: MachineConfig
    ii: int
    times: dict[int, int]
    clusters: dict[int, int]
    stage_count: int
    register_usage: dict[int, int]
    max_live: dict[int, int]
    value_registers: dict[int, list[int]]
    lifetimes: dict[int, int]
    overshoot: dict[int, int]


def allocate(
    graph: DependenceGraph,
    machine: MachineConfig,
    ii: int,
    times: dict[int, int],
    clusters: dict[int, int],
    spilled_invariants: set[tuple[int, int]] = frozenset(),
) -> Allocation:
    """Lifetimes and register allocation of a finished placement.

    The allocator numbers registers in lifetime order, so it runs over
    the placement in node-id order
    (:meth:`~repro.schedule.partial.PartialSchedule.from_placements`):
    the numbering is then a function of the times and clusters alone,
    whatever order the scheduler placed the nodes in.
    """
    schedule = PartialSchedule.from_placements(machine, ii, times, clusters)
    analysis = LifetimeAnalysis(
        graph, schedule, machine,
        spilled_invariants=spilled_invariants,
        collect_segments=False,
    )
    allocations = allocate_registers(graph, schedule, machine, analysis)
    register_usage = {c: a.registers_used for c, a in allocations.items()}
    available = machine.cluster.registers
    return Allocation(
        graph=graph,
        machine=machine,
        ii=ii,
        times=times,
        clusters=clusters,
        stage_count=max(1, schedule.stage_count()),
        register_usage=register_usage,
        max_live={c: analysis.max_live(c) for c in range(machine.clusters)},
        value_registers={
            value: registers
            for allocation in allocations.values()
            for value, registers in allocation.assignment.items()
        },
        lifetimes={lt.value: lt.length for lt in analysis.lifetimes},
        overshoot={
            c: used - available
            for c, used in register_usage.items()
            if available is not None and used > available
        },
    )


def finish(
    scheduler: str,
    allocation: Allocation,
    *,
    mii: int,
    restarts: int,
    memory_traffic: int,
    stats: SchedulerStats,
    seconds: float,
) -> ScheduleResult:
    """The converged result of an allocated placement, verified.

    Raises:
        SchedulingError: naming ``scheduler``, when
            :func:`~repro.core.verify.verify_schedule` finds the
            schedule invalid.
    """
    graph, machine = allocation.graph, allocation.machine
    violations = verify_schedule(
        graph, machine, allocation.ii, allocation.times, allocation.clusters,
        allocation.register_usage,
    )
    if violations:
        raise SchedulingError(
            f"{scheduler} produced an invalid schedule for {graph.name}: "
            + "; ".join(violations[:5])
        )
    return ScheduleResult(
        loop=graph.name,
        machine=machine,
        converged=True,
        ii=allocation.ii,
        mii=mii,
        times=allocation.times,
        clusters=allocation.clusters,
        register_usage=allocation.register_usage,
        max_live=allocation.max_live,
        value_registers=allocation.value_registers,
        lifetimes=allocation.lifetimes,
        memory_traffic=memory_traffic,
        spill_operations=sum(1 for n in graph.nodes() if n.is_spill),
        move_operations=graph.count_kind(OpKind.MOVE),
        stage_count=allocation.stage_count,
        restarts=restarts,
        scheduling_seconds=seconds,
        stats=stats,
        graph=graph,
        trip_count=graph.trip_count,
    )


def unconverged(
    graph: DependenceGraph,
    machine: MachineConfig,
    *,
    ii: int,
    mii: int,
    seconds: float,
    restarts: int = 0,
    stats: SchedulerStats | None = None,
    oracle: dict | None = None,
) -> ScheduleResult:
    """The record of a scheduler that gave up on ``graph``."""
    return ScheduleResult(
        loop=graph.name,
        machine=machine,
        converged=False,
        ii=ii,
        mii=mii,
        restarts=restarts,
        scheduling_seconds=seconds,
        stats=SchedulerStats() if stats is None else stats,
        trip_count=graph.trip_count,
        oracle=oracle,
    )
