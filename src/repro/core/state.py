"""Shared mutable state of one scheduling attempt (graph + schedule + list).

This object owns the consistency rules that make MIRS-C's backtracking
safe (Sections 3.2.2 and 3.3.2):

* ejected operations return to the PriorityList with their original
  priority;
* a move is removed from the dependence graph (not merely unscheduled)
  whenever its producer is ejected or its unique consumer is ejected -
  when the operation is picked up again the algorithm re-decides whether
  communication is needed at all;
* removing a move reconnects its consumers to its producer, adding the
  edge distances along the move chain;
* removing an *invariant* move restores the direct invariant consumption
  of its consumers and un-marks the invariant spill.

It also owns the incremental engines every attempt queries: the
pressure tracker and, whenever the machine has a register limit, the
arc-colouring engine — the attempt loop's one register-allocator path,
read by :meth:`SchedulerState.fits_registers` (the batch
:func:`~repro.schedule.regalloc.allocate_registers` is its oracle and,
through :func:`repro.core.result.allocate`, the finished schedule's
allocator).
"""

from __future__ import annotations

import dataclasses

from repro.errors import SchedulingError
from repro.graph.ddg import DepKind, DependenceGraph
from repro.machine.config import MachineConfig
from repro.core.params import MirsParams
from repro.core.priority import PriorityList
from repro.obs.metrics import SearchStats
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.schedule.colouring import IncrementalArcColouring
from repro.schedule.partial import PartialSchedule
from repro.schedule.pressure import PressureTracker


@dataclasses.dataclass
class SchedulerStats:
    """Counters reported in the final result."""

    ejections: int = 0
    forced_placements: int = 0
    moves_added: int = 0
    moves_removed: int = 0
    spill_stores_added: int = 0
    spill_loads_added: int = 0
    invariant_spills: int = 0
    balance_shifts: int = 0
    nodes_scheduled: int = 0
    #: Full II-search trace: one entry per attempt, in attempt order
    #: (:meth:`repro.core.search.AttemptOutcome.as_trace_entry` dicts).
    #: Diagnostic, like ``scheduling_seconds``: excluded from result
    #: fingerprints so the default policy stays fingerprint-identical
    #: to the pre-policy scheduler.  Each entry carries an ``on_path``
    #: marker: the path attempts come first in search order, then any
    #: speculative extras (``on_path: false``) in II order.
    search_trace: list[dict] = dataclasses.field(default_factory=list)
    #: Typed II-search ledger (frontier width, runner, launched /
    #: executed / cancelled attempt counts — see
    #: :class:`repro.core.attempts.SpeculativeSearchDriver`), set by
    #: every ``MirsC`` search at every width K; ``None`` only for
    #: schedulers without an II-search driver (the baseline, the exact
    #: backend).  Diagnostic like ``search_trace``: excluded from
    #: result fingerprints, so every K stays fingerprint-identical.
    search: SearchStats | None = None


class SchedulerState:
    """All mutable state of one scheduling attempt at a fixed II."""

    def __init__(
        self,
        graph: DependenceGraph,
        machine: MachineConfig,
        ii: int,
        priorities: dict[int, float],
        params: MirsParams,
        tracer: Tracer = NULL_TRACER,
    ):
        self.graph = graph
        self.machine = machine
        self.ii = ii
        self.params = params
        self.tracer = tracer
        self.schedule = PartialSchedule(machine, ii)
        self.pl = PriorityList()
        for node_id, priority in priorities.items():
            self.pl.push(node_id, priority)
        self.budget = params.budget_ratio * max(1, len(graph))
        self.stats = SchedulerStats()
        #: (invariant id, cluster) pairs whose register was spilled away.
        self.spilled_invariants: set[tuple[int, int]] = set()
        #: Incremental register-pressure engine: observes every
        #: placement/ejection and every graph mutation, so MaxLive, the
        #: critical row and the use segments are always current without
        #: per-check recomputation (the old per-placement
        #: ``LifetimeAnalysis`` hot path).
        self.pressure = PressureTracker(
            graph, self.schedule, machine, self.spilled_invariants,
            tracer=tracer,
        )
        #: Incremental wrap-around register colouring: mirrors the
        #: tracker's lifetimes and serves the drained-regime register
        #: allocation (``registers_used`` per cluster) from per-cluster
        #: caches, register-count-identical to the batch ``_colour_arcs``
        #: path.  ``None`` exactly when the machine has no register
        #: limit (the allocator verdict is never consulted then).
        self.colouring: IncrementalArcColouring | None = None
        if machine.cluster.registers is not None:
            self.colouring = IncrementalArcColouring(
                graph, self.schedule, machine, self.pressure,
                tracer=tracer,
            )
        # Memory operations are counted incrementally: spill insertion is
        # the only way the count grows (moves are not memory operations).
        self._mem_ops = sum(1 for n in graph.nodes() if n.kind.is_memory)
        #: Consecutive eject-only spill-check rounds (maintained by the
        #: driver when the search policy bounds eject churn).
        self.eject_churn_run = 0

    # ------------------------------------------------------------------
    # Ejection (the backtracking primitive)
    # ------------------------------------------------------------------

    def eject_node(self, node_id: int) -> None:
        """Eject a scheduled node back onto the PriorityList.

        Moves attached to the node are removed from the graph entirely,
        per the rules of Section 3.3.2.
        """
        if not self.schedule.is_scheduled(node_id):
            raise SchedulingError(f"cannot eject unscheduled node {node_id}")
        node = self.graph.node(node_id)
        self.schedule.eject(node_id)
        self.stats.ejections += 1
        self.pl.push(node_id)  # original priority
        if node.is_move:
            # A move ejected by a resource conflict simply goes back to
            # the list; its endpoints are untouched.
            return
        # Rule 1: moves transporting this node's value lose their producer.
        # (Snapshots are deduped and re-checked: removing one move can
        # rewire edges or cascade onto parallel edges from the same move.)
        for succ_id in sorted({e.dst for e in self.graph.out_edges(node_id)}):
            if succ_id not in self.graph:
                continue
            successor = self.graph.node(succ_id)
            if successor.is_move and successor.move_of == node_id:
                self.remove_move(succ_id)
        # Rule 2: moves whose unique consumer this node was are useless.
        for pred_id in sorted({e.src for e in self.graph.in_edges(node_id)}):
            if pred_id not in self.graph:
                continue
            predecessor = self.graph.node(pred_id)
            if not predecessor.is_move:
                continue
            consumers = {
                e.dst
                for e in self.graph.out_edges(pred_id)
                if e.kind is DepKind.REG
            }
            if consumers == {node_id}:
                self.remove_move(pred_id)

    # ------------------------------------------------------------------
    # Move removal
    # ------------------------------------------------------------------

    def remove_move(self, move_id: int) -> None:
        """Remove a move from schedule, PriorityList and graph.

        Consumers are reconnected to the move's producer (with combined
        edge distances); invariant moves give their consumers back to the
        invariant and clear the corresponding spill marker.
        """
        move = self.graph.node(move_id)
        if not move.is_move:
            raise SchedulingError(f"node {move_id} is not a move")
        move_cluster = (
            self.schedule.cluster(move_id)
            if self.schedule.is_scheduled(move_id)
            else None
        )
        self.schedule.forget(move_id)
        self.pl.discard(move_id)

        out_edges = [
            e for e in self.graph.out_edges(move_id) if e.kind is DepKind.REG
        ]
        if move.move_of_invariant is not None:
            invariant = self.graph.invariant(move.move_of_invariant)
            dst_cluster = move_cluster
            for edge in out_edges:
                self.graph.add_invariant_consumer(invariant.id, edge.dst)
                if dst_cluster is None and self.schedule.is_scheduled(edge.dst):
                    dst_cluster = self.schedule.cluster(edge.dst)
            # The invariant regains its register in the destination
            # cluster (the spill is undone).
            if dst_cluster is not None:
                self.spilled_invariants.discard(
                    (invariant.id, dst_cluster)
                )
        else:
            in_edges = [
                e for e in self.graph.in_edges(move_id) if e.kind is DepKind.REG
            ]
            if in_edges:
                producer_edge = in_edges[0]
                for edge in out_edges:
                    self.graph.add_edge(
                        producer_edge.src,
                        edge.dst,
                        kind=DepKind.REG,
                        distance=producer_edge.distance + edge.distance,
                    )
        self.graph.remove_node(move_id)
        self.stats.moves_removed += 1

    # ------------------------------------------------------------------
    # Queries shared by the heuristics
    # ------------------------------------------------------------------

    def scheduled_reg_consumers(self, node_id: int) -> list[tuple[int, int]]:
        """(consumer id, cluster) for scheduled register consumers."""
        result = []
        for edge in self.graph.out_edges(node_id):
            if edge.kind is DepKind.REG and self.schedule.is_scheduled(edge.dst):
                result.append((edge.dst, self.schedule.cluster(edge.dst)))
        return result

    def memory_operation_count(self) -> int:
        """Memory operations per iteration (original + spill traffic)."""
        return self._mem_ops

    def note_memory_node_added(self) -> None:
        """Spill heuristics call this for every load/store they insert."""
        self._mem_ops += 1

    def fits_registers(self) -> bool:
        """True when every cluster's allocation fits its register file
        (the drained-regime check of MIRS-C and the [31] baseline)."""
        available = self.machine.cluster.registers
        if available is None:
            return True
        # MaxLive is a lower bound on the allocation (the colouring
        # never beats it), so an over-budget cluster fails without
        # running the allocator; the exact colouring only arbitrates the
        # fitting side (footnote 2: MaxLive occasionally underestimates).
        if any(
            live > available
            for live in self.pressure.max_live_all().values()
        ):
            return False
        # Per-cluster counts from the colouring engine's caches (only
        # clusters whose lifetimes changed recolour).
        return all(
            used <= available
            for used in self.colouring.registers_used_all().values()
        )

    def memory_traffic_infeasible(self) -> bool:
        """True when the memory ports cannot sustain the current traffic
        at this II - one of the two restart conditions (Section 3.2.4)."""
        ports = self.machine.total_mem_ports
        if ports == 0:
            return self.memory_operation_count() > 0
        return self.memory_operation_count() > self.ii * ports

    def suggested_restart_ii(self) -> int:
        """The smallest II worth retrying after a traffic-driven restart."""
        ports = max(1, self.machine.total_mem_ports)
        needed = -(-self.memory_operation_count() // ports)  # ceil div
        return max(self.ii + 1, needed)

    def has_spill_store(self, value_id: int) -> bool:
        """True if the value already has a spill store in the graph
        (spilling another use of it then costs only the load)."""
        for edge in self.graph.out_edges(value_id):
            node = self.graph.node(edge.dst)
            if node.is_spill and node.kind.is_memory and (
                node.spilled_value == value_id
            ):
                return True
        return False
