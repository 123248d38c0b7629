"""Lifetime analysis over (partial) modulo schedules.

Register requirements are approximated with *MaxLive*, the maximum number
of simultaneously live values (Section 3.1, following Rau et al. [27]).
On a modulo schedule a value whose lifetime is longer than II has several
simultaneously live instances - one per overlapped iteration - which the
row-folding count below captures naturally.

The analysis also produces the paper's spill-selection inputs:

* the **critical cycle** - the MRT row with the highest live count,
* the **uses** of each value - the lifetime sections running from the
  previous use (or the definition) to each consumer - together with the
  non-spillable prefix covering the producer's latency.

This is the *batch* analysis: it is built once per finished schedule
(by :func:`repro.core.result.allocate`, whose allocation the result
carries) and serves as the
reference implementation for the per-placement incremental engine in
:mod:`repro.schedule.pressure`, which must stay bit-identical to it
(``PressureTracker.assert_matches_scratch``).  The scheduler's hot path
no longer runs this per placement.  Both classes satisfy
:class:`PressureView`, the query surface the spill heuristic and the
register allocator read.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Protocol

from repro.graph.ddg import DepKind, DependenceGraph, Node
from repro.machine.config import MachineConfig
from repro.machine.resources import OpKind
from repro.schedule.partial import PartialSchedule


@dataclasses.dataclass(slots=True)
class UseSegment:
    """One lifetime section ("use", Section 3.1) of a value.

    The section runs from the previous use (or the definition) to the
    consumer it feeds.  Spilling it stores the value right after the
    section start and reloads it right before the consumer.

    Attributes:
        value: id of the producing node.
        consumer: id of the consuming node.
        edge_distance: iteration distance of the consumed edge.
        start: absolute cycle at which the section begins.
        end: absolute cycle of the consumer's issue.
        non_spillable_end: absolute cycle where the producer-latency
            prefix of the lifetime ends (sections inside it cannot be
            spilled because the value does not exist in a register yet).
        cluster: cluster holding the value.
    """

    value: int
    consumer: int
    edge_distance: int
    start: int
    end: int
    non_spillable_end: int
    cluster: int

    @property
    def span(self) -> int:
        return self.end - self.start

    @property
    def spillable(self) -> bool:
        return self.start >= self.non_spillable_end

    def crosses_row(self, row: int, ii: int) -> bool:
        """True if some cycle of [start, end) is congruent to ``row``
        (never for an empty section)."""
        span = self.end - self.start
        return span > 0 and (span >= ii or (row - self.start) % ii < span)


@dataclasses.dataclass(frozen=True)
class ValueLifetime:
    """The full lifetime of one value on the current partial schedule."""

    value: int
    cluster: int
    start: int
    end: int

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclasses.dataclass
class ClusterPressure:
    """Register pressure snapshot of one cluster."""

    rows: list[int]  # live-variant count per MRT row
    invariant_registers: int

    @property
    def max_live(self) -> int:
        return max(self.rows, default=0) + self.invariant_registers

    @property
    def critical_row(self) -> int:
        # The first row among equals, like the tracker's.
        return self.rows.index(max(self.rows)) if self.rows else 0


class PressureView(Protocol):
    """The pressure queries the spill heuristic and the register allocator
    read: served by the batch :class:`LifetimeAnalysis` and by the
    incremental :class:`~repro.schedule.pressure.PressureTracker` alike."""

    @property
    def lifetimes(self) -> list[ValueLifetime]: ...

    @property
    def pressure(self) -> dict[int, ClusterPressure]: ...

    def max_live(self, cluster: int) -> int: ...

    def critical_row(self, cluster: int) -> int: ...

    def segments_crossing(self, cluster: int, row: int) -> list[UseSegment]: ...

    def lifetime_length(self, node_id: int) -> int: ...


class LifetimeAnalysis:
    """Lifetimes, register pressure and uses of a (partial) schedule.

    Args:
        graph: the dependence graph (possibly containing spill/move nodes).
        schedule: the partial schedule.
        machine: target machine.
        spilled_invariants: (invariant id, cluster) pairs whose dedicated
            register was dropped by invariant spilling.
    """

    def __init__(
        self,
        graph: DependenceGraph,
        schedule: PartialSchedule,
        machine: MachineConfig,
        spilled_invariants: set[tuple[int, int]] = frozenset(),
        collect_segments: bool = True,
    ):
        self.graph = graph
        self.schedule = schedule
        self.machine = machine
        self.ii = schedule.ii
        self.lifetimes: list[ValueLifetime] = []
        self.segments: list[UseSegment] = []
        self.pressure: dict[int, ClusterPressure] = {}
        self._spilled_invariants = spilled_invariants
        self._want_segments = collect_segments
        self._compute()

    # ------------------------------------------------------------------

    def _compute(self) -> None:
        ii = self.ii
        schedule = self.schedule
        graph = self.graph
        # Difference-array row folding: O(1) per lifetime, one O(II)
        # cumulative sum per cluster at the end.
        diffs = {c: [0] * (ii + 1) for c in range(self.machine.clusters)}
        bases = {c: 0 for c in range(self.machine.clusters)}
        # Hot path: runs after every node placement.  Local bindings and
        # direct access to the schedule/graph internals keep it cheap.
        times = schedule._time
        clusters = schedule._cluster
        nodes = graph._nodes
        out_adjacency = graph._out
        latency_by_kind = {
            kind: self.machine.latency(kind)
            for kind in {n.kind for n in nodes.values()}
        }
        store_kind = OpKind.STORE
        reg_kind = DepKind.REG
        lifetimes_append = self.lifetimes.append
        for node_id, start in times.items():
            node = nodes[node_id]
            if node.kind is store_kind:
                continue
            cluster = clusters[node_id]
            if node.latency_override is not None:
                latency = node.latency_override
            else:
                latency = latency_by_kind[node.kind]
            end = start + latency
            uses: list[tuple[int, int, int]] = []  # (use cycle, consumer, dist)
            for edge in out_adjacency[node_id]:
                if edge.kind is not reg_kind or edge.dst not in times:
                    continue
                use_cycle = times[edge.dst] + ii * edge.distance
                uses.append((use_cycle, edge.dst, edge.distance))
                if use_cycle > end:
                    end = use_cycle
            lifetimes_append(
                ValueLifetime(value=node_id, cluster=cluster, start=start, end=end)
            )
            full, rest = divmod(end - start, ii)
            bases[cluster] += full
            if rest:
                diff = diffs[cluster]
                first = start % ii
                tail = first + rest
                if tail <= ii:
                    diff[first] += 1
                    diff[tail] -= 1
                else:
                    diff[first] += 1
                    diff[ii] -= 1
                    diff[0] += 1
                    diff[tail - ii] -= 1
            if self._want_segments:
                self._collect_segments(node, cluster, start, latency, uses)

        invariant_counts = self._invariant_registers()
        for cluster in range(self.machine.clusters):
            base = bases[cluster]
            self.pressure[cluster] = ClusterPressure(
                rows=[base + r for r in itertools.accumulate(diffs[cluster][:ii])],
                invariant_registers=invariant_counts.get(cluster, 0),
            )

    def _collect_segments(
        self,
        node: Node,
        cluster: int,
        start: int,
        latency: int,
        uses: list[tuple[int, int, int]],
    ) -> None:
        """Split the lifetime of ``node``'s value into use sections."""
        if node.is_spill:
            # Values produced by spill loads are not spilled again.
            return
        non_spillable_end = start + latency
        previous = start
        for use_cycle, consumer, distance in sorted(uses):
            consumer_node = self.graph.node(consumer)
            if not (consumer_node.is_spill and consumer_node.kind.is_memory
                    and consumer_node.spilled_value == node.id):
                self.segments.append(
                    UseSegment(
                        value=node.id,
                        consumer=consumer,
                        edge_distance=distance,
                        start=previous,
                        end=use_cycle,
                        non_spillable_end=non_spillable_end,
                        cluster=cluster,
                    )
                )
            previous = use_cycle

    def _invariant_registers(self) -> dict[int, int]:
        """Registers held by loop invariants, per cluster.

        An invariant occupies one register in every cluster where at least
        one of its consumers is scheduled, unless it was spilled in that
        cluster (Section 3.3.2).
        """
        counts: dict[int, int] = {}
        for inv in self.graph.invariants():
            clusters = {
                self.schedule.cluster(consumer)
                for consumer in inv.consumers
                if self.schedule.is_scheduled(consumer)
            }
            for cluster in clusters:
                if (inv.id, cluster) in self._spilled_invariants:
                    continue
                counts[cluster] = counts.get(cluster, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    def max_live(self, cluster: int) -> int:
        return self.pressure[cluster].max_live

    def critical_row(self, cluster: int) -> int:
        return self.pressure[cluster].critical_row

    def segments_in_cluster(self, cluster: int) -> list[UseSegment]:
        return [s for s in self.segments if s.cluster == cluster]

    def segments_crossing(self, cluster: int, row: int) -> list[UseSegment]:
        """The cluster's use segments that cross MRT ``row``."""
        return [
            s for s in self.segments_in_cluster(cluster)
            if s.crosses_row(row, self.ii)
        ]

    def lifetime_length(self, node_id: int) -> int:
        """Lifetime length of a value, 0 when it has none (e.g. stores)."""
        for lifetime in self.lifetimes:
            if lifetime.value == node_id:
                return lifetime.length
        return 0
