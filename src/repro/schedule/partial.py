"""The partial schedule S built incrementally by the iterative algorithm.

Tracks, for every scheduled node, its absolute issue cycle and cluster,
the order in which nodes were placed (the `Forcing_and_Ejection` heuristic
evicts the node "that was first placed in the partial schedule S"), and
the `Prev_Cycle` memory that steers forced placements away from a node's
previous position (Section 3.2.2, following Huff [16]).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from repro.errors import SchedulingError
from repro.graph.ddg import Node
from repro.machine.config import MachineConfig
from repro.schedule.mrt import ModuloReservationTable


class PartialSchedule:
    """Placement state of one scheduling attempt at a fixed II."""

    def __init__(self, machine: MachineConfig, ii: int):
        self.machine = machine
        self.ii = ii
        self.mrt = ModuloReservationTable(machine, ii)
        self._time: dict[int, int] = {}
        self._cluster: dict[int, int] = {}
        self._seq: dict[int, int] = {}
        #: MRT-row index: row -> {node id -> cluster}, in placement
        #: order (insertion-ordered dicts), maintained on place/eject so
        #: the spill-eject fallback is O(nodes in the row) instead of
        #: O(all scheduled nodes) per ejection decision.
        self._rows: dict[int, dict[int, int]] = {}
        self._counter = itertools.count()
        # Survives ejections (but not II restarts): the cycle each node
        # occupied the last time it was scheduled.
        self.prev_cycle: dict[int, int] = {}
        #: Placement observers (the incremental pressure tracker).  Each
        #: listener implements ``on_place(node, cluster, cycle)``,
        #: ``on_eject(node_id)`` and ``on_restamp(node_id)``;
        #: notifications fire *after* the schedule's own state changed.
        self.listeners: list = []

    @classmethod
    def from_placements(
        cls,
        machine: MachineConfig,
        ii: int,
        times: dict[int, int],
        clusters: dict[int, int],
    ) -> PartialSchedule:
        """A finished schedule's placements, without MRT reservations.

        For the consumers that only read times and clusters (lifetimes,
        register allocation).  Replaying :meth:`place` would re-run the
        MRT's first-fit instance choice, which is placement-order-
        dependent for unpipelined multi-row reservations and can reject
        a valid packing replayed in another order; the resource check
        of a finished schedule is :func:`repro.core.verify.verify_schedule`,
        which solves the instance assignment exactly.
        """
        schedule = cls(machine, ii)
        for node_id in sorted(times):
            cycle = times[node_id]
            cluster = clusters[node_id]
            schedule._time[node_id] = cycle
            schedule._cluster[node_id] = cluster
            schedule._seq[node_id] = next(schedule._counter)
            schedule._rows.setdefault(cycle % ii, {})[node_id] = cluster
            schedule.prev_cycle[node_id] = cycle
        return schedule

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_scheduled(self, node_id: int) -> bool:
        return node_id in self._time

    def time(self, node_id: int) -> int:
        if node_id not in self._time:
            raise SchedulingError(f"node {node_id} is not scheduled")
        return self._time[node_id]

    def cluster(self, node_id: int) -> int:
        if node_id not in self._cluster:
            raise SchedulingError(f"node {node_id} is not scheduled")
        return self._cluster[node_id]

    def placement_seq(self, node_id: int) -> int:
        return self._seq[node_id]

    def placements(self) -> tuple[dict[int, int], dict[int, int]]:
        """Copies of the (node id -> issue cycle) and (node id ->
        cluster) maps, in placement order."""
        return dict(self._time), dict(self._cluster)

    def scheduled_ids(self) -> list[int]:
        return list(self._time)

    def latest_first(self) -> Iterator[int]:
        """Scheduled node ids, latest placed first (descending
        ``placement_seq``: every placement and re-stamp appends)."""
        return reversed(self._seq)

    def __len__(self) -> int:
        return len(self._time)

    def row(self, node_id: int) -> int:
        """The MRT row (issue cycle modulo II) of a scheduled node."""
        return self.time(node_id) % self.ii

    def nodes_in_row(self, row: int, cluster: int | None = None) -> list[int]:
        """Ids of scheduled nodes issuing in the given MRT row.

        Served from the maintained row index (placement order), so the
        cost is proportional to the row's population — this is the hot
        query of the critical-row ejection fallback, which used to scan
        every scheduled node per ejection decision.
        """
        members = self._rows.get(row)
        if not members:
            return []
        if cluster is None:
            return list(members)
        return [n for n, c in members.items() if c == cluster]

    def span(self) -> tuple[int, int]:
        """(min, max) issue cycles of the schedule (0, 0 when empty)."""
        if not self._time:
            return (0, 0)
        times = self._time.values()
        return (min(times), max(times))

    def stage_count(self) -> int:
        """Number of kernel stages (depth of iteration overlap)."""
        low, high = self.span()
        if not self._time:
            return 0
        return (high - low) // self.ii + 1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def place(
        self,
        node: Node,
        cluster: int,
        cycle: int,
        src_cluster: int | None = None,
    ) -> None:
        """Place a node; the MRT must accept the reservation."""
        self.mrt.place(node, cluster, cycle, src_cluster=src_cluster)
        self._time[node.id] = cycle
        self._cluster[node.id] = cluster
        self._seq[node.id] = next(self._counter)
        self._rows.setdefault(cycle % self.ii, {})[node.id] = cluster
        self.prev_cycle[node.id] = cycle
        for listener in self.listeners:
            listener.on_place(node, cluster, cycle)

    def eject(self, node_id: int) -> tuple[int, int]:
        """Remove a node from the schedule; returns its old placement.

        ``prev_cycle`` keeps the old cycle so that a forced re-placement
        explores new cycles instead of ping-ponging.  The node's MRT
        reservation may already be released (a probe of its other
        cycles lifts it).
        """
        if node_id not in self._time:
            raise SchedulingError(f"cannot eject unscheduled node {node_id}")
        if self.mrt.holds(node_id):
            self.mrt.remove(node_id)
        old = (self._cluster.pop(node_id), self._time.pop(node_id))
        del self._seq[node_id]
        del self._rows[old[1] % self.ii][node_id]
        for listener in self.listeners:
            listener.on_eject(node_id)
        return old

    def restamp(self, node: Node, src_cluster: int | None = None) -> None:
        """Leave what ejecting a node and placing it back at its own
        cycle and cluster would leave, without the round trip.

        The node becomes the latest placed: it gets a new
        ``placement_seq`` and moves to the end of the placement-ordered
        maps and of its row.  Its MRT reservation is released (unless a
        probe already did) and placed again first-fit, which can move it
        to a lower instance.  Listeners get ``on_restamp(node_id)``; no
        time, cluster or lifetime changes, so nothing needs refolding.
        """
        node_id = node.id
        if node_id not in self._time:
            raise SchedulingError(f"cannot restamp unscheduled node {node_id}")
        cycle = self._time.pop(node_id)
        cluster = self._cluster.pop(node_id)
        if self.mrt.holds(node_id):
            self.mrt.remove(node_id)
        self.mrt.place(node, cluster, cycle, src_cluster=src_cluster)
        self._time[node_id] = cycle
        self._cluster[node_id] = cluster
        del self._seq[node_id]
        self._seq[node_id] = next(self._counter)
        members = self._rows[cycle % self.ii]
        del members[node_id]
        members[node_id] = cluster
        for listener in self.listeners:
            listener.on_restamp(node_id)

    def forget(self, node_id: int) -> None:
        """Drop all traces of a node removed from the graph entirely."""
        if node_id in self._time:
            self.eject(node_id)
        self.prev_cycle.pop(node_id, None)
