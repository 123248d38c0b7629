"""EarlyStart / LateStart / Direction computation (Section 3.1).

For a node *u* being (re)placed into the partial schedule:

* ``EarlyStart`` is the earliest cycle at which u can issue so that every
  *scheduled* predecessor completes first,
* ``LateStart`` is the latest cycle at which u can issue so that it
  completes before every *scheduled* successor starts,
* ``Direction`` is the sense in which free slots are probed.

Spill nodes carry the paper's *distance gauge* (DG): a spill load is kept
within DG cycles of its consumer (``EarlyStart = LateStart - DG``) and a
spill store within DG cycles of its producer (``LateStart = EarlyStart +
DG``), so spilled values spend their lives in memory rather than in
registers (Section 3.2.3).
"""

from __future__ import annotations

import dataclasses
import enum

from repro.graph.ddg import DependenceGraph, Node
from repro.graph.latency import edge_latency
from repro.machine.config import MachineConfig
from repro.machine.resources import OpKind
from repro.schedule.partial import PartialSchedule


class Direction(enum.Enum):
    """Search direction for a free slot."""

    FORWARD = "forward"  # from EarlyStart towards LateStart
    BACKWARD = "backward"  # from LateStart towards EarlyStart


@dataclasses.dataclass(slots=True)
class SlotWindow:
    """The candidate cycles for one placement attempt.

    Attributes:
        early: EarlyStart (``None`` when no scheduled predecessor bounds it).
        late: LateStart (``None`` when no scheduled successor bounds it).
        start, stop: first and last candidate cycles, inclusive, in search
            order (``start`` may exceed ``stop`` for empty windows).
        direction: the search direction.
    """

    early: int | None
    late: int | None
    start: int
    stop: int
    direction: Direction

    def candidates(self) -> range:
        """Candidate cycles in search order."""
        if self.direction is Direction.FORWARD:
            return range(self.start, self.stop + 1)
        return range(self.start, self.stop - 1, -1)

    @property
    def empty(self) -> bool:
        if self.direction is Direction.FORWARD:
            return self.start > self.stop
        return self.start < self.stop


def dependence_window(
    graph: DependenceGraph,
    schedule: PartialSchedule,
    node: Node,
    machine: MachineConfig,
    *,
    distance_gauge: int | None = None,
) -> SlotWindow:
    """Compute the slot window of ``node`` against the partial schedule."""
    ii = schedule.ii
    times = schedule._time
    node_id = node.id
    early: int | None = None
    late: int | None = None
    for edge in graph._in[node_id]:
        src_time = times.get(edge.src)
        if src_time is None or edge.src == node_id:
            continue
        bound = src_time + edge_latency(graph, edge, machine) - ii * edge.distance
        if early is None or bound > early:
            early = bound
    for edge in graph._out[node_id]:
        dst_time = times.get(edge.dst)
        if dst_time is None or edge.dst == node_id:
            continue
        bound = dst_time - edge_latency(graph, edge, machine) + ii * edge.distance
        if late is None or bound < late:
            late = bound

    if distance_gauge is not None and node.is_spill:
        if node.kind is OpKind.LOAD and late is not None:
            gauge_bound = late - distance_gauge
            early = gauge_bound if early is None else max(early, gauge_bound)
        if node.kind is OpKind.STORE and early is not None:
            gauge_bound = early + distance_gauge
            late = gauge_bound if late is None else min(late, gauge_bound)

    if early is not None and late is not None:
        # Both sides constrained: search forward within the intersection
        # of the dependence window and one II worth of slots.
        return SlotWindow(
            early=early,
            late=late,
            start=early,
            stop=min(late, early + ii - 1),
            direction=Direction.FORWARD,
        )
    if early is not None:
        return SlotWindow(
            early=early,
            late=None,
            start=early,
            stop=early + ii - 1,
            direction=Direction.FORWARD,
        )
    if late is not None:
        return SlotWindow(
            early=None,
            late=late,
            start=late,
            stop=late - ii + 1,
            direction=Direction.BACKWARD,
        )
    # Unconstrained (first node of its region): any row will do.
    return SlotWindow(
        early=None, late=None, start=0, stop=ii - 1, direction=Direction.FORWARD
    )


def find_free_slot(
    schedule: PartialSchedule,
    node: Node,
    cluster: int,
    window: SlotWindow,
    src_cluster: int | None = None,
) -> int | None:
    """First conflict-free cycle in the window, in search order."""
    if window.empty:
        return None
    for cycle in window.candidates():
        if schedule.mrt.can_place(node, cluster, cycle, src_cluster=src_cluster):
            return cycle
    return None


def forced_cycle(
    schedule: PartialSchedule, node: Node, window: SlotWindow
) -> int:
    """The cycle at which a failed placement is *forced* (Section 3.2.2).

    Forward searches force ``max(EarlyStart, Prev_Cycle + 1)``; backward
    searches force ``min(LateStart, Prev_Cycle - 1)``.  A node that was
    never scheduled before is forced at the window edge itself.
    """
    previous = schedule.prev_cycle.get(node.id)
    if window.direction is Direction.FORWARD:
        anchor = window.early if window.early is not None else window.start
        if previous is None:
            return anchor
        return max(anchor, previous + 1)
    anchor = window.late if window.late is not None else window.start
    if previous is None:
        return anchor
    return min(anchor, previous - 1)


def violates_dependences(
    graph: DependenceGraph,
    schedule: PartialSchedule,
    node_id: int,
    machine: MachineConfig,
) -> list[int]:
    """Scheduled neighbours whose dependence with ``node_id`` is violated.

    Used after a forced placement to decide which nodes must be ejected.
    """
    ii = schedule.ii
    times = schedule._time
    t_node = schedule.time(node_id)
    offenders: list[int] = []
    for edge in graph._in[node_id]:
        src_time = times.get(edge.src)
        if edge.src == node_id or src_time is None:
            continue
        latency = edge_latency(graph, edge, machine)
        if t_node < src_time + latency - ii * edge.distance:
            offenders.append(edge.src)
    for edge in graph._out[node_id]:
        dst_time = times.get(edge.dst)
        if edge.dst == node_id or dst_time is None:
            continue
        latency = edge_latency(graph, edge, machine)
        if dst_time < t_node + latency - ii * edge.distance:
            offenders.append(edge.dst)
    return offenders
