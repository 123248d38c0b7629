"""Register-pressure balancing by shifting move operations (Section 3.3.3).

When a cluster runs out of registers, MIRS-C first tries to *push or
pull* already-scheduled move operations in time: delaying a move into an
over-pressured cluster shortens the transported value's lifetime there
(the value is received later); advancing a move out of an over-pressured
cluster shortens the source value's lifetime (the value is read and sent
earlier).  Either way registers are released in one cluster at the cost
of occupancy in the other - spilling is attempted only "if not
sufficient".

The candidates are the ``_BALANCE_CANDIDATES`` latest-placed moves into
or out of the cluster, found by scanning the schedule backwards from the
latest placement.  Each one is probed **in place**, without ejecting it:

* the cluster's live-count rows are read off the scheduler's
  :class:`~repro.schedule.pressure.PressureTracker` (already current),
  the single affected lifetime is subtracted, and each candidate cycle
  re-folds only that one lifetime - O(II) per probe;
* when the stripped rows alone already reach the current MaxLive, no
  cycle can win (re-adding a lifetime only raises rows) and the probe
  loop is skipped;
* the slot window is the move's dependence window, which ignores the
  move's own time, so it is the same with the move still placed;
* the move's MRT reservation is lifted for the probes, so they do not
  collide with the move itself.

Only a winning shift ejects the move and places it at the new cycle.  A
move that does not shift is *re-stamped*
(:meth:`~repro.schedule.partial.PartialSchedule.restamp`): it becomes
the latest placed and its reservation is placed again first-fit, which
is what an eject and re-place at the old cycle leaves behind and what
later tie-breaks (placement order, MRT instances) read - without
refolding any lifetime.
"""

from __future__ import annotations

from repro.core.state import SchedulerState
from repro.graph.ddg import DepKind
from repro.graph.latency import node_latency
from repro.schedule.pressure import fold_lifetime
from repro.schedule.slots import dependence_window

#: Cap on candidate cycles probed per move (keeps balancing cheap).
_MAX_PROBES = 8
#: Moves examined per register-pressure balancing attempt (Sec 3.3.3).
_BALANCE_CANDIDATES = 4


def _candidate_moves(state: SchedulerState, cluster: int) -> list[int]:
    """The latest-placed scheduled moves (cheapest to revisit) whose
    shifting could relieve ``cluster``, at most ``_BALANCE_CANDIDATES``."""
    schedule = state.schedule
    candidates = []
    for node_id in schedule.latest_first():
        node = state.graph.node(node_id)
        if node.is_move and (
            schedule.cluster(node_id) == cluster or node.src_cluster == cluster
        ):
            candidates.append(node_id)
            if len(candidates) == _BALANCE_CANDIDATES:
                break
    return candidates


def _value_lifetime(
    state: SchedulerState, node_id: int, start: int
) -> tuple[int, int]:
    """[start, end) of a node's value if it issued at ``start``."""
    schedule = state.schedule
    ii = schedule.ii
    node = state.graph.node(node_id)
    end = start + node_latency(node, state.machine)
    for edge in state.graph.out_edges(node_id):
        if edge.kind is not DepKind.REG:
            continue
        if not schedule.is_scheduled(edge.dst):
            continue
        use = schedule.time(edge.dst) + ii * edge.distance
        if use > end:
            end = use
    return start, end


def _producer_lifetime_with_use(
    state: SchedulerState, producer: int, move_id: int, move_cycle: int
) -> tuple[int, int]:
    """Producer's lifetime if the move issued at ``move_cycle``."""
    schedule = state.schedule
    ii = schedule.ii
    start = schedule.time(producer)
    node = state.graph.node(producer)
    end = start + node_latency(node, state.machine)
    for edge in state.graph.out_edges(producer):
        if edge.kind is not DepKind.REG:
            continue
        if edge.dst == move_id:
            use = move_cycle + ii * edge.distance
        elif schedule.is_scheduled(edge.dst):
            use = schedule.time(edge.dst) + ii * edge.distance
        else:
            continue
        if use > end:
            end = use
    return start, end


def balance_register_pressure(state: SchedulerState, cluster: int) -> bool:
    """Try to relieve ``cluster`` by re-timing moves; True on improvement."""
    if not state.machine.is_clustered:
        return False
    schedule = state.schedule
    ii = schedule.ii
    tracker = state.pressure
    rows = tracker.variant_rows(cluster)
    invariants = tracker.invariant_registers(cluster)
    baseline = max(rows) + invariants

    improved = False
    for move_id in _candidate_moves(state, cluster):
        node = state.graph.node(move_id)
        old_cluster = schedule.cluster(move_id)
        old_cycle = schedule.time(move_id)
        into = old_cluster == cluster

        # Identify the one lifetime in ``cluster`` the shift affects and
        # strip its current contribution from the row counts.
        producer = None
        if into:
            affected_old = tracker.lifetime_bounds(move_id)
        else:
            producers = [
                e.src
                for e in state.graph.in_edges(move_id)
                if e.kind is DepKind.REG
            ]
            if not producers or not schedule.is_scheduled(producers[0]):
                continue  # invariant move: no producer lifetime to shrink
            producer = producers[0]
            if schedule.cluster(producer) != cluster:
                continue
            affected_old = _producer_lifetime_with_use(
                state, producer, move_id, old_cycle
            )
        stripped = rows.copy()
        fold_lifetime(stripped, ii, affected_old[0], affected_old[1], -1)

        best_cycle = None
        if max(stripped) + invariants < baseline:
            window = dependence_window(
                state.graph, schedule, node, state.machine
            )
            if into:
                hi = window.late if window.late is not None else old_cycle + ii - 1
                candidates = range(old_cycle + 1, hi + 1)[:_MAX_PROBES]
            else:
                lo = window.early if window.early is not None else old_cycle - ii + 1
                candidates = range(old_cycle - 1, lo - 1, -1)[:_MAX_PROBES]
            # The probes must not collide with the move's own
            # reservation; the re-stamp or re-place below books it again.
            schedule.mrt.remove(move_id)
            for cycle in candidates:
                if into:
                    new_lifetime = _value_lifetime(state, move_id, cycle)
                else:
                    new_lifetime = _producer_lifetime_with_use(
                        state, producer, move_id, cycle
                    )
                probe = stripped.copy()
                fold_lifetime(probe, ii, new_lifetime[0], new_lifetime[1], +1)
                new_max = max(probe) + invariants
                if new_max >= baseline:
                    continue
                if schedule.mrt.can_place(
                    node, old_cluster, cycle, src_cluster=node.src_cluster
                ):
                    best_cycle = cycle
                    rows = probe
                    baseline = new_max
                    break

        if best_cycle is None:
            schedule.restamp(node, src_cluster=node.src_cluster)
        else:
            schedule.eject(move_id)
            schedule.place(
                node, old_cluster, best_cycle, src_cluster=node.src_cluster
            )
            improved = True
            state.stats.balance_shifts += 1
    return improved
