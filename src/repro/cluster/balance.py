"""Register-pressure balancing by shifting move operations (Section 3.3.3).

When a cluster runs out of registers, MIRS-C first tries to *push or
pull* already-scheduled move operations in time: delaying a move into an
over-pressured cluster shortens the transported value's lifetime there
(the value is received later); advancing a move out of an over-pressured
cluster shortens the source value's lifetime (the value is read and sent
earlier).  Either way registers are released in one cluster at the cost
of occupancy in the other - spilling is attempted only "if not
sufficient".

Probing is *incremental*: the cluster's live-count rows are read off the
scheduler's :class:`~repro.schedule.pressure.PressureTracker` (already
current - no lifetime analysis is run), the contribution of the single
affected lifetime is subtracted, and each candidate cycle only re-folds
that one lifetime - O(II) per probe.
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
    """Scheduled moves whose shifting could relieve ``cluster``."""
    candidates = []
    for node in state.graph.nodes():
        if not node.is_move or not state.schedule.is_scheduled(node.id):
            continue
        into = state.schedule.cluster(node.id) == cluster
        out_of = node.src_cluster == cluster
        if into or out_of:
            candidates.append(node.id)
    # Deterministic order: latest-placed first (cheapest to revisit).
    candidates.sort(key=state.schedule.placement_seq, reverse=True)
    return candidates


def _value_lifetime(
    state: SchedulerState, node_id: int, *, time_override: int | None = None
) -> tuple[int, int]:
    """[start, end) of a scheduled node's value on the current schedule.

    ``time_override`` evaluates the lifetime as if the node issued at a
    different cycle (used while probing move shifts).
    """
    schedule = state.schedule
    ii = schedule.ii
    start = (
        time_override
        if time_override is not None
        else schedule.time(node_id)
    )
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
    examined = 0
    for move_id in _candidate_moves(state, cluster):
        if examined >= _BALANCE_CANDIDATES:
            break
        examined += 1
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

        schedule.eject(move_id)
        window = dependence_window(state.graph, schedule, node, state.machine)
        if into:
            hi = window.late if window.late is not None else old_cycle + ii - 1
            candidates = list(range(old_cycle + 1, hi + 1))[:_MAX_PROBES]
        else:
            lo = window.early if window.early is not None else old_cycle - ii + 1
            candidates = list(range(old_cycle - 1, lo - 1, -1))[:_MAX_PROBES]

        best_cycle = None
        for cycle in candidates:
            if into:
                new_lifetime = _value_lifetime(
                    state, move_id, time_override=cycle
                )
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
            schedule.place(
                node, old_cluster, old_cycle, src_cluster=node.src_cluster
            )
        else:
            schedule.place(
                node, old_cluster, best_cycle, src_cluster=node.src_cluster
            )
            improved = True
            state.stats.balance_shifts += 1
    return improved
