"""The per-node scheduling step (Figure 3 of the paper).

``schedule_node`` computes EarlyStart, LateStart and the search direction,
probes for a free slot, and - failing that - applies the
``Forcing_and_Ejection`` heuristic (Section 3.2.2): the node is forced at
``max(EarlyStart, Prev_Cycle + 1)`` (or the mirror-image cycle for
backward searches) and the conflicting operations are ejected.

Unlike earlier iterative schedulers [6, 16, 28], which eject *every*
operation involved in a resource conflict, MIRS-C ejects only **one** per
conflict - the operation that was placed into the partial schedule first.
Dependence-violating neighbours of the forced node are then ejected as
well.  (``MirsParams.eject_all`` restores the eject-everything policy for
the ablation benchmark.)

Every ``schedule.place`` / ``state.eject_node`` below emits a placement
event that the state's incremental
:class:`~repro.schedule.pressure.PressureTracker` consumes, so the
register-pressure check that follows each placement reads up-to-date
MaxLive/critical-row state without any recomputation here.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.core.state import SchedulerState
from repro.graph.ddg import Node
from repro.schedule.slots import (
    dependence_window,
    find_free_slot,
    forced_cycle,
    violates_dependences,
)

#: Safety valve on consecutive ejections while forcing a single node.
_MAX_FORCE_EVICTIONS = 64


def schedule_node(state: SchedulerState, node: Node, cluster: int) -> bool:
    """Place ``node`` into ``cluster``, ejecting others if necessary.

    Returns ``False`` when the node vanished from the graph as a side
    effect of the ejections (possible for moves whose producer was
    evicted); the caller then re-plans.
    """
    window = dependence_window(
        state.graph,
        state.schedule,
        node,
        state.machine,
        distance_gauge=state.params.distance_gauge if node.is_spill else None,
    )
    src_cluster = node.src_cluster if node.is_move else None
    slot = find_free_slot(
        state.schedule, node, cluster, window, src_cluster=src_cluster
    )
    if slot is not None:
        state.schedule.place(node, cluster, slot, src_cluster=src_cluster)
        state.stats.nodes_scheduled += 1
        return True
    return _force_and_eject(state, node, cluster, window, src_cluster)


def _force_and_eject(
    state: SchedulerState,
    node: Node,
    cluster: int,
    window,
    src_cluster: int | None,
) -> bool:
    """The Forcing_and_Ejection heuristic."""
    schedule = state.schedule
    mrt = schedule.mrt
    if not mrt.feasible_at_ii(node, cluster, src_cluster=src_cluster):
        raise SchedulingError(
            f"operation {node.name} cannot execute at II={state.ii}: its "
            "reservation table collides with itself (II below occupancy)"
        )
    cycle = forced_cycle(schedule, node, window)
    state.stats.forced_placements += 1

    evictions = 0
    while not mrt.can_place(node, cluster, cycle, src_cluster=src_cluster):
        victims = mrt.blocking_nodes(
            node, cluster, cycle, src_cluster=src_cluster
        )
        if not victims:
            raise SchedulingError(
                f"no free slot and no victims for {node.name} at "
                f"cluster {cluster} cycle {cycle}"
            )
        if state.params.eject_all:
            chosen = list(victims)
        else:
            # The paper's policy: evict only the operation that was
            # placed in the partial schedule first.
            chosen = [min(victims, key=schedule.placement_seq)]
        for victim in chosen:
            if state.schedule.is_scheduled(victim):
                state.eject_node(victim)
        evictions += len(chosen)
        if node.id not in state.graph:
            return False  # the node was removed while ejecting
        if evictions > _MAX_FORCE_EVICTIONS:
            raise SchedulingError(
                f"eviction storm while forcing {node.name}; "
                "the partial schedule is livelocked"
            )

    schedule.place(node, cluster, cycle, src_cluster=src_cluster)
    state.stats.nodes_scheduled += 1

    # Eject every scheduled neighbour whose dependence the forced
    # placement violates.
    for offender in violates_dependences(
        state.graph, schedule, node.id, state.machine
    ):
        if state.schedule.is_scheduled(offender):
            state.eject_node(offender)
    return node.id in state.graph
