"""Cluster selection (step C1 of Figure 4, Section 3.3.1).

After picking node U from the PriorityList the algorithm chooses the
cluster to schedule it into, considering **in this order**:

1. availability of an empty slot for U in the current partial schedule of
   each cluster (one slot is enough),
2. the minimum number of move operations that would be required to access
   the values produced/consumed by already-scheduled operations,
3. the minimum occupancy of the functional unit that can perform U.

Only the first criterion needs a slot search, so it is the one run
last: clusters are ranked by (moves, FU occupancy, index), slots are
probed in that order, and the first cluster with a free slot wins.
When no cluster has one, the best-ranked cluster is returned (the
forced placement ejects there).  That is the minimum of the full key
(no free slot, moves, occupancy, index) over every cluster, found with
one ``find_free_slot`` per cluster up to the winner instead of one per
cluster.

Spill loads and stores are pinned next to the value they spill: the store
goes where the value lives, the load where its consumer executes, so the
spilled traffic never crosses clusters gratuitously.
"""

from __future__ import annotations

from repro.core.state import SchedulerState
from repro.graph.ddg import DepKind, Node
from repro.machine.resources import OpKind, ResourceClass
from repro.schedule.slots import dependence_window, find_free_slot


def _resource_for(kind: OpKind) -> ResourceClass:
    if kind.is_compute:
        return ResourceClass.GP_FU
    if kind.is_memory:
        return ResourceClass.MEM_PORT
    return ResourceClass.OUT_PORT


def _communication_profile(
    state: SchedulerState, node: Node
) -> tuple[list[int], set[int]]:
    """Clusters of the scheduled producers / consumers touching ``node``.

    Computed once per selection: the per-cluster move count is then a
    pure function of this profile, so choosing among C clusters costs
    O(degree + C) instead of the old O(degree x C) rescans.
    """
    producer_clusters: list[int] = []
    seen_producers: set[int] = set()
    for edge in state.graph.in_edges(node.id):
        if edge.kind is not DepKind.REG or edge.src in seen_producers:
            continue
        if edge.src == node.id:
            continue
        if state.schedule.is_scheduled(edge.src):
            seen_producers.add(edge.src)
            producer_clusters.append(state.schedule.cluster(edge.src))
    consumer_clusters: set[int] = set()
    if node.produces_value:
        consumer_clusters = {
            consumer_cluster
            for _, consumer_cluster in state.scheduled_reg_consumers(node.id)
        }
    return producer_clusters, consumer_clusters


def _moves_for(
    producer_clusters: list[int], consumer_clusters: set[int], cluster: int
) -> int:
    count = sum(1 for c in producer_clusters if c != cluster)
    count += sum(1 for c in consumer_clusters if c != cluster)
    return count


def _pinned_cluster(state: SchedulerState, node: Node) -> int | None:
    """Cluster a spill node is pinned to (next to its value / consumer)."""
    if not node.is_spill:
        return None
    if node.kind is OpKind.STORE:
        # Keep the store where the spilled value lives.
        for edge in state.graph.in_edges(node.id):
            if edge.kind is DepKind.REG and state.schedule.is_scheduled(edge.src):
                return state.schedule.cluster(edge.src)
    if node.kind is OpKind.LOAD:
        # Keep the load where its consumers execute.
        for edge in state.graph.out_edges(node.id):
            if edge.kind is DepKind.REG and state.schedule.is_scheduled(edge.dst):
                return state.schedule.cluster(edge.dst)
    return None


def select_cluster(state: SchedulerState, node: Node) -> int:
    """Choose the cluster for ``node`` (Section 3.3.1).

    For single-cluster machines this is always cluster 0.  Spill nodes
    go to their pinned cluster; every other node to the first cluster,
    in (moves, occupancy, index) order, with a free slot.
    """
    machine = state.machine
    if machine.clusters == 1:
        return 0
    pinned = _pinned_cluster(state, node)
    if pinned is not None:
        return pinned

    window = dependence_window(
        state.graph,
        state.schedule,
        node,
        machine,
        distance_gauge=state.params.distance_gauge if node.is_spill else None,
    )
    resource = _resource_for(node.kind)
    producers, consumers = _communication_profile(state, node)
    mrt = state.schedule.mrt
    ranked = sorted(
        range(machine.clusters),
        key=lambda cluster: (
            _moves_for(producers, consumers, cluster),
            mrt.occupancy_fraction(resource, cluster),
            cluster,
        ),
    )
    for cluster in ranked:
        if find_free_slot(state.schedule, node, cluster, window) is not None:
            return cluster
    return ranked[0]
