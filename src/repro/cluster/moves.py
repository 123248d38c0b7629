"""Insertion of inter-cluster move operations (step C2, Section 3.3.2).

A move is needed whenever the node about to be scheduled consumes a value
produced in a different cluster, or produces a value already consumed by
operations scheduled in a different cluster.  One move is inserted per
(value, destination cluster) pair: "If a U node has one or more
successors in another cluster, only one move operation is inserted."

Edge distances are preserved across the rewiring: a move transporting the
value instance from ``d`` iterations ago carries distance ``d`` on its
producer edge, and each rewired consumer edge keeps the residual distance
relative to the move.
"""

from __future__ import annotations

import dataclasses

from repro.errors import SchedulingError
from repro.core.state import SchedulerState
from repro.graph.ddg import DepKind, Edge, Node
from repro.machine.resources import OpKind


@dataclasses.dataclass(frozen=True)
class MovePlan:
    """One pending communication discovered by ``next_needed_move``.

    Attributes:
        producer: node whose value must travel (``None`` for invariants).
        invariant: invariant id when re-materializing an invariant.
        src_cluster: cluster the value currently lives in.
        dst_cluster: cluster that needs it.
        edges: the register edges to rewire through the new move.
    """

    producer: int | None
    src_cluster: int
    dst_cluster: int
    edges: tuple[Edge, ...]
    invariant: int | None = None


def next_needed_move(
    state: SchedulerState, node: Node, cluster: int
) -> MovePlan | None:
    """The next move required before ``node`` can live in ``cluster``.

    Checked each time around the C2 loop of Figure 4, because scheduling
    one move can evict operations and change what is still needed.

    Operand side: each scheduled producer in a foreign cluster needs its
    value moved here.  Consumer side: each foreign cluster holding
    scheduled consumers of this node's value needs one move from here.
    """
    if state.machine.clusters == 1:
        return None  # one cluster: every value is already local
    graph = state.graph
    placed = state.schedule._cluster

    # Operand side.
    by_producer: dict[int, list[Edge]] = {}
    for edge in graph._in[node.id]:
        if edge.kind is not DepKind.REG or edge.src == node.id:
            continue
        producer_cluster = placed.get(edge.src)
        if producer_cluster is not None and producer_cluster != cluster:
            by_producer.setdefault(edge.src, []).append(edge)
    for producer, edges in sorted(by_producer.items()):
        return MovePlan(
            producer=producer,
            src_cluster=placed[producer],
            dst_cluster=cluster,
            edges=tuple(edges),
        )

    # Consumer side.
    if node.produces_value:
        by_cluster: dict[int, list[Edge]] = {}
        for edge in graph._out[node.id]:
            if edge.kind is not DepKind.REG or edge.dst == node.id:
                continue
            consumer_cluster = placed.get(edge.dst)
            if consumer_cluster is None:
                continue
            consumer = graph._nodes[edge.dst]
            if consumer.is_move and consumer.src_cluster is not None:
                # A consumer that is itself a move reads the value in its
                # declared source cluster (chained communications).
                consumer_cluster = consumer.src_cluster
            if consumer_cluster != cluster:
                by_cluster.setdefault(consumer_cluster, []).append(edge)
        for dst_cluster, edges in sorted(by_cluster.items()):
            return MovePlan(
                producer=node.id,
                src_cluster=cluster,
                dst_cluster=dst_cluster,
                edges=tuple(edges),
            )
    return None


def add_move(state: SchedulerState, plan: MovePlan) -> Node:
    """Insert the move described by ``plan`` into graph and PriorityList."""
    graph = state.graph
    if plan.src_cluster == plan.dst_cluster:
        raise SchedulingError("move within a single cluster is meaningless")
    if plan.invariant is not None:
        raise SchedulingError(
            "invariant re-materialization goes through add_invariant_move"
        )

    producer = plan.producer
    if producer is None:
        raise SchedulingError("non-invariant move plan needs a producer")
    min_distance = min(edge.distance for edge in plan.edges)
    move = graph.new_node(
        OpKind.MOVE,
        move_of=producer,
        src_cluster=plan.src_cluster,
    )
    graph.add_edge(
        producer, move.id, kind=DepKind.REG, distance=min_distance
    )
    for edge in plan.edges:
        graph.remove_edge(edge)
        graph.add_edge(
            move.id,
            edge.dst,
            kind=DepKind.REG,
            distance=edge.distance - min_distance,
        )
    # Moves inherit the priority of their associated producer/consumer
    # node (Section 3.1); ties resolve FIFO, so the move is picked
    # immediately if it is ever ejected.
    anchor = state.pl.priority.get(producer)
    if anchor is None:
        anchor = max(state.pl.priority.values(), default=1.0)
    state.pl.set_priority(move.id, anchor)
    state.stats.moves_added += 1
    return move


def add_invariant_move(
    state: SchedulerState,
    invariant_id: int,
    consumers: list[int],
    src_cluster: int,
    dst_cluster: int,
) -> Node:
    """Insert a move re-materializing an invariant in ``dst_cluster``.

    The listed consumers stop reading the invariant directly and read the
    move's value instead; the invariant's register in ``dst_cluster`` is
    freed (Section 3.3.2).
    """
    graph = state.graph
    invariant = graph.invariant(invariant_id)
    move = graph.new_node(
        OpKind.MOVE,
        move_of_invariant=invariant_id,
        src_cluster=src_cluster,
    )
    priority = 0.0
    for consumer in consumers:
        if consumer not in invariant.consumers:
            raise SchedulingError(
                f"node {consumer} does not consume invariant {invariant_id}"
            )
        graph.discard_invariant_consumer(invariant_id, consumer)
        graph.add_edge(move.id, consumer, kind=DepKind.REG, distance=0)
        priority = max(priority, state.pl.priority.get(consumer, 0.0))
    state.pl.push(move.id, priority - 0.5)
    state.spilled_invariants.add((invariant_id, dst_cluster))
    state.stats.moves_added += 1
    state.stats.invariant_spills += 1
    return move
