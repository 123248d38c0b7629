"""HRMS-style node pre-ordering.

MIRS-C pre-orders the nodes of the dependence graph into a *PriorityList*
using the HRMS strategy [22] (Section 3.1).  The published contract of
that ordering, which the scheduler relies on, is:

1. **recurrences first** - priority is given to recurrence circuits, the
   most critical (highest RecMII) first, so that no recurrence is
   stretched by later placement decisions;
2. **neighbour property** - when a node is scheduled, the partial
   schedule contains only predecessors of the node or only successors of
   it, never both (the sole exception being the node that closes a
   recurrence circuit).  This lets every node be placed flush against its
   scheduled neighbours, minimizing lifetimes.

The ordering is produced by hypernode-style alternating sweeps: each node
set (a recurrence together with the nodes on paths connecting it to
already-ordered sets, then the remaining weakly-connected components) is
consumed by alternating top-down passes (following successor edges from
ordered nodes) and bottom-up passes (following predecessor edges), exactly
the mechanism that guarantees property 2.  See DESIGN.md substitution
note (a).

The sweeps are steered by each node's depth and height, longest latency
paths over the *condensation* of the graph (recurrences collapsed to one
vertex).  Its components come from the shared Tarjan routine
(:func:`repro.graph.recurrences.strongly_connected_components`), which
emits them in reverse topological order, so the longest paths need no
separate topological sort.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable

from repro.graph.ddg import DependenceGraph
from repro.graph.latency import edge_latency
from repro.graph.recurrences import find_recurrences, strongly_connected_components
from repro.machine.config import MachineConfig


@dataclasses.dataclass(frozen=True)
class OrderingResult:
    """The pre-ordering of a graph.

    Attributes:
        order: node ids, highest priority first.
        priority: node id -> priority value (higher = scheduled earlier);
            priorities are spaced one unit apart so that spill and move
            nodes can later be slotted between existing priorities.
        recurrence_nodes: ids that belong to some recurrence circuit.
    """

    order: tuple[int, ...]
    priority: dict[int, float]
    recurrence_nodes: frozenset[int]


def _depths_and_heights(
    graph: DependenceGraph, machine: MachineConfig
) -> tuple[dict[int, int], dict[int, int]]:
    """Longest-latency-path depth (from roots) and height (to sinks).

    Computed on the *condensation* of the full dependence graph: strongly
    connected components collapse to single vertices, so every remaining
    edge (including loop-carried ones between different components)
    contributes its latency, while self-loops and other edges inside a
    component contribute nothing.  Heights then decrease *strictly* along
    every inter-component edge, which is what guarantees that the
    max-height sweeps below order predecessors before successors
    everywhere outside recurrence circuits.

    Tarjan emits the components in reverse topological order, so one
    forward pass settles every height (a component's successors come
    before it) and one backward pass settles every depth.
    """
    components = strongly_connected_components(graph.node_ids(), graph.succs)
    component_of = {
        node: index
        for index, members in enumerate(components)
        for node in members
    }
    # (successor component, latency) per component, parallel edges kept:
    # the max() below picks the most constraining one.
    successors: list[list[tuple[int, int]]] = [[] for _ in components]
    for edge in graph.edges():
        src_c = component_of[edge.src]
        dst_c = component_of[edge.dst]
        if src_c != dst_c:
            successors[src_c].append((dst_c, edge_latency(graph, edge, machine)))

    comp_height = [0] * len(components)
    for component, out in enumerate(successors):
        for succ, lat in out:
            if comp_height[succ] + lat > comp_height[component]:
                comp_height[component] = comp_height[succ] + lat
    comp_depth = [0] * len(components)
    for component in reversed(range(len(components))):
        for succ, lat in successors[component]:
            if comp_depth[component] + lat > comp_depth[succ]:
                comp_depth[succ] = comp_depth[component] + lat
    depth = {node: comp_depth[component_of[node]] for node in graph.node_ids()}
    height = {node: comp_height[component_of[node]] for node in graph.node_ids()}
    return depth, height


def _priority_node_sets(
    graph: DependenceGraph, machine: MachineConfig
) -> tuple[list[set[int]], frozenset[int]]:
    """Node sets in the order they must be consumed.

    Recurrences come first (most critical first), each widened with the
    nodes lying on paths between it and the previously consumed sets, so
    that the connection is ordered before jumping into the new recurrence.
    The leftovers are grouped by weakly connected component.
    """
    recurrences = find_recurrences(graph, machine)
    sets: list[set[int]] = []
    consumed: set[int] = set()
    for recurrence in recurrences:
        members = set(recurrence.nodes)
        if consumed:
            down = _closure(graph.succs, consumed) & _closure(graph.preds, members)
            up = _closure(graph.succs, members) & _closure(graph.preds, consumed)
            path_nodes = (down | up) - consumed - members
            if path_nodes:
                sets.append(path_nodes)
                consumed |= path_nodes
        sets.append(members)
        consumed |= members
    rest = set(graph.node_ids()) - consumed
    if rest:
        # Weak components of the whole graph, restricted to the leftovers.
        seen: set[int] = set()
        components = []
        for node in graph.node_ids():
            if node in rest and node not in seen:
                component = _closure(
                    lambda n: graph.succs(n) | graph.preds(n), {node}
                )
                seen |= component
                components.append(component & rest)
        components.sort(key=lambda c: (-len(c), min(c)))
        sets.extend(components)
    recurrence_ids = frozenset(
        node for recurrence in recurrences for node in recurrence.nodes
    )
    return sets, recurrence_ids


def _closure(step: Callable[[int], Iterable[int]], sources: set[int]) -> set[int]:
    """``sources`` plus every node reachable from them through ``step``
    (``graph.succs`` walks forward, ``graph.preds`` backward)."""
    seen = set(sources)
    frontier = list(sources)
    while frontier:
        node = frontier.pop()
        for neighbour in step(node):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen


def hrms_order(
    graph: DependenceGraph, machine: MachineConfig
) -> OrderingResult:
    """Pre-order the nodes of ``graph`` (see module docstring)."""
    if len(graph) == 0:
        return OrderingResult(order=(), priority={}, recurrence_nodes=frozenset())
    depth, height = _depths_and_heights(graph, machine)
    node_sets, recurrence_ids = _priority_node_sets(graph, machine)

    ordered: list[int] = []
    placed: set[int] = set()

    def top_down_key(node: int) -> tuple:
        # Most critical remaining path first; deep nodes last.
        return (height[node], -depth[node], -node)

    def bottom_up_key(node: int) -> tuple:
        return (depth[node], -height[node], -node)

    for node_set in node_sets:
        pending = set(node_set) - placed
        while pending:
            from_preds = {
                n for n in pending if graph.preds(n) & placed
            }
            from_succs = {
                n for n in pending if graph.succs(n) & placed
            }
            if from_preds:
                sweep, direction = set(from_preds), "top-down"
            elif from_succs:
                sweep, direction = set(from_succs), "bottom-up"
            else:
                # Fresh region: seed with its true sources (no predecessor
                # inside the pending set).  A recurrence set may have no
                # sources at all; fall back to its shallowest nodes.
                sources = {
                    n for n in pending if not (graph.preds(n) & pending - {n})
                }
                if sources:
                    sweep = sources
                else:
                    min_depth = min(depth[n] for n in pending)
                    sweep = {n for n in pending if depth[n] == min_depth}
                direction = "top-down"
            while sweep:
                if direction == "top-down":
                    node = max(sweep, key=top_down_key)
                else:
                    node = max(sweep, key=bottom_up_key)
                sweep.discard(node)
                pending.discard(node)
                ordered.append(node)
                placed.add(node)
                if direction == "top-down":
                    sweep |= graph.succs(node) & pending
                else:
                    sweep |= graph.preds(node) & pending

    total = len(ordered)
    priority = {node: float(total - index) for index, node in enumerate(ordered)}
    return OrderingResult(
        order=tuple(ordered),
        priority=priority,
        recurrence_nodes=recurrence_ids,
    )


def ordering_property_violations(
    graph: DependenceGraph, order: tuple[int, ...]
) -> list[int]:
    """Nodes violating the preds-XOR-succs property of the ordering.

    A violation is a node whose already-ordered neighbours include both
    predecessors and successors.  For a correct HRMS-style ordering only
    recurrence-closing nodes may appear here, so the list length is
    bounded by the number of recurrence circuits (asserted by tests).
    """
    placed: set[int] = set()
    violations = []
    for node in order:
        preds_in = graph.preds(node) & placed
        succs_in = graph.succs(node) & placed
        if preds_in and succs_in:
            violations.append(node)
        placed.add(node)
    return violations
