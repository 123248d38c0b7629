"""Recurrence (cyclic dependence) analysis and RecMII computation.

A *recurrence circuit* is a dependence cycle; the initiation interval of
any legal modulo schedule satisfies, for every circuit ``C``::

    II >= ceil( sum(latency(e) for e in C) / sum(distance(e) for e in C) )

``RecMII`` is the maximum of this bound over all circuits.  Enumerating
circuits is exponential, so we instead binary-search the smallest II for
which the edge weights ``latency(e) - II * distance(e)`` admit no
positive-weight cycle - an exact, polynomial algorithm.  Every circuit
lies inside one strongly connected component, so the search runs per
component, and each probe is a sparse Bellman-Ford longest-path pass
over that component's edges alone (O(V * E), with an early exit on the
first round that changes nothing).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Callable, Iterable, Sequence

from repro.errors import GraphError
from repro.graph.ddg import DependenceGraph
from repro.graph.latency import edge_latency
from repro.machine.config import MachineConfig


@dataclasses.dataclass(frozen=True)
class Recurrence:
    """A strongly connected component containing at least one circuit.

    Attributes:
        nodes: the member node ids.
        rec_mii: the RecMII bound imposed by the circuits inside this
            component alone.
    """

    nodes: frozenset[int]
    rec_mii: int

    def __len__(self) -> int:
        return len(self.nodes)


def strongly_connected_components(
    nodes: Iterable[int], successors: Callable[[int], Iterable[int]]
) -> list[list[int]]:
    """Tarjan's strongly connected components, without recursion.

    Components come out in *reverse topological order* of the
    condensation: when an edge leads from component ``A`` to a different
    component ``B``, ``B`` is emitted before ``A``.  The result depends
    only on the iteration order of ``nodes`` and ``successors``, so it is
    deterministic for deterministic inputs.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    components: list[list[int]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, pending = work[-1]
            for succ in pending:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(successors(succ))))
                    break
                if succ in on_stack and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def _has_positive_cycle(
    n: int, edges: list[tuple[int, int, int, int]], ii: int
) -> bool:
    """True if the weights ``latency - ii * distance`` admit a positive cycle.

    Bellman-Ford longest paths over ``n`` vertices from a virtual source
    joined to every vertex (so every potential starts at 0).  Without a
    positive cycle the potentials settle within ``n - 1`` rounds; a
    relaxation in round ``n`` proves the cycle.
    """
    weighted = [(si, di, lat - ii * dist) for si, di, lat, dist in edges]
    potential = [0] * n
    for _ in range(n):
        changed = False
        for si, di, weight in weighted:
            candidate = potential[si] + weight
            if candidate > potential[di]:
                potential[di] = candidate
                changed = True
        if not changed:
            return False
    return True


def _component_edges(
    graph: DependenceGraph,
    machine: MachineConfig,
    node_ids: Sequence[int],
) -> list[tuple[int, int, int, int]]:
    """Edges inside ``node_ids`` as (src index, dst index, latency, distance)."""
    index = {node_id: i for i, node_id in enumerate(node_ids)}
    rows = []
    for node_id in node_ids:
        si = index[node_id]
        for edge in graph.out_edges(node_id):
            di = index.get(edge.dst)
            if di is not None:
                rows.append(
                    (si, di, edge_latency(graph, edge, machine), edge.distance)
                )
    return rows


def _rec_mii_of(
    graph: DependenceGraph,
    machine: MachineConfig,
    node_ids: Sequence[int],
) -> int:
    """Exact RecMII over the subgraph induced by ``node_ids``."""
    edges = _component_edges(graph, machine, node_ids)
    if not edges:
        return 1
    n = len(node_ids)

    def feasible(ii: int) -> bool:
        return not _has_positive_cycle(n, edges, ii)

    low = 1
    high = max(1, sum(lat for (_, _, lat, _) in edges))
    if feasible(low):
        return low
    if not feasible(high):
        # A cycle whose total distance is zero can never be scheduled:
        # its bound grows without limit.
        raise GraphError(
            "dependence graph contains a zero-distance circuit; "
            "no initiation interval can satisfy it"
        )
    while low + 1 < high:
        mid = (low + high) // 2
        if feasible(mid):
            high = mid
        else:
            low = mid
    return high


def find_recurrences(
    graph: DependenceGraph, machine: MachineConfig
) -> list[Recurrence]:
    """All recurrence components, most critical (highest RecMII) first.

    Ties are broken by component size (larger first) and then by the
    smallest member id, so the result is deterministic.
    """
    recurrences = []
    for component in strongly_connected_components(graph.node_ids(), graph.succs):
        nodes = frozenset(component)
        is_cyclic = len(nodes) > 1 or any(
            edge.dst == edge.src for edge in graph.out_edges(component[0])
        )
        if not is_cyclic:
            continue
        rec_mii = _rec_mii_of(graph, machine, sorted(nodes))
        recurrences.append(Recurrence(nodes=nodes, rec_mii=rec_mii))
    recurrences.sort(key=lambda r: (-r.rec_mii, -len(r.nodes), min(r.nodes)))
    return recurrences


def recurrence_mii(graph: DependenceGraph, machine: MachineConfig) -> int:
    """RecMII of the whole graph (1 if the graph is acyclic).

    Every circuit lies inside one strongly connected component, so this
    is the largest per-component bound.
    """
    return max(
        (r.rec_mii for r in find_recurrences(graph, machine)), default=1
    )


def recurrence_nodes(recurrences: list[Recurrence]) -> set[int]:
    """Union of the member nodes of the given recurrences."""
    members: set[int] = set()
    for recurrence in recurrences:
        members |= recurrence.nodes
    return members


def circuit_bound(
    graph: DependenceGraph, machine: MachineConfig, circuit: Sequence[int]
) -> int:
    """RecMII bound of one explicit circuit (mainly for tests).

    ``circuit`` is a node sequence.  Parallel edges between consecutive
    nodes make several edge circuits through the same nodes; the bound is
    the largest among them.
    """
    hops = []
    for src, dst in zip(circuit, list(circuit[1:]) + [circuit[0]], strict=True):
        candidates = [
            (edge_latency(graph, e, machine), e.distance)
            for e in graph.out_edges(src)
            if e.dst == dst
        ]
        if not candidates:
            raise ValueError(f"no edge {src} -> {dst} in circuit")
        hops.append(candidates)
    bound = 0
    for choice in itertools.product(*hops):
        total_distance = sum(distance for _, distance in choice)
        if total_distance == 0:
            raise ValueError("circuit with zero total distance is unschedulable")
        total_latency = sum(latency for latency, _ in choice)
        bound = max(bound, math.ceil(total_latency / total_distance))
    return bound
