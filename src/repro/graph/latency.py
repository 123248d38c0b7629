"""Latency queries shared by MII analysis, ordering and scheduling.

Register dependences take the latency of the *producer* operation on the
target machine (possibly overridden per node, e.g. by the binding
prefetching policy).  Memory and control dependences default to one cycle:
they only impose ordering, not value communication.
"""

from __future__ import annotations

from repro.graph.ddg import DepKind, DependenceGraph, Edge, Node
from repro.machine.config import MachineConfig

#: Default latency of memory/control (ordering-only) dependences.
ORDERING_LATENCY = 1

_REG = DepKind.REG


def node_latency(node: Node, machine: MachineConfig) -> int:
    """Latency of an operation, honoring any per-node override."""
    if node.latency_override is not None:
        return node.latency_override
    return machine.latency(node.kind)


def edge_latency(
    graph: DependenceGraph, edge: Edge, machine: MachineConfig
) -> int:
    """Latency of a dependence edge."""
    if edge.latency is not None:
        return edge.latency
    if edge.kind is _REG:
        producer = graph._nodes[edge.src]
        if producer.latency_override is not None:
            return producer.latency_override
        return machine.latency(producer.kind)
    return ORDERING_LATENCY
