"""The data dependence graph (DDG) of an innermost loop.

Following Section 3.1 of the paper, the graph ``G`` has one node per loop
operation and edges for register, memory and control dependences.  Each
edge carries an iteration *distance* (0 for intra-iteration dependences).
Loop-*invariant* values are modelled separately: they are not produced by
any node of the loop but are consumed by loop operations and occupy one
register for the whole execution of the loop (one per cluster in which
they are used, Section 3.3.2).

The graph is mutable: the scheduler inserts spill ``load``/``store`` nodes
and inter-cluster ``move`` nodes while it runs, and its backtracking can
remove them again, so the implementation keeps adjacency both ways and
supports cheap node/edge insertion and removal as well as deep cloning
(used when the schedule is restarted at a larger II).
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from collections.abc import Iterable, Iterator

from repro.errors import GraphError
from repro.machine.resources import OpKind


class DepKind(enum.Enum):
    """Kinds of dependence edges (Section 3.1)."""

    REG = "reg"
    MEM = "mem"
    CTRL = "ctrl"


@dataclasses.dataclass(frozen=True)
class MemRef:
    """Memory access pattern of a load/store, used by the cache simulator.

    Attributes:
        array: identifier of the array (or scalar location) accessed.
        offset: base offset in elements within the array.
        stride: elements advanced per loop iteration.
        element_size: bytes per element (8 for double precision).
    """

    array: int
    offset: int = 0
    stride: int = 1
    element_size: int = 8

    def address(self, iteration: int) -> int:
        """Byte address touched at the given iteration."""
        element = self.offset + self.stride * iteration
        return (self.array << 24) + element * self.element_size


@dataclasses.dataclass
class Node:
    """One operation of the loop body.

    Attributes:
        id: unique integer identifier within the graph.
        kind: the operation kind (add, mul, div, sqrt, load, store, move).
        name: human-readable label used in printed schedules.
        mem_ref: access pattern for memory operations, if known.
        latency_override: per-node latency used instead of the machine's
            default; the binding-prefetching policy of Section 4.3 uses it
            to schedule selected loads with miss latency.
        is_spill: True for load/store nodes inserted by the spill
            heuristic (they are excluded from further spilling and always
            scheduled with hit latency, Section 4.3).
        spilled_value: for spill nodes, the id of the node whose value is
            being stored/reloaded (or the invariant id for invariant
            spills).
        move_of: for move nodes, the id of the node whose value is being
            transported between clusters; invariant moves store the
            invariant id in :attr:`move_of_invariant` instead.
        move_of_invariant: for move nodes transporting a loop invariant,
            the invariant's id.
        load_of_invariant: for spill loads re-materializing an invariant
            from memory, the invariant's id.
        src_cluster: for move nodes, the cluster the value is sent from
            (the node's own cluster assignment is the destination).
    """

    id: int
    kind: OpKind
    name: str = ""
    mem_ref: MemRef | None = None
    latency_override: int | None = None
    is_spill: bool = False
    spilled_value: int | None = None
    move_of: int | None = None
    move_of_invariant: int | None = None
    load_of_invariant: int | None = None
    src_cluster: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"{self.kind.value}{self.id}"

    @property
    def is_move(self) -> bool:
        return self.kind is OpKind.MOVE

    @property
    def produces_value(self) -> bool:
        return self.kind.produces_value

    def clone(self) -> "Node":
        # A field copy: ``dataclasses.replace`` would rerun __init__.
        copy = object.__new__(Node)
        copy.__dict__ = self.__dict__.copy()
        return copy


@dataclasses.dataclass(frozen=True)
class Edge:
    """A dependence between two operations.

    Attributes:
        src, dst: node ids.
        kind: register / memory / control dependence.
        distance: iteration distance (``d >= 0``; ``d > 0`` for
            loop-carried dependences).
        latency: dependence latency.  For register dependences ``None``
            means "use the producer's operation latency on the target
            machine" (the normal case); memory and control dependences
            default to 1 cycle.
    """

    src: int
    dst: int
    kind: DepKind = DepKind.REG
    distance: int = 0
    latency: int | None = None

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise GraphError("dependence distance must be non-negative")


@dataclasses.dataclass
class Invariant:
    """A loop-invariant value consumed inside the loop.

    Invariants occupy one register for the whole loop execution in every
    cluster where they are consumed (Section 3.3.2); the spill heuristic
    may elect to drop the register and re-materialize the value via a
    ``move`` from another cluster or a ``load`` from memory.

    Attributes:
        id: unique identifier (its own namespace, distinct from node ids).
        name: label.
        consumers: ids of the nodes that read this invariant.
        mem_ref: the memory location holding the invariant (invariants
            always have a home location in memory and therefore never need
            a spill *store*).
    """

    id: int
    name: str = ""
    consumers: set[int] = dataclasses.field(default_factory=set)
    mem_ref: MemRef | None = None

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"inv{self.id}"

    def clone(self) -> "Invariant":
        return Invariant(
            id=self.id,
            name=self.name,
            consumers=set(self.consumers),
            mem_ref=self.mem_ref,
        )


class DependenceGraph:
    """Mutable dependence graph of one innermost loop.

    In addition to nodes and edges the graph records the loop's expected
    *trip count* (used to turn IIs into execution cycles for Figures 5-7)
    and its loop-invariant values.
    """

    def __init__(self, name: str = "loop", trip_count: int = 100):
        self.name = name
        self.trip_count = trip_count
        #: Unroll factor this graph was produced with (1 = not unrolled);
        #: consumers that reason about iteration-space semantics (the
        #: execution simulator, reporting) read it off the graph.
        self.unroll_factor = 1
        #: Trip count of the *source* loop before any unrolling.  When
        #: ``trip_count * unroll_factor != source_trip_count`` the
        #: unroll factor did not divide the source trip count and a full
        #: execution runs surplus source iterations; the simulator
        #: reports the difference (``repro.sim``).
        self.source_trip_count = trip_count
        self._nodes: dict[int, Node] = {}
        self._out: dict[int, list[Edge]] = {}
        self._in: dict[int, list[Edge]] = {}
        self._invariants: dict[int, Invariant] = {}
        self._next_id = itertools.count()
        #: Mutation observers (the incremental pressure tracker).  Each
        #: listener implements ``on_edge_added(edge)``,
        #: ``on_edge_removed(edge)``, ``on_node_removed(node_id)`` and
        #: ``on_invariant_changed(invariant_id)`` (an invariant's
        #: consumer set changed); notifications fire *after* the
        #: mutation.  Not pickled and not cloned: observers attach to
        #: one live scheduling attempt.
        self._listeners: list = []

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_listeners"] = []
        return state

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def new_node(self, kind: OpKind, **attrs) -> Node:
        """Create, insert and return a fresh node."""
        node = Node(id=next(self._next_id), kind=kind, **attrs)
        self.add_node(node)
        return node

    def add_node(self, node: Node) -> None:
        if node.id in self._nodes:
            raise GraphError(f"duplicate node id {node.id}")
        self._nodes[node.id] = node
        self._out[node.id] = []
        self._in[node.id] = []
        # Keep the id counter ahead of any externally constructed node.
        self._next_id = itertools.count(
            max(node.id + 1, next(self._next_id))
        )

    def remove_node(self, node_id: int) -> None:
        """Remove a node and every edge touching it."""
        self._require(node_id)
        for edge in list(self._out[node_id]):
            self.remove_edge(edge)
        for edge in list(self._in[node_id]):
            self.remove_edge(edge)
        del self._nodes[node_id]
        del self._out[node_id]
        del self._in[node_id]
        for inv in self._invariants.values():
            if node_id in inv.consumers:
                self.discard_invariant_consumer(inv.id, node_id)
        for listener in self._listeners:
            listener.on_node_removed(node_id)

    def node(self, node_id: int) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> Iterator[Node]:
        return iter(list(self._nodes.values()))

    def node_ids(self) -> list[int]:
        return list(self._nodes)

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------

    def add_edge(
        self,
        src: int,
        dst: int,
        *,
        kind: DepKind = DepKind.REG,
        distance: int = 0,
        latency: int | None = None,
    ) -> Edge:
        self._require(src)
        self._require(dst)
        if kind is DepKind.REG and not self._nodes[src].produces_value:
            raise GraphError(
                f"node {src} ({self._nodes[src].kind}) produces no register "
                "value and cannot be the source of a REG dependence"
            )
        edge = Edge(src=src, dst=dst, kind=kind, distance=distance, latency=latency)
        self._out[src].append(edge)
        self._in[dst].append(edge)
        for listener in self._listeners:
            listener.on_edge_added(edge)
        return edge

    def remove_edge(self, edge: Edge) -> None:
        try:
            self._out[edge.src].remove(edge)
            self._in[edge.dst].remove(edge)
        except (KeyError, ValueError) as exc:
            raise GraphError(f"edge {edge} not present") from exc
        for listener in self._listeners:
            listener.on_edge_removed(edge)

    def out_edges(self, node_id: int) -> list[Edge]:
        self._require(node_id)
        return list(self._out[node_id])

    def in_edges(self, node_id: int) -> list[Edge]:
        self._require(node_id)
        return list(self._in[node_id])

    def edges(self) -> Iterator[Edge]:
        for edges in list(self._out.values()):
            yield from list(edges)

    def num_edges(self) -> int:
        return sum(len(edges) for edges in self._out.values())

    def preds(self, node_id: int) -> set[int]:
        return {edge.src for edge in self._in[node_id]}

    def succs(self, node_id: int) -> set[int]:
        return {edge.dst for edge in self._out[node_id]}

    def reg_consumers(self, node_id: int) -> list[Edge]:
        """Register-dependence out-edges: the uses of this node's value."""
        return [e for e in self._out[node_id] if e.kind is DepKind.REG]

    def reg_producers(self, node_id: int) -> list[Edge]:
        """Register-dependence in-edges: the operands of this node."""
        return [e for e in self._in[node_id] if e.kind is DepKind.REG]

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def new_invariant(
        self, consumers: Iterable[int] = (), mem_ref: MemRef | None = None
    ) -> Invariant:
        inv_id = len(self._invariants)
        while inv_id in self._invariants:
            inv_id += 1
        inv = Invariant(id=inv_id, consumers=set(consumers), mem_ref=mem_ref)
        for consumer in inv.consumers:
            self._require(consumer)
        self._invariants[inv_id] = inv
        self._invariant_changed(inv_id)
        return inv

    def add_invariant_consumer(self, inv_id: int, node_id: int) -> None:
        """Make a node read an invariant (listeners are notified)."""
        self._require(node_id)
        self.invariant(inv_id).consumers.add(node_id)
        self._invariant_changed(inv_id)

    def discard_invariant_consumer(self, inv_id: int, node_id: int) -> None:
        """Stop a node reading an invariant (listeners are notified)."""
        self.invariant(inv_id).consumers.discard(node_id)
        self._invariant_changed(inv_id)

    def _invariant_changed(self, inv_id: int) -> None:
        for listener in self._listeners:
            listener.on_invariant_changed(inv_id)

    def invariants(self) -> list[Invariant]:
        return list(self._invariants.values())

    def invariant(self, inv_id: int) -> Invariant:
        if inv_id not in self._invariants:
            raise GraphError(f"unknown invariant {inv_id}")
        return self._invariants[inv_id]

    def invariants_of(self, node_id: int) -> list[Invariant]:
        """The invariants consumed by a node."""
        return [
            inv for inv in self._invariants.values() if node_id in inv.consumers
        ]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def count_kind(self, kind: OpKind) -> int:
        return sum(1 for node in self._nodes.values() if node.kind is kind)

    def memory_nodes(self) -> list[Node]:
        return [n for n in self._nodes.values() if n.kind.is_memory]

    def kinds(self) -> set[OpKind]:
        return {node.kind for node in self._nodes.values()}

    # ------------------------------------------------------------------
    # Cloning
    # ------------------------------------------------------------------

    def clone(self) -> "DependenceGraph":
        """Deep copy; used to restore the pristine graph on II restarts.

        Mutation listeners are *not* cloned: they belong to one live
        scheduling attempt, and the clone starts unobserved.
        """
        copy = DependenceGraph(name=self.name, trip_count=self.trip_count)
        copy.unroll_factor = self.unroll_factor
        copy.source_trip_count = self.source_trip_count
        copy._nodes = {
            node_id: node.clone() for node_id, node in self._nodes.items()
        }
        # Edges are frozen, so both copies share them.  The in-lists are
        # rebuilt in out-list order, the order an edge-by-edge re-add
        # gives them.
        copy._out = {node_id: list(self._out[node_id]) for node_id in self._nodes}
        incoming: dict[int, list[Edge]] = {node_id: [] for node_id in self._nodes}
        for edges in copy._out.values():
            for edge in edges:
                incoming[edge.dst].append(edge)
        copy._in = incoming
        copy._invariants = {
            inv.id: inv.clone() for inv in self._invariants.values()
        }
        copy._next_id = itertools.count(max(self._nodes, default=-1) + 1)
        return copy

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`GraphError` if internal invariants are broken."""
        for node_id, edges in self._out.items():
            for edge in edges:
                if edge.src != node_id:
                    raise GraphError("corrupt out-adjacency")
                if edge.dst not in self._nodes:
                    raise GraphError(f"edge to unknown node {edge.dst}")
                if edge not in self._in[edge.dst]:
                    raise GraphError("edge missing from in-adjacency")
        for node_id, edges in self._in.items():
            for edge in edges:
                if edge.dst != node_id:
                    raise GraphError("corrupt in-adjacency")
                if edge not in self._out[edge.src]:
                    raise GraphError("edge missing from out-adjacency")
        for inv in self._invariants.values():
            for consumer in inv.consumers:
                if consumer not in self._nodes:
                    raise GraphError(
                        f"invariant {inv.id} consumed by unknown node {consumer}"
                    )

    def _require(self, node_id: int) -> None:
        if node_id not in self._nodes:
            raise GraphError(f"unknown node {node_id}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DependenceGraph({self.name!r}, nodes={len(self._nodes)}, "
            f"edges={self.num_edges()}, invariants={len(self._invariants)})"
        )
