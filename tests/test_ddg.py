"""Unit tests for the dependence graph."""

import random

import pytest
from hypothesis import given, settings

from repro import DependenceGraph, DepKind, GraphError, MemRef, OpKind
from tests.helpers import edge_by_edge_clone, graph_seeds, random_graph


@pytest.fixture
def graph():
    return DependenceGraph("test", trip_count=10)


class TestNodes:
    def test_new_node_assigns_fresh_ids(self, graph):
        a = graph.new_node(OpKind.ADD)
        b = graph.new_node(OpKind.MUL)
        assert a.id != b.id
        assert len(graph) == 2

    def test_names_are_generated(self, graph):
        node = graph.new_node(OpKind.LOAD)
        assert node.name.startswith("load")

    def test_contains_and_lookup(self, graph):
        node = graph.new_node(OpKind.ADD)
        assert node.id in graph
        assert graph.node(node.id) is node
        assert 999 not in graph
        with pytest.raises(GraphError):
            graph.node(999)

    def test_remove_node_removes_edges(self, graph):
        a = graph.new_node(OpKind.ADD)
        b = graph.new_node(OpKind.MUL)
        graph.add_edge(a.id, b.id)
        graph.remove_node(b.id)
        assert graph.out_edges(a.id) == []
        assert b.id not in graph

    def test_remove_node_drops_invariant_consumption(self, graph):
        a = graph.new_node(OpKind.ADD)
        inv = graph.new_invariant(consumers={a.id})
        graph.remove_node(a.id)
        assert inv.consumers == set()


class TestEdges:
    def test_add_and_query(self, graph):
        a = graph.new_node(OpKind.LOAD)
        b = graph.new_node(OpKind.ADD)
        edge = graph.add_edge(a.id, b.id, distance=2)
        assert edge in graph.out_edges(a.id)
        assert edge in graph.in_edges(b.id)
        assert graph.preds(b.id) == {a.id}
        assert graph.succs(a.id) == {b.id}

    def test_parallel_edges_allowed(self, graph):
        a = graph.new_node(OpKind.ADD)
        b = graph.new_node(OpKind.ADD)
        graph.add_edge(a.id, b.id, distance=0)
        graph.add_edge(a.id, b.id, distance=1)
        assert len(graph.out_edges(a.id)) == 2

    def test_store_produces_no_register_value(self, graph):
        store = graph.new_node(OpKind.STORE)
        other = graph.new_node(OpKind.ADD)
        with pytest.raises(GraphError):
            graph.add_edge(store.id, other.id, kind=DepKind.REG)
        # Memory ordering out of a store is fine.
        graph.add_edge(store.id, other.id, kind=DepKind.MEM)

    def test_negative_distance_rejected(self, graph):
        a = graph.new_node(OpKind.ADD)
        b = graph.new_node(OpKind.ADD)
        with pytest.raises(GraphError):
            graph.add_edge(a.id, b.id, distance=-1)

    def test_remove_edge(self, graph):
        a = graph.new_node(OpKind.ADD)
        b = graph.new_node(OpKind.ADD)
        edge = graph.add_edge(a.id, b.id)
        graph.remove_edge(edge)
        assert graph.out_edges(a.id) == []
        with pytest.raises(GraphError):
            graph.remove_edge(edge)

    def test_reg_consumers_and_producers(self, graph):
        a = graph.new_node(OpKind.LOAD)
        b = graph.new_node(OpKind.ADD)
        s = graph.new_node(OpKind.STORE)
        graph.add_edge(a.id, b.id, kind=DepKind.REG)
        graph.add_edge(b.id, s.id, kind=DepKind.REG)
        graph.add_edge(s.id, a.id, kind=DepKind.MEM, distance=1)
        assert [e.dst for e in graph.reg_consumers(b.id)] == [s.id]
        assert [e.src for e in graph.reg_producers(b.id)] == [a.id]


class TestInvariants:
    def test_new_invariant(self, graph):
        a = graph.new_node(OpKind.ADD)
        inv = graph.new_invariant(consumers={a.id})
        assert graph.invariant(inv.id) is inv
        assert graph.invariants_of(a.id) == [inv]

    def test_unknown_invariant(self, graph):
        with pytest.raises(GraphError):
            graph.invariant(42)

    def test_invariant_consumer_must_exist(self, graph):
        with pytest.raises(GraphError):
            graph.new_invariant(consumers={123})


class TestClone:
    def test_clone_is_deep(self, graph):
        a = graph.new_node(OpKind.LOAD, mem_ref=MemRef(array=1))
        b = graph.new_node(OpKind.ADD)
        graph.add_edge(a.id, b.id)
        inv = graph.new_invariant(consumers={b.id})
        copy = graph.clone()
        copy.remove_node(b.id)
        assert b.id in graph
        assert inv.consumers == {b.id}
        assert copy.invariant(inv.id).consumers == set()

    def test_clone_preserves_attributes(self, graph):
        node = graph.new_node(
            OpKind.LOAD, mem_ref=MemRef(array=3, stride=2), latency_override=9
        )
        copy = graph.clone()
        cloned = copy.node(node.id)
        assert cloned.mem_ref == node.mem_ref
        assert cloned.latency_override == 9

    def test_clone_ids_continue_without_collision(self, graph):
        graph.new_node(OpKind.ADD)
        copy = graph.clone()
        fresh = copy.new_node(OpKind.MUL)
        assert fresh.id not in [n.id for n in graph.nodes()]


def _messy_graph(seed: int) -> DependenceGraph:
    """A random loop plus what scheduling leaves behind: parallel and
    late-added edges (so in-lists are not in out-list order), a move with
    a source cluster, a removed node, overrides and invariants."""
    rng = random.Random(seed)
    graph = random_graph(seed, size=6 + seed % 9)
    ids = graph.node_ids()
    producers = [n for n in ids if graph.node(n).produces_value]
    for _ in range(rng.randint(2, 10)):
        dst = rng.choice(ids)
        if producers and rng.random() < 0.6:
            src = rng.choice(producers)
            for _ in range(rng.randint(1, 2)):  # maybe a parallel edge
                graph.add_edge(src, dst, distance=rng.randint(0, 2))
        else:
            graph.add_edge(
                rng.choice(ids), dst, kind=rng.choice([DepKind.MEM, DepKind.CTRL]),
                distance=rng.randint(0, 2), latency=rng.choice([None, 3]),
            )
    if producers:
        move = graph.new_node(
            OpKind.MOVE, move_of=producers[0], src_cluster=rng.randint(0, 3)
        )
        graph.add_edge(producers[0], move.id)
        graph.add_edge(move.id, rng.choice(ids))
    graph.node(rng.choice(ids)).latency_override = rng.randint(1, 9)
    graph.new_invariant(
        consumers=set(rng.sample(ids, min(3, len(ids)))),
        mem_ref=MemRef(array=77),
    )
    if rng.random() < 0.5:
        graph.remove_node(rng.choice(graph.node_ids()))
    return graph


def _snapshot(graph: DependenceGraph) -> tuple:
    """Everything a clone must reproduce, as plain comparable data: the
    node fields and the out-, in- and invariant tables in their exact
    orders, and the next node id."""
    return (
        (graph.name, graph.trip_count, graph.unroll_factor, graph.source_trip_count),
        [(i, type(n), dict(vars(n))) for i, n in graph._nodes.items()],
        [(i, list(edges)) for i, edges in graph._out.items()],
        [(i, list(edges)) for i, edges in graph._in.items()],
        [
            (i, inv.name, set(inv.consumers), inv.mem_ref)
            for i, inv in graph._invariants.items()
        ],
        repr(graph._next_id),
    )


class TestCloneFidelity:
    """``clone`` against the edge-by-edge oracle in ``tests/helpers.py``."""

    @settings(max_examples=60, deadline=None)
    @given(seed=graph_seeds)
    def test_clone_matches_edge_by_edge_copy(self, seed):
        graph = _messy_graph(seed)
        copy = graph.clone()
        assert _snapshot(copy) == _snapshot(edge_by_edge_clone(graph))
        assert copy._listeners == []

    @settings(max_examples=60, deadline=None)
    @given(seed=graph_seeds)
    def test_mutating_the_clone_leaves_the_original(self, seed):
        rng = random.Random(seed)
        graph = _messy_graph(seed)
        before = _snapshot(graph)
        copy = graph.clone()
        for node_id, node in graph._nodes.items():
            assert copy._nodes[node_id] is not node
        ids = copy.node_ids()
        producers = [n for n in ids if copy.node(n).produces_value]
        copy.add_edge(rng.choice(producers), rng.choice(ids), distance=1)
        edge = next(e for edges in copy._out.values() for e in edges)
        copy.remove_edge(edge)
        fresh = copy.new_node(OpKind.ADD)
        inv = copy.invariants()[0]
        copy.add_invariant_consumer(inv.id, fresh.id)
        copy.discard_invariant_consumer(inv.id, min(inv.consumers))
        for node in copy.nodes():
            if node.is_move:
                node.src_cluster = 9  # the attempt loop re-targets moves in place
            node.latency_override = 42
        copy.remove_node(rng.choice(ids))
        assert _snapshot(graph) == before


class TestValidationAndStats:
    def test_validate_passes_on_consistent_graph(self, graph):
        a = graph.new_node(OpKind.LOAD)
        b = graph.new_node(OpKind.ADD)
        graph.add_edge(a.id, b.id)
        graph.validate()

    def test_count_kind(self, graph):
        graph.new_node(OpKind.LOAD)
        graph.new_node(OpKind.LOAD)
        graph.new_node(OpKind.ADD)
        assert graph.count_kind(OpKind.LOAD) == 2
        assert graph.count_kind(OpKind.SQRT) == 0

    def test_memory_nodes(self, graph):
        graph.new_node(OpKind.LOAD)
        graph.new_node(OpKind.STORE)
        graph.new_node(OpKind.MUL)
        assert len(graph.memory_nodes()) == 2


class TestMemRef:
    def test_addresses_advance_by_stride(self):
        ref = MemRef(array=2, offset=3, stride=4, element_size=8)
        assert ref.address(1) - ref.address(0) == 4 * 8
        assert ref.address(0) == (2 << 24) + 3 * 8

    def test_distinct_arrays_never_collide(self):
        a = MemRef(array=1)
        b = MemRef(array=2)
        addresses_a = {a.address(i) for i in range(100)}
        addresses_b = {b.address(i) for i in range(100)}
        assert not (addresses_a & addresses_b)
