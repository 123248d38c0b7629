"""Unit tests for recurrence analysis and MII computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    GraphError,
    LoopBuilder,
    compute_mii,
    find_recurrences,
    parse_config,
    recurrence_mii,
    resource_mii,
)
from repro.graph.recurrences import circuit_bound, strongly_connected_components

from tests.helpers import (
    UNIFIED,
    chain,
    daxpy,
    elementary_circuits,
    multigraph,
    multigraph_specs,
    mutual_reachability_partition,
    reduction,
    wide,
)


class TestRecMII:
    def test_acyclic_graph_has_recmii_one(self):
        assert recurrence_mii(chain(), UNIFIED) == 1
        assert find_recurrences(chain(), UNIFIED) == []

    def test_self_recurrence_bound(self):
        # add -> add with distance 1 and latency 4: RecMII = ceil(4/1).
        assert recurrence_mii(reduction(distance=1), UNIFIED) == 4

    def test_distance_divides_bound(self):
        # Same circuit, distance 2: ceil(4/2) = 2; distance 4: 1.
        assert recurrence_mii(reduction(distance=2), UNIFIED) == 2
        assert recurrence_mii(reduction(distance=4), UNIFIED) == 1

    def test_two_node_circuit(self):
        b = LoopBuilder("circ")
        x = b.load(array=0)
        u = b.add(x)
        v = b.mul(u)
        b.loop_carried(v, u, distance=1)
        graph = b.build()
        # u -> v (lat 4), v -> u (lat 4, dist 1): ceil(8/1) = 8.
        assert recurrence_mii(graph, UNIFIED) == 8
        circuits = find_recurrences(graph, UNIFIED)
        assert len(circuits) == 1
        assert circuits[0].rec_mii == 8
        assert circuits[0].nodes == {u.id, v.id}

    def test_most_critical_recurrence_first(self):
        b = LoopBuilder("two")
        x = b.load(array=0)
        fast = b.add(x)
        b.loop_carried(fast, fast, distance=4)  # ceil(4/4) = 1
        slow = b.div(x)
        b.loop_carried(slow, slow, distance=1)  # ceil(17/1) = 17
        graph = b.build()
        circuits = find_recurrences(graph, UNIFIED)
        assert [c.rec_mii for c in circuits] == [17, 1]

    def test_circuit_bound_helper_matches(self):
        b = LoopBuilder("circ")
        x = b.load(array=0)
        u = b.add(x)
        v = b.mul(u)
        b.loop_carried(v, u, distance=2)
        graph = b.build()
        assert circuit_bound(graph, UNIFIED, [u.id, v.id]) == 4  # ceil(8/2)

    def test_zero_distance_circuit_rejected(self):
        b = LoopBuilder("bad")
        u = b.add()
        v = b.add(u)
        graph = b.build()
        graph.add_edge(v.id, u.id)  # distance 0 back edge: illegal circuit
        with pytest.raises(GraphError):
            recurrence_mii(graph, UNIFIED)


class TestAgainstBruteForce:
    """Tarjan SCCs and per-component RecMII on random multigraphs
    (parallel edges, self-loops, distances 0-3) against definitions."""

    @settings(max_examples=200, deadline=None)
    @given(spec=multigraph_specs)
    def test_recurrence_mii_is_the_largest_circuit_bound(self, spec):
        graph = multigraph(spec)
        circuits = elementary_circuits(graph)
        try:
            bounds = [circuit_bound(graph, UNIFIED, c) for c in circuits]
        except ValueError:
            # Some circuit has zero total distance (latencies are >= 1).
            with pytest.raises(GraphError):
                recurrence_mii(graph, UNIFIED)
            return
        assert recurrence_mii(graph, UNIFIED) == max(bounds, default=1)
        recurrences = find_recurrences(graph, UNIFIED)
        assert {n for r in recurrences for n in r.nodes} == {
            n for c in circuits for n in c
        }
        for recurrence in recurrences:
            assert recurrence.rec_mii == max(
                b
                for c, b in zip(circuits, bounds, strict=True)
                if set(c) <= recurrence.nodes
            )

    @settings(max_examples=100, deadline=None)
    @given(spec=multigraph_specs, data=st.data())
    def test_zero_distance_circuit_raises(self, spec, data):
        graph = multigraph(spec)
        cycle = data.draw(
            st.lists(st.sampled_from(graph.node_ids()), min_size=1, unique=True)
        )
        for src, dst in zip(cycle, cycle[1:] + cycle[:1], strict=True):
            graph.add_edge(src, dst, distance=0, latency=data.draw(st.integers(1, 9)))
        with pytest.raises(GraphError):
            recurrence_mii(graph, UNIFIED)
        with pytest.raises(GraphError):
            find_recurrences(graph, UNIFIED)

    @settings(max_examples=200, deadline=None)
    @given(spec=multigraph_specs)
    def test_tarjan_partition_is_mutual_reachability(self, spec):
        graph = multigraph(spec)
        components = strongly_connected_components(graph.node_ids(), graph.succs)
        assert sum(len(c) for c in components) == len(graph)
        assert {frozenset(c) for c in components} == mutual_reachability_partition(
            graph
        )
        # Reverse topological order: an edge never points to a later
        # component.
        position = {node: i for i, c in enumerate(components) for node in c}
        for edge in graph.edges():
            assert position[edge.dst] <= position[edge.src]


class TestResMII:
    def test_memory_bound(self):
        # wide(8): 16 loads + 8 stores = 24 memory ops over 4 ports -> 6.
        graph = wide(8)
        assert resource_mii(graph, UNIFIED) == 6

    def test_compute_bound(self):
        b = LoopBuilder("fp")
        x = b.load(array=0)
        node = x
        for _ in range(20):
            node = b.add(node, x)
        b.store(node, array=1)
        graph = b.build()
        # 20 adds over 8 units -> ceil(20/8) = 3 > memory bound 1.
        assert resource_mii(graph, UNIFIED) == 3

    def test_unpipelined_occupancy_floor(self):
        b = LoopBuilder("div")
        x = b.load(array=0)
        b.store(b.div(x, x), array=1)
        graph = b.build()
        # One division occupies a FU for 17 cycles: II >= 17.
        assert resource_mii(graph, UNIFIED) == 17

    def test_cluster_split_uses_total_resources(self):
        four = parse_config("4-(GP2M1-REG32)")
        graph = wide(8)
        assert resource_mii(graph, four) == resource_mii(graph, UNIFIED)


class TestComputeMII:
    def test_mii_is_max_of_bounds(self):
        graph = reduction(distance=1)  # RecMII 4, ResMII 1
        assert compute_mii(graph, UNIFIED) == 4

    def test_daxpy_mii_is_one_on_wide_core(self):
        assert compute_mii(daxpy(), UNIFIED) == 1

    def test_empty_graph(self):
        from repro import DependenceGraph

        assert compute_mii(DependenceGraph("empty"), UNIFIED) == 1


class TestErrorTaxonomy:
    def test_memory_ops_without_ports_raise_graph_error(self):
        """Regression: this used to be a bare ``ValueError``, escaping
        the repo's error taxonomy (``except ReproError`` guards)."""
        from repro.errors import ReproError

        portless = parse_config("1-(GP8M0-REG64)")
        with pytest.raises(GraphError) as excinfo:
            resource_mii(daxpy(), portless)
        assert "memory port" in str(excinfo.value)
        assert isinstance(excinfo.value, ReproError)
        with pytest.raises(ReproError):
            compute_mii(daxpy(), portless)

    def test_memory_free_graph_tolerates_portless_machine(self):
        from repro import LoopBuilder

        b = LoopBuilder("pure")
        b.add(b.add())
        portless = parse_config("1-(GP8M0-REG64)")
        assert resource_mii(b.build(), portless) >= 1
