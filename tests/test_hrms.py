"""Unit and property tests for the HRMS-style pre-ordering."""

import functools

from hypothesis import given, settings

from repro import LoopBuilder, find_recurrences, hrms_order
from repro.order.hrms import _depths_and_heights, ordering_property_violations

from tests.helpers import (
    UNIFIED,
    chain,
    daxpy,
    graph_seeds,
    graph_sizes,
    multigraph,
    multigraph_specs,
    mutual_reachability_partition,
    random_graph,
    reduction,
)


class TestBasicOrdering:
    def test_orders_every_node_exactly_once(self):
        graph = daxpy()
        result = hrms_order(graph, UNIFIED)
        assert sorted(result.order) == sorted(graph.node_ids())

    def test_priorities_strictly_decreasing_along_order(self):
        graph = chain(5)
        result = hrms_order(graph, UNIFIED)
        priorities = [result.priority[n] for n in result.order]
        assert priorities == sorted(priorities, reverse=True)

    def test_chain_ordered_contiguously(self):
        graph = chain(6)
        result = hrms_order(graph, UNIFIED)
        # A pure chain must be ordered topologically (each node adjacent
        # to the already-ordered part).
        assert ordering_property_violations(graph, result.order) == []

    def test_empty_graph(self):
        from repro import DependenceGraph

        result = hrms_order(DependenceGraph("empty"), UNIFIED)
        assert result.order == ()


class TestRecurrencePriority:
    def test_recurrence_nodes_come_first(self):
        b = LoopBuilder("mix")
        x = b.load(array=0)
        acc = b.add(x)
        b.loop_carried(acc, acc, distance=1)
        extra = b.mul(x, x)
        b.store(extra, array=1)
        b.store(acc, array=2)
        graph = b.build()
        result = hrms_order(graph, UNIFIED)
        # The accumulator (the only recurrence) is ordered before the
        # non-recurrent multiply.
        assert result.order.index(acc.id) < result.order.index(extra.id)
        assert acc.id in result.recurrence_nodes

    def test_more_critical_recurrence_ordered_first(self):
        b = LoopBuilder("two")
        x = b.load(array=0)
        slow = b.div(x)
        b.loop_carried(slow, slow, distance=1)  # RecMII 17
        fast = b.add(x)
        b.loop_carried(fast, fast, distance=4)  # RecMII 1
        b.store(slow, array=1)
        b.store(fast, array=2)
        graph = b.build()
        result = hrms_order(graph, UNIFIED)
        assert result.order.index(slow.id) < result.order.index(fast.id)


class TestNeighbourProperty:
    """Property 2 of the ordering: preds XOR succs (Section 3.1)."""

    def test_daxpy_has_no_violations(self):
        graph = daxpy()
        result = hrms_order(graph, UNIFIED)
        assert ordering_property_violations(graph, result.order) == []

    def test_violations_bounded_by_recurrence_count(self):
        graph = reduction()
        result = hrms_order(graph, UNIFIED)
        violations = ordering_property_violations(graph, result.order)
        assert len(violations) <= len(find_recurrences(graph, UNIFIED))

    @settings(max_examples=40, deadline=None)
    @given(seed=graph_seeds, size=graph_sizes)
    def test_property_on_random_graphs(self, seed, size):
        graph = random_graph(seed, size)
        result = hrms_order(graph, UNIFIED)
        assert sorted(result.order) == sorted(graph.node_ids())
        violations = ordering_property_violations(graph, result.order)
        recurrences = find_recurrences(graph, UNIFIED)
        # Only recurrence-closing nodes may see both sides ordered, and
        # each recurrence closes at most once per circuit member set.
        allowed = sum(len(r.nodes) for r in recurrences)
        assert len(violations) <= max(allowed, 0)
        for violation in violations:
            assert any(violation in r.nodes for r in recurrences)


class TestDepthHeight:
    @settings(max_examples=150, deadline=None)
    @given(spec=multigraph_specs)
    def test_longest_paths_over_the_condensation(self, spec):
        """Depth and height equal a naive longest path over the
        condensation built from mutual reachability."""
        graph = multigraph(spec)
        component_of = {
            node: component
            for component in mutual_reachability_partition(graph)
            for node in component
        }
        arcs = [
            (component_of[e.src], component_of[e.dst], e.latency)
            for e in graph.edges()
            if component_of[e.src] != component_of[e.dst]
        ]

        @functools.cache
        def height(component):
            return max((lat + height(d) for s, d, lat in arcs if s == component), default=0)

        @functools.cache
        def depth(component):
            return max((depth(s) + lat for s, d, lat in arcs if d == component), default=0)

        depths, heights = _depths_and_heights(graph, UNIFIED)
        for node in graph.node_ids():
            assert depths[node] == depth(component_of[node])
            assert heights[node] == height(component_of[node])
