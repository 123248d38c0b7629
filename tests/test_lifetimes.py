"""Unit tests for lifetime analysis, MaxLive and use segments."""

from repro import LoopBuilder
from repro.schedule.lifetimes import LifetimeAnalysis, UseSegment
from repro.schedule.partial import PartialSchedule

from tests.helpers import TWO_CLUSTER, UNIFIED


def _schedule(graph, machine, ii, placements):
    schedule = PartialSchedule(machine, ii=ii)
    for node_id, (cluster, cycle) in placements.items():
        schedule.place(graph.node(node_id), cluster, cycle)
    return schedule


class TestMaxLive:
    def test_single_value_counts_once_per_row(self):
        b = LoopBuilder("one")
        x = b.load(array=0)
        y = b.add(x)
        graph = b.build()
        # load at 0, add at 2: lifetime of x's value is [0, 2) and of
        # y's value [2, 2+4) (no consumer -> producer latency).
        schedule = _schedule(graph, UNIFIED, 8, {x.id: (0, 0), y.id: (0, 2)})
        analysis = LifetimeAnalysis(graph, schedule, UNIFIED)
        assert analysis.max_live(0) == 1

    def test_overlapped_iterations_count_multiply(self):
        b = LoopBuilder("long")
        x = b.load(array=0)
        y = b.add(x)
        graph = b.build()
        # Lifetime of x spans 6 cycles at II=2: three live instances.
        schedule = _schedule(graph, UNIFIED, 2, {x.id: (0, 0), y.id: (0, 6)})
        analysis = LifetimeAnalysis(graph, schedule, UNIFIED)
        lifetime = [lt for lt in analysis.lifetimes if lt.value == x.id][0]
        assert lifetime.length == 6
        assert min(analysis.pressure[0].rows) >= 3

    def test_loop_carried_use_extends_lifetime(self):
        b = LoopBuilder("lc")
        x = b.load(array=0)
        y = b.add(x)
        graph = b.build()
        # Replace the edge with a distance-2 edge.
        edge = graph.out_edges(x.id)[0]
        graph.remove_edge(edge)
        graph.add_edge(x.id, y.id, distance=2)
        schedule = _schedule(graph, UNIFIED, 5, {x.id: (0, 0), y.id: (0, 3)})
        analysis = LifetimeAnalysis(graph, schedule, UNIFIED)
        lifetime = [lt for lt in analysis.lifetimes if lt.value == x.id][0]
        # Use happens at 3 + 2 * II = 13.
        assert lifetime.end == 13

    def test_unscheduled_consumers_ignored(self):
        b = LoopBuilder("part")
        x = b.load(array=0)
        b.add(x)  # consumer left unscheduled on purpose
        graph = b.build()
        schedule = _schedule(graph, UNIFIED, 4, {x.id: (0, 0)})
        analysis = LifetimeAnalysis(graph, schedule, UNIFIED)
        lifetime = analysis.lifetimes[0]
        assert lifetime.end == 2  # producer latency only

    def test_stores_produce_no_value(self):
        b = LoopBuilder("st")
        x = b.load(array=0)
        s = b.store(x, array=1)
        graph = b.build()
        schedule = _schedule(graph, UNIFIED, 4, {x.id: (0, 0), s.id: (0, 2)})
        analysis = LifetimeAnalysis(graph, schedule, UNIFIED)
        assert {lt.value for lt in analysis.lifetimes} == {x.id}

    def test_per_cluster_pressure(self):
        b = LoopBuilder("cl")
        x = b.load(array=0)
        y = b.load(array=1)
        graph = b.build()
        schedule = _schedule(
            graph, TWO_CLUSTER, 4, {x.id: (0, 0), y.id: (1, 0)}
        )
        analysis = LifetimeAnalysis(graph, schedule, TWO_CLUSTER)
        assert analysis.max_live(0) == 1
        assert analysis.max_live(1) == 1


class TestInvariants:
    def test_invariant_occupies_register_where_consumed(self):
        b = LoopBuilder("inv")
        u = b.add()
        v = b.mul()
        inv = b.invariant("c")
        inv.consumers |= {u.id, v.id}
        graph = b.build()
        schedule = _schedule(
            graph, TWO_CLUSTER, 4, {u.id: (0, 0), v.id: (1, 0)}
        )
        analysis = LifetimeAnalysis(graph, schedule, TWO_CLUSTER)
        assert analysis.pressure[0].invariant_registers == 1
        assert analysis.pressure[1].invariant_registers == 1

    def test_spilled_invariant_frees_register(self):
        b = LoopBuilder("inv")
        u = b.add()
        inv = b.invariant("c")
        inv.consumers.add(u.id)
        graph = b.build()
        schedule = _schedule(graph, TWO_CLUSTER, 4, {u.id: (0, 0)})
        analysis = LifetimeAnalysis(
            graph, schedule, TWO_CLUSTER, spilled_invariants={(inv.id, 0)}
        )
        assert analysis.pressure[0].invariant_registers == 0


class TestSegments:
    def test_segments_partition_lifetime(self):
        b = LoopBuilder("seg")
        x = b.load(array=0)
        u = b.add(x)
        v = b.mul(x)
        graph = b.build()
        schedule = _schedule(
            graph, UNIFIED, 16, {x.id: (0, 0), u.id: (0, 5), v.id: (0, 12)}
        )
        analysis = LifetimeAnalysis(graph, schedule, UNIFIED)
        segments = [s for s in analysis.segments if s.value == x.id]
        assert len(segments) == 2
        segments.sort(key=lambda s: s.end)
        assert (segments[0].start, segments[0].end) == (0, 5)
        assert (segments[1].start, segments[1].end) == (5, 12)

    def test_non_spillable_prefix(self):
        b = LoopBuilder("ns")
        x = b.load(array=0)
        u = b.add(x)
        graph = b.build()
        schedule = _schedule(graph, UNIFIED, 8, {x.id: (0, 0), u.id: (0, 1)})
        analysis = LifetimeAnalysis(graph, schedule, UNIFIED)
        segment = [s for s in analysis.segments if s.value == x.id][0]
        # The section [0, 1) lies inside the load's 2-cycle latency.
        assert not segment.spillable

    def test_spill_values_have_no_segments(self):
        b = LoopBuilder("sv")
        x = b.load(array=0)
        u = b.add(x)
        graph = b.build()
        graph.node(x.id).is_spill = True
        schedule = _schedule(graph, UNIFIED, 8, {x.id: (0, 0), u.id: (0, 4)})
        analysis = LifetimeAnalysis(graph, schedule, UNIFIED)
        assert [s for s in analysis.segments if s.value == x.id] == []

    def test_crosses_row_wrapping(self):
        segment = UseSegment(
            value=0, consumer=1, edge_distance=0,
            start=6, end=10, non_spillable_end=6, cluster=0,
        )
        ii = 8
        # Rows covered: 6, 7, 0, 1.
        assert segment.crosses_row(6, ii)
        assert segment.crosses_row(0, ii)
        assert segment.crosses_row(1, ii)
        assert not segment.crosses_row(3, ii)

    def test_empty_segment_crosses_no_row(self):
        """A consumer issuing at the previous use's cycle leaves an empty
        section: it holds no register in any row."""
        ii = 8
        for start in (0, 5, 8, 13):
            segment = UseSegment(
                value=0, consumer=1, edge_distance=0,
                start=start, end=start, non_spillable_end=0, cluster=0,
            )
            assert not any(segment.crosses_row(row, ii) for row in range(ii))

    def test_long_segment_crosses_everything(self):
        segment = UseSegment(
            value=0, consumer=1, edge_distance=0,
            start=0, end=100, non_spillable_end=0, cluster=0,
        )
        assert all(segment.crosses_row(r, 8) for r in range(8))
