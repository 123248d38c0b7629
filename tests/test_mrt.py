"""Unit tests for the modulo reservation table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DependenceGraph, OpKind, SchedulingError, parse_config
from repro.core.verify import verify_schedule
from repro.machine.resources import ResourceClass
from repro.schedule.mrt import ModuloReservationTable

from tests.helpers import ReferenceMRT


@pytest.fixture
def machine():
    return parse_config("2-(GP4M2-REG64)", move_latency=3, buses=1)


@pytest.fixture
def graph():
    return DependenceGraph("t")


def _node(graph, kind, **attrs):
    return graph.new_node(kind, **attrs)


class TestBasicPlacement:
    def test_place_and_remove(self, machine, graph):
        mrt = ModuloReservationTable(machine, ii=4)
        node = _node(graph, OpKind.ADD)
        assert mrt.can_place(node, 0, 0)
        mrt.place(node, 0, 0)
        assert mrt.holds(node.id)
        mrt.remove(node.id)
        assert not mrt.holds(node.id)

    def test_capacity_per_row(self, machine, graph):
        mrt = ModuloReservationTable(machine, ii=1)
        # 4 GP units per cluster: exactly 4 adds fit in row 0.
        for i in range(4):
            node = _node(graph, OpKind.ADD)
            assert mrt.can_place(node, 0, 0)
            mrt.place(node, 0, 0)
        extra = _node(graph, OpKind.ADD)
        assert not mrt.can_place(extra, 0, 0)
        # ...but the other cluster is free.
        assert mrt.can_place(extra, 1, 0)

    def test_modulo_wrapping(self, machine, graph):
        mrt = ModuloReservationTable(machine, ii=3)
        first = _node(graph, OpKind.LOAD)
        mrt.place(first, 0, 2)
        # Cycle 5 maps to the same row (5 mod 3 == 2): with 2 mem ports
        # one more load fits, a third does not.
        second = _node(graph, OpKind.LOAD)
        mrt.place(second, 0, 5)
        third = _node(graph, OpKind.LOAD)
        assert not mrt.can_place(third, 0, 8)

    def test_double_place_rejected(self, machine, graph):
        mrt = ModuloReservationTable(machine, ii=4)
        node = _node(graph, OpKind.ADD)
        mrt.place(node, 0, 0)
        with pytest.raises(SchedulingError):
            mrt.place(node, 0, 1)

    def test_remove_unknown_rejected(self, machine, graph):
        mrt = ModuloReservationTable(machine, ii=4)
        with pytest.raises(SchedulingError):
            mrt.remove(12345)


class TestUnpipelined:
    def test_div_blocks_one_unit_for_latency_rows(self, machine, graph):
        mrt = ModuloReservationTable(machine, ii=17)
        div = _node(graph, OpKind.DIV)
        mrt.place(div, 0, 0)
        # All 17 rows of one FU are taken; 3 more divs fit (4 units)...
        for _ in range(3):
            other = _node(graph, OpKind.DIV)
            assert mrt.can_place(other, 0, 5)
            mrt.place(other, 0, 5)
        # ...the fifth does not.
        assert not mrt.can_place(_node(graph, OpKind.DIV), 0, 3)
        # Pipelined work no longer fits anywhere in this cluster's units.
        assert not mrt.can_place(_node(graph, OpKind.ADD), 0, 9)

    def test_self_collision_below_occupancy(self, machine, graph):
        mrt = ModuloReservationTable(machine, ii=10)
        div = _node(graph, OpKind.DIV)
        # 17-cycle occupancy cannot fit in a 10-row table.
        assert not mrt.can_place(div, 0, 0)
        assert not mrt.feasible_at_ii(div, 0)
        with pytest.raises(SchedulingError):
            mrt.blocking_nodes(div, 0, 0)


class TestMoves:
    def test_move_reserves_both_sides_and_bus(self, machine, graph):
        mrt = ModuloReservationTable(machine, ii=4)
        move = _node(graph, OpKind.MOVE, src_cluster=0)
        mrt.place(move, 1, 0, src_cluster=0)
        # Output port of cluster 0 is busy at row 0.
        blocked = _node(graph, OpKind.MOVE, src_cluster=0)
        assert not mrt.can_place(blocked, 1, 0, src_cluster=0)
        # A move in the other direction at the same row is also blocked:
        # the single bus is the bottleneck (buses=1 here).
        reverse = _node(graph, OpKind.MOVE, src_cluster=1)
        assert not mrt.can_place(reverse, 0, 0, src_cluster=1)
        # Other rows are free.
        assert mrt.can_place(blocked, 1, 1, src_cluster=0)

    def test_move_in_port_offset(self, graph):
        machine = parse_config("2-(GP4M2-REG64)", move_latency=3, buses=2)
        mrt = ModuloReservationTable(machine, ii=8)
        move = _node(graph, OpKind.MOVE, src_cluster=0)
        mrt.place(move, 1, 0, src_cluster=0)
        # The IN port of cluster 1 is busy at row (0 + 3 - 1) mod 8 = 2:
        # a second move arriving at the same row must be rejected.
        clash = _node(graph, OpKind.MOVE, src_cluster=0)
        assert not mrt.can_place(clash, 1, 0, src_cluster=0)
        assert mrt.can_place(clash, 1, 1, src_cluster=0)

    def test_unbounded_buses_never_conflict(self, graph):
        machine = parse_config("2-(GP4M2-REG64)", buses=None)
        mrt = ModuloReservationTable(machine, ii=1)
        first = _node(graph, OpKind.MOVE, src_cluster=0)
        mrt.place(first, 1, 0, src_cluster=0)
        # Out-port of cluster 0 still only fits one move per row.
        second = _node(graph, OpKind.MOVE, src_cluster=0)
        assert not mrt.can_place(second, 1, 0, src_cluster=0)

    def test_move_without_source_rejected(self, machine, graph):
        mrt = ModuloReservationTable(machine, ii=4)
        move = _node(graph, OpKind.MOVE)
        with pytest.raises(SchedulingError):
            mrt.can_place(move, 1, 0)


class TestBlockingAndOccupancy:
    def test_blocking_nodes_reports_minimal_victims(self, machine, graph):
        mrt = ModuloReservationTable(machine, ii=1)
        placed = []
        for _ in range(4):
            node = _node(graph, OpKind.ADD)
            mrt.place(node, 0, 0)
            placed.append(node.id)
        blocked = _node(graph, OpKind.ADD)
        victims = mrt.blocking_nodes(blocked, 0, 0)
        assert len(victims) == 1
        assert victims <= set(placed)

    def test_occupancy_fraction(self, machine, graph):
        mrt = ModuloReservationTable(machine, ii=2)
        assert mrt.occupancy_fraction(ResourceClass.GP_FU, 0) == 0.0
        mrt.place(_node(graph, OpKind.ADD), 0, 0)
        mrt.place(_node(graph, OpKind.ADD), 0, 1)
        # 2 slots used of 4 units x 2 rows.
        assert mrt.occupancy_fraction(ResourceClass.GP_FU, 0) == pytest.approx(
            0.25
        )
        assert mrt.occupancy_fraction(ResourceClass.GP_FU, 1) == 0.0


# ----------------------------------------------------------------------
# Property: the bitmask table answers exactly like the dict-of-rows
# reference, and every placement set it accepts is a legal packing.
# ----------------------------------------------------------------------

_KINDS = (
    OpKind.ADD, OpKind.MUL, OpKind.DIV, OpKind.SQRT,
    OpKind.LOAD, OpKind.STORE, OpKind.MOVE,
)
_MACHINES = {
    name: parse_config(name, move_latency=3)
    for name in ("1-(GP8M4-REG64)", "4-(GP2M1-REG32)")
}


def _pool_of_nodes(machine, kinds):
    graph = DependenceGraph("mrt-property")
    nodes = []
    for index, kind in enumerate(kinds):
        attrs = {}
        if kind is OpKind.MOVE:
            attrs["src_cluster"] = index % machine.clusters
        nodes.append(graph.new_node(kind, **attrs))
    return nodes


def _accepted_set_verifies(machine, ii, nodes, placed):
    graph = DependenceGraph("placed")
    for node in nodes:
        if node.id in placed:
            graph.add_node(node.clone())
    times = {nid: cycle for nid, (cluster, cycle) in placed.items()}
    clusters = {nid: cluster for nid, (cluster, cycle) in placed.items()}
    return verify_schedule(graph, machine, ii, times, clusters)


class TestAgainstReference:
    @pytest.mark.parametrize("config", sorted(_MACHINES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_operation_sequences_match(self, config, data):
        machine = _MACHINES[config]
        ii = data.draw(st.sampled_from([1, 2, 3, 8, 17, 20, 31]), label="ii")
        kinds = data.draw(
            st.lists(st.sampled_from(_KINDS), min_size=4, max_size=24),
            label="kinds",
        )
        nodes = _pool_of_nodes(machine, kinds)
        mrt = ModuloReservationTable(machine, ii)
        reference = ReferenceMRT(machine, ii)
        placed: dict[int, tuple[int, int]] = {}
        clusters = st.one_of(st.just(0), st.integers(0, machine.clusters - 1))
        # Mostly the first few rows (full rows make ties and conflicts),
        # sometimes anywhere in three II periods.
        cycles = st.one_of(
            st.builds(
                lambda row, period: row + ii * period,
                st.integers(0, min(ii, 3) - 1), st.integers(0, 2),
            ),
            st.integers(0, 3 * ii),
        )
        for _ in range(data.draw(st.integers(1, 80), label="steps")):
            op = data.draw(
                st.sampled_from(
                    ["place", "place", "place", "remove", "blocking",
                     "blocking", "occupancy"]
                ),
                label="op",
            )
            node = data.draw(st.sampled_from(nodes), label="node")
            cluster = data.draw(clusters, label="cluster")
            cycle = data.draw(cycles, label="cycle")
            src = node.src_cluster
            if op == "place" and node.id not in placed:
                fits = reference.can_place(node, cluster, cycle, src)
                assert mrt.can_place(node, cluster, cycle, src) == fits
                assert mrt.feasible_at_ii(node, cluster, src) == (
                    reference.groups(node, cluster, cycle, src) is not None
                )
                if fits:
                    mrt.place(node, cluster, cycle, src)
                    reference.place(node, cluster, cycle, src)
                    placed[node.id] = (cluster, cycle)
                    assert _accepted_set_verifies(machine, ii, nodes, placed) == []
                else:
                    # A refused placement raises and leaves no trace.
                    with pytest.raises(SchedulingError):
                        mrt.place(node, cluster, cycle, src)
                    assert not mrt.holds(node.id)
            elif op == "remove" and node.id in placed:
                mrt.remove(node.id)
                reference.remove(node.id)
                del placed[node.id]
            elif op == "blocking" and node.id not in placed:
                if reference.groups(node, cluster, cycle, src) is None:
                    with pytest.raises(SchedulingError):
                        mrt.blocking_nodes(node, cluster, cycle, src)
                else:
                    assert mrt.blocking_nodes(
                        node, cluster, cycle, src
                    ) == reference.blocking_nodes(node, cluster, cycle, src)
            elif op == "occupancy":
                for resource in ResourceClass:
                    assert mrt.occupancy_fraction(
                        resource, cluster
                    ) == reference.occupancy_fraction(resource, cluster)
            for nid in placed:
                assert mrt.holds(nid)
