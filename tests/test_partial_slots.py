"""Unit tests for the partial schedule and slot-window computation."""

import pytest

from repro import LoopBuilder, SchedulingError, parse_config
from repro.schedule.partial import PartialSchedule
from repro.schedule.slots import (
    Direction,
    dependence_window,
    find_free_slot,
    forced_cycle,
    violates_dependences,
)

from tests.helpers import UNIFIED


@pytest.fixture
def chain_graph():
    b = LoopBuilder("chain")
    x = b.load(array=0)
    y = b.add(x)
    z = b.mul(y)
    b.store(z, array=1)
    return b.build()


class TestPartialSchedule:
    def test_place_records_everything(self, chain_graph):
        schedule = PartialSchedule(UNIFIED, ii=4)
        node = chain_graph.node(0)
        schedule.place(node, 0, 7)
        assert schedule.is_scheduled(0)
        assert schedule.time(0) == 7
        assert schedule.cluster(0) == 0
        assert schedule.row(0) == 3
        assert schedule.prev_cycle[0] == 7

    def test_eject_keeps_prev_cycle(self, chain_graph):
        schedule = PartialSchedule(UNIFIED, ii=4)
        node = chain_graph.node(0)
        schedule.place(node, 0, 7)
        schedule.eject(0)
        assert not schedule.is_scheduled(0)
        assert schedule.prev_cycle[0] == 7
        with pytest.raises(SchedulingError):
            schedule.time(0)

    def test_eject_unscheduled_rejected(self, chain_graph):
        schedule = PartialSchedule(UNIFIED, ii=4)
        with pytest.raises(SchedulingError):
            schedule.eject(0)

    def test_placement_seq_tracks_order(self, chain_graph):
        schedule = PartialSchedule(UNIFIED, ii=4)
        a, b = chain_graph.node(0), chain_graph.node(1)
        schedule.place(a, 0, 0)
        schedule.place(b, 0, 1)
        assert schedule.placement_seq(a.id) < schedule.placement_seq(b.id)

    def test_restamp_books_an_eject_and_replace_in_place(self):
        # At II 2 the loads at cycles 0 and 2 share row 0 of the two
        # memory ports: the second holds port 1, and once the first has
        # left port 0 a re-stamp books the second there, first-fit.
        b = LoopBuilder("loads")
        first, second, third = (b.load(array=i) for i in range(3))
        graph = b.build()
        machine = parse_config("1-(GP2M2-REG32)")
        schedule = PartialSchedule(machine, ii=2)
        schedule.place(graph.node(first.id), 0, 0)
        schedule.place(graph.node(second.id), 0, 2)
        schedule.place(graph.node(third.id), 0, 1)
        assert schedule.mrt._held[second.id][0][1] == 1
        schedule.eject(first.id)
        seq = schedule.placement_seq(third.id)
        schedule.restamp(graph.node(second.id))
        assert schedule.time(second.id) == 2
        assert schedule.cluster(second.id) == 0
        assert schedule.prev_cycle[second.id] == 2
        assert schedule.placement_seq(second.id) == seq + 1
        assert schedule.scheduled_ids() == [third.id, second.id]
        assert list(schedule.latest_first()) == [second.id, third.id]
        assert schedule.mrt._held[second.id][0][1] == 0
        with pytest.raises(SchedulingError):
            schedule.restamp(graph.node(first.id))

    def test_rows_span_and_stages(self, chain_graph):
        schedule = PartialSchedule(UNIFIED, ii=4)
        schedule.place(chain_graph.node(0), 0, 0)
        schedule.place(chain_graph.node(1), 0, 4)
        schedule.place(chain_graph.node(2), 0, 9)
        assert schedule.nodes_in_row(0) == [0, 1] or set(
            schedule.nodes_in_row(0)
        ) == {0, 1}
        assert schedule.span() == (0, 9)
        assert schedule.stage_count() == 3

    def test_row_index_matches_brute_force(self):
        """The per-(row, cluster) index must agree with a full scan
        through arbitrary place/eject/forget sequences."""
        import random

        machine = parse_config("4-(GP2M1-REG32)")
        b = LoopBuilder("many")
        for i in range(24):
            b.add(b.load(array=i))
        graph = b.build()
        nodes = sorted(graph.nodes(), key=lambda n: n.id)
        rng = random.Random(1234)
        ii = 5
        schedule = PartialSchedule(machine, ii=ii)
        placed: dict[int, tuple[int, int]] = {}

        def brute(row, cluster=None):
            return [
                nid
                for nid, (t, c) in placed.items()
                if t % ii == row and (cluster is None or c == cluster)
            ]

        for _ in range(400):
            if placed and rng.random() < 0.45:
                victim = rng.choice(sorted(placed))
                if rng.random() < 0.2:
                    schedule.forget(victim)
                else:
                    schedule.eject(victim)
                del placed[victim]
            else:
                free = [n for n in nodes if n.id not in placed]
                if not free:
                    continue
                node = rng.choice(free)
                cluster = rng.randrange(machine.clusters)
                cycle = rng.randrange(4 * ii)
                try:
                    schedule.place(node, cluster, cycle)
                except SchedulingError:
                    continue  # MRT conflict: nothing changed
                placed[node.id] = (cycle, cluster)
            row = rng.randrange(ii)
            assert sorted(schedule.nodes_in_row(row)) == sorted(brute(row))
            for cluster in range(machine.clusters):
                assert sorted(schedule.nodes_in_row(row, cluster)) == sorted(
                    brute(row, cluster)
                )


class TestDependenceWindow:
    def test_unconstrained_node(self, chain_graph):
        schedule = PartialSchedule(UNIFIED, ii=5)
        window = dependence_window(
            chain_graph, schedule, chain_graph.node(1), UNIFIED
        )
        assert window.early is None and window.late is None
        assert window.direction is Direction.FORWARD
        assert list(window.candidates()) == [0, 1, 2, 3, 4]

    def test_early_start_from_scheduled_pred(self, chain_graph):
        schedule = PartialSchedule(UNIFIED, ii=5)
        schedule.place(chain_graph.node(0), 0, 3)  # load, latency 2
        window = dependence_window(
            chain_graph, schedule, chain_graph.node(1), UNIFIED
        )
        assert window.early == 5  # 3 + load latency
        assert window.direction is Direction.FORWARD
        assert window.stop == 5 + 5 - 1

    def test_late_start_from_scheduled_succ(self, chain_graph):
        schedule = PartialSchedule(UNIFIED, ii=5)
        schedule.place(chain_graph.node(2), 0, 20)  # the mul consumer
        window = dependence_window(
            chain_graph, schedule, chain_graph.node(1), UNIFIED
        )
        # add (latency 4) must finish before cycle 20.
        assert window.late == 16
        assert window.direction is Direction.BACKWARD
        assert list(window.candidates())[0] == 16

    def test_both_sides_window(self, chain_graph):
        schedule = PartialSchedule(UNIFIED, ii=8)
        schedule.place(chain_graph.node(0), 0, 0)
        schedule.place(chain_graph.node(2), 0, 12)
        window = dependence_window(
            chain_graph, schedule, chain_graph.node(1), UNIFIED
        )
        assert window.early == 2
        assert window.late == 8
        assert not window.empty

    def test_loop_carried_distance_relaxes_bound(self):
        b = LoopBuilder("rec")
        x = b.load(array=0)
        acc = b.add(x)
        b.loop_carried(acc, acc, distance=2)
        graph = b.build()
        schedule = PartialSchedule(UNIFIED, ii=3)
        schedule.place(graph.node(acc.id), 0, 10)
        window = dependence_window(graph, schedule, graph.node(x.id), UNIFIED)
        # x -> acc with latency 2 gives LateStart 8 ... the self edge on
        # acc does not involve x.
        assert window.late == 8

    def test_spill_distance_gauge_clamps_load(self):
        b = LoopBuilder("sp")
        x = b.load(array=0)
        y = b.add(x)
        graph = b.build()
        load = graph.node(x.id)
        load.is_spill = True
        schedule = PartialSchedule(UNIFIED, ii=16)
        schedule.place(graph.node(y.id), 0, 100)
        window = dependence_window(
            graph, schedule, load, UNIFIED, distance_gauge=4
        )
        # LateStart = 98 (latency 2); EarlyStart clamped to 98 - 4 = 94.
        assert window.late == 98
        assert window.early == 94


class TestFindFreeSlotAndForcing:
    def test_find_free_slot_respects_occupancy(self, chain_graph):
        machine = parse_config("1-(GP8M4-REG64)")
        schedule = PartialSchedule(machine, ii=1)
        # Fill all 4 memory ports in the single row.
        b = LoopBuilder("fill")
        fillers = [b.load(array=i) for i in range(4)]
        extra = b.load(array=9)
        graph = b.build()
        for filler in fillers:
            schedule.place(graph.node(filler.id), 0, 0)
        window = dependence_window(graph, schedule, graph.node(extra.id), machine)
        assert find_free_slot(schedule, graph.node(extra.id), 0, window) is None

    def test_forced_cycle_first_time_uses_anchor(self, chain_graph):
        schedule = PartialSchedule(UNIFIED, ii=4)
        schedule.place(chain_graph.node(0), 0, 0)
        window = dependence_window(
            chain_graph, schedule, chain_graph.node(1), UNIFIED
        )
        assert forced_cycle(schedule, chain_graph.node(1), window) == window.early

    def test_forced_cycle_advances_past_prev(self, chain_graph):
        schedule = PartialSchedule(UNIFIED, ii=4)
        schedule.place(chain_graph.node(0), 0, 0)
        schedule.prev_cycle[1] = 6
        window = dependence_window(
            chain_graph, schedule, chain_graph.node(1), UNIFIED
        )
        assert forced_cycle(schedule, chain_graph.node(1), window) == 7

    def test_backward_forcing_retreats(self, chain_graph):
        schedule = PartialSchedule(UNIFIED, ii=4)
        schedule.place(chain_graph.node(2), 0, 20)
        schedule.prev_cycle[1] = 10
        window = dependence_window(
            chain_graph, schedule, chain_graph.node(1), UNIFIED
        )
        assert window.direction is Direction.BACKWARD
        assert forced_cycle(schedule, chain_graph.node(1), window) == 9

    def test_violates_dependences(self, chain_graph):
        schedule = PartialSchedule(UNIFIED, ii=4)
        schedule.place(chain_graph.node(0), 0, 0)  # load latency 2
        schedule.place(chain_graph.node(1), 0, 1)  # too early!
        offenders = violates_dependences(chain_graph, schedule, 1, UNIFIED)
        assert offenders == [0]
