"""Tests for the incremental register-pressure engine.

The contract under test: :class:`repro.schedule.pressure.PressureTracker`
is bit-identical to a from-scratch
:class:`~repro.schedule.lifetimes.LifetimeAnalysis` after *any* sequence
of scheduler events - placements, ejections, move insertion/removal,
spill insertion, invariant spilling, pressure balancing - on unified and
clustered machines alike.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mirsc import MirsC
from repro.errors import SchedulingError
from repro.schedule import pressure as pressure_module
from repro.schedule.lifetimes import LifetimeAnalysis
from repro.schedule.pressure import PressureTracker
from repro.spill.heuristics import check_and_insert_spill
from repro.workloads.perfect import cached_suite

from tests.helpers import (
    FOUR_CLUSTER,
    FOUR_CLUSTER_TIGHT,
    TWO_CLUSTER,
    UNIFIED,
    UNIFIED_SMALL,
    daxpy,
    random_graph,
)
from tests.helpers import eject_random as _eject_random
from tests.helpers import fresh_state as _fresh_state
from tests.helpers import place_random as _place_random

MACHINES = [UNIFIED_SMALL, TWO_CLUSTER, FOUR_CLUSTER_TIGHT]


def _assert_crossings_match_scratch(state) -> None:
    """``segments_crossing`` == the scratch filter, for every row."""
    scratch = LifetimeAnalysis(
        state.graph,
        state.schedule,
        state.machine,
        spilled_invariants=state.spilled_invariants,
    )
    ii = state.ii
    for cluster in range(state.machine.clusters):
        in_cluster = scratch.segments_in_cluster(cluster)
        for row in range(ii):
            assert state.pressure.segments_crossing(cluster, row) == [
                s for s in in_cluster if s.crosses_row(row, ii)
            ]


class TestRandomizedEventSequences:
    """Property: tracker == scratch analysis after every event mix."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2_000))
    def test_tracker_bit_identical_after_random_events(self, seed):
        rng = random.Random(seed)
        machine = MACHINES[seed % len(MACHINES)]
        state = _fresh_state(seed, machine)
        for _ in range(25):
            roll = rng.random()
            try:
                if roll < 0.55:
                    _place_random(state, rng)
                elif roll < 0.75:
                    _eject_random(state, rng)
                else:
                    check_and_insert_spill(
                        state, final=rng.random() < 0.3
                    )
            except SchedulingError:
                break  # livelock guards may fire on adversarial orders
            state.pressure.assert_matches_scratch()
            _assert_crossings_match_scratch(state)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_tracker_attaches_to_partial_schedules(self, seed):
        """A tracker built over an already-partial schedule is exact."""
        rng = random.Random(seed)
        machine = MACHINES[seed % len(MACHINES)]
        state = _fresh_state(seed, machine)
        for _ in range(6):
            _place_random(state, rng)
        late = PressureTracker(
            state.graph, state.schedule, machine, state.spilled_invariants
        )
        try:
            late.assert_matches_scratch()
        finally:
            late.detach()


class TestSchedulerEquivalence:
    def test_workbench_schedules_match_batch_analysis(self, monkeypatch):
        """Acceptance: the tracker is bit-identical to the from-scratch
        analysis after *every* event of whole MIRS-C runs, on both
        machine configurations: over the 4-loop workbench sample, or the
        whole 16-loop workbench where ``REPRO_PRESSURE_SELFCHECK`` is
        already on (the CI leg that runs this file)."""
        loops = cached_suite(16 if pressure_module.SELF_CHECK else 4)
        monkeypatch.setattr(pressure_module, "SELF_CHECK", True)
        for machine in (UNIFIED, FOUR_CLUSTER_TIGHT):
            for loop in loops:
                result = MirsC(machine, strict=False).schedule(loop.graph)
                assert result.converged or result.restarts > 0

    def test_hand_built_schedule_matches_scratch(self):
        """Tracker over a manually placed schedule equals the batch
        analysis query for query (rows, MaxLive, critical row,
        segments), including after an ejection."""
        from repro.schedule.partial import PartialSchedule

        graph = daxpy()
        machine = TWO_CLUSTER
        schedule = PartialSchedule(machine, ii=6)
        tracker = PressureTracker(graph, schedule, machine)
        nodes = sorted(graph.nodes(), key=lambda n: n.id)
        for offset, node in enumerate(nodes):
            schedule.place(node, offset % machine.clusters, offset * 2)
        tracker.assert_matches_scratch()
        schedule.eject(nodes[1].id)
        tracker.assert_matches_scratch()
        scratch = LifetimeAnalysis(graph, schedule, machine)
        for cluster in range(machine.clusters):
            assert tracker.max_live(cluster) == scratch.max_live(cluster)
            assert tracker.critical_row(cluster) == scratch.critical_row(
                cluster
            )
        assert tracker.segments == scratch.segments
        tracker.detach()

    def test_crossing_segment_starting_before_its_producer(self):
        """A use issued before its producer (a violated dependence, as a
        forced placement leaves it until the offender is ejected) starts
        the next segment before the lifetime: the row filter must still
        find that segment."""
        from repro.graph.builder import LoopBuilder
        from repro.schedule.partial import PartialSchedule

        b = LoopBuilder("early-use")
        x = b.load(array=0)
        early = b.add(x)
        late = b.add(x)
        graph = b.build()
        schedule = PartialSchedule(UNIFIED, ii=16)
        tracker = PressureTracker(graph, schedule, UNIFIED)
        schedule.place(graph.node(early.id), 0, 0)
        schedule.place(graph.node(x.id), 0, 4)
        schedule.place(graph.node(late.id), 0, 10)
        scratch = LifetimeAnalysis(graph, schedule, UNIFIED)
        for row in range(16):
            assert tracker.segments_crossing(0, row) == scratch.segments_crossing(
                0, row
            )
        assert [(s.start, s.end) for s in tracker.segments_crossing(0, 2)] == [
            (0, 10)
        ]
        tracker.assert_matches_scratch()
        tracker.detach()


class TestTrackerLifecycle:
    def test_detach_stops_observing(self):
        machine = UNIFIED
        state = _fresh_state(3, machine)
        tracker = state.pressure
        assert tracker in state.graph._listeners
        assert tracker in state.schedule.listeners
        tracker.detach()
        assert tracker not in state.graph._listeners
        assert tracker not in state.schedule.listeners

    def test_graph_pickle_drops_listeners(self):
        import pickle

        state = _fresh_state(4, UNIFIED)
        rng = random.Random(4)
        _place_random(state, rng)
        clone = pickle.loads(pickle.dumps(state.graph))
        assert clone._listeners == []
        assert len(clone) == len(state.graph)

    def test_lifetime_length_of_untracked_node_is_zero(self):
        state = _fresh_state(5, UNIFIED)
        assert state.pressure.lifetime_length(10_000) == 0


@pytest.mark.parametrize("machine", [UNIFIED_SMALL, FOUR_CLUSTER_TIGHT])
def test_spill_heavy_runs_stay_identical(machine, monkeypatch):
    """Small register files force spills/ejections/balancing; every one
    of those events must keep the tracker exact."""
    monkeypatch.setattr(pressure_module, "SELF_CHECK", True)
    graph = random_graph(11, size=14)
    result = MirsC(machine, strict=False).schedule(graph)
    assert result is not None


def _invariant_heavy_loop(seed: int = 0):
    """Four short streams whose operations each read 16 of 64 loop
    invariants: far more invariant registers than a 32-register cluster
    holds, so MIRS-C re-materializes invariants through moves and drops
    those moves again when their consumers are ejected."""
    from repro import LoopBuilder

    rng = random.Random(seed)
    b = LoopBuilder("invariant-heavy", trip_count=50)
    invariants = [b.invariant(f"c{i}") for i in range(64)]
    for stream in range(4):
        node = b.load(array=stream)
        for _ in range(2):
            node = b.mul(node) if rng.random() < 0.5 else b.add(node)
            for invariant in rng.sample(invariants, 16):
                invariant.consumers.add(node.id)
        b.store(node, array=100 + stream)
    return b.build()


def test_cached_invariant_counts_survive_invariant_spills(monkeypatch):
    """The tracker caches invariant register counts; invariant spilling
    (consumers handed to a move, the spilled set grows) and invariant
    move removal (consumers handed back, the spill undone) must
    invalidate that cache.  The self-check compares the cached counts
    with a from-scratch analysis after every event."""
    from repro.core.state import SchedulerState

    removed = []
    remove_move = SchedulerState.remove_move

    def spy(state, move_id):
        if state.graph.node(move_id).move_of_invariant is not None:
            removed.append(move_id)
        remove_move(state, move_id)

    monkeypatch.setattr(SchedulerState, "remove_move", spy)
    monkeypatch.setattr(pressure_module, "SELF_CHECK", True)
    result = MirsC(FOUR_CLUSTER, strict=False).schedule(_invariant_heavy_loop())
    assert result.converged
    assert result.stats.invariant_spills > 0
    assert removed, "no invariant move was removed"


def test_invariant_count_cache_tracks_each_invalidating_event():
    """Each event that can change invariant register counts refreshes
    the cache on its own: a reader's place/eject, a consumer edit
    through the graph, and an in-place edit of the spilled set."""
    from repro import LoopBuilder
    from repro.schedule.partial import PartialSchedule

    b = LoopBuilder("inv-cache")
    u = b.add()
    v = b.mul()
    w = b.add()
    inv = b.invariant("c")
    inv.consumers |= {u.id, v.id}
    graph = b.build()
    spilled: set[tuple[int, int]] = set()
    schedule = PartialSchedule(TWO_CLUSTER, ii=4)
    tracker = PressureTracker(graph, schedule, TWO_CLUSTER, spilled)

    def counts():
        tracker.assert_matches_scratch()
        return [tracker.invariant_registers(c) for c in range(2)]

    assert counts() == [0, 0]
    schedule.place(graph.node(u.id), 0, 0)
    schedule.place(graph.node(w.id), 1, 0)
    assert counts() == [1, 0]
    schedule.place(graph.node(v.id), 1, 1)
    assert counts() == [1, 1]
    spilled.add((inv.id, 0))
    assert counts() == [0, 1]
    graph.discard_invariant_consumer(inv.id, v.id)
    assert counts() == [0, 0]
    graph.add_invariant_consumer(inv.id, w.id)
    assert counts() == [0, 1]
    spilled.clear()
    assert counts() == [1, 1]
    schedule.eject(w.id)
    assert counts() == [1, 0]
    schedule.forget(u.id)
    graph.remove_node(u.id)
    assert counts() == [0, 0]
    assert inv.consumers == {w.id}
    tracker.detach()


class TestDeltaFold:
    @settings(max_examples=200, deadline=None)
    @given(
        ii=st.integers(min_value=1, max_value=12),
        start=st.integers(min_value=-30, max_value=60),
        data=st.data(),
    )
    def test_end_delta_equals_fresh_fold(self, ii, start, data):
        """Folding [s, e) then moving the end to e' leaves the same
        variant rows as folding [s, e') directly, for lengths below, at
        and above II and starts that wrap around the rows."""
        from repro.schedule.partial import PartialSchedule

        lengths = st.one_of(
            st.integers(min_value=0, max_value=3 * ii + 2),
            st.sampled_from([ii - 1, ii, ii + 1, 2 * ii]),
        )
        first = max(0, data.draw(lengths))
        second = max(0, data.draw(lengths))

        def tracker():
            return PressureTracker(
                random_graph(0, size=3), PartialSchedule(UNIFIED, ii), UNIFIED
            )

        moved, fresh = tracker(), tracker()
        moved._fold(0, start, start + first, +1)
        moved._fold_end(0, start + first, start + second)
        fresh._fold(0, start, start + second, +1)
        assert moved.variant_rows(0) == fresh.variant_rows(0)
        assert moved.critical_row(0) == fresh.critical_row(0)
        assert moved.max_live(0) == fresh.max_live(0)


class TestPlacementDeltas:
    """A placement or ejection updates only the producers it feeds:
    each gains or loses the consumer's uses, and ``end`` / ``low`` move
    only when one of those uses set them.  Every case runs the tracker
    with its self-check on, so each event is compared with a
    from-scratch analysis, the kept peak included."""

    II = 8

    @staticmethod
    def _replay(graph, events):
        from repro.schedule.partial import PartialSchedule

        schedule = PartialSchedule(UNIFIED, ii=TestPlacementDeltas.II)
        tracker = PressureTracker(graph, schedule, UNIFIED, self_check=True)
        for event in events:
            if event[0] == "place":
                schedule.place(graph.node(event[1].id), 0, event[2])
            else:
                schedule.eject(event[1].id)
            scratch = LifetimeAnalysis(graph, schedule, UNIFIED)
            for row in range(TestPlacementDeltas.II):
                assert tracker.segments_crossing(
                    0, row
                ) == scratch.segments_crossing(0, row)
        return tracker

    def test_parallel_edges_at_two_distances(self):
        """Two REG edges from one producer to one consumer (distances 0
        and 2) add two uses on placement and lose both on ejection."""
        from repro.graph.builder import LoopBuilder

        b = LoopBuilder("parallel")
        x = b.load(array=0)
        y = b.add(x)
        b.loop_carried(x, y, distance=2)
        b.store(y, array=1)
        graph = b.build()
        tracker = self._replay(
            graph,
            [("place", x, 0), ("place", y, 3), ("eject", y),
             ("place", y, 5), ("eject", x), ("place", x, 1)],
        )
        assert sorted(u[2] for u in tracker._entries[x.id].uses) == [0, 2]
        assert tracker.lifetime_bounds(x.id) == (1, 5 + 2 * self.II)
        tracker.detach()

    def test_self_loop_recurrence_on_the_producer(self):
        from repro.graph.builder import LoopBuilder

        b = LoopBuilder("self-loop")
        x = b.load(array=0)
        acc = b.add(x)
        b.loop_carried(acc, acc, distance=1)
        out = b.mul(acc)
        b.store(out, array=1)
        graph = b.build()
        tracker = self._replay(
            graph,
            [("place", acc, 4), ("place", out, 9), ("place", x, 0),
             ("eject", out), ("eject", acc), ("place", acc, 2),
             ("place", out, 20)],
        )
        assert tracker.lifetime_bounds(acc.id) == (2, 20)
        tracker.detach()

    def test_consumer_before_its_producer_moves_low(self):
        """A consumer placed before its producer's start (a violated
        dependence) lowers ``low``: the segment that starts before the
        lifetime must still be found by the row filter."""
        from repro.graph.builder import LoopBuilder

        b = LoopBuilder("early-consumer")
        x = b.load(array=0)
        early = b.add(x)
        late = b.add(x)
        graph = b.build()
        tracker = self._replay(
            graph,
            [("place", x, 4), ("place", late, 10), ("place", early, 0),
             ("eject", early), ("place", early, 1)],
        )
        assert tracker._entries[x.id].low == 1
        tracker.detach()

    def test_ejecting_the_last_use_shrinks_the_end(self):
        """Ejecting the consumer that held a producer's last use folds
        the end back (a ``-1`` fold), and the kept peak goes stale."""
        from repro.graph.builder import LoopBuilder

        b = LoopBuilder("last-use")
        x = b.load(array=0)
        near = b.add(x)
        far = b.add(x)
        graph = b.build()
        tracker = self._replay(
            graph, [("place", x, 0), ("place", near, 2), ("place", far, 7)]
        )
        assert tracker.lifetime_bounds(x.id) == (0, 7)
        assert tracker.max_live(0) == 3
        # The self-check's own queries would recompute the peak.
        tracker.self_check = False
        tracker.schedule.eject(far.id)
        assert tracker._peak[0] is None
        tracker.assert_matches_scratch()
        assert tracker.lifetime_bounds(x.id) == (0, 2)
        assert tracker.max_live(0) == 1
        assert tracker._peak[0] == 1
        tracker.detach()

    def test_eject_takes_the_cycle_from_the_schedule_event(self):
        """The uses an ejection removes sit at the cycle the schedule
        hands its listeners, whatever ``prev_cycle`` (a re-placement
        aid) holds by then."""
        from repro.graph.builder import LoopBuilder

        b = LoopBuilder("eject-cycle")
        x = b.load(array=0)
        y = b.add(x)
        graph = b.build()
        tracker = self._replay(graph, [("place", x, 0), ("place", y, 5)])
        tracker.schedule.prev_cycle.clear()
        tracker.schedule.eject(y.id)
        assert tracker._entries[x.id].uses == []
        assert tracker.lifetime_bounds(x.id) == (0, 2)
        tracker.detach()

    def test_refresh_keeps_segments_when_only_the_use_order_differs(self):
        """Consumers placed against their out-edge order leave the uses
        in placement order; an edge event's full refresh lists them in
        out-edge order, and the built segments stand."""
        from repro.graph.builder import LoopBuilder
        from repro.machine.resources import OpKind

        b = LoopBuilder("use-order")
        x = b.load(array=0)
        first = b.add(x)
        second = b.add(x)
        graph = b.build()
        tracker = self._replay(
            graph, [("place", x, 0), ("place", second, 6), ("place", first, 3)]
        )
        entry = tracker._entries[x.id]
        segments = tracker._segments(entry)
        assert [u[1] for u in entry.uses] == [second.id, first.id]
        # A REG edge to an unscheduled consumer changes no use.
        sink = graph.new_node(OpKind.ADD)
        graph.add_edge(x.id, sink.id)
        assert [u[1] for u in entry.uses] == [first.id, second.id]
        assert entry.segments is segments
        tracker.detach()

    def test_stress_loop_runs_self_check_clean(self, monkeypatch):
        """stress3 of population seed 7001 under the geometric search:
        churn-heavy attempts that the workbench sample never reaches."""
        from repro.core.params import MirsParams
        from repro.workloads.stress import stress_suite

        monkeypatch.setattr(pressure_module, "SELF_CHECK", True)
        graph = stress_suite(4, 7001)[3]
        result = MirsC(
            UNIFIED, params=MirsParams(ii_search="geometric"), strict=False
        ).schedule(graph)
        assert result.converged
