"""Register-pressure balancing and cluster selection (Section 3.3).

``balance_register_pressure`` probes move shifts in place and re-stamps
the moves that do not shift; ``select_cluster`` probes slots in
(moves, occupancy, index) order and stops at the first free one.  Both
are checked here against the eject/re-place balancing and the
exhaustive-key selection kept in ``tests/helpers.py``: at every call
while scheduling workbench loops on two register-tight clustered
machines, on a copy of the state, down to placement order, MRT
instances, tracker rows and lifetime order, and register counts.
"""

from __future__ import annotations

import pickle

import pytest

from repro import LoopBuilder, parse_config
from repro.cluster.balance import balance_register_pressure
from repro.cluster.moves import add_move, next_needed_move
from repro.core.mirsc import MirsC
from repro.core.params import MirsParams
from repro.core.state import SchedulerState
from repro.graph.latency import node_latency
from repro.workloads.perfect import cached_suite

from tests.helpers import (
    TWO_CLUSTER,
    legacy_balance_register_pressure,
    legacy_select_cluster,
)


def _moved_value_state(consumer_cycle: int):
    """A load on cluster 0 read by an add on cluster 1 at
    ``consumer_cycle``, through a move issued as early as it can be:
    the moved value is live on cluster 1 from the move to the add."""
    b = LoopBuilder("moved")
    x = b.load(array=0)
    y = b.add(x)
    graph = b.build()
    priorities = {n.id: float(100 - n.id) for n in graph.nodes()}
    state = SchedulerState(graph, TWO_CLUSTER, 4, priorities, MirsParams())
    load = graph.node(x.id)
    state.schedule.place(load, 0, 0)
    move = add_move(state, next_needed_move(state, graph.node(y.id), 1))
    ready = state.machine.latency(load.kind)
    state.schedule.place(move, 1, ready, src_cluster=0)
    state.schedule.place(graph.node(y.id), 1, consumer_cycle)
    return state, move, ready


def _snapshot(state: SchedulerState) -> dict:
    """Everything a later decision or tie-break can read."""
    schedule = state.schedule
    mrt = schedule.mrt
    tracker = state.pressure
    clusters = range(state.machine.clusters)
    return {
        "placements": [
            (node_id, schedule.time(node_id), schedule.cluster(node_id))
            for node_id in schedule.scheduled_ids()
        ],
        "seq": [
            schedule.placement_seq(node_id)
            for node_id in schedule.scheduled_ids()
        ],
        "rows": [schedule.nodes_in_row(row) for row in range(schedule.ii)],
        "mrt": (mrt._occ, list(mrt._held.items())),
        "pressure": [tracker.variant_rows(cluster) for cluster in clusters],
        "lifetimes": list(tracker.lifetimes),
        "max_live": tracker.max_live_all(),
        "registers": (
            state.colouring.registers_used_all()
            if state.colouring is not None
            else None
        ),
        "shifts": state.stats.balance_shifts,
    }


class TestBalanceShift:
    def test_delaying_a_move_relieves_the_cluster(self):
        # At II 4 the moved value [ready, 12) spans two full periods and
        # a remainder; from cycle 4 on it spans exactly two periods.
        state, move, ready = _moved_value_state(12)
        assert ready == 2
        before = state.pressure.max_live(1)
        assert balance_register_pressure(state, 1) is True
        assert state.stats.balance_shifts == 1
        assert state.schedule.time(move.id) == 4
        assert state.schedule.cluster(move.id) == 1
        assert state.pressure.max_live(1) == before - 1
        state.pressure.assert_matches_scratch()

    def test_a_move_that_cannot_shift_is_restamped_in_place(self):
        # The add reads the moved value as soon as it arrives: the move
        # has no later cycle to go to, so it stays where it is.
        state, move, ready = _moved_value_state(3)
        assert ready + node_latency(move, state.machine) == 3
        before = _snapshot(state)
        assert before["placements"][-1][0] != move.id
        assert balance_register_pressure(state, 1) is False
        after = _snapshot(state)
        assert state.stats.balance_shifts == 0
        assert state.schedule.time(move.id) == ready
        assert state.schedule.mrt.holds(move.id)
        # The move is the latest placed now, as if ejected and placed
        # back; no time, row count or lifetime changed.
        assert after["placements"][-1] == (move.id, ready, 1)
        assert sorted(after["placements"]) == sorted(before["placements"])
        assert after["seq"][-1] == before["seq"][-1] + 1
        assert after["pressure"] == before["pressure"]
        assert after["lifetimes"][-1].value == move.id
        assert set(after["lifetimes"]) == set(before["lifetimes"])
        state.pressure.assert_matches_scratch()

    def test_unified_machine_never_balances(self):
        b = LoopBuilder("one")
        b.add(b.load(array=0))
        graph = b.build()
        state = SchedulerState(
            graph, parse_config("1-(GP8M4-REG16)"), 4,
            {n.id: 0.0 for n in graph.nodes()}, MirsParams(),
        )
        assert balance_register_pressure(state, 0) is False


#: Workbench loops (of the 16-loop workbench) that balance often but
#: schedule quickly on the two register-tight clustered machines.
_ORACLE_RUNS = {
    "4-(GP2M1-REG16)": (
        "dense0", "dense157", "stencil629", "stencil707", "stencil864@x2",
        "reduction471", "recurrent943@x2",
    ),
    "2-(GP4M2-REG16)": (
        "dense0", "reduction393@x2", "reduction471", "reduction550@x2",
        "stencil864@x2", "recurrent943@x2", "recurrent1022@x2",
    ),
}


class TestAgainstOracles:
    @pytest.mark.parametrize("config", sorted(_ORACLE_RUNS))
    def test_every_call_matches_its_oracle(self, config, monkeypatch):
        import repro.core.attempts as attempts
        import repro.spill.heuristics as heuristics

        counts = {"balance": 0, "shifts": 0, "select": 0}

        def checked_balance(state, cluster):
            # The twin shares nothing with the live state.  It drops the
            # graph's listeners, which balancing never notifies.
            twin = pickle.loads(pickle.dumps(state))
            expected = legacy_balance_register_pressure(twin, cluster)
            got = balance_register_pressure(state, cluster)
            assert got == expected
            assert _snapshot(state) == _snapshot(twin)
            counts["balance"] += 1
            counts["shifts"] += got
            return got

        def checked_select(state, node):
            got = select_cluster(state, node)
            assert got == legacy_select_cluster(state, node)
            counts["select"] += 1
            return got

        select_cluster = attempts.select_cluster
        monkeypatch.setattr(
            heuristics, "balance_register_pressure", checked_balance
        )
        monkeypatch.setattr(attempts, "select_cluster", checked_select)
        machine = parse_config(config)
        names = set(_ORACLE_RUNS[config])
        loops = [loop for loop in cached_suite(16) if loop.graph.name in names]
        assert len(loops) == len(names)
        for loop in loops:
            assert MirsC(machine).schedule(loop.graph).converged
        assert counts["balance"] > 100
        assert counts["shifts"] > 0
        assert counts["select"] > 1000
