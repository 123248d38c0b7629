"""Unit tests for the Check_and_Insert_Spill heuristic."""

from repro import DepKind, LoopBuilder, parse_config
from repro.core.params import MirsParams
from repro.core.state import SchedulerState
from repro.schedule.lifetimes import LifetimeAnalysis
from repro.spill.heuristics import (
    _eject_from_critical_row,
    _get_or_create_store,
    _insert_load,
    _spill_once,
    check_and_insert_spill,
)

from tests.helpers import UNIFIED


def _long_lifetime_graph():
    """A value produced early and consumed very late: prime spill bait."""
    b = LoopBuilder("ll")
    x = b.load(array=0)
    mid = b.add(x)
    chain = mid
    for _ in range(4):
        chain = b.add(chain)
    late = b.add(chain, x)  # x used again, far from its definition
    b.store(late, array=1)
    return b.build(), x, late


def _state(graph, machine, ii=8):
    priorities = {n.id: float(100 - n.id) for n in graph.nodes()}
    return SchedulerState(graph, machine, ii, priorities, MirsParams())


def _place_chain(state, graph):
    cycle = 0
    for node in sorted(graph.nodes(), key=lambda n: n.id):
        while not state.schedule.mrt.can_place(node, 0, cycle):
            cycle += 1
        state.schedule.place(node, 0, cycle)
        cycle += 4


class TestSpillTransforms:
    def test_store_created_once_and_reused(self):
        graph, x, late = _long_lifetime_graph()
        state = _state(graph, UNIFIED)
        state.schedule.place(graph.node(x.id), 0, 0)
        store1 = _get_or_create_store(state, x.id)
        store2 = _get_or_create_store(state, x.id)
        assert store1.id == store2.id
        assert store1.is_spill
        assert store1.spilled_value == x.id
        assert state.stats.spill_stores_added == 1

    def test_insert_load_wires_memory_chain(self):
        graph, x, late = _long_lifetime_graph()
        state = _state(graph, UNIFIED)
        state.schedule.place(graph.node(x.id), 0, 0)
        store = _get_or_create_store(state, x.id)
        load = _insert_load(
            state, store, x.id, late.id, 2, store.mem_ref
        )
        mem_edges = [
            e for e in graph.out_edges(store.id) if e.kind is DepKind.MEM
        ]
        assert len(mem_edges) == 1
        assert mem_edges[0].dst == load.id
        assert mem_edges[0].distance == 2
        reg_edges = graph.out_edges(load.id)
        assert reg_edges[0].dst == late.id

    def test_spill_nodes_enter_priority_list(self):
        graph, x, late = _long_lifetime_graph()
        state = _state(graph, UNIFIED)
        state.schedule.place(graph.node(x.id), 0, 0)
        store = _get_or_create_store(state, x.id)
        load = _insert_load(state, store, x.id, late.id, 0, store.mem_ref)
        assert store.id in state.pl
        assert load.id in state.pl

    def test_budget_grows_per_inserted_node(self):
        graph, x, late = _long_lifetime_graph()
        state = _state(graph, UNIFIED)
        before = state.budget
        state.schedule.place(graph.node(x.id), 0, 0)
        store = _get_or_create_store(state, x.id)
        _insert_load(state, store, x.id, late.id, 0, store.mem_ref)
        assert state.budget == before + 2 * state.params.budget_ratio


class TestSpillSelection:
    def test_spill_once_picks_long_segment(self):
        graph, x, late = _long_lifetime_graph()
        machine = parse_config("1-(GP8M4-REG4)")
        state = _state(graph, machine, ii=4)
        _place_chain(state, graph)
        analysis = LifetimeAnalysis(graph, state.schedule, machine)
        assert _spill_once(state, 0, analysis)
        # The spilled use is x's late consumer: x -> late replaced.
        assert late.id not in graph.succs(x.id) or state.stats.spill_loads_added

    def test_eject_from_critical_row_takes_the_batch_analysis(self):
        """The batch analysis ranks the critical row's nodes by lifetime
        length exactly as the live tracker does."""
        graph, x, late = _long_lifetime_graph()
        machine = parse_config("1-(GP8M4-REG4)")
        state = _state(graph, machine, ii=4)
        _place_chain(state, graph)
        analysis = LifetimeAnalysis(graph, state.schedule, machine)
        candidates = state.schedule.nodes_in_row(analysis.critical_row(0), 0)
        assert [analysis.lifetime_length(n) for n in candidates] == [
            state.pressure.lifetime_length(n) for n in candidates
        ]
        victim = max(
            candidates,
            key=lambda n: (
                analysis.lifetime_length(n), -state.schedule.placement_seq(n)
            ),
        )
        assert _eject_from_critical_row(state, 0, analysis)
        assert not state.schedule.is_scheduled(victim)

    def test_nothing_to_spill_returns_false(self):
        b = LoopBuilder("tiny")
        x = b.load(array=0)
        b.store(x, array=1)
        graph = b.build()
        machine = parse_config("1-(GP8M4-REG4)")
        state = _state(graph, machine, ii=2)
        state.schedule.place(graph.node(x.id), 0, 0)
        state.schedule.place(graph.node(1), 0, 2)
        analysis = LifetimeAnalysis(graph, state.schedule, machine)
        assert not _spill_once(state, 0, analysis)

    def test_check_respects_spill_gauge(self):
        graph, x, late = _long_lifetime_graph()
        machine = parse_config("1-(GP8M4-REG64)")  # plenty of registers
        state = _state(graph, machine, ii=8)
        _place_chain(state, graph)
        assert not check_and_insert_spill(state)  # nothing to do
        assert state.stats.spill_loads_added == 0

    def test_check_unbounded_registers_noop(self):
        graph, _, _ = _long_lifetime_graph()
        machine = parse_config("1-(GP8M4-REGinf)")
        state = _state(graph, machine, ii=4)
        _place_chain(state, graph)
        assert not check_and_insert_spill(state, final=True)

    def test_min_span_gauge_blocks_short_segments(self):
        graph, x, late = _long_lifetime_graph()
        machine = parse_config("1-(GP8M4-REG4)")
        params = MirsParams(min_span_gauge=10_000)
        priorities = {n.id: float(100 - n.id) for n in graph.nodes()}
        state = SchedulerState(graph, machine, 4, priorities, params)
        _place_chain(state, graph)
        analysis = LifetimeAnalysis(graph, state.schedule, machine)
        assert not _spill_once(state, 0, analysis)


class TestInvariantSpill:
    def test_invariant_spilled_via_load_when_single_cluster(self):
        b = LoopBuilder("inv")
        u = b.add()
        nodes = [u]
        for _ in range(3):
            nodes.append(b.add(nodes[-1]))
        inv = b.invariant("c")
        inv.consumers.add(u.id)
        graph = b.build()
        machine = parse_config("1-(GP8M4-REG2)")
        state = _state(graph, machine, ii=4)
        _place_chain(state, graph)
        analysis = LifetimeAnalysis(graph, state.schedule, machine)
        if _spill_once(state, 0, analysis):
            loads = [
                n for n in graph.nodes() if n.load_of_invariant == inv.id
            ]
            if loads:
                assert (inv.id, 0) in state.spilled_invariants
                assert u.id not in inv.consumers
