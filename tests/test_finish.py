"""The finishing path: every scheduler stores one allocation on its
result, and the emitter and the MVE factor read it."""

from __future__ import annotations

import sys

import pytest

from repro import parse_config
from repro.baseline.noniterative import NonIterativeScheduler
from repro.codegen import generate_code, modulo_variable_expansion_factor
from repro.core.mirsc import MirsC
from repro.core.params import MirsParams, SmtParams
from repro.core.result import allocate
from repro.frontend.corpus import load_corpus
from repro.graph.ddg import DepKind
from repro.graph.latency import node_latency
from repro.schedule import regalloc
from repro.schedule.lifetimes import LifetimeAnalysis
from repro.schedule.partial import PartialSchedule
from repro.smt.scheduler import SmtScheduler
from repro.workloads.perfect import SUITE_SIZE, build_loop

from tests.helpers import random_graph

UNIFIED_TIGHT = parse_config("1-(GP8M4-REG16)")
TWO_TIGHT = parse_config("2-(GP4M2-REG16)")
FOUR_TIGHT = parse_config("4-(GP2M1-REG16)")

#: Workbench loops that schedule quickly under 16 registers; between
#: them they insert spill code and spill invariants on every machine.
WORKBENCH = (0, 390, 702, 1014)


def fresh_allocation(result):
    """Batch lifetimes and allocation of the result's placement."""
    schedule = PartialSchedule.from_placements(
        result.machine, result.ii, result.times, result.clusters
    )
    analysis = LifetimeAnalysis(result.graph, schedule, result.machine)
    allocations = regalloc.allocate_registers(
        result.graph, schedule, result.machine, analysis
    )
    return analysis, allocations


def fresh_mve_factor(result) -> int:
    """Lam's unroll factor, measured from the placement alone."""
    graph, ii = result.graph, result.ii
    factor = 1
    for node in graph.nodes():
        if not node.produces_value:
            continue
        start = result.times[node.id]
        end = start + node_latency(node, result.machine)
        for edge in graph.out_edges(node.id):
            if edge.kind is DepKind.REG:
                end = max(end, result.times[edge.dst] + ii * edge.distance)
        factor = max(factor, -(-(end - start) // ii))
    return factor


def assert_stores_its_allocation(result) -> None:
    assert result.converged
    analysis, allocations = fresh_allocation(result)
    assert result.register_usage == {
        c: a.registers_used for c, a in allocations.items()
    }
    assert result.value_registers == {
        value: registers
        for a in allocations.values()
        for value, registers in a.assignment.items()
    }
    assert result.lifetimes == {
        lt.value: lt.length for lt in analysis.lifetimes
    }
    assert result.max_live == {
        c: analysis.max_live(c) for c in range(result.machine.clusters)
    }
    assert modulo_variable_expansion_factor(result) == fresh_mve_factor(result)


def heuristic_results():
    for machine in (UNIFIED_TIGHT, FOUR_TIGHT):
        for index in WORKBENCH:
            graph = build_loop(index, SUITE_SIZE, 2001).graph
            yield MirsC(machine).schedule(graph)
            baseline = NonIterativeScheduler(machine).schedule(graph)
            if baseline.converged:
                yield baseline
        for kernel in load_corpus():
            yield MirsC(machine).schedule(kernel.graph)
        for seed in range(6):
            yield MirsC(machine).schedule(random_graph(seed, size=10))


class TestStoredAllocation:
    def test_heuristic_results_carry_a_fresh_allocation(self):
        spilled = invariant_spills = baselines = 0
        for result in heuristic_results():
            assert_stores_its_allocation(result)
            spilled += result.spill_operations > 0
            invariant_spills += result.stats.invariant_spills > 0
            baselines += result.stats.search is None
        assert spilled and invariant_spills and baselines

    @pytest.mark.parametrize("machine", [UNIFIED_TIGHT, TWO_TIGHT])
    def test_exact_results_carry_a_fresh_allocation(self, machine):
        scheduler = SmtScheduler(
            machine,
            MirsParams(smt=SmtParams(engine="native", step_budget=50_000)),
            strict=False,
        )
        graphs = [kernel.graph for kernel in load_corpus()]
        graphs += [random_graph(seed, size=8) for seed in range(4)]
        converged = 0
        for graph in graphs:
            result = scheduler.schedule(graph)
            if result.converged:
                assert_stores_its_allocation(result)
                converged += 1
        assert converged >= len(graphs) // 2

    def test_overshoot_is_the_excess_over_the_register_file(self):
        result = MirsC(UNIFIED_TIGHT).schedule(
            build_loop(0, SUITE_SIZE, 2001).graph
        )
        starved = result.machine.with_registers(4)
        allocation = allocate(
            result.graph, starved, result.ii, result.times, result.clusters
        )
        assert allocation.overshoot == {
            c: used - 4 for c, used in result.register_usage.items()
        }
        assert not allocate(
            result.graph, result.machine, result.ii, result.times,
            result.clusters,
        ).overshoot


class TestEmitterReadsTheAllocation:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Count every LifetimeAnalysis and allocate_registers call,
        whichever module's binding of the name it goes through."""
        counts = {"lifetimes": 0, "allocator": 0}
        original_init = LifetimeAnalysis.__init__
        original_allocate = regalloc.allocate_registers

        def counted_init(self, *args, **kwargs):
            counts["lifetimes"] += 1
            original_init(self, *args, **kwargs)

        def counted_allocate(*args, **kwargs):
            counts["allocator"] += 1
            return original_allocate(*args, **kwargs)

        monkeypatch.setattr(LifetimeAnalysis, "__init__", counted_init)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and (
                getattr(module, "allocate_registers", None) is original_allocate
            ):
                monkeypatch.setattr(module, "allocate_registers", counted_allocate)
        return counts

    def test_generate_code_runs_no_allocation(self, calls):
        results = [
            MirsC(machine).schedule(build_loop(index, SUITE_SIZE, 2001).graph)
            for machine in (UNIFIED_TIGHT, FOUR_TIGHT)
            for index in WORKBENCH
        ]
        # The counters see the finishing path's own calls...
        assert calls["lifetimes"] >= len(results)
        assert calls["allocator"] >= len(results)
        calls.update(lifetimes=0, allocator=0)
        # ...and none from the emitter.
        for result in results:
            generate_code(result)
        assert calls == {"lifetimes": 0, "allocator": 0}
