"""Tests for the cycle-accurate execution simulator (repro.sim).

The centrepiece is the differential acceptance test: for every loop of
the default 16-loop workbench on two machine configurations, executing
the generated code must reproduce the scalar reference interpretation
bit for bit, and the measured useful cycles must equal
``II * (N + SC - 1)`` for the simulated trip count.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LoopBuilder, MemRef, MirsC, ScheduleRequest, parse_config
from repro.codegen import generate_code
from repro.errors import SimulationError
from repro.exec import ResultCache, simulation_cache_key
from repro.frontend.corpus import load_corpus
from repro.machine.resources import OpKind
from repro.memsim.cache import CacheConfig
from repro.sim import (
    ReferenceInterpreter,
    VliwSimulator,
    run_differential,
    run_reference,
    simulate,
)
from repro.sim import ops
from repro.sim.differential import MAX_REPORTED, state_mismatches
from repro.sim.reference import live_in_moduli_of_code
from repro.sim.vliw import effective_iterations
from repro.workloads.perfect import cached_suite

from tests.helpers import (
    FOUR_CLUSTER,
    FOUR_CLUSTER_TIGHT,
    TWO_CLUSTER,
    UNIFIED,
    LegacyReferenceInterpreter,
    LegacyVliwSimulator,
    daxpy,
    legacy_evaluate,
    legacy_generate_code,
    random_graph,
    reduction,
)

DIFF_ITERATIONS = 24


# ----------------------------------------------------------------------
# Value semantics
# ----------------------------------------------------------------------


class TestOps:
    def test_values_stay_in_field(self):
        for kind in OpKind:
            value = ops.evaluate(kind, [ops.FIELD_PRIME - 1, 12345])
            assert 0 <= value < ops.FIELD_PRIME

    def test_operand_order_is_erased(self):
        operands = [987654321, 123456789, 42]
        for kind in (OpKind.ADD, OpKind.MUL, OpKind.DIV, OpKind.STORE):
            baseline = ops.evaluate(kind, list(operands))
            for _ in range(5):
                shuffled = list(operands)
                random.Random(0).shuffle(shuffled)
                assert ops.evaluate(kind, shuffled) == baseline

    def test_kinds_are_distinguished(self):
        operands = [7, 11]
        values = {
            ops.evaluate(kind, list(operands))
            for kind in (OpKind.ADD, OpKind.MUL, OpKind.DIV, OpKind.SQRT)
        }
        assert len(values) == 4

    def test_identity_functions_are_pure(self):
        assert ops.initial_value(3, -2) == ops.initial_value(3, -2)
        assert ops.initial_value(3, -2) != ops.initial_value(3, -1)
        assert ops.invariant_value(0) != ops.invariant_value(1)
        assert ops.initial_memory(64) != ops.initial_memory(72)

    def test_move_forwards_its_operand(self):
        assert ops.evaluate(OpKind.MOVE, [991]) == 991

    def test_plain_load_yields_memory_word(self):
        assert ops.load_value(123456, []) == 123456

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(list(OpKind)),
        operands=st.lists(st.integers(0, 2**64 - 1), max_size=4),
        rng=st.randoms(use_true_random=False),
    )
    def test_evaluator_matches_the_sorting_evaluate(self, kind, operands, rng):
        """The once-resolved evaluators equal the old sort-first body
        on any operand order."""
        expected = legacy_evaluate(kind, list(operands))
        shuffled = list(operands)
        rng.shuffle(shuffled)
        assert ops.evaluator(kind)(shuffled) == expected
        assert ops.evaluate(kind, tuple(shuffled)) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        word=st.integers(-(2**64), 2**64),
        iteration=st.integers(-(2**40), 2**40),
    )
    def test_identity_values_equal_their_folds(self, word, iteration):
        """The unrolled identity functions equal ``fold`` over the
        one- or two-word lists they were defined by."""
        assert ops.initial_memory(word) == ops.fold(ops._MEMORY_SALT, [word])
        assert ops.invariant_value(word) == ops.fold(
            ops._INVARIANT_SALT, [word]
        )
        assert ops.initial_value(word, iteration) == ops.fold(
            ops._LIVE_IN_SALT, [word, iteration & 0xFFFF_FFFF]
        )


# ----------------------------------------------------------------------
# Reference interpreter
# ----------------------------------------------------------------------


class TestReference:
    def test_daxpy_store_values(self):
        """The store writes add(mul(x, a), y) of the same iteration."""
        graph = daxpy()
        run = run_reference(graph, 5)
        a = ops.invariant_value(graph.invariants()[0].id)
        for iteration in range(5):
            x = run.values[(0, iteration)]
            y = run.values[(1, iteration)]
            product = ops.evaluate(OpKind.MUL, [x, a])
            total = ops.evaluate(OpKind.ADD, [product, y])
            assert run.values[(3, iteration)] == total
            address = graph.node(4).mem_ref.address(iteration)
            assert run.memory[address] == total

    def test_loads_see_prior_stores(self):
        b = LoopBuilder("feedback", trip_count=10)
        x = b.load(array=0, stride=1)
        b.store(x, array=0, stride=1)  # same address stream
        graph = b.build()
        run = run_reference(graph, 3)
        # The load reads the untouched word first, the store writes it
        # back verbatim: memory must equal the initial contents.
        for iteration in range(3):
            address = graph.node(0).mem_ref.address(iteration)
            assert run.memory[address] == ops.initial_memory(address)

    def test_live_in_collapse(self):
        graph = reduction()  # acc -> acc at distance 1
        distinct = ReferenceInterpreter(graph).run(3)
        collapsed = ReferenceInterpreter(graph, live_in_moduli=1).run(3)
        # With distance 1 both conventions agree: iteration 0 reads the
        # producer's instance -1, which is its own collapse class.
        assert distinct.values == collapsed.values

    def test_zero_distance_cycle_rejected(self):
        from repro.errors import GraphError
        from repro.graph.ddg import DepKind, DependenceGraph

        graph = DependenceGraph("cyclic")
        a = graph.new_node(OpKind.ADD)
        b = graph.new_node(OpKind.ADD)
        graph.add_edge(a.id, b.id, kind=DepKind.REG, distance=0)
        graph.add_edge(b.id, a.id, kind=DepKind.REG, distance=0)
        with pytest.raises(GraphError):
            ReferenceInterpreter(graph)


# ----------------------------------------------------------------------
# VLIW simulator
# ----------------------------------------------------------------------


class TestSimulator:
    def test_useful_cycles_follow_the_formula(self):
        result = MirsC(UNIFIED).schedule(daxpy())
        run = simulate(result, 40)
        sim = run.result
        assert sim.useful_cycles == sim.ii * (
            sim.iterations + sim.stage_count - 1
        )

    def test_effective_iterations_round_up_to_kernel_passes(self):
        result = MirsC(UNIFIED).schedule(daxpy())
        code = generate_code(result)
        fill = code.stage_count - 1
        for requested in (1, fill + 1, 40):
            effective = effective_iterations(code, requested)
            assert effective >= max(requested, fill + code.mve_factor)
            assert (effective - fill) % code.mve_factor == 0
        with pytest.raises(ValueError):
            effective_iterations(code, 0)

    def test_instruction_counts(self):
        result = MirsC(UNIFIED).schedule(daxpy())
        run = simulate(result, 30)
        sim = run.result
        # Every operation executes once per iteration.
        operations = len(result.graph)
        assert sim.instructions == operations * sim.iterations
        assert sim.loads == 2 * sim.iterations
        assert sim.stores == sim.iterations

    def test_observed_stalls_respond_to_prefetching(self):
        """Binding-prefetched loads tolerate their misses by construction."""
        from repro.machine.technology import TechnologyModel
        from repro.memsim.prefetch import apply_binding_prefetch

        b = LoopBuilder("gather", trip_count=512)
        total = None
        for j in range(3):
            v = b.load(array=j, stride=16)  # 4 lines apart: misses often
            total = v if total is None else b.add(total, v)
        b.store(total, array=50)
        graph = b.build()

        technology = TechnologyModel()
        normal = MirsC(UNIFIED).schedule(graph.clone())
        stalls_normal = simulate(normal, 64).result.stall_cycles

        prefetched_graph = apply_binding_prefetch(graph, UNIFIED, technology)
        prefetched = MirsC(UNIFIED).schedule(prefetched_graph)
        stalls_prefetched = simulate(prefetched, 64).result.stall_cycles

        assert stalls_normal > 0
        assert stalls_prefetched < stalls_normal

    def test_two_runs_agree_on_result_and_end_state(self):
        result = MirsC(UNIFIED).schedule(daxpy())
        first = simulate(result, 25)
        second = simulate(result, 25)
        assert first.result == second.result
        assert first.values == second.values
        assert first.memory == second.memory
        assert first.registers == second.registers


# ----------------------------------------------------------------------
# Differential validation (the acceptance criterion)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=[UNIFIED, FOUR_CLUSTER_TIGHT],
                ids=lambda m: m.name)
def workbench_schedules(request):
    machine = request.param
    loops = cached_suite(16)
    scheduler = MirsC(machine)
    return [scheduler.schedule(loop.graph.clone()) for loop in loops]


class TestDifferential:
    def test_workbench_code_matches_reference(self, workbench_schedules):
        for result in workbench_schedules:
            report = run_differential(result, DIFF_ITERATIONS)
            assert report.match, report.summary()
            sim = report.simulation
            assert sim.useful_cycles == sim.ii * (
                sim.iterations + sim.stage_count - 1
            )
            assert sim.iterations >= DIFF_ITERATIONS

    def test_random_graphs_match(self):
        for seed in range(6):
            graph = random_graph(seed, size=9)
            result = MirsC(FOUR_CLUSTER_TIGHT).schedule(graph)
            report = run_differential(result, 13)
            assert report.match, report.summary()

    def test_mismatch_is_detected(self):
        """Corrupted code must not silently 'match' the reference."""
        import dataclasses

        result = MirsC(UNIFIED).schedule(daxpy())
        code = generate_code(result)
        all_names = sorted({ns[0] for ns in code.registers.values()})
        # Sabotage: rewire one kernel instruction's first register
        # operand to a different value's register — exactly the shape of
        # a renaming bug in the emitter.
        done = False
        for bundle in code.kernel:
            for index, inst in enumerate(bundle):
                sources = [s for s in inst.sources if not s.startswith("inv:")]
                if not sources:
                    continue
                wrong = next(n for n in all_names if n != sources[0])
                patched = tuple(
                    wrong if s == sources[0] else s for s in inst.sources
                )
                bundle[index] = dataclasses.replace(inst, sources=patched)
                done = True
                break
            if done:
                break
        assert done
        run = VliwSimulator(result, code=code).run(20)
        reference = ReferenceInterpreter(result.graph).run(
            run.result.iterations
        )
        assert run.values != reference.values


# ----------------------------------------------------------------------
# Compiled plans vs the per-instruction / per-node loops they replaced
# ----------------------------------------------------------------------


def assert_plans_match_oracles(result, iterations, cache_config=None):
    """Simulator and reference plans reproduce the old loops exactly:
    every value, memory word, register and SimulationResult field."""
    code = generate_code(result)
    new = VliwSimulator(result, code=code, cache_config=cache_config).run(
        iterations
    )
    old = LegacyVliwSimulator(
        result, code=code, cache_config=cache_config
    ).run(iterations)
    assert new.result == old.result, result.loop
    assert new.values == old.values, result.loop
    assert new.memory == old.memory, result.loop
    assert new.registers == old.registers, result.loop
    effective = new.result.iterations
    for moduli in (None, live_in_moduli_of_code(code)):
        plan = ReferenceInterpreter(result.graph, live_in_moduli=moduli)
        loop = LegacyReferenceInterpreter(result.graph, live_in_moduli=moduli)
        assert plan.run(effective) == loop.run(effective), result.loop
    return new


def every_operand_shape():
    """One loop with the rare operand shapes the plans special-case: an
    invariant spill load, a scratch load without a MemRef, a load with a
    register operand, a latency-override load, and missing loads (a
    stride of a whole cache line)."""
    b = LoopBuilder("shapes", trip_count=64)
    a = b.invariant("a")
    x = b.load(array=0, stride=8)
    prefetched = b.load(array=1, stride=8, latency_override=3)
    b.store(b.add(prefetched, a), array=5, stride=1)
    indexed = b.load(x, array=2, stride=1)
    total = b.add(x, indexed, a)
    b.store(total, array=3, stride=1)
    graph = b.build()
    inv = graph.invariants()[0]
    reload = graph.new_node(
        OpKind.LOAD,
        load_of_invariant=inv.id,
        is_spill=True,
        mem_ref=MemRef(array=9, stride=0),
    )
    scratch = graph.new_node(OpKind.LOAD)
    product = graph.new_node(OpKind.MUL)
    for producer in (reload, scratch, total):
        graph.add_edge(producer.id, product.id)
    store = graph.new_node(OpKind.STORE, mem_ref=MemRef(array=4, stride=1))
    graph.add_edge(product.id, store.id)
    graph.validate()
    return graph


def invariant_fanout():
    """Four invariants read across eight lanes: on a two-cluster machine
    with 16 registers per cluster the scheduler moves invariants between
    clusters instead of keeping a register for each in both."""
    b = LoopBuilder("fanout", trip_count=64)
    invariants = [b.invariant(f"k{i}") for i in range(4)]
    lanes = [
        b.mul(b.load(array=j), invariants[j % 4], invariants[(j + 1) % 4])
        for j in range(8)
    ]
    total = lanes[0]
    for lane in lanes[1:]:
        total = b.add(total, lane)
    b.store(total, array=50)
    return b.build()


class TestPlanOracle:
    def test_workbench(self, workbench_schedules):
        for result in workbench_schedules:
            assert_plans_match_oracles(result, DIFF_ITERATIONS)

    @pytest.mark.parametrize("machine", (UNIFIED, FOUR_CLUSTER),
                             ids=lambda m: m.name)
    def test_corpus(self, machine):
        scheduler = ScheduleRequest().make_scheduler(machine)
        for lowered in load_corpus():
            result = scheduler.schedule(lowered.graph.clone())
            assert_plans_match_oracles(result, DIFF_ITERATIONS)

    def test_random_graphs(self):
        for seed in range(6):
            result = MirsC(FOUR_CLUSTER_TIGHT).schedule(
                random_graph(seed, size=9)
            )
            assert_plans_match_oracles(result, 13)

    @pytest.mark.parametrize("machine", (UNIFIED, TWO_CLUSTER),
                             ids=lambda m: m.name)
    def test_every_operand_shape(self, machine):
        result = MirsC(machine).schedule(every_operand_shape())
        graph = result.graph
        loads = [node for node in graph.nodes() if node.kind is OpKind.LOAD]
        assert any(node.load_of_invariant is not None for node in loads)
        assert any(node.latency_override is not None for node in loads)
        assert any(node.mem_ref is None for node in loads)
        assert any(graph.reg_producers(node.id) for node in loads)
        relaxed = assert_plans_match_oracles(result, DIFF_ITERATIONS)
        # One MSHR: a miss issued while another is outstanding blocks.
        blocked = assert_plans_match_oracles(
            result, DIFF_ITERATIONS, CacheConfig(mshrs=1)
        )
        assert blocked.result.stall_cycles > relaxed.result.stall_cycles
        assert run_differential(
            result, DIFF_ITERATIONS, cache_config=CacheConfig(mshrs=1),
            cache=False,
        ).match

    def test_invariant_moves(self):
        machine = parse_config("2-(GP4M2-REG16)")
        result = MirsC(machine).schedule(invariant_fanout())
        assert any(
            node.move_of_invariant is not None for node in result.graph.nodes()
        )
        assert_plans_match_oracles(result, DIFF_ITERATIONS)
        assert run_differential(result, DIFF_ITERATIONS, cache=False).match

    def test_undefined_register_raises_at_run_time(self):
        import dataclasses

        result = MirsC(UNIFIED).schedule(daxpy())
        code = generate_code(result)
        inst = code.kernel[0][0]
        code.kernel[0][0] = dataclasses.replace(
            inst, sources=inst.sources + ("c0:r999",)
        )
        simulator = VliwSimulator(result, code=code)
        with pytest.raises(SimulationError, match="r999.*nothing defines"):
            simulator.run(8)

    def test_unknown_invariant_raises(self):
        import dataclasses

        result = MirsC(UNIFIED).schedule(daxpy())
        code = generate_code(result)
        inst = code.kernel[0][0]
        code.kernel[0][0] = dataclasses.replace(
            inst, sources=inst.sources + ("inv:nowhere",)
        )
        with pytest.raises(
            SimulationError, match="unknown invariant operand 'inv:nowhere'"
        ):
            VliwSimulator(result, code=code).run(8)


# ----------------------------------------------------------------------
# The emitter vs the per-instance emitter it replaced
# ----------------------------------------------------------------------


def assert_emission_matches_oracle(result):
    """generate_code emits exactly what the per-instance emitter did:
    every bundle, the listing and the register map."""
    new = generate_code(result)
    old = legacy_generate_code(result)
    assert new.render() == old.render(), result.loop
    assert new.registers == old.registers, result.loop
    assert (new.prologue, new.kernel, new.epilogue) == (
        old.prologue, old.kernel, old.epilogue
    ), result.loop
    return new


class TestEmitterOracle:
    def test_workbench(self, workbench_schedules):
        for result in workbench_schedules:
            if result.converged:
                assert_emission_matches_oracle(result)

    @pytest.mark.parametrize("machine", (UNIFIED, FOUR_CLUSTER),
                             ids=lambda m: m.name)
    def test_corpus(self, machine):
        scheduler = ScheduleRequest().make_scheduler(machine)
        for lowered in load_corpus():
            assert_emission_matches_oracle(
                scheduler.schedule(lowered.graph.clone())
            )

    def test_random_graphs(self):
        for seed in range(6):
            assert_emission_matches_oracle(
                MirsC(FOUR_CLUSTER_TIGHT).schedule(random_graph(seed, size=9))
            )

    def test_spills_and_invariant_moves(self):
        stencil = next(
            loop for loop in cached_suite(16) if loop.graph.name == "stencil629"
        )
        result = MirsC(FOUR_CLUSTER_TIGHT).schedule(stencil.graph.clone())
        nodes = list(result.graph.nodes())
        assert any(node.is_spill for node in nodes)
        assert any(node.move_of_invariant is not None for node in nodes)
        code = assert_emission_matches_oracle(result)
        assert code.mve_factor > 1 and code.stage_count > 1

    def test_instances_are_shared_across_sections(self):
        """One instruction object per (node, copy), whatever section
        issues it."""
        result = MirsC(UNIFIED).schedule(daxpy())
        code = generate_code(result)
        assert code.stage_count > 1
        instances = {}
        for inst in code.all_instructions():
            assert instances.setdefault((inst.node, inst.copy), inst) is inst
        assert len(instances) == len(result.times) * code.mve_factor


class TestStateMismatches:
    def test_memory_keeps_its_own_cap_behind_many_value_mismatches(self):
        expected = {(0, i): i for i in range(20)}
        actual = {(0, i): i + 1 for i in range(20)}
        lines = state_mismatches(
            actual, {64: 1}, expected, {64: 2}, {0: "x"}
        )
        assert len(lines) == MAX_REPORTED + 2
        assert lines[0] == "value of x @ iteration 0: code=1 reference=0"
        assert lines[MAX_REPORTED] == "memory[0x40]: code=1 reference=2"
        assert lines[-1] == f"... and {20 - MAX_REPORTED} further mismatches"

    def test_equal_states_report_nothing(self):
        state = {(1, 0): 5}
        assert state_mismatches(state, {8: 1}, dict(state), {8: 1}, {}) == []


# ----------------------------------------------------------------------
# Cached / batched simulation
# ----------------------------------------------------------------------


class TestRunner:
    def test_run_differential_uses_cache(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        result = MirsC(UNIFIED).schedule(daxpy())
        first = run_differential(result, 20, cache=cache)
        assert first.match
        assert len(cache) == 1

        # Warm rerun must not execute anything.
        import repro.sim.differential as differential_module

        class Boom:
            def __init__(self, *args, **kwargs):
                raise AssertionError("simulated on a warm cache")

        monkeypatch.setattr(differential_module, "VliwSimulator", Boom)
        assert run_differential(result, 20, cache=cache) == first

    def test_cache_key_sensitivity(self):
        result = MirsC(UNIFIED).schedule(daxpy())
        key_20 = simulation_cache_key(result, 20)
        key_21 = simulation_cache_key(result, 21)
        assert key_20 != key_21
        assert key_20 == simulation_cache_key(result, 20)


class TestSurplusIterations:
    """Simulation-time reporting of non-dividing unroll semantics."""

    def _unrolled_schedule(self, factor, trip_count):
        import warnings

        from repro.workloads.unroll import unroll

        b = LoopBuilder("nondiv", trip_count=trip_count)
        b.store(b.add(b.load(array=0)), array=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            graph = unroll(b.build(), factor)
        return MirsC(UNIFIED).schedule(graph)

    def test_non_dividing_unroll_reports_surplus(self):
        # trip 10, factor 3 -> unrolled trip 4 covers 12 source
        # iterations: 2 surplus.
        schedule = self._unrolled_schedule(3, 10)
        graph = schedule.graph
        assert graph.unroll_factor == 3
        assert graph.source_trip_count == 10
        run = simulate(schedule, graph.trip_count)
        assert run.result.unroll_factor == 3
        assert run.result.surplus_iterations == 2
        assert "surplus source iteration" in run.result.summary()

    def test_dividing_unroll_reports_none(self):
        schedule = self._unrolled_schedule(2, 10)
        run = simulate(schedule, schedule.graph.trip_count)
        assert run.result.unroll_factor == 2
        assert run.result.surplus_iterations == 0
        assert "surplus source iteration" not in run.result.summary()

    def test_partial_run_reports_none(self):
        # Below the loop's trip count the surplus is not executed.
        schedule = self._unrolled_schedule(3, 1000)
        run = simulate(schedule, 6)
        assert run.result.surplus_iterations == 0

    def test_clone_and_pickle_preserve_source_trip(self):
        import pickle

        from repro.workloads.unroll import unroll

        b = LoopBuilder("keep", trip_count=9)
        b.store(b.add(b.load(array=0)), array=1)
        with pytest.warns(UserWarning):
            graph = unroll(b.build(), 2)
        assert graph.source_trip_count == 9
        assert graph.clone().source_trip_count == 9
        assert pickle.loads(pickle.dumps(graph)).source_trip_count == 9
        # A second (dividing) unroll composes the factor, keeps the source.
        again = unroll(graph, 5)
        assert again.unroll_factor == 10
        assert again.source_trip_count == 9
