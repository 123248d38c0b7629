"""Tests for VLIW code generation (prologue / kernel / epilogue + MVE)."""

import dataclasses

import pytest

from repro import LoopBuilder, MirsC, parse_config
from repro.codegen import generate_code, modulo_variable_expansion_factor
from repro.graph.ddg import DepKind

from tests.helpers import UNIFIED, daxpy, random_graph


def instance_counts(bundles):
    counts = {}
    for bundle in bundles:
        for inst in bundle:
            counts[inst.node] = counts.get(inst.node, 0) + 1
    return counts


def assert_fill_drain_invariant(result, code):
    """A stage-s op appears SC-1-s times in the prologue, once per
    kernel copy, and s times in the epilogue."""
    low = min(result.times.values())
    pro = instance_counts(code.prologue)
    ker = instance_counts(code.kernel)
    epi = instance_counts(code.epilogue)
    for node_id, cycle in result.times.items():
        stage = (cycle - low) // result.ii
        assert pro.get(node_id, 0) == code.stage_count - 1 - stage
        assert ker.get(node_id, 0) == code.mve_factor
        assert epi.get(node_id, 0) == stage


@pytest.fixture
def daxpy_code():
    result = MirsC(UNIFIED).schedule(daxpy())
    return result, generate_code(result)


class TestStructure:
    def test_kernel_length(self, daxpy_code):
        result, code = daxpy_code
        assert len(code.kernel) == result.ii * code.mve_factor
        assert code.kernel_cycles == result.ii * code.mve_factor

    def test_prologue_epilogue_lengths(self, daxpy_code):
        result, code = daxpy_code
        fill = result.ii * (code.stage_count - 1)
        assert len(code.prologue) == fill
        assert len(code.epilogue) == fill

    def test_every_node_once_per_kernel_copy(self, daxpy_code):
        result, code = daxpy_code
        counts = {}
        for bundle in code.kernel:
            for inst in bundle:
                counts[inst.node] = counts.get(inst.node, 0) + 1
        for node in result.graph.nodes():
            assert counts[node.id] == code.mve_factor

    def test_fill_drain_invariant(self, daxpy_code):
        """A stage-s op appears SC-1-s times in the prologue and s times
        in the epilogue."""
        result, code = daxpy_code
        sc = code.stage_count
        stage_of = {}
        low = min(result.times.values())
        for node_id, cycle in result.times.items():
            stage_of[node_id] = (cycle - low) // result.ii
        pro = {}
        for bundle in code.prologue:
            for inst in bundle:
                pro[inst.node] = pro.get(inst.node, 0) + 1
        epi = {}
        for bundle in code.epilogue:
            for inst in bundle:
                epi[inst.node] = epi.get(inst.node, 0) + 1
        for node_id, stage in stage_of.items():
            assert pro.get(node_id, 0) == sc - 1 - stage
            assert epi.get(node_id, 0) == stage

    def test_render_is_complete(self, daxpy_code):
        _, code = daxpy_code
        text = code.render()
        assert "prologue:" in text
        assert "kernel:" in text
        assert "epilogue:" in text
        assert "II=" in text


class TestMVE:
    def test_short_lifetimes_need_no_expansion(self):
        b = LoopBuilder("short")
        x = b.load(array=0)
        b.store(x, array=1)
        graph = b.build()
        result = MirsC(UNIFIED).schedule(graph)
        if all(
            lt <= result.ii
            for lt in (result.times[1] - result.times[0],)
        ):
            assert modulo_variable_expansion_factor(result) >= 1

    def test_expansion_matches_longest_lifetime(self):
        # DAXPY at II=1 overlaps many iterations: K = longest lifetime.
        result = MirsC(UNIFIED).schedule(daxpy())
        factor = modulo_variable_expansion_factor(result)
        assert factor >= 2  # 4-cycle latencies at II=1 overlap deeply
        code = generate_code(result)
        assert code.mve_factor == factor

    def test_expanded_values_get_renamed_registers(self):
        result = MirsC(UNIFIED).schedule(daxpy())
        code = generate_code(result)
        if code.mve_factor > 1:
            names = {
                inst.dest
                for inst in code.all_instructions()
                if inst.dest and ".k" in inst.dest
            }
            assert names, "expanded registers must carry copy suffixes"

    def test_rejects_unconverged(self):
        from repro.core.result import ScheduleResult
        from repro.errors import CodegenError

        bogus = ScheduleResult(
            loop="x", machine=UNIFIED, converged=False, ii=1, mii=1
        )
        # Still a ValueError (backward compatibility), but typed: batch
        # drivers read the loop and failure kind off the exception.
        with pytest.raises(ValueError) as excinfo:
            generate_code(bogus)
        assert isinstance(excinfo.value, CodegenError)
        assert excinfo.value.loop == "x"
        assert excinfo.value.kind == "not-converged"

    def test_rejects_register_infeasible(self):
        """A 'converged' schedule whose allocation cannot fit the
        register file must raise instead of emitting clobbered code."""
        from repro.errors import CodegenError

        result = MirsC(UNIFIED).schedule(daxpy())
        starved = dataclasses.replace(
            result, machine=UNIFIED.with_registers(1)
        )
        with pytest.raises(ValueError, match="register-infeasible") as excinfo:
            generate_code(starved)
        assert isinstance(excinfo.value, CodegenError)
        assert excinfo.value.loop == result.loop
        assert excinfo.value.kind == "register-infeasible"


class TestDeepExpansion:
    """Instance-count and renaming invariants at MVE factors >= 3."""

    @pytest.fixture(scope="class")
    def deep_code(self):
        # DAXPY at II=1 on the unified machine overlaps 4-cycle
        # latencies deeply: the MVE factor lands well above 3.
        result = MirsC(UNIFIED).schedule(daxpy())
        code = generate_code(result)
        assert code.mve_factor >= 3, "fixture must exercise deep MVE"
        return result, code

    def test_fill_drain_invariant_at_deep_mve(self, deep_code):
        result, code = deep_code
        assert_fill_drain_invariant(result, code)

    def test_copy_labels_agree_across_pipeline_boundaries(self, deep_code):
        """For every REG edge and iteration, the consumer reads exactly
        the copy its producer's instance was labeled with — including
        across the prologue/kernel and kernel/epilogue boundaries (a
        shift bug here emits reads of never-written renamed registers
        whenever (SC-1) % MVE != 0)."""
        result, code = deep_code
        ii, sc, mve = code.ii, code.stage_count, code.mve_factor
        assert (sc - 1) % mve != 0, "fixture must cross-label boundaries"
        label = {}

        def scan(bundles, base_block):
            for cycle, bundle in enumerate(bundles):
                block = base_block + cycle // ii
                for inst in bundle:
                    label[(inst.node, block - inst.stage)] = inst.copy

        scan(code.prologue, 0)
        scan(code.kernel, sc - 1)           # first kernel pass
        scan(code.kernel, sc - 1 + mve)     # second pass, same bundles
        scan(code.epilogue, sc - 1 + 2 * mve)
        checked = 0
        for edge in result.graph.edges():
            if edge.kind is not DepKind.REG:
                continue
            for (node, iteration), copy in label.items():
                if node != edge.dst:
                    continue
                producer = (edge.src, iteration - edge.distance)
                if producer not in label:
                    continue
                assert label[producer] == (copy - edge.distance) % mve
                checked += 1
        assert checked > 0


class TestDegenerateLoops:
    def test_store_only_loop(self):
        """A loop that only stores invariants emits valid code."""
        b = LoopBuilder("store_only", trip_count=64)
        value = b.invariant("v")
        b.store(value, array=0)
        b.store(value, array=1, stride=2)
        result = MirsC(UNIFIED).schedule(b.build())
        code = generate_code(result)
        assert_fill_drain_invariant(result, code)
        instructions = code.all_instructions()
        assert instructions
        assert all(inst.dest is None for inst in instructions)
        assert all(
            source.startswith("inv:")
            for inst in instructions
            for source in inst.sources
        )

    def test_invariant_only_loop(self):
        """Compute over invariants only: no loads, no loop-carried state."""
        b = LoopBuilder("inv_only", trip_count=64)
        a = b.invariant("a")
        c = b.invariant("c")
        total = b.add(b.mul(a, c), a)
        b.store(total, array=0)
        result = MirsC(UNIFIED).schedule(b.build())
        code = generate_code(result)
        assert_fill_drain_invariant(result, code)
        sources = {
            s for inst in code.all_instructions() for s in inst.sources
        }
        assert "inv:a" in sources and "inv:c" in sources


class TestRegisterNaming:
    def test_operands_reference_defined_registers(self, daxpy_code):
        result, code = daxpy_code
        defined = {
            inst.dest for inst in code.all_instructions() if inst.dest
        }
        for inst in code.all_instructions():
            for source in inst.sources:
                if source.startswith("inv:"):
                    continue
                base = source
                assert base in defined or base.split(".k")[0] in {
                    d.split(".k")[0] for d in defined
                }

    def test_invariant_operands_named(self, daxpy_code):
        _, code = daxpy_code
        sources = {
            s for inst in code.all_instructions() for s in inst.sources
        }
        assert any(s.startswith("inv:") for s in sources)

    def test_clustered_codegen(self):
        machine = parse_config("2-(GP4M2-REG32)")
        result = MirsC(machine).schedule(daxpy())
        code = generate_code(result)
        clusters = {inst.cluster for inst in code.all_instructions()}
        assert clusters <= {0, 1}
        moves = [
            inst for inst in code.all_instructions()
            if inst.mnemonic == "move"
        ]
        assert len(moves) == result.move_operations * (
            code.mve_factor + code.stage_count - 1
        ) or result.move_operations == 0 or moves

    def test_codegen_on_random_graphs(self):
        for seed in range(5):
            graph = random_graph(seed, size=8)
            result = MirsC(UNIFIED).schedule(graph)
            code = generate_code(result)
            # Conservation: every op appears SC-1 times in fill+drain.
            pro_epi = {}
            for bundle in code.prologue + code.epilogue:
                for inst in bundle:
                    pro_epi[inst.node] = pro_epi.get(inst.node, 0) + 1
            for node in graph.nodes():
                assert pro_epi.get(node.id, 0) == code.stage_count - 1


class TestUnpipelinedPacking:
    def test_divheavy_schedule_emits_certifies_and_simulates(self):
        """Regression: emission used to re-reserve the MRT in node-id
        order, and first-fit instance choice for unpipelined divides is
        order-dependent, so this verified schedule raised "resource
        conflict placing node 45".  The whole pipeline must hold:
        schedule -> emit -> certify -> bit-for-bit differential."""
        from repro.analysis import certify_code
        from repro.sim import run_differential
        from repro.workloads.perfect import SUITE_SIZE, build_loop

        loop = build_loop(1088, SUITE_SIZE, 2001)
        result = MirsC(UNIFIED).schedule(loop.graph)
        assert result.loop == "divheavy1088"
        code = generate_code(result)
        report = certify_code(code, result)
        assert report.ok, report.summary()
        assert run_differential(result, iterations=64).match
