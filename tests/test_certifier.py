"""Tests for the static code certifier (repro.analysis).

Two acceptance criteria anchor this file:

* **Soundness on legal code** — every pipeline the scheduler emits for
  the 16-loop workbench, on both reference machines, must certify with
  zero violations;
* **Completeness on seeded bugs** — re-introducing each historical
  emitter bug (the MVE copy-label shift, a register-renaming collision,
  a cross-cluster move collapse) and classic bundle-level illegalities
  (resource overfill, write-write collision, replication breakage) must
  be *rejected statically*, each with the expected violation kind,
  without ever running the simulator.
"""

import dataclasses
import re

import pytest

from repro import MirsC, certify_code, certify_schedule
from repro.analysis import BundleCFG, CertifierReport, ViolationKind
from repro.analysis.cfg import register_cluster, split_sources
from repro.codegen import generate_code
from repro.codegen.emitter import CERTIFY_ENV, GeneratedCode
from repro.core.params import MirsParams, SmtParams
from repro.core.request import ScheduleRequest
from repro.errors import CertificationError, CodegenError
from repro.frontend.corpus import load_corpus
from repro.graph.ddg import DepKind
from repro.obs import RecordingTracer
from repro.workloads.perfect import SUITE_SIZE, build_loop, cached_suite
from repro.workloads.stress import stress_suite

from tests.helpers import (
    FOUR_CLUSTER,
    FOUR_CLUSTER_TIGHT,
    UNIFIED,
    daxpy,
    legacy_certify_code,
    reduction,
)


def certify(code: GeneratedCode, result) -> CertifierReport:
    """``certify_code``, asserted equal field for field to the certifier
    that ran its static checks on every visit."""
    report = certify_code(code, result)
    assert report == legacy_certify_code(code, result), result.loop
    return report


# ----------------------------------------------------------------------
# Sabotage helpers: each returns a mutated *copy* of the emitted code,
# reproducing one historical (or representative) emitter bug.
# ----------------------------------------------------------------------


def _map_names(code: GeneratedCode, rename, sections=("prologue", "kernel",
                                                      "epilogue")):
    """Rebuild ``code`` with every register name passed through ``rename``."""

    def patch(bundles):
        return [
            [
                dataclasses.replace(
                    inst,
                    dest=rename(inst.dest) if inst.dest else None,
                    sources=tuple(sorted(rename(s) for s in inst.sources)),
                )
                for inst in bundle
            ]
            for bundle in bundles
        ]

    fields = {
        section: patch(getattr(code, section))
        if section in sections
        else [list(b) for b in getattr(code, section)]
        for section in ("prologue", "kernel", "epilogue")
    }
    return dataclasses.replace(code, **fields)


def drop_copy_label_shift(code: GeneratedCode) -> GeneratedCode:
    """PR-2 bug #1: kernel copy labels without the SC-1 shift.

    Relabeling copy ``k`` to ``(k - (SC-1)) % MVE`` in the kernel and
    epilogue is exactly what emitting ``(copy - stage) % mve`` instead
    of ``(copy - stage + SC-1) % mve`` produces: the kernel reads
    renamed registers the prologue never wrote.
    """
    sc, mve = code.stage_count, code.mve_factor

    def rename(name: str) -> str:
        return re.sub(
            r"\.k(\d+)",
            lambda m: f".k{(int(m.group(1)) - (sc - 1)) % mve}",
            name,
        )

    return _map_names(code, rename, sections=("kernel", "epilogue"))


def collide_renamed_registers(code: GeneratedCode) -> GeneratedCode:
    """PR-2 bug #2: two expanded values based on one architectural name.

    Every ``.k`` copy of the second expanded value is rebased onto the
    first expanded value's base register, so their renamed copies
    collide name-for-name.
    """
    expanded = [
        value
        for value, names in sorted(code.registers.items())
        if len(set(names)) > 1
    ]
    assert len(expanded) >= 2, "fixture needs two modulo-expanded values"
    base_keep = code.registers[expanded[0]][0].partition(".")[0]
    base_lose = code.registers[expanded[1]][0].partition(".")[0]

    def rename(name: str) -> str:
        head, dot, tail = name.partition(".")
        if head == base_lose and dot:
            return base_keep + dot + tail
        return name

    mutated = _map_names(code, rename)
    mutated.registers = {
        value: [rename(name) for name in names]
        for value, names in code.registers.items()
    }
    return mutated


def collapse_move_source(code: GeneratedCode) -> GeneratedCode:
    """PR-5 bug shape: a move consumer bypasses the emitted move.

    The first instruction reading a move's destination is rewired to
    read the move's *source* register instead - a cross-cluster read
    without interconnect.
    """
    moves = {
        inst.dest: inst
        for bundle in code.kernel
        for inst in bundle
        if inst.mnemonic == "move" and inst.dest is not None
    }
    assert moves, "fixture needs an inter-cluster move in the kernel"

    def patch(bundles):
        done = False
        out = []
        for bundle in bundles:
            patched = []
            for inst in bundle:
                if not done and inst.mnemonic != "move":
                    registers, _ = split_sources(inst.sources)
                    hit = next((r for r in registers if r in moves), None)
                    if hit is not None:
                        move = moves[hit]
                        move_src = split_sources(move.sources)[0][0]
                        sources = tuple(
                            sorted(
                                move_src if s == hit else s
                                for s in inst.sources
                            )
                        )
                        inst = dataclasses.replace(inst, sources=sources)
                        done = True
                patched.append(inst)
            out.append(patched)
        assert done, "fixture needs a same-kernel move consumer"
        return out

    return dataclasses.replace(code, kernel=patch(code.kernel))


def overfill_bundle(code: GeneratedCode) -> GeneratedCode:
    """Pile every kernel compute instruction into one bundle.

    The relocated instructions keep their register names, so dataflow
    still resolves; only the per-cycle resource usage becomes illegal.
    """
    kernel = [list(b) for b in code.kernel]
    computes = [
        (index, inst)
        for index, bundle in enumerate(kernel)
        for inst in bundle
        if inst.mnemonic in ("add", "mul", "div", "sqrt")
    ]
    assert len(computes) >= 2, "fixture needs compute operations"
    target = computes[0][0]
    for index, inst in computes[1:]:
        kernel[index] = [i for i in kernel[index] if i is not inst]
        kernel[target] = kernel[target] + [inst]
    return dataclasses.replace(code, kernel=kernel)


SABOTAGES = [
    pytest.param(
        drop_copy_label_shift, ViolationKind.STALE_LIVE_IN,
        id="drop-copy-label-shift",
    ),
    pytest.param(
        collide_renamed_registers, ViolationKind.WRONG_PRODUCER,
        id="collide-renamed-register",
    ),
    pytest.param(
        collapse_move_source, ViolationKind.CROSS_CLUSTER,
        id="collapse-move-source",
    ),
    pytest.param(
        overfill_bundle, ViolationKind.RESOURCE,
        id="overfill-bundle-resources",
    ),
]


# ----------------------------------------------------------------------
# Clean code certifies
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=[UNIFIED, FOUR_CLUSTER_TIGHT],
                ids=lambda m: m.name)
def workbench_reports(request):
    machine = request.param
    loops = cached_suite(16)
    scheduler = MirsC(machine)
    reports = []
    for loop in loops:
        result = scheduler.schedule(loop.graph.clone())
        reports.append(certify(generate_code(result), result))
    return reports


class TestCleanWorkbench:
    def test_zero_violations_on_both_machines(self, workbench_reports):
        for report in workbench_reports:
            assert report.ok, report.summary()

    def test_reports_carry_work_evidence(self, workbench_reports):
        for report in workbench_reports:
            assert report.reads_checked > 0
            assert report.bundles_checked > 0
            assert report.passes_checked >= 1
            assert report.mve_factor >= 1

    def test_fixpoint_converges_fast(self, workbench_reports):
        """Legal pipelines stabilize within a couple of kernel passes -
        the cost model the <5%-of-differential gate relies on."""
        for report in workbench_reports:
            assert report.passes_checked <= 3, report.summary()


# ----------------------------------------------------------------------
# The certifier equals its every-visit oracle on the benchmark's pairs
# ----------------------------------------------------------------------


def _perfbench_schedules(held_out: bool):
    """Every pair of ``perfbench/harness.py``'s four workloads at one of
    their two population seeds, scheduled as its pipeline schedules
    them (serial search, native exact engine)."""
    def request(scheduler: str, search: str) -> ScheduleRequest:
        params = MirsParams(
            ii_search=search, speculation=1, smt=SmtParams(engine="native")
        )
        return ScheduleRequest(scheduler=scheduler, params=params, trace=False)

    workbench_seed, stress_seed = (2002, 7002) if held_out else (2001, 7001)
    indices = [int(i * SUITE_SIZE / 16) for i in range(16)]
    workbench = [
        build_loop(index, SUITE_SIZE, workbench_seed).graph for index in indices
    ]
    pairs = [
        (request("mirsc", "linear"), machine, graph)
        for graph in workbench
        for machine in (UNIFIED, FOUR_CLUSTER)
    ]
    pairs += [
        (request("mirsc", "linear"), machine, kernel.graph)
        for kernel in load_corpus()
        for machine in (UNIFIED, FOUR_CLUSTER)
    ]
    pairs += [
        (request("mirsc", "geometric"), UNIFIED, graph)
        for graph in stress_suite(10, stress_seed)
        if len(graph) <= 250
    ]
    pairs += [
        (request("smt", "linear"), UNIFIED, graph)
        for graph in [kernel.graph for kernel in load_corpus()] + workbench
        if len(graph) <= 40
    ]
    for req, machine, graph in pairs:
        result = req.make_scheduler(machine, strict=False).schedule(graph.clone())
        if result.converged:
            yield result


class TestEveryVisitOracle:
    @pytest.mark.parametrize("held_out", (False, True),
                             ids=("population", "held-out"))
    def test_perfbench_pairs(self, held_out):
        certified = 0
        for result in _perfbench_schedules(held_out):
            assert certify(generate_code(result), result).ok, result.loop
            certified += 1
        assert certified >= 80


class TestConvenienceApi:
    def test_certify_schedule_emits_and_certifies(self):
        result = MirsC(UNIFIED).schedule(daxpy())
        report = certify_schedule(result)
        assert report.ok
        assert report.loop == result.loop

    def test_report_round_trips_to_dict(self):
        result = MirsC(UNIFIED).schedule(reduction())
        report = certify_schedule(result)
        payload = report.as_dict()
        assert payload["violations"] == []
        assert payload["loop"] == report.loop
        assert payload["reads_checked"] == report.reads_checked

    def test_trace_records_certify_span(self):
        tracer = RecordingTracer()
        result = MirsC(UNIFIED).schedule(reduction())
        certify_schedule(result, trace=tracer)
        spans = [e for e in tracer.events if e.name == "certify"]
        assert len(spans) == 1
        assert spans[0].args["ok"] is True


# ----------------------------------------------------------------------
# Sabotaged code is rejected with the right kind
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def deep_schedule():
    """DAXPY on the unified machine: deep MVE with (SC-1) % MVE != 0,
    so every copy-label convention actually matters."""
    result = MirsC(UNIFIED).schedule(daxpy())
    code = generate_code(result)
    assert code.mve_factor >= 3
    assert (code.stage_count - 1) % code.mve_factor != 0
    return result, code


@pytest.fixture(scope="module")
def clustered_schedule():
    """A clustered schedule with at least one inter-cluster move."""
    loops = cached_suite(16)
    scheduler = MirsC(FOUR_CLUSTER_TIGHT)
    for loop in loops:
        result = scheduler.schedule(loop.graph.clone())
        if not result.converged:
            continue
        code = generate_code(result)
        if any(
            inst.mnemonic == "move"
            for bundle in code.kernel
            for inst in bundle
        ):
            return result, code
    pytest.skip("no workbench loop produced an inter-cluster move")


class TestSabotage:
    @pytest.mark.parametrize("mutate,expected_kind", SABOTAGES)
    def test_mutation_is_rejected_with_kind(
        self, mutate, expected_kind, deep_schedule, clustered_schedule
    ):
        # Cross-cluster sabotage needs a clustered machine; the others
        # exercise the deep-MVE unified pipeline.
        result, code = (
            clustered_schedule
            if mutate is collapse_move_source
            else deep_schedule
        )
        clean = certify(code, result)
        assert clean.ok, clean.summary()
        mutated = mutate(code)
        report = certify(mutated, result)
        assert not report.ok
        assert expected_kind in report.kinds(), report.summary()

    def test_write_write_collision_is_detected(self, deep_schedule):
        result, code = deep_schedule
        kernel = [list(b) for b in code.kernel]
        victim = next(
            (index, inst)
            for index, bundle in enumerate(kernel)
            for inst in bundle
            if inst.dest is not None
        )
        index, inst = victim
        kernel[index] = kernel[index] + [inst]
        bad = dataclasses.replace(code, kernel=kernel)
        report = certify(bad, result)
        assert ViolationKind.WRITE_WRITE in report.kinds(), report.summary()

    def test_dropped_instruction_breaks_replication(self, deep_schedule):
        result, code = deep_schedule
        kernel = [list(b) for b in code.kernel]
        removed = None
        for index, bundle in enumerate(kernel):
            if bundle:
                removed = bundle[0]
                kernel[index] = bundle[1:]
                break
        assert removed is not None
        bad = dataclasses.replace(code, kernel=kernel)
        report = certify(bad, result)
        assert ViolationKind.REPLICATION in report.kinds(), report.summary()
        assert any(
            v.operation == removed.node
            for v in report.violations
            if v.kind is ViolationKind.REPLICATION
        )

    def test_undefined_register_read(self, deep_schedule):
        result, code = deep_schedule

        def rename(name: str) -> str:
            return name.replace("r0.", "r999.")

        bad = _map_names(code, rename, sections=("kernel",))
        report = certify(bad, result)
        assert not report.ok
        assert report.kinds() & {
            ViolationKind.UNDEFINED_READ,
            ViolationKind.STALE_LIVE_IN,
            ViolationKind.WRONG_PRODUCER,
        }

    def test_slower_machine_breaks_register_latencies(self, deep_schedule):
        """The same code on a machine whose operations take longer:
        every tight producer->consumer read becomes a LATENCY violation
        at the reading register."""
        result, code = deep_schedule
        machine = result.machine
        slower = dataclasses.replace(
            machine,
            latencies={kind: lat + 8 for kind, lat in machine.latencies.items()},
        )
        report = certify(code, dataclasses.replace(result, machine=slower))
        reads = [
            v for v in report.violations
            if v.kind is ViolationKind.LATENCY and v.register is not None
        ]
        assert reads, report.summary()
        assert "latency is" in reads[0].detail

    def test_memory_ordering_latency_is_checked(self, deep_schedule):
        """A memory dependence longer than the issue distance of its two
        operations is a LATENCY violation (no register involved)."""
        result, code = deep_schedule
        order = sorted(result.times, key=result.times.get)
        first, second = order[0], order[-1]
        gap = result.times[second] - result.times[first]
        assert gap > 0
        graph = result.graph.clone()
        graph.add_edge(first, second, kind=DepKind.MEM, latency=gap + 1)
        report = certify(code, dataclasses.replace(result, graph=graph))
        ordering = [
            v for v in report.violations
            if v.kind is ViolationKind.LATENCY and v.register is None
        ]
        assert ordering, report.summary()
        assert all(v.operation == second for v in ordering)
        assert f"mem dependence {first}->{second}" in ordering[0].detail

    def test_foreign_destination_is_cross_cluster(self, clustered_schedule):
        """An instruction writing another cluster's register file."""
        result, code = clustered_schedule
        kernel = [list(b) for b in code.kernel]
        index, position, inst = next(
            (index, position, inst)
            for index, bundle in enumerate(kernel)
            for position, inst in enumerate(bundle)
            if inst.dest is not None and inst.mnemonic != "move"
        )
        foreign = (inst.cluster + 1) % result.machine.clusters
        dest = f"c{foreign}:" + inst.dest.partition(":")[2]
        kernel[index][position] = dataclasses.replace(inst, dest=dest)
        report = certify(dataclasses.replace(code, kernel=kernel), result)
        assert any(
            v.kind is ViolationKind.CROSS_CLUSTER and v.register == dest
            for v in report.violations
        ), report.summary()

    def test_resources_follow_each_instance_cluster(self, clustered_schedule):
        """Resource usage is charged to the cluster the *code* names for
        each instance: three copies of one operation relabelled onto
        another cluster overfill that cluster's two units."""
        result, code = clustered_schedule
        kernel = [list(b) for b in code.kernel]
        index, inst = next(
            (index, inst)
            for index, bundle in enumerate(kernel)
            for inst in bundle
            if inst.mnemonic in ("add", "mul")
        )
        foreign = (inst.cluster + 1) % result.machine.clusters
        kernel[index] += [dataclasses.replace(inst, cluster=foreign)] * 3
        report = certify(dataclasses.replace(code, kernel=kernel), result)
        assert any(
            v.kind is ViolationKind.RESOURCE and f"of cluster {foreign} " in v.detail
            for v in report.violations
        ), report.summary()

    @pytest.mark.parametrize("mutation", (
        "malformed-source", "extra-source", "bogus-invariant",
        "missing-destination", "store-destination",
    ))
    def test_static_operand_checks_in_every_section(
        self, mutation, deep_schedule
    ):
        """Each static operand or destination defect, planted in every
        instance of one node, is reported once per (section, bundle) -
        prologue, kernel and epilogue alike - however many kernel passes
        and epilogue replays revisit the bundle."""
        result, code = deep_schedule
        graph = result.graph
        if mutation == "store-destination":
            node = next(
                n.id for n in graph.nodes() if not n.produces_value
            )
        else:
            node = next(
                n.id for n in graph.nodes()
                if graph.reg_consumers(n.id) and graph.reg_producers(n.id)
            )

        def mutate(inst):
            if inst.node != node:
                return inst
            if mutation == "malformed-source":
                return dataclasses.replace(
                    inst, sources=("bogus",) + inst.sources[1:]
                )
            if mutation == "extra-source":
                return dataclasses.replace(
                    inst, sources=inst.sources + inst.sources[:1]
                )
            if mutation == "bogus-invariant":
                return dataclasses.replace(
                    inst, sources=inst.sources + ("inv:bogus",)
                )
            if mutation == "missing-destination":
                return dataclasses.replace(inst, dest=None)
            return dataclasses.replace(inst, dest="c0:r99")

        bad = dataclasses.replace(code, **{
            section: [[mutate(i) for i in b] for b in getattr(code, section)]
            for section in ("prologue", "kernel", "epilogue")
        })
        report = certify(bad, result)
        assert ViolationKind.OPERAND_MISMATCH in report.kinds()
        sites = {
            (v.section, v.bundle)
            for v in report.violations
            if v.kind is ViolationKind.OPERAND_MISMATCH
        }
        assert {section for section, _ in sites} == {
            section for section in ("prologue", "kernel", "epilogue")
            if any(i.node == node for b in getattr(code, section) for i in b)
        }
        keys = [
            (v.kind, v.section, v.bundle, v.register, v.operation)
            for v in report.violations
        ]
        assert len(keys) == len(set(keys))
        assert report.passes_checked >= 2

    def test_move_without_source_cluster_is_structural(
        self, clustered_schedule
    ):
        result, code = clustered_schedule
        graph = result.graph.clone()
        move = next(n for n in graph.nodes() if n.is_move)
        move.src_cluster = None
        report = certify(code, dataclasses.replace(result, graph=graph))
        assert any(
            v.kind is ViolationKind.STRUCTURE and v.operation == move.id
            for v in report.violations
        ), report.summary()

    def test_truncated_epilogue_is_structural(self, deep_schedule):
        result, code = deep_schedule
        bad = dataclasses.replace(code, epilogue=code.epilogue[:-1])
        report = certify(bad, result)
        assert report.kinds() == {ViolationKind.STRUCTURE}

    def test_violations_are_deduplicated_across_passes(self, deep_schedule):
        """A single static defect must not be re-reported once per
        explored kernel pass / epilogue replay."""
        result, code = deep_schedule
        bad = drop_copy_label_shift(code)
        report = certify(bad, result)
        keys = [
            (v.kind, v.section, v.bundle, v.register, v.operation)
            for v in report.violations
        ]
        assert len(keys) == len(set(keys))


# ----------------------------------------------------------------------
# The REPRO_STATIC_CERTIFY sanitizer hook
# ----------------------------------------------------------------------


class TestSanitizerHook:
    def test_clean_code_passes_under_hook(self, monkeypatch):
        monkeypatch.setenv(CERTIFY_ENV, "1")
        result = MirsC(UNIFIED).schedule(daxpy())
        code = generate_code(result)
        assert code.kernel  # emitted and certified without raising

    def test_violations_raise_certification_error(self, monkeypatch):
        result = MirsC(UNIFIED).schedule(daxpy())
        # Force the certifier to reject whatever generate_code emits.
        from repro.analysis import CertifierViolation

        def reject(code, schedule, **kwargs):
            real = certify_code(code, schedule)
            return dataclasses.replace(
                real,
                violations=(
                    CertifierViolation(
                        kind=ViolationKind.STRUCTURE,
                        section="code",
                        bundle=-1,
                        detail="injected by test",
                    ),
                ),
            )

        monkeypatch.setenv(CERTIFY_ENV, "1")
        monkeypatch.setattr("repro.analysis.certify_code", reject)
        with pytest.raises(CertificationError) as excinfo:
            generate_code(result)
        assert excinfo.value.loop == result.loop
        assert isinstance(excinfo.value.report, CertifierReport)
        assert "injected by test" in str(excinfo.value)

    def test_hook_off_by_default(self, monkeypatch):
        monkeypatch.delenv(CERTIFY_ENV, raising=False)
        calls = []
        monkeypatch.setattr(
            "repro.analysis.certify_code",
            lambda *a, **k: calls.append(a),
        )
        result = MirsC(UNIFIED).schedule(reduction())
        generate_code(result)
        assert calls == []


# ----------------------------------------------------------------------
# Typed codegen errors
# ----------------------------------------------------------------------


class TestCodegenErrors:
    def test_not_converged_carries_loop_and_kind(self):
        result = MirsC(UNIFIED).schedule(daxpy())
        broken = dataclasses.replace(result, converged=False)
        with pytest.raises(CodegenError) as excinfo:
            generate_code(broken)
        assert excinfo.value.kind == "not-converged"
        assert excinfo.value.loop == result.loop

    def test_codegen_error_is_a_value_error(self):
        assert issubclass(CodegenError, ValueError)

    def test_certify_schedule_propagates_codegen_error(self):
        result = MirsC(UNIFIED).schedule(daxpy())
        broken = dataclasses.replace(result, converged=False)
        with pytest.raises(CodegenError):
            certify_schedule(broken)


# ----------------------------------------------------------------------
# CFG plumbing
# ----------------------------------------------------------------------


class TestBundleCfg:
    def test_cycle_and_block_accounting(self):
        result = MirsC(UNIFIED).schedule(daxpy())
        code = generate_code(result)
        cfg = BundleCFG(code)
        sites = list(cfg.linearized(passes=2))
        cycles = [site.cycle for site in sites]
        assert cycles == list(range(len(sites)))  # gap-free linearization
        assert all(site.block == site.cycle // code.ii for site in sites)
        kernel_sites = [s for s in sites if s.section == "kernel"]
        assert len(kernel_sites) == 2 * code.ii * code.mve_factor

    def test_register_cluster_parsing(self):
        assert register_cluster("c0:r7") == 0
        assert register_cluster("c3:r12.k2") == 3
        assert register_cluster("inv:a") is None
        assert register_cluster("r7") is None

    def test_split_sources(self):
        registers, invariants = split_sources(("c0:r1", "inv:a", "c1:r2.k0"))
        assert registers == ["c0:r1", "c1:r2.k0"]
        assert invariants == ["a"]
