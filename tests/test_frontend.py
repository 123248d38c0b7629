"""Tests for the source-loop frontend (:mod:`repro.frontend`).

Covers the whole pipeline the acceptance criteria name:

* parsing (the supported fragment and its rejections, the parser
  registry),
* name classification and the exact memory dependence test,
* lowering (scalar recurrences through copy chains, CSE'd loads,
  invariants, MemRef streams),
* the RecMII acceptance criterion: ``ewma2``'s copy chain produces a
  distance-2 arc that *halves* RecMII versus a defaulted distance-1,
* the three-link source differential over the full corpus on both
  reference machines (schedule + certify + bit-for-bit validation).
"""

from __future__ import annotations

import textwrap

import pytest

from repro import LoopBuilder, ScheduleRequest, generate_code
from repro.analysis import certify_code
from repro.exec import ResultCache, SuiteExecutor
from repro.errors import FrontendError
from repro.frontend import (
    classify_names,
    lower_kernel,
    lower_source,
    memory_dependences,
    parse_source,
    parser_for,
    run_source,
    run_source_differential,
)
from repro.frontend.analyze import walk_expr
from repro.frontend.corpus import (
    CORPUS_KERNELS,
    corpus_path,
    load_corpus,
    load_kernel,
)
from repro.frontend.parser import (
    DEFAULT_TRIP_COUNT,
    PythonAstParser,
)
from repro.graph.ddg import DepKind
from repro.graph.recurrences import recurrence_mii
from repro.machine.resources import OpKind
from repro.frontend.reference import SourceInterpreter
from repro.sim.differential import MAX_REPORTED
from repro.sim.reference import ReferenceInterpreter

from tests.helpers import FOUR_CLUSTER, UNIFIED, legacy_run_source_differential

MACHINES = (UNIFIED, FOUR_CLUSTER)


def parse_text(text: str, **kwargs):
    """Parse dedented Python source text into kernels."""
    return PythonAstParser().parse(
        textwrap.dedent(text), source="<test>", **kwargs
    )


def one_kernel(text: str, **kwargs):
    kernels = parse_text(text, **kwargs)
    assert len(kernels) == 1
    return kernels[0]


def _subscripts(kernel):
    """Every Subscript of the kernel (targets and expression reads)."""
    from repro.frontend.ir import Subscript

    for stmt in kernel.body:
        if isinstance(stmt.target, Subscript):
            yield stmt.target
        for node in walk_expr(stmt.expr):
            if isinstance(node, Subscript):
                yield node


@pytest.fixture
def emissions(monkeypatch):
    """The loops generate_code is called for, however the caller
    imported it: every emission resolves its register names once."""
    import repro.codegen.emitter as emitter

    calls: list[str] = []
    real = emitter._register_names

    def counting(result, mve):
        calls.append(result.loop)
        return real(result, mve)

    monkeypatch.setattr(emitter, "_register_names", counting)
    return calls


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------


class TestPythonParser:
    def test_literal_range_and_body(self):
        kernel = one_kernel(
            """
            def k(x, y):
                for i in range(100):
                    y[i] = x[i] * 2.0
            """
        )
        assert kernel.name == "k"
        assert kernel.params == ("x", "y")
        assert kernel.loop.var == "i"
        assert kernel.loop.start == 0
        assert kernel.loop.step == 1
        assert kernel.loop.trip_count == 100
        assert kernel.loop.symbolic_bound is None
        assert len(kernel.body) == 1

    def test_symbolic_bound_uses_default_trip_count(self):
        text = """
            def k(x, y, n):
                for i in range(n):
                    y[i] = x[i]
            """
        kernel = one_kernel(text)
        assert kernel.loop.trip_count == DEFAULT_TRIP_COUNT
        assert kernel.loop.symbolic_bound == "n"
        assert one_kernel(text, default_trip_count=7).loop.trip_count == 7

    def test_start_step_and_affine_offsets(self):
        kernel = one_kernel(
            """
            def k(a, b):
                for i in range(1, 50, 2):
                    b[i] = a[i - 1] + a[2 * i + 3]
            """
        )
        assert kernel.loop.start == 1
        assert kernel.loop.step == 2
        assert kernel.loop.trip_count == 25
        assert {(s.array, s.coeff, s.offset) for s in _subscripts(kernel)} == {
            ("b", 1, 0),
            ("a", 1, -1),
            ("a", 2, 3),
        }

    def test_augassign_desugars(self):
        kernel = one_kernel(
            """
            def dotk(x, y, s):
                for i in range(8):
                    s += x[i] * y[i]
            """
        )
        stmt = kernel.body[0]
        assert stmt.target.name == "s"
        assert stmt.expr.op == "+"
        assert stmt.expr.left.name == "s"

    def test_sqrt_call_and_negative_literal(self):
        kernel = one_kernel(
            """
            def k(x, y):
                for i in range(8):
                    y[i] = sqrt(x[i]) + (-2.5)
            """
        )
        lowered = lower_kernel(kernel)
        kinds = {n.kind for n in lowered.graph.nodes()}
        assert OpKind.SQRT in kinds
        assert "lit_-2.5" in lowered.invariants

    def test_innermost_loop_of_a_nest_is_taken(self):
        kernel = one_kernel(
            """
            def k(x, y, n, m):
                for j in range(m):
                    for i in range(n):
                        y[i] = x[i]
            """
        )
        assert kernel.loop.var == "i"

    def test_functions_without_loops_are_skipped(self):
        kernels = parse_text(
            """
            def helper(v):
                return v + 1

            def k(x, y):
                for i in range(4):
                    y[i] = x[i]
            """
        )
        assert [k.name for k in kernels] == ["k"]

    @pytest.mark.parametrize(
        "body, message",
        [
            ("for i in range(4):\n        x[j] = 1.0", "symbolic offsets"),
            ("for i in range(4):\n        x[i * i] = 1.0", "non-affine"),
            ("for i in whatever(4):\n        x[i] = 1.0", "range"),
            ("for i in range(4):\n        x[i] = True", "numeric literals"),
            ("for i in range(0):\n        x[i] = 1.0", "no iterations"),
            ("for i in range(4):\n        x[i] = i % 2", "operator"),
            ("for i in range(4):\n        print(x[i])", "assignments"),
        ],
    )
    def test_unsupported_fragments_rejected(self, body, message):
        with pytest.raises(FrontendError, match=message):
            parse_text(f"def k(x, j):\n    {body}")

    def test_sibling_loops_rejected(self):
        with pytest.raises(FrontendError, match="top-level loop"):
            parse_text(
                """
                def k(x, y):
                    for i in range(4):
                        y[i] = x[i]
                    for i in range(4):
                        x[i] = y[i]
                """
            )


class TestParserRegistry:
    """``parser_for``: the one parser claims ``.py`` files, and every
    other suffix is a typed rejection."""

    def test_python_parser_registered_and_available(self):
        path = corpus_path("saxpy")
        parser = parser_for(path)
        assert isinstance(parser, PythonAstParser)
        kernels = parser.parse(path.read_text(), source=str(path))
        assert [k.name for k in kernels] == ["saxpy"]

    def test_parser_for_by_suffix(self):
        assert parser_for("anything.py").name == "python"

    def test_unknown_parser_and_suffix(self):
        with pytest.raises(FrontendError, match="no parser claims"):
            parser_for("loop.f90")

    def test_parse_source_errors(self, tmp_path):
        with pytest.raises(FrontendError, match="cannot read"):
            parse_source(tmp_path / "missing.py")
        empty = tmp_path / "empty.py"
        empty.write_text("x = 1\n")
        with pytest.raises(FrontendError, match="no supported loop"):
            parse_source(empty)
        with pytest.raises(FrontendError, match="nope"):
            parse_source(corpus_path("saxpy"), kernel="nope")

    def test_c_parser_gated_cleanly(self):
        # No C parser ships: a .c file fails like any unclaimed suffix.
        with pytest.raises(FrontendError, match="no parser claims"):
            parser_for("kernels.c")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


class TestAnalysis:
    def test_classify_roles(self):
        kernel = one_kernel(
            """
            def k(x, y, a, s, n):
                for i in range(n):
                    s = s + a * x[i]
                    y[i] = s
            """
        )
        roles = classify_names(kernel)
        assert roles.induction == "i"
        assert set(roles.arrays) == {"x", "y"}
        assert set(roles.loop_scalars) == {"s"}
        assert set(roles.invariants) == {"a"}
        assert roles.role_of("a") == "invariant"

    def test_induction_variable_misuse_rejected(self):
        with pytest.raises(FrontendError, match="assigned inside"):
            classify_names(one_kernel(
                """
                def k(x):
                    for i in range(4):
                        i = i
                """
            ))
        with pytest.raises(FrontendError, match="used as a value"):
            classify_names(one_kernel(
                """
                def k(x):
                    for i in range(4):
                        x[i] = i
                """
            ))

    def test_array_scalar_conflict_rejected(self):
        with pytest.raises(FrontendError, match="array and as a"):
            classify_names(one_kernel(
                """
                def k(x, n):
                    for i in range(n):
                        x[i] = x
                """
            ))

    def test_bound_used_in_body_rejected(self):
        with pytest.raises(FrontendError, match="loop bound"):
            classify_names(one_kernel(
                """
                def k(x, n):
                    for i in range(n):
                        x[i] = n
                """
            ))

    def test_undeclared_name_rejected(self):
        """A name read in the body that is neither a parameter nor
        assigned there is a typo, not a live-in invariant."""
        with pytest.raises(FrontendError, match="'q' is read .* neither"):
            lower_kernel(one_kernel(
                """
                def k(a, b):
                    for i in range(4):
                        a[i] = b[i] * q
                """
            ))

    def test_division_by_literal_zero_rejected(self):
        for divisor in ("0.0", "0", "-0.0", "(0.0)"):
            with pytest.raises(FrontendError, match="division by the literal zero"):
                parse_text(
                    "def k(a, b):\n"
                    "    for i in range(4):\n"
                    f"        a[i] = b[i] / {divisor}\n"
                )

    def test_saxpy_anti_dependence(self):
        deps = memory_dependences(one_kernel(
            """
            def saxpy(a, x, y, n):
                for i in range(n):
                    y[i] = a * x[i] + y[i]
            """
        ))
        assert [(d.kind, d.distance) for d in deps] == [("anti", 0)]
        assert deps[0].describe() == "anti y[1i+0] -> y[1i+0] distance=0"

    def test_prefix_flow_distance_one(self):
        deps = memory_dependences(one_kernel(
            """
            def prefix(a, n):
                for i in range(1, n):
                    a[i] = a[i] + a[i - 1]
            """
        ))
        kinds = {(d.kind, d.distance) for d in deps}
        assert ("flow", 1) in kinds  # write a[i] -> read a[i-1] next iter
        assert ("anti", 0) in kinds  # read a[i] before write a[i]

    def test_disjoint_streams_have_no_dependence(self):
        deps = memory_dependences(one_kernel(
            """
            def k(a, n):
                for i in range(n):
                    a[2 * i] = a[2 * i + 1]
            """
        ))
        assert deps == []  # odd/even words never collide

    def test_read_read_pairs_skipped(self):
        deps = memory_dependences(one_kernel(
            """
            def k(a, b, n):
                for i in range(n):
                    b[i] = a[i] + a[i + 1]
            """
        ))
        assert [d for d in deps if d.src.array == "a"] == []

    def test_mixed_strides_rejected(self):
        with pytest.raises(FrontendError, match="uniform stride"):
            memory_dependences(one_kernel(
                """
                def k(a, n):
                    for i in range(n):
                        a[i] = a[2 * i]
                """
            ))

    def test_constant_subscript_is_a_reduction_into_memory(self):
        """Stride 0: one word in every iteration, so the read precedes
        the write in its iteration and the write precedes the next
        iteration's read."""
        deps = memory_dependences(one_kernel(
            """
            def k(a, b, n):
                for i in range(n):
                    a[0] = a[0] + b[i]
            """
        ))
        assert sorted((d.kind, d.distance) for d in deps) == [
            ("anti", 0),
            ("flow", 1),
        ]

    def test_different_constant_subscripts_never_alias(self):
        deps = memory_dependences(one_kernel(
            """
            def k(a, b, n):
                for i in range(n):
                    a[1] = a[0] + b[i]
            """
        ))
        assert deps == []


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------


class TestLowering:
    def test_saxpy_structure(self):
        lowered = load_kernel("saxpy")
        graph = lowered.graph
        kinds = sorted(n.kind.name for n in graph.nodes())
        assert kinds == ["ADD", "LOAD", "LOAD", "MUL", "STORE"]
        assert list(lowered.arrays) == ["x", "y"]
        assert list(lowered.invariants) == ["a"]
        # The analyzed anti-dependence rides into the graph as a MEM arc.
        mem = [e for e in graph.edges() if e.kind is DepKind.MEM]
        assert [e.distance for e in mem] == [0]

    def test_mem_refs_rebased_to_the_loop_start(self):
        [lowered] = lower_source(corpus_path("stencil5"))
        # stencil5 counts range(1, n): lowering folds the start into the
        # stream offset (offset = coeff*start + offset).
        mid_refs = sorted(
            (n.mem_ref.offset, n.mem_ref.stride)
            for n in lowered.graph.nodes()
            if n.kind is OpKind.LOAD and n.name.startswith("ld_mid")
        )
        assert mid_refs == [(0, 1), (2, 1)]  # mid[i-1], mid[i+1] at i=1+j

    def test_cse_merges_repeated_loads(self):
        lowered = load_kernel("softclip")
        loads = [n for n in lowered.graph.nodes() if n.kind is OpKind.LOAD]
        assert len(loads) == 1  # x[i] read twice, loaded once

    def test_store_invalidates_load_cache(self):
        lowered = lower_kernel(one_kernel(
            """
            def k(a, b, n):
                for i in range(n):
                    a[i] = b[i]
                    b[i] = a[i] + 1.0
            """
        ))
        a_loads = [
            n
            for n in lowered.graph.nodes()
            if n.kind is OpKind.LOAD
            and n.mem_ref.array == lowered.arrays["a"]
        ]
        assert len(a_loads) == 1  # the re-read after the store is real

    def test_copy_chain_binding_distances(self):
        lowered = load_kernel("ewma2")
        bindings = {
            name: (binding.node_id, binding.shift)
            for name, binding in lowered.scalars.items()
        }
        node = bindings["t"][0]
        assert bindings["s1"] == (node, 0)  # s1 = t this iteration
        assert bindings["s2"] == (node, 1)  # s2 = old s1 = t one iter ago

    def test_invariant_scalar_binding(self):
        # A scalar only copied from an invariant stays an invariant.
        lowered = lower_kernel(one_kernel(
            """
            def k(x, y, c, n):
                for i in range(n):
                    d = c
                    y[i] = x[i] * d
            """
        ))
        assert lowered.scalars["d"].invariant_id is not None
        assert lowered.scalars["d"].node_id is None

    def test_copy_cycle_rejected(self):
        with pytest.raises(FrontendError, match="copy cycle"):
            lower_kernel(one_kernel(
                """
                def k(x, n):
                    for i in range(n):
                        a = b
                        b = a
                        x[i] = a
                """
            ))

    @pytest.mark.parametrize("body", ["s = 3", "s = c"])
    def test_body_without_effect_rejected(self, body):
        # Copies of literals and invariants create no nodes; the loop
        # used to "schedule" as a 0-node graph at II 1.
        with pytest.raises(FrontendError, match="loop body has no effect"):
            lower_kernel(one_kernel(
                f"""
                def k(c, n):
                    for i in range(n):
                        {body}
                """
            ))

    def test_corpus_lowers_and_validates(self):
        corpus = load_corpus()
        assert len(corpus) == len(CORPUS_KERNELS) >= 10
        for lowered in corpus:
            lowered.graph.validate()
            assert lowered.graph.trip_count >= 1
            assert len(lowered.graph) >= 2


# ----------------------------------------------------------------------
# The RecMII acceptance criterion
# ----------------------------------------------------------------------


class TestRecurrenceDistances:
    def test_ewma2_carries_a_distance_two_arc(self):
        graph = load_kernel("ewma2").graph
        carried = [
            e
            for e in graph.edges()
            if e.kind is DepKind.REG and e.distance > 0
        ]
        assert [e.distance for e in carried] == [2]

    def test_analyzed_distance_halves_recmii(self):
        """The frontend-derived distance-2 arc changes RecMII: the
        analyzed corpus kernel reads 4 where the same circuit with the
        distance defaulted to 1 reads 8."""
        assert recurrence_mii(load_kernel("ewma2").graph, UNIFIED) == 4

        def twin(distance):
            b = LoopBuilder("ewma2_twin", trip_count=120)
            x = b.load(array=0)
            prod = b.mul(b.invariant("b"))  # s2 * b
            t = b.add(prod, x)
            b.loop_carried(t, prod, distance=distance)
            b.store(t, array=1)
            return b.build()

        assert recurrence_mii(twin(2), UNIFIED) == 4
        assert recurrence_mii(twin(1), UNIFIED) == 8

    def test_prefix_memory_recurrence_is_real(self):
        # load + add + store around the analyzed distance-1 MEM arc.
        assert recurrence_mii(load_kernel("prefix").graph, UNIFIED) == 7


# ----------------------------------------------------------------------
# Source interpretation and the three-link differential
# ----------------------------------------------------------------------


class TestSourceSemantics:
    @pytest.mark.parametrize("name", ("saxpy", "iir2", "prefix", "ewma2"))
    def test_source_matches_lowered_graph(self, name):
        lowered = load_kernel(name)
        source = run_source(lowered, 12)
        reference = ReferenceInterpreter(lowered.graph).run(12)
        assert source.values == reference.values
        assert source.memory == reference.memory

    def test_differential_detects_a_wrong_distance(self):
        # Sabotage the lowered graph: clamp ewma2's carried arc to
        # distance 1.  Source semantics and graph semantics must split.
        lowered = load_kernel("ewma2")
        graph = lowered.graph
        edge = next(
            e
            for e in graph.edges()
            if e.kind is DepKind.REG and e.distance == 2
        )
        graph.remove_edge(edge)
        graph.add_edge(
            edge.src,
            edge.dst,
            kind=DepKind.REG,
            distance=1,
            latency=edge.latency,
        )
        source = run_source(lowered, 8)
        reference = ReferenceInterpreter(graph).run(8)
        assert source.values != reference.values


class TestEndToEnd:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_corpus_schedules_certifies_and_matches(self, machine):
        """The headline acceptance criterion, per reference machine:
        every corpus kernel schedules, its emitted pipeline passes the
        static certifier with zero violations, and all three
        differential links agree bit for bit (no skipped link)."""
        request = ScheduleRequest()
        for lowered in load_corpus():
            result = request.make_scheduler(machine).schedule(
                lowered.graph.clone()
            )
            assert result.converged, lowered.name
            assert result.ii >= result.mii
            report = certify_code(generate_code(result), result)
            assert report.ok, f"{lowered.name}: {report.summary()}"
            diff = run_source_differential(lowered, result, 24, cache=False)
            assert diff.hazards == (), f"{lowered.name}: {diff.hazards}"
            assert diff.analysis_match, f"{lowered.name}: {diff.summary()}"
            assert diff.emitted_match, f"{lowered.name}: {diff.summary()}"
            assert diff.source_match is True, (
                f"{lowered.name}: {diff.summary()}"
            )

    def test_frontend_rows_driver(self, emissions):
        from repro.eval.experiments import frontend_rows

        headers, rows, note = frontend_rows(
            session=SuiteExecutor(cache=False),
            kernels=("saxpy", "ewma2"),
            configs=("1-(GP8M4-REG64)",),
            iterations=12,
        )
        assert headers[-1] == "differential"
        assert [row[-1] for row in rows] == ["match", "match"]
        assert [row[-2] for row in rows] == ["ok", "ok"]
        assert "2/2" in note
        # The RecMII column is the analyzed one: ewma2 reads 4.
        ewma_row = next(row for row in rows if row[1] == "ewma2")
        assert ewma_row[headers.index("RecMII")] == 4
        assert emissions == ["saxpy", "ewma2"]  # one per pair


def scheduled_kernel(name: str):
    lowered = load_kernel(name)
    result = ScheduleRequest().make_scheduler(UNIFIED).schedule(
        lowered.graph.clone()
    )
    return lowered, result


class TestSourceDifferentialRuns:
    def test_memory_mismatch_survives_many_value_mismatches(
        self, monkeypatch
    ):
        """20 value and 1 memory mismatch: each category keeps its own
        cap, so the memory site is reported, not folded into the tail."""
        import repro.frontend.differential as differential

        class Corrupted(SourceInterpreter):
            def runs(self, *counts):
                # The first run is link 1's: the requested count.
                runs = super().runs(*counts)
                run = runs[0]
                for key in sorted(run.values)[:20]:
                    run.values[key] += 1
                run.memory[min(run.memory)] += 1
                return runs

        monkeypatch.setattr(differential, "SourceInterpreter", Corrupted)
        lowered, result = scheduled_kernel("saxpy")
        diff = run_source_differential(lowered, result, 24, cache=False)
        assert not diff.analysis_match
        analysis = [m for m in diff.mismatches if m.startswith("[analysis]")]
        assert sum(" value of " in m for m in analysis) == MAX_REPORTED
        assert sum(" memory[" in m for m in analysis) == 1
        assert analysis[-1] == (
            f"[analysis] ... and {20 - MAX_REPORTED} further mismatches"
        )

    @pytest.mark.parametrize("cached", (False, True))
    def test_links_two_and_three_share_one_simulation(
        self, monkeypatch, tmp_path, cached
    ):
        import repro.sim.vliw as vliw

        runs: list[int] = []
        real_run = vliw.VliwSimulator.run

        def counting_run(self, iterations):
            runs.append(iterations)
            return real_run(self, iterations)

        monkeypatch.setattr(vliw.VliwSimulator, "run", counting_run)
        cache = ResultCache(tmp_path) if cached else False
        for name in ("saxpy", "ewma2"):
            lowered, result = scheduled_kernel(name)
            for _ in range(2):  # cold, then warm when cached
                runs.clear()
                diff = run_source_differential(lowered, result, 24, cache=cache)
                assert diff.source_match is True, diff.summary()
                assert runs == [24]

    def test_hazard_skips_link_three_and_a_warm_cache_skips_the_run(
        self, monkeypatch, tmp_path
    ):
        import repro.frontend.differential as differential
        import repro.sim.vliw as vliw

        runs: list[int] = []
        real_run = vliw.VliwSimulator.run

        def counting_run(self, iterations):
            runs.append(iterations)
            return real_run(self, iterations)

        monkeypatch.setattr(vliw.VliwSimulator, "run", counting_run)
        monkeypatch.setattr(
            differential, "live_in_hazards", lambda graph: ("renamed",)
        )
        lowered, result = scheduled_kernel("saxpy")
        cache = ResultCache(tmp_path)
        for expected_runs in ([24], []):  # cold, then warm
            runs.clear()
            diff = run_source_differential(lowered, result, 24, cache=cache)
            assert diff.hazards == ("renamed",)
            assert diff.source_match is None
            assert diff.emitted_match and diff.match, diff.summary()
            assert runs == expected_runs

    def test_emitter_sabotage_reaches_links_two_and_three(self, monkeypatch):
        """Rewire one register operand of a source operation in the
        emitted kernel: the one shared run must fail both links."""
        import dataclasses

        import repro.sim.vliw as vliw

        lowered, result = scheduled_kernel("saxpy")
        pristine = set(lowered.graph.node_ids())

        def sabotaged(schedule):
            code = generate_code(schedule)
            names = sorted({copies[0] for copies in code.registers.values()})
            for bundle in code.kernel:
                for index, inst in enumerate(bundle):
                    sources = [
                        s for s in inst.sources if not s.startswith("inv:")
                    ]
                    if inst.node in pristine and sources:
                        wrong = next(n for n in names if n != sources[0])
                        bundle[index] = dataclasses.replace(
                            inst,
                            sources=tuple(
                                wrong if s == sources[0] else s
                                for s in inst.sources
                            ),
                        )
                        return code
            raise AssertionError("no instruction to sabotage")

        monkeypatch.setattr(vliw, "generate_code", sabotaged)
        diff = run_source_differential(lowered, result, 24, cache=False)
        assert diff.analysis_match
        assert not diff.emitted_match
        assert diff.source_match is False
        assert any(m.startswith("[emitted] value of") for m in diff.mismatches)
        assert any(m.startswith("[source] value of") for m in diff.mismatches)


#: A kernel outside the corpus whose constant subscripts touch one word
#: in every iteration (a reduction into memory) next to another word.
CONSTANT_SUBSCRIPTS = """
def accumulate(a, b, n):
    for i in range(n):
        a[0] = a[0] + b[i]
        a[1] = a[0] * b[i]
"""


class TestConstantSubscripts:
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_schedules_certifies_and_matches(self, machine):
        lowered = lower_kernel(one_kernel(CONSTANT_SUBSCRIPTS))
        carried = {
            (edge.src, edge.dst)
            for edge in lowered.graph.edges()
            if edge.kind is DepKind.MEM and edge.distance == 1
        }
        # The store feeds the next iteration's first load, and the
        # second load precedes the next iteration's store.
        assert len(carried) == 2
        result = ScheduleRequest().make_scheduler(machine).schedule(
            lowered.graph.clone()
        )
        assert result.converged
        code = generate_code(result)
        assert certify_code(code, result).ok
        diff = run_source_differential(
            lowered, result, 24, cache=False, code=code
        )
        assert diff.hazards == ()
        assert diff.match and diff.source_match is True, diff.summary()


#: Stride-2 kernels outside the corpus, with the memory arcs of ``a``
#: each must carry, as (source offset, destination offset, distance).
#: ``a[i - 1]`` reads the odd words that ``a[i]`` never writes; ``a[i -
#: 2]`` reads the word the previous iteration wrote; ``a[i + 1]`` writes
#: the odd word the next iteration reads through ``a[i - 1]``.
STRIDE_TWO = {
    "odd-read": ("""
def stride2_odd(a, b, n):
    for i in range(0, n, 2):
        a[i] = a[i - 1] * 0.5 + b[i]
""", set()),
    "distance-one-flow": ("""
def stride2_flow(a, b, n):
    for i in range(0, n, 2):
        a[i] = a[i - 2] + b[i]
""", {(0, -2, 1)}),
    "odd-write": ("""
def stride2_pair(a, b, n):
    for i in range(0, n, 2):
        a[i] = a[i - 1] + b[i]
        a[i + 1] = a[i] * 0.5
""", {(0, 0, 0), (1, -1, 1)}),
}


class TestStrideTwo:
    @pytest.mark.parametrize("name", STRIDE_TWO)
    @pytest.mark.parametrize("machine", MACHINES, ids=lambda m: m.name)
    def test_schedules_certifies_and_matches(self, name, machine):
        text, arcs = STRIDE_TWO[name]
        lowered = lower_kernel(one_kernel(text))
        graph = lowered.graph
        assert {
            (graph.node(e.src).mem_ref.offset,
             graph.node(e.dst).mem_ref.offset, e.distance)
            for e in graph.edges()
            if e.kind is DepKind.MEM
        } == arcs
        result = ScheduleRequest().make_scheduler(machine).schedule(
            graph.clone()
        )
        assert result.converged
        code = generate_code(result)
        report = certify_code(code, result)
        assert report.ok, report.summary()
        diff = run_source_differential(
            lowered, result, 24, cache=False, code=code
        )
        assert diff.hazards == ()
        assert diff.match and diff.source_match is True, diff.summary()


# ----------------------------------------------------------------------
# One source run for links 1 and 3, one emission per pair
# ----------------------------------------------------------------------


@pytest.fixture(scope="module", params=MACHINES, ids=lambda m: m.name)
def corpus_schedules(request):
    scheduler = ScheduleRequest().make_scheduler(request.param)
    return [
        (lowered, scheduler.schedule(lowered.graph.clone()))
        for lowered in load_corpus()
    ]


class TestSharedSourceRun:
    @pytest.mark.parametrize("hazard", (False, True), ids=("inert", "hazard"))
    def test_reports_match_the_two_run_oracle(
        self, corpus_schedules, monkeypatch, hazard
    ):
        import repro.frontend.differential as differential

        import tests.helpers as helpers

        if hazard:
            for module in (differential, helpers):
                monkeypatch.setattr(
                    module, "live_in_hazards", lambda graph: ("renamed",)
                )
        for lowered, result in corpus_schedules:
            for iterations in (1, 7, 24, 40, 100):
                new = run_source_differential(
                    lowered, result, iterations, cache=False
                )
                old = legacy_run_source_differential(
                    lowered, result, iterations, cache=False
                )
                assert repr(new) == repr(old), (lowered.name, iterations)
                assert new.match, new.summary()

    def test_one_source_run_unless_a_modulus_moves_a_live_in(
        self, corpus_schedules, monkeypatch
    ):
        runs: list[tuple[int, ...]] = []
        real_runs = SourceInterpreter.runs

        def counting_runs(self, *counts):
            runs.append(counts)
            return real_runs(self, *counts)

        monkeypatch.setattr(SourceInterpreter, "runs", counting_runs)
        twice = []
        for lowered, result in corpus_schedules:
            runs.clear()
            diff = run_source_differential(lowered, result, 24, cache=False)
            assert diff.source_match is True, diff.summary()
            assert len(runs) in (1, 2)
            if len(runs) == 2:
                twice.append(lowered.name)
        # ewma2's distance-2 scalar enters the loop as instance -2, which
        # a single live-in register collapses onto -1.
        assert twice == ["ewma2"]

    def test_runs_reads_each_count_from_one_execution(self):
        lowered = load_kernel("prefix")
        short, long = SourceInterpreter(lowered).runs(7, 20)
        assert short == run_source(lowered, 7)
        assert long == run_source(lowered, 20)


def test_optimality_rows_driver_emits_once_per_pair(emissions):
    from repro.eval.experiments import optimality_rows

    headers, rows, _ = optimality_rows(
        session=SuiteExecutor(cache=False),
        loops=[load_kernel("saxpy"), load_kernel("dot")],
        iterations=12,
    )
    assert [row[headers.index("validated")] for row in rows] == ["ok", "ok"]
    assert emissions == ["saxpy", "dot"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestFrontendCli:
    def test_schedule_source(self, capsys):
        from repro.cli import main

        assert main(
            ["schedule", "--source", "saxpy",
             "--config", "1-(GP8M4-REG64)", "--code"]
        ) == 0
        out = capsys.readouterr().out
        assert "saxpy" in out
        assert "II=1" in out

    def test_schedule_source_and_loop_conflict(self, capsys):
        from repro.cli import main

        assert main(["schedule", "--source", "saxpy", "--loop", "3"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_frontend_show_corpus_table(self, capsys):
        from repro.cli import main

        assert main(["frontend", "show"]) == 0
        out = capsys.readouterr().out
        for name in CORPUS_KERNELS:
            assert name in out
        assert "RecMII" in out
        assert "parser: python (.py sources)" in out

    def test_frontend_show_kernel(self, capsys):
        from repro.cli import main

        assert main(["frontend", "show", "ewma2"]) == 0
        out = capsys.readouterr().out
        assert "induction 'i'" in out
        assert "1 iteration(s) back" in out
        assert "RecMII 4" in out

    def test_frontend_show_unknown_source(self, capsys):
        from repro.cli import main

        assert main(["frontend", "show", "no_such_kernel.py"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_frontend_run_two_kernels(self, capsys, emissions):
        from repro.cli import main

        assert main(
            ["frontend", "run", "--config", "1-(GP8M4-REG64)",
             "--iterations", "12", "--no-cache", "saxpy", "ewma2"]
        ) == 0
        out = capsys.readouterr().out
        assert "2/2 kernels validated" in out
        assert "match" in out
        assert emissions == ["saxpy", "ewma2"]  # one per pair
