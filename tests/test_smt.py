"""Tests for the exact scheduling backend (repro.smt) and its gates.

Three layers, mirroring the subsystem:

* the shared optional-dependency gate (``repro.errors``) — present and
  absent paths, the latter simulated with an import hook so the tests
  pass whether or not z3 is installed;
* the fixed-II decision problem and the native CSP engine — SAT/UNSAT/
  UNKNOWN verdicts, determinism, and a hand-built loop whose unpipelined
  divisions make ResMII a genuine underestimate (the exact ladder climbs
  through eight UNSAT certificates before the first feasible II);
* the :class:`~repro.smt.SmtScheduler` driver and the differential
  harness — every exact schedule must pass static certification and the
  bit-for-bit simulator differential, every covered heuristic result
  must respect the proven lower bound, and every UNSAT certificate must
  agree with direct heuristic attempt probing at that II.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    LoopBuilder,
    MirsC,
    MirsParams,
    OpKind,
    certify_code,
    generate_code,
    parse_config,
)
from repro.core.attempts import AttemptTask, run_attempt
from repro.core.params import SmtParams
from repro.core.request import ScheduleRequest
from repro.errors import (
    ConvergenceError,
    OptionalDependencyError,
    ReproError,
    SchedulingError,
    optional_import,
    require_optional,
)
from repro.graph.mii import compute_mii
from repro.order.hrms import hrms_order
from repro.schedule.lifetimes import LifetimeAnalysis
from repro.sim import run_differential
from repro.smt import (
    FixedIIProblem,
    SmtScheduler,
    relaxation_covers,
    solve_fixed_ii,
    span_within_horizon,
)
from repro.smt import native
from tests.helpers import (
    TWO_CLUSTER,
    UNIFIED,
    UNIFIED_SMALL,
    chain,
    daxpy,
    graph_seeds,
    random_graph,
)

FOUR_CLUSTER = parse_config("4-(GP2M1-REG32)")
ONE_PORT = parse_config("1-(GP8M1-REG64)")


def divpack():
    """Three unpipelined divisions on a two-FU machine: ResMII lies.

    Each DIV occupies its FU for its full 17-cycle latency, so ResMII is
    ``ceil(3*17/2) = 26`` — but two DIVs sharing one physical unit need
    ``(t_b - t_a) % II >= 17`` in *both* directions, i.e. ``II >= 34``.
    """
    b = LoopBuilder("divpack", trip_count=50)
    for i in range(3):
        b.store(b.div(b.load(array=i)), array=10 + i)
    return b.build()


DIVPACK_MACHINE = parse_config("1-(GP2M4-REG64)")

#: A register file far too small for chain(6) at low II: the chain's
#: lifetimes sum to ~27 cycles, so MaxLive ~ 27/II — well above 8
#: registers at the resource-bound MII of 1.  The exact ladder must
#: climb through register-UNSAT certificates before its first feasible
#: point.
TIGHT_REGS = parse_config("1-(GP8M4-REG8)")


class _BlockImport:
    """Meta-path hook that makes one top-level package unimportable."""

    def __init__(self, name: str):
        self.name = name

    def find_spec(self, fullname, path=None, target=None):
        if fullname == self.name or fullname.startswith(self.name + "."):
            raise ModuleNotFoundError(f"{fullname} blocked for testing")
        return None


@pytest.fixture
def no_z3(monkeypatch):
    """Simulate an environment without z3, even when it is installed."""
    monkeypatch.delitem(sys.modules, "z3", raising=False)
    monkeypatch.setattr(sys, "meta_path", [_BlockImport("z3"), *sys.meta_path])


class TestOptionalGate:
    def test_optional_import_present(self):
        import json

        assert optional_import("json") is json

    def test_optional_import_absent(self, no_z3):
        assert optional_import("z3") is None

    def test_require_optional_present(self):
        import json

        module = require_optional("json", feature="a test", hint="stdlib")
        assert module is json

    def test_require_optional_absent_raises_typed_error(self, no_z3):
        with pytest.raises(OptionalDependencyError) as excinfo:
            require_optional(
                "z3",
                feature="the z3 exact scheduling backend",
                hint="pip install z3-solver",
            )
        err = excinfo.value
        # Both a ReproError (one except guards a run) and an ImportError
        # (the standard feature-probe idiom keeps working).
        assert isinstance(err, ReproError)
        assert isinstance(err, ImportError)
        assert err.module == "z3"
        assert err.feature == "the z3 exact scheduling backend"
        assert err.hint == "pip install z3-solver"
        assert "pip install z3-solver" in str(err)

    def test_engine_auto_resolves_native_without_z3(self, no_z3):
        assert SmtParams().effective_engine() == "native"
        assert SmtParams(engine="native").effective_engine() == "native"

    def test_z3_engine_without_z3_raises_on_schedule(self, no_z3):
        params = MirsParams(smt=SmtParams(engine="z3"))
        scheduler = SmtScheduler(UNIFIED, params=params)
        with pytest.raises(OptionalDependencyError, match="z3-solver"):
            scheduler.schedule(daxpy())

    def test_canonical_never_says_auto(self):
        engine = SmtParams().canonical()["engine"]
        assert engine in ("native", "z3")


class TestFixedIIProblem:
    def test_rejects_non_positive_ii(self):
        with pytest.raises(SchedulingError, match="positive"):
            FixedIIProblem(daxpy(), UNIFIED, 0)

    def test_rejects_non_pristine_graph(self):
        graph = daxpy()
        producer = next(n for n in graph.nodes() if n.produces_value)
        graph.new_node(OpKind.MOVE, move_of=producer.id, src_cluster=0)
        with pytest.raises(SchedulingError, match="pristine"):
            FixedIIProblem(graph, TWO_CLUSTER, 4)

    def test_horizon_is_a_multiple_of_ii(self):
        for ii in (1, 3, 7):
            problem = FixedIIProblem(daxpy(), UNIFIED, ii)
            assert problem.horizon % ii == 0
            assert problem.horizon > 0

    def test_anchor_candidates_are_zero_indegree_sources(self):
        graph = chain(4)
        problem = FixedIIProblem(graph, UNIFIED, 2)
        anchors = problem.anchor_candidates()
        # The chain's only source is its load; everything downstream has
        # an incoming zero-distance positive-latency edge.
        assert len(anchors) == 1
        assert graph.node(anchors[0]).kind is OpKind.LOAD

    def test_span_within_horizon_normalizes_by_ii(self):
        class Fake:
            ii = 4
            times = {0: 9, 1: 14}  # normalized span: 9 % 4 + 5 = 6

        assert span_within_horizon(Fake(), 7)
        assert not span_within_horizon(Fake(), 6)


class TestNativeEngine:
    def test_sat_at_feasible_ii_checks_clean(self):
        graph = daxpy()
        mii = compute_mii(graph, UNIFIED)
        problem = FixedIIProblem(graph, UNIFIED, mii)
        outcome = solve_fixed_ii(problem, 1_000_000)
        assert outcome.status == native.SAT
        assert problem.check_solution(
            outcome.times, outcome.clusters, outcome.move_times
        ) == []

    def test_unsat_below_resource_bound(self):
        # daxpy has three memory operations; one port forces II >= 3.
        graph = daxpy()
        assert compute_mii(graph, ONE_PORT) == 3
        outcome = solve_fixed_ii(FixedIIProblem(graph, ONE_PORT, 2), 1_000_000)
        assert outcome.status == native.UNSAT

    def test_unknown_on_exhausted_budget(self):
        graph = daxpy()
        mii = compute_mii(graph, UNIFIED)
        outcome = solve_fixed_ii(FixedIIProblem(graph, UNIFIED, mii), 1)
        assert outcome.status == native.UNKNOWN
        assert outcome.steps >= 1

    def test_deterministic_across_runs(self):
        graph = random_graph(7, size=9)
        mii = compute_mii(graph, TWO_CLUSTER)
        first = solve_fixed_ii(FixedIIProblem(graph, TWO_CLUSTER, mii), 500_000)
        second = solve_fixed_ii(FixedIIProblem(graph, TWO_CLUSTER, mii), 500_000)
        assert first.status == second.status
        assert first.steps == second.steps
        assert first.times == second.times
        assert first.clusters == second.clusters
        assert first.move_times == second.move_times

    def test_unpipelined_packing_exceeds_resmii(self):
        # ResMII says 26, but two of the three DIVs must share one
        # physical unit, which needs II >= 34.  The solver finds the
        # packing at 34 and refuses the MII point (the refutation is
        # enumerative, so a small budget may return UNKNOWN — never SAT).
        graph = divpack()
        assert compute_mii(graph, DIVPACK_MACHINE) == 26
        at_mii = solve_fixed_ii(
            FixedIIProblem(graph, DIVPACK_MACHINE, 26), 200_000
        )
        assert at_mii.status in (native.UNSAT, native.UNKNOWN)
        packed = solve_fixed_ii(
            FixedIIProblem(graph, DIVPACK_MACHINE, 34), 2_000_000
        )
        assert packed.status == native.SAT

    def test_register_bound_unsat_below_pressure_floor(self):
        # chain(6) needs ~27 live register-cycles per iteration; with 8
        # registers II=1 is infeasible on pressure alone (resources and
        # recurrences would both allow it).
        graph = chain(6)
        assert compute_mii(graph, TIGHT_REGS) == 1
        problem = FixedIIProblem(
            graph, TIGHT_REGS, 1,
            register_caps={0: TIGHT_REGS.cluster.registers},
        )
        outcome = solve_fixed_ii(problem, 2_000_000)
        assert outcome.status == native.UNSAT


class TestSmtScheduler:
    def test_daxpy_proven_optimal(self):
        result = SmtScheduler(UNIFIED).schedule(daxpy())
        assert result.converged
        oracle = result.oracle
        assert oracle["backend"] == "smt"
        assert oracle["status"] == "optimal"
        assert oracle["proven_optimal"]
        assert result.ii == oracle["proven_lower_ii"] == oracle["achieved_ii"]
        assert result.mii == compute_mii(daxpy(), UNIFIED)

    def test_register_ladder_collects_unsat_certificates(self):
        graph = chain(6)
        mii = compute_mii(graph, TIGHT_REGS)
        result = SmtScheduler(TIGHT_REGS).schedule(graph)
        assert result.converged
        oracle = result.oracle
        # The register file, not resources or recurrences, binds: the
        # ladder climbed past MII through genuine UNSAT certificates.
        assert result.ii > mii
        assert oracle["status"] == "optimal"
        assert oracle["proven_lower_ii"] == result.ii
        unsat = {
            c["ii"] for c in oracle["certificates"] if c["verdict"] == "unsat"
        }
        assert unsat == set(range(mii, result.ii))
        # Every solver certificate records the horizon it was proven
        # under (they are horizon-relative statements).
        for cert in oracle["certificates"]:
            if cert["verdict"] in ("sat", "unsat"):
                assert cert["horizon"] is not None
                assert cert["horizon"] % cert["ii"] == 0
        # The heuristic is subject to the bound only when it stays
        # inside the relaxation (it spills on this machine, which is
        # its legitimate escape hatch).
        heur = MirsC(TIGHT_REGS, strict=False).schedule(chain(6))
        covered, _ = relaxation_covers(heur)
        if covered and heur.converged:
            assert heur.ii >= oracle["proven_lower_ii"]

    def test_exact_schedule_certifies_and_simulates(self):
        for machine, graph in (
            (UNIFIED, daxpy()),
            (TIGHT_REGS, chain(6)),
        ):
            result = SmtScheduler(machine).schedule(graph)
            report = certify_code(generate_code(result), result)
            assert report.ok, report.violations
            diff = run_differential(result, 17)
            assert diff.match, diff.summary()

    def test_clustered_split_materializes_moves(self):
        # One load fans out to eight multiplies whose stores saturate a
        # single cluster's memory port: the exact model must split the
        # loop and route the shared value through an inter-cluster move.
        b = LoopBuilder("fanout", trip_count=50)
        x = b.load(array=0)
        for i in range(8):
            b.store(b.mul(x, x), array=1 + i)
        graph = b.build()
        machine = parse_config("2-(GP2M1-REG32)")
        result = SmtScheduler(machine).schedule(graph)
        assert result.converged
        assert result.oracle["proven_optimal"]
        assert result.move_operations > 0
        assert len(set(result.clusters.values())) == 2
        report = certify_code(generate_code(result), result)
        assert report.ok, report.violations
        assert run_differential(result, 13).match

    def test_skipped_on_too_many_clusters(self):
        result = SmtScheduler(FOUR_CLUSTER, strict=False).schedule(daxpy())
        assert not result.converged
        assert result.oracle["status"] == "skipped"
        assert "clusters" in result.oracle["reason"]
        with pytest.raises(ConvergenceError, match="skipped"):
            SmtScheduler(FOUR_CLUSTER, strict=True).schedule(daxpy())

    def test_skipped_on_node_gate(self):
        params = MirsParams(smt=SmtParams(max_nodes=2))
        result = SmtScheduler(UNIFIED, params=params, strict=False).schedule(
            daxpy()
        )
        assert not result.converged
        assert result.oracle["status"] == "skipped"
        assert "nodes" in result.oracle["reason"]

    def test_unsolved_on_exhausted_budget(self):
        params = MirsParams(smt=SmtParams(step_budget=1))
        result = SmtScheduler(UNIFIED, params=params, strict=False).schedule(
            daxpy()
        )
        assert not result.converged
        assert result.oracle["status"] == "unsolved"
        assert "budget" in result.oracle["reason"]
        with pytest.raises(ConvergenceError, match="unsolved"):
            SmtScheduler(UNIFIED, params=params, strict=True).schedule(daxpy())

    def test_request_builds_smt_scheduler(self):
        scheduler = ScheduleRequest(scheduler="smt").make_scheduler(UNIFIED)
        assert isinstance(scheduler, SmtScheduler)


def _attempt_probe(graph, machine, ii):
    """Run one heuristic attempt at a fixed II on a pristine loop."""
    ordering = hrms_order(graph, machine)
    task = AttemptTask(
        graph=graph,
        machine=machine,
        params=MirsParams(),
        ii=ii,
        priorities=ordering.priority,
    )
    return run_attempt(task)


def _outside_relaxation(feasible, machine, ii, horizon) -> bool:
    """Does a feasible heuristic state escape the exact model's scope?

    The exact UNSAT certificate only refutes schedules inside the
    relaxation (no spills, no invariant moves, no chained moves) whose
    normalized span fits the certificate's horizon and whose register
    pressure meets the bound.
    """
    graph = feasible.graph
    if any(n.is_spill for n in graph.nodes()):
        return True
    if feasible.spilled_invariants:
        return True
    for node in graph.nodes():
        if not node.is_move:
            continue
        if node.move_of_invariant is not None:
            return True
        if node.move_of is not None and graph.node(node.move_of).is_move:
            return True
    times = {
        nid: feasible.schedule.time(nid)
        for nid in feasible.schedule.scheduled_ids()
    }
    if times:
        low, high = min(times.values()), max(times.values())
        if low % ii + (high - low) >= horizon:
            return True
    available = machine.cluster.registers
    if available is not None:
        analysis = LifetimeAnalysis(graph, feasible.schedule, machine)
        if any(
            analysis.max_live(c) > available
            for c in range(machine.clusters)
        ):
            return True
    return False


class TestCertificatesAgreeWithAttemptProbing:
    def test_resource_unsat_agrees_with_attempt_probe(self):
        # Three memory operations cannot beat one port: the exact
        # refutation at II=2 and the heuristic attempt must agree
        # (spilling is no escape here — it only adds memory traffic).
        graph = daxpy()
        problem = FixedIIProblem(graph, ONE_PORT, 2)
        assert solve_fixed_ii(problem, 1_000_000).status == native.UNSAT
        probe = _attempt_probe(graph.clone(), ONE_PORT, 2)
        assert not probe.outcome.scheduled

    def test_register_unsat_iis_checked_against_heuristic_attempts(self):
        """At every UNSAT-certified II the heuristic must fail as well —
        unless its feasible state escapes the relaxation (on this
        register-starved machine, by spilling)."""
        graph = chain(6)
        result = SmtScheduler(TIGHT_REGS, strict=False).schedule(graph)
        assert result.converged
        probed = 0
        for cert in result.oracle["certificates"]:
            if cert["verdict"] != "unsat":
                continue
            probe = _attempt_probe(graph.clone(), TIGHT_REGS, cert["ii"])
            probed += 1
            if probe.outcome.scheduled:
                assert _outside_relaxation(
                    probe.feasible, TIGHT_REGS, cert["ii"], cert["horizon"]
                ), (
                    f"heuristic attempt scheduled {graph.name} at "
                    f"II={cert['ii']} inside the relaxation, "
                    "contradicting the UNSAT certificate"
                )
        assert probed >= 1  # the register ladder certifies II below optimum


class TestDifferentialHypothesis:
    @settings(max_examples=15, deadline=None)
    @given(seed=graph_seeds, size=st.integers(min_value=4, max_value=12))
    def test_exact_vs_heuristic_on_random_loops(self, seed, size):
        graph = random_graph(seed, size=size)
        params = MirsParams(
            smt=SmtParams(engine="native", step_budget=400_000)
        )
        for machine in (UNIFIED_SMALL, TWO_CLUSTER):
            exact = SmtScheduler(
                machine, params=params, strict=False
            ).schedule(graph.clone())
            oracle = exact.oracle
            if oracle["status"] in ("skipped", "unsolved"):
                continue
            assert exact.converged
            # Internal consistency of the certificate ledger.
            assert exact.ii == oracle["achieved_ii"]
            assert oracle["proven_lower_ii"] <= exact.ii
            assert oracle["proven_lower_ii"] >= oracle["mii"]
            # Exact schedules are real programs: certifier + simulator.
            report = certify_code(generate_code(exact), exact)
            assert report.ok, report.violations
            diff = run_differential(exact, 11)
            assert diff.match, diff.summary()
            # The heuristic never beats a proven lower bound it is
            # subject to.
            heur = MirsC(machine, strict=False).schedule(graph.clone())
            covered, _ = relaxation_covers(heur)
            if not (covered and heur.converged):
                continue
            if heur.ii >= oracle["proven_lower_ii"]:
                continue
            # A lower heuristic II is only a violation if some UNSAT
            # certificate at that II actually covers its span.
            horizons = [
                c["horizon"]
                for c in oracle["certificates"]
                if c["verdict"] == "unsat" and c["ii"] == heur.ii
            ]
            refuted = any(
                span_within_horizon(heur, h) for h in horizons if h
            )
            assert not refuted, (
                f"heuristic II={heur.ii} beats the proven lower bound "
                f"{oracle['proven_lower_ii']} on {graph.name}"
            )


@pytest.mark.skipif(optional_import("z3") is None, reason="z3 not installed")
class TestZ3Backend:
    """Runs only on the z3-equipped CI leg (and locally with z3)."""

    def test_z3_agrees_with_native_on_verdicts(self):
        from repro.smt.z3backend import solve_fixed_ii_z3

        for graph, machine, iis in (
            (daxpy(), ONE_PORT, (2, 3)),
            (divpack(), DIVPACK_MACHINE, (34,)),
            (random_graph(3, size=8), TWO_CLUSTER, None),
        ):
            if iis is None:
                mii = compute_mii(graph, machine)
                iis = (mii, mii + 1)
            for ii in iis:
                problem = FixedIIProblem(graph, machine, ii)
                a = solve_fixed_ii(problem, 5_000_000)
                b = solve_fixed_ii_z3(problem, 500_000_000)
                if native.UNKNOWN in (a.status, b.status):
                    continue
                assert a.status == b.status, (graph.name, ii)
                if b.status == native.SAT:
                    assert problem.check_solution(
                        b.times, b.clusters, b.move_times
                    ) == []

    def test_z3_scheduler_end_to_end(self):
        params = MirsParams(smt=SmtParams(engine="z3"))
        result = SmtScheduler(UNIFIED, params=params).schedule(daxpy())
        assert result.converged
        assert result.oracle["engine"] == "z3"
        assert result.oracle["proven_optimal"]
        native_result = SmtScheduler(
            UNIFIED, params=MirsParams(smt=SmtParams(engine="native"))
        ).schedule(daxpy())
        assert result.ii == native_result.ii
        assert run_differential(result, 17).match
