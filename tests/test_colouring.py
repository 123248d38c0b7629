"""Differential tests for the incremental circular-arc colouring engine.

The contract under test:
:class:`repro.schedule.colouring.IncrementalArcColouring` is
**register-count- and colour-identical** to the batch oracle - a
from-scratch :class:`~repro.schedule.lifetimes.LifetimeAnalysis` fed
through :func:`repro.schedule.regalloc._colour_arcs` - after *any*
sequence of scheduler events (placements, ejections, spill insertion,
edge rewiring) on unified and clustered machines alike, and the greedy
colouring respects the paper's footnote-2 bracket: it never beats
MaxLive, and exceeds it only on pathological arc patterns.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attempts import AttemptEngine
from repro.core.mirsc import MirsC
from repro.core.params import MirsParams
from repro.errors import SchedulingError
from repro.order.hrms import hrms_order
from repro.schedule import colouring as colouring_module
from repro.schedule.colouring import IncrementalArcColouring, arc_mask
from repro.schedule.lifetimes import LifetimeAnalysis
from repro.schedule.regalloc import _colour_arcs, allocate_registers
from repro.spill.heuristics import check_and_insert_spill
from repro.workloads.perfect import cached_suite

from tests.helpers import (
    FOUR_CLUSTER_TIGHT,
    TWO_CLUSTER,
    UNIFIED,
    UNIFIED_SMALL,
    add_random_edge,
    eject_random,
    fresh_state,
    place_random,
)

MACHINES = [UNIFIED_SMALL, TWO_CLUSTER, FOUR_CLUSTER_TIGHT]


def _assert_counts_match_batch(state) -> None:
    """Engine counts == a full batch allocation on the same state."""
    engine = state.colouring
    batch = allocate_registers(
        state.graph,
        state.schedule,
        state.machine,
        state.pressure,
        spilled_invariants=state.spilled_invariants,
    )
    for cluster, allocation in batch.items():
        assert engine.registers_used(cluster) == allocation.registers_used


class TestRandomizedEventSequences:
    """Property: engine == batch colouring after every event mix."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2_000))
    def test_engine_identical_after_random_events(self, seed):
        rng = random.Random(seed)
        machine = MACHINES[seed % len(MACHINES)]
        state = fresh_state(seed, machine)
        assert state.colouring is not None
        for _ in range(25):
            roll = rng.random()
            try:
                if roll < 0.45:
                    place_random(state, rng)
                elif roll < 0.6:
                    eject_random(state, rng)
                elif roll < 0.7:
                    add_random_edge(state, rng)
                else:
                    check_and_insert_spill(
                        state, final=rng.random() < 0.4
                    )
            except SchedulingError:
                break  # livelock guards may fire on adversarial orders
            state.colouring.assert_matches_scratch()
        _assert_counts_match_batch(state)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_engine_attaches_to_partial_schedules(self, seed):
        """An engine whose first query happens over an already-partial
        schedule (lazy build) is exact."""
        rng = random.Random(seed)
        machine = MACHINES[seed % len(MACHINES)]
        state = fresh_state(seed, machine)
        for _ in range(6):
            place_random(state, rng)
        # No query so far: the engine has not built its buckets yet.
        state.colouring.assert_matches_scratch()
        _assert_counts_match_batch(state)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_idle_valve_rebuilds_exactly(self, seed):
        """A long query-free event burst tears the buckets down; the
        next query rebuilds them bit-identically."""
        rng = random.Random(seed)
        machine = MACHINES[seed % len(MACHINES)]
        state = fresh_state(seed, machine)
        # Self-checking engines never idle out by design, and the
        # colour self-check CI leg turns them on for the whole suite:
        # this test's engine is built without it.
        state.colouring.detach()
        engine = state.colouring = IncrementalArcColouring(
            state.graph, state.schedule, machine, state.pressure,
            self_check=False,
        )
        engine.registers_used_all()  # force an eager build
        assert engine._buckets is not None
        # Overwhelm the idle valve with query-free churn.
        for _ in range(120):
            place_random(state, rng)
            eject_random(state, rng)
        engine._events_since_query = 10**9
        for _ in range(10):  # stores may produce no lifetime event
            eject_random(state, rng)
            place_random(state, rng)
            if engine._buckets is None:
                break
        assert engine._buckets is None  # valve fired
        engine.assert_matches_scratch()  # rebuild on demand, still exact
        _assert_counts_match_batch(state)


class TestMaxLiveBracket:
    """Footnote 2: MaxLive is a lower bound the colouring can exceed."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2_000))
    def test_colouring_never_beats_maxlive(self, seed):
        rng = random.Random(seed)
        machine = MACHINES[seed % len(MACHINES)]
        state = fresh_state(seed, machine)
        for _ in range(10):
            try:
                place_random(state, rng)
            except SchedulingError:
                break
        live = state.pressure.max_live_all()
        for cluster, used in state.colouring.registers_used_all().items():
            assert used >= live[cluster], (
                f"colouring beat MaxLive in cluster {cluster}"
            )

    def test_pathological_arcs_exceed_density(self):
        """A 3-cycle of pairwise-overlapping arcs needs 3 colours while
        no row holds more than 2 - the constructed case where the
        allocation exceeds the MaxLive lower bound (footnote 2)."""
        arcs = [(1, 0, 3), (2, 2, 3), (3, 4, 3)]
        ii = 6
        count, chosen = _colour_arcs(arcs, ii)
        peak_density = max(
            sum(
                1
                for _, start, length in arcs
                if arc_mask(start, length, ii) & (1 << row)
            )
            for row in range(ii)
        )
        assert peak_density == 2
        assert count == 3  # the greedy (and any colouring) needs one more

    def test_footnote2_gap_quantified_on_workbench(self):
        """The greedy's overshoot past MaxLive stays within a whisker on
        the 16-loop workbench (both reference machines): that is the
        behaviour footnote 2 of the paper describes."""
        worst = 0
        for machine_name in ("1-(GP8M4-REG64)", "4-(GP2M1-REG32)"):
            from repro.machine.config import parse_config

            machine = parse_config(machine_name)
            for loop in cached_suite(16):
                result = MirsC(machine).schedule(loop.graph)
                for cluster, used in result.register_usage.items():
                    gap = used - result.max_live[cluster]
                    assert gap >= 0  # the colouring never beats MaxLive
                    worst = max(worst, gap)
        # Measured gap distribution over the 80 cluster-allocations of
        # the 16-loop workbench on both machines: {0: 66, 1: 10, 2: 3,
        # 3: 1} - the greedy matches MaxLive in >80% of allocations and
        # never overshoots by more than 3 registers, exactly the
        # "sometimes MaxLive is a lower bound" behaviour of footnote 2.
        # A wider gap means the cut-point/ordering heuristic regressed.
        assert worst <= 3

    def test_footnote2_gap_quantified_on_stress_seeds(self):
        """Same bracket on the 100-400-node stress seeds (reusing the
        suite's cached schedules - see tests/test_search.py)."""
        from tests.test_search import stress_results

        worst = 0
        for index in (0, 3):
            result = stress_results("geometric", index)
            assert result.converged
            for cluster, used in result.register_usage.items():
                gap = used - result.max_live[cluster]
                assert gap >= 0
                worst = max(worst, gap)
        assert worst <= 2


class TestWholeRuns:
    def test_workbench_runs_self_check_clean(self, monkeypatch):
        """Acceptance: the engine cross-checks clean against the batch
        oracle on every event and every query of whole MIRS-C runs on
        spill-heavy (small register file) machines."""
        monkeypatch.setattr(colouring_module, "SELF_CHECK", True)
        for machine in (UNIFIED_SMALL, FOUR_CLUSTER_TIGHT):
            for loop in cached_suite(4):
                result = MirsC(machine, strict=False).schedule(loop.graph)
                assert result.converged or result.restarts > 0

    @pytest.mark.parametrize("machine", [UNIFIED, FOUR_CLUSTER_TIGHT])
    def test_final_allocation_identical_engine_on_and_off(self, machine):
        """The engine's final verdict is the batch allocator's: on the
        finished state of each accepted attempt, the engine's
        per-cluster counts equal a from-scratch batch allocation, and
        the finalized result reports exactly those counts."""
        for loop in cached_suite(6):
            result = MirsC(machine).schedule(loop.graph)
            state, outcome = AttemptEngine(machine, MirsParams()).run(
                loop.graph.clone(),
                result.ii,
                hrms_order(loop.graph, machine).priority,
            )
            assert outcome.scheduled
            engine = state.colouring.registers_used_all()
            batch = allocate_registers(
                state.graph,
                state.schedule,
                machine,
                LifetimeAnalysis(
                    state.graph, state.schedule, machine,
                    spilled_invariants=state.spilled_invariants,
                ),
                spilled_invariants=state.spilled_invariants,
            )
            assert engine == {c: a.registers_used for c, a in batch.items()}
            assert result.register_usage == engine


class TestEngineLifecycle:
    def test_state_without_register_limit_has_no_engine(self):
        from repro.machine.config import parse_config

        state = fresh_state(3, parse_config("1-(GP8M4-REGinf)"))
        assert state.colouring is None

    def test_detach_stops_observing(self):
        state = fresh_state(4, UNIFIED_SMALL)
        engine = state.colouring
        assert engine in state.pressure.lifetime_listeners
        engine.detach()
        assert engine not in state.pressure.lifetime_listeners

    def test_allocate_registers_rejects_foreign_colouring(self):
        """The colouring engine must mirror the analysis it is passed
        with - a mismatched pair is a programming error, not a silent
        wrong answer."""
        state = fresh_state(6, UNIFIED_SMALL)
        rng = random.Random(6)
        place_random(state, rng)
        scratch = LifetimeAnalysis(state.graph, state.schedule, state.machine)
        with pytest.raises(ValueError, match="different analysis"):
            allocate_registers(
                state.graph,
                state.schedule,
                state.machine,
                scratch,
                colouring=state.colouring,
            )

    def test_allocate_registers_with_engine_matches_batch_exactly(self):
        """allocate_registers(colouring=engine) returns bit-identical
        allocations (counts *and* assignments) to the batch path."""
        state = fresh_state(7, TWO_CLUSTER)
        rng = random.Random(7)
        for _ in range(8):
            place_random(state, rng)
        incremental = allocate_registers(
            state.graph,
            state.schedule,
            state.machine,
            state.pressure,
            colouring=state.colouring,
        )
        batch = allocate_registers(
            state.graph,
            state.schedule,
            state.machine,
            state.pressure,
        )
        assert incremental == batch


def test_self_check_env_flag(monkeypatch):
    """REPRO_COLOUR_SELFCHECK wires the module flag like the pressure
    tracker's, and a self-checking engine builds eagerly."""
    monkeypatch.setattr(colouring_module, "SELF_CHECK", True)
    state = fresh_state(8, UNIFIED_SMALL)
    assert state.colouring.self_check
    assert state.colouring._buckets is not None
