"""The attempt-task API and the speculative parallel II search.

Covers the contracts the speculative driver's determinism rests on:

* :class:`AttemptTask` / :class:`AttemptResult` survive a pickle
  round-trip (and a real process boundary) without changing what the
  attempt computes — the precondition for racing attempts over a pool;
* a speculative K=4 search is fingerprint-identical to the committed
  workbench capture, and the search at K=1 and K=4 reproduces the
  reference ladder (:func:`helpers.reference_ladder`) on the stress
  seeds;
* losers are provably cancelled: executed attempts stay strictly below
  the serial attempt count plus the frontier width;
* :class:`ConvergenceError` reports both the last-probed and the
  highest-probed II under jumping policies.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    TWO_CLUSTER,
    UNIFIED,
    daxpy,
    random_graph,
    reference_ladder,
    wide,
)
from repro import (
    MirsC,
    MirsParams,
    compute_mii,
    hrms_order,
    parse_config,
)
from repro.core.attempts import (
    AttemptResult,
    AttemptTask,
    SerialAttemptRunner,
    SpeculativeSearchDriver,
    run_attempt,
)
from repro.core.params import max_ii_for
from repro.errors import ConvergenceError
from repro.exec import result_fingerprint
from repro.exec.hashing import canonical_graph
from repro.obs import SearchStats


def make_task(graph, machine, params=None, ii=None) -> AttemptTask:
    """An AttemptTask the way MirsC builds them (HRMS priorities, MII)."""
    params = params or MirsParams()
    ordering = hrms_order(graph, machine)
    return AttemptTask(
        graph=graph,
        machine=machine,
        params=params,
        ii=ii if ii is not None else compute_mii(graph, machine),
        priorities=ordering.priority,
    )


def placements(result: AttemptResult) -> dict | None:
    """The (time, cluster) placement map of a feasible attempt."""
    if result.feasible is None:
        return None
    schedule = result.feasible.schedule
    return {
        n: (schedule.time(n), schedule.cluster(n))
        for n in schedule.scheduled_ids()
    }


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------


class TestAttemptRoundTrip:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2_000))
    def test_task_pickle_round_trip_preserves_the_attempt(self, seed):
        """A task rebuilt from its pickle runs the identical attempt."""
        graph = random_graph(seed, size=8 + seed % 5)
        task = make_task(graph, TWO_CLUSTER)
        copy = pickle.loads(pickle.dumps(task))
        assert copy.ii == task.ii
        assert copy.priorities == task.priorities
        original = run_attempt(task)
        replayed = run_attempt(copy)
        assert replayed.outcome == original.outcome
        assert placements(replayed) == placements(original)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2_000))
    def test_result_pickle_round_trip(self, seed):
        """Results (feasible state included) survive serialization."""
        graph = random_graph(seed, size=8 + seed % 5)
        result = run_attempt(make_task(graph, TWO_CLUSTER))
        copy = pickle.loads(pickle.dumps(result))
        assert copy.ii == result.ii
        assert copy.outcome == result.outcome
        assert placements(copy) == placements(result)
        if result.feasible is not None:
            assert copy.feasible.memory_traffic == result.feasible.memory_traffic
            assert copy.feasible.spilled_invariants == (
                result.feasible.spilled_invariants
            )

    def test_attempt_crosses_a_real_process_boundary(self):
        """run_attempt in a worker process equals the in-process run."""
        task = make_task(daxpy(), TWO_CLUSTER)
        local = run_attempt(task)
        with multiprocessing.get_context().Pool(1) as pool:
            remote = pool.apply(run_attempt, (task,))
        assert remote.ii == local.ii
        assert remote.outcome == local.outcome
        assert placements(remote) == placements(local)
        assert remote.feasible is not None  # daxpy schedules at MII

    def test_task_is_reusable_after_an_attempt(self):
        """The attempt clones; the pristine task schedules twice alike."""
        task = make_task(daxpy(), UNIFIED)
        first = run_attempt(task)
        second = run_attempt(task)
        assert first.outcome == second.outcome
        assert placements(first) == placements(second)


# ----------------------------------------------------------------------
# Speculative-vs-serial identity
# ----------------------------------------------------------------------


class TestSpeculativeIdentity:
    FINGERPRINTS = None

    @classmethod
    def _fingerprints(cls):
        if cls.FINGERPRINTS is None:
            import json
            import pathlib

            cls.FINGERPRINTS = json.loads(
                (
                    pathlib.Path(__file__).parent
                    / "data"
                    / "workbench_fingerprints.json"
                ).read_text()
            )
        return cls.FINGERPRINTS

    @pytest.mark.parametrize(
        "config", ["1-(GP8M4-REG64)", "4-(GP2M1-REG32)"]
    )
    def test_speculative_matches_committed_workbench_fingerprints(
        self, config
    ):
        """K=4 reproduces the serial capture bit-for-bit (both machines)."""
        from repro.workloads.perfect import cached_suite

        expected = self._fingerprints()[config]
        machine = parse_config(config)
        mismatched = [
            loop.graph.name
            for loop in cached_suite(16)
            if result_fingerprint(
                MirsC(
                    machine, params=MirsParams(speculation=4), strict=False
                ).schedule(loop.graph)
            )
            != expected[loop.graph.name]
        ]
        assert mismatched == []

    @pytest.mark.parametrize("speculation", [1, 4])
    def test_speculative_matches_serial_on_stress_seeds(self, speculation):
        """Register-pressure stress loops under a jumping policy: the
        geometric search takes traffic-driven skips and backfills, the
        exact trajectory the search must reproduce at every width K."""
        machine = parse_config("1-(GP8M4-REG64)")
        params = MirsParams(ii_search="geometric")
        for graph in stress_graphs(2):
            outcomes, best = reference_ladder(graph, machine, params)
            result = MirsC(
                machine,
                params=dataclasses.replace(params, speculation=speculation),
                strict=False,
            ).schedule(graph.clone())
            path = [e for e in result.stats.search_trace if e["on_path"]]
            assert [(e["ii"], e["kind"]) for e in path] == [
                (o.ii, o.kind.value) for o in outcomes
            ], graph.name
            assert result.converged == (best is not None), graph.name
            if best is None:
                continue
            assert result.ii == best.ii
            assert result.times == {
                n: best.schedule.time(n) for n in best.schedule.scheduled_ids()
            }, graph.name
            assert result.clusters == {
                n: best.schedule.cluster(n)
                for n in best.schedule.scheduled_ids()
            }, graph.name
            assert canonical_graph(result.graph) == canonical_graph(best.graph)
            assert result.memory_traffic == best.memory_operation_count()

    def test_serial_runner_is_the_degenerate_executor(self):
        """K>1 over a SerialAttemptRunner does exactly the serial work."""
        graph = next(iter(stress_graphs(1)))
        machine = parse_config("1-(GP8M4-REG64)")
        params = MirsParams(ii_search="geometric")
        ordering = hrms_order(graph, machine)
        mii = compute_mii(graph, machine)
        limit = max_ii_for(mii, len(graph), params)
        driver = SpeculativeSearchDriver(
            machine, params, 4, runner=SerialAttemptRunner()
        )
        found = driver.search(
            graph.clone(), ordering.priority, mii, limit
        )
        outcomes, _ = reference_ladder(graph, machine, params)
        assert found.stats.runner == "SerialAttemptRunner"
        assert found.stats.executed_attempts == found.stats.serial_attempts
        assert [r.outcome.as_trace_entry() for r in found.path] == [
            o.as_trace_entry() for o in outcomes
        ]


def stress_graphs(count):
    from repro.workloads.stress import stress_suite

    return stress_suite(count)


# ----------------------------------------------------------------------
# Cancellation accounting
# ----------------------------------------------------------------------


class TestCancellationAccounting:
    def test_losers_are_cancelled_and_extras_are_bounded(self):
        """Executed attempts stay below serial attempts + K, and the
        stats.search ledger balances (launched = executed real work,
        cancelled covers whatever never retired)."""
        machine = parse_config("1-(GP8M4-REG64)")
        graph = next(iter(stress_graphs(1)))
        serial = MirsC(
            machine, params=MirsParams(speculation=1), strict=False
        ).schedule(graph.clone())
        serial_attempts = len(serial.stats.search_trace)
        assert serial_attempts > 1  # the ladder climbs; K>1 has work to race

        speculative = MirsC(
            machine, params=MirsParams(speculation=4), strict=False
        ).schedule(graph.clone())
        stats = speculative.stats.search
        assert stats is not None
        assert stats.speculation == 4
        assert stats.serial_attempts == serial_attempts
        assert stats.executed_attempts < serial_attempts + 4
        assert stats.launched >= stats.executed_attempts
        assert stats.cancelled >= 0
        assert result_fingerprint(speculative) == result_fingerprint(serial)

    def test_serial_search_records_no_speculation_stats(self):
        """K=1 is the same driver over the in-process runner: its ledger
        is populated and shows no speculative work."""
        result = MirsC(
            UNIFIED, params=MirsParams(speculation=1), strict=False
        ).schedule(daxpy())
        stats = result.stats.search
        assert isinstance(stats, SearchStats)
        assert (stats.speculation, stats.runner) == (1, "SerialAttemptRunner")
        assert stats.executed_attempts == stats.serial_attempts
        assert stats.cancelled == 0


# ----------------------------------------------------------------------
# ConvergenceError reporting
# ----------------------------------------------------------------------


class ScriptedPolicy:
    """Probes a fixed offset sequence above MII, ignoring outcomes —
    a jumping policy whose last probe is not its highest."""

    name = "scripted"

    def __init__(self, offsets):
        self.offsets = tuple(offsets)
        self._mii = None
        self._iter = None

    def first_ii(self, mii, limit):
        self._mii = mii
        self._iter = iter(self.offsets)
        return mii + next(self._iter)

    def next_ii(self, outcome):
        if outcome.scheduled:
            return None
        try:
            return self._mii + next(self._iter)
        except StopIteration:
            return None

    def canonical(self):
        return {"name": self.name, "offsets": list(self.offsets)}


class TestConvergenceErrorReporting:
    #: Two registers per cluster: every low-II attempt is register
    #: infeasible, so a bounded probe script cannot converge.
    STARVED = parse_config("1-(GP8M4-REG2)")

    def test_error_reports_last_and_highest_probed_ii(self):
        graph = wide(8)
        mii = compute_mii(graph, self.STARVED)
        policy = ScriptedPolicy([1, 5, 3])  # descending backfill at the end
        with pytest.raises(ConvergenceError) as err:
            MirsC(self.STARVED, params=MirsParams(ii_search=policy)).schedule(
                graph
            )
        assert err.value.last_ii == mii + 3
        assert err.value.highest_ii == mii + 5
        assert f"last probed II={mii + 3}" in str(err.value)
        assert f"up to II={mii + 5}" in str(err.value)

    def test_speculative_error_reports_the_same_pair(self):
        graph = wide(8)
        mii = compute_mii(graph, self.STARVED)
        policy = ScriptedPolicy([1, 5, 3])
        with pytest.raises(ConvergenceError) as err:
            MirsC(
                self.STARVED,
                params=MirsParams(ii_search=policy, speculation=3),
            ).schedule(graph)
        assert err.value.last_ii == mii + 3
        assert err.value.highest_ii == mii + 5

    def test_highest_defaults_to_last(self):
        err = ConvergenceError("gave up", last_ii=7)
        assert err.highest_ii == 7
