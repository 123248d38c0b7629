"""Tests for the suite-execution engine (repro.exec).

Pins the PR's contract: parallel sharding changes nothing but
wall-clock; the on-disk cache returns identical results without
re-invoking the scheduler; and cache keys react to every semantic
input.
"""

import os
import signal

import pytest

import repro.exec.engine as engine_module
from repro.core.mirsc import MirsC
from repro.core.params import MirsParams
from repro.core.request import ScheduleRequest
from repro.eval.experiments import table1_rows
from repro.errors import WorkerDiedError
from repro.eval.runner import bench_loop_count, bench_suite, schedule_suite
from repro.graph.ddg import DependenceGraph
from repro.exec import (
    ResultCache,
    SuiteExecutor,
    cache_key,
    resolve_cache,
    resolve_jobs,
    result_fingerprint,
)
from repro.machine.config import paper_configuration
from repro.workloads.perfect import cached_suite

from tests.helpers import chain, deadline

LOOPS = cached_suite(4)
MACHINE = paper_configuration(2, 32)


def fingerprints(results):
    return [result_fingerprint(r) for r in results]


class TestParallelEqualsSequential:
    def test_jobs4_matches_jobs1_cold_cache(self, monkeypatch):
        # Acceptance criterion: the *default 16-loop workbench*, cache
        # cold, jobs=4 vs jobs=1, identical results loop for loop.
        monkeypatch.delenv("REPRO_BENCH_LOOPS", raising=False)
        workbench = bench_suite()
        assert len(workbench) == 16
        sequential = SuiteExecutor(jobs=1, cache=False)
        parallel = SuiteExecutor(jobs=4, cache=False)
        seq = sequential.run(MACHINE, workbench)
        par = parallel.run(MACHINE, workbench)
        # Loop-for-loop identity on every deterministic field.
        assert fingerprints(seq) == fingerprints(par)
        assert sequential.stats.scheduled == len(workbench)
        assert parallel.stats.scheduled == len(workbench)

    def test_parallel_baseline_scheduler(self):
        machine = paper_configuration(2, None)
        baseline = ScheduleRequest(scheduler="baseline")
        seq = SuiteExecutor(jobs=1, cache=False).run(machine, LOOPS, baseline)
        par = SuiteExecutor(jobs=3, cache=False).run(machine, LOOPS, baseline)
        assert fingerprints(seq) == fingerprints(par)

    def test_schedule_suite_session_jobs(self):
        seq = schedule_suite(MACHINE, LOOPS, session=SuiteExecutor(jobs=1))
        par = schedule_suite(MACHINE, LOOPS, session=SuiteExecutor(jobs=2))
        assert fingerprints(seq.results) == fingerprints(par.results)

    def test_legacy_kwargs_raise_with_migration_hint(self):
        # The pre-request keywords are gone: Python's own TypeError.
        request = ScheduleRequest()
        with pytest.raises(TypeError):
            schedule_suite(MACHINE, LOOPS, request, jobs=1)
        with pytest.raises(TypeError):
            schedule_suite(MACHINE, LOOPS, request, search="linear")
        # The historical 4th positional (params) is no graph list.
        with pytest.raises(TypeError):
            schedule_suite(MACHINE, LOOPS, request, MirsParams())

    def test_unknown_scheduler_rejected_before_any_work(self):
        with pytest.raises(ValueError):
            SuiteExecutor(jobs=4, cache=False).run(
                MACHINE, LOOPS, ScheduleRequest(scheduler="magic")
            )


class TestCache:
    def test_warm_cache_skips_scheduler(self, tmp_path, monkeypatch):
        cold = SuiteExecutor(cache=ResultCache(tmp_path))
        first = cold.run(MACHINE, LOOPS)
        assert cold.stats.scheduled == len(LOOPS)
        assert cold.stats.cache_hits == 0

        # Second run: the scheduler must not be invoked at all.
        calls = []
        original = MirsC.schedule

        def counting(self, graph):
            calls.append(graph.name)
            return original(self, graph)

        monkeypatch.setattr(MirsC, "schedule", counting)
        warm = SuiteExecutor(cache=ResultCache(tmp_path))
        second = warm.run(MACHINE, LOOPS)
        assert calls == []
        assert warm.stats.scheduled == 0
        assert warm.stats.cache_hits == len(LOOPS)
        assert fingerprints(first) == fingerprints(second)

    def test_warm_cache_skips_smt_scheduler(self, tmp_path, monkeypatch):
        """The exact backend's results (oracle dict included) round-trip
        through the on-disk cache; a warm rerun never invokes it."""
        from tests.helpers import UNIFIED, daxpy

        from repro.smt.scheduler import SmtScheduler

        loops = [daxpy()]
        cold = SuiteExecutor(cache=ResultCache(tmp_path))
        exact = ScheduleRequest(scheduler="smt")
        first = cold.run(UNIFIED, loops, exact)
        assert cold.stats.scheduled == 1
        assert first[0].oracle is not None
        assert first[0].oracle["status"] == "optimal"

        calls = []
        original = SmtScheduler.schedule

        def counting(self, graph):
            calls.append(graph.name)
            return original(self, graph)

        monkeypatch.setattr(SmtScheduler, "schedule", counting)
        warm = SuiteExecutor(cache=ResultCache(tmp_path))
        second = warm.run(UNIFIED, loops, exact)
        assert calls == []
        assert warm.stats.cache_hits == 1
        assert fingerprints(first) == fingerprints(second)
        # The oracle certificates survive the cache round-trip intact.
        assert second[0].oracle == first[0].oracle

    def test_warm_cache_parallel_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        SuiteExecutor(jobs=2, cache=cache).run(MACHINE, LOOPS)
        warm = SuiteExecutor(jobs=2, cache=cache)
        warm.run(MACHINE, LOOPS)
        assert warm.stats.scheduled == 0

    def test_driver_second_run_zero_invocations(self, tmp_path, monkeypatch):
        """Acceptance: a warm-cache rerun of a table driver schedules nothing."""
        loops = cached_suite(2)
        kwargs = dict(clusters=(1,), move_latencies=(1,))
        first = table1_rows(
            loops, session=SuiteExecutor(cache=ResultCache(tmp_path)), **kwargs
        )
        monkeypatch.setattr(
            MirsC,
            "schedule",
            lambda self, graph: pytest.fail("scheduler invoked on warm cache"),
        )
        warm = SuiteExecutor(cache=ResultCache(tmp_path))
        second = table1_rows(loops, session=warm, **kwargs)
        assert warm.stats.scheduled == 0
        assert first == second

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache_key(LOOPS[0].graph, MACHINE, None, "mirsc")
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert key not in cache

    def test_put_get_roundtrip_and_maintenance(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = MirsC(MACHINE).schedule(LOOPS[0].graph.clone())
        key = cache_key(LOOPS[0].graph, MACHINE, None, "mirsc")
        cache.put(key, result)
        assert key in cache
        assert result_fingerprint(cache.get(key)) == result_fingerprint(result)
        assert len(cache) == 1
        assert cache.stats().total_bytes > 0
        assert cache.clear() == 1
        assert len(cache) == 0


class TestNoCacheMeansNoCache:
    def test_cache_false_writes_nothing_under_repro_cache_dir(
        self, tmp_path, monkeypatch
    ):
        """``cache=False`` holds even when ``REPRO_CACHE_DIR`` names a
        cache: no layer memoizes a schedule, so a repeat run executes
        every attempt again and nothing lands on disk."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.delenv("REPRO_SPECULATION", raising=False)

        def attempts(results):
            return [
                (r.stats.search.executed_attempts, r.stats.search.launched)
                for r in results
            ]

        first = SuiteExecutor(jobs=1, cache=False).run(MACHINE, LOOPS)
        second = SuiteExecutor(jobs=1, cache=False).run(MACHINE, LOOPS)
        MirsC(MACHINE).schedule(LOOPS[0].graph)
        assert list(tmp_path.rglob("*")) == []
        assert attempts(second) == attempts(first)
        assert fingerprints(second) == fingerprints(first)


class TestPickleDeterminism:
    def test_pickle_roundtrip_schedules_identically(self):
        """A graph shipped to a worker via pickle must schedule exactly
        like the in-process original (pickling reorders the consumers
        sets, which once swapped the spill-load insertion order)."""
        import pickle

        machine = paper_configuration(2, 32)
        # The first six workbench loops include dense235, the loop whose
        # invariant spills exposed the original nondeterminism.
        for loop in bench_suite()[:6]:
            copy = pickle.loads(pickle.dumps(loop.graph))
            a = MirsC(machine, strict=False).schedule(loop.graph)
            b = MirsC(machine, strict=False).schedule(copy)
            assert result_fingerprint(a) == result_fingerprint(b), loop.graph.name


class TestCacheKeys:
    def test_key_stable_across_graph_copies(self):
        graph = LOOPS[0].graph
        assert cache_key(graph, MACHINE, None, "mirsc") == cache_key(
            graph.clone(), MACHINE, MirsParams(), "mirsc"
        )

    def test_key_changes_with_machine(self):
        graph = LOOPS[0].graph
        base = cache_key(graph, MACHINE, None, "mirsc")
        assert base != cache_key(graph, paper_configuration(4, 16), None, "mirsc")
        assert base != cache_key(graph, MACHINE.with_registers(64), None, "mirsc")
        assert base != cache_key(graph, MACHINE.with_move_latency(3), None, "mirsc")
        assert base != cache_key(graph, MACHINE.with_buses(None), None, "mirsc")

    def test_key_changes_with_params(self):
        graph = LOOPS[0].graph
        base = cache_key(graph, MACHINE, MirsParams(), "mirsc")
        assert base != cache_key(
            graph, MACHINE, MirsParams(budget_ratio=4), "mirsc"
        )
        assert base != cache_key(
            graph, MACHINE, MirsParams(spill_gauge=3.0), "mirsc"
        )

    def test_key_changes_with_scheduler_and_graph(self):
        graph = LOOPS[0].graph
        base = cache_key(graph, MACHINE, None, "mirsc")
        assert base != cache_key(graph, MACHINE, None, "baseline")
        assert base != cache_key(LOOPS[1].graph, MACHINE, None, "mirsc")

    def test_key_distinguishes_smt_backend_and_its_params(self):
        from repro.core.params import SmtParams

        graph = LOOPS[0].graph
        heuristic = cache_key(graph, MACHINE, None, "mirsc")
        exact = cache_key(graph, MACHINE, None, "smt")
        assert heuristic != exact
        # Every SmtParams knob is part of the problem's identity.
        assert exact != cache_key(
            graph, MACHINE, MirsParams(smt=SmtParams(step_budget=1)), "smt"
        )
        assert exact != cache_key(
            graph, MACHINE, MirsParams(smt=SmtParams(horizon_stages=5)), "smt"
        )
        assert exact != cache_key(
            graph,
            MACHINE,
            MirsParams(smt=SmtParams(register_bound=False)),
            "smt",
        )

    def test_smt_canonical_resolves_auto_engine(self):
        from repro.core.params import SmtParams

        # "auto" would alias environments with and without z3; the
        # canonical form (and thus every cache key) pins the resolved
        # engine instead.
        payload = MirsParams(smt=SmtParams()).canonical()["smt"]
        assert payload["engine"] in ("native", "z3")
        # params=None defaults must also key identically to explicit
        # defaults under the smt scheduler.
        graph = LOOPS[0].graph
        assert cache_key(graph, MACHINE, None, "smt") == cache_key(
            graph, MACHINE, MirsParams(), "smt"
        )

    def test_key_changes_with_unroll_provenance(self):
        """Different source loops can unroll into the same body and trip
        count (trips 10 and 12 both unroll by 3 into trip 4); the
        simulator's surplus-iteration reporting depends on the source
        trip, so the keys must not alias."""
        import warnings

        from repro import LoopBuilder
        from repro.workloads.unroll import unroll

        def unrolled(trip):
            b = LoopBuilder("prov", trip_count=trip)
            b.store(b.add(b.load(array=0)), array=1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return unroll(b.build(), 3)

        a, b = unrolled(10), unrolled(12)
        assert a.trip_count == b.trip_count == 4
        assert cache_key(a, MACHINE, None, "mirsc") != cache_key(
            b, MACHINE, None, "mirsc"
        )


class TestResolvers:
    def test_resolve_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.warns(RuntimeWarning):
            assert resolve_jobs(None) == 1

    def test_all_cpus_means_the_usable_ones(self, monkeypatch):
        """``jobs=0`` counts the CPUs the process may run on (``taskset
        -c 0`` leaves one), not every CPU of the host."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_jobs(0) == 1

    def test_resolve_cache(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(True) is not None
        explicit = ResultCache(tmp_path)
        assert resolve_cache(explicit) is explicit
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert resolve_cache(None).directory == tmp_path
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert resolve_cache(None) is None
        assert resolve_cache(True) is None

    def test_bench_loop_count_malformed_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_LOOPS", "many")
        with pytest.warns(RuntimeWarning):
            assert bench_loop_count(7) == 7
        monkeypatch.setenv("REPRO_BENCH_LOOPS", "9")
        assert bench_loop_count(7) == 9
        monkeypatch.delenv("REPRO_BENCH_LOOPS")
        assert bench_loop_count(7) == 7


class _RaisingGraph(DependenceGraph):
    """A loop whose scheduling raises (the search clones it first)."""

    def clone(self):
        raise RuntimeError("injected scheduling failure")


class TestFaultIsolation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_loop_keeps_finished_results_cached(self, tmp_path, jobs):
        # Enough loops that a chunked pool map would group the raising
        # loop with others.
        loops = [chain(length) for length in range(1, 18)]
        raising = chain(30)
        raising.__class__ = _RaisingGraph
        executor = SuiteExecutor(jobs=jobs, cache=ResultCache(tmp_path))
        with pytest.raises(RuntimeError, match="injected scheduling failure"):
            executor.run(MACHINE, loops[:3] + [raising] + loops[3:])
        # Every other loop finished and was cached before the error
        # surfaced: a re-run schedules nothing.
        rerun = SuiteExecutor(jobs=jobs, cache=ResultCache(tmp_path))
        results = rerun.run(MACHINE, loops)
        assert rerun.stats.cache_hits == len(loops)
        assert rerun.stats.scheduled == 0
        fresh = SuiteExecutor(jobs=1, cache=False).run(MACHINE, loops)
        assert fingerprints(results) == fingerprints(fresh)

    def test_killed_worker_costs_only_its_loop(self, tmp_path, monkeypatch):
        loops = [chain(length) for length in range(1, 8)]
        victim = chain(30)  # the only loop of its size
        suite = loops[:3] + [victim] + loops[3:]
        parent = os.getpid()
        real_make_engine = engine_module.make_engine

        def make_engine(machine, request=None):
            # Inherited by the forked workers; only there does the
            # engine SIGKILL its own process on the victim loop.
            engine = real_make_engine(machine, request)
            if os.getpid() != parent:
                schedule = engine.schedule

                def schedule_or_die(graph):
                    if len(graph) == len(victim):
                        os.kill(os.getpid(), signal.SIGKILL)
                    return schedule(graph)

                engine.schedule = schedule_or_die
            return engine

        monkeypatch.setattr(engine_module, "make_engine", make_engine)
        executor = SuiteExecutor(jobs=2, cache=ResultCache(tmp_path))
        with deadline(60), pytest.raises(
            WorkerDiedError, match=r"died without a result \(exit code -9\)"
        ):
            executor.run(MACHINE, suite)
        monkeypatch.undo()
        # Every other loop finished and was cached: the re-run schedules
        # the victim alone.
        rerun = SuiteExecutor(jobs=2, cache=ResultCache(tmp_path))
        with deadline(60):
            results = rerun.run(MACHINE, suite)
        assert rerun.stats.cache_hits == len(loops)
        assert rerun.stats.scheduled == 1
        fresh = SuiteExecutor(jobs=1, cache=False).run(MACHINE, suite)
        assert fingerprints(results) == fingerprints(fresh)


class TestProgressAndHistory:
    def test_progress_callback_and_suite_summary(self, tmp_path):
        seen = []
        executor = SuiteExecutor(
            cache=ResultCache(tmp_path),
            progress=lambda done, total, name, hit: seen.append(
                (done, total, hit)
            ),
        )
        executor.run(MACHINE, LOOPS)
        assert [s[0] for s in seen] == [1, 2, 3, 4]
        assert all(not hit for _, _, hit in seen)
        executor.run(MACHINE, LOOPS)
        assert [hit for _, _, hit in seen[4:]] == [True] * 4

        assert len(executor.history) == 2
        summary = executor.history[1]
        assert summary.cache_hits == 4
        assert summary.scheduled == 0
        assert summary.machine == MACHINE.name
        assert summary.sum_ii == executor.history[0].sum_ii
        payload = summary.as_dict()
        assert payload["scheduler"] == "mirsc"
        assert executor.stats.hit_rate == 0.5
