"""Tests for the structured tracing + metrics subsystem (repro.obs).

The contracts pinned here:

* the :class:`NullTracer` default records nothing and every hook is
  safe to call unconditionally;
* :class:`RecordingTracer` event streams are deterministic modulo
  timestamps: two serial runs of the same schedule agree on every
  ``(name, cat, kind, tid, args)`` tuple in order;
* tracing never changes the answer: workbench fingerprints with a
  tracer attached equal the committed untraced capture;
* the JSONL and Chrome exports validate against the committed
  ``trace_schema.json``;
* the speculative race keeps exactly one ``attempt`` span per launched
  attempt (completed attempts merged from the worker, cancelled ones
  synthesized and marked), with the executed-attempt bound of the
  cancellation accounting;
* ``SchedulerStats.search`` is the typed ledger at every width K
  (K=1 included); :class:`ConvergenceError` carries the failure-kind
  histogram; ``repro trace summary`` covers ≥95% of schedule time.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import UNIFIED, daxpy, random_graph, wide
from repro import (
    MirsC,
    MirsParams,
    RecordingTracer,
    ScheduleRequest,
    compute_mii,
    hrms_order,
    parse_config,
    resolve_tracer,
)
from repro.core.attempts import SpeculativeSearchDriver
from repro.core.params import max_ii_for
from repro.errors import ConvergenceError
from repro.eval.runner import schedule_suite
from repro.exec import SuiteExecutor, result_fingerprint
from repro.exec.cache import ResultCache
from repro.obs import NULL_TRACER, NullTracer, SearchStats, outcome_histogram
from repro.obs.export import (
    chrome_path_for,
    chrome_payload,
    read_jsonl,
    validate_chrome,
    validate_jsonl,
    validate_trace_file,
    write_chrome,
    write_jsonl,
)
from repro.obs.summary import summarize, summarize_file


def event_shapes(tracer: RecordingTracer) -> list[tuple]:
    """The deterministic projection of a trace (everything but time)."""
    return [
        (e.name, e.cat, e.kind, e.tid, e.args) for e in tracer.events
    ]


# ----------------------------------------------------------------------
# Tracer primitives
# ----------------------------------------------------------------------


class TestNullTracer:
    def test_is_disabled_and_inert(self):
        tracer = NullTracer()
        assert tracer.enabled is False
        token = tracer.begin("x", "schedule", ii=3)
        tracer.end(token, kind="scheduled")
        tracer.instant("y", "race")
        tracer.counter("z", 7)
        tracer.merge({"events": [{"name": "n"}]})
        assert not hasattr(tracer, "events")

    def test_resolution(self, monkeypatch):
        import repro.obs as obs

        monkeypatch.delenv(obs.TRACE_ENV, raising=False)
        recording = RecordingTracer()
        assert resolve_tracer(recording) is recording
        assert resolve_tracer(False) is NULL_TRACER
        assert resolve_tracer(None) is NULL_TRACER
        monkeypatch.setattr(obs, "_GLOBAL_TRACER", None)
        monkeypatch.setenv(obs.TRACE_ENV, "/tmp/unused-trace.jsonl")
        via_env = resolve_tracer(None)
        assert via_env.enabled
        assert resolve_tracer(True) is via_env
        # False beats the environment.
        assert resolve_tracer(False) is NULL_TRACER
        with pytest.raises(TypeError):
            resolve_tracer(42)


class TestRecordingTracer:
    def test_span_args_merge_and_seq_is_dense(self):
        tracer = RecordingTracer()
        token = tracer.begin("attempt", "schedule", ii=5, rounds=1)
        tracer.instant("race.launch", "race", ii=5)
        tracer.end(token, rounds=2, kind="scheduled")
        tracer.counter("race.launched", 1)
        assert [e.seq for e in tracer.events] == [0, 1, 2]
        span = tracer.events[1]
        assert span.kind == "span"
        assert span.args == {"ii": 5, "rounds": 2, "kind": "scheduled"}
        assert span.dur >= 0.0
        assert tracer.gauges == {"race.launched": 1}

    def test_merge_rebases_and_renumbers(self):
        parent = RecordingTracer(tid="main")
        parent.instant("a", "exec")
        worker = RecordingTracer(tid="attempt-ii7")
        worker.wall_epoch = parent.wall_epoch + 1.5
        token = worker.begin("attempt", "schedule", ii=7)
        worker.end(token, kind="scheduled")
        parent.merge(worker.export(), tid="worker:0")
        merged = parent.events[-1]
        assert merged.seq == 1
        assert merged.tid == "worker:0"
        assert merged.ts >= 1.5  # the wall-epoch offset re-times it
        # Without an explicit tid the worker's own track is kept.
        parent.merge(worker.export())
        assert parent.events[-1].tid == "attempt-ii7"

    def test_drain_ships_then_forgets(self):
        tracer = RecordingTracer()
        tracer.instant("a", "exec")
        payload = tracer.drain()
        assert [e["name"] for e in payload["events"]] == ["a"]
        assert tracer.events == []
        tracer.instant("b", "exec")
        assert [e["name"] for e in tracer.drain()["events"]] == ["b"]


# ----------------------------------------------------------------------
# Export formats + schema validation
# ----------------------------------------------------------------------


class TestExport:
    def traced_schedule(self, tmp_path):
        tracer = RecordingTracer()
        MirsC(UNIFIED, tracer=tracer).schedule(daxpy())
        path = write_jsonl(tracer, tmp_path / "trace.jsonl")
        return tracer, path

    def test_jsonl_round_trip_validates(self, tmp_path):
        tracer, path = self.traced_schedule(tmp_path)
        header, events = read_jsonl(path)
        assert validate_jsonl(header, events) == []
        assert validate_trace_file(path) == []
        assert len(events) == len(tracer.events)
        assert all("wall" in event for event in events)

    def test_chrome_payload_validates(self, tmp_path):
        tracer, path = self.traced_schedule(tmp_path)
        payload = chrome_payload(tracer)
        assert validate_chrome(payload) == []
        chrome = write_chrome(tracer, chrome_path_for(path))
        assert chrome.name == "trace.chrome.json"
        reloaded = json.loads(chrome.read_text())
        assert validate_chrome(reloaded) == []
        phases = {entry["ph"] for entry in reloaded["traceEvents"]}
        assert "X" in phases  # spans made it through

    def test_validator_rejects_wrong_version_and_broken_seq(self):
        header = {"schema": 999, "tid": "main", "wall_epoch": 0.0}
        event = {
            "seq": 1, "name": "a", "cat": "exec", "kind": "instant",
            "ts": 0.0, "dur": 0.0, "tid": "main", "wall": 0.0, "args": {},
        }
        problems = validate_jsonl(header, [event, dict(event)])
        assert any("schema version" in p for p in problems)
        assert any("not increasing" in p for p in problems)


# ----------------------------------------------------------------------
# Determinism and fingerprint neutrality
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_serial_traces_are_deterministic_modulo_timestamps(self):
        shapes = []
        for _ in range(2):
            tracer = RecordingTracer()
            MirsC(UNIFIED, tracer=tracer).schedule(daxpy())
            shapes.append(event_shapes(tracer))
        assert shapes[0] == shapes[1]

    def test_tracing_does_not_change_workbench_fingerprints(self):
        """Tracing on reproduces the committed untraced capture."""
        import pathlib

        from repro.workloads.perfect import cached_suite

        config = "1-(GP8M4-REG64)"
        expected = json.loads(
            (
                pathlib.Path(__file__).parent
                / "data"
                / "workbench_fingerprints.json"
            ).read_text()
        )[config]
        machine = parse_config(config)
        tracer = RecordingTracer()
        scheduler = MirsC(machine, strict=False, tracer=tracer)
        mismatched = [
            loop.graph.name
            for loop in cached_suite(16)
            if result_fingerprint(scheduler.schedule(loop.graph))
            != expected[loop.graph.name]
        ]
        assert mismatched == []
        assert tracer.events  # the run really was traced


# ----------------------------------------------------------------------
# Speculative race spans (satellite: hypothesis over the pool runner)
# ----------------------------------------------------------------------


class TestRaceSpans:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_one_span_per_launched_attempt_k4(self, seed):
        """K=4 over the pool: every launched attempt gets exactly one
        ``attempt`` span — completed ones merged from the worker (on
        their own ``attempt-iiN`` track), cancelled ones synthesized
        with ``cancelled=True`` — and the executed count respects the
        cancellation-accounting bound (executed < serial + K)."""
        graph = random_graph(seed, size=10 + seed % 6)
        machine = parse_config("1-(GP8M4-REG16)")
        params = MirsParams()
        ordering = hrms_order(graph, machine)
        mii = compute_mii(graph, machine)
        limit = max_ii_for(mii, len(graph), params)
        tracer = RecordingTracer()
        driver = SpeculativeSearchDriver(machine, params, 4, tracer=tracer)
        found = driver.search(graph.clone(), ordering.priority, mii, limit)
        stats = found.stats
        assert type(driver.runner).__name__ == "PoolAttemptRunner"
        assert stats.runner == "PoolAttemptRunner"

        spans = [
            e for e in tracer.events
            if e.name == "attempt" and e.kind == "span"
        ]
        launches = [e for e in tracer.events if e.name == "race.launch"]
        assert len(launches) == stats.launched
        assert len(spans) == stats.launched
        cancelled = [e for e in spans if e.args.get("cancelled")]
        assert len(cancelled) == stats.cancelled
        completed = [e for e in spans if not e.args.get("cancelled")]
        assert len(completed) == stats.executed_attempts
        # Completed spans ride the merged worker tracks and carry the
        # attempt's outcome; each merged span matches a verify instant.
        verified = {
            e.args["ii"] for e in tracer.events if e.name == "race.verify"
        }
        for span in completed:
            assert span.tid == f"attempt-ii{span.args['ii']}"
            assert span.args["ii"] in verified
            assert "kind" in span.args
        # The cancellation-accounting bound of tests/test_attempts.py.
        assert stats.executed_attempts < stats.serial_attempts + 4
        if found.best is not None:
            commits = [
                e.args["ii"] for e in tracer.events
                if e.name == "race.commit"
            ]
            assert commits == [found.best.ii]

    def test_race_counters_mirror_the_typed_ledger(self):
        tracer = RecordingTracer()
        result = MirsC(
            UNIFIED, params=MirsParams(speculation=2), strict=False,
            tracer=tracer,
        ).schedule(daxpy())
        stats = result.stats.search
        assert isinstance(stats, SearchStats)
        for field in ("launched", "cancelled"):
            assert tracer.gauges[f"race.{field}"] == getattr(stats, field)


# ----------------------------------------------------------------------
# Search ledger at K=1 + ConvergenceError histogram
# ----------------------------------------------------------------------


class TestSearchStatsShim:
    def test_serial_shim_is_empty(self):
        """K=1 runs the same driver: the typed ledger is populated and
        records no speculative work."""
        result = MirsC(
            UNIFIED, params=MirsParams(speculation=1), strict=False
        ).schedule(daxpy())
        stats = result.stats.search
        assert isinstance(stats, SearchStats)
        assert (stats.speculation, stats.runner) == (1, "SerialAttemptRunner")
        assert stats.executed_attempts == stats.serial_attempts
        assert stats.cancelled == 0


class BoundedLinear:
    """A linear probe script capped at N attempts (never converges on a
    starved machine, so ``_give_up`` runs)."""

    name = "bounded"

    def __init__(self, attempts: int):
        self.attempts = attempts
        self._count = 0
        self._mii = None

    def first_ii(self, mii, limit):
        self._mii = mii
        self._count = 1
        return mii

    def next_ii(self, outcome):
        if outcome.scheduled or self._count >= self.attempts:
            return None
        self._count += 1
        return self._mii + self._count - 1

    def canonical(self):
        return {"name": self.name, "attempts": self.attempts}


class TestConvergenceHistogram:
    STARVED = parse_config("1-(GP8M4-REG2)")

    def test_strict_error_carries_kind_histogram(self):
        policy = BoundedLinear(3)
        with pytest.raises(ConvergenceError) as err:
            MirsC(
                self.STARVED, params=MirsParams(ii_search=policy)
            ).schedule(wide(8))
        histogram = err.value.kind_histogram
        assert sum(histogram.values()) == 3
        assert all(kind != "scheduled" for kind in histogram)
        assert "attempt outcomes:" in str(err.value)
        for kind, count in histogram.items():
            assert f"{kind}={count}" in str(err.value)

    def test_histogram_helper_sorts_kinds(self):
        entries = [{"kind": "b"}, {"kind": "a"}, {"kind": "b"}, {}]
        assert outcome_histogram(entries) == {
            "a": 1, "b": 2, "unknown": 1
        }

    def test_default_histogram_is_empty(self):
        assert ConvergenceError("gave up", last_ii=3).kind_histogram == {}


# ----------------------------------------------------------------------
# Exec engine events + summary rendering
# ----------------------------------------------------------------------


class TestExecTracing:
    def test_cache_hit_miss_instants(self, tmp_path):
        from repro.workloads.perfect import cached_suite

        machine = parse_config("2-(GP4M2-REG32)")
        loops = cached_suite(3)
        cache = ResultCache(tmp_path)

        cold = RecordingTracer()
        schedule_suite(
            machine, loops, ScheduleRequest(trace=cold),
            session=SuiteExecutor(cache=cache),
        )
        warm = RecordingTracer()
        schedule_suite(
            machine, loops, ScheduleRequest(trace=warm),
            session=SuiteExecutor(cache=cache),
        )
        cold_summary = summarize({}, [e.as_dict() for e in cold.events])
        warm_summary = summarize({}, [e.as_dict() for e in warm.events])
        assert cold_summary.cache_misses == 3
        assert cold_summary.cache_hits == 0
        assert warm_summary.cache_hits == 3
        assert warm_summary.cache_misses == 0
        # Sequential misses record their queue wait.
        assert cold_summary.instants.get("exec.queue") == 3
        suite_spans = [e for e in cold.events if e.name == "exec.suite"]
        assert len(suite_spans) == 1
        assert suite_spans[0].args["loops"] == 3

    def test_parallel_pool_merges_worker_tracks(self):
        from repro.workloads.perfect import cached_suite

        machine = parse_config("2-(GP4M2-REG32)")
        loops = cached_suite(3)
        tracer = RecordingTracer()
        run = schedule_suite(
            machine, loops, ScheduleRequest(trace=tracer),
            session=SuiteExecutor(jobs=2, cache=False),
        )
        untraced = schedule_suite(
            machine, loops, None, session=SuiteExecutor(cache=False)
        )
        assert [result_fingerprint(r) for r in run.results] == [
            result_fingerprint(r) for r in untraced.results
        ]
        worker_tids = {
            e.tid for e in tracer.events if e.tid.startswith("worker:")
        }
        assert worker_tids == {"worker:0", "worker:1", "worker:2"}
        schedules = [e for e in tracer.events if e.name == "schedule"]
        assert len(schedules) == 3


class TestSummary:
    def test_phase_coverage_and_totals(self, tmp_path):
        from repro.workloads.perfect import cached_suite

        machine = parse_config("2-(GP4M2-REG32)")
        tracer = RecordingTracer()
        scheduler = MirsC(machine, strict=False, tracer=tracer)
        for loop in cached_suite(4):
            scheduler.schedule(loop.graph)
        path = write_jsonl(tracer, tmp_path / "suite.jsonl")
        summary = summarize_file(path)
        # The phases tile each schedule span: within 5% of total wall.
        assert summary.phase_coverage == pytest.approx(1.0, abs=0.05)
        assert summary.span_counts["schedule"] == 4
        assert len(summary.attempts) >= 4
        rendered = summary.render()
        assert "Per-phase time breakdown" in rendered
        assert "phase.search" in rendered
        assert "Attempt timeline" in rendered


class TestCliTrace:
    def test_schedule_trace_then_summary(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "cli.jsonl"
        assert main(
            ["schedule", "--config", "1-(GP8M4-REG64)", "--loop", "2",
             "--trace", str(path)]
        ) == 0
        capsys.readouterr()
        assert path.exists()
        assert chrome_path_for(path).exists()
        assert validate_trace_file(path) == []
        assert main(["trace", "summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Per-phase time breakdown" in out
        assert "Attempt timeline" in out

    def test_summary_rejects_invalid_traces(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"schema": 999}) + "\n")
        assert main(["trace", "summary", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err
