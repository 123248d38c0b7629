"""The suite-execution engine.

:class:`SuiteExecutor` turns "run this scheduler over these loops on
this machine" into a shardable, memoizable job list:

1. every loop's scheduling problem is keyed by a stable content hash
   (:func:`repro.exec.hashing.cache_key`) and probed against the
   on-disk :class:`~repro.exec.cache.ResultCache`;
2. the misses are scheduled — sequentially for ``jobs=1`` (the exact
   historical code path: one scheduler instance, loops in order), or
   with up to ``jobs`` loops in flight on the private-pipe workers of
   :class:`repro.exec.workers.Workers` (one loop per task; a worker
   that dies fails only its own loop);
3. results are reassembled *by position*, so the output order is
   deterministic and identical regardless of worker count or completion
   order, then written back to the cache.

The schedulers are deterministic, so parallel and sequential runs agree
on every field except wall-clock timing; tests pin this with
:func:`repro.exec.hashing.result_fingerprint`.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import time
from collections.abc import Callable, Iterator, Sequence

from repro.core.request import ScheduleRequest
from repro.core.result import ScheduleResult
from repro.env import int_env
from repro.exec.cache import ResultCache, resolve_cache
from repro.exec.hashing import cache_key
from repro.exec.workers import Workers
from repro.graph.ddg import DependenceGraph
from repro.machine.config import MachineConfig
from repro.obs import resolve_tracer

JOBS_ENV = "REPRO_JOBS"

#: Callback invoked after each loop completes:
#: ``progress(done, total, loop_name, from_cache)``.
ProgressFn = Callable[[int, int, str, bool], None]


def resolve_jobs(jobs: int | None = None) -> int:
    """Normalise a worker count.

    ``None`` falls back to the ``REPRO_JOBS`` environment variable and
    then to 1 (sequential); 0 or a negative count means "one worker per
    usable CPU" (see :func:`usable_cpus`).
    """
    if jobs is None:
        jobs = int_env(
            JOBS_ENV, 1, fallback_note="running sequentially (jobs=1)"
        )
    if jobs <= 0:
        return usable_cpus()
    return jobs


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (``taskset`` narrows it below the host's count),
    else the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def make_engine(
    machine: MachineConfig,
    request: ScheduleRequest | None = None,
):
    """Instantiate the scheduler of a :class:`ScheduleRequest`.

    Non-strict: off-default parameter ablations (e.g. a starved budget)
    may legitimately fail to converge; the aggregations already handle
    unconverged entries.
    """
    return (request or ScheduleRequest()).make_scheduler(
        machine, strict=False
    )


def _schedule_loop(
    item: tuple[MachineConfig, ScheduleRequest, DependenceGraph],
) -> tuple[ScheduleResult, dict | None]:
    """Schedule one loop in a worker, shipping its trace slice back.

    With tracing on, the engine records into the worker's own
    process-global tracer (tracer objects never cross the pipe);
    draining it after the loop ships exactly that loop's events back
    with the result, where the parent merges them under a per-position
    ``worker:N`` thread id.
    """
    machine, request, graph = item
    engine = make_engine(machine, request)
    result = engine.schedule(graph)
    payload = None
    tracer = getattr(engine, "tracer", None)
    if getattr(tracer, "enabled", False):
        payload = tracer.drain()
    return result, payload


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------


@dataclasses.dataclass
class ExecStats:
    """Cumulative counters over every :meth:`SuiteExecutor.run` call."""

    loops: int = 0
    scheduled: int = 0
    cache_hits: int = 0
    wall_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.loops if self.loops else 0.0


@dataclasses.dataclass
class SuiteSummary:
    """Machine-readable record of one suite execution.

    The benchmark harness collects these into ``BENCH_suite.json`` so
    successive commits have a perf trajectory to compare against.
    """

    machine: str
    scheduler: str
    loops: int
    converged: int
    sum_ii: int
    sum_traffic: int
    scheduling_seconds: float
    wall_seconds: float
    scheduled: int
    cache_hits: int
    jobs: int

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


class SuiteExecutor:
    """Shards suite scheduling over workers, memoizing every result.

    Args:
        jobs: worker processes (see :func:`resolve_jobs`; default 1,
            i.e. the sequential code path).
        cache: a :class:`ResultCache`, ``True`` for the default cache,
            ``False`` to disable, ``None`` to follow the environment
            (see :func:`repro.exec.cache.resolve_cache`).
        progress: optional per-loop completion callback.

    One executor may serve many :meth:`run` calls (the experiment
    drivers issue one per machine configuration); ``stats`` accumulates
    across them and ``history`` records one summary per call.
    """

    def __init__(
        self,
        jobs: int | None = None,
        cache: ResultCache | bool | None = None,
        progress: ProgressFn | None = None,
    ):
        self.jobs = resolve_jobs(jobs)
        self.cache = resolve_cache(cache)
        self.progress = progress
        self.stats = ExecStats()
        self.history: list[SuiteSummary] = []

    # ------------------------------------------------------------------

    def run(
        self,
        machine: MachineConfig,
        loops: Sequence,
        request: ScheduleRequest | None = None,
        graphs: Sequence[DependenceGraph] | None = None,
    ) -> list[ScheduleResult]:
        """Schedule every loop, in order; see module docstring.

        ``loops`` holds workbench :class:`SuiteLoop` entries (anything
        with a ``.graph``) or bare dependence graphs; ``graphs``
        optionally replaces them position-for-position (the prefetching
        experiments re-latency the loads this way).
        """
        request = request or ScheduleRequest()
        scheduler_name = request.scheduler
        tracer = resolve_tracer(request.trace)
        started = time.perf_counter()
        work: list[DependenceGraph] = []
        for position, loop in enumerate(loops):
            if graphs is not None:
                work.append(graphs[position])
            else:
                work.append(getattr(loop, "graph", loop))

        # Fail fast on an unknown scheduler, before workers or cache IO.
        make_engine(machine, request)

        suite_span = (
            tracer.begin(
                "exec.suite", "exec",
                machine=machine.name, scheduler=scheduler_name,
                loops=len(work), jobs=self.jobs,
            )
            if tracer.enabled
            else None
        )
        results: dict[int, ScheduleResult] = {}
        keys: dict[int, str] = {}
        if self.cache is not None:
            for position, graph in enumerate(work):
                keys[position] = cache_key(
                    graph, machine, request.params, scheduler_name
                )
                cached = self.cache.get(keys[position])
                if cached is not None:
                    results[position] = cached
                if tracer.enabled:
                    tracer.instant(
                        "exec.cache", "exec",
                        loop=graph.name, hit=cached is not None,
                    )
        hits = len(results)
        misses = [(p, graph) for p, graph in enumerate(work) if p not in results]

        done = hits
        total = len(work)
        if self.progress is not None:
            for count, position in enumerate(sorted(results), start=1):
                self.progress(count, total, results[position].loop, True)

        if misses:
            if self.jobs > 1 and len(misses) > 1:
                fresh = self._run_parallel(machine, request, misses, tracer)
            else:
                fresh = self._run_sequential(
                    machine, request, misses, tracer, started
                )
            # Cached as each result arrives.  A raising loop does not
            # stop the others: the runners finish the sweep and re-raise
            # the first error last, so every finished loop stays cached.
            for position, result in fresh:
                results[position] = result
                if self.cache is not None:
                    self.cache.put(keys[position], result)
                done += 1
                if self.progress is not None:
                    self.progress(done, total, result.loop, False)

        ordered = [results[position] for position in range(total)]
        wall = time.perf_counter() - started
        if suite_span is not None:
            tracer.end(
                suite_span, scheduled=len(misses), cache_hits=hits,
            )
        self._record(
            machine, scheduler_name, ordered,
            scheduled=len(misses), hits=hits,
            wall=wall,
        )
        return ordered

    # ------------------------------------------------------------------

    def _run_sequential(
        self,
        machine: MachineConfig,
        request: ScheduleRequest,
        misses: list[tuple[int, DependenceGraph]],
        tracer,
        started: float,
    ) -> Iterator[tuple[int, ScheduleResult]]:
        # The engine inherits the resolved tracer directly, so its
        # schedule/attempt spans land in the parent trace unmediated.
        engine = make_engine(
            machine, dataclasses.replace(request, trace=tracer)
        )
        failure: Exception | None = None
        for position, graph in misses:
            if tracer.enabled:
                tracer.instant(
                    "exec.queue", "exec",
                    loop=graph.name, position=position,
                    wait=round(time.perf_counter() - started, 6),
                )
            try:
                result = engine.schedule(graph)
            except Exception as exc:  # keep the rest of the sweep
                failure = failure or exc
                continue
            yield position, result
        if failure is not None:
            raise failure

    def _run_parallel(
        self,
        machine: MachineConfig,
        request: ScheduleRequest,
        misses: list[tuple[int, DependenceGraph]],
        tracer,
    ) -> Iterator[tuple[int, ScheduleResult]]:
        # Tracer objects never cross the pipe: the workers see a plain
        # True/False and record into their own global tracers, shipping
        # each loop's slice back with its result.
        wire = dataclasses.replace(request, trace=bool(tracer.enabled))
        queue = iter(misses)
        payloads: list[tuple[int, dict]] = []
        failure: Exception | None = None
        with Workers() as workers:

            def launch(count: int) -> None:
                for position, graph in itertools.islice(queue, count):
                    workers.submit(
                        position, _schedule_loop, (machine, wire, graph)
                    )

            # At most ``jobs`` loops in flight, one loop per task,
            # yielded in completion order (the caller files results by
            # position); a loop's error, or its worker's death, is held
            # back until the others are in.
            launch(self.jobs)
            while workers.pending():
                for done in workers.wait():
                    launch(1)
                    try:
                        result, payload = done.result()
                    except Exception as exc:  # one loop's error; keep the rest
                        failure = failure or exc
                        continue
                    if payload is not None:
                        payloads.append((done.key, payload))
                    yield done.key, result
        if failure is not None:
            raise failure
        # Completion order is load-dependent; the merged trace follows
        # positional order so traces stay deterministic modulo
        # timestamps regardless of completion order.
        if tracer.enabled:
            for position, payload in sorted(payloads, key=lambda item: item[0]):
                tracer.merge(payload, tid=f"worker:{position}")

    # ------------------------------------------------------------------

    def _record(
        self,
        machine: MachineConfig,
        scheduler: str,
        results: list[ScheduleResult],
        *,
        scheduled: int,
        hits: int,
        wall: float,
    ) -> None:
        self.stats.loops += len(results)
        self.stats.scheduled += scheduled
        self.stats.cache_hits += hits
        self.stats.wall_seconds += wall
        converged = [r for r in results if r.converged]
        self.history.append(
            SuiteSummary(
                machine=machine.name,
                scheduler=scheduler,
                loops=len(results),
                converged=len(converged),
                sum_ii=sum(r.ii for r in converged),
                sum_traffic=sum(r.memory_traffic for r in converged),
                scheduling_seconds=round(
                    sum(r.scheduling_seconds for r in results), 6
                ),
                wall_seconds=round(wall, 6),
                scheduled=scheduled,
                cache_hits=hits,
                jobs=self.jobs,
            )
        )
