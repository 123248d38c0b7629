"""Resumable attempt tasks and the II search over them.

The paper's driver (Figure 4) explores the II ladder one attempt at a
time, yet every fixed-II attempt is an independent subproblem: it needs
only the pristine graph, the HRMS priorities, the machine and the
parameter set.  This module makes that subproblem a first-class,
picklable value:

* :class:`AttemptTask` — everything one attempt needs, shippable to
  another process (or, later, another machine);
* :class:`AttemptResult` — the structured
  :class:`~repro.core.search.AttemptOutcome` plus, when the attempt
  scheduled, a serialized :class:`FeasibleState` that
  :class:`~repro.core.mirsc.MirsC` can finalize without re-running the
  attempt;
* :class:`AttemptEngine` — the fixed-II attempt loop itself (steps
  (1)–(6) of Figure 4), the one code path every runner executes;
* :class:`SerialAttemptRunner` / :class:`PoolAttemptRunner` — pluggable
  executors for attempt tasks (in-process, or raced over per-attempt
  worker processes with revocable cancellation);
* :class:`SpeculativeSearchDriver` — the II search of
  :class:`~repro.core.mirsc.MirsC` at every width K: it walks the
  configured :class:`~repro.core.search.IISearchPolicy` and, for K>1,
  races a frontier of K candidate IIs, retiring every strictly-higher
  in-flight candidate once a lower II completes feasibly.  K=1 over
  the in-process runner is the paper's serial ladder.

Attempts are never memoized: like the paper's ``Re_Initialize(II++)``,
every search runs its attempts from scratch.  The one schedule cache is
the suite-level :class:`~repro.exec.cache.ResultCache`, keyed by the
whole scheduling problem, so ``cache=False`` and ``--no-cache`` leave
nothing to read or write anywhere.

Determinism
-----------

The committed result must be bit-identical to the K=1 search's
regardless of completion order.  The driver never trusts arrival order:
after every batch of completions it *replays* the search policy from
``first_ii`` over the completed outcomes.  The replay either runs off
the end (search finished — the committed result is the lowest feasible
II on the replayed path, exactly the serial ladder's choice) or stops at
the first II whose outcome is still unknown; that II anchors the next
frontier.  Speculative candidates beyond the anchor are predicted by
feeding the same policy a conservative synthetic failure
(:func:`predicted_failure`) for each not-yet-completed II, so the
frontier follows the policy's own trajectory.  Mispredicted attempts are
cancelled (or simply ignored by the replay) — they can change wall-clock
time and ``stats.search_trace``, never the schedule.
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing

from repro.cluster.moves import add_move, next_needed_move
from repro.cluster.selection import select_cluster
from repro.core.params import MirsParams, final_round_cap
from repro.core.scheduling import schedule_node
from repro.core.search import (
    AttemptOutcome,
    OutcomeKind,
    bounds_eject_churn,
    predicted_failure,
)
from repro.core.state import SchedulerState, SchedulerStats
from repro.errors import SchedulingError
from repro.exec.workers import Workers
from repro.graph.ddg import DepKind, DependenceGraph
from repro.graph.latency import edge_latency
from repro.machine.config import MachineConfig
from repro.obs.metrics import SearchStats
from repro.obs.tracer import NULL_TRACER, RecordingTracer, Tracer
from repro.schedule.partial import PartialSchedule
from repro.spill.heuristics import check_and_insert_spill


# ----------------------------------------------------------------------
# The attempt-task values
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, eq=False)
class AttemptTask:
    """One fixed-II scheduling attempt, as a self-contained value.

    Attributes:
        graph: the pristine loop (the attempt clones it; the task stays
            reusable).
        machine: target configuration.
        params: algorithm parameters (of the II-search policy they
            carry, a fixed-II attempt reads only whether it bounds
            eject-only churn).
        ii: the II to attempt.
        priorities: HRMS priorities (node id -> priority), computed once
            per search and shared by every task of that search.
        trace: record a per-attempt event trace in the worker and ship
            it back on the :class:`AttemptResult` (see
            :mod:`repro.obs`); tracing never changes what an attempt
            computes.
    """

    graph: DependenceGraph
    machine: MachineConfig
    params: MirsParams
    ii: int
    priorities: dict[int, float]
    trace: bool = False

    def with_ii(self, ii: int) -> AttemptTask:
        return dataclasses.replace(self, ii=ii)


@dataclasses.dataclass
class FeasibleState:
    """The serializable remains of a successful attempt.

    Carries exactly what :meth:`repro.core.mirsc.MirsC._finalize` hands
    the shared finishing path (:func:`repro.core.result.allocate` and
    :func:`repro.core.result.finish`): the mutated graph (spills and
    moves included), the complete partial schedule, the
    spilled-invariant markers, the attempt's counters and the
    incremental memory-operation count.  The live
    :class:`~repro.schedule.pressure.PressureTracker` is detached before
    capture, so the object pickles cleanly across process boundaries.
    """

    ii: int
    graph: DependenceGraph
    schedule: PartialSchedule
    spilled_invariants: set[tuple[int, int]]
    stats: SchedulerStats
    memory_traffic: int

    @classmethod
    def from_state(cls, state: SchedulerState) -> FeasibleState:
        state.pressure.detach()
        return cls(
            ii=state.ii,
            graph=state.graph,
            schedule=state.schedule,
            spilled_invariants=state.spilled_invariants,
            stats=state.stats,
            memory_traffic=state.memory_operation_count(),
        )


@dataclasses.dataclass
class AttemptResult:
    """What one executed :class:`AttemptTask` produced.

    ``feasible`` is ``None`` exactly when ``outcome.scheduled`` is
    false.  ``trace`` is the worker-side event trace
    (:meth:`repro.obs.RecordingTracer.export` payload) when the task
    asked for one — shipped back over the runner's private pipe and
    merged into the parent trace.
    """

    ii: int
    outcome: AttemptOutcome
    feasible: FeasibleState | None = None
    trace: dict | None = None


def run_attempt(task: AttemptTask) -> AttemptResult:
    """Execute one attempt task (every runner's entry point)."""
    tracer: Tracer = NULL_TRACER
    if task.trace:
        tracer = RecordingTracer(tid=f"attempt-ii{task.ii}")
    engine = AttemptEngine(task.machine, task.params, tracer=tracer)
    state, outcome = engine.run(task.graph.clone(), task.ii, task.priorities)
    feasible = FeasibleState.from_state(state) if state is not None else None
    return AttemptResult(
        ii=task.ii,
        outcome=outcome,
        feasible=feasible,
        trace=tracer.export() if task.trace else None,
    )


# ----------------------------------------------------------------------
# The fixed-II attempt loop (Figure 4 steps (1)-(6)), run by every
# attempt runner through run_attempt.
# ----------------------------------------------------------------------


class AttemptEngine:
    """Runs one scheduling attempt at a fixed II (Figure 4's inner loop)."""

    def __init__(
        self,
        machine: MachineConfig,
        params: MirsParams,
        tracer: Tracer = NULL_TRACER,
    ):
        self.machine = machine
        self.params = params
        self.tracer = tracer
        self._bound_churn = bounds_eject_churn(params.ii_search)

    # ------------------------------------------------------------------

    def run(
        self,
        graph: DependenceGraph,
        ii: int,
        priorities: dict[int, float],
    ) -> tuple[SchedulerState | None, AttemptOutcome]:
        """One scheduling attempt at a fixed II.

        Returns ``(state, outcome)``; ``state`` is ``None`` when the
        attempt failed, and ``outcome`` records which of the step-(6)
        restart conditions fired (plus the measured pressure deficit).

        With tracing on, the attempt is one ``attempt`` span carrying
        the outcome kind and the attempt's counters (spans stay at
        attempt granularity — never per placement — so the disabled
        path costs nothing measurable).
        """
        tracer = self.tracer
        state = SchedulerState(
            graph, self.machine, ii, priorities, self.params, tracer=tracer
        )
        if not tracer.enabled:
            return self._drive(state)
        token = tracer.begin("attempt", "schedule", ii=ii)
        final_state, outcome = self._drive(state)
        stats = state.stats
        tracer.end(
            token,
            kind=outcome.kind.value,
            scheduled=outcome.scheduled,
            rounds=outcome.final_rounds,
            budget_left=outcome.budget_left,
            deficit=sum(outcome.pressure_deficit.values()),
            ejections=stats.ejections,
            spills=stats.spill_stores_added + stats.spill_loads_added,
            invariant_spills=stats.invariant_spills,
            moves_added=stats.moves_added,
            nodes_scheduled=stats.nodes_scheduled,
            pressure_queries=state.pressure.queries,
            allocator_queries=(
                0 if state.colouring is None else state.colouring.queries
            ),
        )
        return final_state, outcome

    def _drive(
        self, state: SchedulerState
    ) -> tuple[SchedulerState | None, AttemptOutcome]:
        final_rounds = 0
        max_final_rounds = final_round_cap(
            self.machine.clusters, len(state.graph)
        )

        while True:
            if state.pl.empty():
                # Steps (4)+(5) in the drained regime: true register
                # allocation, then spill/balance/eject until it fits.
                acted = self._checked_spill(state, final=True)
                if state.pl.empty():
                    if state.fits_registers():
                        return state, self._outcome(
                            state, OutcomeKind.SCHEDULED, final_rounds
                        )
                    final_rounds += 1
                    if not acted:
                        return None, self._outcome(
                            state,
                            OutcomeKind.REGISTER_INFEASIBLE,
                            final_rounds,
                        )
                    if final_rounds > max_final_rounds:
                        return None, self._outcome(
                            state, OutcomeKind.ROUND_CAP, final_rounds
                        )
                    continue
                if self._churned_out(state, max_final_rounds):
                    return None, self._outcome(
                        state, OutcomeKind.ROUND_CAP, final_rounds
                    )

            # Step (6): Restart_Schedule conditions.
            if state.budget <= 0:
                return None, self._outcome(
                    state, OutcomeKind.BUDGET_EXHAUSTED, final_rounds
                )
            if state.memory_traffic_infeasible():
                return None, self._outcome(
                    state, OutcomeKind.TRAFFIC_INFEASIBLE, final_rounds
                )

            # Step (2): pick the highest-priority node.
            node_id = state.pl.pop()
            if node_id not in state.graph:
                continue  # removed move still queued
            if state.schedule.is_scheduled(node_id):
                continue
            node = state.graph.node(node_id)

            if node.is_move:
                self._reschedule_move(state, node_id)
                state.budget -= 1
                continue

            # Step (C1): cluster selection.
            cluster = select_cluster(state, node)

            # Step (C2): insert and schedule the needed moves.
            guard = 0
            while True:
                plan = next_needed_move(state, node, cluster)
                if plan is None:
                    break
                move = add_move(state, plan)
                schedule_node(state, move, plan.dst_cluster)
                guard += 1
                if guard > 4 * self.machine.clusters + 8:
                    # Communication livelock: burn budget so the restart
                    # rule eventually fires.
                    state.budget -= guard
                    break

            # Step (3): schedule U itself.
            schedule_node(state, node, cluster)

            # Steps (4)+(5): register pressure check after every
            # placement (gauged regime).
            self._checked_spill(state, final=False)
            if self._churned_out(state, max_final_rounds):
                return None, self._outcome(
                    state, OutcomeKind.ROUND_CAP, final_rounds
                )
            state.budget -= 1

    # ------------------------------------------------------------------

    def _pressure_deficit(self, state: SchedulerState) -> dict[int, int]:
        """Per-cluster ``MaxLive - AR`` (positive entries only)."""
        available = state.machine.cluster.registers
        if available is None:
            return {}
        return {
            cluster: live - available
            for cluster, live in sorted(state.pressure.max_live_all().items())
            if live > available
        }

    def _outcome(
        self, state: SchedulerState, kind: OutcomeKind, final_rounds: int = 0
    ) -> AttemptOutcome:
        suggested = state.ii + 1
        if kind is OutcomeKind.TRAFFIC_INFEASIBLE:
            suggested = state.suggested_restart_ii()
        return AttemptOutcome(
            ii=state.ii,
            kind=kind,
            pressure_deficit=(
                {} if kind is OutcomeKind.SCHEDULED
                else self._pressure_deficit(state)
            ),
            registers_available=state.machine.cluster.registers,
            budget_left=state.budget,
            suggested_ii=suggested,
            final_rounds=final_rounds,
        )

    # ------------------------------------------------------------------

    def _checked_spill(self, state: SchedulerState, *, final: bool) -> bool:
        """Run the spill check, tracking eject-only churn when bounded.

        With ``bound_eject_churn`` off (the paper-exact default) this is
        exactly ``check_and_insert_spill``.  With it on, consecutive
        checks whose only action was a critical-row ejection are
        counted: an eject-and-replace cycle makes no measurable
        progress (no spill, no balance move — the victim goes straight
        back to the slot pool), yet the paper's driver bounds it only
        by the restart budget, which takes thousands of placements to
        drain.  The counter resets whenever a check spills or balances.
        """
        if not self._bound_churn:
            return check_and_insert_spill(state, final=final)
        stats = state.stats
        progress_before = (
            stats.spill_stores_added + stats.spill_loads_added
            + stats.invariant_spills + stats.balance_shifts
        )
        ejections_before = stats.ejections
        acted = check_and_insert_spill(state, final=final)
        if acted:
            progressed = (
                stats.spill_stores_added + stats.spill_loads_added
                + stats.invariant_spills + stats.balance_shifts
            ) != progress_before
            if progressed:
                state.eject_churn_run = 0
            elif stats.ejections > ejections_before:
                state.eject_churn_run += 1
        return acted

    def _churned_out(self, state: SchedulerState, cap: int) -> bool:
        """True when bounded eject-only churn exceeded the round cap."""
        return self._bound_churn and state.eject_churn_run > cap

    # ------------------------------------------------------------------

    def _reschedule_move(self, state: SchedulerState, move_id: int) -> None:
        """Re-place a move that was ejected by a resource conflict.

        The paper re-validates communication decisions when operations
        are picked up again: a move whose endpoints changed or vanished
        is removed, and the ordinary Need_Move machinery recreates it
        later if it is still required.
        """
        move = state.graph.node(move_id)
        consumers = [
            e.dst
            for e in state.graph.out_edges(move_id)
            if e.kind is DepKind.REG and state.schedule.is_scheduled(e.dst)
        ]
        if not consumers:
            state.remove_move(move_id)
            return

        # The value must arrive where the consumer *reads* it: a consumer
        # that is itself a move (a chained communication) reads in its
        # declared source cluster, not in the cluster it executes in.
        def read_cluster(consumer_id: int) -> int:
            consumer = state.graph.node(consumer_id)
            if consumer.is_move and consumer.src_cluster is not None:
                return consumer.src_cluster
            return state.schedule.cluster(consumer_id)

        dst_cluster = read_cluster(consumers[0])
        # One move serves one destination cluster.  Consumers re-placed
        # into *other* clusters while this move sat unscheduled would be
        # silently left reading cross-cluster by whatever is decided
        # below (removal reconnects them straight to the producer);
        # eject them instead, so the ordinary Need_Move machinery
        # re-creates their communication when they are picked up again.
        # (Surfaced by the paper-scale suite: reduction loops on the
        # clustered machines.)
        for consumer_id in consumers[1:]:
            if state.schedule.is_scheduled(consumer_id) and (
                read_cluster(consumer_id) != dst_cluster
            ):
                state.eject_node(consumer_id)
        if move.move_of_invariant is None:
            producers = [
                e.src
                for e in state.graph.in_edges(move_id)
                if e.kind is DepKind.REG
            ]
            if not producers or not state.schedule.is_scheduled(producers[0]):
                state.remove_move(move_id)
                return
            src_cluster = state.schedule.cluster(producers[0])
            if src_cluster == dst_cluster:
                # Removal reconnects the (scheduled) consumers straight
                # to the (scheduled) producer; while the move sat off
                # schedule its chain imposed no timing constraint, so
                # the merged direct edge may be violated at the current
                # placements.  Eject such consumers - they re-place
                # against the restored dependence.  (Also surfaced by
                # the paper-scale suite.)
                state.remove_move(move_id)
                self._eject_violated_consumers(
                    state, producers[0], consumers
                )
                return
            move.src_cluster = src_cluster
        schedule_node(state, move, dst_cluster)

    def _eject_violated_consumers(
        self, state: SchedulerState, producer: int, consumers: list[int]
    ) -> None:
        """Eject scheduled consumers whose direct edge from ``producer``
        is violated (used after a move removal merges edges between
        scheduled endpoints)."""
        schedule = state.schedule
        if not schedule.is_scheduled(producer):
            return
        start = schedule.time(producer)
        ii = state.ii
        for consumer_id in dict.fromkeys(consumers):
            if consumer_id == producer:
                continue
            if not schedule.is_scheduled(consumer_id):
                continue
            consumer_time = schedule.time(consumer_id)
            for edge in state.graph.out_edges(producer):
                if edge.dst != consumer_id:
                    continue
                latency = edge_latency(state.graph, edge, state.machine)
                if consumer_time - start - latency + ii * edge.distance < 0:
                    state.eject_node(consumer_id)
                    break


# ----------------------------------------------------------------------
# Attempt runners
# ----------------------------------------------------------------------


class AttemptRunner:
    """The execution contract the speculative driver programs against.

    A runner holds at most one in-flight attempt per II.  ``submit``
    enqueues a task; ``wait(needed_ii)`` blocks until at least one
    in-flight attempt completes (the needed II must be in flight);
    ``cancel`` revokes in-flight attempts — revoked IIs may be
    re-submitted later (a traffic-driven jump can make the serial path
    need an II above a known-feasible one); ``finish`` ends one search,
    discarding whatever is still pending.
    """

    def pending(self) -> set[int]:
        raise NotImplementedError

    def submit(self, task: AttemptTask) -> None:
        raise NotImplementedError

    def wait(self, needed_ii: int) -> list[AttemptResult]:
        raise NotImplementedError

    def cancel(self, iis) -> int:
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError


class SerialAttemptRunner(AttemptRunner):
    """In-process runner: executes only the II the driver actually needs.

    Speculative submissions sit in the queue and are simply never run
    unless they become the needed II, so a search over this runner does
    exactly the serial ladder's work at any K.  It is the runner of
    every K=1 search (``MirsC``'s default) and the always-available
    fallback where nested process pools are impossible (inside
    ``repro.exec`` pool workers, which are daemonic).
    """

    def __init__(self) -> None:
        self._queued: dict[int, AttemptTask] = {}

    def pending(self) -> set[int]:
        return set(self._queued)

    def submit(self, task: AttemptTask) -> None:
        self._queued[task.ii] = task

    def wait(self, needed_ii: int) -> list[AttemptResult]:
        task = self._queued.pop(needed_ii, None)
        if task is None:
            raise SchedulingError(
                f"attempt runner asked to wait on II={needed_ii}, "
                "which was never submitted"
            )
        return [run_attempt(task)]

    def cancel(self, iis) -> int:
        revoked = 0
        for ii in list(iis):
            if self._queued.pop(ii, None) is not None:
                revoked += 1
        return revoked

    def finish(self) -> None:
        self._queued.clear()


class PoolAttemptRunner(AttemptRunner):
    """Races attempts over the kill-safe private-pipe workers of
    :class:`repro.exec.workers.Workers`, keyed by II.

    Revoking an attempt terminates just its worker; warm workers serve
    the suite's next search, so the fork cost is per *revocation*, not
    per attempt.  A worker that dies mid-attempt raises
    :class:`~repro.errors.WorkerDiedError` at :meth:`wait`.
    ``processes`` is the width the runner was sized for; the driver's
    frontier discipline keeps in-flight attempts at or near it, and
    submissions beyond it fork extra workers rather than queue — brief
    over-subscription costs scheduling fairness, never correctness.
    """

    def __init__(self, processes: int):
        self.processes = max(1, processes)
        self._workers = Workers()

    def pending(self) -> set[int]:
        return self._workers.pending()

    def submit(self, task: AttemptTask) -> None:
        self._workers.submit(task.ii, run_attempt, task)

    def wait(self, needed_ii: int) -> list[AttemptResult]:
        if needed_ii not in self._workers.pending():
            raise SchedulingError(
                f"attempt runner asked to wait on II={needed_ii}, "
                "which is not in flight"
            )
        results = [done.result() for done in self._workers.wait()]
        return sorted(results, key=lambda result: result.ii)

    def cancel(self, iis) -> int:
        return self._workers.cancel(iis)

    def finish(self) -> None:
        # Idle workers stay warm for the suite's next search.
        self._workers.cancel(self._workers.pending())

    def close(self) -> None:
        self._workers.close()


_SHARED_RUNNER: PoolAttemptRunner | None = None


def _close_shared_runner() -> None:  # pragma: no cover - atexit plumbing
    global _SHARED_RUNNER
    if _SHARED_RUNNER is not None:
        _SHARED_RUNNER.close()
        _SHARED_RUNNER = None


atexit.register(_close_shared_runner)


def default_runner(speculation: int) -> AttemptRunner:
    """The runner a driver uses when none is injected.

    A process-wide :class:`PoolAttemptRunner` is shared across searches
    (suite runs schedule hundreds of loops; the shared runner carries
    the sizing, growing if a later search asks for more workers).
    Inside a daemonic worker of the ``repro.exec`` suite pool, nested
    process creation is impossible — those get the
    :class:`SerialAttemptRunner`, which produces identical results by
    construction.
    """
    global _SHARED_RUNNER
    if speculation <= 1 or multiprocessing.current_process().daemon:
        return SerialAttemptRunner()
    if _SHARED_RUNNER is not None and _SHARED_RUNNER.processes < speculation:
        _SHARED_RUNNER.close()
        _SHARED_RUNNER = None
    if _SHARED_RUNNER is None:
        _SHARED_RUNNER = PoolAttemptRunner(speculation)
    return _SHARED_RUNNER


# ----------------------------------------------------------------------
# The speculative driver
# ----------------------------------------------------------------------


@dataclasses.dataclass
class SearchResult:
    """What one II search established.

    ``path`` is the serial-equivalent attempt sequence (the replayed
    policy trajectory over real outcomes) — identical at every K.
    ``executed`` holds *every* completed attempt as a ``search_trace``
    dict with an ``on_path`` marker: the path in search order, then the
    speculative extras (``on_path: false``) in II order.  ``best`` is
    the lowest feasible II on the path, or ``None``.
    """

    best: FeasibleState | None
    path: list[AttemptResult]
    executed: list[dict]
    stats: SearchStats


class SpeculativeSearchDriver:
    """Runs one II search over an attempt runner, racing K candidates.

    Args:
        machine: target configuration.
        params: algorithm parameters; ``params.make_search_policy()``
            drives both the committed path and the frontier prediction.
        speculation: frontier width K (1 is the serial ladder: one
            attempt at a time over the in-process runner).
        runner: attempt executor; defaults to :func:`default_runner`.
        tracer: observability sink (see :mod:`repro.obs`); with a
            recording tracer the driver emits the race ledger
            (``race.launch`` / ``race.verify`` / ``race.cancel`` /
            ``race.commit`` instants), asks workers for per-attempt
            traces and merges them back, and synthesizes a span for
            every cancelled attempt — so the merged trace carries
            exactly one ``attempt`` span per launched attempt.
    """

    def __init__(
        self,
        machine: MachineConfig,
        params: MirsParams,
        speculation: int,
        runner: AttemptRunner | None = None,
        tracer: Tracer = NULL_TRACER,
    ):
        self.machine = machine
        self.params = params
        self.speculation = max(1, speculation)
        self.runner = runner if runner is not None else default_runner(
            self.speculation
        )
        self.tracer = tracer

    # ------------------------------------------------------------------

    def search(
        self,
        graph: DependenceGraph,
        priorities: dict[int, float],
        mii: int,
        limit: int,
    ) -> SearchResult:
        """Run one full II search for ``graph``; see the module docstring."""
        tracer = self.tracer
        trace_on = tracer.enabled
        template = AttemptTask(
            graph=graph,
            machine=self.machine,
            params=self.params,
            ii=mii,
            priorities=priorities,
            trace=trace_on,
        )
        policy = self.params.make_search_policy()
        completed: dict[int, AttemptResult] = {}
        launched = 0
        cancelled = 0
        path: list[AttemptResult] = []
        #: Open parent-side span tokens of in-flight attempts; popped
        #: on completion (the worker's own span is merged instead) or
        #: closed with ``cancelled=True`` on revocation.
        tokens: dict[int, object] = {}

        def note_cancelled(iis) -> None:
            if not trace_on:
                return
            for ii in sorted(iis):
                token = tokens.pop(ii, None)
                if token is not None:
                    tracer.end(token, cancelled=True)
                tracer.instant("race.cancel", "race", ii=ii)

        try:
            while True:
                path, attempted, needed = self._replay(
                    policy, completed, mii, limit
                )
                if needed is None:
                    break

                # A completed feasible II retires every strictly-higher
                # in-flight candidate (except the one the path still
                # needs — a traffic jump can place it above a feasible
                # II; revoked IIs may be re-submitted later).
                best_done = min(
                    (
                        result.ii
                        for result in completed.values()
                        if result.outcome.scheduled
                    ),
                    default=None,
                )
                if best_done is not None:
                    losers = {
                        ii
                        for ii in self.runner.pending()
                        if ii > best_done and ii != needed
                    }
                    cancelled += self.runner.cancel(losers)
                    note_cancelled(losers)

                for ii in self._frontier(
                    policy, attempted, needed, completed, mii, limit
                ):
                    if ii in completed or ii in self.runner.pending():
                        continue
                    self.runner.submit(template.with_ii(ii))
                    launched += 1
                    if trace_on:
                        tokens[ii] = tracer.begin("attempt", "race", ii=ii)
                        tracer.instant(
                            "race.launch", "race", ii=ii, needed=needed
                        )

                for result in self.runner.wait(needed):
                    completed[result.ii] = result
                    if trace_on:
                        tokens.pop(result.ii, None)
                        tracer.instant(
                            "race.verify", "race",
                            ii=result.ii,
                            kind=result.outcome.kind.value,
                            scheduled=result.outcome.scheduled,
                        )
                        tracer.merge(result.trace)
        finally:
            leftover = self.runner.pending()
            cancelled += self.runner.cancel(leftover)
            note_cancelled(leftover)
            self.runner.finish()

        best: FeasibleState | None = None
        for result in path:
            if result.outcome.scheduled and result.feasible is not None:
                if best is None or result.feasible.ii < best.ii:
                    best = result.feasible
        on_path = {result.ii for result in path}
        executed = [
            dict(result.outcome.as_trace_entry(), on_path=True)
            for result in path
        ] + [
            dict(completed[ii].outcome.as_trace_entry(), on_path=False)
            for ii in sorted(completed.keys() - on_path)
        ]
        stats = SearchStats(
            speculation=self.speculation,
            runner=type(self.runner).__name__,
            serial_attempts=len(path),
            executed_attempts=len(completed),
            launched=launched,
            cancelled=cancelled,
        )
        if trace_on:
            if best is not None:
                tracer.instant("race.commit", "race", ii=best.ii)
            stats.emit(tracer, prefix="race")
        return SearchResult(
            best=best, path=path, executed=executed, stats=stats
        )

    # ------------------------------------------------------------------

    def _replay(self, policy, completed, mii, limit):
        """Replay the policy over completed outcomes.

        Returns ``(path, attempted, needed)``: the serial-equivalent
        results consumed so far, the II set the replayed policy issued,
        and the first II whose outcome is unknown (``None`` when the
        replay ran the search to completion).
        """
        path: list[AttemptResult] = []
        attempted: set[int] = set()
        ii = policy.first_ii(mii, limit)
        while ii is not None and mii <= ii <= limit and ii not in attempted:
            attempted.add(ii)
            result = completed.get(ii)
            if result is None:
                return path, attempted, ii
            path.append(result)
            ii = policy.next_ii(result.outcome)
        return path, attempted, None

    def _frontier(self, policy, attempted, needed, completed, mii, limit):
        """The next K IIs worth racing, anchored at ``needed``.

        ``policy`` arrives positioned right after the replay requested
        ``needed``; the frontier extends it by feeding a conservative
        synthetic failure (:func:`predicted_failure`) for each unknown
        II — the policy object is discarded and replayed fresh next
        round, so the speculative feeding never contaminates the
        committed path.  Extension stops at a known-feasible completed
        II (the search can only continue below it, and those IIs are
        already attempted) — this bounds executed attempts by the
        serial count plus K-1.
        """
        frontier = [needed]
        ii = needed
        while len(frontier) < self.speculation:
            outcome = (
                completed[ii].outcome
                if ii in completed
                else predicted_failure(ii)
            )
            if outcome.scheduled:
                break
            ii = policy.next_ii(outcome)
            if ii is None or not (mii <= ii <= limit) or ii in attempted:
                break
            attempted.add(ii)
            if ii not in completed:
                frontier.append(ii)
        return frontier
