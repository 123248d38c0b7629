"""MIRS-C: Modulo scheduling with Integrated Register Spilling and
Cluster assignment - the paper's contribution (Figure 4).

The driver below follows the paper's skeleton step by step::

    Procedure MIRS-C (G) {
      S = empty; II = MII;
      Priority_List = Order_HRMS(G);
      WHILE (!Priority_List.empty()) {
    (1)   Budget = Budget_Ratio * Number_Nodes(G);
    (2)   U = Priority_List.highest_priority();
    (C1)  i = Select_Cluster(G, S, U);
    (C2)  WHILE (Need_Move(G, S, U, i)) {
            move = Add_Move(G, U, i); Schedule(G, S, move, i); }
    (3)   Schedule(G, S, U, i);
    (4)   IF (Priority_List.empty()) Register_Allocation(G, S);
    (5)   Check_and_Insert_Spill(G, S, Priority_List);
    (6)   IF (Restart_Schedule(G, Budget)) {
            Re_Initialize(II++, S, Priority_List); GOTO (1); }
          Budget--;
      }
    (7) Print(II, S);
    }

The fixed-II inner loop (steps (1)-(6)) lives in
:class:`repro.core.attempts.AttemptEngine`.  Step (6)'s restart ladder
(``Re_Initialize(II++)``, or any registered
:class:`~repro.core.search.IISearchPolicy`) has one implementation, the
:class:`~repro.core.attempts.SpeculativeSearchDriver`, at every
speculation width K: K=1 runs it over the in-process
:class:`~repro.core.attempts.SerialAttemptRunner` (one attempt at a
time, exactly the paper's ladder), K>1 races K candidate IIs over a
process pool with bit-identical committed results.  The policy and K
are read from the parameters (``params.ii_search`` and
``params.speculation``); the scheduler has no other way to set them.

On a single-cluster machine steps C1/C2 degenerate (the cluster is always
0 and no moves are ever needed) and the algorithm *is* MIRS [33], the
non-clustered variant - exposed as :class:`Mirs` for clarity.
"""

from __future__ import annotations

import time

from repro.errors import ConvergenceError, SchedulingError
from repro.core.attempts import SearchResult, SpeculativeSearchDriver
from repro.core.params import MirsParams, max_ii_for
from repro.core.result import ScheduleResult, allocate, finish, unconverged
from repro.core.state import SchedulerStats
from repro.graph.ddg import DependenceGraph
from repro.graph.mii import compute_mii
from repro.machine.config import MachineConfig
from repro.obs import resolve_tracer
from repro.obs.metrics import outcome_histogram
from repro.order.hrms import hrms_order


class MirsC:
    """The MIRS-C scheduler.

    Args:
        machine: target configuration.
        params: algorithm parameters (paper defaults when omitted),
            including the II-search policy (``params.ii_search``) and
            the speculative search width K (``params.speculation``).
        strict: with the paper's parameters MIRS-C always converges, so
            hitting the II cap raises :class:`ConvergenceError`; pass
            ``strict=False`` (as the parameter-ablation benchmarks do) to
            get a ``converged=False`` result instead.
        tracer: structured-trace sink — a
            :class:`~repro.obs.Tracer`, ``True`` (process-global
            tracer), ``False`` (off, overriding the environment) or
            ``None`` (follow ``REPRO_TRACE``).  See :mod:`repro.obs`.
    """

    def __init__(
        self,
        machine: MachineConfig,
        params: MirsParams | None = None,
        strict: bool = True,
        tracer=None,
    ):
        self.machine = machine
        self.params = params or MirsParams()
        self.strict = strict
        self.tracer = resolve_tracer(tracer)

    # ------------------------------------------------------------------

    def schedule(self, graph: DependenceGraph) -> ScheduleResult:
        """Schedule one loop; always converges (spilling guarantees it).

        The II ladder is driven by the configured
        :class:`~repro.core.search.IISearchPolicy`: each attempt's
        :class:`~repro.core.search.AttemptOutcome` is fed back to the
        policy, which names the next II (or ends the search).  The
        lowest II whose attempt scheduled wins — its verified state is
        retained, so the accepted schedule never needs a re-run.  The
        full ``(ii, outcome)`` trace lands in
        ``result.stats.search_trace``.

        The search runs through the
        :class:`~repro.core.attempts.SpeculativeSearchDriver` at every
        speculation width K (K>1 races K attempts concurrently and
        cancels the losers); the committed result is
        fingerprint-identical across K by construction, and
        ``result.stats.search`` always carries the driver's ledger.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return self._schedule_inner(graph)
        token = tracer.begin("schedule", "schedule", loop=graph.name)
        try:
            result = self._schedule_inner(graph)
        except Exception as exc:
            tracer.end(token, error=type(exc).__name__)
            raise
        tracer.end(
            token,
            converged=result.converged,
            ii=result.ii,
            mii=result.mii,
            restarts=result.restarts,
        )
        return result

    def _schedule_inner(self, graph: DependenceGraph) -> ScheduleResult:
        tracer = self.tracer
        started = time.perf_counter()
        prepare = (
            tracer.begin("phase.prepare", "schedule", loop=graph.name)
            if tracer.enabled
            else None
        )
        pristine = graph.clone()
        ordering = hrms_order(pristine, self.machine)
        mii = compute_mii(pristine, self.machine)
        limit = max_ii_for(mii, len(pristine), self.params)
        if prepare is not None:
            tracer.end(prepare, mii=mii, limit=limit, nodes=len(pristine))

        speculation = self.params.effective_speculation()
        # Opened before the driver is built: spinning up the attempt
        # pool is part of the search cost, and the phases must tile the
        # schedule span (the summary gates coverage near 1.0).
        search_span = (
            tracer.begin(
                "phase.search", "schedule",
                mii=mii, limit=limit, speculation=speculation,
            )
            if tracer.enabled
            else None
        )
        driver = SpeculativeSearchDriver(
            self.machine, self.params, speculation, tracer=tracer
        )
        found = driver.search(pristine, ordering.priority, mii, limit)
        if search_span is not None:
            tracer.end(
                search_span,
                attempts=len(found.path),
                executed=found.stats.executed_attempts,
                best_ii=None if found.best is None else found.best.ii,
            )
        elapsed = time.perf_counter() - started
        if found.best is None:
            return self._give_up(pristine, mii, limit, found, elapsed)
        return self._finalize(found, mii, elapsed)

    # ------------------------------------------------------------------

    def _give_up(
        self,
        pristine: DependenceGraph,
        mii: int,
        limit: int,
        found: SearchResult,
        elapsed: float,
    ) -> ScheduleResult:
        """Non-convergence: raise (strict) or report (non-strict).

        ``found.path`` is the attempt sequence in search order; under
        jumping policies its last element is *not* the highest II probed
        (geometric backfill descends), so the error carries both.  The
        strict-mode message folds in the failure-kind histogram of the
        attempt trace so the dominant failure mode is visible without
        re-running under a tracer.
        """
        path_iis = [result.ii for result in found.path]
        if self.strict:
            last_ii = path_iis[-1] if path_iis else mii
            highest_ii = max(path_iis, default=mii)
            histogram = outcome_histogram(found.executed)
            detail = ", ".join(
                f"{kind}={count}" for kind, count in histogram.items()
            )
            raise ConvergenceError(
                f"MIRS-C failed to schedule {pristine.name}: no feasible "
                f"II found in {len(path_iis)} attempt(s) up to II="
                f"{highest_ii} (last probed II={last_ii}, cap {limit})"
                + (f"; attempt outcomes: {detail}" if detail else ""),
                last_ii=last_ii,
                highest_ii=highest_ii,
                kind_histogram=histogram,
            )
        return unconverged(
            pristine,
            self.machine,
            ii=limit,
            mii=mii,
            seconds=elapsed,
            restarts=len(path_iis),
            stats=SchedulerStats(
                search_trace=found.executed, search=found.stats
            ),
        )

    # ------------------------------------------------------------------

    def _finalize(
        self, found: SearchResult, mii: int, elapsed: float
    ) -> ScheduleResult:
        feasible = found.best
        assert feasible is not None
        tracer = self.tracer
        finalize_span = (
            tracer.begin("phase.finalize", "schedule", ii=feasible.ii)
            if tracer.enabled
            else None
        )
        stats = feasible.stats
        stats.search_trace = found.executed
        stats.search = found.stats
        times, clusters = feasible.schedule.placements()
        result = finish(
            "MIRS-C",
            allocate(
                feasible.graph, self.machine, feasible.ii, times, clusters,
                feasible.spilled_invariants,
            ),
            mii=mii,
            # The path attempts that did not produce the accepted schedule
            # (= the failed attempts under linear search).
            restarts=len(found.path) - 1,
            memory_traffic=feasible.memory_traffic,
            stats=stats,
            seconds=elapsed,
        )
        if finalize_span is not None:
            tracer.end(
                finalize_span,
                registers=result.total_registers_used,
                spills=result.spill_operations,
                moves=result.move_operations,
            )
        return result


class Mirs(MirsC):
    """MIRS - the non-clustered special case of MIRS-C [33].

    On a single-cluster machine MIRS-C's cluster steps are inert, so MIRS
    is implemented as MIRS-C restricted to ``clusters == 1``; constructing
    it with a clustered machine is an error.
    """

    def __init__(
        self,
        machine: MachineConfig,
        params: MirsParams | None = None,
        strict: bool = True,
        tracer=None,
    ):
        if machine.clusters != 1:
            raise SchedulingError(
                "Mirs targets unified (single-cluster) machines; "
                "use MirsC for clustered configurations"
            )
        super().__init__(machine, params=params, strict=strict, tracer=tracer)
