"""The exact-scheduling driver: ``scheduler="smt"``.

Runs the fixed-II decision problems of :mod:`repro.smt.problem` on an
ascending II ladder and turns the first feasible verdict into a full
:class:`~repro.core.result.ScheduleResult`: the driver materializes the
moves into the graph, and the finishing path every scheduler shares
(:func:`repro.core.result.allocate` and :func:`repro.core.result.finish`)
allocates the registers, builds the result and re-verifies it with
:func:`repro.core.verify.verify_schedule`.  Every result carries an
``oracle`` dict recording the engine, the per-II certificate ledger and
the proven lower bound:

* ``status="optimal"`` — achieved II == proven lower bound (UNSAT
  certificates at every II below, analytic MII certificate underneath);
* ``status="feasible"`` — a schedule exists but some lower II ended
  ``unknown`` (budget) or satisfiable-yet-unallocatable;
* ``status="unsolved"`` — the ladder hit an ``unknown`` verdict before
  any feasible point;
* ``status="skipped"`` — the loop or machine is outside the backend's
  size gates (``SmtParams.max_nodes``, at most two clusters) or the graph
  is not pristine.

The register bound is MaxLive per cluster; the allocator's arc
colouring may still exceed MaxLive (the paper's footnote 2), in which
case the driver tightens the affected cluster's cap by the overshoot
:func:`~repro.core.result.allocate` reports and re-solves the *same* II
a few times.  Those refinement solves run under tightened caps, so their
UNSAT outcomes are never recorded as optimality certificates — only
first-solve verdicts under the true register file enter the proven
chain.
"""

from __future__ import annotations

import time

from repro.core.params import MirsParams, SmtParams, max_ii_for
from repro.core.result import (
    Allocation,
    ScheduleResult,
    allocate,
    finish,
    unconverged,
)
from repro.core.state import SchedulerStats
from repro.errors import ConvergenceError, SchedulingError
from repro.graph.ddg import DepKind, DependenceGraph
from repro.graph.mii import compute_mii
from repro.machine.config import MachineConfig
from repro.machine.resources import OpKind
from repro.obs import resolve_tracer
from repro.smt import native
from repro.smt.problem import FixedIIProblem

#: Refinement attempts per II when arc colouring exceeds MaxLive.
_COLOURING_RETRIES = 4
#: Machines with more clusters than this are skipped: the cluster
#: assignment space grows as ``K**nodes``.
_MAX_CLUSTERS = 2


class SmtScheduler:
    """Exact modulo scheduler (optimality oracle).

    Mirrors the constructor shape of :class:`repro.core.mirsc.MirsC` so
    :meth:`repro.core.request.ScheduleRequest.make_scheduler` and the
    executor's worker processes can treat all backends uniformly.
    ``strict=False`` (the executor's mode) reports skipped/unsolved
    loops as ``converged=False`` results instead of raising.
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
        self.smt: SmtParams = self.params.effective_smt()
        self.strict = strict
        self.tracer = resolve_tracer(tracer)

    # ------------------------------------------------------------------

    def schedule(self, graph: DependenceGraph) -> ScheduleResult:
        started = time.perf_counter()
        pristine = graph.clone()
        engine = self.smt.effective_engine()
        solve = self._solver(engine)
        mii = compute_mii(pristine, self.machine)

        reason = self._skip_reason(pristine)
        if reason is not None:
            return self._give_up(
                pristine, mii, started, engine,
                status="skipped", reason=reason, certificates=[],
            )

        base_caps = self._register_caps()
        limit = max_ii_for(mii, len(pristine), self.params)
        certificates: list[dict] = []
        if mii > 1:
            # IIs below MII need no solver: ResMII/RecMII is analytic.
            certificates.append(
                {"ii": mii - 1, "verdict": "mii", "steps": 0, "horizon": None}
            )
        proven_lower = mii
        restarts = 0

        span = (
            self.tracer.begin("phase.smt", "schedule", loop=pristine.name)
            if self.tracer.enabled
            else None
        )
        try:
            ii = mii
            while ii <= limit:
                problem = self._problem(pristine, ii, base_caps)
                outcome = solve(problem, self.smt.step_budget)
                certificates.append(
                    {
                        "ii": ii,
                        "verdict": outcome.status,
                        "steps": outcome.steps,
                        "horizon": problem.horizon,
                    }
                )
                if outcome.status == native.UNSAT:
                    if proven_lower == ii:
                        proven_lower = ii + 1
                    restarts += 1
                    ii += 1
                    continue
                if outcome.status == native.UNKNOWN:
                    return self._give_up(
                        pristine, mii, started, engine,
                        status="unsolved",
                        reason=f"step budget exhausted at II={ii}",
                        certificates=certificates,
                        proven_lower=proven_lower,
                        last_ii=ii,
                    )
                allocation = self._accept(
                    pristine, problem, outcome, solve, base_caps, certificates
                )
                if allocation is None:
                    # Satisfiable at the MaxLive bound, but arc colouring
                    # would not fit even after refinement: not a lower-
                    # bound certificate, just an II this driver cannot
                    # realize — ascend.
                    restarts += 1
                    ii += 1
                    continue
                graph = allocation.graph
                result = finish(
                    "exact backend",
                    allocation,
                    mii=mii,
                    restarts=restarts,
                    memory_traffic=sum(
                        1 for n in graph.nodes() if n.kind.is_memory
                    ),
                    stats=SchedulerStats(
                        moves_added=graph.count_kind(OpKind.MOVE),
                        nodes_scheduled=len(allocation.times),
                    ),
                    seconds=time.perf_counter() - started,
                )
                result.oracle = self._oracle(
                    engine,
                    status="optimal" if ii == proven_lower else "feasible",
                    mii=mii,
                    proven_lower=proven_lower,
                    achieved=ii,
                    certificates=certificates,
                )
                return result
            return self._give_up(
                pristine, mii, started, engine,
                status="unsolved",
                reason=f"no feasible II up to the search limit {limit}",
                certificates=certificates,
                proven_lower=proven_lower,
                last_ii=limit,
            )
        finally:
            if span is not None:
                self.tracer.end(span)

    # ------------------------------------------------------------------
    # Guards and bookkeeping
    # ------------------------------------------------------------------

    def _solver(self, engine: str):
        if engine == "z3":
            from repro.smt.z3backend import solve_fixed_ii_z3

            return solve_fixed_ii_z3
        return native.solve_fixed_ii

    def _skip_reason(self, graph: DependenceGraph) -> str | None:
        if self.machine.clusters > _MAX_CLUSTERS:
            return (
                f"{self.machine.clusters} clusters exceed the exact "
                f"backend's gate ({_MAX_CLUSTERS})"
            )
        if len(graph) > self.smt.max_nodes:
            return (
                f"{len(graph)} nodes exceed the exact backend's gate "
                f"({self.smt.max_nodes})"
            )
        for node in graph.nodes():
            if node.is_move or node.is_spill:
                return "graph already contains move/spill nodes"
        return None

    def _register_caps(self) -> dict[int, int] | None:
        if not self.smt.register_bound:
            return None
        registers = self.machine.cluster.registers
        if registers is None:
            return None
        return dict.fromkeys(range(self.machine.clusters), registers)

    def _problem(
        self,
        graph: DependenceGraph,
        ii: int,
        caps: dict[int, int] | None,
    ) -> FixedIIProblem:
        return FixedIIProblem(
            graph,
            self.machine,
            ii,
            horizon_stages=self.smt.horizon_stages,
            register_caps=caps,
        )

    def _oracle(
        self,
        engine: str,
        *,
        status: str,
        mii: int,
        proven_lower: int,
        achieved: int | None,
        certificates: list[dict],
        reason: str = "",
    ) -> dict:
        return {
            "backend": "smt",
            "engine": engine,
            "status": status,
            "mii": mii,
            "proven_lower_ii": proven_lower,
            "achieved_ii": achieved,
            "proven_optimal": achieved is not None and achieved == proven_lower,
            "horizon_stages": self.smt.horizon_stages,
            "register_bound": self._register_caps() is not None,
            "step_budget": self.smt.step_budget,
            "certificates": certificates,
            "reason": reason,
        }

    def _give_up(
        self,
        graph: DependenceGraph,
        mii: int,
        started: float,
        engine: str,
        *,
        status: str,
        reason: str,
        certificates: list[dict],
        proven_lower: int | None = None,
        last_ii: int | None = None,
    ) -> ScheduleResult:
        if self.strict:
            raise ConvergenceError(
                f"exact backend {status} on {graph.name}: {reason}",
                last_ii=last_ii,
                highest_ii=last_ii,
            )
        return unconverged(
            graph,
            self.machine,
            ii=last_ii if last_ii is not None else mii,
            mii=mii,
            seconds=time.perf_counter() - started,
            stats=SchedulerStats(search_trace=list(certificates)),
            oracle=self._oracle(
                engine,
                status=status,
                mii=mii,
                proven_lower=proven_lower if proven_lower is not None else mii,
                achieved=None,
                certificates=certificates,
                reason=reason,
            ),
        )

    # ------------------------------------------------------------------
    # Accepting a SAT verdict
    # ------------------------------------------------------------------

    def _accept(
        self,
        pristine: DependenceGraph,
        problem: FixedIIProblem,
        outcome: native.SolveOutcome,
        solve,
        base_caps: dict[int, int] | None,
        certificates: list[dict],
    ) -> Allocation | None:
        """Realize a SAT outcome as an allocation that fits the register
        files; ``None`` if arc colouring defeats it."""
        caps = dict(base_caps) if base_caps else None
        for attempt in range(_COLOURING_RETRIES + 1):
            violations = problem.check_solution(
                outcome.times, outcome.clusters, outcome.move_times
            )
            if violations:
                raise SchedulingError(
                    f"exact engine returned an invalid model for "
                    f"{pristine.name} at II={problem.ii}: "
                    + "; ".join(violations[:5])
                )
            graph, times, clusters = self._materialize(
                pristine, problem, outcome
            )
            allocation = allocate(
                graph, self.machine, problem.ii, times, clusters
            )
            if not allocation.overshoot:
                return allocation
            if caps is None or attempt == _COLOURING_RETRIES:
                return None
            # Footnote 2: colouring needed more than MaxLive.  Tighten
            # the overflowing clusters by the overshoot and re-solve the
            # same II under the stricter (non-certifying) caps.
            for cluster, overshoot in allocation.overshoot.items():
                caps[cluster] = caps[cluster] - overshoot
                if caps[cluster] < 1:
                    return None
            problem = self._problem(pristine, problem.ii, caps)
            outcome = solve(problem, self.smt.step_budget)
            certificates.append(
                {
                    "ii": problem.ii,
                    "verdict": outcome.status,
                    "steps": outcome.steps,
                    "horizon": problem.horizon,
                    "refined_caps": sorted(caps.items()),
                }
            )
            if outcome.status != native.SAT:
                return None
        return None

    def _materialize(
        self,
        pristine: DependenceGraph,
        problem: FixedIIProblem,
        outcome: native.SolveOutcome,
    ) -> tuple[DependenceGraph, dict[int, int], dict[int, int]]:
        """Turn a model into a placement (issue cycles, clusters), its
        moves added to a clone of the graph."""
        ii = problem.ii
        graph = pristine.clone()
        times = dict(outcome.times)
        clusters = dict(outcome.clusters)
        for slot in problem.active_slots(outcome.clusters):
            tau = outcome.move_times[(slot.producer, slot.dst)]
            edges = [
                e
                for e in graph.out_edges(slot.producer)
                if e.kind is DepKind.REG
                and e.dst != slot.producer
                and clusters[e.dst] == slot.dst
            ]
            min_distance = min(e.distance for e in edges)
            move = graph.new_node(
                OpKind.MOVE,
                move_of=slot.producer,
                src_cluster=clusters[slot.producer],
            )
            graph.add_edge(
                slot.producer, move.id, kind=DepKind.REG, distance=min_distance
            )
            for edge in edges:
                graph.remove_edge(edge)
                graph.add_edge(
                    move.id,
                    edge.dst,
                    kind=DepKind.REG,
                    distance=edge.distance - min_distance,
                )
            # The model's send cycle lives in the producer's iteration
            # frame; the emitted move issues II*d earlier, like the
            # heuristic's distance-split insertion.
            times[move.id] = tau - ii * min_distance
            clusters[move.id] = slot.dst

        # Shift by a multiple of II (row- and pressure-preserving) so
        # every issue cycle is non-negative with the earliest in [0, II).
        low = min(times.values())
        shift = -(ii * (low // ii))
        if shift:
            times = {nid: t + shift for nid, t in times.items()}

        return graph, times, clusters
