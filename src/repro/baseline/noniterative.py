"""The non-iterative clustered modulo scheduler of Sánchez & González [31].

This is the comparator used throughout Section 4 of the paper.  Its
published characteristics, which this implementation reproduces from the
description given in the paper (DESIGN.md substitution note (e)):

* cluster assignment and scheduling in a single pass over the nodes, but
  **no backtracking**: once placed, an operation is never ejected, and a
  node that finds no free slot forces the whole loop to be rescheduled at
  ``II + 1``;
* **no spill code**: "when the algorithm runs out of registers, then it
  increases the II of the loop without trying to insert spill code";
* loop invariants are accounted for (as in the paper's re-implementation
  of [31]), which is what produces the *non-convergence* reported in
  Table 2: an invariant-heavy cluster needs its registers at any II, so
  raising the II can never fix the shortage.
"""

from __future__ import annotations

import time

from repro.core.params import MirsParams, max_ii_for
from repro.core.result import ScheduleResult, allocate, finish, unconverged
from repro.core.state import SchedulerState
from repro.cluster.moves import add_move, next_needed_move
from repro.cluster.selection import select_cluster
from repro.graph.ddg import DependenceGraph
from repro.graph.mii import compute_mii
from repro.machine.config import MachineConfig
from repro.order.hrms import hrms_order
from repro.schedule.slots import dependence_window, find_free_slot


class NonIterativeScheduler:
    """Cluster-aware modulo scheduler without backtracking or spilling."""

    def __init__(
        self,
        machine: MachineConfig,
        params: MirsParams | None = None,
    ):
        self.machine = machine
        self.params = params or MirsParams()

    # ------------------------------------------------------------------

    def schedule(self, graph: DependenceGraph) -> ScheduleResult:
        """Schedule one loop; may return ``converged=False`` (Table 2)."""
        started = time.perf_counter()
        pristine = graph.clone()
        ordering = hrms_order(pristine, self.machine)
        mii = compute_mii(pristine, self.machine)
        limit = max_ii_for(mii, len(pristine), self.params)

        restarts = 0
        ii = mii
        while ii <= limit:
            state = self._attempt(pristine.clone(), ii, ordering.priority)
            if state is not None:
                return self._finalize(
                    state, mii, restarts, time.perf_counter() - started
                )
            restarts += 1
            ii += 1
        # Genuine non-convergence (the "Not Cnvr" column of Table 2).
        return unconverged(
            pristine,
            self.machine,
            ii=limit,
            mii=mii,
            seconds=time.perf_counter() - started,
            restarts=restarts,
        )

    # ------------------------------------------------------------------

    def _attempt(
        self,
        graph: DependenceGraph,
        ii: int,
        priorities: dict[int, float],
    ) -> SchedulerState | None:
        state = SchedulerState(graph, self.machine, ii, priorities, self.params)
        while not state.pl.empty():
            node_id = state.pl.pop()
            if node_id not in state.graph:
                continue
            node = state.graph.node(node_id)
            cluster = select_cluster(state, node)
            guard = 0
            while True:
                plan = next_needed_move(state, node, cluster)
                if plan is None:
                    break
                move = add_move(state, plan)
                if not self._place(state, move, plan.dst_cluster):
                    return None
                guard += 1
                if guard > 4 * self.machine.clusters + 8:
                    return None
            if not self._place(state, node, cluster):
                return None
        if not state.fits_registers():
            return None
        return state

    def _place(self, state: SchedulerState, node, cluster: int) -> bool:
        """First-free-slot placement; no forcing, no ejection."""
        window = dependence_window(
            state.graph, state.schedule, node, state.machine
        )
        src_cluster = node.src_cluster if node.is_move else None
        slot = find_free_slot(
            state.schedule, node, cluster, window, src_cluster=src_cluster
        )
        if slot is None:
            return False
        state.schedule.place(node, cluster, slot, src_cluster=src_cluster)
        state.stats.nodes_scheduled += 1
        return True

    # ------------------------------------------------------------------

    def _finalize(
        self,
        state: SchedulerState,
        mii: int,
        restarts: int,
        elapsed: float,
    ) -> ScheduleResult:
        # The result keeps the graph; stop observing it so the tracker
        # (and the whole partial schedule) are not retained with it.
        state.pressure.detach()
        times, clusters = state.schedule.placements()
        return finish(
            "[31]",
            allocate(state.graph, state.machine, state.ii, times, clusters),
            mii=mii,
            restarts=restarts,
            memory_traffic=state.memory_operation_count(),
            stats=state.stats,
            seconds=elapsed,
        )
