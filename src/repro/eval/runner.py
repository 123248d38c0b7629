"""Suite execution helpers shared by the experiment drivers."""

from __future__ import annotations

import dataclasses

from repro.core.request import ScheduleRequest
from repro.core.result import ScheduleResult
from repro.env import int_env
from repro.exec.engine import SuiteExecutor
from repro.machine.config import MachineConfig
from repro.workloads.perfect import SuiteLoop, cached_suite


#: Environment variable selecting the workbench subset size used by the
#: benchmarks (the full paper-scale run uses REPRO_BENCH_LOOPS=1258).
LOOPS_ENV = "REPRO_BENCH_LOOPS"
DEFAULT_BENCH_LOOPS = 16


def bench_loop_count(default: int = DEFAULT_BENCH_LOOPS) -> int:
    """Workbench subset size, configurable via ``REPRO_BENCH_LOOPS``.

    A malformed value warns and falls back to ``default`` rather than
    killing a whole benchmark run with a ``ValueError``.
    """
    return max(
        1,
        int_env(
            LOOPS_ENV,
            default,
            fallback_note=f"using the default of {default} loops",
        ),
    )


def bench_suite(count: int | None = None) -> tuple[SuiteLoop, ...]:
    """The (cached) workbench subset used by the benchmarks."""
    return cached_suite(count or bench_loop_count())


@dataclasses.dataclass
class SuiteRun:
    """Results of one scheduler over one suite on one machine."""

    machine: MachineConfig
    scheduler_name: str
    results: list[ScheduleResult]

    @property
    def converged(self) -> list[ScheduleResult]:
        return [r for r in self.results if r.converged]

    @property
    def not_converged_count(self) -> int:
        return sum(1 for r in self.results if not r.converged)

    def sum_ii(self, indices: set[int] | None = None) -> int:
        return sum(
            r.ii
            for i, r in enumerate(self.results)
            if r.converged and (indices is None or i in indices)
        )

    def sum_traffic(self, indices: set[int] | None = None) -> int:
        """Summed memory operations per iteration (the paper's "trf")."""
        return sum(
            r.memory_traffic
            for i, r in enumerate(self.results)
            if r.converged and (indices is None or i in indices)
        )

    def sum_cycles(self, indices: set[int] | None = None) -> int:
        return sum(
            r.execution_cycles
            for i, r in enumerate(self.results)
            if r.converged and (indices is None or i in indices)
        )

    def sum_scheduling_seconds(self, indices: set[int] | None = None) -> float:
        return sum(
            r.scheduling_seconds
            for i, r in enumerate(self.results)
            if indices is None or i in indices
        )

    def converged_indices(self) -> set[int]:
        return {i for i, r in enumerate(self.results) if r.converged}


def schedule_suite(
    machine: MachineConfig,
    loops: tuple[SuiteLoop, ...] | list[SuiteLoop],
    request: ScheduleRequest | None = None,
    graphs=None,
    *,
    session: SuiteExecutor | None = None,
) -> SuiteRun:
    """Run one scheduler over a workbench subset.

    Thin wrapper over :class:`repro.exec.engine.SuiteExecutor`; with the
    defaults it reproduces the historical sequential code path exactly.

    Args:
        machine: target configuration.
        loops: workbench loops.
        request: what to schedule (``None`` for the defaults).
        graphs: optional per-loop replacement graphs (used by the
            prefetching experiments, which re-latency the loads).
        session: the executor that runs the suite (``None`` builds a
            default :class:`~repro.exec.engine.SuiteExecutor`); reuse
            one across calls to accumulate stats in a single place.
    """
    request = request or ScheduleRequest()
    session = session or SuiteExecutor()
    results = session.run(machine, loops, request, graphs)
    return SuiteRun(
        machine=machine, scheduler_name=request.scheduler, results=results
    )
