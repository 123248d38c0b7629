"""Differential validation: emitted code vs scalar reference execution.

The strongest correctness statement this repository can make about a
schedule is end-to-end: run the *generated code* on the simulated
machine, run the *dependence graph* on the scalar reference interpreter,
and require bit-for-bit agreement on

1. every value produced by every (operation, iteration) instance, and
2. the final memory image (every address written, and what it holds).

Scheduler, cluster assignment, spilling, register allocation, modulo
variable expansion and the emitter all sit between the two executions,
so a bug in any of them surfaces as a concrete mismatch naming the
operation and iteration where the dataflow first diverged.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.codegen.emitter import GeneratedCode
from repro.core.result import ScheduleResult
from repro.exec.cache import ResultCache, resolve_cache
from repro.exec.hashing import simulation_cache_key, stable_hash
from repro.machine.technology import TechnologyModel
from repro.memsim.cache import CacheConfig
from repro.sim.reference import ReferenceInterpreter, live_in_moduli_of_code
from repro.sim.result import SimulationResult
from repro.sim.vliw import SimulationRun, VliwSimulator

#: Mismatches reported per category before truncating (a broken emitter
#: diverges everywhere; the first few sites are the diagnostic ones).
MAX_REPORTED = 8


@dataclasses.dataclass(frozen=True)
class DifferentialReport:
    """Outcome of one simulator-vs-reference comparison."""

    loop: str
    machine: str
    iterations: int
    match: bool
    mismatches: tuple[str, ...]
    simulation: SimulationResult

    def summary(self) -> str:
        verdict = "MATCH" if self.match else "MISMATCH"
        head = (
            f"{self.loop} on {self.machine}: {verdict} over "
            f"{self.iterations} iterations"
        )
        if self.match:
            return head
        return head + "\n  " + "\n  ".join(self.mismatches)


def state_mismatches(
    values: dict[tuple[int, int], int],
    memory: dict[int, int],
    expected_values: dict[tuple[int, int], int],
    expected_memory: dict[int, int],
    names: dict[int, str],
    prefix: str = "",
    pair: str = "code={} reference={}",
) -> list[str]:
    """Describe where two end states differ; empty when they agree.

    Values and memory each report up to :data:`MAX_REPORTED` sites in
    ascending (node, iteration) / address order, and one trailing line
    counts the rest.  ``prefix`` starts every line and ``pair`` renders
    the two disagreeing sides, so each differential link keeps its own
    wording.
    """

    def value_site(instance: tuple[int, int]) -> str:
        node_id, iteration = instance
        return f"value of {names.get(node_id, node_id)} @ iteration {iteration}"

    lines: list[str] = []
    truncated = 0
    for actual, expected, site in (
        (values, expected_values, value_site),
        (memory, expected_memory, "memory[{:#x}]".format),
    ):
        if actual == expected:
            continue
        reported = 0
        for key in sorted(set(actual) | set(expected)):
            got = actual.get(key)
            want = expected.get(key)
            if got == want:
                continue
            if reported < MAX_REPORTED:
                lines.append(f"{prefix}{site(key)}: {pair.format(got, want)}")
                reported += 1
            else:
                truncated += 1
    if truncated:
        lines.append(f"{prefix}... and {truncated} further mismatches")
    return lines


def compare_run(
    schedule: ScheduleResult, code: GeneratedCode, run: SimulationRun
) -> DifferentialReport:
    """Check a finished run of ``code`` against the reference.

    The reference interpreter executes ``schedule.graph`` for the run's
    *effective* trip count (the emitted kernel retires iterations in
    whole unrolled passes, so the simulator may execute a few more than
    requested), under the live-in register moduli of ``code``.
    """
    reference = ReferenceInterpreter(
        schedule.graph, live_in_moduli=live_in_moduli_of_code(code)
    ).run(run.result.iterations)
    names = {node.id: node.name for node in schedule.graph.nodes()}
    mismatches = state_mismatches(
        run.values, run.memory, reference.values, reference.memory, names
    )
    return DifferentialReport(
        loop=schedule.loop,
        machine=schedule.machine.name,
        iterations=run.result.iterations,
        match=not mismatches,
        mismatches=tuple(mismatches),
        simulation=run.result,
    )


def memoized_report(
    schedule: ScheduleResult,
    iterations: int,
    cache: ResultCache | bool | None,
    compute: Callable[[], DifferentialReport],
    cache_config: CacheConfig | None = None,
    technology: TechnologyModel | None = None,
) -> DifferentialReport:
    """``compute()``'s report, through the on-disk result cache.

    Keyed like :func:`run_differential` on the same arguments, so a
    report computed from a shared run is the one a later
    :func:`run_differential` call is served, and vice versa.
    """
    store = resolve_cache(cache)
    if store is None:
        return compute()
    key = stable_hash(
        {
            "kind": "differential",
            "base": simulation_cache_key(
                schedule, iterations, cache_config, technology
            ),
        }
    )
    cached = store.get(key)
    if isinstance(cached, DifferentialReport):
        return cached
    report = compute()
    store.put(key, report)
    return report


def run_differential(
    schedule: ScheduleResult,
    iterations: int,
    cache_config: CacheConfig | None = None,
    technology: TechnologyModel | None = None,
    cache: ResultCache | bool | None = None,
    code: GeneratedCode | None = None,
) -> DifferentialReport:
    """Execute both sides and compare their end states (see
    :func:`compare_run`).

    ``cache`` memoizes the finished report in the on-disk result cache
    (see :func:`repro.exec.cache.resolve_cache` for the selector
    semantics): both executions are deterministic, so a warm benchmark
    or CI rerun skips them entirely.  ``code`` is the code already
    emitted from ``schedule``, when the caller holds it; it is emitted
    here otherwise.
    """

    def execute() -> DifferentialReport:
        simulator = VliwSimulator(
            schedule, code, cache_config=cache_config, technology=technology
        )
        return compare_run(schedule, simulator.code, simulator.run(iterations))

    return memoized_report(
        schedule, iterations, cache, execute, cache_config, technology
    )
