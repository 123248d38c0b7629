"""Source-to-silicon differential validation of frontend kernels.

For one scheduled corpus kernel, three independent executions must
agree bit for bit:

1. **Source vs lowered graph** — :class:`~repro.frontend.reference.SourceInterpreter`
   (the annotated IR, executed as the source program) against
   :class:`~repro.sim.reference.ReferenceInterpreter` on the *pristine*
   lowered graph.  A mismatch here is a frontend bug: a wrong
   dependence distance, a misdirected memory arc, a bad MemRef.
2. **Emitted code vs final graph** — the existing
   :func:`repro.sim.differential.run_differential` (scheduler, spill,
   moves, allocation, emission).
3. **Emitted code vs source** — the end-to-end statement: the VLIW
   pipeline's values, restricted to the source's operations and the
   source's arrays, against direct source execution under the emitted
   code's live-in register moduli.

Link 3 has one structural caveat: the simulator materializes live-in
registers as functions of the *final-graph* value that owns the
register, so when a loop-carried value's pre-loop instance is delivered
through an inserted move or re-loaded from a spill slot (a move with a
loop-carried out-arc, a spill load with a carried store→load arc), the
emitted code's early-iteration inputs are salted with the move/spill
node's identity, which no source-level execution can reproduce.
:func:`live_in_hazards` detects exactly those schedules; the
differential then reports the hazard and skips link 3 rather than
raising a false mismatch.  The corpus tests assert the reference
machines produce hazard-free schedules for every kernel, so the full
three-link proof actually runs.
"""

from __future__ import annotations

import dataclasses

from repro.core.result import ScheduleResult
from repro.errors import FrontendError
from repro.exec.cache import ResultCache
from repro.frontend.lower import LoweredKernel
from repro.frontend.reference import SourceInterpreter
from repro.graph.ddg import DepKind, DependenceGraph
from repro.machine.resources import OpKind
from repro.sim.differential import MAX_REPORTED, run_differential
from repro.sim.reference import (
    ReferenceInterpreter,
    live_in_moduli_of_code,
    spill_load_distance,
)
from repro.sim.vliw import VliwSimulator


@dataclasses.dataclass(frozen=True)
class SourceDifferentialReport:
    """Outcome of one three-link source differential."""

    kernel: str
    machine: str
    iterations: int
    #: Link 1: source interpretation vs lowered-graph reference.
    analysis_match: bool
    #: Link 2: emitted code vs final-graph reference.
    emitted_match: bool
    #: Link 3: emitted code vs source; None when skipped on a hazard.
    source_match: bool | None
    #: Live-in renaming hazards of the final schedule (see module doc).
    hazards: tuple[str, ...]
    mismatches: tuple[str, ...]

    @property
    def match(self) -> bool:
        return (
            self.analysis_match
            and self.emitted_match
            and self.source_match is not False
        )

    def summary(self) -> str:
        def verdict(state: bool | None) -> str:
            if state is None:
                return "skipped"
            return "MATCH" if state else "MISMATCH"

        head = (
            f"{self.kernel} on {self.machine} over {self.iterations} "
            f"iterations: analysis={verdict(self.analysis_match)} "
            f"emitted={verdict(self.emitted_match)} "
            f"source={verdict(self.source_match)}"
        )
        lines = [head]
        lines.extend(f"  hazard: {hazard}" for hazard in self.hazards)
        lines.extend(f"  {mismatch}" for mismatch in self.mismatches)
        return "\n".join(lines)


def live_in_hazards(graph: DependenceGraph) -> tuple[str, ...]:
    """Live-in renaming hazards of a final schedule graph."""
    hazards: list[str] = []
    for node in graph.nodes():
        if node.is_move:
            carried = [
                edge
                for edge in graph.out_edges(node.id)
                if edge.kind is DepKind.REG and edge.distance > 0
            ]
            if carried:
                hazards.append(
                    f"move {node.name} carries its value across "
                    f"{max(e.distance for e in carried)} iteration(s)"
                )
        elif (
            node.kind is OpKind.LOAD
            and node.is_spill
            and node.load_of_invariant is None
            and spill_load_distance(graph, node.id) > 0
        ):
            hazards.append(
                f"spill load {node.name} re-materializes a value from "
                f"{spill_load_distance(graph, node.id)} iteration(s) back"
            )
    return tuple(hazards)


def _compare_runs(
    label: str,
    actual: dict[tuple[int, int], int],
    expected: dict[tuple[int, int], int],
    actual_memory: dict[int, int],
    expected_memory: dict[int, int],
    names: dict[int, str],
    mismatches: list[str],
) -> bool:
    """Append mismatch descriptions; True when both states agree."""
    found = 0
    truncated = 0
    for instance in sorted(set(actual) | set(expected)):
        got = actual.get(instance)
        want = expected.get(instance)
        if got == want:
            continue
        if found < MAX_REPORTED:
            node_id, iteration = instance
            mismatches.append(
                f"[{label}] value of {names.get(node_id, node_id)} @ "
                f"iteration {iteration}: {got} != {want}"
            )
        else:
            truncated += 1
        found += 1
    for address in sorted(set(actual_memory) | set(expected_memory)):
        got = actual_memory.get(address)
        want = expected_memory.get(address)
        if got == want:
            continue
        if found < MAX_REPORTED * 2:
            mismatches.append(
                f"[{label}] memory[{address:#x}]: {got} != {want}"
            )
        else:
            truncated += 1
        found += 1
    if truncated:
        mismatches.append(
            f"[{label}] ... and {truncated} further mismatches"
        )
    return found == 0


def run_source_differential(
    lowered: LoweredKernel,
    schedule: ScheduleResult,
    iterations: int,
    *,
    cache: ResultCache | bool | None = None,
) -> SourceDifferentialReport:
    """Run all three differential links for one scheduled kernel.

    Args:
        lowered: the kernel as lowered by the frontend (its ``graph``
            must be the pristine graph the schedule was produced from).
        schedule: a converged schedule of that graph.
        iterations: requested trip count; the emitted pipeline may
            round it up to whole kernel passes, and every comparison
            uses the effective count.
        cache: memoization selector for the (deterministic) link-2
            differential, as accepted by
            :func:`repro.exec.cache.resolve_cache`.
    """
    if schedule.graph is None:
        raise FrontendError(
            f"{lowered.name}: schedule carries no final graph to validate"
        )
    names = {node.id: node.name for node in lowered.graph.nodes()}
    mismatches: list[str] = []

    # Link 1: source semantics vs the lowered graph, exact live-ins.
    source = SourceInterpreter(lowered).run(iterations)
    reference = ReferenceInterpreter(lowered.graph).run(iterations)
    analysis_match = _compare_runs(
        "analysis",
        source.values,
        reference.values,
        source.memory,
        reference.memory,
        names,
        mismatches,
    )

    # Link 2: emitted code vs the final graph (existing machinery).
    emitted = run_differential(schedule, iterations, cache=cache)
    if not emitted.match:
        mismatches.extend(f"[emitted] {m}" for m in emitted.mismatches)

    # Link 3: emitted code vs the source, unless live-ins were renamed.
    hazards = live_in_hazards(schedule.graph)
    source_match: bool | None = None
    if not hazards:
        simulator = VliwSimulator(schedule)
        run = simulator.run(iterations)
        effective = run.result.iterations
        moduli = live_in_moduli_of_code(simulator.code)
        source_run = SourceInterpreter(
            lowered, live_in_moduli=moduli
        ).run(effective)
        pristine = set(lowered.graph.node_ids())
        arrays = set(lowered.arrays.values())
        sim_values = {
            key: value
            for key, value in run.values.items()
            if key[0] in pristine
        }
        sim_memory = {
            address: value
            for address, value in run.memory.items()
            if (address >> 24) in arrays
        }
        source_match = _compare_runs(
            "source",
            sim_values,
            source_run.values,
            sim_memory,
            source_run.memory,
            names,
            mismatches,
        )

    return SourceDifferentialReport(
        kernel=lowered.name,
        machine=schedule.machine.name,
        iterations=emitted.iterations,
        analysis_match=analysis_match,
        emitted_match=emitted.match,
        source_match=source_match,
        hazards=hazards,
        mismatches=tuple(mismatches),
    )
