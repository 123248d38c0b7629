"""Source-to-silicon differential validation of frontend kernels.

For one scheduled corpus kernel, three independent executions must
agree bit for bit:

1. **Source vs lowered graph** — :class:`~repro.frontend.reference.SourceInterpreter`
   (the annotated IR, executed as the source program) against
   :class:`~repro.sim.reference.ReferenceInterpreter` on the *pristine*
   lowered graph.  A mismatch here is a frontend bug: a wrong
   dependence distance, a misdirected memory arc, a bad MemRef.
2. **Emitted code vs final graph** — the check of
   :func:`repro.sim.differential.run_differential` (scheduler, spill,
   moves, allocation, emission).
3. **Emitted code vs source** — the end-to-end statement: the VLIW
   pipeline's values, restricted to the source's operations and the
   source's arrays, against direct source execution under the emitted
   code's live-in register moduli.

Links 2 and 3 read the same simulation: the emitted code runs once per
differential, and that one run is compared with both references.  Links
1 and 3 share one source execution too whenever the code's live-in
moduli leave every pre-loop scalar instance unchanged (see
:func:`~repro.frontend.reference.moduli_keep_live_ins`): link 3 then
reads that execution at the effective trip count, and link 1 reads it
at the requested one.

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

from repro.codegen.emitter import GeneratedCode
from repro.core.result import ScheduleResult
from repro.errors import FrontendError
from repro.exec.cache import ResultCache
from repro.frontend.lower import LoweredKernel
from repro.frontend.reference import SourceInterpreter, moduli_keep_live_ins
from repro.graph.ddg import DepKind, DependenceGraph
from repro.machine.resources import OpKind
from repro.sim.differential import (
    compare_run,
    memoized_report,
    run_differential,
    state_mismatches,
)
from repro.sim.reference import (
    ReferenceInterpreter,
    live_in_moduli_of_code,
    spill_load_distance,
)
from repro.sim.vliw import VliwSimulator


#: How links 1 and 3 render a mismatch: ``actual != expected``.
_PAIR = "{} != {}"


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


def run_source_differential(
    lowered: LoweredKernel,
    schedule: ScheduleResult,
    iterations: int,
    *,
    cache: ResultCache | bool | None = None,
    code: GeneratedCode | None = None,
) -> SourceDifferentialReport:
    """Run all three differential links for one scheduled kernel.

    Args:
        lowered: the kernel as lowered by the frontend (its ``graph``
            must be the pristine graph the schedule was produced from).
        schedule: a converged schedule of that graph.
        iterations: requested trip count; the emitted pipeline may
            round it up to whole kernel passes, and links 2 and 3 use
            the effective count.
        cache: memoization selector for the (deterministic) link-2
            report, as accepted by
            :func:`repro.exec.cache.resolve_cache`.  Link 3 needs the
            simulation anyway, so a hit spares it only when link 3 is
            skipped; either way the code is simulated at most once.
        code: the code already emitted from ``schedule``, when the
            caller holds it; emitted here otherwise.
    """
    if schedule.graph is None:
        raise FrontendError(
            f"{lowered.name}: schedule carries no final graph to validate"
        )
    names = {node.id: node.name for node in lowered.graph.nodes()}
    exact = SourceInterpreter(lowered)

    hazards = live_in_hazards(schedule.graph)
    source_match: bool | None = None
    source_mismatches: list[str] = []
    if hazards:
        # Link 2 alone; link 3 is skipped on renamed live-ins.
        emitted = run_differential(schedule, iterations, cache=cache, code=code)
        source = exact.run(iterations)
    else:
        # One simulation of the emitted code serves links 2 and 3.
        simulator = VliwSimulator(schedule, code)
        run = simulator.run(iterations)
        emitted = memoized_report(
            schedule,
            iterations,
            cache,
            lambda: compare_run(schedule, simulator.code, run),
        )
        # Link 3 runs the source under the code's live-in moduli.  When
        # they leave every pre-loop instance as it is, that run is the
        # exact one continued to the effective count, and one execution
        # serves links 1 and 3.
        moduli = live_in_moduli_of_code(simulator.code)
        effective = run.result.iterations
        if moduli_keep_live_ins(lowered, moduli):
            source, source_run = exact.runs(iterations, effective)
        else:
            source = exact.run(iterations)
            source_run = SourceInterpreter(
                lowered, live_in_moduli=moduli
            ).run(effective)
        # Link 3: the run restricted to the source's operations and
        # arrays.
        pristine = set(lowered.graph.node_ids())
        arrays = set(lowered.arrays.values())
        source_mismatches = state_mismatches(
            {
                key: value
                for key, value in run.values.items()
                if key[0] in pristine
            },
            {
                address: value
                for address, value in run.memory.items()
                if (address >> 24) in arrays
            },
            source_run.values,
            source_run.memory,
            names,
            prefix="[source] ",
            pair=_PAIR,
        )
        source_match = not source_mismatches

    # Link 1: source semantics vs the lowered graph, exact live-ins.
    reference = ReferenceInterpreter(lowered.graph).run(iterations)
    mismatches = state_mismatches(
        source.values,
        source.memory,
        reference.values,
        reference.memory,
        names,
        prefix="[analysis] ",
        pair=_PAIR,
    )
    analysis_match = not mismatches
    # Link 2: emitted code vs the final graph.
    mismatches.extend(f"[emitted] {m}" for m in emitted.mismatches)
    mismatches.extend(source_mismatches)

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
