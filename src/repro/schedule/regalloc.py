"""Register allocation for modulo-scheduled loops.

Performed when the PriorityList first empties (step 4 of Figure 4).  The
allocator assigns physical registers to value lifetimes on the *cyclic*
schedule: a lifetime of length L needs ``L // II`` registers outright
(one per fully-overlapped iteration instance) plus an arc of ``L % II``
rows that competes with other arcs for shared registers - the classic
wrap-around (circular-arc) colouring problem of Rau et al. [27].

MaxLive is a lower bound on the colouring; the greedy first-fit used here
matches it almost always and exceeds it by at most a few registers on
pathological arc patterns, which is exactly the behaviour the paper's
footnote 2 describes ("sometimes MaxLive is a lower bound and it is
necessary to insert additional spill code").
"""

from __future__ import annotations

import dataclasses

from repro.graph.ddg import DependenceGraph
from repro.machine.config import MachineConfig
from repro.schedule.colouring import arc_mask
from repro.schedule.lifetimes import LifetimeAnalysis, PressureView
from repro.schedule.partial import PartialSchedule


@dataclasses.dataclass
class RegisterAllocation:
    """Result of allocating one cluster's register file.

    Attributes:
        cluster: the cluster allocated.
        registers_used: total physical registers consumed (dedicated
            full-period registers + shared arc colours + invariants).
        assignment: value id -> list of register indices (one per
            overlapped live instance; the arc register last).
        invariant_registers: registers pinned by loop invariants.
    """

    cluster: int
    registers_used: int
    assignment: dict[int, list[int]]
    invariant_registers: int


def _colour_arcs(
    arcs: list[tuple[int, int, int]], ii: int
) -> tuple[int, dict[int, int]]:
    """Greedy first-fit colouring of circular arcs.

    ``arcs`` holds (value id, start row, length) with 0 < length <= II.
    Returns (number of colours, value id -> colour).  Arcs are processed
    longest first from the least-pressured cut point, which keeps the
    greedy bound tight.
    """
    if not arcs:
        return 0, {}
    density = [0] * ii
    for _, start, length in arcs:
        first = start % ii
        tail = first + length
        if tail <= ii:
            for row in range(first, tail):
                density[row] += 1
        else:
            for row in range(first, ii):
                density[row] += 1
            for row in range(tail - ii):
                density[row] += 1
    cut = density.index(min(density))

    def sort_key(arc: tuple[int, int, int]) -> tuple:
        value, start, length = arc
        return ((start - cut) % ii, -length, value)

    # Row occupancy as II-bit integers: overlap tests are single AND ops.
    colours: list[int] = []  # per colour: occupied-row bitmask
    chosen: dict[int, int] = {}
    for value, start, length in sorted(arcs, key=sort_key):
        mask = arc_mask(start, length, ii)
        for index, occupancy in enumerate(colours):
            if not (occupancy & mask):
                colours[index] = occupancy | mask
                chosen[value] = index
                break
        else:
            colours.append(mask)
            chosen[value] = len(colours) - 1
    return len(colours), chosen


def _analysis_spilled_invariants(analysis) -> set[tuple[int, int]]:
    """The (invariant, cluster) spill set an analysis was built with.

    Works for both batch :class:`LifetimeAnalysis` (private
    ``_spilled_invariants``) and the live
    :class:`~repro.schedule.pressure.PressureTracker` (public
    ``spilled_invariants``).
    """
    spilled = getattr(analysis, "spilled_invariants", None)
    if spilled is None:
        spilled = getattr(analysis, "_spilled_invariants", frozenset())
    return set(spilled)


def allocate_registers(
    graph: DependenceGraph,
    schedule: PartialSchedule,
    machine: MachineConfig,
    analysis: PressureView | None = None,
    spilled_invariants: set[tuple[int, int]] | None = None,
    colouring=None,
) -> dict[int, RegisterAllocation]:
    """Allocate every cluster's register file; returns per-cluster results.

    The allocation never fails: it reports how many registers *would* be
    needed, and the caller (the spill heuristic) compares that against the
    architecture and decides whether to spill.

    ``analysis`` may be a batch :class:`LifetimeAnalysis` or the
    scheduler's live :class:`~repro.schedule.pressure.PressureTracker`
    (both are a :class:`~repro.schedule.lifetimes.PressureView`); when
    omitted, a fresh batch analysis is built.  When both ``analysis``
    and ``spilled_invariants`` are given they must agree: the analysis
    already carries its spill set, and a conflicting argument used to be
    *silently ignored* - it now raises ``ValueError``.

    ``colouring`` may be the scheduler's live
    :class:`~repro.schedule.colouring.IncrementalArcColouring`; the
    per-cluster arc colourings are then taken from its caches (identical
    to batch :func:`_colour_arcs` by construction) instead of being
    recomputed, leaving only the assignment-building lifetime walk.
    """
    if analysis is None:
        analysis = LifetimeAnalysis(
            graph,
            schedule,
            machine,
            spilled_invariants=(
                frozenset() if spilled_invariants is None
                else spilled_invariants
            ),
        )
    elif spilled_invariants is not None:
        carried = _analysis_spilled_invariants(analysis)
        if set(spilled_invariants) != carried:
            raise ValueError(
                "allocate_registers: spilled_invariants "
                f"{sorted(spilled_invariants)} conflicts with the set the "
                f"provided analysis was built with {sorted(carried)}; "
                "rebuild the analysis or drop the argument"
            )
    if colouring is not None and colouring.tracker is not analysis:
        raise ValueError(
            "allocate_registers: the colouring engine mirrors a different "
            "analysis than the one provided"
        )
    ii = schedule.ii
    lifetimes = analysis.lifetimes
    pressure = analysis.pressure
    results: dict[int, RegisterAllocation] = {}
    for cluster in range(machine.clusters):
        dedicated = 0
        arcs: list[tuple[int, int, int]] = []
        assignment: dict[int, list[int]] = {}
        full_counts: dict[int, int] = {}
        for lifetime in lifetimes:
            if lifetime.cluster != cluster or lifetime.length <= 0:
                continue
            full, rest = divmod(lifetime.length, ii)
            full_counts[lifetime.value] = full
            dedicated += full
            if rest and colouring is None:
                arcs.append((lifetime.value, lifetime.start % ii, rest))
        if colouring is not None:
            colour_count, colours = colouring.cluster_colouring(cluster)
        else:
            colour_count, colours = _colour_arcs(arcs, ii)
        # Physical numbering: dedicated registers first, arc colours after.
        next_dedicated = 0
        for value, full in full_counts.items():
            registers = list(range(next_dedicated, next_dedicated + full))
            next_dedicated += full
            if value in colours:
                registers.append(dedicated + colours[value])
            if registers:
                assignment[value] = registers
        invariant_registers = pressure[cluster].invariant_registers
        results[cluster] = RegisterAllocation(
            cluster=cluster,
            registers_used=dedicated + colour_count + invariant_registers,
            assignment=assignment,
            invariant_registers=invariant_registers,
        )
    return results
