"""Measured outcome of one simulated loop execution.

:class:`SimulationResult` is the compact, picklable record the rest of
the stack consumes: the differential memo keeps it on disk inside its
reports (keyed by :func:`repro.exec.hashing.simulation_cache_key`), the
CLI prints it,
``eval/experiments`` compares it against the analytic stall prediction
of :mod:`repro.memsim`, and ``benchmarks/bench_simulator.py`` feeds it
into ``BENCH_suite.json``.  Bulky per-instance state (register values,
memory words) stays out: it lives on the
:class:`~repro.sim.vliw.SimulationRun` a simulation returns, and the
differential compares that run's ``values`` and ``memory`` directly.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """Measured cycles and traffic of one simulated execution.

    The record carries no end state, so two equal results need not have
    computed the same values: bit-for-bit agreement is a property of the
    :class:`~repro.sim.vliw.SimulationRun` (its ``values``, ``memory``
    and ``registers``), which is what the differential compares.

    Attributes:
        loop: the loop's name.
        machine: the target configuration's name.
        ii / stage_count / mve_factor: shape of the executed pipeline.
        requested_iterations: the trip count asked for.
        iterations: the trip count actually executed — rounded up to a
            whole number of unrolled kernel passes (the emitted kernel
            can only retire ``mve_factor`` iterations at a time).
        useful_cycles: issued bundles; equals
            ``II * (iterations + stage_count - 1)`` by construction.
        stall_cycles: observed cycles the in-order pipeline was blocked
            on cache misses (consumer before data, or MSHRs exhausted).
        instructions: operation instances issued (nops excluded).
        loads / stores / moves: per-class instance counts.
        cache_hits / cache_misses: lockup-free cache accesses.
        unroll_factor: unroll factor of the executed graph — each
            executed iteration covers this many *source* iterations.
        surplus_iterations: source iterations a full execution runs
            beyond the source loop's trip count because the unroll
            factor does not divide it (the unrolled loop has no
            epilogue; :func:`repro.workloads.unroll.unroll` warns at
            transform time, this field reports it at simulation time).
            0 when the factor divides, when the graph is not unrolled,
            or when fewer than ``trip_count`` iterations were run.
    """

    loop: str
    machine: str
    ii: int
    stage_count: int
    mve_factor: int
    requested_iterations: int
    iterations: int
    useful_cycles: int
    stall_cycles: int
    instructions: int
    loads: int
    stores: int
    moves: int
    cache_hits: int
    cache_misses: int
    unroll_factor: int = 1
    surplus_iterations: int = 0

    @property
    def total_cycles(self) -> int:
        return self.useful_cycles + self.stall_cycles

    @property
    def ipc(self) -> float:
        """Operations retired per elapsed cycle (stalls included)."""
        if self.total_cycles == 0:
            return 0.0
        return self.instructions / self.total_cycles

    @property
    def miss_rate(self) -> float:
        accesses = self.cache_hits + self.cache_misses
        return self.cache_misses / accesses if accesses else 0.0

    @property
    def bus_occupancy(self) -> float:
        """Fraction of bus-cycles consumed by inter-cluster moves.

        Relative to a single bus; divide by the machine's bus count for
        the per-bus figure (unbounded-bus configurations keep the raw
        per-cycle move density).
        """
        if self.useful_cycles == 0:
            return 0.0
        return self.moves / self.useful_cycles

    def summary(self) -> str:
        text = (
            f"{self.loop} on {self.machine}: {self.iterations} iterations, "
            f"II={self.ii}, useful={self.useful_cycles} "
            f"stall={self.stall_cycles} "
            f"(IPC {self.ipc:.2f}, miss rate {self.miss_rate:.1%})"
        )
        if self.surplus_iterations:
            text += (
                f" [non-dividing unroll x{self.unroll_factor}: "
                f"{self.surplus_iterations} surplus source iteration(s)]"
            )
        return text
