"""Cycle-accurate execution of scheduled loops on the clustered VLIW.

This package closes the loop the rest of the repository only reasons
about: the code emitted by :mod:`repro.codegen` actually *runs*.

* :mod:`repro.sim.ops` — exact integer value semantics shared by both
  executions (field arithmetic over ``2**61 - 1``; live-ins, invariants
  and untouched memory are pure functions of their identity);
* :mod:`repro.sim.reference` — a scalar reference interpreter executing
  the :class:`~repro.graph.ddg.DependenceGraph` iteration by iteration;
* :mod:`repro.sim.vliw` — bundle-by-bundle execution of
  :func:`repro.codegen.generate_code` output over per-cluster register
  files, with the lockup-free cache of :mod:`repro.memsim` producing
  *observed* stall cycles (the analytic prediction lives in
  :mod:`repro.memsim.stall`);
* :mod:`repro.sim.differential` — bit-for-bit comparison of the two
  executions: end-to-end validation of scheduler + cluster assignment +
  spilling + register allocation + MVE + emitter.  Its
  :func:`~repro.sim.differential.compare_run` checks an already
  finished run, so a caller with one run (the source differential of
  :mod:`repro.frontend`) compares it against several references.

Both executions run from *plans* built once per simulator or
interpreter.  The simulator compiles every emitted instruction into a
flat step — the register names it reads, its ``inv:`` operands resolved
to values, a kind tag, node id, iteration shift, destination, the
op's evaluator (:func:`repro.sim.ops.evaluator`), ``MemRef``, spill
distance and any fixed invariant value — so the cycle loop reads only
locals and tuples; per-section op counts are static.  The reference
interpreter compiles one step per node in execution order (producers
with distances, invariant values, evaluator, memory streams).  Neither
plan changes a value: outputs are bit-for-bit those of the
per-instruction loops, which the test suite keeps as oracles.

Entry points: ``python -m repro simulate`` on the command line,
:func:`run_differential` and :func:`simulate` from code.
"""

from repro.sim.differential import DifferentialReport, run_differential
from repro.sim.reference import ReferenceInterpreter, ReferenceRun, run_reference
from repro.sim.result import SimulationResult
from repro.sim.vliw import SimulationRun, VliwSimulator, simulate

__all__ = [
    "DifferentialReport",
    "ReferenceInterpreter",
    "ReferenceRun",
    "SimulationResult",
    "SimulationRun",
    "VliwSimulator",
    "run_differential",
    "run_reference",
    "simulate",
]
