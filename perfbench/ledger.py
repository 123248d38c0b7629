"""Per-layer tracing for the benchmark's traced run.

The ledger wraps public entry points of ``repro`` from the outside (the
program itself carries no benchmark tracing): each wrapped call is a span
whose *self* time — its duration minus the time of the wrapped calls
nested inside it — is charged to one metric of one layer.  Fine-grained
hooks (MRT probes, pressure events, colouring queries, spill checks,
cluster decisions) only aggregate; coarse spans (one per stage call) are
also kept in memory with the id of the (loop, machine) pair they served
and written out when the run ends.

Every hook is installed by :meth:`Ledger.install` and removed by
:meth:`Ledger.uninstall`, so an untraced pass runs the unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

#: The layers the ledger attributes time to (module names under
#: ``src/repro``).  ``exec`` is bypassed by the benchmark and ``memsim``
#: is reached only through ``sim``.
LAYERS = (
    "frontend", "graph", "order", "core", "schedule", "spill", "cluster",
    "codegen", "analysis", "sim", "smt",
)

#: (module, attribute path, layer, time metric, call-count metric,
#: coarse).  A call-count metric of ``None`` counts nothing; coarse
#: targets are also recorded as individual spans.
TARGETS = (
    ("repro.frontend.parser", "PythonAstParser.parse",
     "frontend", "frontend.parse_ms", None, True),
    ("repro.frontend.lower", "lower_kernel",
     "frontend", "frontend.lower_ms", None, True),
    ("repro.core.mirsc", "compute_mii", "graph", "graph.mii_ms", None, True),
    ("repro.smt.scheduler", "compute_mii", "graph", "graph.mii_ms", None, True),
    ("repro.core.mirsc", "hrms_order", "order", "order.hrms_ms", None, True),
    ("repro.core.request", "ScheduleRequest.make_scheduler",
     "core", "core.construct_ms", None, False),
    ("repro.core.mirsc", "MirsC.schedule", "core", "core.search_ms", None, True),
    ("repro.core.attempts", "AttemptEngine.run",
     "core", "core.attempt_ms", None, True),
    ("repro.core.mirsc", "MirsC._finalize",
     "core", "core.finalize_ms", None, True),
    ("repro.schedule.mrt", "ModuloReservationTable.can_place",
     "schedule", "schedule.mrt_ms", "schedule.mrt_calls", False),
    ("repro.schedule.mrt", "ModuloReservationTable.place",
     "schedule", "schedule.mrt_ms", "schedule.mrt_calls", False),
    ("repro.schedule.mrt", "ModuloReservationTable.remove",
     "schedule", "schedule.mrt_ms", "schedule.mrt_calls", False),
    ("repro.schedule.mrt", "ModuloReservationTable.blocking_nodes",
     "schedule", "schedule.mrt_ms", "schedule.mrt_calls", False),
    ("repro.schedule.pressure", "PressureTracker.on_place",
     "schedule", "schedule.pressure_ms", "schedule.pressure_events", False),
    ("repro.schedule.pressure", "PressureTracker.on_eject",
     "schedule", "schedule.pressure_ms", "schedule.pressure_events", False),
    ("repro.schedule.pressure", "PressureTracker.on_edge_added",
     "schedule", "schedule.pressure_ms", "schedule.pressure_events", False),
    ("repro.schedule.pressure", "PressureTracker.on_edge_removed",
     "schedule", "schedule.pressure_ms", "schedule.pressure_events", False),
    ("repro.schedule.pressure", "PressureTracker.on_node_removed",
     "schedule", "schedule.pressure_ms", "schedule.pressure_events", False),
    ("repro.schedule.colouring", "IncrementalArcColouring.registers_used",
     "schedule", "schedule.colouring_ms", "schedule.colouring_calls", False),
    ("repro.core.attempts", "check_and_insert_spill",
     "spill", "spill.ms", None, False),
    ("repro.core.attempts", "select_cluster",
     "cluster", "cluster.select_ms", None, False),
    ("repro.spill.heuristics", "balance_register_pressure",
     "cluster", "cluster.balance_ms", None, False),
    ("repro.codegen", "generate_code", "codegen", "codegen.emit_ms", None, True),
    ("repro.analysis", "certify_code",
     "analysis", "analysis.certify_ms", None, True),
    ("repro.sim.differential", "run_differential",
     "sim", "sim.differential_ms", None, True),
    ("repro.frontend.differential", "run_differential",
     "sim", "sim.differential_ms", None, True),
    ("repro.frontend.differential", "run_source_differential",
     "sim", "sim.differential_ms", None, True),
    ("repro.smt.scheduler", "SmtScheduler.schedule",
     "smt", "smt.search_ms", None, True),
    ("repro.smt.native", "solve_fixed_ii", "smt", "smt.solve_ms", None, True),
)

#: Scheduler counters summed over *every* attempt of a pair (the final
#: result carries only the accepted attempt's): metric -> stats fields.
STATE_COUNTERS = {
    "schedule.placements": ("nodes_scheduled",),
    "schedule.ejections": ("ejections",),
    "schedule.forced_placements": ("forced_placements",),
    "spill.ops": ("spill_stores_added", "spill_loads_added"),
    "spill.invariant_spills": ("invariant_spills",),
    "cluster.moves_added": ("moves_added",),
    "cluster.balance_shifts": ("balance_shifts",),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute name) for a dotted attribute of a module."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


class Ledger:
    """Self-time and count attribution over the wrapped entry points."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.layer_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []
        self.pairs: list[dict] = []
        self.missing: list[str] = []
        self.pair_id = 0
        self._stack = [0.0]
        self._states: list = []
        self._installed: list[tuple[object, str, object]] = []

    # -- hooks ---------------------------------------------------------

    def _wrap(self, fn, layer, time_metric, count_metric, coarse):
        stack = self._stack
        self_s = self.self_s
        layer_s = self.layer_s
        counts = self.counts
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                own = duration - stack.pop()
                stack[-1] += duration
                self_s[time_metric] += own
                layer_s[layer] += own
                if count_metric is not None:
                    counts[count_metric] += 1
                if coarse:
                    spans.append(
                        (self.pair_id, time_metric, start, duration, own,
                         len(stack) - 1)
                    )

        return traced

    def install(self) -> None:
        """Wrap every target and the per-attempt state constructor."""
        self.missing = []
        for module_name, path, layer, metric, count, coarse in TARGETS:
            try:
                owner, name = _resolve(module_name, path)
                original = (
                    owner.__dict__[name] if isinstance(owner, type)
                    else getattr(owner, name)
                )
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{path}")
                continue
            self._installed.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, metric, count, coarse))

        attempts = importlib.import_module("repro.core.attempts")
        constructor = attempts.SchedulerState
        states = self._states

        def recording_state(*args, **kwargs):
            state = constructor(*args, **kwargs)
            states.append(state)
            return state

        self._installed.append((attempts, "SchedulerState", constructor))
        attempts.SchedulerState = recording_state

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # -- per pair ------------------------------------------------------

    def begin_pair(self, label: str) -> None:
        self.pair_id += 1
        self._label = label
        self._pair_layers = dict(self.layer_s)

    def end_pair(self, wall_s: float) -> None:
        """Close a pair: fold attempt counters and record its summary."""
        for state in self._states:
            stats = state.stats
            for metric, fields in STATE_COUNTERS.items():
                self.counts[metric] += sum(getattr(stats, f) for f in fields)
        self._states.clear()
        layers = {
            layer: round((seconds - self._pair_layers.get(layer, 0.0)) * 1e3, 4)
            for layer, seconds in self.layer_s.items()
            if seconds != self._pair_layers.get(layer, 0.0)
        }
        self.pairs.append(
            {"pair": self.pair_id, "label": self._label,
             "wall_ms": round(wall_s * 1e3, 4), "self_ms": layers}
        )

    # -- output --------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the pair summaries and coarse spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for pair in self.pairs:
                out.write(json.dumps({"type": "pair", **pair}) + "\n")
            for pair_id, metric, start, duration, own, depth in self.spans:
                out.write(json.dumps({
                    "type": "span", "pair": pair_id, "name": metric,
                    "start_s": round(start, 6), "dur_ms": round(duration * 1e3, 4),
                    "self_ms": round(own * 1e3, 4), "depth": depth,
                }) + "\n")
