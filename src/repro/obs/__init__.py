"""repro.obs — structured tracing and metrics for the scheduler stack.

Three ways to turn tracing on, one resolution order:

1. pass a :class:`RecordingTracer` explicitly
   (``MirsC(machine, tracer=...)`` or ``ScheduleRequest(trace=...)``);
2. pass ``True`` to use the process-global tracer;
3. set ``REPRO_TRACE=/path/to/trace.jsonl`` — every schedule in the
   process records into the global tracer, and the trace (JSONL plus a
   sibling ``.chrome.json`` in Chrome trace-event format) is written at
   interpreter exit.

``False`` forces tracing off regardless of the environment; ``None``
(the default everywhere) follows it.  With nothing enabled, every hook
dispatches to the shared :class:`NullTracer` — a no-op, gated at <2%
workbench overhead in ``benchmarks/bench_scheduler.py``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import sys

from repro.env import env_str
from repro.obs.metrics import SearchStats, outcome_histogram
from repro.obs.tracer import (
    NULL_TRACER,
    TRACE_SCHEMA_VERSION,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    Tracer,
)

#: Environment knob: a JSONL path enabling process-global tracing.
TRACE_ENV = "REPRO_TRACE"

_GLOBAL_TRACER: RecordingTracer | None = None
_EXIT_HOOKED = False

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "RecordingTracer",
    "SearchStats",
    "TRACE_ENV",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "Tracer",
    "global_tracer",
    "outcome_histogram",
    "reset_global_tracer",
    "resolve_tracer",
]


def _flush_global_tracer() -> None:  # pragma: no cover - atexit plumbing
    path = env_str(TRACE_ENV)
    if not path or _GLOBAL_TRACER is None or not _GLOBAL_TRACER.events:
        return
    from repro.obs.export import chrome_path_for, write_chrome, write_jsonl

    write_jsonl(_GLOBAL_TRACER, path)
    chrome = write_chrome(_GLOBAL_TRACER, chrome_path_for(path))
    print(
        f"[repro.obs] trace written: {path} (+ {chrome})",
        file=sys.stderr,
    )


def global_tracer() -> RecordingTracer:
    """The process-global tracer (created on first use).

    When ``REPRO_TRACE`` names a path, the trace is exported at
    interpreter exit — from the main process only: daemonic pool
    workers record into their own global tracer and ship events back
    with each task's result instead.
    """
    global _GLOBAL_TRACER, _EXIT_HOOKED
    if _GLOBAL_TRACER is None:
        _GLOBAL_TRACER = RecordingTracer(tid="main")
        if not _EXIT_HOOKED and not multiprocessing.current_process().daemon:
            atexit.register(_flush_global_tracer)
            _EXIT_HOOKED = True
    return _GLOBAL_TRACER


def reset_global_tracer() -> None:
    """Drop the process-global tracer (a fresh one appears on next use).

    Forked pool workers inherit the parent's global tracer *with* its
    recorded history; each worker calls this once when it starts, so
    per-loop drains ship only events the worker itself recorded, never
    a copy of everything the parent traced before the fork.
    """
    global _GLOBAL_TRACER
    _GLOBAL_TRACER = None


def resolve_tracer(spec) -> Tracer:
    """The one tracer-resolution point (mirrors ``resolve_cache``).

    ``Tracer`` instance → itself; ``True`` → the process-global tracer;
    ``False`` → off (overriding the environment); ``None`` → the
    global tracer when ``REPRO_TRACE`` is set, else off.
    """
    if isinstance(spec, Tracer):
        return spec
    if spec is True:
        return global_tracer()
    if spec is False:
        return NULL_TRACER
    if spec is None:
        if env_str(TRACE_ENV):
            return global_tracer()
        return NULL_TRACER
    raise TypeError(
        f"cannot interpret {spec!r} as a tracer (expected a Tracer, "
        "True, False or None)"
    )
