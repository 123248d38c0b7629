"""Trace a schedule and read the story back.

Every layer of the scheduler stack reports into a
:class:`repro.obs.Tracer`: ``MirsC.schedule`` wraps each run in a
``schedule`` span tiled by ``phase.prepare``/``phase.search``/
``phase.finalize``, every fixed-II attempt gets an ``attempt`` span
(outcome kind, ejections, spills, pressure/allocator query counts),
the speculative race emits launch/verify/cancel/commit instants, and
the allocator engines mark attach/detach and idle-valve transitions.

Tracing is off by default (a shared no-op ``NullTracer``; the
benchmark suite gates its overhead below 2%).  Turn it on by passing a
``RecordingTracer``, by exporting ``REPRO_TRACE=/path/trace.jsonl``,
or with the CLI's ``--trace PATH``.

This example schedules a register-starved workbench loop serially and
at K=2 speculation, exports the trace as JSONL plus Chrome trace-event
JSON (drop it into Perfetto / ``chrome://tracing``), validates both
against the committed schema, and prints the same per-phase breakdown
``python -m repro trace summary`` renders.
"""

import tempfile
from pathlib import Path

from repro import MirsC, MirsParams, RecordingTracer, parse_config
from repro.obs.export import (
    chrome_path_for,
    chrome_payload,
    validate_chrome,
    validate_trace_file,
    write_chrome,
    write_jsonl,
)
from repro.obs.summary import summarize_file
from repro.workloads.perfect import cached_suite

machine = parse_config("2-(GP4M2-REG16)")
loop = cached_suite(6)[5].graph

tracer = RecordingTracer()
serial = MirsC(machine, strict=False, tracer=tracer).schedule(loop.clone())
raced = MirsC(
    machine, params=MirsParams(speculation=2), strict=False, tracer=tracer
).schedule(loop.clone())
assert raced.ii == serial.ii  # tracing and speculation change nothing

out = Path(tempfile.mkdtemp(prefix="repro-trace-")) / "trace.jsonl"
write_jsonl(tracer, out)
write_chrome(tracer, chrome_path_for(out))
assert validate_trace_file(out) == []
assert validate_chrome(chrome_payload(tracer)) == []

summary = summarize_file(out)
print(summary.render())
print(
    f"\nwrote {out} (+ {chrome_path_for(out).name}); the phases cover "
    f"{summary.phase_coverage:.1%} of the {summary.span_counts['schedule']} "
    "schedule spans, and the race ledger rides along as counter events."
)
assert summary.phase_coverage > 0.9
assert len(summary.attempts) >= 2
