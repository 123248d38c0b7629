"""Span/event tracing primitives.

The scheduler stack reports *what happened when* through a
:class:`Tracer`: spans (named intervals — one scheduling attempt, one
search phase, one suite execution), instants (point events — a race
launch, a cache probe) and counters (gauge samples — the speculative
ledger).  Two implementations exist:

* :class:`NullTracer` — the default everywhere.  Every method is a
  no-op returning immediately; ``enabled`` is ``False`` so hot paths
  can skip even argument construction.  Tracing off must cost nothing
  measurable (<2% on the workbench — gated in
  ``benchmarks/bench_scheduler.py``).
* :class:`RecordingTracer` — an append-only in-process event log with
  a deterministic sequence counter.  Event *order* (``seq``, names,
  categories, args) is reproducible run to run for serial schedules;
  only the timestamps vary — CI diffs traces modulo ``ts``/``dur``.

Cross-process merging: a worker records into its own
:class:`RecordingTracer` and ships :meth:`RecordingTracer.export` (a
plain-dict payload) back with its task's result over the private pipe
of its :class:`repro.exec.workers.Workers` worker; the
parent folds it in with :meth:`Tracer.merge`, re-timing events onto its
own clock via the recorded wall epochs.
"""

from __future__ import annotations

import dataclasses
import time

#: Bump when the event encoding changes; the committed
#: ``trace_schema.json`` carries the same number.
TRACE_SCHEMA_VERSION = 1


@dataclasses.dataclass
class TraceEvent:
    """One recorded event.

    Attributes:
        seq: deterministic per-tracer ordinal (emission order).
        name: event name (``"attempt"``, ``"race.launch"``, ...).
        cat: category (``"schedule"``, ``"race"``, ``"exec"``,
            ``"alloc"``, ``"metrics"``).
        kind: ``"span"`` (has a duration), ``"instant"`` or
            ``"counter"``.
        ts: seconds since the owning tracer's epoch.
        dur: span duration in seconds (0.0 for instants/counters).
        tid: logical track (``"main"``, ``"attempt-ii7"``,
            ``"worker:3"``).
        args: JSON-serializable details (counters carry ``value``).
    """

    seq: int
    name: str
    cat: str
    kind: str
    ts: float
    dur: float
    tid: str
    args: dict

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "name": self.name,
            "cat": self.cat,
            "kind": self.kind,
            "ts": round(self.ts, 9),
            "dur": round(self.dur, 9),
            "tid": self.tid,
            "args": self.args,
        }


class Tracer:
    """The tracing protocol (and, as written, the null implementation).

    ``begin``/``end`` bracket a span: ``begin`` returns an opaque token,
    ``end`` consumes it (span args may be supplied at either side; the
    ``end`` args win on collision).  Implementations must make every
    method safe to call unconditionally; callers on hot paths should
    still guard bulk argument construction with ``if tracer.enabled:``.
    """

    enabled: bool = False

    def begin(self, name: str, cat: str, **args) -> object:
        """Open a span; returns a token for :meth:`end`."""
        return None

    def end(self, token: object, **args) -> None:
        """Close a span opened by :meth:`begin`."""

    def instant(self, name: str, cat: str, **args) -> None:
        """Record a point event."""

    def counter(self, name: str, value, cat: str = "metrics") -> None:
        """Record a gauge sample."""

    def merge(self, payload: dict | None, tid: str | None = None) -> None:
        """Fold an exported worker trace into this one."""


class NullTracer(Tracer):
    """The zero-overhead default: records nothing, returns immediately."""

    __slots__ = ()


#: The process-wide inert tracer; share it rather than allocating.
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """An in-process event recorder with deterministic sequencing.

    Args:
        tid: the default logical track for events emitted directly on
            this tracer (merged events keep/override their own).
    """

    enabled = True

    def __init__(self, tid: str = "main"):
        self.tid = tid
        self.events: list[TraceEvent] = []
        #: Monotonic clock origin: every ``ts`` is relative to this.
        self.epoch = time.perf_counter()
        #: Wall-clock time of the epoch — lets exporters reconstruct
        #: absolute ("wall") timestamps and lets :meth:`merge` re-time
        #: a worker's events onto this tracer's axis.
        self.wall_epoch = time.time()
        #: Last sampled value per counter name (the gauge view).
        self.gauges: dict[str, float] = {}
        self._seq = 0

    # ------------------------------------------------------------------

    def _now(self) -> float:
        return time.perf_counter() - self.epoch

    def _emit(
        self, name: str, cat: str, kind: str, ts: float, dur: float,
        args: dict, tid: str | None = None,
    ) -> TraceEvent:
        event = TraceEvent(
            seq=self._seq,
            name=name,
            cat=cat,
            kind=kind,
            ts=ts,
            dur=dur,
            tid=self.tid if tid is None else tid,
            args=args,
        )
        self._seq += 1
        self.events.append(event)
        return event

    # ------------------------------------------------------------------

    def begin(self, name: str, cat: str, **args) -> object:
        return (name, cat, self._now(), args)

    def end(self, token: object, **args) -> None:
        if token is None:
            return
        name, cat, start, opened = token
        merged = {**opened, **args} if opened else args
        self._emit(name, cat, "span", start, self._now() - start, merged)

    def instant(self, name: str, cat: str, **args) -> None:
        self._emit(name, cat, "instant", self._now(), 0.0, args)

    def counter(self, name: str, value, cat: str = "metrics") -> None:
        self.gauges[name] = value
        self._emit(name, cat, "counter", self._now(), 0.0, {"value": value})

    # ------------------------------------------------------------------

    def export(self) -> dict:
        """The trace as a plain-dict payload (picklable, mergeable)."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "tid": self.tid,
            "wall_epoch": self.wall_epoch,
            "events": [event.as_dict() for event in self.events],
        }

    def drain(self) -> dict:
        """Export, then forget — long-lived worker tracers ship their
        events after every unit of work instead of accumulating."""
        payload = self.export()
        self.events = []
        return payload

    def merge(self, payload: dict | None, tid: str | None = None) -> None:
        """Fold an exported worker trace into this one.

        Events keep their relative order and gain fresh ``seq`` numbers
        (merge order is the parent's processing order, which callers
        keep deterministic).  Timestamps are re-based onto this tracer's
        clock through the wall epochs — approximate across processes,
        exact enough for timeline rendering.
        """
        if not payload:
            return
        offset = payload.get("wall_epoch", self.wall_epoch) - self.wall_epoch
        default_tid = tid if tid is not None else payload.get("tid", "worker")
        for raw in payload.get("events", ()):
            self._emit(
                raw["name"],
                raw["cat"],
                raw["kind"],
                raw["ts"] + offset,
                raw["dur"],
                dict(raw["args"]),
                tid=default_tid if tid is not None else raw.get(
                    "tid", default_tid
                ),
            )
