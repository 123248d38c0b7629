"""Typed counters and gauges layered over the tracer.

:class:`SearchStats` is the II-search ledger as a typed dataclass,
emitted as tracer counter events (``race.launched``,
``race.cancelled`` and the attempt counts).  Every executed attempt
ran in this search: attempts are never served from a cache.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass
class SearchStats:
    """The II-search ledger of one :meth:`MirsC.schedule` call.

    Attributes:
        speculation: frontier width K the search ran with.
        runner: class name of the attempt runner that executed it.
        serial_attempts: attempts on the serial-equivalent path (what
            the K=1 ladder executes).
        executed_attempts: attempts that actually completed (speculative
            extras included).
        launched: tasks submitted to the runner.
        cancelled: in-flight attempts revoked.
    """

    speculation: int = 1
    runner: str = ""
    serial_attempts: int = 0
    executed_attempts: int = 0
    launched: int = 0
    cancelled: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def emit(self, tracer, prefix: str = "race") -> None:
        """Publish the integer counters as tracer gauge samples."""
        for name, value in self.as_dict().items():
            if isinstance(value, int):
                tracer.counter(f"{prefix}.{name}", value)


def outcome_histogram(trace_entries) -> dict[str, int]:
    """Failure/outcome-kind histogram of a ``search_trace``.

    Accepts the ``as_trace_entry`` dicts stored in
    ``SchedulerStats.search_trace``; returns ``{kind: count}`` sorted by
    kind name (stable for messages and JSON artifacts).
    """
    histogram: dict[str, int] = {}
    for entry in trace_entries:
        kind = entry.get("kind", "unknown")
        histogram[kind] = histogram.get(kind, 0) + 1
    return dict(sorted(histogram.items()))
