"""Incremental register-pressure engine (the scheduler's hot path).

MIRS-C consults register pressure *during* scheduling: after every node
placement the spill heuristic reads MaxLive, the critical MRT row and the
per-value use segments (Section 3 of the paper).  Recomputing those from
scratch per placement - what :class:`~repro.schedule.lifetimes.LifetimeAnalysis`
does - costs O(nodes + edges) per check and dominates scheduling time on
large loops.

:class:`PressureTracker` maintains the same state **incrementally**.  It
subscribes to the :class:`~repro.schedule.partial.PartialSchedule`
(place/eject events) and the :class:`~repro.graph.ddg.DependenceGraph`
(edge/node mutation events, i.e. move insertion/removal and spill
insertion) and updates only the affected value lifetimes - O(degree)
per event:

* ``place(v)`` / ``eject(v)``: the lifetime of v's own value starts/ends,
  and each scheduled register *producer* of v gains/loses the use at v
  (their lifetime ends and use segments change);
* ``add_edge`` / ``remove_edge`` (REG): the source value's uses change;
* ``remove_node``: covered by the edge removals plus the schedule
  ``forget``; a defensive cleanup handles direct removals.

Per cluster the live-variant counts are a scalar **base** (the full II
periods of every lifetime, which cover all rows alike) plus a plain list
of II row counts that only the remainder of each lifetime is folded
into.  MaxLive is ``base + max(rows)`` and the critical row is
``rows.index(max(rows))``, the first row among equals.  At IIs up to
about 90 a list fold costs no more than an array-library call's fixed
overhead, so plain integer lists are used throughout: here, in
:class:`LifetimeAnalysis`, in the ``pressure`` snapshot and in the
self-check comparisons.  A refresh that leaves a value's lifetime
where it was folds nothing.

Loop-invariant register counts are cached between the events that can
change them: a place or eject of a node that reads an invariant, an edit
of ``Invariant.consumers`` (the graph's ``add_invariant_consumer`` /
``discard_invariant_consumer`` / ``remove_node`` notify
``on_invariant_changed``), and a change of the scheduler's
``spilled_invariants`` set, detected against a snapshot taken when the
counts were computed.

The tracker's state is asserted bit-identical to a from-scratch
:class:`LifetimeAnalysis` by :meth:`assert_matches_scratch`; setting the
``REPRO_PRESSURE_SELFCHECK`` environment variable (or the module's
``SELF_CHECK`` flag) runs that cross-check after *every* event, which the
test suite uses to validate whole scheduling runs.  ``LifetimeAnalysis``
itself keeps the batch roles: finalisation, register allocation on
results, and this cross-check.
"""

from __future__ import annotations

from repro.env import env_flag
from repro.graph.ddg import DepKind, DependenceGraph, Edge, Node
from repro.machine.config import MachineConfig
from repro.machine.resources import OpKind
from repro.schedule.lifetimes import (
    ClusterPressure,
    LifetimeAnalysis,
    UseSegment,
    ValueLifetime,
)
from repro.schedule.partial import PartialSchedule

# Enum members hoisted: ``DepKind.REG`` is a class-attribute lookup.
_REG = DepKind.REG
_STORE = OpKind.STORE

#: When true, every tracker update re-runs the from-scratch cross-check
#: (``assert_matches_scratch``).  Hundreds of times slower - test-only.
SELF_CHECK = env_flag("REPRO_PRESSURE_SELFCHECK")


def fold_lifetime(
    rows: list[int], ii: int, start: int, end: int, sign: int
) -> None:
    """Add/remove one lifetime [start, end) onto live-count rows in place.

    The shared wrap-around fold: ``full`` complete II periods cover every
    row, the remainder covers ``start % ii`` onward (possibly wrapping).
    Used by the tracker (remainders only: it keeps full periods in a
    scalar base), the balance heuristic's probe loop and the colouring
    engine's density profile.
    """
    length = end - start
    if length <= 0:
        return
    full, rest = divmod(length, ii)
    if full:
        rows[:] = [r + sign * full for r in rows]
    if rest:
        first = start % ii
        tail = first + rest
        if tail <= ii:
            rows[first:tail] = [r + sign for r in rows[first:tail]]
        else:
            rows[first:] = [r + sign for r in rows[first:]]
            rows[: tail - ii] = [r + sign for r in rows[: tail - ii]]


class _Entry:
    """Tracked lifetime of one scheduled value."""

    __slots__ = ("cluster", "start", "end", "segments")

    def __init__(
        self,
        cluster: int,
        start: int,
        end: int,
        segments: tuple[UseSegment, ...],
    ):
        self.cluster = cluster
        self.start = start
        self.end = end
        self.segments = segments


class PressureTracker:
    """Register pressure of a partial schedule, maintained incrementally.

    Exposes the same query surface as :class:`LifetimeAnalysis`
    (``max_live``, ``critical_row``, ``segments_in_cluster``,
    ``lifetimes``, ``pressure``), so the spill heuristic and the register
    allocator accept either interchangeably.

    Args:
        graph: the dependence graph being scheduled (mutations observed).
        schedule: the partial schedule (placements observed).
        machine: target machine.
        spilled_invariants: the scheduler's *live* set of
            (invariant id, cluster) pairs - compared against a snapshot
            on every query, so the caller keeps mutating its own set in
            place.
        self_check: run the from-scratch cross-check after every event
            (defaults to the module's ``SELF_CHECK`` flag).
    """

    def __init__(
        self,
        graph: DependenceGraph,
        schedule: PartialSchedule,
        machine: MachineConfig,
        spilled_invariants: set[tuple[int, int]] | None = None,
        self_check: bool | None = None,
        tracer=None,
    ):
        from repro.obs.tracer import NULL_TRACER

        self.graph = graph
        self.schedule = schedule
        self.machine = machine
        self.ii = schedule.ii
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: MaxLive/critical-row queries served (per-attempt diagnostic;
        #: reported on the attempt span and at detach).
        self.queries = 0
        self.spilled_invariants = (
            spilled_invariants if spilled_invariants is not None else set()
        )
        self.self_check = SELF_CHECK if self_check is None else self_check
        #: Per cluster: full II periods of every lifetime (a scalar
        #: base) and the remainders folded into II row counts.
        self._base: list[int] = [0] * machine.clusters
        self._rows: list[list[int]] = [
            [0] * self.ii for _ in range(machine.clusters)
        ]
        #: Invariant registers per cluster, cached between the events
        #: that can change them (``None`` = stale), with the invariant
        #: readers and the spilled set they were computed from.
        self._invariant_counts: dict[int, int] | None = None
        self._invariant_readers: set[int] = set()
        self._spilled_snapshot: frozenset[tuple[int, int]] = frozenset()
        self._entries: dict[int, _Entry] = {}
        self._latency_cache: dict[OpKind, int] = {}
        self._lifetimes_cache: list[ValueLifetime] | None = None
        #: Downstream observers of *lifetime* changes (the incremental
        #: arc-colouring engine).  Each listener implements
        #: ``on_lifetime_changed(node_id, old, new)`` where ``old``/``new``
        #: are ``(cluster, start, end)`` tuples (``None`` for
        #: untracked); notifications fire after this tracker's own state
        #: changed, and only when the lifetime actually moved.
        self.lifetime_listeners: list = []
        for node_id in schedule.scheduled_ids():
            self._refresh(node_id)
        graph._listeners.append(self)
        schedule.listeners.append(self)
        if self.tracer.enabled:
            self.tracer.instant("pressure.attach", "alloc", ii=self.ii)

    def detach(self) -> None:
        """Stop observing the graph and schedule (end of an attempt)."""
        if self in self.graph._listeners:
            self.graph._listeners.remove(self)
        if self in self.schedule.listeners:
            self.schedule.listeners.remove(self)
        if self.tracer.enabled:
            self.tracer.instant(
                "pressure.detach", "alloc", queries=self.queries
            )

    # ------------------------------------------------------------------
    # Event handlers (called by PartialSchedule and DependenceGraph)
    # ------------------------------------------------------------------

    def on_place(self, node: Node, cluster: int, cycle: int) -> None:
        if node.id in self._invariant_readers:
            self._invariant_counts = None
        if node.kind is not _STORE:
            self._refresh(node.id)
        self._refresh_producers(node.id)
        if self.self_check:
            self.assert_matches_scratch()

    def on_eject(self, node_id: int) -> None:
        if node_id in self._invariant_readers:
            self._invariant_counts = None
        entry = self._entries.pop(node_id, None)
        if entry is not None:
            self._fold(entry.cluster, entry.start, entry.end, -1)
            self._lifetimes_cache = None
            self._notify_lifetime(
                node_id, (entry.cluster, entry.start, entry.end), None
            )
        self._refresh_producers(node_id)
        if self.self_check:
            self.assert_matches_scratch()

    def on_edge_added(self, edge: Edge) -> None:
        if edge.kind is _REG and edge.src in self._entries:
            self._refresh(edge.src)
            if self.self_check:
                self.assert_matches_scratch()

    def on_edge_removed(self, edge: Edge) -> None:
        if edge.kind is _REG and edge.src in self._entries:
            self._refresh(edge.src)
            if self.self_check:
                self.assert_matches_scratch()

    def on_node_removed(self, node_id: int) -> None:
        # Nodes are forgotten from the schedule before removal; this is a
        # defensive cleanup for direct graph edits.
        entry = self._entries.pop(node_id, None)
        if entry is not None:
            self._fold(entry.cluster, entry.start, entry.end, -1)
            self._lifetimes_cache = None
            self._notify_lifetime(
                node_id, (entry.cluster, entry.start, entry.end), None
            )

    def on_invariant_changed(self, invariant_id: int) -> None:
        # An invariant's consumer set changed: recount on the next query.
        self._invariant_counts = None

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def _latency(self, node: Node) -> int:
        if node.latency_override is not None:
            return node.latency_override
        kind = node.kind
        latency = self._latency_cache.get(kind)
        if latency is None:
            latency = self.machine.latency(kind)
            self._latency_cache[kind] = latency
        return latency

    def _refresh_producers(self, node_id: int) -> None:
        """Re-derive every scheduled producer feeding ``node_id``."""
        entries = self._entries
        producers = {
            edge.src
            for edge in self.graph._in[node_id]
            if edge.kind is _REG and edge.src != node_id
        }
        for src in producers:
            if src in entries:
                self._refresh(src)

    def _refresh(self, node_id: int) -> None:
        """Recompute one scheduled value's lifetime and segments.

        Mirrors one iteration of ``LifetimeAnalysis._compute`` exactly;
        O(out-degree) plus the O(II / row span) fold.
        """
        entry = self._entries.get(node_id)
        old = (
            (entry.cluster, entry.start, entry.end)
            if entry is not None
            else None
        )
        times = self.schedule._time
        start = times.get(node_id)
        if start is None:
            if entry is not None:
                self._fold(entry.cluster, entry.start, entry.end, -1)
                del self._entries[node_id]
                self._lifetimes_cache = None
                self._notify_lifetime(node_id, old, None)
            return
        node = self.graph._nodes[node_id]
        if node.kind is _STORE:
            return  # stores define no value (and never hold an entry)
        cluster = self.schedule._cluster[node_id]
        latency = self._latency(node)
        ii = self.ii
        end = start + latency
        uses: list[tuple[int, int, int]] = []
        for edge in self.graph._out[node_id]:
            if edge.kind is not _REG or edge.dst not in times:
                continue
            use_cycle = times[edge.dst] + ii * edge.distance
            uses.append((use_cycle, edge.dst, edge.distance))
            if use_cycle > end:
                end = use_cycle
        segments = self._build_segments(node, cluster, start, latency, uses)
        self._entries[node_id] = _Entry(cluster, start, end, segments)
        new = (cluster, start, end)
        if new != old:
            # An unchanged lifetime leaves the rows and lifetimes as
            # they are.
            self._lifetimes_cache = None
            if entry is not None:
                self._fold(entry.cluster, entry.start, entry.end, -1)
            self._fold(cluster, start, end, +1)
            self._notify_lifetime(node_id, old, new)

    def _notify_lifetime(
        self,
        node_id: int,
        old: tuple[int, int, int] | None,
        new: tuple[int, int, int] | None,
    ) -> None:
        for listener in self.lifetime_listeners:
            listener.on_lifetime_changed(node_id, old, new)

    def _build_segments(
        self,
        node: Node,
        cluster: int,
        start: int,
        latency: int,
        uses: list[tuple[int, int, int]],
    ) -> tuple[UseSegment, ...]:
        if node.is_spill or not uses:
            # Values produced by spill loads are not spilled again.
            return ()
        non_spillable_end = start + latency
        nodes = self.graph._nodes
        segments = []
        previous = start
        for use_cycle, consumer, distance in sorted(uses):
            consumer_node = nodes[consumer]
            if not (
                consumer_node.is_spill
                and consumer_node.kind.is_memory
                and consumer_node.spilled_value == node.id
            ):
                segments.append(
                    UseSegment(
                        value=node.id,
                        consumer=consumer,
                        edge_distance=distance,
                        start=previous,
                        end=use_cycle,
                        non_spillable_end=non_spillable_end,
                        cluster=cluster,
                    )
                )
            previous = use_cycle
        return tuple(segments)

    def _fold(self, cluster: int, start: int, end: int, sign: int) -> None:
        """Add/remove one lifetime [start, end): full II periods go to the
        cluster's base, only the remainder is folded into its rows."""
        length = end - start
        if length <= 0:
            return
        ii = self.ii
        full, rest = divmod(length, ii)
        if full:
            self._base[cluster] += sign * full
        if rest:
            fold_lifetime(self._rows[cluster], ii, start, start + rest, sign)

    # ------------------------------------------------------------------
    # Queries (the LifetimeAnalysis-compatible surface)
    # ------------------------------------------------------------------

    def _invariant_registers(self) -> dict[int, int]:
        """Registers held by loop invariants, per cluster (cached)."""
        counts = self._invariant_counts
        if counts is not None and self.spilled_invariants == self._spilled_snapshot:
            return counts
        counts = {}
        readers: set[int] = set()
        schedule = self.schedule
        for inv in self.graph.invariants():
            readers |= inv.consumers
            clusters = {
                schedule.cluster(consumer)
                for consumer in inv.consumers
                if schedule.is_scheduled(consumer)
            }
            for cluster in clusters:
                if (inv.id, cluster) in self.spilled_invariants:
                    continue
                counts[cluster] = counts.get(cluster, 0) + 1
        self._invariant_counts = counts
        self._invariant_readers = readers
        self._spilled_snapshot = frozenset(self.spilled_invariants)
        return counts

    def invariant_registers(self, cluster: int) -> int:
        return self._invariant_registers().get(cluster, 0)

    def variant_rows(self, cluster: int) -> list[int]:
        """The live-variant count per MRT row (a fresh list)."""
        base = self._base[cluster]
        return [base + r for r in self._rows[cluster]]

    def max_live(self, cluster: int) -> int:
        self.queries += 1
        return (
            self._base[cluster]
            + max(self._rows[cluster])
            + self.invariant_registers(cluster)
        )

    def critical_row(self, cluster: int) -> int:
        self.queries += 1
        rows = self._rows[cluster]
        return rows.index(max(rows))

    def max_live_all(self) -> dict[int, int]:
        """MaxLive of every cluster, with one invariant-count lookup."""
        self.queries += 1
        counts = self._invariant_registers()
        base = self._base
        return {
            cluster: base[cluster] + max(rows) + counts.get(cluster, 0)
            for cluster, rows in enumerate(self._rows)
        }

    def total_max_live(self) -> int:
        """Summed MaxLive across clusters."""
        return sum(self.max_live_all().values())

    @property
    def pressure(self) -> dict[int, ClusterPressure]:
        counts = self._invariant_registers()
        return {
            cluster: ClusterPressure(
                rows=self.variant_rows(cluster),
                invariant_registers=counts.get(cluster, 0),
            )
            for cluster in range(self.machine.clusters)
        }

    @property
    def lifetimes(self) -> list[ValueLifetime]:
        """Current value lifetimes, in placement order (like the batch
        analysis, which walks the schedule's insertion-ordered dict).

        Cached between mutations (the register allocator reads it
        repeatedly in the drained regime); treat as read-only.
        """
        if self._lifetimes_cache is None:
            self._lifetimes_cache = [
                ValueLifetime(
                    value=node_id, cluster=e.cluster, start=e.start, end=e.end
                )
                for node_id, e in self._entries.items()
            ]
        return self._lifetimes_cache

    @property
    def segments(self) -> list[UseSegment]:
        return [s for e in self._entries.values() for s in e.segments]

    def segments_in_cluster(self, cluster: int) -> list[UseSegment]:
        # A value's segments all lie in its entry's cluster.
        return [
            s
            for e in self._entries.values()
            if e.cluster == cluster
            for s in e.segments
        ]

    def lifetime_bounds(self, node_id: int) -> tuple[int, int]:
        """[start, end) of a tracked value (must be scheduled)."""
        entry = self._entries[node_id]
        return entry.start, entry.end

    def lifetime_length(self, node_id: int) -> int:
        """Lifetime length of a value, 0 when untracked (e.g. stores)."""
        entry = self._entries.get(node_id)
        return entry.end - entry.start if entry is not None else 0

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def assert_matches_scratch(self) -> None:
        """Assert bit-identity with a from-scratch ``LifetimeAnalysis``.

        Compares rows, invariant counts, MaxLive, critical rows, the full
        lifetime list and the full segment list (both in placement
        order).  Raises ``AssertionError`` with context on any mismatch.
        """
        scratch = LifetimeAnalysis(
            self.graph,
            self.schedule,
            self.machine,
            spilled_invariants=self.spilled_invariants,
            collect_segments=True,
        )
        counts = self._invariant_registers()
        for cluster in range(self.machine.clusters):
            expected = scratch.pressure[cluster]
            got_rows = self.variant_rows(cluster)
            if got_rows != expected.rows:
                raise AssertionError(
                    f"pressure rows diverged in cluster {cluster}: "
                    f"tracker={got_rows} scratch={expected.rows}"
                )
            if counts.get(cluster, 0) != expected.invariant_registers:
                raise AssertionError(
                    f"invariant registers diverged in cluster {cluster}: "
                    f"tracker={counts.get(cluster, 0)} "
                    f"scratch={expected.invariant_registers}"
                )
            if self.max_live(cluster) != expected.max_live:
                raise AssertionError(
                    f"MaxLive diverged in cluster {cluster}: "
                    f"tracker={self.max_live(cluster)} "
                    f"scratch={expected.max_live}"
                )
            if self.critical_row(cluster) != expected.critical_row:
                raise AssertionError(
                    f"critical row diverged in cluster {cluster}: "
                    f"tracker={self.critical_row(cluster)} "
                    f"scratch={expected.critical_row}"
                )
        if self.lifetimes != scratch.lifetimes:
            mine = {lt.value: lt for lt in self.lifetimes}
            theirs = {lt.value: lt for lt in scratch.lifetimes}
            diff = [
                (v, mine.get(v), theirs.get(v))
                for v in sorted(set(mine) | set(theirs))
                if mine.get(v) != theirs.get(v)
            ]
            raise AssertionError(f"lifetimes diverged: {diff[:5]}")
        if self.segments != scratch.segments:
            raise AssertionError(
                "use segments diverged: "
                f"tracker has {len(self.segments)}, "
                f"scratch has {len(scratch.segments)}"
            )
