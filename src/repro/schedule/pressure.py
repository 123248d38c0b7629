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

* ``place(v)``: v's own value gets a fresh lifetime, and v's REG
  in-edges are walked once: each scheduled register *producer* of v
  gains the use at v (a **placement delta**).  Its end only grows, so
  only ``[old_end, new_end)`` is folded; a use before the producer's
  start lowers ``low`` instead;
* ``eject(v)``: v's own lifetime is dropped and v's uses (at the cycle
  v left) are removed from each producer; only a producer whose
  ``end`` or ``low`` a removed use set is refreshed in full;
* ``restamp(v)`` (v placed again where it was): no lifetime changes,
  only v's entry moves to the end, since lifetimes are listed in
  placement order;
* ``add_edge`` / ``remove_edge`` (REG): the source value's uses change;
* ``remove_node``: covered by the edge removals plus the schedule
  ``forget``; a defensive cleanup handles direct removals.

Per cluster the live-variant counts are a scalar **base** (the full II
periods of every lifetime, which cover all rows alike) plus a plain list
of II row counts that only the remainder of each lifetime is folded
into.  MaxLive is ``base + max(rows)`` and the critical row is
``rows.index(max(rows))``, the first row among equals.  The tracker
**keeps that peak**: a ``+1`` fold raises it to the top of the rows it
touched, a ``-1`` fold marks it stale, and the next query recomputes
it.  At IIs up to about 90 a list fold costs no more than an
array-library call's fixed overhead, so plain integer lists are used
throughout: here, in :class:`LifetimeAnalysis`, in the ``pressure``
snapshot and in the self-check comparisons.  A refresh that leaves a
value's lifetime where it was folds nothing.

A refresh that moves only a value's end (same cluster, same start) is a
**delta fold**: just ``[old_end, new_end)`` is folded, with the sign of
the change.  Only ``base + rows[r]`` is observable, and it comes out as
a fresh fold would give it; the split between base and rows is no
longer canonical (it may differ from a fresh fold's by a per-cluster
constant, so rows can even go negative), which leaves MaxLive, the
critical row and ``variant_rows`` unchanged.

**Use segments are lazy.**  A refresh keeps the value's ``uses``
(``(use cycle, consumer, distance)`` triples) and, unless only their
order changed, marks its segments stale; they are built, in
``sorted(uses)`` order, by the first query that reads the entry.  The
spill heuristic's query is
:meth:`PressureTracker.segments_crossing`: exactly the segments of a
cluster that cross one MRT row, in placement order.  Each entry keeps
the II-bit mask of the rows its lifetime covers, so a value whose
lifetime misses the row is skipped before its segments are built or
read (on the stress loops about 64 of 200 values cross the critical
row).

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
from repro.graph.latency import node_latency
from repro.machine.config import MachineConfig
from repro.machine.resources import OpKind
from repro.schedule.lifetimes import (
    ClusterPressure,
    LifetimeAnalysis,
    UseSegment,
    ValueLifetime,
)
from repro.schedule.mrt import arc_mask
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
        # Most remainders span a few rows: a plain loop beats slicing.
        first = start % ii
        tail = first + rest
        if tail > ii:
            for row in range(first, ii):
                rows[row] += sign
            first, tail = 0, tail - ii
        for row in range(first, tail):
            rows[row] += sign


class _Entry:
    """Tracked lifetime of one scheduled value.

    ``uses`` are the ``(use cycle, consumer, distance)`` triples of the
    scheduled REG consumers, in no particular order (placement deltas
    append and remove them); ``segments`` are built from ``sorted(uses)``
    on the first query that reads this entry (``None`` = not built since
    the uses changed).
    """

    __slots__ = (
        "value", "cluster", "start", "end", "ready", "low", "reach", "uses",
        "segments",
    )

    def __init__(
        self,
        value: int,
        cluster: int,
        start: int,
        end: int,
        ready: int,
        low: int,
        reach: int,
        uses: list[tuple[int, int, int]],
    ):
        self.value = value
        self.cluster = cluster
        self.start = start
        self.end = end
        #: End of the producer-latency prefix (``start + latency``).
        self.ready = ready
        #: ``start``, or an earlier use while a dependence is violated:
        #: every segment lies inside ``[low, end)``.
        self.low = low
        #: II-bit mask of the MRT rows ``[low, end)`` covers.
        self.reach = reach
        self.uses = uses
        self.segments: tuple[UseSegment, ...] | None = None


class PressureTracker:
    """Register pressure of a partial schedule, maintained incrementally.

    Like :class:`LifetimeAnalysis` it is a
    :class:`~repro.schedule.lifetimes.PressureView` (``max_live``,
    ``critical_row``, ``segments_crossing``, ``lifetime_length``,
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
        #: Per cluster: the kept ``max(rows)``, or ``None`` when a
        #: ``-1`` fold left it stale (the next query recomputes it).
        self._peak: list[int | None] = [0] * machine.clusters
        #: Invariant registers per cluster, cached between the events
        #: that can change them (``None`` = stale), with the invariant
        #: readers and the spilled set they were computed from.
        self._invariant_counts: dict[int, int] | None = None
        self._invariant_readers: set[int] = set()
        self._spilled_snapshot: frozenset[tuple[int, int]] = frozenset()
        self._entries: dict[int, _Entry] = {}
        self._all_rows = (1 << self.ii) - 1
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
        node_id = node.id
        if node_id in self._invariant_readers:
            self._invariant_counts = None
        if node.kind is not _STORE:
            self._refresh(node_id)
        # Placement delta: each scheduled producer gains the use at the
        # node (one per REG edge; a self-loop is the node's own refresh).
        entries = self._entries
        ii = self.ii
        grown: dict[int, int] = {}
        for edge in self.graph._in[node_id]:
            src = edge.src
            if edge.kind is not _REG or src == node_id:
                continue
            entry = entries.get(src)
            if entry is None:
                continue
            distance = edge.distance
            use_cycle = cycle + ii * distance
            entry.uses.append((use_cycle, node_id, distance))
            entry.segments = None
            if use_cycle > entry.end:
                end = grown.get(src)
                if end is None or use_cycle > end:
                    grown[src] = use_cycle
            elif use_cycle < entry.low:
                entry.low = use_cycle
                entry.reach = self._reach(use_cycle, entry.end)
        # Each end moves just before its own announcement, so a listener
        # sees the tracker's entries as it has been told of them.
        for src, end in grown.items():
            entry = entries[src]
            old_end = entry.end
            entry.end = end
            entry.reach = self._reach(entry.low, end)
            self._moved_end(entry, old_end)
        if self.self_check:
            self.assert_matches_scratch()

    def on_eject(self, node_id: int, cycle: int) -> None:
        if node_id in self._invariant_readers:
            self._invariant_counts = None
        self._drop(node_id)
        # Placement delta: each scheduled producer loses the use at the
        # node's old cycle.  Only a producer whose end or low bound that
        # use set is refreshed in full.
        entries = self._entries
        ii = self.ii
        moved: set[int] = set()
        for edge in self.graph._in[node_id]:
            entry = entries.get(edge.src)
            if entry is None or edge.kind is not _REG:
                continue  # the node's own entry is dropped already
            distance = edge.distance
            use_cycle = cycle + ii * distance
            entry.uses.remove((use_cycle, node_id, distance))
            entry.segments = None
            if use_cycle >= entry.end or use_cycle <= entry.low:
                moved.add(edge.src)
        for src in moved:
            self._refresh(src)
        if self.self_check:
            self.assert_matches_scratch()

    def on_restamp(self, node_id: int) -> None:
        # The node is the latest placed again and lifetimes are listed
        # in placement order: its entry moves to the end, unrefolded.
        entry = self._entries.pop(node_id, None)
        if entry is not None:
            self._entries[node_id] = entry
            self._lifetimes_cache = None
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
        self._drop(node_id)

    def on_invariant_changed(self, invariant_id: int) -> None:
        # An invariant's consumer set changed: recount on the next query.
        self._invariant_counts = None

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------

    def _moved_end(self, entry: _Entry, old_end: int) -> None:
        """Fold and announce a placement delta that moved an end."""
        self._lifetimes_cache = None
        cluster, start, end = entry.cluster, entry.start, entry.end
        self._fold_end(cluster, old_end, end)
        self._notify_lifetime(
            entry.value, (cluster, start, old_end), (cluster, start, end)
        )

    def _refresh(self, node_id: int) -> None:
        """Recompute one scheduled value's lifetime and uses.

        Mirrors one iteration of ``LifetimeAnalysis._compute`` exactly;
        O(out-degree) plus the fold of what the lifetime gained or lost.
        The use segments are built on the first query that reads them.
        """
        entries = self._entries
        entry = entries.get(node_id)
        times = self.schedule._time
        start = times.get(node_id)
        if start is None:
            self._drop(node_id)
            return
        node = self.graph._nodes[node_id]
        if node.kind is _STORE:
            return  # stores define no value (and never hold an entry)
        cluster = self.schedule._cluster[node_id]
        ready = start + node_latency(node, self.machine)
        ii = self.ii
        end = ready
        low = start
        uses: list[tuple[int, int, int]] = []
        for edge in self.graph._out[node_id]:
            if edge.kind is not _REG:
                continue
            use_time = times.get(edge.dst)
            if use_time is None:
                continue
            use_cycle = use_time + ii * edge.distance
            uses.append((use_cycle, edge.dst, edge.distance))
            if use_cycle > end:
                end = use_cycle
            elif use_cycle < low:
                low = use_cycle
        if entry is None:
            reach = self._reach(low, end)
            entries[node_id] = _Entry(
                node_id, cluster, start, end, ready, low, reach, uses
            )
            self._lifetimes_cache = None
            self._fold(cluster, start, end, +1)
            self._notify_lifetime(node_id, None, (cluster, start, end))
            return
        old_cluster, old_start, old_end = entry.cluster, entry.start, entry.end
        if ready != entry.ready or cluster != old_cluster or start != old_start:
            entry.cluster, entry.start, entry.ready = cluster, start, ready
            entry.uses = uses
            entry.segments = None
        elif uses != entry.uses:
            # This walk lists uses in out-edge order, placement deltas in
            # placement order: segments, built from the sorted uses, stand
            # when only the order differs.
            kept = entry.uses
            if len(uses) != len(kept) or sorted(uses) != sorted(kept):
                entry.segments = None
            entry.uses = uses
        if end != old_end or low != entry.low:
            entry.end, entry.low = end, low
            entry.reach = self._reach(low, end)
        if end == old_end and cluster == old_cluster and start == old_start:
            return  # an unchanged lifetime leaves rows and lifetimes be
        self._lifetimes_cache = None
        if cluster == old_cluster and start == old_start:
            self._fold_end(cluster, old_end, end)
        else:
            self._fold(old_cluster, old_start, old_end, -1)
            self._fold(cluster, start, end, +1)
        self._notify_lifetime(
            node_id, (old_cluster, old_start, old_end), (cluster, start, end)
        )

    def _drop(self, node_id: int) -> None:
        """Forget a value's entry (its node left the schedule or graph)."""
        entry = self._entries.pop(node_id, None)
        if entry is not None:
            self._fold(entry.cluster, entry.start, entry.end, -1)
            self._lifetimes_cache = None
            self._notify_lifetime(
                node_id, (entry.cluster, entry.start, entry.end), None
            )

    def _reach(self, low: int, end: int) -> int:
        """The II-bit mask of the MRT rows ``[low, end)`` covers."""
        length = end - low
        if length >= self.ii:
            return self._all_rows
        return arc_mask(low, length, self.ii)

    def _notify_lifetime(
        self,
        node_id: int,
        old: tuple[int, int, int] | None,
        new: tuple[int, int, int] | None,
    ) -> None:
        for listener in self.lifetime_listeners:
            listener.on_lifetime_changed(node_id, old, new)

    def _segments(self, entry: _Entry) -> tuple[UseSegment, ...]:
        """The entry's use segments, built from its uses when stale."""
        segments = entry.segments
        if segments is not None:
            return segments
        node_id = entry.value
        node = self.graph._nodes[node_id]
        if node.is_spill or not entry.uses:
            # Values produced by spill loads are not spilled again.
            entry.segments = ()
            return ()
        nodes = self.graph._nodes
        cluster = entry.cluster
        ready = entry.ready
        built = []
        previous = entry.start
        for use_cycle, consumer, distance in sorted(entry.uses):
            consumer_node = nodes[consumer]
            if not (
                consumer_node.is_spill
                and consumer_node.kind.is_memory
                and consumer_node.spilled_value == node_id
            ):
                built.append(
                    UseSegment(
                        value=node_id,
                        consumer=consumer,
                        edge_distance=distance,
                        start=previous,
                        end=use_cycle,
                        non_spillable_end=ready,
                        cluster=cluster,
                    )
                )
            previous = use_cycle
        entry.segments = segments = tuple(built)
        return segments

    def _fold(self, cluster: int, start: int, end: int, sign: int) -> None:
        """Add/remove one lifetime [start, end): full II periods go to the
        cluster's base, only the remainder is folded into its rows."""
        length = end - start
        if length <= 0:
            return
        full, rest = divmod(length, self.ii)
        if full:
            self._base[cluster] += sign * full
        if rest:
            rows = self._rows[cluster]
            fold_lifetime(rows, self.ii, start, start + rest, sign)
            if sign < 0:
                self._peak[cluster] = None
                return
            peak = self._peak[cluster]
            if peak is None:
                return  # stale: the next query recomputes it
            # Only the rows this fold raised can top the kept peak.
            first = start % self.ii
            tail = first + rest
            if tail > self.ii:
                top = max(max(rows[first:]), max(rows[: tail - self.ii]))
            else:
                top = max(rows[first:tail])
            if top > peak:
                self._peak[cluster] = top

    def _fold_end(self, cluster: int, old_end: int, end: int) -> None:
        """Move a lifetime's end: fold only ``[old_end, end)`` (or remove
        ``[end, old_end)``).  ``base + rows[r]`` comes out as a fresh fold
        of the whole lifetime gives it; the split between the two may
        differ from it by a per-cluster constant."""
        if end > old_end:
            self._fold(cluster, old_end, end, +1)
        else:
            self._fold(cluster, end, old_end, -1)

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

    def _row_peak(self, cluster: int) -> int:
        """``max(rows)`` of a cluster: the kept peak, recomputed when
        stale."""
        peak = self._peak[cluster]
        if peak is None:
            peak = self._peak[cluster] = max(self._rows[cluster])
        return peak

    def max_live(self, cluster: int) -> int:
        self.queries += 1
        return (
            self._base[cluster]
            + self._row_peak(cluster)
            + self.invariant_registers(cluster)
        )

    def critical_row(self, cluster: int) -> int:
        self.queries += 1
        return self._rows[cluster].index(self._row_peak(cluster))

    def max_live_all(self) -> dict[int, int]:
        """MaxLive of every cluster, with one invariant-count lookup."""
        self.queries += 1
        counts = self._invariant_registers()
        base = self._base
        peaks = self._peak
        live = {}
        for cluster, peak in enumerate(peaks):
            if peak is None:
                peak = self._row_peak(cluster)
            live[cluster] = base[cluster] + peak + counts.get(cluster, 0)
        return live

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
        return [s for e in self._entries.values() for s in self._segments(e)]

    def segments_crossing(self, cluster: int, row: int) -> list[UseSegment]:
        """The use segments of ``cluster`` that cross MRT ``row``, in
        placement order (each value's in use order).

        Every segment lies inside its value's lifetime, so a value whose
        ``reach`` misses the row is skipped before its segments are built
        or read.
        """
        ii = self.ii
        bit = 1 << row
        crossing = []
        for entry in [e for e in self._entries.values() if e.reach & bit]:
            if entry.cluster != cluster:
                continue
            segments = entry.segments
            if segments is None:
                segments = self._segments(entry)
            for segment in segments:
                start = segment.start
                span = segment.end - start
                # UseSegment.crosses_row, inline.
                if span > 0 and (span >= ii or (row - start) % ii < span):
                    crossing.append(segment)
        return crossing

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

        Compares the kept peak (unless stale) with ``max(rows)``, then
        rows, invariant counts, MaxLive, critical rows, the
        segments crossing each critical row, the full lifetime list and
        the full segment list (both in placement order).  Raises
        ``AssertionError`` with context on any mismatch.
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
            peak = self._peak[cluster]
            if peak is not None and peak != max(self._rows[cluster]):
                raise AssertionError(
                    f"kept peak diverged in cluster {cluster}: "
                    f"peak={peak} max(rows)={max(self._rows[cluster])}"
                )
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
            row = expected.critical_row
            if self.segments_crossing(cluster, row) != scratch.segments_crossing(
                cluster, row
            ):
                raise AssertionError(
                    f"segments crossing row {row} diverged in cluster "
                    f"{cluster}"
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
