"""Incremental wrap-around (circular-arc) register colouring.

The drained-regime loop of MIRS-C consults an *actual* register
allocation after every spill/balance/eject round (Figure 4 step (4);
footnote 2 of the paper: MaxLive is occasionally a slight underestimate,
so the fitting side of the verdict must run the colouring).  The batch
path - :func:`repro.schedule.regalloc._colour_arcs` over a fresh arc
list - costs O(values * II) per call: it re-derives every arc from the
lifetime list, rebuilds the row-density profile, re-sorts, and re-runs
the greedy first-fit, although only a handful of lifetimes change
between rounds.

:class:`IncrementalArcColouring` maintains the colouring problem
incrementally.  It subscribes to the
:class:`~repro.schedule.pressure.PressureTracker`'s lifetime events (the
same observer chain that keeps MaxLive current across place/eject/spill
events) and keeps, per cluster:

* the **arc set** - value -> (start row, length) for the ``length % II``
  remainder of each lifetime, with the arc's row bitmask cached;
* the **row-density list** - how many arcs cross each MRT row, the
  cut-point profile the greedy's least-pressured starting row is read
  from in O(II) instead of O(arcs * span) per call;
* the **dedicated count** - summed ``length // II`` full-period
  registers;
* a sorted arc list, so the greedy's processing order for *any* cut
  point is a rotation (O(arcs)) rather than a fresh O(n log n) sort.

Colourings are cached at **dirty-cluster granularity**: a query reuses
the previous colouring outright for clusters whose lifetimes did not
change, and recolours only the affected bucket - by re-running the
*identical* greedy (longest-first from the least-pressured cut point)
over the maintained arc set, which makes the engine register-count- and
colour-identical to batch ``_colour_arcs`` by construction rather than
by approximation.  The engine builds its buckets lazily on the first
query and tears them down again if events flood in with no query in
sight (the gauged regime never allocates), so the scheduling hot path
pays nothing until the PriorityList drains.

``REPRO_COLOUR_SELFCHECK=1`` (or the module's ``SELF_CHECK`` flag)
cross-checks every event like the pressure tracker's self-check: each
lifetime event validates the maintained arc sets, densities and
dedicated counts against the tracker's entries, and each query
additionally replays the batch oracle - a from-scratch
:class:`~repro.schedule.lifetimes.LifetimeAnalysis` fed through
``_colour_arcs`` - asserting identical colour counts, colour maps and
``registers_used``.
"""

from __future__ import annotations

import bisect

from repro.env import env_flag
from repro.graph.ddg import DependenceGraph
from repro.machine.config import MachineConfig
from repro.schedule.lifetimes import LifetimeAnalysis
from repro.schedule.mrt import arc_mask
from repro.schedule.partial import PartialSchedule
from repro.schedule.pressure import PressureTracker, fold_lifetime

#: When true, every lifetime event re-validates the maintained buckets
#: and every query replays the batch colouring oracle.  Orders of
#: magnitude slower - test/CI-leg only.
SELF_CHECK = env_flag("REPRO_COLOUR_SELFCHECK")

#: Events tolerated with no query before an idle engine tears its
#: buckets down (the gauged regime places thousands of nodes between
#: allocations; rebuilding on the next query is one batch-sized pass).
_IDLE_EVENT_FACTOR = 8
_IDLE_EVENT_FLOOR = 256


class _ClusterBucket:
    """One cluster's maintained colouring problem."""

    __slots__ = (
        "ii", "dedicated", "arcs", "order", "density", "masks",
        "dirty", "colour_count", "colours",
    )

    def __init__(self, ii: int):
        self.ii = ii
        self.dedicated = 0
        #: value -> (start row, arc length), 0 < length < II.
        self.arcs: dict[int, tuple[int, int]] = {}
        #: Sorted (start row, -length, value) triples; the greedy order
        #: for cut point c is the rotation starting at the first entry
        #: with start row >= c.
        self.order: list[tuple[int, int, int]] = []
        self.density = [0] * ii
        self.masks: dict[int, int] = {}
        self.dirty = True
        self.colour_count = 0
        self.colours: dict[int, int] = {}

    def add(self, value: int, start: int, end: int) -> None:
        length = end - start
        if length <= 0:
            return
        full, rest = divmod(length, self.ii)
        self.dedicated += full
        if rest:
            first = start % self.ii
            self.arcs[value] = (first, rest)
            bisect.insort(self.order, (first, -rest, value))
            fold_lifetime(self.density, self.ii, first, first + rest, +1)
            self.masks[value] = arc_mask(first, rest, self.ii)
        self.dirty = True

    def remove(self, value: int, start: int, end: int) -> None:
        length = end - start
        if length <= 0:
            return
        full, rest = divmod(length, self.ii)
        self.dedicated -= full
        if rest:
            first = start % self.ii
            del self.arcs[value]
            del self.masks[value]
            self.order.pop(bisect.bisect_left(self.order, (first, -rest, value)))
            fold_lifetime(self.density, self.ii, first, first + rest, -1)
        self.dirty = True

    def recolour(self) -> None:
        """Re-run the batch greedy over the maintained arc set.

        Identical to ``_colour_arcs``: the cut point is the first
        least-dense row, and arcs are processed by
        ``((start - cut) % II, -length, value)`` - which over the
        maintained sorted order is a rotation, not a sort.
        """
        if not self.arcs:
            self.colour_count, self.colours = 0, {}
            self.dirty = False
            return
        cut = self.density.index(min(self.density))
        split = bisect.bisect_left(self.order, (cut,))
        masks = self.masks
        occupancies: list[int] = []
        chosen: dict[int, int] = {}
        for _, _, value in self.order[split:] + self.order[:split]:
            mask = masks[value]
            for index, occupancy in enumerate(occupancies):
                if not (occupancy & mask):
                    occupancies[index] = occupancy | mask
                    chosen[value] = index
                    break
            else:
                occupancies.append(mask)
                chosen[value] = len(occupancies) - 1
        self.colour_count, self.colours = len(occupancies), chosen
        self.dirty = False


class IncrementalArcColouring:
    """Register allocation of a partial schedule, maintained incrementally.

    Args:
        graph: the dependence graph being scheduled.
        schedule: the partial schedule.
        machine: target machine.
        tracker: the state's live
            :class:`~repro.schedule.pressure.PressureTracker`; the
            engine mirrors its lifetime entries (one arc per tracked
            value) via ``lifetime_listeners`` and reads its invariant
            register counts on every query.
        self_check: validate every event and replay the batch oracle on
            every query (defaults to the module's ``SELF_CHECK`` flag).
            Self-checking engines build eagerly and never idle out.
    """

    def __init__(
        self,
        graph: DependenceGraph,
        schedule: PartialSchedule,
        machine: MachineConfig,
        tracker: PressureTracker,
        self_check: bool | None = None,
        tracer=None,
    ):
        from repro.obs.tracer import NULL_TRACER

        self.graph = graph
        self.schedule = schedule
        self.machine = machine
        self.tracker = tracker
        self.ii = tracker.ii
        self.self_check = SELF_CHECK if self_check is None else self_check
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Allocation queries served (per-attempt diagnostic; reported
        #: on the attempt span and at detach).
        self.queries = 0
        self._buckets: dict[int, _ClusterBucket] | None = None
        self._events_since_query = 0
        #: Monotone lifetime-event count (diagnostics; the allocator
        #: benchmark uses it to replay its batch oracle once per
        #: mutation epoch instead of once per query).
        self.events_seen = 0
        tracker.lifetime_listeners.append(self)
        if self.tracer.enabled:
            self.tracer.instant("colour.attach", "alloc", ii=self.ii)
        if self.self_check:
            self._ensure_built()

    def detach(self) -> None:
        """Stop observing the tracker (end of an attempt)."""
        if self in self.tracker.lifetime_listeners:
            self.tracker.lifetime_listeners.remove(self)
        if self.tracer.enabled:
            self.tracer.instant(
                "colour.detach", "alloc", queries=self.queries
            )

    # ------------------------------------------------------------------
    # Event handler (called by PressureTracker)
    # ------------------------------------------------------------------

    def on_lifetime_changed(
        self,
        node_id: int,
        old: tuple[int, int, int] | None,
        new: tuple[int, int, int] | None,
    ) -> None:
        self.events_seen += 1
        if self._buckets is None:
            return
        if old is not None:
            self._buckets[old[0]].remove(node_id, old[1], old[2])
        if new is not None:
            self._buckets[new[0]].add(node_id, new[1], new[2])
        if self.self_check:
            self._assert_buckets_match_tracker()
            return
        # Idle valve: a long event burst with no allocation query means
        # the scheduler is back in the gauged regime - stop paying the
        # per-event cost and rebuild lazily on the next query.
        self._events_since_query += 1
        if self._events_since_query > max(
            _IDLE_EVENT_FLOOR,
            _IDLE_EVENT_FACTOR * len(self.tracker._entries),
        ):
            self._buckets = None
            if self.tracer.enabled:
                self.tracer.instant(
                    "colour.idle_valve", "alloc",
                    action="teardown", events=self._events_since_query,
                )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _ensure_built(self) -> dict[int, _ClusterBucket]:
        if self._buckets is None:
            buckets = {
                cluster: _ClusterBucket(self.ii)
                for cluster in range(self.machine.clusters)
            }
            for node_id, entry in self.tracker._entries.items():
                buckets[entry.cluster].add(node_id, entry.start, entry.end)
            self._buckets = buckets
            if self.tracer.enabled:
                self.tracer.instant(
                    "colour.idle_valve", "alloc",
                    action="rebuild", arcs=len(self.tracker._entries),
                )
        self._events_since_query = 0
        return self._buckets

    def _coloured(self, cluster: int) -> _ClusterBucket:
        bucket = self._ensure_built()[cluster]
        if bucket.dirty:
            bucket.recolour()
        return bucket

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def cluster_colouring(self, cluster: int) -> tuple[int, dict[int, int]]:
        """(colour count, value -> colour) of one cluster - identical to
        batch ``_colour_arcs`` over the cluster's current arcs."""
        bucket = self._coloured(cluster)
        if self.self_check:
            self.assert_matches_scratch()
        return bucket.colour_count, bucket.colours

    def variant_registers(self, cluster: int) -> int:
        """Dedicated full-period registers + arc colours (no invariants)."""
        bucket = self._coloured(cluster)
        return bucket.dedicated + bucket.colour_count

    def registers_used(self, cluster: int) -> int:
        """The cluster's allocation size: dedicated + colours + invariants.

        Equals ``allocate_registers(...)[cluster].registers_used`` on the
        same state, at O(changed lifetimes) instead of O(values * II).
        """
        self.queries += 1
        used = self.variant_registers(cluster) + self.tracker.invariant_registers(
            cluster
        )
        if self.self_check:
            self.assert_matches_scratch()
        return used

    def registers_used_all(self) -> dict[int, int]:
        """Per-cluster allocation sizes (the ``_fits_registers`` query)."""
        return {
            cluster: self.registers_used(cluster)
            for cluster in range(self.machine.clusters)
        }

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def _assert_buckets_match_tracker(self) -> None:
        """Validate the maintained buckets against the tracker's entries.

        Cheap enough to run per event: O(values) dict work plus one
        density fold per arc.  The tracker itself is cross-checked
        against a from-scratch analysis by its own self-check, so this
        composes into full from-scratch coverage.
        """
        ii = self.ii
        expected: dict[int, _ClusterBucket] = {
            cluster: _ClusterBucket(ii)
            for cluster in range(self.machine.clusters)
        }
        for node_id, entry in self.tracker._entries.items():
            expected[entry.cluster].add(node_id, entry.start, entry.end)
        assert self._buckets is not None
        for cluster, want in expected.items():
            got = self._buckets[cluster]
            if got.arcs != want.arcs:
                raise AssertionError(
                    f"arc set diverged in cluster {cluster}: "
                    f"engine={got.arcs} tracker={want.arcs}"
                )
            if got.order != want.order:
                raise AssertionError(
                    f"arc order diverged in cluster {cluster}: "
                    f"engine={got.order} tracker={want.order}"
                )
            if got.dedicated != want.dedicated:
                raise AssertionError(
                    f"dedicated registers diverged in cluster {cluster}: "
                    f"engine={got.dedicated} tracker={want.dedicated}"
                )
            if got.density != want.density:
                raise AssertionError(
                    f"arc density diverged in cluster {cluster}: "
                    f"engine={got.density} tracker={want.density}"
                )
            if got.masks != want.masks:
                raise AssertionError(
                    f"arc masks diverged in cluster {cluster}"
                )

    def assert_matches_scratch(self) -> None:
        """Assert identity with the batch oracle on the current state.

        Rebuilds a from-scratch
        :class:`~repro.schedule.lifetimes.LifetimeAnalysis`, feeds its
        arcs through batch ``_colour_arcs`` and compares colour counts,
        colour maps, dedicated counts, densities and ``registers_used``
        per cluster.  Only valid at quiescent points (between scheduler
        events), where the tracker equals the scratch analysis.
        """
        from repro.schedule.regalloc import _colour_arcs

        self._ensure_built()
        self._assert_buckets_match_tracker()
        scratch = LifetimeAnalysis(
            self.graph,
            self.schedule,
            self.machine,
            spilled_invariants=self.tracker.spilled_invariants,
            collect_segments=False,
        )
        ii = self.ii
        for cluster in range(self.machine.clusters):
            dedicated = 0
            arcs: list[tuple[int, int, int]] = []
            for lifetime in scratch.lifetimes:
                if lifetime.cluster != cluster or lifetime.length <= 0:
                    continue
                full, rest = divmod(lifetime.length, ii)
                dedicated += full
                if rest:
                    arcs.append((lifetime.value, lifetime.start % ii, rest))
            count, chosen = _colour_arcs(arcs, ii)
            bucket = self._coloured(cluster)
            if bucket.dedicated != dedicated:
                raise AssertionError(
                    f"dedicated registers diverged in cluster {cluster}: "
                    f"engine={bucket.dedicated} scratch={dedicated}"
                )
            if (bucket.colour_count, bucket.colours) != (count, chosen):
                raise AssertionError(
                    f"colouring diverged in cluster {cluster}: "
                    f"engine=({bucket.colour_count}, {bucket.colours}) "
                    f"scratch=({count}, {chosen})"
                )
            engine_used = (
                bucket.dedicated
                + bucket.colour_count
                + self.tracker.invariant_registers(cluster)
            )
            scratch_used = (
                dedicated
                + count
                + scratch.pressure[cluster].invariant_registers
            )
            if engine_used != scratch_used:
                raise AssertionError(
                    f"registers_used diverged in cluster {cluster}: "
                    f"engine={engine_used} scratch={scratch_used}"
                )
