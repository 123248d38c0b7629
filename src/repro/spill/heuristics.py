"""The Check_and_Insert_Spill heuristic (Section 3.2.3 / 3.3.3).

After every node placement MIRS-C compares the register requirement RR of
the partial schedule against the registers available AR:

* while the PriorityList is non-empty, spill code is introduced when
  ``RR > SG x AR`` (spill gauge, SG = 2 in the paper);
* once the PriorityList is empty, actual register allocation is performed
  and spilling triggers whenever ``RR > AR``.

The heuristic picks, among the lifetime sections ("uses") crossing the
critical cycle, the one with the largest ratio between its span and the
memory traffic its spilling would generate; sections shorter than the
minimum span gauge (MSG = 4) are not worth spilling.  If no section
qualifies, a node scheduled in the critical cycle is ejected instead,
pushing its non-spillable section out of the critical cycle.

On clustered machines the heuristic first tries to *balance* pressure by
re-timing moves (Section 3.3.3), and considers loop invariants as spill
candidates: an invariant's register can be dropped in favour of a move
from another cluster that still holds it, or a load from memory
(invariants never need a store - their home location is memory).
"""

from __future__ import annotations

from repro.core.state import SchedulerState
from repro.cluster.balance import balance_register_pressure
from repro.cluster.moves import add_invariant_move
from repro.graph.ddg import DepKind, Invariant, MemRef, Node
from repro.machine.resources import OpKind, ResourceClass
from repro.schedule.lifetimes import PressureView, UseSegment

#: Array-id namespace for compiler-generated spill slots (disjoint from
#: the workload generator's arrays).
SPILL_ARRAY_BASE = 1 << 20


def check_and_insert_spill(state: SchedulerState, *, final: bool = False) -> bool:
    """Run the spill check; returns True when the graph was modified.

    ``final`` selects the PriorityList-empty regime: the threshold drops
    from ``SG x AR`` to ``AR`` and RR is taken from an actual register
    allocation rather than the MaxLive approximation (footnote 2 of the
    paper: MaxLive is occasionally a slight underestimate).

    Pressure queries (MaxLive, critical row, use segments) read the
    state's incremental :class:`~repro.schedule.pressure.PressureTracker`,
    which every spill/eject/balance action below keeps current - this
    check, which runs after every placement, no longer rebuilds a
    from-scratch lifetime analysis.
    """
    available = state.machine.cluster.registers
    if available is None:
        return False
    acted = False
    tracker = state.pressure
    # One invariant-count pass for all clusters; refreshed after any
    # action below mutates the schedule or the graph.
    max_live = tracker.max_live_all()
    for cluster in range(state.machine.clusters):
        requirement = max_live[cluster]
        if final:
            threshold = float(available)
            if requirement <= threshold:
                # MaxLive fits, but the actual allocation may exceed it
                # (footnote 2 of the paper) - consult it.  When MaxLive
                # is already over the threshold the allocation cannot
                # change the verdict (greedy colouring never beats the
                # MaxLive lower bound: full-period registers cover every
                # row and arc colours >= the peak arc density), so the
                # expensive colouring runs only on the fitting side.
                # The incremental engine serves the count from its
                # per-cluster caches (recolouring only dirty clusters).
                requirement = max(
                    requirement, state.colouring.registers_used(cluster)
                )
        else:
            threshold = state.params.spill_gauge * available
        if requirement <= threshold:
            continue

        if state.machine.is_clustered and balance_register_pressure(
            state, cluster
        ):
            acted = True
            max_live = tracker.max_live_all()
            if max_live[cluster] <= threshold:
                continue

        if _spill_once(state, cluster, tracker):
            acted = True
        elif _eject_from_critical_row(state, cluster, tracker):
            acted = True
        max_live = tracker.max_live_all()
    return acted


# ----------------------------------------------------------------------
# Candidate selection
# ----------------------------------------------------------------------

def _segment_traffic(state: SchedulerState, segment: UseSegment) -> int:
    """Loads+stores that spilling this section would insert."""
    node = state.graph.node(segment.value)
    if node.move_of_invariant is not None or node.load_of_invariant is not None:
        return 1  # invariants reload straight from their home location
    stores = 0 if state.has_spill_store(segment.value) else 1
    return stores + 1


def _spill_once(
    state: SchedulerState, cluster: int, pressure: PressureView
) -> bool:
    """Spill the best candidate crossing the critical cycle, if any."""
    critical = pressure.critical_row(cluster)
    ii = state.ii
    min_span = state.params.min_span_gauge
    best_segment: UseSegment | None = None
    best_ratio = 0.0
    for segment in pressure.segments_crossing(cluster, critical):
        # Field arithmetic inline (rather than the span/spillable
        # properties): this loop runs on every spill decision.
        span = segment.end - segment.start
        # A ratio never exceeds the span (traffic >= 1), so a span below
        # the best ratio can neither beat nor tie it.
        if (
            span < min_span
            or span < best_ratio
            or segment.start < segment.non_spillable_end
        ):
            continue
        if segment.value not in state.graph:
            continue
        ratio = span / _segment_traffic(state, segment)
        if ratio > best_ratio or (
            best_segment is not None
            and ratio == best_ratio
            and (span, -segment.value)
            > (best_segment.span, -best_segment.value)
        ):
            best_ratio = ratio
            best_segment = segment

    invariant_choice = _best_invariant_candidate(state, cluster)
    if invariant_choice is not None and ii >= state.params.min_span_gauge:
        invariant_ratio = float(ii)  # one load; one register, all rows
        if best_segment is None or invariant_ratio > best_ratio:
            _spill_invariant(state, invariant_choice, cluster)
            return True
    if best_segment is None:
        return False
    _spill_segment(state, best_segment)
    return True


def _best_invariant_candidate(
    state: SchedulerState, cluster: int
) -> Invariant | None:
    """An invariant holding a register in ``cluster`` that can be spilled.

    Only invariants whose consumers are all scheduled are considered, so
    the freed register cannot silently reappear later.
    """
    for invariant in state.graph.invariants():
        if (invariant.id, cluster) in state.spilled_invariants:
            continue
        if not invariant.consumers:
            continue
        if not all(
            state.schedule.is_scheduled(c) for c in invariant.consumers
        ):
            continue
        local = [
            c
            for c in invariant.consumers
            if state.schedule.cluster(c) == cluster
        ]
        if local:
            return invariant
    return None


# ----------------------------------------------------------------------
# Spill transforms
# ----------------------------------------------------------------------

def _spill_slot(state: SchedulerState, value_id: int) -> MemRef:
    return MemRef(array=SPILL_ARRAY_BASE + value_id, stride=1)


def _get_or_create_store(state: SchedulerState, value_id: int) -> Node:
    """The spill store for a value, creating it on first spill."""
    for edge in state.graph.out_edges(value_id):
        node = state.graph.node(edge.dst)
        if node.is_spill and node.kind is OpKind.STORE and (
            node.spilled_value == value_id
        ):
            return node
    store = state.graph.new_node(
        OpKind.STORE,
        is_spill=True,
        spilled_value=value_id,
        mem_ref=_spill_slot(state, value_id),
    )
    state.graph.add_edge(value_id, store.id, kind=DepKind.REG, distance=0)
    priority = state.pl.priority.get(value_id, 1.0) - 0.5
    state.pl.push(store.id, priority)
    state.stats.spill_stores_added += 1
    state.note_memory_node_added()
    state.budget += state.params.budget_ratio
    return store


def _insert_load(
    state: SchedulerState,
    store: Node | None,
    value_id: int,
    consumer: int,
    distance: int,
    mem_ref: MemRef,
    invariant_id: int | None = None,
) -> Node:
    """A spill load feeding ``consumer``, ordered after ``store`` if any."""
    load = state.graph.new_node(
        OpKind.LOAD,
        is_spill=True,
        spilled_value=value_id if invariant_id is None else None,
        load_of_invariant=invariant_id,
        mem_ref=mem_ref,
    )
    if store is not None:
        state.graph.add_edge(
            store.id, load.id, kind=DepKind.MEM, distance=distance
        )
    state.graph.add_edge(load.id, consumer, kind=DepKind.REG, distance=0)
    priority = state.pl.priority.get(consumer, 1.0) - 0.5
    state.pl.push(load.id, priority)
    state.stats.spill_loads_added += 1
    state.note_memory_node_added()
    state.budget += state.params.budget_ratio
    return load


def _find_edge(state: SchedulerState, src: int, dst: int, distance: int):
    for edge in state.graph.out_edges(src):
        if edge.dst == dst and edge.kind is DepKind.REG and (
            edge.distance == distance
        ):
            return edge
    return None


def _spill_segment(state: SchedulerState, segment: UseSegment) -> None:
    """Spill one use section: store after its start, load before its end."""
    value = state.graph.node(segment.value)
    edge = _find_edge(
        state, segment.value, segment.consumer, segment.edge_distance
    )
    if edge is None:
        return  # the graph changed under us; the next check retries

    if value.is_move:
        _spill_move_source(state, value, edge)
        return

    store = _get_or_create_store(state, value.id)
    state.graph.remove_edge(edge)
    _insert_load(
        state,
        store,
        value.id,
        segment.consumer,
        segment.edge_distance,
        store.mem_ref,
    )


def _spill_move_source(state: SchedulerState, move: Node, edge) -> None:
    """Spill a use whose source is a move (Section 3.3.2).

    The move is *eliminated* - the inter-cluster movement happens through
    memory instead - unless (1) it has several consumers and (2) one of
    them is scheduled before the target of the spilled use; in that case
    the move must stay and its own value is spilled like any other.
    """
    schedule = state.schedule
    consumers = [
        e for e in state.graph.out_edges(move.id) if e.kind is DepKind.REG
    ]
    target_time = (
        schedule.time(edge.dst) if schedule.is_scheduled(edge.dst) else None
    )
    earlier_consumer = any(
        e.dst != edge.dst
        and schedule.is_scheduled(e.dst)
        and target_time is not None
        and schedule.time(e.dst) < target_time
        for e in consumers
    )
    keep_move = len(consumers) > 1 and earlier_consumer

    if keep_move:
        store = _get_or_create_store(state, move.id)
        state.graph.remove_edge(edge)
        _insert_load(
            state, store, move.id, edge.dst, edge.distance, store.mem_ref
        )
        return

    if move.move_of_invariant is not None:
        invariant = state.graph.invariant(move.move_of_invariant)
        consumer = edge.dst
        distance = edge.distance
        state.graph.remove_edge(edge)
        _insert_load(
            state,
            None,
            -1,
            consumer,
            distance,
            invariant.mem_ref or MemRef(array=SPILL_ARRAY_BASE - 1 - invariant.id),
            invariant_id=invariant.id,
        )
        if not any(
            e.kind is DepKind.REG for e in state.graph.out_edges(move.id)
        ):
            state.remove_move(move.id)
        return

    producer_edges = [
        e for e in state.graph.in_edges(move.id) if e.kind is DepKind.REG
    ]
    if not producer_edges:
        return
    producer_edge = producer_edges[0]
    total_distance = producer_edge.distance + edge.distance
    consumer = edge.dst
    state.graph.remove_edge(edge)
    store = _get_or_create_store(state, producer_edge.src)
    _insert_load(
        state,
        store,
        producer_edge.src,
        consumer,
        total_distance,
        store.mem_ref,
    )
    if not any(e.kind is DepKind.REG for e in state.graph.out_edges(move.id)):
        state.remove_move(move.id)


def _spill_invariant(
    state: SchedulerState, invariant: Invariant, cluster: int
) -> None:
    """Drop an invariant's register in ``cluster`` (Section 3.3.2).

    Prefer a move from another cluster that still holds the invariant;
    fall back to a load from the invariant's home memory location when no
    such cluster exists or the interconnect is saturated.
    """
    schedule = state.schedule
    # Sorted: ``consumers`` is a set whose iteration order depends on
    # insertion history (and is scrambled by a pickle round-trip, e.g.
    # when a graph is shipped to a worker process); the spill loads must
    # be created in a content-determined order so schedules are
    # bit-identical across processes.
    local_consumers = sorted(
        c
        for c in invariant.consumers
        if schedule.is_scheduled(c) and schedule.cluster(c) == cluster
    )
    if not local_consumers:
        return
    source = _invariant_source_cluster(state, invariant, cluster)
    if source is not None:
        add_invariant_move(
            state, invariant.id, local_consumers, source, cluster
        )
        # The new move must be scheduled: it sits in the PriorityList and
        # the driver will pick it next (its priority is just below its
        # consumers').  Budget grows as for any inserted node.
        state.budget += state.params.budget_ratio
        return
    mem_ref = invariant.mem_ref or MemRef(
        array=SPILL_ARRAY_BASE - 1 - invariant.id
    )
    for consumer in local_consumers:
        state.graph.discard_invariant_consumer(invariant.id, consumer)
        _insert_load(
            state, None, -1, consumer, 0, mem_ref, invariant_id=invariant.id
        )
    state.spilled_invariants.add((invariant.id, cluster))
    state.stats.invariant_spills += 1


def _invariant_source_cluster(
    state: SchedulerState, invariant: Invariant, cluster: int
) -> int | None:
    """A cluster still holding the invariant, if the interconnect allows.

    "If the invariant is not available in another cluster or resources
    (ports and buses in the interconnection) are saturated, then the
    invariant is loaded from memory."
    """
    schedule = state.schedule
    holders = {
        schedule.cluster(c)
        for c in invariant.consumers
        if schedule.is_scheduled(c)
    }
    holders = {
        c
        for c in holders
        if c != cluster and (invariant.id, c) not in state.spilled_invariants
    }
    if not holders:
        return None
    mrt = state.schedule.mrt
    for source in sorted(holders):
        out_busy = mrt.occupancy_fraction(ResourceClass.OUT_PORT, source)
        in_busy = mrt.occupancy_fraction(ResourceClass.IN_PORT, cluster)
        bus_busy = mrt.occupancy_fraction(ResourceClass.BUS, 0)
        if max(out_busy, in_busy, bus_busy) < 1.0:
            return source
    return None


# ----------------------------------------------------------------------
# Fallback: critical-cycle ejection
# ----------------------------------------------------------------------

def _eject_from_critical_row(
    state: SchedulerState, cluster: int, pressure: PressureView
) -> bool:
    """Eject one node issuing in the critical cycle (Section 3.2.3).

    Re-placing it elsewhere moves the non-spillable section of its value
    out of the critical cycle, reducing the register requirement there.
    """
    critical = pressure.critical_row(cluster)
    candidates = state.schedule.nodes_in_row(critical, cluster)
    if not candidates:
        return False
    victim = max(
        candidates,
        key=lambda n: (
            pressure.lifetime_length(n),
            -state.schedule.placement_seq(n),
        ),
    )
    state.eject_node(victim)
    return True
