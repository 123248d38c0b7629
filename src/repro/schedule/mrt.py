"""The modulo reservation table (MRT).

A modulo schedule at initiation interval II repeats every II cycles, so a
resource used at cycle *t* is used at *every* cycle congruent with
``t mod II``.  The MRT therefore has II rows per resource instance, and an
operation can be placed at cycle *t* only if every resource step of its
reservation table finds a free instance at the corresponding row.

Two non-trivial cases (both called out by the paper):

* unpipelined operations reserve the *same* FU instance for several
  consecutive rows; if their occupancy exceeds II the reservation
  collides with itself and the placement is impossible at this II;
* move operations reserve resources in *two* clusters plus a global bus
  (the "complex reservation table" of Section 1), which is what makes
  them hard to place and ejection so valuable.

The table is the scheduler's innermost probe, so occupancy is held as
int bitmasks: every (resource, cluster) *pool* has an int pool index and
one II-bit mask per instance (bit *r* set = row *r* taken).  Each
operation kind's reservation steps are resolved once per table, together
with its self-collision verdict (``duration > II``) and, per step, the
row mask at every start row - ``(1 << duration) - 1`` rotated by
``(cycle + offset) % II``.  A probe is then a few ``occupancy & mask``
tests, and :meth:`~ModuloReservationTable.place` keeps first-fit: the
lowest-index instance whose mask is free.  The row -> node occupants are
kept per instance (node id -> mask) only for ``blocking_nodes`` and
``occupancy_fraction``.
"""

from __future__ import annotations

from repro.errors import SchedulingError
from repro.graph.ddg import Node
from repro.machine.config import MachineConfig
from repro.machine.reservation import ClusterRole, reservation_steps
from repro.machine.resources import OpKind, ResourceClass

def arc_mask(start: int, length: int, ii: int) -> int:
    """The II-bit row mask of ``length`` rows from ``start`` (mod II).

    The single definition of a wrap-around row interval: this table's
    reservation steps, the batch ``_colour_arcs`` in
    :mod:`repro.schedule.regalloc` and the incremental colouring engine
    all use it, so their mask semantics cannot drift apart.
    """
    full = (1 << ii) - 1
    base = (1 << length) - 1
    start %= ii
    return ((base << start) | (base >> (ii - start))) & full


#: Per-cluster resource pools, in pool-index order (buses come last).
_CLUSTER_RESOURCES = (
    ResourceClass.GP_FU,
    ResourceClass.MEM_PORT,
    ResourceClass.OUT_PORT,
    ResourceClass.IN_PORT,
)


class _Step:
    """One reservation step of an op kind, resolved for one table."""

    __slots__ = ("from_source", "pools", "offset", "masks", "resource", "duration")

    def __init__(self, from_source, pools, offset, masks, resource, duration):
        #: Indexed by the source cluster (moves) instead of the own one.
        self.from_source = from_source
        #: cluster -> pool index (the bus pool for every cluster).
        self.pools = pools
        self.offset = offset
        #: start row -> the step's II-bit row mask.
        self.masks = masks
        self.resource = resource
        self.duration = duration


class _Plan:
    """An op kind's resolved reservation at one II."""

    __slots__ = ("kind", "collides", "needs_source", "steps")

    def __init__(self, kind, collides, needs_source, steps):
        self.kind = kind
        self.collides = collides
        self.needs_source = needs_source
        self.steps = steps


class ModuloReservationTable:
    """Tracks resource occupancy per (resource class, cluster, instance, row)."""

    def __init__(self, machine: MachineConfig, ii: int):
        if ii < 1:
            raise SchedulingError("initiation interval must be positive")
        self.machine = machine
        self.ii = ii
        # Pool index -> (resource, cluster) and back.  Buses use
        # cluster = -1; unbounded buses are not tracked at all.
        self._pool_keys: list[tuple[ResourceClass, int]] = [
            (resource, cluster)
            for resource in _CLUSTER_RESOURCES
            for cluster in range(machine.clusters)
        ]
        if machine.buses is not None:
            self._pool_keys.append((ResourceClass.BUS, -1))
        self._pool_of = {key: pool for pool, key in enumerate(self._pool_keys)}
        #: pool -> per-instance occupancy masks.
        self._occ: list[list[int]] = []
        #: pool -> per-instance {node id: mask} occupants.
        self._holders: list[list[dict[int, int]]] = []
        for resource, _ in self._pool_keys:
            count = machine.instances(resource)
            self._occ.append([0] * count)
            self._holders.append([{} for _ in range(count)])
        # node id -> [(pool, instance, mask)] it holds.
        self._held: dict[int, list[tuple[int, int, int]]] = {}
        # Reservations are identical for all operations of a kind, so a
        # plan is resolved once per kind; it is looked up by node id
        # (int hashing) and checked against the node's kind by identity.
        self._kind_plans: dict[OpKind, _Plan] = {}
        self._node_plans: dict[int, _Plan] = {}

    # ------------------------------------------------------------------
    # Step resolution
    # ------------------------------------------------------------------

    def _resolve_kind(self, kind: OpKind) -> _Plan:
        ii = self.ii
        clusters = range(self.machine.clusters)
        steps = []
        collides = needs_source = False
        for step in reservation_steps(kind, self.machine):
            if step.resource is ResourceClass.BUS and self.machine.buses is None:
                continue  # unbounded interconnect: never a constraint
            if step.role is ClusterRole.GLOBAL:
                pools = (self._pool_of[(step.resource, -1)],) * len(clusters)
            else:
                pools = tuple(
                    self._pool_of[(step.resource, c)] for c in clusters
                )
            from_source = step.role is ClusterRole.SOURCE
            needs_source = needs_source or from_source
            if step.duration > ii:
                collides = True  # self-collision: occupancy exceeds II
                masks: list[int] = []
            else:
                masks = [arc_mask(s, step.duration, ii) for s in range(ii)]
            steps.append(_Step(
                from_source, pools, step.offset, masks, step.resource,
                step.duration,
            ))
        return _Plan(kind, collides, needs_source, tuple(steps))

    def _plan(self, node: Node, src_cluster: int | None) -> _Plan:
        plan = self._node_plans.get(node.id)
        if plan is None or plan.kind is not node.kind:
            plan = self._kind_plans.get(node.kind)
            if plan is None:
                plan = self._kind_plans[node.kind] = self._resolve_kind(node.kind)
            self._node_plans[node.id] = plan
        if plan.needs_source and src_cluster is None:
            raise SchedulingError(
                f"move node {node.id} placed without a source cluster"
            )
        return plan

    def _groups(
        self,
        node: Node,
        cluster: int,
        cycle: int,
        src_cluster: int | None,
    ) -> list[tuple[int, int, _Step]] | None:
        """The node's ``(pool, row mask, step)`` groups at a placement.

        Each group must be satisfied by a *single* resource instance
        free at all its rows.  Returns ``None`` when the reservation
        collides with itself (occupancy > II on one instance).
        """
        plan = self._plan(node, src_cluster)
        if plan.collides:
            return None
        ii = self.ii
        return [
            (
                step.pools[src_cluster if step.from_source else cluster],
                step.masks[(cycle + step.offset) % ii],
                step,
            )
            for step in plan.steps
        ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def can_place(
        self,
        node: Node,
        cluster: int,
        cycle: int,
        src_cluster: int | None = None,
    ) -> bool:
        """True if the node fits at (cluster, cycle) without conflicts."""
        plan = self._plan(node, src_cluster)
        if plan.collides:
            return False
        ii = self.ii
        occ = self._occ
        for step in plan.steps:
            pool = step.pools[src_cluster if step.from_source else cluster]
            mask = step.masks[(cycle + step.offset) % ii]
            for taken in occ[pool]:
                if not taken & mask:
                    break
            else:
                return False
        return True

    def feasible_at_ii(
        self,
        node: Node,
        cluster: int,
        src_cluster: int | None = None,
    ) -> bool:
        """True unless the node's reservation self-collides at this II
        (which no amount of ejection can fix)."""
        return not self._plan(node, src_cluster).collides

    def blocking_nodes(
        self,
        node: Node,
        cluster: int,
        cycle: int,
        src_cluster: int | None = None,
    ) -> set[int]:
        """Nodes that currently block this placement.

        For each resource group the instance with the fewest distinct
        occupants is considered (that is the instance a forced placement
        would evict from), and those occupants are returned.
        """
        groups = self._groups(node, cluster, cycle, src_cluster)
        if groups is None:
            raise SchedulingError(
                f"node {node.id} cannot be force-placed at II={self.ii}: "
                "its reservation table collides with itself"
            )
        victims: set[int] = set()
        for pool, mask, _ in groups:
            best: set[int] | None = None
            for taken, holders in zip(self._occ[pool], self._holders[pool]):
                if not taken & mask:
                    best = set()
                    break
                occupants = {nid for nid, held in holders.items() if held & mask}
                if best is None or len(occupants) < len(best):
                    best = occupants
            if best:
                victims |= best
        return victims

    def reservation_groups(
        self,
        node: Node,
        cluster: int,
        cycle: int,
        src_cluster: int | None = None,
    ) -> list[tuple[ResourceClass, int, list[int]]] | None:
        """The node's resolved reservation groups at a placement.

        Each ``(resource, cluster, rows)`` group must be satisfied by a
        single resource instance free at all its rows; ``None`` means
        the reservation collides with itself at this II.  Public for the
        independent verifier, which solves the instance-assignment
        problem exactly instead of replaying this table's first-fit
        (whose success is placement-order-dependent for multi-row
        reservations such as unpipelined divides).
        """
        groups = self._groups(node, cluster, cycle, src_cluster)
        if groups is None:
            return None
        return [
            (
                step.resource,
                self._pool_keys[pool][1],
                [(cycle + step.offset + i) % self.ii for i in range(step.duration)],
            )
            for pool, _, step in groups
        ]

    def instance_count(self, resource: ResourceClass, cluster: int) -> int:
        """Physical instances backing a (resource, cluster) pool."""
        return len(self._occ[self._pool_of[(resource, cluster)]])

    def occupancy_fraction(
        self, resource: ResourceClass, cluster: int
    ) -> float:
        """Fraction of this resource's MRT slots currently occupied."""
        key = (resource, cluster if not resource.is_global else -1)
        pool = self._pool_of.get(key)
        if pool is None:
            return 0.0
        masks = self._occ[pool]
        total = len(masks) * self.ii
        if total == 0:
            return 1.0
        used = sum(mask.bit_count() for mask in masks)
        return used / total

    def holds(self, node_id: int) -> bool:
        return node_id in self._held

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def place(
        self,
        node: Node,
        cluster: int,
        cycle: int,
        src_cluster: int | None = None,
    ) -> None:
        """Reserve the node's resources; raises on conflict."""
        if node.id in self._held:
            raise SchedulingError(f"node {node.id} is already placed")
        plan = self._plan(node, src_cluster)
        if plan.collides:
            raise SchedulingError(
                f"node {node.id} self-collides at II={self.ii}"
            )
        ii = self.ii
        held: list[tuple[int, int, int]] = []
        for step in plan.steps:
            pool = step.pools[src_cluster if step.from_source else cluster]
            mask = step.masks[(cycle + step.offset) % ii]
            masks = self._occ[pool]
            for instance, taken in enumerate(masks):
                if not taken & mask:
                    break
            else:
                # Roll back partial reservations before failing.
                self._release(node.id, held)
                raise SchedulingError(
                    f"resource conflict placing node {node.id} at "
                    f"cluster {cluster} cycle {cycle}"
                )
            masks[instance] = taken | mask
            holders = self._holders[pool][instance]
            holders[node.id] = holders.get(node.id, 0) | mask
            held.append((pool, instance, mask))
        self._held[node.id] = held

    def remove(self, node_id: int) -> None:
        """Release every reservation held by the node."""
        held = self._held.pop(node_id, None)
        if held is None:
            raise SchedulingError(f"node {node_id} holds no reservations")
        self._release(node_id, held)

    def _release(self, node_id: int, held: list[tuple[int, int, int]]) -> None:
        for pool, instance, mask in held:
            self._occ[pool][instance] &= ~mask
            self._holders[pool][instance].pop(node_id, None)
