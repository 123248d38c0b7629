"""Independent validation of finished schedules.

Every schedule returned by either scheduler is re-checked from first
principles - dependence edges, resource reservations, cluster-locality of
register values, register-file capacity.  The verifier shares no state
with the schedulers (it rebuilds a fresh MRT), so it catches scheduler
bugs instead of inheriting them; the property-based tests lean on it
heavily.
"""

from __future__ import annotations

from repro.graph.ddg import DepKind, DependenceGraph
from repro.graph.latency import edge_latency
from repro.machine.config import MachineConfig
from repro.machine.resources import ResourceClass
from repro.schedule.mrt import ModuloReservationTable
from repro.errors import SchedulingError


def instances_assignable(masks: list[int], capacity: int) -> bool:
    """Exact test: can the row-masks be packed onto ``capacity`` instances?

    Each instance may hold any set of pairwise-disjoint masks.  Single-row
    masks reduce to the per-row capacity check the caller already ran;
    multi-row masks (unpipelined operations) make this a small exact
    cover search - backtracking over instances, most-constrained mask
    first, with symmetric instance states deduplicated.  Problem sizes
    are tiny (<= machine FU count instances, <= II-bit masks), so the
    search is effectively instant; a step budget guards pathological
    inputs and errs on the conservative (reject) side.  The exact
    backend (:mod:`repro.smt`) shares it, so the verifier and the
    solvers agree on what fits the instances.
    """
    masks = sorted(masks, key=lambda m: -m.bit_count())
    instances = [0] * capacity
    budget = 1 << 20

    def backtrack(index: int) -> bool:
        nonlocal budget
        if index == len(masks):
            return True
        budget -= 1
        if budget <= 0:
            return False
        mask = masks[index]
        seen: set[int] = set()
        for slot in range(capacity):
            occupancy = instances[slot]
            if occupancy & mask or occupancy in seen:
                continue
            seen.add(occupancy)
            instances[slot] = occupancy | mask
            if backtrack(index + 1):
                return True
            instances[slot] = occupancy
        return False

    return backtrack(0)


def verify_schedule(
    graph: DependenceGraph,
    machine: MachineConfig,
    ii: int,
    times: dict[int, int],
    clusters: dict[int, int],
    register_usage: dict[int, int] | None = None,
) -> list[str]:
    """Return a list of violations (empty = the schedule is valid)."""
    violations: list[str] = []

    for node in graph.nodes():
        if node.id not in times:
            violations.append(f"node {node.name} is not scheduled")
        elif node.id not in clusters:
            violations.append(f"node {node.name} has no cluster")

    # Dependences: t(dst) >= t(src) + latency - II * distance.
    for edge in graph.edges():
        if edge.src not in times or edge.dst not in times:
            continue
        latency = edge_latency(graph, edge, machine)
        slack = times[edge.dst] - times[edge.src] - latency + ii * edge.distance
        if slack < 0:
            violations.append(
                f"dependence {edge.src}->{edge.dst} (d={edge.distance}) "
                f"violated by {-slack} cycles"
            )

    # Register values must be consumed in the cluster that holds them.
    for edge in graph.edges():
        if edge.kind is not DepKind.REG:
            continue
        if edge.src not in clusters or edge.dst not in clusters:
            continue
        dst_node = graph.node(edge.dst)
        if dst_node.is_move:
            if dst_node.src_cluster != clusters[edge.src]:
                violations.append(
                    f"move {edge.dst} reads value {edge.src} from cluster "
                    f"{clusters[edge.src]} but declares source "
                    f"{dst_node.src_cluster}"
                )
        elif clusters[edge.src] != clusters[edge.dst]:
            violations.append(
                f"register value {edge.src} (cluster {clusters[edge.src]}) "
                f"consumed cross-cluster by {edge.dst} "
                f"(cluster {clusters[edge.dst]})"
            )

    # Resources: solve the instance assignment exactly.  A first-fit
    # replay (what the scheduler's MRT does online) is order-dependent
    # for multi-row reservations - an unpipelined divide holds one FU
    # for its whole occupancy - so replaying a *valid* schedule in node
    # id order can fail even though the scheduler held a conflict-free
    # assignment while building it (surfaced by the paper-scale suite:
    # div-heavy loops at 1258-loop scale).
    mrt = ModuloReservationTable(machine, ii)
    demands: dict[tuple[ResourceClass, int], list[tuple[int, int]]] = {}
    for node in sorted(graph.nodes(), key=lambda n: n.id):
        if node.id not in times or node.id not in clusters:
            continue
        try:
            groups = mrt.reservation_groups(
                node,
                clusters[node.id],
                times[node.id],
                src_cluster=node.src_cluster,
            )
        except SchedulingError as exc:
            violations.append(f"resource conflict: {exc}")
            continue
        if groups is None:
            violations.append(
                f"resource conflict: node {node.id} self-collides at "
                f"II={ii} (occupancy exceeds the initiation interval)"
            )
            continue
        for resource, target, rows in groups:
            mask = 0
            for row in rows:
                mask |= 1 << row
            demands.setdefault((resource, target), []).append(
                (node.id, mask)
            )
    for (resource, target), items in sorted(
        demands.items(), key=lambda kv: (kv[0][0].name, kv[0][1])
    ):
        capacity = mrt.instance_count(resource, target)
        where = "interconnect" if target == -1 else f"cluster {target}"
        # Per-row capacity: a necessary condition with a precise
        # culprit list when it fails.
        over_rows: list[tuple[int, list[int]]] = []
        for row in range(ii):
            bit = 1 << row
            users = [nid for nid, mask in items if mask & bit]
            if len(users) > capacity:
                over_rows.append((row, users))
        if over_rows:
            row, users = over_rows[0]
            violations.append(
                f"resource conflict: {len(users)} nodes {users} need "
                f"{resource.name} of {where} in MRT row {row} but only "
                f"{capacity} instances exist"
            )
            continue
        if not instances_assignable([m for _, m in items], capacity):
            violations.append(
                f"resource conflict: reservations on {resource.name} of "
                f"{where} admit no conflict-free assignment onto "
                f"{capacity} instances"
            )

    # Register files.
    available = machine.cluster.registers
    if available is not None and register_usage is not None:
        for cluster, used in register_usage.items():
            if used > available:
                violations.append(
                    f"cluster {cluster} uses {used} registers "
                    f"but only {available} exist"
                )
    return violations
