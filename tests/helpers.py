"""Shared test utilities: canned machines, loops and hypothesis strategies."""

from __future__ import annotations

import contextlib
import random
import signal

from hypothesis import strategies as st

from repro import DependenceGraph, DepKind, LoopBuilder, MemRef, OpKind, parse_config

UNIFIED = parse_config("1-(GP8M4-REG64)")
UNIFIED_SMALL = parse_config("1-(GP8M4-REG16)")
TWO_CLUSTER = parse_config("2-(GP4M2-REG32)")
FOUR_CLUSTER = parse_config("4-(GP2M1-REG32)")
FOUR_CLUSTER_TIGHT = parse_config("4-(GP2M1-REG16)")


class DeadlineExceeded(BaseException):
    """Raised by :func:`deadline`.  A ``BaseException``, so no
    ``except Exception`` between the alarm and the test can swallow it."""


@contextlib.contextmanager
def deadline(seconds: int):
    """Turn a hang inside the block into a test failure (SIGALRM)."""

    def expire(signum, frame):
        raise DeadlineExceeded(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def daxpy(trip_count: int = 100) -> DependenceGraph:
    b = LoopBuilder("daxpy", trip_count=trip_count)
    x = b.load(array=0)
    y = b.load(array=1)
    a = b.invariant("a")
    b.store(b.add(b.mul(x, a), y), array=1)
    return b.build()


def reduction(distance: int = 1) -> DependenceGraph:
    b = LoopBuilder("reduction", trip_count=100)
    x = b.load(array=0)
    acc = b.add(x)
    b.loop_carried(acc, acc, distance=distance)
    b.store(acc, array=1)
    return b.build()


def chain(length: int = 6) -> DependenceGraph:
    """A straight-line dependence chain: load -> add^length -> store."""
    b = LoopBuilder("chain", trip_count=100)
    node = b.load(array=0)
    for _ in range(length):
        node = b.add(node)
    b.store(node, array=1)
    return b.build()


def wide(width: int = 8) -> DependenceGraph:
    """Independent parallel streams (stress on resources, not deps)."""
    b = LoopBuilder("wide", trip_count=100)
    for j in range(width):
        b.store(b.mul(b.load(array=j), b.load(array=100 + j)), array=200 + j)
    return b.build()


def random_graph(seed: int, size: int = 10) -> DependenceGraph:
    """A small random schedulable loop (used by property tests)."""
    rng = random.Random(seed)
    graph = DependenceGraph(name=f"rand{seed}", trip_count=50)
    nodes = []
    for i in range(size):
        roll = rng.random()
        if roll < 0.25:
            kind = OpKind.LOAD
        elif roll < 0.35:
            kind = OpKind.STORE
        elif roll < 0.7:
            kind = OpKind.ADD
        elif roll < 0.95:
            kind = OpKind.MUL
        else:
            kind = OpKind.DIV
        mem_ref = MemRef(array=i, stride=rng.randint(1, 4)) if kind.is_memory else None
        nodes.append(graph.new_node(kind, mem_ref=mem_ref))
    # Forward edges (acyclic base): from value producers only.
    for i, node in enumerate(nodes):
        for j in range(i + 1, size):
            if rng.random() < 0.25 and nodes[i].produces_value:
                graph.add_edge(nodes[i].id, nodes[j].id, kind=DepKind.REG)
    # Occasionally a loop-carried back edge (distance >= 1 keeps it legal).
    for _ in range(rng.randint(0, 2)):
        i, j = sorted(rng.sample(range(size), 2))
        if nodes[j].produces_value:
            graph.add_edge(
                nodes[j].id,
                nodes[i].id,
                kind=DepKind.REG,
                distance=rng.randint(1, 3),
            )
    # An invariant with a couple of consumers.
    if rng.random() < 0.5:
        consumers = {
            n.id for n in rng.sample(nodes, min(2, len(nodes)))
            if n.kind.is_compute
        }
        if consumers:
            graph.new_invariant(consumers=consumers)
    graph.validate()
    return graph


graph_seeds = st.integers(min_value=0, max_value=10_000)
graph_sizes = st.integers(min_value=3, max_value=14)


def reference_ladder(graph, machine, params):
    """The serial II ladder written out directly: ``AttemptEngine`` plus
    the search policy, with no driver or runner in between — the oracle
    ``SpeculativeSearchDriver`` must reproduce at every width K.

    Returns ``(outcomes, best)``: every attempt outcome in search order
    and the lowest-II feasible ``SchedulerState`` (``None`` if none).
    """
    from repro.core.attempts import AttemptEngine
    from repro.core.params import max_ii_for
    from repro.graph.mii import compute_mii
    from repro.order.hrms import hrms_order

    pristine = graph.clone()
    priorities = hrms_order(pristine, machine).priority
    mii = compute_mii(pristine, machine)
    limit = max_ii_for(mii, len(pristine), params)
    engine = AttemptEngine(machine, params)
    policy = params.make_search_policy()
    outcomes, best, attempted = [], None, set()
    ii = policy.first_ii(mii, limit)
    while ii is not None and mii <= ii <= limit and ii not in attempted:
        attempted.add(ii)
        state, outcome = engine.run(pristine.clone(), ii, priorities)
        outcomes.append(outcome)
        if state is not None and (best is None or state.ii < best.ii):
            best = state
        ii = policy.next_ii(outcome)
    return outcomes, best


# ----------------------------------------------------------------------
# Randomized scheduler-event drivers (shared by the incremental-engine
# property suites: tests/test_pressure.py and tests/test_colouring.py)
# ----------------------------------------------------------------------

def fresh_state(seed: int, machine):
    """A SchedulerState over a small random loop (one attempt's state)."""
    from repro.core.params import MirsParams
    from repro.core.state import SchedulerState
    from repro.graph.mii import compute_mii
    from repro.order.hrms import hrms_order

    graph = random_graph(seed, size=10 + seed % 5)
    ordering = hrms_order(graph, machine)
    ii = compute_mii(graph, machine) + seed % 3
    return SchedulerState(
        graph, machine, ii, ordering.priority, MirsParams()
    )


def place_random(state, rng: random.Random) -> None:
    """Cluster-select and place one random unscheduled node (plus any
    moves the clustering requires)."""
    from repro.cluster.moves import add_move, next_needed_move
    from repro.cluster.selection import select_cluster
    from repro.core.scheduling import schedule_node

    unscheduled = [
        n
        for n in state.graph.nodes()
        if not state.schedule.is_scheduled(n.id) and not n.is_move
    ]
    if not unscheduled:
        return
    node = rng.choice(unscheduled)
    cluster = select_cluster(state, node)
    guard = 0
    while True:
        plan = next_needed_move(state, node, cluster)
        if plan is None:
            break
        move = add_move(state, plan)
        schedule_node(state, move, plan.dst_cluster)
        guard += 1
        if guard > 8:
            break
    if node.id in state.graph and not state.schedule.is_scheduled(node.id):
        schedule_node(state, node, cluster)


def eject_random(state, rng: random.Random) -> None:
    """Eject one random scheduled node (backtracking event)."""
    scheduled = [
        n for n in state.schedule.scheduled_ids() if n in state.graph
    ]
    if not scheduled:
        return
    state.eject_node(rng.choice(scheduled))


def add_random_edge(state, rng: random.Random) -> None:
    """Add a random REG edge between existing nodes (a lifetime-stretch
    event, like the rewiring done by spill insertion and move removal)."""
    producers = [
        n for n in state.graph.nodes() if n.produces_value and not n.is_move
    ]
    consumers = [n for n in state.graph.nodes() if n.kind.is_compute]
    if not producers or not consumers:
        return
    src = rng.choice(producers)
    dst = rng.choice(consumers)
    if src.id == dst.id:
        return
    state.graph.add_edge(
        src.id, dst.id, kind=DepKind.REG, distance=rng.randint(0, 2)
    )


# ----------------------------------------------------------------------
# Reference modulo reservation table (the oracle of tests/test_mrt.py)
# ----------------------------------------------------------------------

class ReferenceMRT:
    """A dict-of-rows MRT: one ``{row: node id}`` dict per resource
    instance, probed row by row.  Encodes the semantics the bitmask
    table must reproduce: first-fit instance choice, ``blocking_nodes``
    taking the instance with the fewest occupants, and self-collision
    when an occupancy exceeds II."""

    def __init__(self, machine, ii: int):
        from repro.machine.resources import ResourceClass

        self.machine, self.ii, self.held = machine, ii, {}
        self.tables = {
            (r, c): [{} for _ in range(machine.instances(r))]
            for r in ResourceClass if not r.is_global
            for c in range(machine.clusters)
        }
        if machine.buses is not None:
            self.tables[(ResourceClass.BUS, -1)] = [{} for _ in range(machine.buses)]

    def groups(self, node, cluster, cycle, src_cluster):
        from repro.machine.reservation import ClusterRole, reservation_steps

        targets = {
            ClusterRole.SELF: cluster, ClusterRole.SOURCE: src_cluster,
            ClusterRole.GLOBAL: -1,
        }
        groups = []
        for step in reservation_steps(node.kind, self.machine):
            key = (step.resource, targets[step.role])
            if key not in self.tables:
                continue  # unbounded buses
            rows = [(cycle + step.offset + i) % self.ii for i in range(step.duration)]
            if len(set(rows)) < len(rows):
                return None
            groups.append((self.tables[key], rows))
        return groups

    @staticmethod
    def free(tables, rows):
        """First instance with every row free (first-fit), or None."""
        free = (i for i, t in enumerate(tables) if not any(r in t for r in rows))
        return next(free, None)

    def can_place(self, node, cluster, cycle, src_cluster=None):
        groups = self.groups(node, cluster, cycle, src_cluster)
        return groups is not None and all(
            self.free(tables, rows) is not None for tables, rows in groups
        )

    def place(self, node, cluster, cycle, src_cluster=None):
        self.held[node.id] = []
        for tables, rows in self.groups(node, cluster, cycle, src_cluster):
            table = tables[self.free(tables, rows)]
            table.update({row: node.id for row in rows})
            self.held[node.id].append((table, rows))

    def remove(self, node_id):
        for table, rows in self.held.pop(node_id):
            for row in rows:
                del table[row]

    def blocking_nodes(self, node, cluster, cycle, src_cluster=None):
        victims = set()
        for tables, rows in self.groups(node, cluster, cycle, src_cluster):
            occupants = [{t[r] for r in rows if r in t} for t in tables]
            fewest = min(occupants, key=len, default=set())
            victims |= fewest
        return victims

    def occupancy_fraction(self, resource, cluster):
        tables = self.tables.get((resource, -1 if resource.is_global else cluster))
        if tables is None:
            return 0.0
        return sum(map(len, tables)) / (len(tables) * self.ii) if tables else 1.0


# ----------------------------------------------------------------------
# Random dependence multigraphs and naive graph oracles
# ----------------------------------------------------------------------

#: (node count, edges) with edges as (src, dst, latency, distance):
#: parallel edges and self-loops allowed, zero-distance circuits too.
multigraph_specs = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(1, 9),
                st.integers(0, 3),
            ),
            max_size=16,
        ),
    )
)


def multigraph(spec) -> DependenceGraph:
    """Build a :data:`multigraph_specs` draw: one ADD per node, every
    edge with its explicit latency."""
    count, edges = spec
    graph = DependenceGraph("multigraph")
    ids = [graph.new_node(OpKind.ADD).id for _ in range(count)]
    for src, dst, latency, distance in edges:
        graph.add_edge(ids[src], ids[dst], distance=distance, latency=latency)
    return graph


def reachable_from(graph: DependenceGraph, node: int) -> set[int]:
    """Nodes reachable from ``node`` over one or more edges."""
    seen: set[int] = set()
    frontier = [node]
    while frontier:
        for succ in graph.succs(frontier.pop()):
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


def mutual_reachability_partition(graph: DependenceGraph) -> set[frozenset[int]]:
    """Strongly connected components by definition: ``u`` and ``v`` share
    one when each reaches the other (or ``u == v``)."""
    reach = {node: reachable_from(graph, node) for node in graph.node_ids()}
    return {
        frozenset(
            v for v in graph.node_ids() if v == u or (v in reach[u] and u in reach[v])
        )
        for u in graph.node_ids()
    }


def elementary_circuits(graph: DependenceGraph) -> list[list[int]]:
    """Every elementary circuit as a node sequence, by brute-force DFS
    (each one rooted at its smallest node)."""
    circuits = []

    def extend(path: list[int]) -> None:
        for succ in sorted(graph.succs(path[-1])):
            if succ == path[0]:
                circuits.append(list(path))
            elif succ > path[0] and succ not in path:
                extend(path + [succ])

    for root in graph.node_ids():
        extend([root])
    return circuits
