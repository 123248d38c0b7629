"""Shared test utilities: canned machines, loops and hypothesis strategies."""

from __future__ import annotations

import contextlib
import dataclasses
import random
import signal

from hypothesis import strategies as st

from repro import DependenceGraph, DepKind, LoopBuilder, MemRef, OpKind, parse_config
from repro.analysis.cfg import (
    EPILOGUE,
    KERNEL,
    PROLOGUE,
    BundleCFG,
    BundleSite,
    register_cluster,
    split_sources,
)
from repro.analysis.certifier import (
    MAX_FIXPOINT_SLACK,
    _by_instance,
    _Content,
    _describe,
    _Instance,
    _NodePlan,
)
from repro.analysis.model import CertifierReport, CertifierViolation, ViolationKind
from repro.codegen import GeneratedCode, generate_code
from repro.codegen.emitter import Instruction, _register_names
from repro.codegen.mve import modulo_variable_expansion_factor
from repro.core.result import ScheduleResult
from repro.errors import FrontendError, GraphError, SimulationError
from repro.exec.cache import ResultCache
from repro.frontend.differential import (
    _PAIR,
    SourceDifferentialReport,
    live_in_hazards,
)
from repro.frontend.lower import LoweredKernel
from repro.frontend.reference import SourceInterpreter
from repro.graph.ddg import Node
from repro.graph.latency import edge_latency
from repro.machine.config import MachineConfig
from repro.machine.reservation import ClusterRole, reservation_steps
from repro.machine.resources import ResourceClass
from repro.machine.technology import TechnologyModel
from repro.memsim.cache import CacheConfig, LockupFreeCache
from repro.sim import ops
from repro.sim.differential import (
    compare_run,
    memoized_report,
    run_differential,
    state_mismatches,
)
from repro.sim.reference import (
    ReferenceInterpreter,
    ReferenceRun,
    intra_iteration_order,
    live_in_moduli_of_code,
    spill_load_distance,
)
from repro.sim.result import SimulationResult
from repro.sim.vliw import SimulationRun, VliwSimulator, effective_iterations

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


def edge_by_edge_clone(graph: DependenceGraph) -> DependenceGraph:
    """The reference deep copy: every node copied through its dataclass
    constructor and every edge re-added in out-list order (the oracle of
    ``DependenceGraph.clone``)."""
    copy = DependenceGraph(name=graph.name, trip_count=graph.trip_count)
    copy.unroll_factor = graph.unroll_factor
    copy.source_trip_count = graph.source_trip_count
    for node in graph._nodes.values():
        copy.add_node(dataclasses.replace(node))
    for edge in graph.edges():
        copy.add_edge(
            edge.src,
            edge.dst,
            kind=edge.kind,
            distance=edge.distance,
            latency=edge.latency,
        )
    for inv in graph._invariants.values():
        copy._invariants[inv.id] = inv.clone()
    return copy


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


# ----------------------------------------------------------------------
# Simulation oracles: the per-instruction simulator loop, the per-node
# reference loop and the sorting ``evaluate`` that the compiled plans of
# repro.sim replaced, kept verbatim (apart from the class names and the
# evaluate call) so every plan can be checked against them.
# ----------------------------------------------------------------------

_INVARIANT_PREFIX = "inv:"


def legacy_evaluate(kind: OpKind, operands: list[int]) -> int:
    """The value produced by an operation from its operand values.

    ``operands`` is treated as a multiset (sorted internally); stores
    "produce" the value they write to memory.  Plain loads do not go
    through here — their value is the memory word — but loads with
    register operands combine them via :func:`load_value`.
    """
    values = sorted(operands)
    salt = ops._SALTS[kind]
    if kind is OpKind.MOVE and values:
        return values[0] % ops.FIELD_PRIME
    if kind is OpKind.ADD:
        return (salt + sum(values)) % ops.FIELD_PRIME
    if kind is OpKind.MUL:
        product = salt
        for value in values:
            product = (product * (value % ops.FIELD_PRIME + 1)) % ops.FIELD_PRIME
        return product
    if kind is OpKind.STORE and len(values) == 1:
        # The common single-operand store writes the operand verbatim,
        # which keeps memory dumps legible when debugging mismatches.
        return values[0] % ops.FIELD_PRIME
    return ops.fold(salt, values)


class LegacyVliwSimulator:
    """Executes one scheduled loop's emitted code (see module docstring).

    Args:
        schedule: a converged :class:`ScheduleResult` (with its graph).
        code: pre-generated code; emitted from ``schedule`` when omitted.
        cache_config: cache geometry (paper defaults when omitted).
        technology: technology model supplying the miss latency.
    """

    def __init__(
        self,
        schedule: ScheduleResult,
        code: GeneratedCode | None = None,
        cache_config: CacheConfig | None = None,
        technology: TechnologyModel | None = None,
    ):
        self.schedule = schedule
        self.code = code or generate_code(schedule)
        self.cache_config = cache_config or CacheConfig()
        self.technology = technology or TechnologyModel()
        graph = schedule.graph
        self._nodes = {node.id: node for node in graph.nodes()}
        self._invariants = {
            f"{_INVARIANT_PREFIX}{inv.name}": ops.invariant_value(inv.id)
            for inv in graph.invariants()
        }
        self._spill_distance = {
            node.id: spill_load_distance(graph, node.id)
            for node in graph.nodes()
            if node.kind is OpKind.LOAD and node.is_spill
        }

    # ------------------------------------------------------------------

    def _initial_registers(self) -> dict[str, int]:
        """Live-in register contents.

        Iteration ``c - K`` (the last pre-loop iteration congruent to
        copy ``c``) owns register copy ``c``, so a loop-carried consumer
        at iteration ``i`` reading distance ``d > i`` finds
        ``initial_value(v, i - d)`` in the copy the emitter points it
        at.  Non-expanded values alias all copies onto one name and the
        ascending write order leaves ``initial_value(v, -1)`` there.
        """
        mve = self.code.mve_factor
        registers: dict[str, int] = {}
        for value, names in self.code.registers.items():
            for copy, name in enumerate(names):
                registers[name] = ops.initial_value(value, copy - mve)
        return registers

    def _bundles(self, passes: int):
        """Yield ``(cycle block, bundle)`` over the whole execution."""
        code = self.code
        ii = code.ii
        fill = code.stage_count - 1
        for cycle, bundle in enumerate(code.prologue):
            yield cycle // ii, bundle
        for kernel_pass in range(passes):
            base = fill + kernel_pass * code.mve_factor
            for cycle, bundle in enumerate(code.kernel):
                yield base + cycle // ii, bundle
        base = fill + passes * code.mve_factor
        for cycle, bundle in enumerate(code.epilogue):
            yield base + cycle // ii, bundle

    # ------------------------------------------------------------------

    def run(self, iterations: int) -> SimulationRun:
        """Execute the pipeline end to end for (at least) ``iterations``."""
        code = self.code
        mve = code.mve_factor
        n_iterations = effective_iterations(code, iterations)
        passes = (n_iterations - (code.stage_count - 1)) // mve

        registers = self._initial_registers()
        values: dict[tuple[int, int], int] = {}
        memory: dict[int, int] = {}
        cache = LockupFreeCache(self.cache_config)
        miss_latency = self.technology.miss_latency_cycles(
            self.schedule.machine
        )
        mshrs = self.cache_config.mshrs

        clock = 0  # elapsed cycles, stalls included
        useful = 0
        stalls = 0
        instructions = 0
        loads = stores = moves = 0
        data_ready: dict[str, int] = {}  # load dest -> data-ready cycle
        pending: list[int] = []  # outstanding miss completion cycles

        for block, bundle in self._bundles(passes):
            # Issue-time operand fetch: every source is read before any
            # write of this bundle lands, and the bundle as a whole
            # waits for the slowest outstanding operand.
            operand_values: list[list[int]] = []
            ready = clock
            for inst in bundle:
                sources = []
                for name in inst.sources:
                    if name.startswith(_INVARIANT_PREFIX):
                        try:
                            sources.append(self._invariants[name])
                        except KeyError:
                            raise SimulationError(
                                f"unknown invariant operand {name!r}"
                            ) from None
                    else:
                        try:
                            sources.append(registers[name])
                        except KeyError:
                            raise SimulationError(
                                f"instruction for node {inst.node} reads "
                                f"register {name!r} which nothing defines"
                            ) from None
                        ready = max(ready, data_ready.get(name, 0))
                operand_values.append(sources)
            if ready > clock:
                stalls += ready - clock
                clock = ready

            writes: list[tuple[str, int, int]] = []
            for inst, operands in zip(bundle, operand_values, strict=True):
                node = self._nodes[inst.node]
                iteration = block - inst.stage
                ready_at = 0  # 0 = data ready at issue

                if node.kind is OpKind.LOAD:
                    loads += 1
                    if node.load_of_invariant is not None:
                        value = ops.invariant_value(node.load_of_invariant)
                        address = (
                            node.mem_ref.address(0) if node.mem_ref else None
                        )
                    elif node.mem_ref is None:
                        value = ops.load_value(0, operands)
                        address = None
                    else:
                        slot = iteration - self._spill_distance.get(
                            inst.node, 0
                        )
                        address = node.mem_ref.address(slot)
                        word = memory.get(address)
                        if word is None:
                            word = ops.initial_memory(address)
                        value = ops.load_value(word, operands)
                    if address is not None and not cache.access(address):
                        # MSHR pressure: with every miss register busy
                        # the pipeline blocks until one retires.
                        pending = [t for t in pending if t > clock]
                        if len(pending) >= mshrs:
                            wait = min(pending)
                            stalls += wait - clock
                            clock = wait
                            pending = [t for t in pending if t > clock]
                        if node.latency_override is None:
                            ready_at = clock + miss_latency
                        pending.append(clock + miss_latency)
                elif node.kind is OpKind.STORE:
                    stores += 1
                    value = legacy_evaluate(node.kind, operands)
                    if node.mem_ref is not None:
                        address = node.mem_ref.address(iteration)
                        memory[address] = value
                        # Write misses allocate but never block: stores
                        # retire through the write buffer.
                        cache.access(address, is_write=True)
                elif node.kind is OpKind.MOVE and (
                    node.move_of_invariant is not None
                ):
                    moves += 1
                    value = ops.invariant_value(node.move_of_invariant)
                else:
                    if node.kind is OpKind.MOVE:
                        moves += 1
                    value = legacy_evaluate(node.kind, operands)

                values[(inst.node, iteration)] = value
                if inst.dest is not None:
                    writes.append((inst.dest, value, ready_at))
                instructions += 1

            for dest, value, ready_at in writes:
                registers[dest] = value
                if ready_at:
                    data_ready[dest] = ready_at
                else:
                    data_ready.pop(dest, None)

            useful += 1
            clock += 1

        graph = self.schedule.graph
        # Surplus source iterations become observable only when the run
        # covers the loop's whole trip count (the unrolled loop has no
        # epilogue, so its last iteration executes every replica).
        surplus = 0
        if graph is not None and n_iterations >= graph.trip_count:
            surplus = max(
                0,
                graph.trip_count * graph.unroll_factor
                - graph.source_trip_count,
            )
        result = SimulationResult(
            loop=self.schedule.loop,
            machine=self.schedule.machine.name,
            ii=code.ii,
            stage_count=code.stage_count,
            mve_factor=mve,
            requested_iterations=iterations,
            iterations=n_iterations,
            unroll_factor=1 if graph is None else graph.unroll_factor,
            surplus_iterations=surplus,
            useful_cycles=useful,
            stall_cycles=stalls,
            instructions=instructions,
            loads=loads,
            stores=stores,
            moves=moves,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
        )
        return SimulationRun(
            result=result, values=values, memory=memory, registers=registers
        )


class LegacyReferenceInterpreter:
    """Executes a dependence graph directly (see module docstring).

    Args:
        graph: the loop to interpret.
        live_in_moduli: per-value collapse of pre-loop instances.  A
            value held in ``m`` distinct physical registers can present
            at most ``m`` distinct live-ins, one per register copy
            (iteration ``j`` owns copy ``j % m``), so pre-loop instances
            congruent modulo ``m`` are physically one value.  Pass
            ``{value id: number of distinct register names}`` (see
            :func:`live_in_moduli_of_code`) when comparing against
            emitted code, an ``int`` for a uniform modulus, or ``None``
            (the default) to keep every pre-loop instance distinct.
    """

    def __init__(
        self,
        graph: DependenceGraph,
        live_in_moduli: dict[int, int] | int | None = None,
    ):
        self.graph = graph
        if isinstance(live_in_moduli, int):
            if live_in_moduli < 1:
                raise ValueError("live-in modulus must be positive")
            live_in_moduli = {
                node_id: live_in_moduli for node_id in graph.node_ids()
            }
        self.live_in_moduli = live_in_moduli
        self._order = intra_iteration_order(graph)
        # Pre-resolved operand plan per node: REG producers with their
        # distances, invariant values, and spill-load slot distances.
        self._reg_in: dict[int, list[tuple[int, int]]] = {}
        self._invariant_operands: dict[int, list[int]] = {}
        self._spill_distance: dict[int, int] = {}
        for node in graph.nodes():
            self._reg_in[node.id] = [
                (edge.src, edge.distance)
                for edge in graph.in_edges(node.id)
                if edge.kind is DepKind.REG
            ]
            self._invariant_operands[node.id] = [
                ops.invariant_value(inv.id)
                for inv in graph.invariants_of(node.id)
            ]
            if node.kind is OpKind.LOAD and node.is_spill:
                self._spill_distance[node.id] = spill_load_distance(
                    graph, node.id
                )

    # ------------------------------------------------------------------

    def run(self, iterations: int) -> ReferenceRun:
        """Execute the loop for the given number of iterations."""
        if iterations < 1:
            raise ValueError("need at least one iteration")
        values: dict[tuple[int, int], int] = {}
        memory: dict[int, int] = {}

        moduli = self.live_in_moduli

        def value_of(node_id: int, iteration: int) -> int:
            if iteration >= 0:
                return values[(node_id, iteration)]
            if moduli is not None:
                modulus = moduli.get(node_id, 1)
                iteration = iteration % modulus - modulus
            return ops.initial_value(node_id, iteration)

        for iteration in range(iterations):
            for node_id in self._order:
                node = self.graph.node(node_id)
                operands = [
                    value_of(src, iteration - distance)
                    for src, distance in self._reg_in[node_id]
                ]
                operands += self._invariant_operands[node_id]

                if node.kind is OpKind.LOAD:
                    if node.load_of_invariant is not None:
                        value = ops.invariant_value(node.load_of_invariant)
                    elif node.mem_ref is None:
                        # No access pattern: a register-like scratch
                        # location (mirrors repro.memsim.trace).
                        value = ops.load_value(0, operands)
                    else:
                        slot = iteration - self._spill_distance.get(node_id, 0)
                        address = node.mem_ref.address(slot)
                        word = memory.get(address)
                        if word is None:
                            word = ops.initial_memory(address)
                        value = ops.load_value(word, operands)
                elif node.kind is OpKind.MOVE and (
                    node.move_of_invariant is not None
                ):
                    value = ops.invariant_value(node.move_of_invariant)
                else:
                    value = legacy_evaluate(node.kind, operands)

                values[(node_id, iteration)] = value
                if node.kind is OpKind.STORE and node.mem_ref is not None:
                    memory[node.mem_ref.address(iteration)] = value

        return ReferenceRun(
            loop=self.graph.name,
            iterations=iterations,
            values=values,
            memory=memory,
        )


# ----------------------------------------------------------------------
# Pipeline-tail oracles: the per-instance emitter and the two-run source
# differential that generate_code and run_source_differential replaced,
# kept verbatim (apart from the names) so every emission and report can
# be checked against them.
# ----------------------------------------------------------------------


def _legacy_instruction(
    result: ScheduleResult,
    node_id: int,
    stage: int,
    copy: int,
    registers: dict[int, list[str]],
    mve: int,
) -> Instruction:
    graph = result.graph
    assert graph is not None  # generate_code rejects graph-less results
    node = graph.node(node_id)
    sources: list[str] = []
    for edge in graph.in_edges(node_id):
        if edge.kind is not DepKind.REG:
            continue
        # The operand comes from the copy that produced it: `distance`
        # iterations (hence kernel copies) earlier.
        source_copy = (copy - edge.distance) % mve
        sources.append(registers[edge.src][source_copy])
    for invariant in graph.invariants_of(node_id):
        sources.append(f"inv:{invariant.name}")
    dest: str | None = None
    if node.produces_value and node_id in registers:
        dest = registers[node_id][copy]
    return Instruction(
        node=node_id,
        mnemonic=node.kind.value,
        cluster=result.clusters[node_id],
        stage=stage,
        copy=copy,
        dest=dest,
        sources=tuple(sorted(sources)),
    )


def legacy_generate_code(result: ScheduleResult) -> GeneratedCode:
    """The emitter that built every (node, stage, copy) instance anew."""
    assert result.converged and result.graph is not None
    ii = result.ii
    mve = modulo_variable_expansion_factor(result)
    registers = _register_names(result, mve)

    low = min(result.times.values(), default=0)
    by_slot: dict[tuple[int, int], list[int]] = {}
    stage_count = 1
    for node_id, cycle in result.times.items():
        row = (cycle - low) % ii
        stage = (cycle - low) // ii
        stage_count = max(stage_count, stage + 1)
        by_slot.setdefault((row, stage), []).append(node_id)

    def bundle(row: int, stages: list[tuple[int, int]]) -> list[Instruction]:
        """Instructions issuing at one cycle: (stage, copy) pairs."""
        instructions = []
        for stage, copy in stages:
            for node_id in sorted(by_slot.get((row, stage), ())):
                instructions.append(
                    _legacy_instruction(
                        result, node_id, stage, copy, registers, mve
                    )
                )
        return instructions

    prologue: list[list[Instruction]] = []
    for cycle in range(ii * (stage_count - 1)):
        row = cycle % ii
        phase = cycle // ii
        stages = [
            (phase - i, i % mve) for i in range(phase + 1)
        ]
        prologue.append(bundle(row, stages))

    kernel: list[list[Instruction]] = []
    for copy in range(mve):
        for row in range(ii):
            stages = [
                (stage, (copy - stage + stage_count - 1) % mve)
                for stage in range(stage_count)
            ]
            kernel.append(bundle(row, stages))

    epilogue: list[list[Instruction]] = []
    for cycle in range(ii * (stage_count - 1)):
        row = cycle % ii
        phase = cycle // ii
        stages = [
            (stage, (phase - stage + stage_count - 1) % mve)
            for stage in range(phase + 1, stage_count)
        ]
        epilogue.append(bundle(row, stages))

    return GeneratedCode(
        loop=result.loop,
        ii=ii,
        stage_count=stage_count,
        mve_factor=mve,
        prologue=prologue,
        kernel=kernel,
        epilogue=epilogue,
        registers=registers,
    )


def legacy_run_source_differential(
    lowered: LoweredKernel,
    schedule: ScheduleResult,
    iterations: int,
    *,
    cache: ResultCache | bool | None = None,
) -> SourceDifferentialReport:
    """The differential that ran the source interpreter once per link."""
    if schedule.graph is None:
        raise FrontendError(
            f"{lowered.name}: schedule carries no final graph to validate"
        )
    names = {node.id: node.name for node in lowered.graph.nodes()}

    # Link 1: source semantics vs the lowered graph, exact live-ins.
    source = SourceInterpreter(lowered).run(iterations)
    reference = ReferenceInterpreter(lowered.graph).run(iterations)
    mismatches = state_mismatches(
        source.values,
        source.memory,
        reference.values,
        reference.memory,
        names,
        prefix="[analysis] ",
        pair=_PAIR,
    )
    analysis_match = not mismatches

    hazards = live_in_hazards(schedule.graph)
    source_match: bool | None = None
    source_mismatches: list[str] = []
    if hazards:
        # Link 2 alone; link 3 is skipped on renamed live-ins.
        emitted = run_differential(schedule, iterations, cache=cache)
    else:
        # One simulation of the emitted code serves links 2 and 3.
        simulator = VliwSimulator(schedule)
        run = simulator.run(iterations)
        emitted = memoized_report(
            schedule,
            iterations,
            cache,
            lambda: compare_run(schedule, simulator.code, run),
        )
        # Link 3: the run restricted to the source's operations and
        # arrays, against the source under the code's live-in moduli.
        source_run = SourceInterpreter(
            lowered, live_in_moduli=live_in_moduli_of_code(simulator.code)
        ).run(run.result.iterations)
        pristine = set(lowered.graph.node_ids())
        arrays = set(lowered.arrays.values())
        source_mismatches = state_mismatches(
            {
                key: value
                for key, value in run.values.items()
                if key[0] in pristine
            },
            {
                address: value
                for address, value in run.memory.items()
                if (address >> 24) in arrays
            },
            source_run.values,
            source_run.memory,
            names,
            prefix="[source] ",
            pair=_PAIR,
        )
        source_match = not source_mismatches
    # Link 2: emitted code vs the final graph.
    mismatches.extend(f"[emitted] {m}" for m in emitted.mismatches)
    mismatches.extend(source_mismatches)

    return SourceDifferentialReport(
        kernel=lowered.name,
        machine=schedule.machine.name,
        iterations=emitted.iterations,
        analysis_match=analysis_match,
        emitted_match=emitted.match,
        source_match=source_match,
        hazards=hazards,
        mismatches=tuple(mismatches),
    )


# ----------------------------------------------------------------------
# Eject/re-place balancing and exhaustive-key cluster selection (the
# oracles of tests/test_balance.py)
# ----------------------------------------------------------------------

def _legacy_candidate_moves(state, cluster: int) -> list[int]:
    """Scheduled moves whose shifting could relieve ``cluster``."""
    candidates = []
    for node in state.graph.nodes():
        if not node.is_move or not state.schedule.is_scheduled(node.id):
            continue
        into = state.schedule.cluster(node.id) == cluster
        out_of = node.src_cluster == cluster
        if into or out_of:
            candidates.append(node.id)
    # Deterministic order: latest-placed first (cheapest to revisit).
    candidates.sort(key=state.schedule.placement_seq, reverse=True)
    return candidates


def _legacy_value_lifetime(
    state, node_id: int, *, time_override: int | None = None
) -> tuple[int, int]:
    """[start, end) of a scheduled node's value on the current schedule.

    ``time_override`` evaluates the lifetime as if the node issued at a
    different cycle (used while probing move shifts).
    """
    from repro.graph.latency import node_latency

    schedule = state.schedule
    ii = schedule.ii
    start = (
        time_override
        if time_override is not None
        else schedule.time(node_id)
    )
    node = state.graph.node(node_id)
    end = start + node_latency(node, state.machine)
    for edge in state.graph.out_edges(node_id):
        if edge.kind is not DepKind.REG:
            continue
        if not schedule.is_scheduled(edge.dst):
            continue
        use = schedule.time(edge.dst) + ii * edge.distance
        if use > end:
            end = use
    return start, end


def _legacy_producer_lifetime_with_use(
    state, producer: int, move_id: int, move_cycle: int
) -> tuple[int, int]:
    """Producer's lifetime if the move issued at ``move_cycle``."""
    from repro.graph.latency import node_latency

    schedule = state.schedule
    ii = schedule.ii
    start = schedule.time(producer)
    node = state.graph.node(producer)
    end = start + node_latency(node, state.machine)
    for edge in state.graph.out_edges(producer):
        if edge.kind is not DepKind.REG:
            continue
        if edge.dst == move_id:
            use = move_cycle + ii * edge.distance
        elif schedule.is_scheduled(edge.dst):
            use = schedule.time(edge.dst) + ii * edge.distance
        else:
            continue
        if use > end:
            end = use
    return start, end


def legacy_balance_register_pressure(state, cluster: int) -> bool:
    """Balancing that ejects every examined move, probes, and places it
    back (at the winning cycle or its old one)."""
    from repro.cluster.balance import _BALANCE_CANDIDATES, _MAX_PROBES
    from repro.schedule.pressure import fold_lifetime
    from repro.schedule.slots import dependence_window

    if not state.machine.is_clustered:
        return False
    schedule = state.schedule
    ii = schedule.ii
    tracker = state.pressure
    rows = tracker.variant_rows(cluster)
    invariants = tracker.invariant_registers(cluster)
    baseline = max(rows) + invariants

    improved = False
    examined = 0
    for move_id in _legacy_candidate_moves(state, cluster):
        if examined >= _BALANCE_CANDIDATES:
            break
        examined += 1
        node = state.graph.node(move_id)
        old_cluster = schedule.cluster(move_id)
        old_cycle = schedule.time(move_id)
        into = old_cluster == cluster

        # Identify the one lifetime in ``cluster`` the shift affects and
        # strip its current contribution from the row counts.
        producer = None
        if into:
            affected_old = tracker.lifetime_bounds(move_id)
        else:
            producers = [
                e.src
                for e in state.graph.in_edges(move_id)
                if e.kind is DepKind.REG
            ]
            if not producers or not schedule.is_scheduled(producers[0]):
                continue  # invariant move: no producer lifetime to shrink
            producer = producers[0]
            if schedule.cluster(producer) != cluster:
                continue
            affected_old = _legacy_producer_lifetime_with_use(
                state, producer, move_id, old_cycle
            )
        stripped = rows.copy()
        fold_lifetime(stripped, ii, affected_old[0], affected_old[1], -1)

        schedule.eject(move_id)
        window = dependence_window(state.graph, schedule, node, state.machine)
        if into:
            hi = window.late if window.late is not None else old_cycle + ii - 1
            candidates = list(range(old_cycle + 1, hi + 1))[:_MAX_PROBES]
        else:
            lo = window.early if window.early is not None else old_cycle - ii + 1
            candidates = list(range(old_cycle - 1, lo - 1, -1))[:_MAX_PROBES]

        best_cycle = None
        for cycle in candidates:
            if into:
                new_lifetime = _legacy_value_lifetime(
                    state, move_id, time_override=cycle
                )
            else:
                new_lifetime = _legacy_producer_lifetime_with_use(
                    state, producer, move_id, cycle
                )
            probe = stripped.copy()
            fold_lifetime(probe, ii, new_lifetime[0], new_lifetime[1], +1)
            new_max = max(probe) + invariants
            if new_max >= baseline:
                continue
            if schedule.mrt.can_place(
                node, old_cluster, cycle, src_cluster=node.src_cluster
            ):
                best_cycle = cycle
                rows = probe
                baseline = new_max
                break

        if best_cycle is None:
            schedule.place(
                node, old_cluster, old_cycle, src_cluster=node.src_cluster
            )
        else:
            schedule.place(
                node, old_cluster, best_cycle, src_cluster=node.src_cluster
            )
            improved = True
            state.stats.balance_shifts += 1
    return improved


def legacy_select_cluster(state, node) -> int:
    """Cluster selection that evaluates the full key (no free slot,
    moves, occupancy, index) on every cluster."""
    from repro.cluster.selection import (
        _communication_profile,
        _moves_for,
        _pinned_cluster,
        _resource_for,
    )
    from repro.schedule.slots import dependence_window, find_free_slot

    machine = state.machine
    if machine.clusters == 1:
        return 0
    pinned = _pinned_cluster(state, node)
    if pinned is not None:
        return pinned

    window = dependence_window(
        state.graph,
        state.schedule,
        node,
        machine,
        distance_gauge=state.params.distance_gauge if node.is_spill else None,
    )
    resource = _resource_for(node.kind)
    producers, consumers = _communication_profile(state, node)

    best_cluster = 0
    best_key: tuple | None = None
    for cluster in range(machine.clusters):
        has_slot = (
            find_free_slot(state.schedule, node, cluster, window) is not None
        )
        moves = _moves_for(producers, consumers, cluster)
        occupancy = state.schedule.mrt.occupancy_fraction(resource, cluster)
        # Lexicographic preference: slot available, fewest moves, least
        # occupied FU, lowest index (determinism).
        key = (not has_slot, moves, occupancy, cluster)
        if best_key is None or key < best_key:
            best_key = key
            best_cluster = cluster
    return best_cluster


# ----------------------------------------------------------------------
# The certifier that ran every static operand and destination check on
# every kernel-pass and epilogue-replay visit, kept verbatim (apart from
# the name) as the oracle of tests/test_certifier.py.
# ----------------------------------------------------------------------


class LegacyCertifier:
    """One certification run (see repro.analysis.certifier)."""

    def __init__(self, code: GeneratedCode, schedule: ScheduleResult):
        graph = schedule.graph
        if graph is None:
            raise GraphError(
                f"certifying loop {schedule.loop!r} needs the schedule's "
                "dependence graph"
            )
        self.code = code
        self.schedule = schedule
        self.graph: DependenceGraph = graph
        self.machine: MachineConfig = schedule.machine
        self.cfg = BundleCFG(code)
        self.violations: list[CertifierViolation] = []
        self._seen: set[
            tuple[ViolationKind, str, int, str | None, int | None, str]
        ] = set()
        self.bundles_checked = 0
        self.reads_checked = 0
        self.passes_checked = 0
        times = schedule.times
        low = min(times.values(), default=0)
        self.stage_of: dict[int, int] = {
            node_id: (cycle - low) // code.ii for node_id, cycle in times.items()
        }
        #: (node, iteration) -> issue cycle, over the committed walk
        #: (prologue + kernel passes); epilogue replays overlay it.
        self.issue_cycle: dict[tuple[int, int], int] = {}
        self._nodes: dict[int, Node] = {node.id: node for node in graph.nodes()}
        #: Live-in modulus per value: a value held in ``m`` distinct
        #: physical registers presents at most ``m`` distinct live-ins,
        #: so pre-loop instances congruent modulo ``m`` are physically
        #: one value (mirrors ``live_in_moduli_of_code`` - the semantic
        #: contract the differential's reference interpreter uses too).
        self._live_in_modulus: dict[int, int] = {
            value: len(set(names)) for value, names in code.registers.items()
        }
        #: node id -> its walk plan (``None``: not walkable), built on
        #: the node's first visit.
        self._plans: dict[int, _NodePlan | None] = {}

    # ------------------------------------------------------------------
    # Violation recording
    # ------------------------------------------------------------------

    def _report(
        self,
        kind: ViolationKind,
        site: BundleSite | None,
        register: str | None = None,
        operation: int | None = None,
        detail: str = "",
    ) -> None:
        """Record one violation, deduplicating shift-equivalent repeats.

        The kernel fixpoint and the per-pass epilogue replays revisit
        the same static bundle; a defect there would otherwise be
        reported once per visited pass.
        """
        section = site.section if site is not None else "code"
        index = site.index if site is not None else -1
        # Keyed without `detail` at concrete sites (details embed
        # pass-dependent iteration numbers); whole-pipeline reports have
        # pass-independent details and would collide without it.
        key = (kind, section, index, register, operation,
               detail if site is None else "")
        if key in self._seen:
            return
        self._seen.add(key)
        self.violations.append(
            CertifierViolation(
                kind=kind,
                section=section,
                bundle=index,
                register=register,
                operation=operation,
                detail=detail,
            )
        )

    # ------------------------------------------------------------------
    # Structural checks
    # ------------------------------------------------------------------

    def check_structure(self) -> bool:
        """Section lengths; False when the pipeline shape is unusable."""
        code = self.code
        fill = code.ii * (code.stage_count - 1)
        ok = True
        if len(code.prologue) != fill:
            self._report(
                ViolationKind.STRUCTURE,
                None,
                detail=(
                    f"prologue has {len(code.prologue)} bundles, expected "
                    f"II*(SC-1) = {fill}"
                ),
            )
            ok = False
        if len(code.epilogue) != fill:
            self._report(
                ViolationKind.STRUCTURE,
                None,
                detail=(
                    f"epilogue has {len(code.epilogue)} bundles, expected "
                    f"II*(SC-1) = {fill}"
                ),
            )
            ok = False
        kernel_cycles = code.ii * code.mve_factor
        if len(code.kernel) != kernel_cycles:
            self._report(
                ViolationKind.STRUCTURE,
                None,
                detail=(
                    f"kernel has {len(code.kernel)} bundles, expected "
                    f"II*MVE = {kernel_cycles}"
                ),
            )
            ok = False
        return ok

    def check_replication(self) -> None:
        """The SC-1-s / MVE / s instance-count invariant, per node."""
        counts: dict[str, dict[int, int]] = {PROLOGUE: {}, KERNEL: {}, EPILOGUE: {}}
        for section, bundles in (
            (PROLOGUE, self.code.prologue),
            (KERNEL, self.code.kernel),
            (EPILOGUE, self.code.epilogue),
        ):
            tally = counts[section]
            for bundle in bundles:
                for inst in bundle:
                    tally[inst.node] = tally.get(inst.node, 0) + 1
        sc = self.code.stage_count
        mve = self.code.mve_factor
        for node_id in sorted(self._nodes):
            stage = self.stage_of.get(node_id)
            if stage is None:
                self._report(
                    ViolationKind.STRUCTURE,
                    None,
                    operation=node_id,
                    detail=f"node {node_id} has no scheduled cycle",
                )
                continue
            expected = {
                PROLOGUE: sc - 1 - stage,
                KERNEL: mve,
                EPILOGUE: stage,
            }
            for section, want in expected.items():
                have = counts[section].get(node_id, 0)
                if have != want:
                    self._report(
                        ViolationKind.REPLICATION,
                        None,
                        operation=node_id,
                        detail=(
                            f"stage-{stage} node {node_id} appears {have} "
                            f"times in the {section}, expected {want}"
                        ),
                    )
        for section, tally in counts.items():
            for node_id in sorted(tally):
                if node_id not in self._nodes:
                    self._report(
                        ViolationKind.STRUCTURE,
                        None,
                        operation=node_id,
                        detail=(
                            f"{section} issues node {node_id} which is not "
                            "in the dependence graph"
                        ),
                    )

    # ------------------------------------------------------------------
    # Resource usage (re-derived from the code alone)
    # ------------------------------------------------------------------

    def check_resources(self) -> None:
        """Exact per-cycle resource feasibility on the linearized code.

        Enough kernel passes are materialized that any occupancy tail
        (an unpipelined divide spans up to 30 cycles) wraps through the
        back-edge into the next pass; prologue and epilogue bundles are
        instruction subsets of their kernel rows, so the multi-pass
        interior dominates every smaller trip count.
        """
        kernel_cycles = max(1, self.cfg.kernel_cycles)
        max_occ = 1
        kinds = {inst.kind for inst in self._steps_iter()}
        for kind in kinds:
            if kind.is_compute:
                max_occ = max(max_occ, self.machine.occupancy(kind))
        passes = max(2, -(-max_occ // kernel_cycles) + 1)

        usage: dict[tuple[ResourceClass, int], dict[int, list[int]]] = {}
        # (node, cluster) -> the pools one instance reserves, with the
        # offset and duration of each reservation.
        slots_of: dict[
            tuple[int, int], list[tuple[dict[int, list[int]], int, int]]
        ] = {}
        site_at: dict[int, BundleSite] = {}
        for site in self.cfg.linearized(passes):
            site_at[site.cycle] = site
            for inst in site.bundle:
                key = (inst.node, inst.cluster)
                slots = slots_of.get(key)
                if slots is None:
                    slots = slots_of[key] = self._reservation_slots(inst, usage)
                node_id = inst.node
                for pool, offset, duration in slots:
                    start = site.cycle + offset
                    for cycle in range(start, start + duration):
                        if cycle in pool:
                            pool[cycle].append(node_id)
                        else:
                            pool[cycle] = [node_id]

        for (resource, target), pool in sorted(
            usage.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
        ):
            capacity = self.machine.instances(resource)
            if capacity is None:
                continue
            for cycle in sorted(pool):
                users = pool[cycle]
                if len(users) <= capacity:
                    continue
                where = "interconnect" if target == -1 else f"cluster {target}"
                site = site_at.get(cycle)
                self._report(
                    ViolationKind.RESOURCE,
                    site,
                    operation=sorted(users)[0],
                    detail=(
                        f"{len(users)} operations {sorted(set(users))} need "
                        f"{resource.name} of {where} in one cycle but only "
                        f"{capacity} instances exist"
                    ),
                )
                break  # first overflow per pool is the diagnostic one

    def _reservation_slots(
        self,
        inst: Instruction,
        usage: dict[tuple[ResourceClass, int], dict[int, list[int]]],
    ) -> list[tuple[dict[int, list[int]], int, int]]:
        """The ``(pool, offset, duration)`` reservations of ``inst``."""
        node = self._nodes.get(inst.node)
        if node is None:
            return []
        slots: list[tuple[dict[int, list[int]], int, int]] = []
        for step in reservation_steps(node.kind, self.machine):
            if step.role is ClusterRole.SELF:
                target = inst.cluster
            elif step.role is ClusterRole.SOURCE:
                if node.src_cluster is None:
                    continue  # reported by the dataflow walk
                target = node.src_cluster
            else:
                if self.machine.buses is None:
                    continue  # unbounded interconnect
                target = -1
            pool = usage.setdefault((step.resource, target), {})
            slots.append((pool, step.offset, step.duration))
        return slots

    def _steps_iter(self) -> list[Node]:
        return [
            self._nodes[inst.node]
            for inst in self.code.all_instructions()
            if inst.node in self._nodes
        ]

    # ------------------------------------------------------------------
    # Register dataflow
    # ------------------------------------------------------------------

    def _initial_state(self) -> dict[str, _Content]:
        """Loop-entry register contents (mirrors the simulator).

        Copy ``c`` of a value's register set is owned by pre-loop
        iteration ``c - MVE``; aliased copies of non-expanded values
        overwrite each other in ascending copy order, leaving iteration
        -1 - exactly :meth:`VliwSimulator._initial_registers`, with
        symbolic live-ins in place of concrete values.
        """
        mve = self.code.mve_factor
        state: dict[str, _Content] = {}
        for value, names in sorted(self.code.registers.items()):
            for copy, name in enumerate(names):
                state[name] = ((value, copy - mve, True), -1)
        return state

    def _plan(self, node_id: int) -> _NodePlan | None:
        """The graph facts of ``node_id`` (``None``: not walkable).

        A node missing from the graph, or without a scheduled cycle, is
        reported by :meth:`check_replication`.
        """
        node = self._nodes.get(node_id)
        stage = self.stage_of.get(node_id)
        if node is None or stage is None:
            return None
        graph = self.graph
        modulus = self._live_in_modulus
        return _NodePlan(
            stage=stage,
            cluster=self.schedule.clusters.get(node_id),
            is_move=node.is_move,
            src_cluster=node.src_cluster,
            produces_value=node.produces_value,
            has_reg_consumers=bool(graph.reg_consumers(node_id)),
            kind_name=node.kind.value,
            invariants=sorted(inv.name for inv in graph.invariants_of(node_id)),
            reg_edges=tuple(
                (edge.src, edge.distance, modulus.get(edge.src, 1),
                 edge_latency(graph, edge, self.machine))
                for edge in graph.reg_producers(node_id)
            ),
            other_edges=tuple(
                (edge.src, edge.distance,
                 edge_latency(graph, edge, self.machine), edge.kind.value)
                for edge in graph.in_edges(node_id)
                if edge.kind is not DepKind.REG
            ),
        )

    def _check_instruction(
        self,
        site: BundleSite,
        inst: Instruction,
        plan: _NodePlan,
        state: dict[str, _Content],
        issued: dict[tuple[int, int], int],
        writes: list[tuple[str, _Content, int]],
    ) -> None:
        node_id = inst.node
        cycle = site.cycle
        iteration = site.block - plan.stage
        cluster = plan.cluster if plan.cluster is not None else inst.cluster

        reg_names, inv_names = split_sources(inst.sources)

        # Cluster locality: moves read from their declared source
        # cluster, everything else from its own register file.
        source_cluster = plan.src_cluster if plan.is_move else cluster
        if plan.is_move and plan.src_cluster is None:
            self._report(
                ViolationKind.STRUCTURE,
                site,
                operation=node_id,
                detail=f"move {node_id} declares no source cluster",
            )
        for name in reg_names:
            owner = register_cluster(name)
            if owner is None:
                self._report(
                    ViolationKind.OPERAND_MISMATCH,
                    site,
                    register=name,
                    operation=node_id,
                    detail=f"malformed register name {name!r}",
                )
            elif source_cluster is not None and owner != source_cluster:
                self._report(
                    ViolationKind.CROSS_CLUSTER,
                    site,
                    register=name,
                    operation=node_id,
                    detail=(
                        f"node {node_id} on cluster {cluster} reads "
                        f"{name} from cluster {owner} without a move"
                        if not plan.is_move
                        else f"move {node_id} reads {name} from cluster "
                        f"{owner} but declares source {plan.src_cluster}"
                    ),
                )

        # Invariant operands must be exactly the graph's.
        expected_invariants = plan.invariants
        if (inv_names or expected_invariants) and (
            sorted(inv_names) != expected_invariants
        ):
            self._report(
                ViolationKind.OPERAND_MISMATCH,
                site,
                operation=node_id,
                detail=(
                    f"invariant operands {sorted(inv_names)} != "
                    f"{expected_invariants} required by the graph"
                ),
            )

        # Resolve every register read (before any write of this bundle).
        self.reads_checked += len(reg_names)
        unmatched_reads: list[tuple[str, _Content | None]] = []
        for name in reg_names:
            content = state.get(name)
            if content is None:
                self._report(
                    ViolationKind.UNDEFINED_READ,
                    site,
                    register=name,
                    operation=node_id,
                    detail=(
                        f"node {node_id} reads {name} which no definition "
                        "or live-in ever reaches"
                    ),
                )
            unmatched_reads.append((name, content))

        # The instances the graph's register operands require; pre-loop
        # instances collapse onto the value's physical live-in
        # registers (see ``_live_in_modulus``).
        wanted: list[tuple[_Instance, int]] = []
        for src, distance, modulus, latency in plan.reg_edges:
            produced = iteration - distance
            if produced < 0:
                produced = produced % modulus - modulus
            wanted.append(((src, produced, produced < 0), latency))
        if len(reg_names) != len(wanted):
            self._report(
                ViolationKind.OPERAND_MISMATCH,
                site,
                operation=node_id,
                detail=(
                    f"{len(reg_names)} register operands for "
                    f"{len(wanted)} register dependences"
                ),
            )
        if len(wanted) > 1:
            wanted.sort(key=_by_instance)

        # Match reads against the graph's operands: exact instance
        # matches first, then classify the leftovers.
        for want, latency in wanted:
            hit = None
            for index, (name, content) in enumerate(unmatched_reads):
                if content is not None and content[0] == want:
                    hit = index
                    break
            if hit is not None:
                name, content = unmatched_reads.pop(hit)
                assert content is not None
                write_cycle = content[1]
                if not want[2] and cycle < write_cycle + latency:
                    self._report(
                        ViolationKind.LATENCY,
                        site,
                        register=name,
                        operation=node_id,
                        detail=(
                            f"node {node_id} reads {_describe(want)} "
                            f"{cycle - write_cycle} cycles "
                            f"after its definition; latency is {latency}"
                        ),
                    )
                continue
            # No read observes the required instance: classify against
            # the (deterministically chosen) first unmatched read.
            offender = next(
                ((n, c) for n, c in unmatched_reads if c is not None), None
            )
            if offender is None:
                continue  # reads were undefined - already reported
            name, content = offender
            unmatched_reads.remove(offender)
            assert content is not None
            held = content[0]
            if held[2] and not want[2]:
                kind = ViolationKind.STALE_LIVE_IN
            else:
                kind = ViolationKind.WRONG_PRODUCER
            self._report(
                kind,
                site,
                register=name,
                operation=node_id,
                detail=(
                    f"node {node_id} needs {_describe(want)} but {name} "
                    f"holds {_describe(held)}"
                ),
            )

        # Destination bookkeeping.
        dest = inst.dest
        if dest is not None:
            if not plan.produces_value:
                self._report(
                    ViolationKind.OPERAND_MISMATCH,
                    site,
                    register=dest,
                    operation=node_id,
                    detail=f"{plan.kind_name} node {node_id} writes a register",
                )
            owner = register_cluster(dest)
            if owner is not None and owner != cluster:
                self._report(
                    ViolationKind.CROSS_CLUSTER,
                    site,
                    register=dest,
                    operation=node_id,
                    detail=(
                        f"node {node_id} on cluster {cluster} writes "
                        f"{dest} of cluster {owner}"
                    ),
                )
            writes.append((dest, ((node_id, iteration, False), cycle), node_id))
        elif plan.has_reg_consumers:
            self._report(
                ViolationKind.OPERAND_MISMATCH,
                site,
                operation=node_id,
                detail=(
                    f"node {node_id} has register consumers but the "
                    "instruction writes no destination"
                ),
            )

        # Memory / control ordering across the concrete walk.
        for src, distance, latency, kind_name in plan.other_edges:
            produced = iteration - distance
            if produced < 0:
                continue
            producer_cycle = issued.get((src, produced))
            if producer_cycle is None:
                producer_cycle = self.issue_cycle.get((src, produced))
            if producer_cycle is None:
                continue
            if cycle < producer_cycle + latency:
                self._report(
                    ViolationKind.LATENCY,
                    site,
                    operation=node_id,
                    detail=(
                        f"{kind_name} dependence {src}->"
                        f"{node_id} (d={distance}) violated: issued "
                        f"{cycle - producer_cycle} cycles apart, "
                        f"latency {latency}"
                    ),
                )
        issued[(node_id, iteration)] = cycle

    def _walk_site(
        self,
        site: BundleSite,
        state: dict[str, _Content],
        issued: dict[tuple[int, int], int],
    ) -> None:
        """Execute one bundle symbolically: read-first, then write back."""
        self.bundles_checked += 1
        plans = self._plans
        writes: list[tuple[str, _Content, int]] = []
        for inst in site.bundle:
            node_id = inst.node
            if node_id in plans:
                plan = plans[node_id]
            else:
                plan = plans[node_id] = self._plan(node_id)
            if plan is not None:
                self._check_instruction(site, inst, plan, state, issued, writes)
        written: dict[str, int] = {}
        for name, content, node_id in writes:
            earlier = written.get(name)
            if earlier is not None:
                self._report(
                    ViolationKind.WRITE_WRITE,
                    site,
                    register=name,
                    operation=node_id,
                    detail=(
                        f"nodes {earlier} and {node_id} both write {name} "
                        f"in one bundle"
                    ),
                )
            written[name] = node_id
            state[name] = content

    def _normalized(
        self, state: dict[str, _Content], passes: int
    ) -> frozenset[tuple[str, bool, int, int]]:
        """State modulo the per-pass iteration shift (fixpoint test)."""
        shift = passes * self.code.mve_factor
        return frozenset(
            (name, live_in, node, iteration - (0 if live_in else shift))
            for name, ((node, iteration, live_in), _) in state.items()
        )

    def check_dataflow(self) -> None:
        state = self._initial_state()
        issued = self.issue_cycle
        for site in self.cfg.prologue_sites():
            self._walk_site(site, state, issued)

        explored: set[frozenset[tuple[str, bool, int, int]]] = set()
        max_passes = (
            self.code.stage_count + self.code.mve_factor + MAX_FIXPOINT_SLACK
        )
        passes = 0
        while True:
            norm = self._normalized(state, passes)
            if norm in explored:
                break
            explored.add(norm)
            if passes >= 1:
                # The pipeline may drain after *any* number of passes:
                # replay the epilogue from the state entering this pass
                # boundary, without committing its effects.
                replay_state = dict(state)
                replay_issued: dict[tuple[int, int], int] = {}
                for site in self.cfg.epilogue_sites(passes):
                    self._walk_site(site, replay_state, replay_issued)
            if passes >= max_passes:
                self._report(
                    ViolationKind.STRUCTURE,
                    None,
                    detail=(
                        f"register dataflow did not reach a fixpoint "
                        f"within {max_passes} kernel passes"
                    ),
                )
                break
            for site in self.cfg.kernel_sites(passes):
                self._walk_site(site, state, issued)
            passes += 1
        self.passes_checked = passes

    # ------------------------------------------------------------------

    def run(self) -> CertifierReport:
        if self.check_structure():
            self.check_replication()
            self.check_resources()
            self.check_dataflow()
        return CertifierReport(
            loop=self.code.loop,
            machine=self.machine.name,
            ii=self.code.ii,
            stage_count=self.code.stage_count,
            mve_factor=self.code.mve_factor,
            passes_checked=self.passes_checked,
            bundles_checked=self.bundles_checked,
            reads_checked=self.reads_checked,
            violations=tuple(self.violations),
        )


def legacy_certify_code(
    code: GeneratedCode, schedule: ScheduleResult
) -> CertifierReport:
    """``certify_code`` through :class:`LegacyCertifier` (no tracing)."""
    return LegacyCertifier(code, schedule).run()
