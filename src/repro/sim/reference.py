"""Scalar reference interpretation of a dependence graph.

Executes a loop the way a sequential processor would: iteration by
iteration, each iteration's operations in a topological order of the
intra-iteration dependences (ties broken by node id, so the order is
deterministic).  Loop-carried operands come from the value history,
pre-loop instances from :func:`repro.sim.ops.initial_value`.

The interpreter runs the *final* graph of a schedule — spill loads and
stores, inter-cluster moves and all — under the semantics of
:mod:`repro.sim.ops`:

* a move forwards its operand (or re-materializes its invariant);
* a spill store writes its value to the per-iteration spill slot of its
  :class:`~repro.graph.ddg.MemRef`;
* a spill load reads the slot of the *producing* iteration: the store →
  load memory edge carries the iteration distance of the spilled use;
* a spill load of an invariant yields the invariant's value.

Because the VLIW simulator (:mod:`repro.sim.vliw`) applies the same
semantics to the *emitted code*, any divergence between the two — a
wrong register copy, a clobbered shared register, a mis-addressed spill
slot — shows up as a value or memory mismatch in
:mod:`repro.sim.differential`.
"""

from __future__ import annotations

import dataclasses
import heapq

from repro.errors import GraphError
from repro.graph.ddg import DepKind, DependenceGraph, Node
from repro.machine.resources import OpKind
from repro.sim import ops


@dataclasses.dataclass
class ReferenceRun:
    """End state of one reference execution."""

    loop: str
    iterations: int
    #: (node id, iteration) -> produced value (stores: the value written).
    values: dict[tuple[int, int], int]
    #: byte address of a written word -> value.
    memory: dict[int, int]


def spill_load_distance(graph: DependenceGraph, node_id: int) -> int:
    """Iteration distance between a spill load and its spill store.

    The spill store of iteration ``i`` writes slot ``i``; the load that
    re-materializes the value ``d`` iterations later must read slot
    ``i = j - d``.  Loads without a store edge (invariant loads) read
    their own iteration's address.
    """
    for edge in graph.in_edges(node_id):
        if edge.kind is not DepKind.MEM:
            continue
        src = graph.node(edge.src)
        if src.is_spill and src.kind is OpKind.STORE:
            return edge.distance
    return 0


def intra_iteration_order(graph: DependenceGraph) -> list[int]:
    """Topological order of the distance-0 dependences, smallest-id first."""
    indegree = {node_id: 0 for node_id in graph.node_ids()}
    for edge in graph.edges():
        if edge.distance == 0:
            indegree[edge.dst] += 1
    ready = [node_id for node_id, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        node_id = heapq.heappop(ready)
        order.append(node_id)
        for edge in graph.out_edges(node_id):
            if edge.distance != 0:
                continue
            indegree[edge.dst] -= 1
            if indegree[edge.dst] == 0:
                heapq.heappush(ready, edge.dst)
    if len(order) != len(indegree):
        raise GraphError(
            f"loop {graph.name!r} has a zero-distance dependence cycle"
        )
    return order


class ReferenceInterpreter:
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
        # One step per node, in execution order: (node id, REG producers
        # with their distances, invariant operand values, evaluator,
        # load MemRef, spill-slot distance, fixed value, store MemRef).
        self._plan = tuple(
            self._step(graph.node(node_id))
            for node_id in intra_iteration_order(graph)
        )

    def _step(self, node: Node) -> tuple:
        """One node's step of the plan (see :meth:`__init__`)."""
        graph = self.graph
        reg_in = tuple(
            (edge.src, edge.distance)
            for edge in graph.in_edges(node.id)
            if edge.kind is DepKind.REG
        )
        constants = tuple(
            ops.invariant_value(inv.id) for inv in graph.invariants_of(node.id)
        )
        func = load_ref = store_ref = fixed = None
        distance = 0
        if node.kind is OpKind.LOAD:
            if node.load_of_invariant is not None:
                fixed = ops.invariant_value(node.load_of_invariant)
            else:
                load_ref = node.mem_ref
                if node.is_spill:
                    distance = spill_load_distance(graph, node.id)
        elif node.kind is OpKind.MOVE and node.move_of_invariant is not None:
            fixed = ops.invariant_value(node.move_of_invariant)
        else:
            func = ops.evaluator(node.kind)
            if node.kind is OpKind.STORE:
                store_ref = node.mem_ref
        return (
            node.id, reg_in, constants, func, load_ref, distance, fixed,
            store_ref,
        )

    # ------------------------------------------------------------------

    def run(self, iterations: int) -> ReferenceRun:
        """Execute the loop for the given number of iterations."""
        if iterations < 1:
            raise ValueError("need at least one iteration")
        values: dict[tuple[int, int], int] = {}
        memory: dict[int, int] = {}

        moduli = self.live_in_moduli
        load_value = ops.load_value
        initial_memory = ops.initial_memory

        def live_in(node_id: int, iteration: int) -> int:
            if moduli is not None:
                modulus = moduli.get(node_id, 1)
                iteration = iteration % modulus - modulus
            return ops.initial_value(node_id, iteration)

        for iteration in range(iterations):
            for (node_id, reg_in, constants, func, load_ref, distance, fixed,
                 store_ref) in self._plan:
                if fixed is not None:
                    values[(node_id, iteration)] = fixed
                    continue
                operands = list(constants)
                for src, d in reg_in:
                    if d <= iteration:
                        operands.append(values[(src, iteration - d)])
                    else:
                        operands.append(live_in(src, iteration - d))
                if func is not None:
                    value = func(operands)
                    if store_ref is not None:
                        memory[store_ref.address(iteration)] = value
                elif load_ref is None:
                    # No access pattern: a register-like scratch
                    # location (mirrors repro.memsim.trace).
                    value = load_value(0, operands)
                else:
                    address = load_ref.address(iteration - distance)
                    word = memory.get(address)
                    if word is None:
                        word = initial_memory(address)
                    value = load_value(word, operands)
                values[(node_id, iteration)] = value

        return ReferenceRun(
            loop=self.graph.name,
            iterations=iterations,
            values=values,
            memory=memory,
        )


def live_in_moduli_of_code(code) -> dict[int, int]:
    """Per-value live-in moduli of one emitted pipeline.

    A modulo-expanded value owns one register per kernel copy (modulus =
    MVE factor); a non-expanded value owns a single register whatever
    the unroll (modulus 1).
    """
    return {
        value: len(set(names)) for value, names in code.registers.items()
    }


def run_reference(graph: DependenceGraph, iterations: int) -> ReferenceRun:
    """One-shot convenience wrapper around :class:`ReferenceInterpreter`."""
    return ReferenceInterpreter(graph).run(iterations)
