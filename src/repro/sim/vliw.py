"""Cycle-accurate functional execution of emitted VLIW code.

:class:`VliwSimulator` runs the output of
:func:`repro.codegen.generate_code` bundle by bundle — prologue, then as
many passes over the unrolled kernel as the trip count needs, then the
epilogue — against architectural state:

* one global register namespace whose names embed the owning cluster
  (``c1:r7.k2``), read at issue time with read-before-write semantics
  inside a bundle (the register file of a real VLIW reads its operands
  before the cycle's writeback);
* a byte-addressed memory, initialized on demand from
  :func:`repro.sim.ops.initial_memory`;
* the lockup-free cache of :mod:`repro.memsim` for *observed* (rather
  than analytically predicted) stall cycles: a load miss makes its
  destination register's data available ``miss_latency`` cycles after
  issue, and the in-order pipeline blocks when a bundle needs an operand
  before its data is ready or when all MSHRs are busy.

Cycle accounting follows Section 4.3 of the paper: **useful** cycles are
issued bundles — exactly ``II * (N + SC - 1)`` for ``N`` iterations of
an SC-stage pipeline — and **stall** cycles are the extra cycles the
clock advanced while the pipeline was blocked.

Timing is modelled for loads only: every other latency is already
honoured by construction (the static schedule spaces dependent issues at
least one producer-latency apart, and elapsed cycles only grow beyond
the static schedule as stalls are inserted), so hits never block.
"""

from __future__ import annotations

import dataclasses

from repro.codegen.emitter import GeneratedCode, Instruction, generate_code
from repro.core.result import ScheduleResult
from repro.errors import SimulationError
from repro.graph.ddg import Node
from repro.machine.resources import OpKind
from repro.machine.technology import TechnologyModel
from repro.memsim.cache import CacheConfig, LockupFreeCache
from repro.sim import ops
from repro.sim.reference import spill_load_distance
from repro.sim.result import SimulationResult

_INVARIANT_PREFIX = "inv:"


@dataclasses.dataclass(frozen=True)
class _Section:
    """The compiled plan of one code section (prologue, kernel or
    epilogue): per bundle, ``(read names, reads, steps)`` (see
    :meth:`VliwSimulator._compile`); plus its op counts."""

    plan: tuple[tuple[tuple, tuple, tuple], ...]
    loads: int
    stores: int
    moves: int
    instructions: int


@dataclasses.dataclass
class SimulationRun:
    """A finished simulation: the compact result plus the full end state.

    The heavyweight fields (per-instance values, memory image, register
    file) exist for differential validation and debugging; only
    :attr:`result` travels through caches and reports.
    """

    result: SimulationResult
    #: (node id, iteration) -> value produced by that instance.
    values: dict[tuple[int, int], int]
    #: byte address -> last value stored.
    memory: dict[int, int]
    #: register name -> value at the end of the run.
    registers: dict[str, int]


def effective_iterations(code: GeneratedCode, iterations: int) -> int:
    """Round a trip count up to what the emitted pipeline can execute.

    The prologue starts ``SC - 1`` iterations and each pass over the
    unrolled kernel retires exactly ``mve_factor`` more, so the smallest
    executable trip count is ``SC - 1 + mve_factor`` and growth comes in
    ``mve_factor`` steps (real software pipelines precondition the loop
    for the same reason).
    """
    if iterations < 1:
        raise ValueError("need at least one iteration")
    fill = code.stage_count - 1
    passes = max(1, -(-(iterations - fill) // code.mve_factor))
    return fill + passes * code.mve_factor


#: Step tags of the compiled plan (see :meth:`VliwSimulator._compile`).
_COMPUTE = 0  # value = evaluator(operands); moves included
_LOAD = 1
_STORE = 2
_FIXED = 3  # a move re-materializing an invariant


class VliwSimulator:
    """Executes one scheduled loop's emitted code (see module docstring).

    The emitted instructions are compiled once, at construction, into a
    flat plan per bundle: the register names each instruction reads,
    its ``inv:`` operands already resolved to values, and one *step*
    tuple carrying what the cycle loop needs to execute it — the kind
    tag, node id, iteration shift (``cycle // II - stage``), destination
    register, evaluator, :class:`~repro.graph.ddg.MemRef`, spill-slot
    distance, fixed invariant value and address, and whether a load
    miss delays its destination.  Only the instructions and per-node op
    semantics feed the plan; graph edges never do, beyond the spill
    distance a spill load's slot addressing needs.

    Args:
        schedule: a converged :class:`ScheduleResult` (with its graph).
        code: pre-generated code; emitted from ``schedule`` when omitted.
        cache_config: cache geometry (paper defaults when omitted).
        technology: technology model supplying the miss latency.

    Raises:
        SimulationError: an instruction reads an ``inv:`` operand the
            graph does not declare.
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
        self._node_steps = {
            node.id: self._node_step(node) for node in graph.nodes()
        }
        self._splits: dict[tuple[str, ...], tuple[tuple, tuple]] = {}
        code = self.code
        self._prologue = self._compile(code.prologue)
        self._kernel = self._compile(code.kernel)
        self._epilogue = self._compile(code.epilogue)

    # ------------------------------------------------------------------

    def _node_step(self, node: Node) -> tuple:
        """The part of a step shared by every instance of one node:
        ``(tag, evaluator, mem_ref, spill distance, fixed value, fixed
        address, whether a miss delays the destination)``."""
        kind = node.kind
        func = None
        fixed = address = None
        distance = 0
        if kind is OpKind.LOAD:
            tag = _LOAD
            if node.is_spill:
                distance = spill_load_distance(self.schedule.graph, node.id)
            if node.load_of_invariant is not None:
                fixed = ops.invariant_value(node.load_of_invariant)
                if node.mem_ref is not None:
                    address = node.mem_ref.address(0)
        elif kind is OpKind.STORE:
            tag = _STORE
            func = ops.evaluator(kind)
        elif kind is OpKind.MOVE and node.move_of_invariant is not None:
            tag = _FIXED
            fixed = ops.invariant_value(node.move_of_invariant)
        else:
            tag = _COMPUTE
            func = ops.evaluator(kind)
        return (
            tag,
            func,
            node.mem_ref,
            distance,
            fixed,
            address,
            node.latency_override is None,
        )

    def _split_sources(self, sources: tuple[str, ...]) -> tuple[tuple, tuple]:
        """(register names, resolved invariant values) of one source list."""
        split = self._splits.get(sources)
        if split is None:
            names = []
            constants = []
            for name in sources:
                if not name.startswith(_INVARIANT_PREFIX):
                    names.append(name)
                    continue
                try:
                    constants.append(self._invariants[name])
                except KeyError:
                    raise SimulationError(
                        f"unknown invariant operand {name!r}"
                    ) from None
            split = self._splits[sources] = (tuple(names), tuple(constants))
        return split

    def _compile(self, bundles: list[list[Instruction]]) -> _Section:
        """The plan of one code section, with its static op counts.

        Per bundle: every register name it reads, the ``(node, register
        names, invariant values)`` of each instruction, and its steps —
        the node's shared step plus ``(node, iteration shift, dest)``.
        """
        ii = self.code.ii
        node_steps = self._node_steps
        split = self._split_sources
        plan = []
        for cycle, bundle in enumerate(bundles):
            block = cycle // ii
            reads = tuple(
                (inst.node, *split(inst.sources)) for inst in bundle
            )
            steps = tuple(
                node_steps[inst.node]
                + (inst.node, block - inst.stage, inst.dest)
                for inst in bundle
            )
            read_names = tuple(
                {name: None for _, names, _ in reads for name in names}
            )
            plan.append((read_names, reads, steps))
        kinds = [
            self._nodes[inst.node].kind for bundle in bundles for inst in bundle
        ]
        return _Section(
            plan=tuple(plan),
            instructions=len(kinds),
            loads=kinds.count(OpKind.LOAD),
            stores=kinds.count(OpKind.STORE),
            moves=kinds.count(OpKind.MOVE),
        )

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

    # ------------------------------------------------------------------

    def run(self, iterations: int) -> SimulationRun:
        """Execute the pipeline end to end for (at least) ``iterations``.

        Raises:
            SimulationError: an instruction reads a register nothing
                has defined.
        """
        code = self.code
        mve = code.mve_factor
        n_iterations = effective_iterations(code, iterations)
        fill = code.stage_count - 1
        passes = (n_iterations - fill) // mve
        # Cycle block at which each section execution starts: the
        # prologue, every pass over the unrolled kernel, the epilogue.
        timeline = [(0, self._prologue)]
        timeline += [
            (fill + kernel_pass * mve, self._kernel)
            for kernel_pass in range(passes)
        ]
        timeline.append((fill + passes * mve, self._epilogue))

        registers = self._initial_registers()
        read = registers.__getitem__
        values: dict[tuple[int, int], int] = {}
        memory: dict[int, int] = {}
        cache = LockupFreeCache(self.cache_config)
        access = cache.access
        miss_latency = self.technology.miss_latency_cycles(
            self.schedule.machine
        )
        mshrs = self.cache_config.mshrs
        load_value = ops.load_value
        initial_memory = ops.initial_memory

        clock = 0  # elapsed cycles, stalls included
        stalls = 0
        data_ready: dict[str, int] = {}  # load dest -> data-ready cycle
        pending: list[int] = []  # outstanding miss completion cycles

        for base, section in timeline:
            for read_names, reads, steps in section.plan:
                # Issue-time operand fetch: every source is read before
                # any write of this bundle lands, and the bundle as a
                # whole waits for the slowest outstanding operand.
                try:
                    fetched = [
                        [*map(read, names), *constants]
                        for _, names, constants in reads
                    ]
                except KeyError:
                    node_id, name = next(
                        (node_id, name)
                        for node_id, names, _ in reads
                        for name in names
                        if name not in registers
                    )
                    raise SimulationError(
                        f"instruction for node {node_id} reads "
                        f"register {name!r} which nothing defines"
                    ) from None
                if data_ready:
                    ready = clock
                    for name in read_names:
                        at = data_ready.get(name, 0)
                        if at > ready:
                            ready = at
                    if ready > clock:
                        stalls += ready - clock
                        clock = ready

                # Nothing below reads a register, so each write can land
                # as its instruction executes.
                for step, operands in zip(steps, fetched, strict=True):
                    (tag, func, mem_ref, distance, fixed, fixed_address,
                     delays, node_id, shift, dest) = step
                    iteration = base + shift
                    ready_at = 0  # 0 = data ready at issue
                    if tag == _COMPUTE:
                        value = func(operands)
                    elif tag == _LOAD:
                        if fixed is not None:
                            value = fixed
                            address = fixed_address
                        elif mem_ref is None:
                            value = load_value(0, operands)
                            address = None
                        else:
                            address = mem_ref.address(iteration - distance)
                            word = memory.get(address)
                            if word is None:
                                word = initial_memory(address)
                            value = load_value(word, operands)
                        if address is not None and not access(address):
                            # MSHR pressure: with every miss register
                            # busy the pipeline blocks until one retires.
                            pending = [t for t in pending if t > clock]
                            if len(pending) >= mshrs:
                                wait = min(pending)
                                stalls += wait - clock
                                clock = wait
                                pending = [t for t in pending if t > clock]
                            if delays:
                                ready_at = clock + miss_latency
                            pending.append(clock + miss_latency)
                    elif tag == _STORE:
                        value = func(operands)
                        if mem_ref is not None:
                            address = mem_ref.address(iteration)
                            memory[address] = value
                            # Write misses allocate but never block:
                            # stores retire through the write buffer.
                            access(address, True)
                    else:
                        value = fixed

                    values[(node_id, iteration)] = value
                    if dest is not None:
                        registers[dest] = value
                        if ready_at:
                            data_ready[dest] = ready_at
                        elif data_ready:
                            data_ready.pop(dest, None)
                clock += 1

        def total(field: str) -> int:
            """A static op count over every executed section."""
            return sum(getattr(section, field) for _, section in timeline)

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
            useful_cycles=clock - stalls,  # one per issued bundle
            stall_cycles=stalls,
            instructions=total("instructions"),
            loads=total("loads"),
            stores=total("stores"),
            moves=total("moves"),
            cache_hits=cache.hits,
            cache_misses=cache.misses,
        )
        return SimulationRun(
            result=result, values=values, memory=memory, registers=registers
        )


def simulate(
    schedule: ScheduleResult,
    iterations: int,
    cache_config: CacheConfig | None = None,
    technology: TechnologyModel | None = None,
) -> SimulationRun:
    """One-shot convenience wrapper around :class:`VliwSimulator`."""
    return VliwSimulator(
        schedule, cache_config=cache_config, technology=technology
    ).run(iterations)
