"""Emission of software-pipelined VLIW code.

Turns a converged :class:`ScheduleResult` into explicit instruction
bundles: a **prologue** filling the pipeline (stages 0..SC-2 start one
after another), an unrolled steady-state **kernel** (one copy per modulo
variable expansion instance, with per-copy register renaming), and an
**epilogue** draining the pipeline.  An operation scheduled at stage *s*
of an SC-stage schedule appears ``SC - 1 - s`` times in the prologue,
once per kernel copy, and ``s`` times in the epilogue - the invariant the
tests pin down.

Registers come from the allocation the scheduler stored on the result
(:func:`repro.core.result.allocate`, the wrap-around allocator of
:mod:`repro.schedule.regalloc`); expanded values get one architectural
register per kernel copy (``r7.k1`` denotes copy 1's instance).  Copy
labels follow one global convention: iteration ``j`` owns copy
``j % K`` in the prologue, the kernel and the epilogue alike, so a
value produced during the pipeline fill is read from the right renamed
register once the steady state takes over.

The emitted code is *executable*: :mod:`repro.sim` runs it bundle by
bundle on simulated register files and a lockup-free cache
(:mod:`repro.memsim`), and checks the final state against a scalar
reference interpretation of the dependence graph.
"""

from __future__ import annotations

import dataclasses

from repro.core.result import ScheduleResult
from repro.codegen.mve import modulo_variable_expansion_factor
from repro.env import env_flag
from repro.errors import CertificationError, CodegenError
from repro.graph.ddg import DepKind

#: Environment knob: any non-empty value turns every
#: :func:`generate_code` call into a self-certifying one (the static
#: certifier of :mod:`repro.analysis` runs on the emitted code and a
#: rejection raises :class:`~repro.errors.CertificationError`) — the
#: sanitizer mode the CI matrix runs the whole suite under.
CERTIFY_ENV = "REPRO_STATIC_CERTIFY"


@dataclasses.dataclass(slots=True)
class Instruction:
    """One operation slot inside a bundle.

    Attributes:
        node: the dependence-graph node id this instance executes.
        mnemonic: operation mnemonic (``add``, ``move``...).
        cluster: executing cluster.
        stage: kernel stage of the operation.
        copy: kernel copy (MVE instance) this instance belongs to.
        dest: destination register name (``None`` for stores).
        sources: source register names.
    """

    node: int
    mnemonic: str
    cluster: int
    stage: int
    copy: int
    dest: str | None
    sources: tuple[str, ...]

    def render(self) -> str:
        operands = ", ".join(self.sources) if self.sources else ""
        target = f"{self.dest} <- " if self.dest else ""
        return f"c{self.cluster}.{self.mnemonic} {target}{operands}".rstrip()


@dataclasses.dataclass
class GeneratedCode:
    """The emitted software pipeline.

    ``prologue``, ``kernel`` and ``epilogue`` are lists of *bundles*;
    each bundle is the list of instructions issuing in one cycle.
    """

    loop: str
    ii: int
    stage_count: int
    mve_factor: int
    prologue: list[list[Instruction]]
    kernel: list[list[Instruction]]
    epilogue: list[list[Instruction]]
    #: value id -> register name per kernel copy (the map the
    #: instructions were rendered from; the simulator initialises the
    #: live-in registers of loop-carried values through it).
    registers: dict[int, list[str]] = dataclasses.field(default_factory=dict)

    @property
    def kernel_cycles(self) -> int:
        """Cycles per kernel pass (II x MVE copies)."""
        return self.ii * self.mve_factor

    def all_instructions(self) -> list[Instruction]:
        bundles = self.prologue + self.kernel + self.epilogue
        return [inst for bundle in bundles for inst in bundle]

    def render(self) -> str:
        """Full textual listing."""
        lines = [
            f"; loop {self.loop}: II={self.ii}, {self.stage_count} stages, "
            f"MVE x{self.mve_factor}"
        ]

        def emit(title: str, bundles: list[list[Instruction]]) -> None:
            lines.append(f"{title}:")
            for index, bundle in enumerate(bundles):
                ops = " | ".join(inst.render() for inst in bundle) or "nop"
                lines.append(f"  {index:4d}: {ops}")

        emit("prologue", self.prologue)
        emit("kernel", self.kernel)
        emit("epilogue", self.epilogue)
        return "\n".join(lines)


def _register_names(result: ScheduleResult, mve: int) -> dict[int, list[str]]:
    """value id -> register name per kernel copy, from the result's
    allocation.

    Values consumed at an iteration distance >= 1 are *live-in exposed*:
    during the pipeline fill their consumers read the register before
    the value's first definition ever writes it, so the register must
    hold the live-in from loop entry.  The wrap-around allocator colours
    only steady-state arcs and may share such a register with another
    value whose writes would clobber the live-in, so exposed values that
    are not modulo-expanded get a dedicated register here instead,
    numbered past the cluster's allocated count (the small overshoot
    mirrors the preheader live-in setup the paper's register model does
    not charge for).
    """
    graph = result.graph
    assert graph is not None  # generate_code rejects graph-less results
    clusters = result.clusters
    exposed = {
        edge.src
        for edge in graph.edges()
        if edge.kind is DepKind.REG and edge.distance >= 1
    }
    next_dedicated = dict(result.register_usage)
    names: dict[int, list[str]] = {}
    for value, registers in sorted(
        result.value_registers.items(),
        key=lambda item: (clusters[item[0]], item[0]),
    ):
        cluster = clusters[value]
        # Base register for the name: the first assigned register is a
        # dedicated (per-value unique) one whenever the lifetime spans a
        # full II, and the shared arc colour only for short lifetimes.
        # Expanded values must never base their ``.k`` copies on the
        # shared arc register: two expanded values may legitimately
        # share an arc colour, but their renamed copies would then
        # collide name-for-name.
        base = registers[0]
        if mve > 1 and result.lifetimes[value] > result.ii:
            names[value] = [
                f"c{cluster}:r{base}.k{copy}" for copy in range(mve)
            ]
        elif value in exposed:
            names[value] = [f"c{cluster}:r{next_dedicated[cluster]}"] * mve
            next_dedicated[cluster] += 1
        else:
            names[value] = [f"c{cluster}:r{base}"] * mve
    return names


def _instances(
    result: ScheduleResult,
    node_id: int,
    stage: int,
    registers: dict[int, list[str]],
    mve: int,
) -> list[Instruction]:
    """The instruction of every kernel copy of one node, indexed by copy.

    A node issues at one stage, so each field of an instance is a
    function of the node and the copy: the prologue, the kernel and the
    epilogue all share these objects.
    """
    graph = result.graph
    assert graph is not None  # generate_code rejects graph-less results
    node = graph.node(node_id)
    # (producer's register per copy, distance): an operand comes from
    # the copy that produced it, `distance` iterations (hence kernel
    # copies) earlier.
    reg_in = [
        (registers[edge.src], edge.distance)
        for edge in graph.in_edges(node_id)
        if edge.kind is DepKind.REG
    ]
    invariants = [f"inv:{inv.name}" for inv in graph.invariants_of(node_id)]
    dests = registers.get(node_id) if node.produces_value else None
    mnemonic = node.kind.value
    cluster = result.clusters[node_id]
    return [
        Instruction(
            node=node_id,
            mnemonic=mnemonic,
            cluster=cluster,
            stage=stage,
            copy=copy,
            dest=None if dests is None else dests[copy],
            sources=tuple(
                sorted(
                    [names[(copy - distance) % mve] for names, distance in reg_in]
                    + invariants
                )
            ),
        )
        for copy in range(mve)
    ]


def generate_code(result: ScheduleResult) -> GeneratedCode:
    """Emit prologue / kernel / epilogue for a converged schedule.

    Feasibility is judged on the register allocator's own count.  Note
    that values carried into the loop additionally receive *dedicated*
    registers numbered past that count (see :func:`_register_names`):
    like the preheader that would initialise them, those few registers
    are a code-generation concession the paper's register model does
    not charge for, so emitted names may exceed the architectural file
    by the number of live-in values even when the check passes.

    Raises:
        CodegenError: (a :class:`ValueError` subclass) when the schedule
            did not converge (``kind="not-converged"``) or its register
            allocation does not fit the machine's register files
            (``kind="register-infeasible"`` — emitting code for such a
            schedule would silently produce wrong register names).  The
            error carries the loop name, so batch drivers can report
            which loop failed without parsing the message.
        CertificationError: under ``REPRO_STATIC_CERTIFY=1``, when the
            emitted code fails static certification.
    """
    mve = modulo_variable_expansion_factor(result)  # rejects unconverged
    ii = result.ii
    available = result.machine.cluster.registers
    if available is not None:
        over = {
            cluster: used
            for cluster, used in sorted(result.register_usage.items())
            if used > available
        }
        if over:
            detail = ", ".join(
                f"cluster {c} needs {used}" for c, used in over.items()
            )
            raise CodegenError(
                f"schedule for loop {result.loop!r} is register-infeasible "
                f"on {result.machine.name} ({detail}, {available} available); "
                "refusing to emit code with clobbered registers",
                loop=result.loop,
                kind="register-infeasible",
            )
    registers = _register_names(result, mve)

    low = min(result.times.values(), default=0)
    # (row, stage) -> per kernel copy, the instructions of that slot in
    # node-id order.
    by_slot: dict[tuple[int, int], list[list[Instruction]]] = {}
    stage_count = 1
    for node_id in sorted(result.times):
        cycle = result.times[node_id] - low
        row, stage = cycle % ii, cycle // ii
        stage_count = max(stage_count, stage + 1)
        slot = by_slot.get((row, stage))
        if slot is None:
            slot = by_slot[(row, stage)] = [[] for _ in range(mve)]
        for copy, inst in enumerate(
            _instances(result, node_id, stage, registers, mve)
        ):
            slot[copy].append(inst)

    def bundle(row: int, stages: list[tuple[int, int]]) -> list[Instruction]:
        """Instructions issuing at one cycle: (stage, copy) pairs."""
        instructions: list[Instruction] = []
        for stage, copy in stages:
            slot = by_slot.get((row, stage))
            if slot is not None:
                instructions.extend(slot[copy])
        return instructions

    # Prologue: iteration i (i = 0..SC-2) starts at cycle i*II; at cycle
    # c of the fill phase, iteration i executes stage (c//II - i).
    prologue: list[list[Instruction]] = []
    for cycle in range(ii * (stage_count - 1)):
        row = cycle % ii
        phase = cycle // ii
        stages = [
            (phase - i, i % mve) for i in range(phase + 1)
        ]
        prologue.append(bundle(row, stages))

    # Kernel: `mve` renamed copies of the II-cycle steady state; copy c
    # executes stage s on behalf of the iteration started (SC-1-s)
    # kernel-iterations ago.  Kernel block c sits at global cycle block
    # (SC-1) + c (+ a multiple of mve per pass), so the iteration
    # executing stage s there is j = (SC-1) + c - s and its copy label
    # must be j % mve: without the SC-1 shift the kernel reads renamed
    # registers the prologue never wrote whenever (SC-1) % mve != 0.
    kernel: list[list[Instruction]] = []
    for copy in range(mve):
        for row in range(ii):
            stages = [
                (stage, (copy - stage + stage_count - 1) % mve)
                for stage in range(stage_count)
            ]
            kernel.append(bundle(row, stages))

    # Epilogue: drain stages 1..SC-1 of the last SC-1 iterations.  The
    # kernel always retires in whole mve-block passes, so the same
    # SC-1 shift keeps iteration j on copy j % mve here too.
    epilogue: list[list[Instruction]] = []
    for cycle in range(ii * (stage_count - 1)):
        row = cycle % ii
        phase = cycle // ii
        stages = [
            (stage, (phase - stage + stage_count - 1) % mve)
            for stage in range(phase + 1, stage_count)
        ]
        epilogue.append(bundle(row, stages))

    code = GeneratedCode(
        loop=result.loop,
        ii=ii,
        stage_count=stage_count,
        mve_factor=mve,
        prologue=prologue,
        kernel=kernel,
        epilogue=epilogue,
        registers=registers,
    )
    if env_flag(CERTIFY_ENV):
        # Imported here: repro.analysis certifies *this* module's output.
        from repro.analysis import certify_code

        report = certify_code(code, result)
        if not report.ok:
            raise CertificationError(
                report.summary(), loop=result.loop, report=report
            )
    return code
