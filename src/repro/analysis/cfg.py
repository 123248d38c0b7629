"""Bundle-level control flow over emitted software pipelines.

The code :func:`repro.codegen.generate_code` emits has exactly one
control-flow shape: a straight-line **prologue**, a **kernel** of
``II x MVE`` bundles with a back-edge from its last bundle to its first
(taken ``passes - 1`` times for ``passes >= 1``), and a straight-line
**epilogue**.  :class:`BundleCFG` materializes that shape and yields
*concrete* bundle sites - ``(section, index, cycle, block)`` tuples -
for any number of kernel passes, mirroring the cycle accounting of
:meth:`repro.sim.vliw.VliwSimulator.run`: the ``block`` (global
cycle block, ``cycle // II``) is what turns an instruction's stage into
the loop iteration it executes on behalf of (``iteration = block -
stage``).

The dataflow pass of :mod:`repro.analysis.certifier` walks these sites
with a symbolic register file; running the kernel body repeatedly until
the (shift-normalized) register state repeats is exactly the classic
reaching-definitions fixpoint over the back-edge, specialised to this
three-section CFG.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterator

from repro.codegen.emitter import GeneratedCode, Instruction

#: Sections of the emitted pipeline, in execution order.
PROLOGUE = "prologue"
KERNEL = "kernel"
EPILOGUE = "epilogue"


@dataclasses.dataclass(slots=True)
class BundleSite:
    """One concrete bundle execution.

    Attributes:
        section: ``prologue`` / ``kernel`` / ``epilogue``.
        index: bundle index within its section (stable across passes).
        cycle: concrete cycle of this execution (stall-free schedule).
        block: global cycle block (``cycle // II``); an instruction of
            stage *s* issuing here executes iteration ``block - s``.
        bundle: the instructions issuing in this cycle.
    """

    section: str
    index: int
    cycle: int
    block: int
    bundle: list[Instruction]


class BundleCFG:
    """The prologue -> kernel (back-edge) -> epilogue bundle graph."""

    def __init__(self, code: GeneratedCode):
        self.code = code
        self.ii = code.ii
        #: Cycle blocks filled by the prologue (SC - 1).
        self.fill_blocks = code.stage_count - 1
        #: Cycles of one whole kernel pass (II x MVE).
        self.kernel_cycles = code.ii * code.mve_factor

    def prologue_sites(self) -> Iterator[BundleSite]:
        for index, bundle in enumerate(self.code.prologue):
            yield BundleSite(
                section=PROLOGUE,
                index=index,
                cycle=index,
                block=index // self.ii,
                bundle=bundle,
            )

    def kernel_sites(self, kernel_pass: int) -> Iterator[BundleSite]:
        """The kernel body's sites on its ``kernel_pass``-th execution."""
        base_cycle = len(self.code.prologue) + kernel_pass * self.kernel_cycles
        base_block = self.fill_blocks + kernel_pass * self.code.mve_factor
        for index, bundle in enumerate(self.code.kernel):
            yield BundleSite(
                section=KERNEL,
                index=index,
                cycle=base_cycle + index,
                block=base_block + index // self.ii,
                bundle=bundle,
            )

    def epilogue_sites(self, passes: int) -> Iterator[BundleSite]:
        """The epilogue's sites after ``passes`` kernel executions."""
        base_cycle = len(self.code.prologue) + passes * self.kernel_cycles
        base_block = self.fill_blocks + passes * self.code.mve_factor
        for index, bundle in enumerate(self.code.epilogue):
            yield BundleSite(
                section=EPILOGUE,
                index=index,
                cycle=base_cycle + index,
                block=base_block + index // self.ii,
                bundle=bundle,
            )

    def linearized(self, passes: int) -> Iterator[BundleSite]:
        """A complete execution with ``passes`` kernel passes."""
        yield from self.prologue_sites()
        for kernel_pass in range(passes):
            yield from self.kernel_sites(kernel_pass)
        yield from self.epilogue_sites(passes)


#: Prefix of loop-invariant operands in emitted source lists.
INVARIANT_PREFIX = "inv:"


@functools.lru_cache(maxsize=4096)
def register_cluster(name: str) -> int | None:
    """The owning cluster encoded in a register name (``c1:r7.k2`` -> 1).

    Returns ``None`` for names that do not follow the emitter's
    ``c<cluster>:...`` convention (including invariant operands).
    The cache pays off because the dataflow walk re-parses the same
    few hundred names on every kernel pass of every certified loop.
    """
    if name.startswith(INVARIANT_PREFIX):
        return None
    head, sep, _ = name.partition(":")
    if not sep or not head.startswith("c"):
        return None
    try:
        return int(head[1:])
    except ValueError:
        return None


def split_sources(
    sources: tuple[str, ...],
) -> tuple[list[str], list[str]]:
    """Partition an instruction's sources into (registers, invariants)."""
    registers: list[str] = []
    invariants: list[str] = []
    for name in sources:
        if name.startswith(INVARIANT_PREFIX):
            invariants.append(name[len(INVARIANT_PREFIX):])
        else:
            registers.append(name)
    return registers, invariants
