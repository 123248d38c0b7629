"""Lowering: annotated frontend IR → scheduler-ready dependence graph.

The pass walks the loop body once with a *versioned scalar environment*
(classic SSA-style renaming restricted to straight-line code):

* every arithmetic expression node becomes a graph node of the matching
  :class:`~repro.machine.resources.OpKind` (``+``/``-`` → ADD-class,
  ``*`` → MUL, ``/`` → DIV, ``sqrt`` → SQRT);
* affine array reads become LOAD nodes carrying the exact
  :class:`~repro.graph.ddg.MemRef` address stream (common subexpression
  elimination merges identical reads until a store to the same array
  intervenes); array writes become STORE nodes;
* parameters and literals become loop :class:`Invariant` values;
* scalar copies (``s2 = s1``) create **no** node — the environment
  propagates the copied value reference instead.

Reads of a loop scalar before its assignment in the body are the loop's
recurrences.  They cannot be wired while walking (the producing node
may not exist yet), so the walk records *fixups* and resolves them at
the end against the final environment: a scalar whose end-of-body value
is node ``t`` shifted ``k`` iterations back reads as a REG edge from
``t`` with distance ``k + 1``.  Copy chains accumulate shift — in::

    t = s2*b + x[i]
    s2 = s1
    s1 = t

``s1`` resolves to ``(t, shift 0)`` and ``s2`` to ``(t, shift 1)``, so
the pre-assignment read of ``s2`` becomes a distance-**2** arc from
``t`` to itself — the arc that makes the kernel's RecMII
``ceil(latency / 2)`` instead of ``latency`` (asserted in the tests;
this is the "distances are analyzed, not defaulted" acceptance
criterion).

Memory dependences come from :func:`repro.frontend.analyze.memory_dependences`
and are attached as MEM edges with their analyzed distances.
"""

from __future__ import annotations

import dataclasses

from repro.errors import FrontendError
from repro.frontend.analyze import (
    MemDep,
    NameRoles,
    classify_names,
    memory_dependences,
)
from repro.frontend.ir import (
    Assign,
    BinOp,
    Call,
    Expr,
    Kernel,
    Name,
    Num,
    Subscript,
)
from repro.graph.ddg import DependenceGraph, DepKind, MemRef
from repro.machine.resources import OpKind

_OP_KINDS = {
    "+": OpKind.ADD,
    "-": OpKind.ADD,  # the machine's ADD class covers subtraction
    "*": OpKind.MUL,
    "/": OpKind.DIV,
}


@dataclasses.dataclass(frozen=True)
class _NodeRef:
    """Value produced by a graph node ``shift`` iterations back."""

    node_id: int
    shift: int = 0


@dataclasses.dataclass(frozen=True)
class _InvRef:
    """A loop-invariant value."""

    invariant_id: int


@dataclasses.dataclass(frozen=True)
class _PendingRef:
    """The end-of-previous-iteration value of a loop scalar (read
    before its assignment; wired by the fixup pass)."""

    name: str


_ValueRef = _NodeRef | _InvRef | _PendingRef


@dataclasses.dataclass(frozen=True)
class ScalarBinding:
    """Where a loop scalar's end-of-body value lives in the graph.

    Either ``node_id``/``shift`` (the value is node ``node_id``'s
    instance of ``shift`` iterations before the current one) or
    ``invariant_id`` (the scalar is a pure copy of an invariant).
    """

    name: str
    node_id: int | None
    shift: int
    invariant_id: int | None = None


@dataclasses.dataclass
class LoweredKernel:
    """A kernel plus everything lowering learned about it.

    The ``graph`` attribute makes a :class:`LoweredKernel` directly
    acceptable to :meth:`repro.exec.engine.SuiteExecutor.run` and
    :func:`repro.eval.runner.schedule_suite` (both take "anything with
    a ``.graph``"), so frontend kernels ride the exec cache for free.
    """

    kernel: Kernel
    roles: NameRoles
    graph: DependenceGraph
    #: array name -> array id used in every MemRef of the graph.
    arrays: dict[str, int]
    #: loop scalar name -> final-value binding.
    scalars: dict[str, ScalarBinding]
    #: invariant name (parameters and ``lit_*`` literals) -> invariant id.
    invariants: dict[str, int]
    mem_deps: list[MemDep]

    @property
    def name(self) -> str:
        return self.graph.name


class _Lowerer:
    def __init__(self, kernel: Kernel, graph_name: str | None):
        self.kernel = kernel
        self.where = f"{kernel.source}:{kernel.name}"
        self.roles = classify_names(kernel)
        self.graph = DependenceGraph(
            name=graph_name or kernel.name,
            trip_count=kernel.loop.trip_count,
        )
        self.arrays = {
            name: index + 1 for index, name in enumerate(self.roles.arrays)
        }
        self.invariants: dict[str, int] = {}
        self._literal_invariants: dict[float, int] = {}
        self._current: dict[str, _ValueRef] = {}
        self._fixups: list[tuple[int, str]] = []
        self._load_cache: dict[tuple[str, int, int], int] = {}

    # -- invariants -----------------------------------------------------

    def _invariant_for_name(self, name: str) -> int:
        if name not in self.invariants:
            inv = self.graph.new_invariant()
            inv.name = name
            self.invariants[name] = inv.id
        return self.invariants[name]

    def _invariant_for_literal(self, value: float) -> int:
        if value not in self._literal_invariants:
            inv = self.graph.new_invariant()
            inv.name = f"lit_{value:g}"
            self._literal_invariants[value] = inv.id
            self.invariants[inv.name] = inv.id
        return self._literal_invariants[value]

    # -- operand wiring -------------------------------------------------

    def _attach(self, consumer: int, ref: _ValueRef) -> None:
        if isinstance(ref, _NodeRef):
            self.graph.add_edge(
                ref.node_id, consumer, kind=DepKind.REG, distance=ref.shift
            )
        elif isinstance(ref, _InvRef):
            self.graph.invariant(ref.invariant_id).consumers.add(consumer)
        else:
            self._fixups.append((consumer, ref.name))

    # -- expressions ----------------------------------------------------

    def _mem_ref(self, ref: Subscript) -> MemRef:
        loop = self.kernel.loop
        return MemRef(
            array=self.arrays[ref.array],
            offset=ref.coeff * loop.start + ref.offset,
            stride=ref.coeff * loop.step,
        )

    def _lower_expr(self, expr: Expr) -> _ValueRef:
        if isinstance(expr, Num):
            inv_id = self._invariant_for_literal(expr.value)
            expr.invariant_id = inv_id
            return _InvRef(inv_id)
        if isinstance(expr, Name):
            role = self.roles.role_of(expr.name)
            if role == "invariant":
                inv_id = self._invariant_for_name(expr.name)
                expr.invariant_id = inv_id
                return _InvRef(inv_id)
            if role != "scalar":
                raise FrontendError(
                    f"{self.where}: {expr.name!r} ({role}) cannot be read "
                    "as a scalar value"
                )
            ref = self._current.get(expr.name)
            if ref is None:
                return _PendingRef(expr.name)
            if isinstance(ref, _PendingRef):
                return _PendingRef(ref.name)
            return ref
        if isinstance(expr, Subscript):
            key = (expr.array, expr.coeff, expr.offset)
            node_id = self._load_cache.get(key)
            if node_id is None:
                node = self.graph.new_node(
                    OpKind.LOAD,
                    name=f"ld_{expr.array}{expr.offset:+d}"
                    if expr.offset
                    else f"ld_{expr.array}",
                    mem_ref=self._mem_ref(expr),
                )
                node_id = node.id
                self._load_cache[key] = node_id
            expr.node_id = node_id
            return _NodeRef(node_id)
        if isinstance(expr, BinOp):
            left = self._lower_expr(expr.left)
            right = self._lower_expr(expr.right)
            kind = _OP_KINDS[expr.op]
            node = self.graph.new_node(kind, name=f"{kind.value}_{expr.op}")
            self._attach(node.id, left)
            self._attach(node.id, right)
            expr.node_id = node.id
            return _NodeRef(node.id)
        if isinstance(expr, Call):
            arg = self._lower_expr(expr.arg)
            node = self.graph.new_node(OpKind.SQRT, name="sqrt")
            self._attach(node.id, arg)
            expr.node_id = node.id
            return _NodeRef(node.id)
        raise FrontendError(
            f"{self.where}: cannot lower {type(expr).__name__}"
        )

    # -- statements -----------------------------------------------------

    def _lower_statement(self, stmt: Assign) -> None:
        ref = self._lower_expr(stmt.expr)
        target = stmt.target
        if isinstance(target, Name):
            # Copies create no node; the environment carries the value.
            self._current[target.name] = ref
            return
        store = self.graph.new_node(
            OpKind.STORE,
            name=f"st_{target.array}",
            mem_ref=self._mem_ref(target),
        )
        self._attach(store.id, ref)
        target.node_id = store.id
        # A store may overwrite words earlier loads were merged on.
        self._load_cache = {
            key: node_id
            for key, node_id in self._load_cache.items()
            if key[0] != target.array
        }

    # -- final resolution -----------------------------------------------

    def _resolve_final(
        self, name: str, visiting: tuple[str, ...] = ()
    ) -> _NodeRef | _InvRef:
        """What a scalar holds at the end of the body (shift-adjusted)."""
        if name in visiting:
            cycle = " -> ".join(visiting + (name,))
            raise FrontendError(
                f"{self.where}: scalar copy cycle {cycle} never computes "
                "a value"
            )
        ref = self._current.get(name)
        if ref is None:
            raise FrontendError(
                f"{self.where}: scalar {name!r} is read but never assigned"
            )
        if isinstance(ref, _PendingRef):
            # The copy captured the *previous* iteration's final value.
            resolved = self._resolve_final(ref.name, visiting + (name,))
            if isinstance(resolved, _InvRef):
                return resolved
            return _NodeRef(resolved.node_id, resolved.shift + 1)
        return ref

    def run(self) -> LoweredKernel:
        for stmt in self.kernel.body:
            self._lower_statement(stmt)
        if len(self.graph) == 0:
            # Only copies of literals/invariants: nothing to schedule.
            raise FrontendError(f"{self.where}: loop body has no effect")

        scalars: dict[str, ScalarBinding] = {}
        for name in self.roles.loop_scalars:
            resolved = self._resolve_final(name)
            if isinstance(resolved, _InvRef):
                scalars[name] = ScalarBinding(
                    name=name,
                    node_id=None,
                    shift=0,
                    invariant_id=resolved.invariant_id,
                )
            else:
                scalars[name] = ScalarBinding(
                    name=name, node_id=resolved.node_id, shift=resolved.shift
                )

        for consumer, name in self._fixups:
            binding = scalars[name]
            if binding.invariant_id is not None:
                self.graph.invariant(binding.invariant_id).consumers.add(
                    consumer
                )
            else:
                assert binding.node_id is not None
                self.graph.add_edge(
                    binding.node_id,
                    consumer,
                    kind=DepKind.REG,
                    distance=binding.shift + 1,
                )

        mem_deps = memory_dependences(self.kernel)
        wired: set[tuple[int, int, int]] = set()
        for dep in mem_deps:
            src_id, dst_id = dep.src.node_id, dep.dst.node_id
            if src_id is None or dst_id is None:
                raise FrontendError(
                    f"{self.where}: internal error - unlowered memory "
                    f"reference in dependence {dep.describe()}"
                )
            if src_id == dst_id:
                continue  # CSE-merged reads of one word
            key = (src_id, dst_id, dep.distance)
            if key in wired:
                continue
            wired.add(key)
            self.graph.add_edge(
                src_id, dst_id, kind=DepKind.MEM, distance=dep.distance
            )

        self.graph.validate()
        return LoweredKernel(
            kernel=self.kernel,
            roles=self.roles,
            graph=self.graph,
            arrays=self.arrays,
            scalars=scalars,
            invariants=self.invariants,
            mem_deps=mem_deps,
        )


def lower_kernel(kernel: Kernel, *, name: str | None = None) -> LoweredKernel:
    """Lower one parsed kernel to a scheduler-ready dependence graph."""
    return _Lowerer(kernel, name).run()
