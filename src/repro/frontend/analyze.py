"""Dependence analysis over the frontend IR.

Two analyses run between parsing and lowering:

* **Name classification** (:func:`classify_names`) sorts every name of
  a kernel into exactly one role — induction variable, array, loop
  scalar (assigned inside the body) or loop invariant (a kernel
  parameter read but never assigned) — and rejects kernels where one
  name plays two roles or reads a name that is neither.

* **Memory dependence analysis** (:func:`memory_dependences`) solves
  the single-subscript dependence equation for every pair of accesses
  to the same array.  With uniform strides the test is exact: accesses
  ``A`` (iteration ``j``) and ``B`` (iteration ``j + d``) touch the
  same word iff ``d = (offset_A - offset_B) / stride`` is a
  non-negative integer, giving loop-carried distances that feed RecMII
  directly (a prefix sum's ``a[i] = a[i] + a[i-1]`` yields the
  distance-1 flow arc that makes its recurrence real).  A stride of 0
  (a constant subscript) is exact too: equal offsets touch one word in
  every iteration, so the pair is ordered within an iteration and
  carried at distance 1, as in a reduction into memory
  (``a[0] = a[0] + b[i]``); different constant offsets never alias.
  Accesses with differing strides on one array are outside the exact
  fragment and rejected with :class:`~repro.errors.FrontendError`
  rather than approximated.

Scalar (register) dependences — including loop-carried recurrences
through copy chains like ``s2 = s1; s1 = t`` — are handled by the
versioned-environment walk in :mod:`repro.frontend.lower`, which needs
graph nodes to attach them to.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

from repro.errors import FrontendError
from repro.frontend.ir import (
    BinOp,
    Call,
    Expr,
    Kernel,
    Name,
    Subscript,
)


@dataclasses.dataclass(frozen=True)
class NameRoles:
    """Every name of a kernel, classified (see module docstring)."""

    induction: str
    arrays: tuple[str, ...]
    loop_scalars: tuple[str, ...]
    invariants: tuple[str, ...]

    def role_of(self, name: str) -> str:
        if name == self.induction:
            return "induction"
        if name in self.arrays:
            return "array"
        if name in self.loop_scalars:
            return "scalar"
        if name in self.invariants:
            return "invariant"
        raise FrontendError(f"unknown name {name!r}")


@dataclasses.dataclass(frozen=True)
class MemDep:
    """One memory dependence between two subscript references.

    ``dst`` at iteration ``j + distance`` must execute after ``src`` at
    iteration ``j``.  The references are the IR objects themselves;
    after lowering their ``node_id`` fields name the graph nodes.
    """

    src: Subscript
    dst: Subscript
    distance: int
    #: "flow" (write -> read), "anti" (read -> write) or
    #: "output" (write -> write).
    kind: str

    def describe(self) -> str:
        return (
            f"{self.kind} {self.src.array}[{self.src.coeff}i"
            f"{self.src.offset:+d}] -> {self.dst.array}[{self.dst.coeff}i"
            f"{self.dst.offset:+d}] distance={self.distance}"
        )


def walk_expr(expr: Expr) -> Iterator[Expr]:
    """Yield every node of an expression tree, root first."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, Call):
        yield from walk_expr(expr.arg)


def classify_names(kernel: Kernel) -> NameRoles:
    """Classify every name of the kernel (see module docstring)."""
    where = f"{kernel.source}:{kernel.name}"
    var = kernel.loop.var
    arrays: dict[str, None] = {}
    assigned: dict[str, None] = {}
    read: dict[str, None] = {}
    for stmt in kernel.body:
        for node in walk_expr(stmt.expr):
            if isinstance(node, Subscript):
                arrays.setdefault(node.array, None)
            elif isinstance(node, Name):
                read.setdefault(node.name, None)
        if isinstance(stmt.target, Subscript):
            arrays.setdefault(stmt.target.array, None)
        else:
            assigned.setdefault(stmt.target.name, None)

    if var in assigned:
        raise FrontendError(
            f"{where}: the induction variable {var!r} is assigned inside "
            "the loop body"
        )
    if var in read:
        raise FrontendError(
            f"{where}: the induction variable {var!r} is used as a value; "
            "the machine model has no iteration counter, only subscript "
            "uses are supported"
        )
    for name in arrays:
        if name in assigned or name in read:
            raise FrontendError(
                f"{where}: {name!r} is used both as an array and as a "
                "scalar"
            )
    if var in arrays:
        raise FrontendError(
            f"{where}: the induction variable {var!r} is subscripted"
        )
    symbolic = kernel.loop.symbolic_bound
    invariants = tuple(
        name for name in read if name not in assigned and name != symbolic
    )
    for name in invariants:
        if name not in kernel.params:
            raise FrontendError(
                f"{where}: {name!r} is read in the loop body but is "
                "neither a kernel parameter nor assigned in the body"
            )
    if symbolic is not None and (
        symbolic in assigned or symbolic in arrays or symbolic in read
    ):
        raise FrontendError(
            f"{where}: the loop bound {symbolic!r} is also used inside "
            "the loop body"
        )
    return NameRoles(
        induction=var,
        arrays=tuple(arrays),
        loop_scalars=tuple(assigned),
        invariants=invariants,
    )


@dataclasses.dataclass(frozen=True)
class _Access:
    stmt: int
    is_write: bool
    ref: Subscript


def _accesses(kernel: Kernel) -> list[_Access]:
    """Every array access in program order (reads of a statement before
    its write, mirroring evaluation order)."""
    out: list[_Access] = []
    for index, stmt in enumerate(kernel.body):
        for node in walk_expr(stmt.expr):
            if isinstance(node, Subscript):
                out.append(_Access(stmt=index, is_write=False, ref=node))
        if isinstance(stmt.target, Subscript):
            out.append(_Access(stmt=index, is_write=True, ref=stmt.target))
    return out


def memory_dependences(kernel: Kernel) -> list[MemDep]:
    """Exact memory dependences of the kernel (see module docstring).

    Distances are in *normalized* iterations (0, 1, 2, ... whatever the
    source loop's start/step), matching the iteration space the
    scheduler and simulator operate in.
    """
    where = f"{kernel.source}:{kernel.name}"
    step = kernel.loop.step
    accesses = _accesses(kernel)
    deps: list[MemDep] = []
    seen: set[tuple[int, int, int, str]] = set()
    for i, a in enumerate(accesses):
        for b in accesses[i + 1 :]:
            if a.ref.array != b.ref.array:
                continue
            if not a.is_write and not b.is_write:
                continue
            stride_a = a.ref.coeff * step
            stride_b = b.ref.coeff * step
            if stride_a != stride_b:
                raise FrontendError(
                    f"{where}: accesses to {a.ref.array!r} with different "
                    f"strides ({stride_a} vs {stride_b}); the exact "
                    "dependence test needs a uniform stride per array"
                )
            delta = a.ref.offset - b.ref.offset
            if stride_a == 0:
                if delta != 0:
                    continue  # two fixed words that never alias
                # One fixed word, touched by every iteration: program
                # order within an iteration, and b before the next
                # iteration's a (later iterations follow transitively).
                pairs = [(a, b, 0), (b, a, 1)]
            elif delta % stride_a != 0:
                continue  # the two streams never touch the same word
            else:
                d = delta // stride_a
                if d > 0:
                    pairs = [(a, b, d)]
                elif d < 0:
                    pairs = [(b, a, -d)]
                elif a.ref.node_id is not None and a.ref.node_id == b.ref.node_id:
                    continue  # one CSE-merged load
                else:
                    # Same address, same iteration: program order decides
                    # (a precedes b by construction of the access list).
                    pairs = [(a, b, 0)]
            for src, dst, distance in pairs:
                kind = (
                    "output"
                    if src.is_write and dst.is_write
                    else "flow"
                    if src.is_write
                    else "anti"
                )
                key = (id(src.ref), id(dst.ref), distance, kind)
                if key in seen:
                    continue
                seen.add(key)
                deps.append(
                    MemDep(src=src.ref, dst=dst.ref, distance=distance, kind=kind)
                )
    return deps
