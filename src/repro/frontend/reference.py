"""Direct execution of *source* loops under the simulation semantics.

:class:`SourceInterpreter` runs the annotated IR of a lowered kernel
the way the source program would — statement by statement, iteration by
iteration, with a plain name→value environment and a byte-addressed
memory — but with every operation mapped into the exact GF(2^61−1)
semantics of :mod:`repro.sim.ops`.  That makes its end state directly
comparable, bit for bit, against

* the scalar reference interpretation of the lowered graph
  (:class:`repro.sim.reference.ReferenceInterpreter`), proving the
  frontend's dependence analysis and lowering faithful; and
* the cycle-accurate simulation of the emitted VLIW pipeline
  (:class:`repro.sim.vliw.VliwSimulator`), closing the loop from source
  text to scheduled, register-allocated, emitted code.

The only synthetic inputs are the ones the simulation already defines:
loop-invariant parameters take :func:`repro.sim.ops.invariant_value`,
untouched memory takes :func:`~repro.sim.ops.initial_memory`, and the
pre-loop values of loop-carried scalars take
:func:`~repro.sim.ops.initial_value` of the graph node that carries
them (a scalar whose end-of-body value is node ``t`` shifted ``k``
back starts the loop holding instance ``t @ -1-k``).  ``+``/``-`` both
map to the ADD class and operand order is erased, exactly as the
dependence graph does — the interpreter validates *dataflow*, not
floating-point arithmetic.
"""

from __future__ import annotations

from repro.errors import FrontendError
from repro.frontend.ir import (
    BinOp,
    Call,
    Expr,
    Name,
    Num,
    Subscript,
)
from repro.frontend.lower import LoweredKernel
from repro.machine.resources import OpKind
from repro.sim import ops
from repro.sim.reference import ReferenceRun

#: Binary operator -> its evaluator, resolved once.
_BINARY = {
    "+": ops.evaluator(OpKind.ADD),
    "-": ops.evaluator(OpKind.ADD),
    "*": ops.evaluator(OpKind.MUL),
    "/": ops.evaluator(OpKind.DIV),
}
_SQRT = ops.evaluator(OpKind.SQRT)
_STORE = ops.evaluator(OpKind.STORE)


class SourceInterpreter:
    """Executes a lowered kernel's source semantics (module docstring).

    Args:
        lowered: the kernel (with lowering annotations in place).
        live_in_moduli: per-node collapse of pre-loop scalar instances,
            with the same meaning as on
            :class:`repro.sim.reference.ReferenceInterpreter` — pass
            :func:`repro.sim.reference.live_in_moduli_of_code` of the
            emitted code when comparing against a simulated pipeline,
            or ``None`` against the plain reference interpreter.
    """

    def __init__(
        self,
        lowered: LoweredKernel,
        live_in_moduli: dict[int, int] | None = None,
    ):
        self.lowered = lowered
        self.live_in_moduli = live_in_moduli

    # ------------------------------------------------------------------

    def _live_in(self, node_id: int, iteration: int) -> int:
        if self.live_in_moduli is not None:
            modulus = self.live_in_moduli.get(node_id, 1)
            iteration = iteration % modulus - modulus
        return ops.initial_value(node_id, iteration)

    def _initial_env(self) -> dict[str, int]:
        """Pre-loop scalar environment.

        Entering iteration 0, each loop scalar holds its end-of-body
        value from (virtual) iteration -1: instance ``-1 - shift`` of
        its binding node, or its invariant's value.
        """
        env: dict[str, int] = {}
        for name, binding in self.lowered.scalars.items():
            if binding.invariant_id is not None:
                env[name] = ops.invariant_value(binding.invariant_id)
            else:
                assert binding.node_id is not None
                env[name] = self._live_in(binding.node_id, -1 - binding.shift)
        return env

    def _address(self, ref: Subscript, induction: int) -> int:
        array_id = self.lowered.arrays[ref.array]
        element = ref.coeff * induction + ref.offset
        return (array_id << 24) + element * 8

    # ------------------------------------------------------------------

    def run(self, iterations: int) -> ReferenceRun:
        """Execute the source loop for the given number of iterations."""
        return self.runs(iterations)[0]

    def runs(self, *counts: int) -> tuple[ReferenceRun, ...]:
        """End states after each trip count in ``counts``, in order,
        from one execution up to the largest of them."""
        if min(counts) < 1:
            raise ValueError("need at least one iteration")
        iterations = max(counts)
        kernel = self.lowered.kernel
        loop = kernel.loop
        env = self._initial_env()
        values: dict[tuple[int, int], int] = {}
        memory: dict[int, int] = {}

        def evaluate(expr: Expr, induction: int, iteration: int) -> int:
            if isinstance(expr, Num):
                if expr.invariant_id is None:
                    raise FrontendError(
                        f"{kernel.name}: literal {expr.value} was never "
                        "lowered"
                    )
                return ops.invariant_value(expr.invariant_id)
            if isinstance(expr, Name):
                if expr.invariant_id is not None:
                    return ops.invariant_value(expr.invariant_id)
                return env[expr.name]
            if isinstance(expr, Subscript):
                address = self._address(expr, induction)
                word = memory.get(address)
                if word is None:
                    word = ops.initial_memory(address)
                value = ops.load_value(word, [])
                assert expr.node_id is not None
                values[(expr.node_id, iteration)] = value
                return value
            if isinstance(expr, BinOp):
                left = evaluate(expr.left, induction, iteration)
                right = evaluate(expr.right, induction, iteration)
                value = _BINARY[expr.op]([left, right])
                assert expr.node_id is not None
                values[(expr.node_id, iteration)] = value
                return value
            if isinstance(expr, Call):
                operand = evaluate(expr.arg, induction, iteration)
                value = _SQRT([operand])
                assert expr.node_id is not None
                values[(expr.node_id, iteration)] = value
                return value
            raise FrontendError(
                f"{kernel.name}: cannot interpret {type(expr).__name__}"
            )

        ends: dict[int, ReferenceRun] = {}
        for iteration in range(iterations):
            induction = loop.induction_value(iteration)
            for stmt in kernel.body:
                value = evaluate(stmt.expr, induction, iteration)
                target = stmt.target
                if isinstance(target, Name):
                    env[target.name] = value
                else:
                    stored = _STORE([value])
                    assert target.node_id is not None
                    values[(target.node_id, iteration)] = stored
                    memory[self._address(target, induction)] = stored
            done = iteration + 1
            if done in counts and done < iterations:
                ends[done] = ReferenceRun(
                    loop=self.lowered.name,
                    iterations=done,
                    values=dict(values),
                    memory=dict(memory),
                )

        ends[iterations] = ReferenceRun(
            loop=self.lowered.name,
            iterations=iterations,
            values=values,
            memory=memory,
        )
        return tuple(ends[count] for count in counts)


def moduli_keep_live_ins(
    lowered: LoweredKernel, live_in_moduli: dict[int, int]
) -> bool:
    """Whether :class:`SourceInterpreter` runs the same with and without
    ``live_in_moduli``.

    A scalar bound to node ``t`` shifted ``k`` back enters the loop
    holding instance ``-1 - k``, which a modulus ``m`` maps to itself
    exactly when ``k < m``; pre-loop instances are read nowhere else.
    """
    return all(
        binding.node_id is None
        or binding.shift < live_in_moduli.get(binding.node_id, 1)
        for binding in lowered.scalars.values()
    )


def run_source(lowered: LoweredKernel, iterations: int) -> ReferenceRun:
    """One-shot convenience wrapper around :class:`SourceInterpreter`."""
    return SourceInterpreter(lowered).run(iterations)
