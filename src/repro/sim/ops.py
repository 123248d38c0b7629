"""Shared value semantics of the functional simulation.

The differential validation of :mod:`repro.sim` needs *two* independent
executions of one loop — the scalar reference interpretation of the
dependence graph and the bundle-by-bundle run of the emitted VLIW code —
to agree **bit for bit**.  Floating point is a poor carrier for that
(operand association differs between the two sides), so every operation
is given an exact integer semantics over the field GF(P) with
``P = 2**61 - 1``:

* ``add`` is a salted modular sum, ``mul`` a salted modular product;
* ``div``/``sqrt``/multi-operand ``load``/``store`` fold their operands
  through a salted polynomial hash — deterministic, collision-poor and
  cheap;
* operand *order* is erased — sums, products and minima ignore it and
  the hashed kinds sort their operands before folding: the dependence
  graph gives operations a multiset of operands, not a sequence, and
  the emitter stores sources as a sorted tuple.  :func:`evaluator`
  resolves a kind's semantics once, so hot loops call a plain function
  of the operands.

Live-in values (loop-carried dependences reaching before iteration 0),
loop invariants and untouched memory are likewise pure functions of
their identity, so both executions can materialize them independently
and still agree.  Nothing here aims at numeric realism — only at making
every dataflow mistake (wrong register copy, clobbered register, wrong
spill slot, reordered aliasing store) visible as a value mismatch.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from repro.machine.resources import OpKind

#: The Mersenne prime 2^61 - 1: products never collapse to zero and the
#: arithmetic stays within native machine words on 64-bit CPythons.
FIELD_PRIME = (1 << 61) - 1

_FOLD_MULTIPLIER = 1_099_511_628_211  # FNV-64 prime, coprime to FIELD_PRIME

#: Per-role salts keep structurally different computations from
#: colliding (e.g. ``add(x)`` vs ``move(x)`` vs ``x`` itself).
_SALTS = {
    OpKind.ADD: 0x1DA3_E1A9,
    OpKind.MUL: 0x2B7E_1516,
    OpKind.DIV: 0x3C6E_F372,
    OpKind.SQRT: 0x4D2C_6DFC,
    OpKind.LOAD: 0x5BE0_CD19,
    OpKind.STORE: 0x6A09_E667,
    OpKind.MOVE: 0x7C15_9D3B,
}
_LIVE_IN_SALT = 0x8F1B_BCDC
_INVARIANT_SALT = 0x9B05_688C
_MEMORY_SALT = 0xA54F_F53A

#: Operand values -> produced value (see :func:`evaluator`).
Evaluator = Callable[[Sequence[int]], int]


def fold(salt: int, values: Iterable[int]) -> int:
    """Salted polynomial hash of a value sequence over GF(P)."""
    h = salt % FIELD_PRIME
    for value in values:
        h = (h * _FOLD_MULTIPLIER + value + 1) % FIELD_PRIME
    return h


def _bind(kind: OpKind) -> Evaluator:
    """Resolve one kind's salt and semantics into a value function."""
    salt = _SALTS[kind]
    if kind is OpKind.ADD:
        def add(operands: Sequence[int]) -> int:
            return (salt + sum(operands)) % FIELD_PRIME

        return add
    if kind is OpKind.MUL:
        def mul(operands: Sequence[int]) -> int:
            product = salt
            for value in operands:
                product = (product * (value % FIELD_PRIME + 1)) % FIELD_PRIME
            return product

        return mul
    if kind is OpKind.MOVE:
        def move(operands: Sequence[int]) -> int:
            if operands:
                return min(operands) % FIELD_PRIME
            return fold(salt, ())

        return move
    if kind is OpKind.STORE:
        def store(operands: Sequence[int]) -> int:
            # The common single-operand store writes the operand
            # verbatim, which keeps memory dumps legible when debugging
            # mismatches.
            if len(operands) == 1:
                return operands[0] % FIELD_PRIME
            return fold(salt, sorted(operands))

        return store

    def hashed(operands: Sequence[int]) -> int:
        return fold(salt, sorted(operands))

    return hashed


_EVALUATORS = {kind: _bind(kind) for kind in _SALTS}


def evaluator(kind: OpKind) -> Evaluator:
    """The value function of one operation kind, resolved once.

    The returned function maps operand values to the produced value and
    treats them as a multiset: sums, products and minima are
    order-free, and the hashed kinds sort before folding.  Stores
    "produce" the value they write to memory.  Plain loads do not go
    through here — their value is the memory word — but loads with
    register operands combine them via :func:`load_value`.
    """
    return _EVALUATORS[kind]


def evaluate(kind: OpKind, operands: Sequence[int]) -> int:
    """The value produced by an operation from its operand values."""
    return evaluator(kind)(operands)


def load_value(memory_word: int, operands: list[int]) -> int:
    """The register value produced by a load.

    A plain load yields the memory word unchanged; the rare load with
    register operands (possible in hand-built and property-test graphs)
    folds them in so the operands still influence the result.
    """
    if not operands:
        return memory_word % FIELD_PRIME
    return fold(_SALTS[OpKind.LOAD], sorted(operands) + [memory_word])


# The identity values below are ``fold`` of one or two words, unrolled:
# each step of ``fold`` is ``h * M + value + 1`` (mod P), so the first
# step's ``salt * M`` is a constant.
_LIVE_IN_BASE = (_LIVE_IN_SALT % FIELD_PRIME) * _FOLD_MULTIPLIER + 1
_INVARIANT_BASE = (_INVARIANT_SALT % FIELD_PRIME) * _FOLD_MULTIPLIER + 1
_MEMORY_BASE = (_MEMORY_SALT % FIELD_PRIME) * _FOLD_MULTIPLIER + 1


def initial_value(node_id: int, iteration: int) -> int:
    """Live-in value of a loop-carried dependence.

    A consumer at iteration ``i`` reading distance ``d`` needs the
    producer's instance of iteration ``i - d``; for ``i - d < 0`` that
    instance predates the loop and is defined as a pure function of
    (producer, iteration) so both executions agree on it.  Equals
    ``fold(_LIVE_IN_SALT, [node_id, iteration & 0xFFFF_FFFF])``.
    """
    h = (_LIVE_IN_BASE + node_id) % FIELD_PRIME
    return (h * _FOLD_MULTIPLIER + (iteration & 0xFFFF_FFFF) + 1) % FIELD_PRIME


def invariant_value(invariant_id: int) -> int:
    """The (arbitrary but fixed) value of a loop invariant.

    Equals ``fold(_INVARIANT_SALT, [invariant_id])``.
    """
    return (_INVARIANT_BASE + invariant_id) % FIELD_PRIME


def initial_memory(address: int) -> int:
    """Contents of a memory word never written by the loop.

    Equals ``fold(_MEMORY_SALT, [address])``.
    """
    return (_MEMORY_BASE + address) % FIELD_PRIME
