"""Operation and resource taxonomies for the clustered VLIW model.

The paper's evaluation (Section 4) uses a small, fixed operation
repertoire: fully-pipelined additions and multiplications (4 cycles),
unpipelined division (17 cycles) and square root (30 cycles), pipelined
memory accesses through dedicated load/store units, and pipelined
inter-cluster ``move`` operations taking ``lambda_m`` cycles.

Resources come in five classes:

* ``GP_FU``    - general purpose FP units, *x* per cluster,
* ``MEM_PORT`` - load/store ports, *y* per cluster,
* ``OUT_PORT`` - the single per-cluster port that sends moves,
* ``IN_PORT``  - the single per-cluster port that receives moves,
* ``BUS``      - the global buses of the inter-cluster network.
"""

from __future__ import annotations

import enum


class OpKind(enum.Enum):
    """The kind of a loop operation.

    The member value is the short mnemonic used in printed schedules.
    """

    ADD = "add"
    MUL = "mul"
    DIV = "div"
    SQRT = "sqrt"
    LOAD = "load"
    STORE = "store"
    MOVE = "move"

    @property
    def is_memory(self) -> bool:
        """True for operations that occupy a memory port."""
        return self in (OpKind.LOAD, OpKind.STORE)

    @property
    def is_compute(self) -> bool:
        """True for operations that occupy a general-purpose FU."""
        return self in (OpKind.ADD, OpKind.MUL, OpKind.DIV, OpKind.SQRT)

    @property
    def is_move(self) -> bool:
        """True for inter-cluster communication operations."""
        return self is OpKind.MOVE

    @property
    def produces_value(self) -> bool:
        """True if the operation defines a register value.

        Stores are the only operation kind in the repertoire that does
        not define a new register value.
        """
        return self is not OpKind.STORE


class ResourceClass(enum.Enum):
    """The classes of schedulable resources tracked by the MRT."""

    GP_FU = "gp"
    MEM_PORT = "mem"
    OUT_PORT = "out"
    IN_PORT = "in"
    BUS = "bus"

    @property
    def is_global(self) -> bool:
        """Buses belong to the interconnect, not to any single cluster."""
        return self is ResourceClass.BUS


#: Default operation latencies, straight from Section 4 of the paper.
#: Loads are given the cache *hit* latency for reads (2 cycles) and stores
#: the hit latency for writes (1 cycle); Section 4.3 overrides the load
#: latency per operation when binding prefetching is applied.
DEFAULT_LATENCIES: dict[OpKind, int] = {
    OpKind.ADD: 4,
    OpKind.MUL: 4,
    OpKind.DIV: 17,
    OpKind.SQRT: 30,
    OpKind.LOAD: 2,
    OpKind.STORE: 1,
    # MOVE latency is configuration dependent (lambda_m in {1, 3}); the
    # value here is only the fallback used when a MachineConfig is absent.
    OpKind.MOVE: 1,
}

#: Operations that are *not* fully pipelined occupy their functional unit
#: for their whole latency (Section 4: "All operations are fully pipelined
#: except for division and square root").
UNPIPELINED: frozenset[OpKind] = frozenset({OpKind.DIV, OpKind.SQRT})
