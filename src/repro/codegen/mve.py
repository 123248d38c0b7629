"""Modulo variable expansion (MVE).

A value whose lifetime exceeds the initiation interval has several
simultaneously-live instances, one per overlapped iteration.  Without
rotating register files (which none of the paper's configurations have),
the kernel must be *unrolled* enough that each live instance can be given
its own architectural register - the classic modulo variable expansion of
Lam.  The minimum unroll factor is::

    K = max over values v of ceil(lifetime(v) / II)

Each kernel copy then renames every expanded value's register with the
copy index.  A value's lifetime runs from its definition to its last
use (or to the end of its producer's latency, when later): the
:class:`~repro.schedule.lifetimes.ValueLifetime` of the register
allocator, whose lengths every converged result carries.
"""

from __future__ import annotations

from repro.core.result import ScheduleResult
from repro.errors import CodegenError


def modulo_variable_expansion_factor(result: ScheduleResult) -> int:
    """The minimum kernel unroll factor K (1 when no value outlives II).

    Reads the lifetime lengths the scheduler stored on the result with
    its register allocation (:func:`repro.core.result.allocate`).

    Raises:
        CodegenError: (kind ``"not-converged"``) when the schedule has
            no placement to measure lifetimes on.
    """
    if not result.converged or result.graph is None:
        raise CodegenError(
            f"code generation needs a converged schedule; "
            f"loop {result.loop!r} did not converge",
            loop=result.loop,
            kind="not-converged",
        )
    ii = result.ii
    return max([1, *(-(-length // ii) for length in result.lifetimes.values())])
