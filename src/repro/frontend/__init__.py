"""repro.frontend — real source loops in, dependence graphs out.

The frontend closes the gap between source programs and the scheduler:

* :mod:`repro.frontend.parser` — the zero-dependency Python
  :mod:`ast` parser (:func:`parser_for` claims ``.py`` files and
  rejects every other suffix);
* :mod:`repro.frontend.analyze` — name classification plus an exact
  single-subscript memory dependence test;
* :mod:`repro.frontend.lower` — versioned-environment lowering to a
  scheduler-ready :class:`~repro.graph.ddg.DependenceGraph` with real
  loop-carried distances (copy chains included), live-ins, invariants
  and per-access :class:`~repro.graph.ddg.MemRef` streams;
* :mod:`repro.frontend.reference` / ``differential`` — direct source
  execution under the GF(2^61-1) simulation semantics and the
  three-link source→graph→emitted-code differential;
* :mod:`repro.frontend.corpus` — curated real kernels swept by tests,
  CI and the nightly benchmark.

Entry points: :func:`lower_source` here, ``repro schedule --source``
and ``repro frontend show|run`` on the command line, and
:func:`repro.eval.experiments.frontend_rows` for table-style sweeps.
"""

from __future__ import annotations

from pathlib import Path

from repro.frontend.analyze import (
    MemDep,
    NameRoles,
    classify_names,
    memory_dependences,
)
from repro.frontend.differential import (
    SourceDifferentialReport,
    live_in_hazards,
    run_source_differential,
)
from repro.frontend.ir import (
    Assign,
    BinOp,
    Call,
    Expr,
    Kernel,
    LoopInfo,
    Name,
    Num,
    Subscript,
)
from repro.frontend.lower import LoweredKernel, ScalarBinding, lower_kernel
from repro.frontend.parser import (
    DEFAULT_TRIP_COUNT,
    PythonAstParser,
    parse_source,
    parser_for,
)
from repro.frontend.reference import SourceInterpreter, run_source

__all__ = [
    "DEFAULT_TRIP_COUNT",
    "Assign",
    "BinOp",
    "Call",
    "Expr",
    "Kernel",
    "LoopInfo",
    "LoweredKernel",
    "MemDep",
    "Name",
    "NameRoles",
    "Num",
    "PythonAstParser",
    "ScalarBinding",
    "SourceDifferentialReport",
    "SourceInterpreter",
    "Subscript",
    "classify_names",
    "live_in_hazards",
    "lower_kernel",
    "lower_source",
    "memory_dependences",
    "parse_source",
    "parser_for",
    "run_source",
    "run_source_differential",
]


def lower_source(
    path: str | Path,
    *,
    kernel: str | None = None,
    default_trip_count: int = DEFAULT_TRIP_COUNT,
) -> list[LoweredKernel]:
    """Parse a source file and lower every (or one named) kernel."""
    return [
        lower_kernel(parsed)
        for parsed in parse_source(
            path, kernel=kernel, default_trip_count=default_trip_count
        )
    ]
