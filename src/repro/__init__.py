"""repro - a reproduction of "Modulo Scheduling with Integrated Register
Spilling for Clustered VLIW Architectures" (Zalamea, Llosa, Ayguadé,
Valero; MICRO-34, 2001).

Public API tour
---------------

Machine model::

    from repro import parse_config, MachineConfig
    machine = parse_config("4-(GP2M1-REG32)", move_latency=1)

Loops::

    from repro import LoopBuilder
    b = LoopBuilder("axpy", trip_count=1000)
    x = b.load(array=0)
    y = b.load(array=1)
    a = b.invariant("a")
    b.store(b.add(b.mul(x, a), y), array=1)
    graph = b.build()

Scheduling::

    from repro import MirsC
    result = MirsC(machine).schedule(graph)
    print(result.summary())

Every setting has one home.  Algorithm parameters, the II-search policy
and the speculation width live in :class:`MirsParams`; suites run
through a :class:`ScheduleRequest` (scheduler, params, trace) on a
:class:`repro.exec.SuiteExecutor` (workers, result cache)::

    from repro import MirsParams, ScheduleRequest
    from repro.eval.runner import schedule_suite
    from repro.exec import SuiteExecutor
    from repro.workloads.perfect import cached_suite
    params = MirsParams(ii_search="geometric", speculation=2)
    run = schedule_suite(
        machine, cached_suite(4), ScheduleRequest(params=params),
        session=SuiteExecutor(jobs=2),
    )

Observability::

    from repro import MirsC, RecordingTracer
    tracer = RecordingTracer()
    MirsC(machine, tracer=tracer).schedule(graph)
    # or: REPRO_TRACE=trace.jsonl, or the CLI's --trace PATH
    from repro.obs.export import write_jsonl
    write_jsonl(tracer, "trace.jsonl")

The baseline of Sánchez & González [31] lives in
:class:`repro.NonIterativeScheduler`; the synthetic Perfect-Club-like
workload in :mod:`repro.workloads`; the memory-hierarchy simulator in
:mod:`repro.memsim`; experiment drivers for every table and figure in
:mod:`repro.eval`.
"""

from repro.analysis import (
    CertifierReport,
    CertifierViolation,
    ViolationKind,
    certify_code,
    certify_schedule,
)
from repro.baseline.noniterative import NonIterativeScheduler
from repro.codegen.emitter import GeneratedCode, generate_code
from repro.core.attempts import (
    AttemptResult,
    AttemptTask,
    SpeculativeSearchDriver,
)
from repro.core.mirsc import Mirs, MirsC
from repro.core.params import MirsParams
from repro.core.request import ScheduleRequest
from repro.core.result import ScheduleResult
from repro.core.search import (
    AttemptOutcome,
    GeometricPressureSearch,
    IISearchPolicy,
    LinearSearch,
    OutcomeKind,
)
from repro.core.verify import verify_schedule
from repro.errors import (
    CertificationError,
    CodegenError,
    ConfigError,
    ConvergenceError,
    GraphError,
    ReproError,
    SchedulingError,
)
from repro.graph.builder import LoopBuilder
from repro.graph.ddg import (
    DependenceGraph,
    DepKind,
    Edge,
    Invariant,
    MemRef,
    Node,
)
from repro.graph.mii import compute_mii, resource_mii
from repro.graph.recurrences import find_recurrences, recurrence_mii
from repro.machine.config import (
    ClusterConfig,
    MachineConfig,
    parse_config,
    paper_configuration,
    scalability_configuration,
)
from repro.machine.resources import OpKind
from repro.machine.technology import TechnologyModel
from repro.obs import (
    NullTracer,
    RecordingTracer,
    SearchStats,
    Tracer,
    resolve_tracer,
)
from repro.order.hrms import hrms_order

__version__ = "1.0.0"

__all__ = [
    "AttemptOutcome",
    "AttemptResult",
    "AttemptTask",
    "CertificationError",
    "CertifierReport",
    "CertifierViolation",
    "ClusterConfig",
    "CodegenError",
    "ConfigError",
    "ConvergenceError",
    "DependenceGraph",
    "GeometricPressureSearch",
    "IISearchPolicy",
    "LinearSearch",
    "OutcomeKind",
    "DepKind",
    "Edge",
    "GeneratedCode",
    "generate_code",
    "GraphError",
    "Invariant",
    "LoopBuilder",
    "MachineConfig",
    "MemRef",
    "Mirs",
    "MirsC",
    "MirsParams",
    "Node",
    "NonIterativeScheduler",
    "NullTracer",
    "OpKind",
    "RecordingTracer",
    "ReproError",
    "ScheduleRequest",
    "ScheduleResult",
    "SchedulingError",
    "SearchStats",
    "SpeculativeSearchDriver",
    "TechnologyModel",
    "Tracer",
    "ViolationKind",
    "certify_code",
    "certify_schedule",
    "resolve_tracer",
    "compute_mii",
    "find_recurrences",
    "hrms_order",
    "paper_configuration",
    "parse_config",
    "recurrence_mii",
    "resource_mii",
    "scalability_configuration",
    "verify_schedule",
    "__version__",
]
