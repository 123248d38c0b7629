"""The paper's contribution: the MIRS-C scheduler and its support types."""

from repro.core.mirsc import Mirs, MirsC
from repro.core.params import MirsParams
from repro.core.priority import PriorityList
from repro.core.result import ScheduleResult
from repro.core.search import (
    AttemptOutcome,
    GeometricPressureSearch,
    IISearchPolicy,
    LinearSearch,
    OutcomeKind,
    POLICIES,
    make_policy,
)
from repro.core.state import SchedulerState, SchedulerStats
from repro.core.verify import verify_schedule

__all__ = [
    "AttemptOutcome",
    "GeometricPressureSearch",
    "IISearchPolicy",
    "LinearSearch",
    "Mirs",
    "MirsC",
    "MirsParams",
    "OutcomeKind",
    "POLICIES",
    "PriorityList",
    "ScheduleResult",
    "SchedulerState",
    "SchedulerStats",
    "make_policy",
    "verify_schedule",
]
