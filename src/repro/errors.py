"""Exception types used across the MIRS-C reproduction.

Every failure mode that a caller may reasonably want to catch has its own
exception class; all of them derive from :class:`ReproError` so that a
single ``except ReproError`` is enough to guard a whole scheduling run.

The module also owns the *optional-dependency gate*
(:func:`optional_import` / :func:`require_optional`): a lazy probe
that turns a missing optional package (z3) into a typed error with an
install hint.
"""

from __future__ import annotations

import importlib
from types import ModuleType


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ReproError):
    """A machine configuration is malformed or internally inconsistent."""


class GraphError(ReproError):
    """A dependence graph operation was invalid (unknown node, bad edge...)."""


class FrontendError(ReproError):
    """A source loop could not be parsed, analyzed or lowered.

    Raised by :mod:`repro.frontend` with a message naming the offending
    construct (and, where available, the kernel and source location), so
    corpus curation and CLI users see *why* a loop is outside the
    supported fragment rather than a downstream type error.
    """


class SchedulingError(ReproError):
    """The scheduler reached an internally inconsistent state."""


class WorkerDiedError(SchedulingError):
    """A worker process died before delivering its task's result.

    Raised by :mod:`repro.exec.workers` for the key of the dead worker
    (killed, out of memory, crashed in native code) instead of waiting
    forever for a result that cannot arrive.
    """


class ConvergenceError(SchedulingError):
    """A scheduler failed to find a valid schedule within its II budget.

    The paper's baseline algorithm [31] exhibits exactly this failure mode
    on register-constrained configurations (Table 2, column "Not Cnvr");
    MIRS-C itself is expected never to raise it because spilling always
    provides an escape hatch.

    Attributes:
        last_ii: the II of the *last attempt in search order* — under a
            jumping policy (geometric backfill probes descend) this is
            not the largest II probed.
        highest_ii: the largest II actually probed by the search.
        kind_histogram: ``{failure kind: count}`` over every executed
            attempt of the search that gave up (the
            ``AttemptOutcome.kind`` values), so the dominant failure
            mode is machine-readable without a tracer attached.
    """

    def __init__(
        self,
        message: str,
        last_ii: int | None = None,
        highest_ii: int | None = None,
        kind_histogram: dict[str, int] | None = None,
    ):
        super().__init__(message)
        self.last_ii = last_ii
        self.highest_ii = highest_ii if highest_ii is not None else last_ii
        self.kind_histogram = dict(kind_histogram or {})


class SimulationError(ReproError):
    """The execution simulator hit malformed code (an instruction read a
    register no instruction ever defines, a bundle fell outside the
    pipeline structure...): emitted code and schedule disagree."""


class CodegenError(ReproError, ValueError):
    """Code cannot be emitted for a schedule.

    Also a :class:`ValueError` for backward compatibility with callers
    that guarded :func:`repro.codegen.generate_code` before this class
    existed.

    Attributes:
        loop: name of the loop whose schedule was rejected.
        kind: machine-readable failure kind — ``"not-converged"`` (no
            schedule to emit) or ``"register-infeasible"`` (the
            allocation does not fit the machine's register files).
    """

    def __init__(self, message: str, *, loop: str, kind: str):
        super().__init__(message)
        self.loop = loop
        self.kind = kind


class CertificationError(ReproError):
    """Emitted code failed static certification.

    Raised by the ``REPRO_STATIC_CERTIFY=1`` sanitizer hook in
    :func:`repro.codegen.generate_code`; the full
    :class:`repro.analysis.CertifierReport` rides along.

    Attributes:
        loop: name of the certified loop.
        report: the rejecting :class:`~repro.analysis.CertifierReport`.
    """

    def __init__(self, message: str, *, loop: str, report: object = None):
        super().__init__(message)
        self.loop = loop
        self.report = report


class OptionalDependencyError(ReproError, ImportError):
    """An optional third-party dependency is not installed.

    Also an :class:`ImportError` so callers that probe features with the
    standard ``except ImportError`` idiom keep working.  The message
    always carries an install hint; the machine-readable pieces ride as
    attributes so CLI/report layers can render their own.

    Attributes:
        module: the top-level module name that failed to import.
        feature: human name of the gated feature (``"the z3 exact
            scheduling backend"``).
        hint: how to install the dependency (``"pip install z3-solver"``).
    """

    def __init__(self, module: str, *, feature: str, hint: str):
        super().__init__(
            f"{feature} needs the optional {module!r} package "
            f"({hint}); it is not installed"
        )
        self.module = module
        self.feature = feature
        self.hint = hint


# ----------------------------------------------------------------------
# The optional-dependency gate
# ----------------------------------------------------------------------


def optional_import(name: str) -> ModuleType | None:
    """Import an optional module, answering ``None`` when it is absent.

    The quiet probe half of the gate: availability predicates
    (``z3_available``) call this so asking
    "is the feature there?" never raises.
    """
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def require_optional(name: str, *, feature: str, hint: str) -> ModuleType:
    """Import an optional module or raise the typed, hinted error.

    The loud half of the gate, called lazily on first *use* of the
    feature (never at package import time): returns the module when
    present, raises :class:`OptionalDependencyError` naming the feature
    and the install command when absent.
    """
    module = optional_import(name)
    if module is None:
        raise OptionalDependencyError(name, feature=feature, hint=hint)
    return module
