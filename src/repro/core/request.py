"""One request object for *what* to schedule.

Every entry point — the CLI, :func:`repro.eval.runner.schedule_suite`,
the experiment drivers and :func:`repro.exec.engine.make_engine` —
takes ``request: ScheduleRequest | None``: which scheduler, with which
:class:`~repro.core.params.MirsParams`, traced where.  Each setting has
one home: the II-search policy is ``params.ii_search`` and the
speculation width is ``params.speculation``, so cache keys, worker
processes and the CLI all read one canonical parameter set.

*How* to execute (workers, result cache, progress) is the
:class:`~repro.exec.engine.SuiteExecutor`'s business; the suite drivers
take one as ``session=``.
"""

from __future__ import annotations

import dataclasses

from repro.core.params import MirsParams


@dataclasses.dataclass(frozen=True)
class ScheduleRequest:
    """What to schedule: scheduler, parameters and trace sink."""

    scheduler: str = "mirsc"
    #: Algorithm parameters, II-search policy and speculation width
    #: included; ``None`` means :class:`MirsParams` defaults.
    params: MirsParams | None = None
    #: Structured-trace sink (see :func:`repro.obs.resolve_tracer`):
    #: a :class:`~repro.obs.Tracer`, ``True`` (process-global tracer),
    #: ``False`` (off) or ``None`` (follow ``REPRO_TRACE``).  Purely
    #: diagnostic: never part of a cache key, and never pickled to
    #: worker processes (the executor ships a plain ``True``/``False``
    #: instead).
    trace: object = None

    def make_scheduler(self, machine, *, strict: bool = True):
        """Instantiate the requested scheduler for one machine."""
        # Imported lazily: worker processes import this module before
        # they know which scheduler they will run, and the baseline
        # import is pointless for MIRS-C-only sessions.
        from repro.baseline.noniterative import NonIterativeScheduler
        from repro.core.mirsc import MirsC

        params = self.params
        if self.scheduler == "mirsc":
            return MirsC(
                machine, params=params, strict=strict, tracer=self.trace
            )
        if self.scheduler == "baseline":
            # The baseline has no attempt machinery worth tracing.
            return NonIterativeScheduler(machine, params=params)
        if self.scheduler == "smt":
            from repro.smt.scheduler import SmtScheduler

            return SmtScheduler(
                machine, params=params, strict=strict, tracer=self.trace
            )
        raise ValueError(f"unknown scheduler {self.scheduler!r}")
