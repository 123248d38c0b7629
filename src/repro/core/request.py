"""One resolution path for *what* to schedule and *how* to execute it.

Historically every entry point grew its own keyword sprawl: the CLI,
:func:`repro.eval.runner.schedule_suite`, the seven experiment drivers
and :func:`repro.exec.engine.make_engine` each accepted some subset of
``scheduler=``, ``params=``, ``search=``, ``jobs=``, ``cache=`` and
``executor=``, folding them together in slightly different orders.  The
speculative II search (``speculation=``) would have been the seventh
such kwarg on every signature.

Two small dataclasses replace the sprawl:

* :class:`ScheduleRequest` — the *scheduling problem* side: which
  scheduler, with which parameters, searching IIs how and how wide.
  ``resolved_params()`` folds ``search``/``speculation`` into a single
  :class:`~repro.core.params.MirsParams`, so cache keys, worker
  processes and the CLI all agree on one canonical parameter set.
* :class:`SessionConfig` — the *execution session* side: worker count,
  result cache and progress callback, or a pre-built
  :class:`~repro.exec.engine.SuiteExecutor`.  ``make_executor()`` is
  memoized, so one session threaded through many driver calls keeps a
  single executor whose stats accumulate.

Every entry point takes ``request=``/``session=`` and resolves them with
:meth:`ScheduleRequest.coerce` / :meth:`SessionConfig.coerce`; the old
keywords are gone, so passing one is a plain :class:`TypeError`.
"""

from __future__ import annotations

import dataclasses

from repro.core.params import MirsParams
from repro.errors import ConfigError

@dataclasses.dataclass(frozen=True)
class ScheduleRequest:
    """What to schedule: scheduler, parameters, II search, speculation.

    ``search`` and ``speculation`` are conveniences layered over
    ``params`` (they fold into ``ii_search``/``speculation`` fields via
    :meth:`resolved_params`); specifying a field both ways is a
    :class:`~repro.errors.ConfigError` rather than a silent override.
    """

    scheduler: str = "mirsc"
    params: MirsParams | None = None
    #: II-search policy (registered name or policy instance); folded
    #: into ``params.ii_search`` by :meth:`resolved_params`.
    search: object | None = None
    #: Speculative II-search width K; folded into ``params.speculation``.
    speculation: int | None = None
    #: Structured-trace sink (see :func:`repro.obs.resolve_tracer`):
    #: a :class:`~repro.obs.Tracer`, ``True`` (process-global tracer),
    #: ``False`` (off) or ``None`` (follow ``REPRO_TRACE``).  Purely
    #: diagnostic: excluded from ``resolved_params()`` and therefore
    #: from every cache key, and never pickled to worker processes
    #: (the executor ships a plain ``True``/``False`` instead).
    trace: object = None

    @classmethod
    def coerce(cls, value) -> "ScheduleRequest":
        """Accept the shorthands callers naturally reach for.

        ``None`` → defaults; a string → scheduler name (the historical
        third positional of ``schedule_suite``); a
        :class:`~repro.core.params.MirsParams` → parameters for the
        default scheduler; a request passes through unchanged.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(scheduler=value)
        if isinstance(value, MirsParams):
            return cls(params=value)
        raise ConfigError(
            f"cannot interpret {value!r} as a ScheduleRequest "
            "(expected None, a scheduler name, MirsParams or a request)"
        )

    def resolved_params(self) -> MirsParams | None:
        """Fold ``search``/``speculation`` into one parameter set.

        Returns ``None`` when nothing was specified, preserving the
        ``params is None`` ≡ ``MirsParams()`` convention of the cache
        keys.
        """
        params = self.params
        if self.search is not None:
            existing = params is not None and params.ii_search != "linear"
            if existing and params.ii_search != self.search:
                raise ConfigError(
                    "ScheduleRequest: ii_search given both in params "
                    "and as search="
                )
            params = dataclasses.replace(
                params or MirsParams(), ii_search=self.search
            )
        if self.speculation is not None:
            if (
                params is not None
                and params.speculation is not None
                and params.speculation != self.speculation
            ):
                raise ConfigError(
                    "ScheduleRequest: speculation given both in params "
                    "and as speculation="
                )
            params = dataclasses.replace(
                params or MirsParams(), speculation=self.speculation
            )
        return params

    def make_scheduler(self, machine, *, verify: bool = True, strict: bool = True):
        """Instantiate the requested scheduler for one machine."""
        # Imported lazily: worker processes import this module before
        # they know which scheduler they will run, and the baseline
        # import is pointless for MIRS-C-only sessions.
        from repro.baseline.noniterative import NonIterativeScheduler
        from repro.core.mirsc import MirsC

        params = self.resolved_params()
        if self.scheduler == "mirsc":
            return MirsC(
                machine, params=params, verify=verify, strict=strict,
                tracer=self.trace,
            )
        if self.scheduler == "baseline":
            # The baseline has no attempt machinery worth tracing.
            return NonIterativeScheduler(machine, params=params)
        if self.scheduler == "smt":
            from repro.smt.scheduler import SmtScheduler

            return SmtScheduler(
                machine, params=params, verify=verify, strict=strict,
                tracer=self.trace,
            )
        raise ValueError(f"unknown scheduler {self.scheduler!r}")


@dataclasses.dataclass
class SessionConfig:
    """How to execute: workers, cache, progress — one executor per session.

    Mutable on purpose: :meth:`make_executor` memoizes the built
    :class:`~repro.exec.engine.SuiteExecutor` in ``executor``, so a
    session object threaded through several driver calls accumulates
    stats in a single place (exactly like passing one executor
    everywhere used to).
    """

    jobs: int | None = None
    cache: object = None
    progress: object = None
    executor: object = None

    @classmethod
    def coerce(cls, value) -> "SessionConfig":
        """Accept ``None``, a session, or a bare ``SuiteExecutor``."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        from repro.exec.engine import SuiteExecutor

        if isinstance(value, SuiteExecutor):
            return cls(executor=value)
        raise ConfigError(
            f"cannot interpret {value!r} as a SessionConfig "
            "(expected None, a SessionConfig or a SuiteExecutor)"
        )

    def make_executor(self):
        """The session's executor (built once, then reused)."""
        if self.executor is None:
            from repro.exec.engine import SuiteExecutor

            self.executor = SuiteExecutor(
                jobs=self.jobs, cache=self.cache, progress=self.progress
            )
        return self.executor
