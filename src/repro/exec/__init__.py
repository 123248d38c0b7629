"""Suite-execution engine: parallel fan-out + on-disk result memoization.

The experiment drivers (``repro.eval.experiments``) schedule the same
(machine, params, loop) combinations over and over across tables and
figures; at paper scale (``REPRO_BENCH_LOOPS=1258``) re-scheduling them
sequentially dominates the cost of every run.  This package provides:

* :mod:`repro.exec.hashing` - stable, content-addressed cache keys for
  (graph, machine configuration, algorithm parameters, scheduler);
* :mod:`repro.exec.cache` - an on-disk :class:`ResultCache` memoizing
  :class:`~repro.core.result.ScheduleResult` objects by those keys.
  It is the one schedule cache: the scheduler core memoizes nothing,
  so ``SuiteExecutor(cache=False)`` reads and writes no schedule
  anywhere.  Differential reports are cached the same way, under
  :func:`~repro.exec.hashing.simulation_cache_key`;
* :mod:`repro.exec.engine` - the :class:`SuiteExecutor` that fans a
  workbench out over worker processes with deterministic result
  ordering, consulting the cache before scheduling anything;
* :mod:`repro.exec.workers` - the package's one process pool: keyed
  tasks on kill-safe private-pipe workers, shared by the suite fan-out
  and the speculative II race, where a dead worker fails its own key
  with a typed error instead of hanging the caller.

``jobs=1`` with the cache disabled reproduces the original sequential
code path bit for bit; everything else is a pure optimisation layer.
"""

from repro.exec.cache import ResultCache, default_cache_dir, resolve_cache
from repro.exec.engine import (
    ExecStats,
    SuiteExecutor,
    SuiteSummary,
    make_engine,
    resolve_jobs,
)
from repro.exec.hashing import (
    cache_key,
    result_fingerprint,
    simulation_cache_key,
    stable_hash,
)

__all__ = [
    "ExecStats",
    "ResultCache",
    "SuiteExecutor",
    "SuiteSummary",
    "cache_key",
    "default_cache_dir",
    "make_engine",
    "resolve_cache",
    "resolve_jobs",
    "result_fingerprint",
    "simulation_cache_key",
    "stable_hash",
]
