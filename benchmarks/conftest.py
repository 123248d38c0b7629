"""Shared infrastructure for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper and registers
its rendered table here; a terminal-summary hook prints every table at
the end of the run (so ``pytest benchmarks/ --benchmark-only`` output
contains the actual experiment rows, not only the timings), and a copy is
written to ``benchmarks/results/<name>.txt``.

The benchmarks run through the suite-execution engine
(:mod:`repro.exec`): one session-scoped :class:`SuiteExecutor` serves
every driver, so identical (machine, params, loop) problems are
scheduled once and memoized on disk under ``benchmarks/.repro-cache``
(override with ``REPRO_CACHE_DIR``; disable with ``REPRO_NO_CACHE=1``).
``REPRO_JOBS=<n>`` shards the scheduling over ``n`` worker processes.
At the end of the session the executor's per-suite history is written to
``benchmarks/results/BENCH_suite.json`` — machine-readable II / traffic
/ timing totals that successive commits can diff for perf trajectory.

Subset size: the full paper-scale run uses all 1258 workbench loops; by
default the benchmarks use small, family-balanced subsets so the whole
suite completes in minutes.  Set ``REPRO_BENCH_LOOPS=<n>`` to scale up.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.env import env_flag, env_str
from repro.eval.runner import bench_loop_count
from repro.exec import ResultCache, SuiteExecutor

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DEFAULT_BENCH_CACHE = pathlib.Path(__file__).parent / ".repro-cache"

_tables: dict[str, str] = {}
_executor: SuiteExecutor | None = None


def _session_executor() -> SuiteExecutor:
    """The one executor shared by every benchmark in the session."""
    global _executor
    if _executor is None:
        if env_flag("REPRO_NO_CACHE"):
            cache: ResultCache | bool = False
        elif env_str("REPRO_CACHE_DIR"):
            cache = True  # honour the explicit directory
        else:
            cache = ResultCache(DEFAULT_BENCH_CACHE)
        _executor = SuiteExecutor(cache=cache)
    return _executor


@pytest.fixture
def executor() -> SuiteExecutor:
    """The session's shared suite executor (jobs/cache from the env)."""
    return _session_executor()


@pytest.fixture
def table_sink():
    """Callable fixture: benchmarks pass (name, rendered table text)."""

    def sink(name: str, text: str) -> None:
        _tables[name] = text
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return sink


def _write_suite_json() -> pathlib.Path | None:
    if _executor is None or not _executor.history:
        return None
    stats = _executor.stats
    payload = {
        # Drivers use different per-table subset sizes; the authoritative
        # per-run loop counts are in each suite entry.  This records only
        # the env override (null = driver defaults).
        "bench_loops_env": env_str("REPRO_BENCH_LOOPS"),
        "jobs": _executor.jobs,
        "totals": {
            "loops": stats.loops,
            "scheduled": stats.scheduled,
            "cache_hits": stats.cache_hits,
            "wall_seconds": round(stats.wall_seconds, 6),
            "sum_ii": sum(s.sum_ii for s in _executor.history),
            "sum_traffic": sum(s.sum_traffic for s in _executor.history),
            "scheduling_seconds": round(
                sum(s.scheduling_seconds for s in _executor.history), 6
            ),
        },
        "suites": [summary.as_dict() for summary in _executor.history],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_suite.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def pytest_terminal_summary(terminalreporter):
    suite_json = _write_suite_json()
    if not _tables and suite_json is None:
        return
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for name in sorted(_tables):
        terminalreporter.write_line("")
        terminalreporter.write_line(_tables[name])
    terminalreporter.write_line("")
    terminalreporter.write_line(
        "Tables saved under benchmarks/results/; the paper-vs-measured "
        "record is planned in ROADMAP.md's paper-fidelity item."
    )
    if _executor is not None and _executor.history:
        stats = _executor.stats
        terminalreporter.write_line(
            f"[exec] jobs={_executor.jobs} loops={stats.loops} "
            f"scheduled={stats.scheduled} cache_hits={stats.cache_hits} "
            f"hit_rate={stats.hit_rate:.0%}"
        )
    if suite_json is not None:
        terminalreporter.write_line(f"Suite totals saved to {suite_json}")


def loops_for(bench_default: int) -> int:
    """Benchmark subset size (REPRO_BENCH_LOOPS overrides)."""
    return bench_loop_count(bench_default)
