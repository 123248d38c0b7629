"""Suite-scale simulation, memoized.

Mirrors the cache side of :mod:`repro.exec.engine` for the execution
stage: every (schedule, trip count, memory system) problem is keyed by
:func:`repro.exec.hashing.simulation_cache_key` and probed against the
on-disk :class:`~repro.exec.cache.ResultCache`; misses run in process,
in order (a simulation costs a fraction of the scheduling that produced
its input).

Only the compact :class:`~repro.sim.result.SimulationResult` is cached
and returned — reruns that need the full end state (differential
validation, debugging) use :mod:`repro.sim.vliw` directly.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.result import ScheduleResult
from repro.exec.cache import ResultCache, resolve_cache
from repro.exec.hashing import simulation_cache_key
from repro.machine.technology import TechnologyModel
from repro.memsim.cache import CacheConfig
from repro.sim.result import SimulationResult
from repro.sim.vliw import VliwSimulator


def simulate_schedule(
    schedule: ScheduleResult,
    iterations: int,
    *,
    cache: ResultCache | bool | None = None,
    cache_config: CacheConfig | None = None,
    technology: TechnologyModel | None = None,
) -> SimulationResult:
    """Simulate one schedule, going through the result cache."""
    store = resolve_cache(cache)
    key = None
    if store is not None:
        key = simulation_cache_key(
            schedule, iterations, cache_config, technology
        )
        cached = store.get(key)
        if isinstance(cached, SimulationResult):
            return cached
    result = VliwSimulator(
        schedule, cache_config=cache_config, technology=technology
    ).run(iterations).result
    if store is not None and key is not None:
        store.put(key, result)
    return result


def _simulate_item(
    item: tuple[int, ScheduleResult, int, CacheConfig | None, TechnologyModel | None],
) -> tuple[int, SimulationResult]:
    position, schedule, iterations, cache_config, technology = item
    simulator = VliwSimulator(
        schedule, cache_config=cache_config, technology=technology
    )
    return position, simulator.run(iterations).result


def simulate_many(
    schedules: Sequence[ScheduleResult],
    iterations: int,
    *,
    cache: ResultCache | bool | None = None,
    cache_config: CacheConfig | None = None,
    technology: TechnologyModel | None = None,
) -> list[SimulationResult]:
    """Simulate a batch of schedules, in order.

    Callers pass converged results only (code generation refuses the
    rest); position ``i`` of the output simulates ``schedules[i]``.

    Args:
        schedules: converged schedule results (with graphs).
        iterations: trip count to simulate for each.
        cache: result-cache selector, as in
            :func:`repro.exec.cache.resolve_cache`.
        cache_config / technology: memory-system parameters.
    """
    store = resolve_cache(cache)
    results: dict[int, SimulationResult] = {}
    keys: dict[int, str] = {}
    if store is not None:
        for position, schedule in enumerate(schedules):
            keys[position] = simulation_cache_key(
                schedule, iterations, cache_config, technology
            )
            cached = store.get(keys[position])
            if isinstance(cached, SimulationResult):
                results[position] = cached

    produced = [
        _simulate_item(
            (position, schedule, iterations, cache_config, technology)
        )
        for position, schedule in enumerate(schedules)
        if position not in results
    ]
    for position, result in produced:
        results[position] = result
        if store is not None:
            store.put(keys[position], result)
    return [results[position] for position in range(len(schedules))]
