"""Stable content hashing of scheduling inputs and outputs.

Cache keys must be reproducible across processes, Python versions and
machines, so everything is first lowered to a *canonical form* — plain
lists/dicts of scalars with deterministic ordering — and then hashed as
compact JSON.  ``hash()`` and ``pickle`` are both unsuitable here: the
former is salted per process (``PYTHONHASHSEED``) and the latter encodes
implementation details (memo indices, protocol framing) that can change
without the semantic content changing.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib

import repro
from repro.core.params import MirsParams
from repro.core.result import ScheduleResult
from repro.graph.ddg import DependenceGraph, MemRef
from repro.machine.config import MachineConfig

#: Bump whenever the canonical encoding (or the semantics of a cached
#: result) changes; old cache entries then simply stop matching.
CACHE_FORMAT_VERSION = 1


@functools.cache
def code_digest() -> str:
    """Digest of the installed ``repro`` sources.

    Folded into every cache key so a persistent cache (the benchmarks
    keep one across commits) can never serve results computed by an
    older version of the scheduler: edit any module and every key
    changes.  Deliberately coarse — hashing just the scheduling modules
    would be cheaper to invalidate but easy to under-scope.
    """
    package_root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def stable_hash(payload) -> str:
    """SHA-256 hex digest of a canonical (JSON-serializable) payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical_mem_ref(ref: MemRef | None) -> list | None:
    if ref is None:
        return None
    return [ref.array, ref.offset, ref.stride, ref.element_size]


def canonical_graph(graph: DependenceGraph) -> dict:
    """Canonical form of a dependence graph.

    Nodes are sorted by id and edges by (src, dst, kind, distance), so
    two graphs built through different insertion orders but describing
    the same loop hash identically.
    """
    nodes = [
        [
            node.id,
            node.kind.value,
            node.name,
            _canonical_mem_ref(node.mem_ref),
            node.latency_override,
            node.is_spill,
            node.spilled_value,
            node.move_of,
            node.move_of_invariant,
            node.load_of_invariant,
            node.src_cluster,
        ]
        for node in sorted(graph.nodes(), key=lambda n: n.id)
    ]
    edges = sorted(
        (
            [edge.src, edge.dst, edge.kind.value, edge.distance, edge.latency]
            for edge in graph.edges()
        ),
        key=lambda e: (e[0], e[1], e[2], e[3], -1 if e[4] is None else e[4]),
    )
    invariants = [
        [
            inv.id,
            inv.name,
            sorted(inv.consumers),
            _canonical_mem_ref(inv.mem_ref),
        ]
        for inv in sorted(graph.invariants(), key=lambda i: i.id)
    ]
    return {
        "name": graph.name,
        "trip_count": graph.trip_count,
        # Iteration-space provenance: two unrollings can produce the
        # same body and trip count from *different* source loops (e.g.
        # trips 10 and 12 both unroll by 3 into trip 4), and the
        # simulator's surplus-iteration reporting depends on the
        # difference — so it must split the cache key.
        "unroll": [graph.unroll_factor, graph.source_trip_count],
        "nodes": nodes,
        "edges": edges,
        "invariants": invariants,
    }


def cache_key(
    graph: DependenceGraph,
    machine: MachineConfig,
    params: MirsParams | None,
    scheduler: str,
) -> str:
    """The content-addressed cache key of one scheduling problem."""
    return stable_hash(
        {
            "version": CACHE_FORMAT_VERSION,
            "code": code_digest(),
            "scheduler": scheduler,
            "machine": machine.canonical(),
            "params": (params or MirsParams()).canonical(),
            "graph": canonical_graph(graph),
        }
    )


def simulation_cache_key(
    result: ScheduleResult,
    iterations: int,
    cache_config=None,
    technology=None,
) -> str:
    """Content-addressed key of one simulation problem.

    A :class:`repro.sim.result.SimulationResult` is fully determined by
    the schedule being executed (its fingerprint covers graph, times,
    clusters and machine), the requested trip count and the memory
    system, so those — plus the usual code digest — form the key.  The
    cache configuration and technology model are dataclasses; their
    field dicts are canonical enough once sorted by
    :func:`stable_hash`'s ``sort_keys``.
    """
    return stable_hash(
        {
            "version": CACHE_FORMAT_VERSION,
            "code": code_digest(),
            "kind": "simulation",
            "schedule": result_fingerprint(result),
            "iterations": iterations,
            "cache_config": (
                None if cache_config is None else dataclasses.asdict(cache_config)
            ),
            "technology": (
                None if technology is None else dataclasses.asdict(technology)
            ),
        }
    )


def result_fingerprint(result: ScheduleResult) -> str:
    """Digest of every deterministic field of a schedule result.

    Wall-clock timing (``scheduling_seconds``), the II-search trace
    (``stats.search_trace``) and the speculative-search accounting
    (``stats.search``) are excluded: they are diagnostic (they
    record *how* the II was found, not the schedule), and keeping them
    out lets the default :class:`~repro.core.search.LinearSearch`
    produce fingerprints bit-identical to the pre-policy scheduler's —
    and the speculative driver bit-identical to the serial one.  Two
    runs of the same deterministic scheduler agree on every included
    field, and the parallel-vs-sequential, cache-vs-fresh and
    speculative-vs-serial equivalence tests compare exactly this
    fingerprint.
    """
    stats = dataclasses.asdict(result.stats)
    stats.pop("search_trace", None)
    stats.pop("search", None)
    payload = {
        "loop": result.loop,
        "machine": result.machine.canonical(),
        "converged": result.converged,
        "ii": result.ii,
        "mii": result.mii,
        "times": sorted(result.times.items()),
        "clusters": sorted(result.clusters.items()),
        "register_usage": sorted(result.register_usage.items()),
        "max_live": sorted(result.max_live.items()),
        "memory_traffic": result.memory_traffic,
        "spill_operations": result.spill_operations,
        "move_operations": result.move_operations,
        "stage_count": result.stage_count,
        "restarts": result.restarts,
        "stats": stats,
        "trip_count": result.trip_count,
        "graph": None if result.graph is None else canonical_graph(result.graph),
    }
    return stable_hash(payload)
