"""Scheduler-throughput benchmark: wall-time and placements/sec.

Times end-to-end ``schedule_suite`` runs (fresh executor, **no cache** -
the point is to measure the engine, not the memo table) over two
populations:

* the 16-loop Perfect-Club-like workbench on both reference machines
  (always 16 loops, regardless of ``REPRO_BENCH_LOOPS``: the CI gate
  compares this number across commits, so the population must be fixed);
* the 100-400-node stress loops of :mod:`repro.workloads.stress`, the
  regime the incremental pressure engine (``repro.schedule.pressure``)
  was built for (loop count scales with ``REPRO_BENCH_LOOPS``) — run
  once per II-search policy (``linear``, the paper-exact default, and
  ``geometric``, the pressure-informed jump policy), with per-policy
  rows in the JSON.

Results land in ``benchmarks/results/BENCH_scheduler.json``.  A fixed
~90-node *calibration loop* is scheduled first and every wall-time is
also reported normalized by it, which makes the numbers comparable
across hosts of different speeds.  When the committed baseline
(``benchmarks/baselines/bench_scheduler_baseline.json``) is present:

* the run **fails** if the normalized workbench wall-time regressed more
  than ``REPRO_BENCH_TOLERANCE`` (default 0.25, i.e. 25 %) against it;
* the recorded pre-PR engine measurements are used to compute (and
  assert) the stress-suite speedup of the incremental engine;
* the ``ii_search`` section gates the policies: the linear stress run
  must stay within the tolerance of its recorded baseline, the
  geometric run must be >= 3x faster than the recorded *linear* wall,
  and geometric must converge wherever linear does with the same II
  (its documented bound) in no more attempts.

A ``speculation`` phase schedules ``stress1`` (one feasible II far above
MII - the speculative driver's best case) serially and with ``K=4``
candidate IIs racing over per-attempt worker processes.  It always
asserts the two schedules are fingerprint-identical with the same II
and that the K=4 run provably cancelled its losers (executed attempts
< serial attempts + K); under ``REPRO_BENCH_REQUIRE_BASELINE`` (the CI
gate) the K=4 run must additionally be >= 2x faster wall-clock than
the serial one when the host has at least 4 cores (on narrower hosts
parallel speedup is physically capped, so only near-parity overhead is
gated) - both runs happen back-to-back in this process, so the ratio
needs no calibration or committed reference.

An ``observability`` phase gates the ``repro.obs`` tracer's
tracing-*off* cost below 2% of scheduling wall-time.  The gate is
analytic, not differential: one workbench run is made with a counting
tracer whose ``enabled`` property tallies every touchpoint while still
answering ``False`` (control flow identical to the shipped
``NULL_TRACER`` path), a microbenchmark prices one disabled
touchpoint, and touchpoints x price must stay under 2% of that run's
wall - far more stable on a noisy single-core CI host than timing two
whole runs and subtracting.  A second run with a ``RecordingTracer``
must then reproduce the first run's fingerprints bit for bit.

A third phase instruments the drained-regime **register allocator**: an
extra stress run replays every incremental
:class:`~repro.schedule.colouring.IncrementalArcColouring` query against
the batch ``allocate_registers`` oracle, side by side and call for
call.  It fails on *any* ``registers_used`` mismatch between the two
engines, or when the incremental path's per-call allocation time is
less than 2x faster than batch over the whole run (the two walls are
measured in the same process on the same calls, so no baseline or
calibration is involved).  Per-loop rows also record ``registers_used``
(summed over clusters), giving the nightly paper-scale run its register
trajectory next to placements/sec.

A ``certifier`` phase prices the static code certifier
(:mod:`repro.analysis`) against the dynamic oracle of equivalent
coverage: every workbench loop is scheduled on both reference machines,
its emitted pipeline is certified, and the same schedules are then put
through ``run_differential`` at each loop's **declared trip count** in
the same process.  The certifier's fixpoint proves legality for every
iteration of the loop, so the dynamic check of equal strength executes
the loop in full - a short smoke simulation would prove strictly less.
The gate requires **zero** violations over the whole workbench and a
certify wall under 5% of the differential wall - both sides are timed
back to back on the same host, so the ratio needs no calibration or
committed baseline.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from conftest import RESULTS_DIR, loops_for

from repro import LoopBuilder, MirsParams, ScheduleRequest
from repro.core.mirsc import MirsC
from repro.obs import NULL_TRACER, RecordingTracer, Tracer
from repro.eval.reporting import render_table
from repro.eval.runner import schedule_suite
from repro.env import env_flag, env_str
from repro.exec import SuiteExecutor, result_fingerprint
from repro.machine.config import parse_config
from repro.workloads.perfect import cached_suite
from repro.workloads.stress import stress_suite

BASELINE_PATH = (
    pathlib.Path(__file__).parent / "baselines" / "bench_scheduler_baseline.json"
)

#: Machines the workbench phase runs on (the paper's reference configs).
WORKBENCH_MACHINES = ("1-(GP8M4-REG64)", "4-(GP2M1-REG32)")
#: Machine the stress phase runs on.
STRESS_MACHINE = "1-(GP8M4-REG64)"
#: II-search policies the stress phase measures (one run each).
STRESS_POLICIES = ("linear", "geometric")
#: The workbench phase is always the full 16-loop subset (see above).
WORKBENCH_COUNT = 16
#: The certify wall must stay under this fraction of the differential
#: wall (the acceptance bound of the static-certifier PR).
CERTIFY_WALL_FRACTION = 0.05


def calibration_graph():
    """A fixed ~90-node loop used to normalize wall-times across hosts.

    Hand-built (not generated) so it cannot drift when the synthetic
    workload generator changes.
    """
    b = LoopBuilder("calibration", trip_count=128)
    for j in range(12):
        node = b.load(array=j)
        for _ in range(5):
            node = b.add(node)
        b.store(node, array=100 + j)
    acc = b.add(b.load(array=50))
    b.loop_carried(acc, acc, distance=2)
    b.store(acc, array=51)
    return b.build()


def measure_calibration(rounds: int = 5) -> float:
    """Best-of-N wall seconds scheduling the calibration loop.

    The loop is scheduled on both workbench machines per round, so the
    calibration tracks the unified/clustered mix of the gated wall-time
    (and is long enough - tens of ms - that timer noise stays well under
    the regression tolerance).
    """
    machines = [parse_config(name) for name in WORKBENCH_MACHINES]
    graph = calibration_graph()
    best = None
    for _ in range(rounds):
        started = time.perf_counter()
        for machine in machines:
            MirsC(machine).schedule(graph)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _run_suite(machine_name: str, loops, search: str = "linear") -> dict:
    """One timed, cache-free, sequential schedule_suite run."""
    machine = parse_config(machine_name)
    session = SuiteExecutor(jobs=1, cache=False)
    request = ScheduleRequest(params=MirsParams(ii_search=search))
    started = time.perf_counter()
    run = schedule_suite(machine, loops, request, session=session)
    wall = time.perf_counter() - started
    placements = sum(r.stats.nodes_scheduled for r in run.results)
    return {
        "machine": machine_name,
        "loops": len(run.results),
        "converged": len(run.converged),
        "sum_ii": run.sum_ii(),
        "wall_seconds": round(wall, 3),
        "scheduling_seconds": round(run.sum_scheduling_seconds(), 3),
        "placements": placements,
        "placements_per_sec": round(placements / wall, 1) if wall else 0.0,
        "per_loop": {
            r.loop: {
                "seconds": round(r.scheduling_seconds, 3),
                "ii": r.ii,
                "converged": r.converged,
                "attempts": len(r.stats.search_trace),
                "registers_used": sum(r.register_usage.values()),
            }
            for r in run.results
        },
    }


def _baseline_policy_norm(
    section: dict, policy: str, stress_count: int
) -> float | None:
    """Baseline normalized stress wall of one policy over the prefix.

    Stress suites are prefixes of one deterministic stream; per-loop
    seconds let every subset size (CI uses ``REPRO_BENCH_LOOPS``)
    compare against the same baseline.
    """
    entry = section.get(policy)
    if entry is None:
        return None
    per_loop = entry.get("per_loop_seconds", {})
    names = [f"stress{i}" for i in range(stress_count)]
    if not all(name in per_loop for name in names):
        return None
    return sum(per_loop[name] for name in names) / section[
        "calibration_seconds"
    ]


def _gate_policies(
    section: dict | None,
    policy_entries: dict[str, dict],
    stress_count: int,
    *,
    tolerance: float,
    payload: dict,
) -> list[str]:
    """The II-search policy gates (see module docstring)."""
    failures: list[str] = []
    linear = policy_entries["linear"]
    geometric = policy_entries["geometric"]

    # Always-on invariants: the geometric policy must converge wherever
    # linear does, to the same II (its documented bound on the stress
    # seeds), in no more attempts.
    for name, lin in linear["per_loop"].items():
        geo = geometric["per_loop"][name]
        if geo["converged"] != lin["converged"]:
            failures.append(
                f"{name}: geometric converged={geo['converged']} but "
                f"linear converged={lin['converged']}"
            )
        elif lin["converged"] and geo["ii"] != lin["ii"]:
            failures.append(
                f"{name}: geometric II {geo['ii']} != linear II {lin['ii']}"
            )
        if geo["attempts"] > lin["attempts"]:
            failures.append(
                f"{name}: geometric took {geo['attempts']} attempts vs "
                f"linear's {lin['attempts']}"
            )

    if section is None:
        return failures
    base_lin = _baseline_policy_norm(section, "linear", stress_count)
    if base_lin is not None:
        lin_norm = linear["normalized_wall"]
        regression = lin_norm / base_lin - 1.0
        payload["stress"]["linear_regression_vs_baseline"] = round(
            regression, 3
        )
        if regression > tolerance:
            failures.append(
                f"linear-policy stress wall regressed {regression:.0%} "
                f"against the committed baseline (normalized {lin_norm} "
                f"vs {base_lin:.1f}, tolerance {tolerance:.0%})"
            )
        geo_speedup = base_lin / geometric["normalized_wall"]
        payload["stress"]["geometric_speedup_vs_baseline_linear"] = round(
            geo_speedup, 1
        )
        if geo_speedup < 3.0:
            failures.append(
                f"geometric stress speedup vs the committed linear "
                f"baseline fell below 3x (measured {geo_speedup:.2f}x)"
            )
    return failures


def _measure_allocator(stress_loops) -> dict:
    """Drained-regime allocation timing: incremental vs batch.

    One extra (sequential, cache-free) stress run with every
    ``IncrementalArcColouring.registers_used`` call wrapped: the
    incremental answer is timed per call, and the batch oracle
    (``allocate_registers`` over the live tracker - the pre-engine code
    path) is timed **once per mutation epoch** - the pre-engine spill
    check computed one all-cluster allocation per round and served
    every cluster from it, so charging batch per *query* would inflate
    its wall by the cluster count.  Each oracle run compares
    ``registers_used`` of every cluster.  Returns accumulated walls,
    call/oracle counts and any mismatches (the CI gate requires none,
    and >= 2x aggregate speedup).
    """
    from repro.schedule import colouring as colouring_mod
    from repro.schedule.regalloc import allocate_registers

    stats = {
        "calls": 0,
        "oracle_runs": 0,
        "incremental_seconds": 0.0,
        "batch_seconds": 0.0,
        "mismatches": [],
    }
    original = colouring_mod.IncrementalArcColouring.registers_used

    def instrumented(self, cluster):
        started = time.perf_counter()
        used = original(self, cluster)
        stats["incremental_seconds"] += time.perf_counter() - started
        stats["calls"] += 1
        epoch = self.events_seen
        if getattr(self, "_bench_oracle_epoch", None) != epoch:
            self._bench_oracle_epoch = epoch
            started = time.perf_counter()
            batch = allocate_registers(
                self.graph,
                self.schedule,
                self.machine,
                self.tracker,
                spilled_invariants=self.tracker.spilled_invariants,
            )
            stats["batch_seconds"] += time.perf_counter() - started
            stats["oracle_runs"] += 1
            for check_cluster, allocation in batch.items():
                got = (
                    used
                    if check_cluster == cluster
                    else original(self, check_cluster)
                )
                if allocation.registers_used != got:
                    stats["mismatches"].append(
                        {
                            "loop": self.graph.name,
                            "cluster": check_cluster,
                            "incremental": got,
                            "batch": allocation.registers_used,
                        }
                    )
        return used

    colouring_mod.IncrementalArcColouring.registers_used = instrumented
    try:
        # Two populations: the stress loops (few, huge drained-regime
        # problems - each batch replay walks hundreds of lifetimes) and
        # the clustered workbench (many spill-heavy loops whose final
        # regime queries the allocator every round), so the gate's call
        # sample stays large even under the CI subset size.
        session = SuiteExecutor(jobs=1, cache=False)
        schedule_suite(
            parse_config(STRESS_MACHINE),
            stress_loops,
            ScheduleRequest(params=MirsParams(ii_search="geometric")),
            session=session,
        )
        schedule_suite(
            parse_config("4-(GP2M1-REG32)"),
            cached_suite(WORKBENCH_COUNT),
            session=session,
        )
    finally:
        colouring_mod.IncrementalArcColouring.registers_used = original
    stats["incremental_seconds"] = round(stats["incremental_seconds"], 4)
    stats["batch_seconds"] = round(stats["batch_seconds"], 4)
    stats["speedup"] = (
        round(stats["batch_seconds"] / stats["incremental_seconds"], 1)
        if stats["incremental_seconds"]
        else None
    )
    return stats


def _measure_certifier(workbench_loops) -> dict:
    """Static certification vs dynamic differential, same schedules.

    Every workbench loop is scheduled on both reference machines and
    its emitted code certified; the identical schedules then run
    through ``run_differential`` at the loop's declared trip count
    (cache off - the point is to price the execution the certifier
    displaces, not the memo table).  Both walls are measured back to
    back in this process, so the <5% bound needs no calibration.
    Scheduling and codegen are deliberately *outside* both timed
    regions: they are common to either checking strategy.
    """
    from repro.analysis import certify_code
    from repro.codegen import generate_code
    from repro.sim.differential import run_differential

    section: dict = {
        "machines": [],
        "loops": 0,
        "violations": 0,
        "mismatches": 0,
        "certify_seconds": 0.0,
        "differential_seconds": 0.0,
        "violation_kinds": {},
    }
    for machine_name in WORKBENCH_MACHINES:
        run = schedule_suite(
            parse_config(machine_name),
            workbench_loops,
            session=SuiteExecutor(jobs=1, cache=False),
        )
        emitted = [
            (result, generate_code(result)) for result in run.converged
        ]

        started = time.perf_counter()
        reports = [
            certify_code(code, result) for result, code in emitted
        ]
        certify_wall = time.perf_counter() - started

        started = time.perf_counter()
        diff_reports = [
            run_differential(result, result.graph.trip_count, cache=False)
            for result, _ in emitted
        ]
        diff_wall = time.perf_counter() - started

        violations = sum(len(r.violations) for r in reports)
        kinds: dict[str, int] = {}
        for report in reports:
            for kind, count in report.kind_histogram().items():
                kinds[kind] = kinds.get(kind, 0) + count
        entry = {
            "machine": machine_name,
            "loops": len(emitted),
            "converged": len(run.converged),
            "scheduled": len(run.results),
            "bundles": sum(r.bundles_checked for r in reports),
            "reads": sum(r.reads_checked for r in reports),
            "violations": violations,
            "mismatches": sum(1 for d in diff_reports if not d.match),
            "certify_seconds": round(certify_wall, 4),
            "differential_seconds": round(diff_wall, 4),
        }
        section["machines"].append(entry)
        section["loops"] += entry["loops"]
        section["violations"] += violations
        section["mismatches"] += entry["mismatches"]
        section["certify_seconds"] += certify_wall
        section["differential_seconds"] += diff_wall
        for kind, count in kinds.items():
            section["violation_kinds"][kind] = (
                section["violation_kinds"].get(kind, 0) + count
            )
    section["certify_seconds"] = round(section["certify_seconds"], 4)
    section["differential_seconds"] = round(
        section["differential_seconds"], 4
    )
    section["wall_fraction"] = (
        round(
            section["certify_seconds"] / section["differential_seconds"], 4
        )
        if section["differential_seconds"]
        else None
    )
    return section


def _gate_certifier(section: dict) -> list[str]:
    """The static-certifier gates (see ``_measure_certifier``)."""
    failures: list[str] = []
    if section["loops"] == 0:
        failures.append("certifier phase saw no emitted loops")
    for entry in section["machines"]:
        if entry["converged"] != entry["scheduled"]:
            failures.append(
                f"{entry['machine']}: only {entry['converged']} of "
                f"{entry['scheduled']} workbench loops converged"
            )
    if section["violations"]:
        failures.append(
            f"static certifier reported {section['violations']} "
            f"violation(s) on the clean workbench "
            f"(kinds: {section['violation_kinds']})"
        )
    if section["mismatches"]:
        failures.append(
            f"differential oracle disagreed on {section['mismatches']} "
            f"workbench loop(s) the certifier passed"
        )
    fraction = section["wall_fraction"]
    if fraction is None or fraction >= CERTIFY_WALL_FRACTION:
        failures.append(
            f"certify wall {section['certify_seconds']}s is not under "
            f"{CERTIFY_WALL_FRACTION:.0%} of the differential wall "
            f"{section['differential_seconds']}s "
            f"(measured {fraction if fraction is None else f'{fraction:.2%}'})"
        )
    return failures


def _measure_speculation(stress_loops) -> dict:
    """Speculative II search: stress1 scheduled serially and at K=4.

    ``stress1`` is the speculative driver's best case: exactly one
    feasible II far above MII, so the serial linear ladder pays for a
    long chain of failing attempts one at a time while the speculative
    driver races four of them concurrently.  Both runs go through
    :class:`~repro.core.mirsc.MirsC` directly (fresh engine, no cache);
    the committed schedules must be fingerprint-identical, and the K=4
    run must provably cancel its losers (executed attempts stay under
    the serial attempt count plus the frontier width).
    """
    graph = stress_loops[1]
    machine = parse_config(STRESS_MACHINE)
    entries: dict[int, dict] = {}
    for width in (1, 4):
        engine = MirsC(
            machine, params=MirsParams(speculation=width), strict=False
        )
        started = time.perf_counter()
        result = engine.schedule(graph.clone())
        wall = time.perf_counter() - started
        entries[width] = {
            "wall_seconds": round(wall, 3),
            "ii": result.ii,
            "converged": result.converged,
            "fingerprint": result_fingerprint(result),
            "attempts": len(result.stats.search_trace),
            "search": (
                result.stats.search.as_dict() if result.stats.search else {}
            ),
        }
    k1, k4 = entries[1], entries[4]
    return {
        "loop": graph.name,
        "machine": STRESS_MACHINE,
        "width": 4,
        # Racing K attempts needs K cores to pay off; the gate adapts.
        "cpus": os.cpu_count() or 1,
        "k1": k1,
        "k4": k4,
        # Same-host, same-process ratio: no calibration needed.
        "speedup": (
            round(k1["wall_seconds"] / k4["wall_seconds"], 2)
            if k4["wall_seconds"]
            else None
        ),
    }


def _gate_speculation(
    section: dict, baseline_section: dict | None = None
) -> list[str]:
    """The speculative-search gates (see ``_measure_speculation``)."""
    failures: list[str] = []
    k1, k4 = section["k1"], section["k4"]
    if k4["fingerprint"] != k1["fingerprint"]:
        failures.append(
            f"speculative (K=4) schedule of {section['loop']} is not "
            f"fingerprint-identical to the serial one"
        )
    if k4["ii"] != k1["ii"] or k4["converged"] != k1["converged"]:
        failures.append(
            f"speculative (K=4) II/convergence "
            f"({k4['ii']}/{k4['converged']}) differs from serial "
            f"({k1['ii']}/{k1['converged']})"
        )
    executed = k4["search"].get("executed_attempts")
    serial_attempts = k1["attempts"]
    if executed is None or executed >= serial_attempts + section["width"]:
        failures.append(
            f"speculative losers not provably cancelled: executed "
            f"{executed} attempts vs serial {serial_attempts} + "
            f"K={section['width']} bound"
        )
    # Stress loops are a deterministic stream and the fingerprint is
    # host-independent, so the committed baseline pins the schedule
    # itself across commits (not just this process's K=1 vs K=4 pair).
    if baseline_section is not None and (
        baseline_section.get("loop") == section["loop"]
        and baseline_section.get("machine") == section["machine"]
    ):
        if k1["fingerprint"] != baseline_section.get("fingerprint"):
            failures.append(
                f"serial schedule of {section['loop']} drifted from the "
                f"committed baseline fingerprint"
            )
        if k1["attempts"] != baseline_section.get("serial_attempts"):
            failures.append(
                f"serial II ladder on {section['loop']} took "
                f"{k1['attempts']} attempts vs the committed "
                f"{baseline_section.get('serial_attempts')}"
            )
    if env_flag("REPRO_BENCH_REQUIRE_BASELINE"):
        # With the full frontier width in cores, racing must pay off
        # (>=2x on stress1); on narrower hosts parallel speedup is
        # physically capped, so gate only the runner's overhead — a
        # single-core K=4 run does the serial attempts plus at most
        # K-1 extras through worker pipes and must stay near parity.
        cpus = section.get("cpus") or 1
        floor = 2.0 if cpus >= section["width"] else 0.7
        if section["speedup"] is None or section["speedup"] < floor:
            failures.append(
                f"speculative K=4 speedup on {section['loop']} fell "
                f"below {floor}x (measured {section['speedup']}x on "
                f"{cpus} cpu(s))"
            )
    return failures


class _CountingNull(Tracer):
    """A disabled tracer that tallies every touchpoint it is asked about.

    ``enabled`` answers ``False`` (so every guarded call site takes
    exactly the shipped ``NULL_TRACER`` path) but counts the read; the
    no-op event methods count too in case a call site skips its guard.
    """

    touchpoints = 0

    @property
    def enabled(self) -> bool:
        self.touchpoints += 1
        return False

    def begin(self, name, cat, **args):
        self.touchpoints += 1
        return None

    def end(self, token, **args):
        self.touchpoints += 1

    def instant(self, name, cat, **args):
        self.touchpoints += 1

    def counter(self, name, value, cat="metrics"):
        self.touchpoints += 1


def _null_touchpoint_seconds(rounds: int = 3, calls: int = 200_000) -> float:
    """Best-of-N price of one disabled tracer touchpoint.

    Each iteration pays a guard read *plus* the no-op call the guard
    exists to skip, so the price is an upper bound on what any real
    call site costs when tracing is off.
    """
    tracer = NULL_TRACER
    best = None
    for _ in range(rounds):
        started = time.perf_counter()
        for _ in range(calls):
            if tracer.enabled:
                pass
            tracer.instant("bench", "bench", ii=0)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best / calls


def _measure_observability(workbench_loops) -> dict:
    """Tracing-off overhead + traced-run fingerprint neutrality.

    See the module docstring: touchpoints are counted during a real
    workbench run whose control flow is bit-identical to the untraced
    path, priced by microbenchmark, and compared against that run's
    wall; then a ``RecordingTracer`` run over the same suite must
    reproduce the same fingerprints.
    """
    machine = parse_config(WORKBENCH_MACHINES[0])
    session = SuiteExecutor(jobs=1, cache=False)
    counting = _CountingNull()
    started = time.perf_counter()
    off_run = schedule_suite(
        machine, workbench_loops, ScheduleRequest(trace=counting),
        session=session,
    )
    wall = time.perf_counter() - started
    per_touchpoint = _null_touchpoint_seconds()
    overhead = (
        per_touchpoint * counting.touchpoints / wall if wall else 0.0
    )

    recording = RecordingTracer()
    traced_run = schedule_suite(
        machine, workbench_loops, ScheduleRequest(trace=recording),
        session=session,
    )
    fingerprints_match = [
        result_fingerprint(r) for r in off_run.results
    ] == [result_fingerprint(r) for r in traced_run.results]

    return {
        "machine": WORKBENCH_MACHINES[0],
        "loops": len(off_run.results),
        "converged": len(off_run.converged),
        "wall_seconds": round(wall, 3),
        "touchpoints": counting.touchpoints,
        "null_touchpoint_ns": round(per_touchpoint * 1e9, 1),
        "overhead_fraction": round(overhead, 5),
        "traced_events": len(recording.events),
        "fingerprints_match_traced": fingerprints_match,
    }


def _gate_observability(section: dict) -> list[str]:
    """The tracer gates (see ``_measure_observability``)."""
    failures: list[str] = []
    if section["overhead_fraction"] >= 0.02:
        failures.append(
            f"tracing-off overhead bound {section['overhead_fraction']:.2%} "
            f"(= {section['touchpoints']} touchpoints x "
            f"{section['null_touchpoint_ns']} ns / "
            f"{section['wall_seconds']} s wall) is not under 2%"
        )
    if not section["fingerprints_match_traced"]:
        failures.append(
            "RecordingTracer workbench run is not fingerprint-identical "
            "to the untraced run"
        )
    if section["traced_events"] == 0:
        failures.append(
            "RecordingTracer saw no events over a full workbench run; "
            "the tracer is not threaded through the engine"
        )
    return failures


def _load_baseline() -> dict | None:
    if not BASELINE_PATH.exists():
        return None
    return json.loads(BASELINE_PATH.read_text())


def _pre_pr_wall(pre_pr: dict | None, stress_count: int) -> float | None:
    """Pre-PR engine wall seconds for the first ``stress_count`` loops.

    Stress suites are prefixes of one deterministic stream, so when the
    current count differs from the baseline's (CI runs a smaller subset
    via ``REPRO_BENCH_LOOPS``) the reference wall is the sum of the
    recorded per-loop seconds over the same prefix - the speedup gate
    then applies at every subset size.
    """
    if pre_pr is None:
        return None
    if pre_pr.get("stress_count") == stress_count:
        return pre_pr["stress_wall_seconds"]
    per_loop = pre_pr.get("per_loop_seconds", {})
    names = [f"stress{i}" for i in range(stress_count)]
    if all(name in per_loop for name in names):
        return sum(per_loop[name] for name in names)
    return None


def test_scheduler_throughput(table_sink):
    # Calibration is measured immediately before *and* after the gated
    # workbench phase (best of both) so a noise burst hitting only one
    # side of the ratio is damped.
    calibration = measure_calibration()
    workbench_loops = cached_suite(WORKBENCH_COUNT)
    workbench_entries = []
    workbench_wall = 0.0
    for machine_name in WORKBENCH_MACHINES:
        entry = _run_suite(machine_name, workbench_loops)
        workbench_entries.append(entry)
        workbench_wall += entry["wall_seconds"]
    calibration = min(calibration, measure_calibration())

    payload: dict = {
        "calibration_seconds": round(calibration, 4),
        "workbench": {
            "machines": workbench_entries,
            "count": WORKBENCH_COUNT,
        },
        "stress": {"machines": []},
    }
    payload["workbench"]["wall_seconds"] = round(workbench_wall, 3)
    payload["workbench"]["normalized_wall"] = round(
        workbench_wall / calibration, 2
    )

    stress_count = max(2, loops_for(16) // 4)
    stress_loops = stress_suite(stress_count)
    policy_entries: dict[str, dict] = {}
    for policy in STRESS_POLICIES:
        entry = _run_suite(STRESS_MACHINE, stress_loops, search=policy)
        entry["node_counts"] = [len(g) for g in stress_loops]
        entry["normalized_wall"] = round(
            entry["wall_seconds"] / calibration, 2
        )
        entry["policy"] = policy
        policy_entries[policy] = entry
        payload["stress"]["machines"].append(entry)
    stress_entry = policy_entries["linear"]  # the paper-exact engine
    payload["stress"]["count"] = stress_count
    payload["stress"]["policies"] = sorted(policy_entries)

    # Speculative II-search phase: stress1 serial vs K=4 race; identical
    # fingerprints, provable cancellation, and (under the CI gate) >= 2x
    # wall-clock (see _measure_speculation).
    speculation = _measure_speculation(stress_loops)
    payload["speculation"] = speculation

    # Observability phase: tracing-off touchpoint cost under 2% of
    # wall, traced run fingerprint-identical (see module docstring).
    observability = _measure_observability(workbench_loops)
    payload["observability"] = observability
    observability_failures = _gate_observability(observability)

    # Drained-regime allocator phase: every incremental query replayed
    # against the batch oracle, call for call (see module docstring).
    allocator = _measure_allocator(stress_loops)
    payload["allocator"] = allocator
    allocator_failures: list[str] = []
    if allocator["mismatches"]:
        allocator_failures.append(
            f"incremental colouring diverged from batch allocate_registers "
            f"on {len(allocator['mismatches'])} of {allocator['calls']} "
            f"calls; first: {allocator['mismatches'][0]}"
        )
    if allocator["speedup"] is not None and allocator["speedup"] < 2.0:
        allocator_failures.append(
            f"drained-regime allocation speedup fell below 2x "
            f"(measured {allocator['speedup']}x over {allocator['calls']} "
            f"calls)"
        )

    # Static-certifier phase: zero violations over the workbench and a
    # certify wall under 5% of the equivalent differential run (see
    # _measure_certifier).
    certifier = _measure_certifier(workbench_loops)
    payload["certifier"] = certifier
    certifier_failures = _gate_certifier(certifier)

    baseline = _load_baseline()
    if env_flag("REPRO_BENCH_REQUIRE_BASELINE"):
        assert baseline is not None, (
            f"committed baseline {BASELINE_PATH} is missing; the "
            "regression/speedup gates would silently become no-ops"
        )
        assert baseline.get("ii_search"), (
            f"committed baseline {BASELINE_PATH} has no ii_search "
            "section; the policy gates would silently become no-ops"
        )
        assert baseline.get("speculation"), (
            f"committed baseline {BASELINE_PATH} has no speculation "
            "section; the cross-commit fingerprint pin would silently "
            "become a no-op"
        )
    speculation_failures = _gate_speculation(
        speculation, (baseline or {}).get("speculation")
    )
    regression_failure = None
    speedup_failure = None
    if baseline is not None:
        payload["baseline"] = {
            "calibration_seconds": baseline["calibration_seconds"],
            "workbench_normalized_wall": baseline["workbench"][
                "normalized_wall"
            ],
        }
        tolerance = float(env_str("REPRO_BENCH_TOLERANCE") or "0.25")
        counts_match = (
            baseline["workbench"].get("count") == WORKBENCH_COUNT
        )
        if env_flag("REPRO_BENCH_REQUIRE_BASELINE"):
            assert counts_match, (
                f"baseline workbench count "
                f"{baseline['workbench'].get('count')} != "
                f"{WORKBENCH_COUNT}: the regression gate would be "
                "silently skipped; regenerate the baseline"
            )
        if counts_match:
            base_norm = baseline["workbench"]["normalized_wall"]
            cur_norm = payload["workbench"]["normalized_wall"]
            regression = cur_norm / base_norm - 1.0
            payload["workbench"]["regression_vs_baseline"] = round(
                regression, 3
            )
            if regression > tolerance:
                regression_failure = (
                    f"workbench scheduling wall-time regressed "
                    f"{regression:.0%} against the committed baseline "
                    f"(normalized {cur_norm} vs {base_norm}, "
                    f"tolerance {tolerance:.0%})"
                )

        pre_pr = baseline.get("pre_pr")
        pre_wall = _pre_pr_wall(pre_pr, stress_count)
        if pre_wall is not None:
            # Both baseline sides were measured on one host; rescale the
            # current stress wall to that host via the calibration ratio,
            # then compare against the recorded pre-PR engine wall (a
            # lower bound when any pre-PR loop hit the measurement cap).
            est_wall = stress_entry["wall_seconds"] * (
                baseline["calibration_seconds"] / calibration
            )
            speedup = pre_wall / est_wall
            payload["stress"]["speedup_vs_pre_pr"] = round(speedup, 1)
            payload["stress"]["speedup_is_lower_bound"] = bool(
                pre_pr.get("capped_loops")
            )
            payload["stress"]["pre_pr"] = pre_pr
            if speedup < 2.0:
                speedup_failure = (
                    f"stress-suite speedup vs the pre-PR engine fell "
                    f"below 2x (measured {speedup:.2f}x)"
                )

    policy_failures = _gate_policies(
        baseline.get("ii_search") if baseline else None,
        policy_entries,
        stress_count,
        tolerance=float(env_str("REPRO_BENCH_TOLERANCE") or "0.25"),
        payload=payload,
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "BENCH_scheduler.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    headers = [
        "phase", "machine", "loops", "conv", "wall s", "norm", "plc/s"
    ]
    rows = []
    for entry in payload["workbench"]["machines"]:
        rows.append([
            "workbench", entry["machine"], entry["loops"],
            entry["converged"], entry["wall_seconds"],
            round(entry["wall_seconds"] / calibration, 1),
            entry["placements_per_sec"],
        ])
    for entry in payload["stress"]["machines"]:
        rows.append([
            f"stress/{entry['policy']}", entry["machine"], entry["loops"],
            entry["converged"], entry["wall_seconds"],
            entry["normalized_wall"], entry["placements_per_sec"],
        ])
    for width in ("k1", "k4"):
        entry = speculation[width]
        rows.append([
            f"speculation/{width}", speculation["machine"], 1,
            int(entry["converged"]), entry["wall_seconds"],
            round(entry["wall_seconds"] / calibration, 1), "-",
        ])
    rows.append([
        "observability", observability["machine"], observability["loops"],
        observability["converged"], observability["wall_seconds"],
        round(observability["wall_seconds"] / calibration, 1), "-",
    ])
    for entry in certifier["machines"]:
        rows.append([
            "certifier", entry["machine"], entry["loops"],
            entry["converged"], entry["certify_seconds"],
            round(entry["certify_seconds"] / calibration, 2), "-",
        ])
    certifier_fraction_text = (
        "n/a"
        if certifier["wall_fraction"] is None
        else f"{certifier['wall_fraction']:.2%}"
    )
    note = (
        f"calibration {calibration * 1000:.0f} ms; "
        f"stress speedup vs pre-PR engine: "
        f"{payload['stress'].get('speedup_vs_pre_pr', 'n/a')}x; "
        f"geometric II-search vs committed linear baseline: "
        f"{payload['stress'].get('geometric_speedup_vs_baseline_linear', 'n/a')}x; "
        f"speculative K=4 on {speculation['loop']}: "
        f"{speculation['speedup']}x, fingerprints "
        f"{'match' if speculation['k1']['fingerprint'] == speculation['k4']['fingerprint'] else 'MISMATCH'}; "
        f"incremental allocator vs batch: {allocator['speedup']}x over "
        f"{allocator['calls']} calls, {len(allocator['mismatches'])} mismatches; "
        f"tracing-off overhead bound "
        f"{observability['overhead_fraction']:.2%} over "
        f"{observability['touchpoints']} touchpoints; "
        f"certifier: {certifier['violations']} violations over "
        f"{sum(e['reads'] for e in certifier['machines'])} reads, "
        f"certify/differential wall {certifier_fraction_text}"
    )
    table_sink(
        "scheduler_throughput",
        render_table("Scheduler throughput", headers, rows, note),
    )

    assert regression_failure is None, regression_failure
    assert speedup_failure is None, speedup_failure
    assert policy_failures == [], "; ".join(policy_failures)
    assert speculation_failures == [], "; ".join(speculation_failures)
    assert allocator_failures == [], "; ".join(allocator_failures)
    assert observability_failures == [], "; ".join(observability_failures)
    assert certifier_failures == [], "; ".join(certifier_failures)
    assert all(
        entry["placements"] > 0
        for entry in payload["workbench"]["machines"]
    )
