"""Scheduler-throughput gates that neither perfbench nor the tests hold.

``perfbench/`` reports the end-to-end and per-layer numbers of the full
pipeline, and the tier-1 tests pin every schedule by fingerprint.  What
is left here are the wall-time *comparisons*, each with a fixed bound:

* **workbench regression** - the 16-loop workbench on both reference
  machines (always 16 loops, whatever ``REPRO_BENCH_LOOPS`` says), its
  wall normalized by a fixed pure-Python calibration kernel, must not
  exceed the committed ``workbench.normalized_wall`` by more than 25 %.
  This is the one gate that compares against an earlier commit;
* **policy speedup** - the stress prefix (``max(2, loops // 4)`` loops of
  :mod:`repro.workloads.stress`) scheduled under ``linear`` and under
  ``geometric`` in this process: geometric must be >= 3x faster, and
  converge wherever linear does, to the same II, in no more attempts;
* **speculation** - ``stress1`` (one feasible II far above MII) raced at
  K=4 against its serial linear run: fewer than serial + K executed
  attempts, a speedup of at least 2x when the process may run on >= K
  CPUs (0.7x, near-parity overhead, on fewer), and both runs reproduce
  the committed serial fingerprint and attempt count;
* **tracing off** - a workbench run with a tracer that counts every
  touchpoint while reporting itself disabled; touchpoints x the price of
  one disabled touchpoint must stay under 2 % of that run's wall;
* **certifier** - the workbench schedules must all converge, be
  certified and then run through ``run_differential`` at their declared
  trip counts: zero violations, zero mismatches, and a certify wall
  under 5 % of the differential wall.

Every ratio except the first is taken between two runs of this process,
so it needs no calibration.  Results land in
``benchmarks/results/BENCH_scheduler.json``.  ``test_gates_hold_their_bounds``
feeds synthetic sections to each gate, so a gate cannot silently
become a no-op.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

from conftest import RESULTS_DIR, loops_for

from repro import MirsParams
from repro.analysis import certify_code
from repro.codegen import generate_code
from repro.core.mirsc import MirsC
from repro.eval.reporting import render_table
from repro.exec import result_fingerprint
from repro.exec.engine import usable_cpus
from repro.machine.config import parse_config
from repro.obs import NULL_TRACER, Tracer
from repro.sim.differential import run_differential
from repro.workloads.perfect import cached_suite
from repro.workloads.stress import stress_suite

BASELINE_PATH = (
    pathlib.Path(__file__).parent / "baselines" / "bench_scheduler_baseline.json"
)

#: Machines the workbench phases run on (the paper's reference configs).
WORKBENCH_MACHINES = ("1-(GP8M4-REG64)", "4-(GP2M1-REG32)")
#: Machine the stress phases run on.
STRESS_MACHINE = "1-(GP8M4-REG64)"
#: The gated workbench population is fixed (see module docstring).
WORKBENCH_COUNT = 16

#: Largest tolerated normalized workbench regression.
TOLERANCE = 0.25
#: Smallest tolerated linear/geometric stress wall ratio.
GEOMETRIC_SPEEDUP = 3.0
#: Speculation width raced against the serial search.
WIDTH = 4
#: Smallest tolerated serial/K wall ratio with >= WIDTH usable CPUs ...
SPECULATION_FLOOR = 2.0
#: ... and on fewer, where parallel speedup is physically capped.
SPECULATION_FLOOR_NARROW = 0.7
#: Largest tolerated tracing-off cost, as a fraction of the wall.
TRACING_OFF_FRACTION = 0.02
#: Largest tolerated certify wall, as a fraction of the differential's.
CERTIFY_WALL_FRACTION = 0.05


def calibration_kernel(rounds: int = 100_000) -> int:
    """Fixed pure-Python work that imports nothing of the program: dict
    updates, integer arithmetic and a sort of ints.

    Its wall tracks the host's speed and no change to the program can
    move it, so the normalized workbench wall falls when scheduling gets
    faster.  (A loop the program itself schedules would get faster with
    it and hide the gain, or read as a regression.)  It allocates no
    container per round, so the collector never walks the heap the
    workbench phase leaves behind.
    """
    table: dict[int, int] = {}
    acc = 0
    for i in range(rounds):
        key = (i * 2654435761) & 0xFFF
        table[key] = table.get(key, 0) + i
        acc ^= key
    return acc + len(sorted(table))


def calibration_samples(rounds: int = 5) -> list[float]:
    """Wall seconds of ``rounds`` runs of :func:`calibration_kernel`
    (tens of ms each, so timer noise stays well under the regression
    tolerance)."""
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        calibration_kernel()
        samples.append(time.perf_counter() - started)
    return samples


def _schedule(machine_name, graphs, *, policy="linear", width=1, tracer=None):
    """Schedule ``graphs`` in order on one fresh engine (no cache).

    Returns the results and each loop's wall seconds.
    """
    engine = MirsC(
        parse_config(machine_name),
        params=MirsParams(ii_search=policy, speculation=width),
        strict=False,
        tracer=tracer,
    )
    results, walls = [], []
    for graph in graphs:
        started = time.perf_counter()
        results.append(engine.schedule(graph))
        walls.append(time.perf_counter() - started)
    return results, walls


def _policy_entry(results, walls) -> dict:
    return {
        "wall_seconds": round(sum(walls), 3),
        "per_loop": {
            r.loop: {
                "ii": r.ii,
                "converged": r.converged,
                "attempts": len(r.stats.search_trace),
                "seconds": round(wall, 3),
            }
            for r, wall in zip(results, walls)
        },
    }


def _measure_certifier(workbench: dict) -> dict:
    """Certify the converged workbench schedules, then run each through
    ``run_differential`` at its declared trip count (cache off: the
    point is to price the execution the certifier displaces).

    Scheduling and codegen stay outside both timed regions: they are
    common to either checking strategy.
    """
    scheduled = [result for results in workbench.values() for result in results]
    emitted = [
        (result, generate_code(result))
        for result in scheduled
        if result.converged
    ]
    started = time.perf_counter()
    reports = [certify_code(code, result) for result, code in emitted]
    certify_wall = time.perf_counter() - started
    started = time.perf_counter()
    diff_reports = [
        run_differential(result, result.graph.trip_count, cache=False)
        for result, _ in emitted
    ]
    differential_wall = time.perf_counter() - started
    return {
        "scheduled": len(scheduled),
        "loops": len(emitted),
        "reads": sum(r.reads_checked for r in reports),
        "violations": sum(len(r.violations) for r in reports),
        "mismatches": sum(1 for d in diff_reports if not d.match),
        "certify_seconds": round(certify_wall, 4),
        "differential_seconds": round(differential_wall, 4),
        "wall_fraction": (
            round(certify_wall / differential_wall, 4)
            if differential_wall
            else None
        ),
    }


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


def _measure_tracing_off(graphs) -> dict:
    counting = _CountingNull()
    _, walls = _schedule(WORKBENCH_MACHINES[0], graphs, tracer=counting)
    wall = sum(walls)
    price = _null_touchpoint_seconds()
    return {
        "wall_seconds": round(wall, 3),
        "touchpoints": counting.touchpoints,
        "null_touchpoint_ns": round(price * 1e9, 1),
        "overhead_fraction": round(price * counting.touchpoints / wall, 5),
    }


# ----------------------------------------------------------------------
# Gates: each takes measured sections and returns its failures
# ----------------------------------------------------------------------


def gate_workbench(section: dict, baseline: dict) -> list[str]:
    base = baseline["workbench"]["normalized_wall"]
    current = section["normalized_wall"]
    regression = current / base - 1.0
    if regression > TOLERANCE:
        return [
            f"workbench scheduling wall-time regressed {regression:.0%} "
            f"against the committed baseline (normalized {current} vs "
            f"{base}, tolerance {TOLERANCE:.0%})"
        ]
    return []


def gate_policies(section: dict) -> list[str]:
    failures: list[str] = []
    linear, geometric = section["linear"], section["geometric"]
    for name, lin in linear["per_loop"].items():
        geo = geometric["per_loop"][name]
        if geo["converged"] != lin["converged"] or (
            lin["converged"] and geo["ii"] != lin["ii"]
        ):
            failures.append(
                f"{name}: geometric II/convergence {geo['ii']}/"
                f"{geo['converged']} != linear {lin['ii']}/{lin['converged']}"
            )
        if geo["attempts"] > lin["attempts"]:
            failures.append(
                f"{name}: geometric took {geo['attempts']} attempts vs "
                f"linear's {lin['attempts']}"
            )
    speedup = linear["wall_seconds"] / geometric["wall_seconds"]
    if speedup < GEOMETRIC_SPEEDUP:
        failures.append(
            f"geometric stress speedup over linear fell below "
            f"{GEOMETRIC_SPEEDUP}x (measured {speedup:.2f}x)"
        )
    return failures


def gate_speculation(section: dict, committed: dict) -> list[str]:
    failures: list[str] = []
    loop, serial, raced = section["loop"], section["k1"], section["k4"]
    for label, run in (("serial", serial), (f"K={WIDTH}", raced)):
        if run["fingerprint"] != committed["fingerprint"]:
            failures.append(
                f"{label} schedule of {loop} drifted from the committed "
                f"serial fingerprint"
            )
    if serial["attempts"] != committed["serial_attempts"]:
        failures.append(
            f"serial II ladder on {loop} took {serial['attempts']} attempts "
            f"vs the committed {committed['serial_attempts']}"
        )
    if raced["executed_attempts"] >= serial["attempts"] + WIDTH:
        failures.append(
            f"speculative losers not provably cancelled: executed "
            f"{raced['executed_attempts']} attempts vs serial "
            f"{serial['attempts']} + K={WIDTH} bound"
        )
    cpus = section["cpus"]
    floor = SPECULATION_FLOOR if cpus >= WIDTH else SPECULATION_FLOOR_NARROW
    speedup = serial["wall_seconds"] / raced["wall_seconds"]
    if speedup < floor:
        failures.append(
            f"speculative K={WIDTH} speedup on {loop} fell below {floor}x "
            f"(measured {speedup:.2f}x on {cpus} usable cpu(s))"
        )
    return failures


def gate_tracing_off(section: dict) -> list[str]:
    if section["overhead_fraction"] >= TRACING_OFF_FRACTION:
        return [
            f"tracing-off overhead bound {section['overhead_fraction']:.2%} "
            f"(= {section['touchpoints']} touchpoints x "
            f"{section['null_touchpoint_ns']} ns / "
            f"{section['wall_seconds']} s wall) is not under "
            f"{TRACING_OFF_FRACTION:.0%}"
        ]
    return []


def gate_certifier(section: dict) -> list[str]:
    if section["loops"] == 0:
        return ["certifier phase saw no emitted loops"]
    failures: list[str] = []
    if section["loops"] != section["scheduled"]:
        failures.append(
            f"only {section['loops']} of {section['scheduled']} workbench "
            f"schedules converged"
        )
    if section["violations"]:
        failures.append(
            f"static certifier reported {section['violations']} "
            f"violation(s) on the clean workbench"
        )
    if section["mismatches"]:
        failures.append(
            f"differential oracle disagreed on {section['mismatches']} "
            f"workbench loop(s)"
        )
    fraction = section["wall_fraction"]
    if fraction is None or fraction >= CERTIFY_WALL_FRACTION:
        failures.append(
            f"certify wall {section['certify_seconds']}s is not under "
            f"{CERTIFY_WALL_FRACTION:.0%} of the differential wall "
            f"{section['differential_seconds']}s (measured {fraction})"
        )
    return failures


# ----------------------------------------------------------------------


def test_scheduler_throughput(table_sink):
    baseline = json.loads(BASELINE_PATH.read_text())

    # Calibration is sampled immediately before *and* after the gated
    # workbench phase, and the median of all samples taken, so a noise
    # burst hitting only one side of the ratio is damped.  (The minimum
    # tracks a shared host's rare quiet moments, which the seconds-long
    # workbench phase does not see.)
    samples = calibration_samples()
    graphs = [loop.graph for loop in cached_suite(WORKBENCH_COUNT)]
    workbench, workbench_walls = {}, {}
    for machine_name in WORKBENCH_MACHINES:
        results, walls = _schedule(machine_name, graphs)
        workbench[machine_name] = results
        workbench_walls[machine_name] = round(sum(walls), 3)
    calibration = statistics.median(samples + calibration_samples())
    workbench_wall = sum(workbench_walls.values())
    workbench_section = {
        "machines": workbench_walls,
        "wall_seconds": round(workbench_wall, 3),
        "normalized_wall": round(workbench_wall / calibration, 2),
    }

    stress = stress_suite(max(2, loops_for(16) // 4))
    runs = {
        policy: _schedule(STRESS_MACHINE, stress, policy=policy)
        for policy in ("linear", "geometric")
    }
    policies = {policy: _policy_entry(*run) for policy, run in runs.items()}

    # Speculation: stress1 raced at K=WIDTH against its serial linear run.
    (raced,), (raced_wall,) = _schedule(STRESS_MACHINE, [stress[1]], width=WIDTH)
    linear_results, linear_walls = runs["linear"]
    serial, serial_wall = linear_results[1], linear_walls[1]
    speculation = {
        "loop": serial.loop,
        "cpus": usable_cpus(),
        "k1": {
            "wall_seconds": round(serial_wall, 3),
            "fingerprint": result_fingerprint(serial),
            "attempts": len(serial.stats.search_trace),
        },
        "k4": {
            "wall_seconds": round(raced_wall, 3),
            "fingerprint": result_fingerprint(raced),
            "executed_attempts": raced.stats.search.executed_attempts,
        },
    }

    tracing_off = _measure_tracing_off(graphs)
    certifier = _measure_certifier(workbench)

    payload = {
        "calibration_seconds": round(calibration, 4),
        "baseline_calibration_seconds": baseline["calibration_seconds"],
        "workbench": workbench_section,
        "policies": policies,
        "speculation": speculation,
        "tracing_off": tracing_off,
        "certifier": certifier,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_scheduler.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    def row(phase, machine, loops, wall):
        return [phase, machine, loops, wall, round(wall / calibration, 1)]

    rows = [
        row("workbench", name, WORKBENCH_COUNT, wall)
        for name, wall in workbench_walls.items()
    ]
    rows += [
        row(f"stress/{policy}", STRESS_MACHINE, len(stress), entry["wall_seconds"])
        for policy, entry in policies.items()
    ]
    rows += [
        row(f"speculation/{key}", STRESS_MACHINE, 1, speculation[key]["wall_seconds"])
        for key in ("k1", "k4")
    ]
    rows.append(
        row("tracing-off", WORKBENCH_MACHINES[0], WORKBENCH_COUNT,
            tracing_off["wall_seconds"])
    )
    note = (
        f"calibration {calibration * 1000:.0f} ms; workbench normalized "
        f"{workbench_section['normalized_wall']} (committed "
        f"{baseline['workbench']['normalized_wall']}); tracing-off bound "
        f"{tracing_off['overhead_fraction']:.2%}; certifier "
        f"{certifier['violations']} violations over {certifier['reads']} "
        f"reads, {certifier['mismatches']} differential mismatches, "
        f"certify/differential wall fraction {certifier['wall_fraction']}"
    )
    table_sink(
        "scheduler_throughput",
        render_table(
            "Scheduler throughput",
            ["phase", "machine", "loops", "wall s", "norm"],
            rows,
            note,
        ),
    )

    failures = (
        gate_workbench(workbench_section, baseline)
        + gate_policies(policies)
        + gate_speculation(speculation, baseline["speculation"])
        + gate_tracing_off(tracing_off)
        + gate_certifier(certifier)
    )
    assert failures == [], "; ".join(failures)


def test_gates_hold_their_bounds():
    """Each gate fails on the failing side of its bound and passes just
    inside it (synthetic sections, nothing is scheduled)."""
    baseline = {"workbench": {"normalized_wall": 100.0}}
    assert gate_workbench({"normalized_wall": 125.0}, baseline) == []
    assert gate_workbench({"normalized_wall": 125.01}, baseline)

    def policies(linear_wall, **geometric):
        lin = {"ii": 10, "converged": True, "attempts": 5, "seconds": 1}
        geo = dict(lin, **geometric)
        return {
            "linear": {"wall_seconds": linear_wall, "per_loop": {"s": lin}},
            "geometric": {"wall_seconds": 1.0, "per_loop": {"s": geo}},
        }

    assert gate_policies(policies(3.0)) == []
    assert gate_policies(policies(2.99))
    assert gate_policies(policies(3.0, ii=11))
    assert gate_policies(policies(3.0, converged=False))
    assert gate_policies(policies(3.0, attempts=6))

    committed = {"fingerprint": "f", "serial_attempts": 10}

    def speculation(cpus=1, speedup=0.7, executed=13, fingerprint="f"):
        return {
            "loop": "stress1",
            "cpus": cpus,
            "k1": {"wall_seconds": speedup, "fingerprint": "f", "attempts": 10},
            "k4": {
                "wall_seconds": 1.0,
                "fingerprint": fingerprint,
                "executed_attempts": executed,
            },
        }

    assert gate_speculation(speculation(), committed) == []
    assert gate_speculation(speculation(cpus=4, speedup=2.0), committed) == []
    assert gate_speculation(speculation(speedup=0.69), committed)
    assert gate_speculation(speculation(cpus=4, speedup=1.99), committed)
    assert gate_speculation(speculation(executed=14), committed)
    assert gate_speculation(speculation(fingerprint="g"), committed)
    assert gate_speculation(
        speculation(), dict(committed, serial_attempts=11)
    )

    def tracing(fraction):
        return {
            "overhead_fraction": fraction,
            "touchpoints": 1,
            "null_touchpoint_ns": 1.0,
            "wall_seconds": 1.0,
        }

    assert gate_tracing_off(tracing(0.0199)) == []
    assert gate_tracing_off(tracing(0.02))

    def certifier(fraction, violations=0, mismatches=0, loops=32):
        return {
            "scheduled": 32,
            "loops": loops,
            "violations": violations,
            "mismatches": mismatches,
            "wall_fraction": fraction,
            "certify_seconds": 0.0,
            "differential_seconds": 0.0,
        }

    assert gate_certifier(certifier(0.0499)) == []
    assert gate_certifier(certifier(0.05))
    assert gate_certifier(certifier(None))
    assert gate_certifier(certifier(0.01, violations=1))
    assert gate_certifier(certifier(0.01, mismatches=1))
    assert gate_certifier(certifier(0.01, loops=31))
    assert gate_certifier(dict(certifier(0.01, loops=0), scheduled=0))
