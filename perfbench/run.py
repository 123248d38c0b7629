"""MIRS-C pipeline benchmark: one command per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload workbench --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same passes untraced and then traced, checks that
both produced identical results, and reports the per-layer ledger.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
carry host facts and run details.  ``--population-seed`` swaps a
workload's input population (e.g. for its held-out seed, listed in
``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"


def _scrub_environment() -> None:
    """Drop every ``REPRO_*`` knob (jobs, speculation, tracing, cache,
    static-certify and self-check legs) before the program is imported:
    the benchmark pins what it measures itself."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]


def _pin_to_one_cpu() -> None:
    """Keep the run, and the interpreters it starts, on one CPU, so that
    the reference kernel samples the speed of the CPU the timed work runs
    on (the CPUs of a shared VM run at different speeds at one time)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _import_program():
    """Import the program from this checkout's ``src`` (never from an
    installed copy); exit 2 when the checkout does not hold it."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SOURCE}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        sys.exit(2)
    import harness

    return harness


def import_seconds(harness, repeats: int = 5) -> float:
    """Median time a fresh interpreter takes to import the benchmark's view
    of the program, rescaled like the pipeline timings: each interpreter
    times the reference kernel right after its import (a kernel timed in
    this process did not follow the children's speed)."""
    code = (
        "import time; started = time.perf_counter(); import sys; "
        f"sys.path[:0] = [{str(SOURCE)!r}, {str(HERE)!r}]; import harness; "
        "took = time.perf_counter() - started; import statistics; "
        "print(took, statistics.median(harness.time_reference() for _ in range(5)))"
    )
    times = []
    for _ in range(repeats):
        took, kernel = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True, text=True
        ).stdout.split()
        times.append(float(took) * harness.REFERENCE_S / float(kernel))
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    _scrub_environment()
    _pin_to_one_cpu()
    harness = _import_program()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--population-seed", type=int, default=None)
    args = parser.parse_args(argv)

    workload = harness.WORKLOADS[args.workload]
    population = (
        workload.population_seed if args.population_seed is None
        else args.population_seed
    )
    pairs, build_s = harness.build_pairs(workload, population)
    if args.trace:
        report = harness.run_traced(workload, pairs, args.seed, HERE / "results")
        correct = report["failed"] == 0 and report["neutral"]
    else:
        report = harness.run_untraced(
            workload, pairs, import_seconds(harness) + build_s, args.seed, args.seconds
        )
        correct = report["failed"] == 0

    import numpy

    host = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibration_s": round(harness.calibration_s(), 4),
        "workload": workload.name,
        "population_seed": population,
        "held_out_seed": workload.held_out_seed,
    }
    print("host " + json.dumps(host, sort_keys=True))
    print("info " + json.dumps(report["info"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
