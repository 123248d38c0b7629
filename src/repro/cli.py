"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``schedule`` - schedule one workbench loop, a real source loop
  (``--source``) or a built-in demo kernel on a named configuration and
  print the kernel (optionally the full generated code);
* ``simulate`` - schedule a loop, *execute* its generated code on the
  cycle-accurate simulator (:mod:`repro.sim`), check it bit-for-bit
  against the scalar reference interpreter, and compare the measured
  useful/stall cycles with the analytic :mod:`repro.memsim` prediction;
* ``analyze``  - schedule a workbench subset, emit its code and run the
  *static certifier* (:mod:`repro.analysis`) on every pipeline: the
  exit status is nonzero if any loop's code is rejected (or cannot be
  emitted), so the command doubles as a CI gate;
* ``compare``  - run MIRS-C and the non-iterative baseline [31] over a
  workbench subset on one configuration and print the comparison;
* ``frontend`` - the source-loop frontend (:mod:`repro.frontend`):
  ``frontend show`` prints the analyzed IR of one kernel (or the whole
  corpus table), ``frontend run`` schedules, certifies and
  differentially validates kernels end to end — exit status is nonzero
  on any failure, so it doubles as a CI gate;
* ``suite``    - print structural statistics of the synthetic workbench;
* ``technology`` - print the Figure 2 technology table;
* ``cache``    - inspect or clear the on-disk schedule-result cache;
* ``trace``    - inspect structured traces recorded with ``--trace``
  (or ``REPRO_TRACE``): ``trace summary PATH`` validates the JSONL
  against the committed schema and prints per-phase and per-attempt
  breakdowns.

``compare`` runs through the suite-execution engine: ``--jobs N`` shards
the workbench over N worker processes and results are memoized in the
cache (``.repro-cache/`` or ``$REPRO_CACHE_DIR``) unless ``--no-cache``
is given.

A malformed machine (``--config``, ``--move-latency``, ``--buses``), a
rejected source loop or a scheduler giving up prints ``error: ...`` and
exits with status 2.

Examples::

    python -m repro schedule --config "4-(GP2M1-REG16)" --loop 31 --code
    python -m repro schedule --source mykernels.py --kernel saxpy --code
    python -m repro frontend show ewma2
    python -m repro frontend run --config "1-(GP8M4-REG64)" saxpy prefix
    python -m repro analyze --config "4-(GP2M1-REG16)" --loops 16
    python -m repro simulate --config "4-(GP2M1-REG16)" --loop 12 --iterations 100
    python -m repro compare --config "2-(GP4M2-REG32)" --loops 12 --jobs 4
    python -m repro technology
    python -m repro cache --clear
"""

from __future__ import annotations

import argparse
import sys

from repro import (
    LoopBuilder,
    generate_code,
    parse_config,
)
from repro.core.params import MirsParams
from repro.core.request import ScheduleRequest
from repro.errors import ConfigError, ConvergenceError, FrontendError
from repro.core.search import POLICIES
from repro.eval.experiments import figure2_rows
from repro.eval.pretty import format_kernel
from repro.eval.reporting import render_table
from repro.eval.runner import schedule_suite
from repro.exec import ResultCache, SuiteExecutor
from repro.memsim.stall import MemoryModel
from repro.sim import run_differential
from repro.workloads.perfect import (
    SUITE_SIZE,
    build_loop,
    cached_suite,
    suite_statistics,
)


def workbench_index(text: str) -> int:
    """Argparse type for ``--loop``: a valid workbench loop index."""
    try:
        index = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid loop index {text!r} (expected an integer)"
        ) from None
    if not 0 <= index < SUITE_SIZE:
        raise argparse.ArgumentTypeError(
            f"loop index {index} is out of range; the workbench has "
            f"{SUITE_SIZE} loops (valid indices: 0..{SUITE_SIZE - 1})"
        )
    return index


def workbench_count(text: str) -> int:
    """Argparse type for ``--loops``: a valid workbench subset size."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid loop count {text!r} (expected an integer)"
        ) from None
    if not 1 <= count <= SUITE_SIZE:
        raise argparse.ArgumentTypeError(
            f"loop count {count} is out of range; pick between 1 and "
            f"{SUITE_SIZE} workbench loops"
        )
    return count


def positive_int(text: str) -> int:
    """Argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid count {text!r} (expected an integer)"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"count must be at least 1, got {value}"
        )
    return value


def _request_from(args: argparse.Namespace) -> ScheduleRequest:
    """The one CLI→request resolution point: every scheduling command
    builds its :class:`ScheduleRequest` here, so the CLI and the Python
    API share identical semantics (and cache keys)."""
    trace = None
    if getattr(args, "trace", None):
        from repro.obs import RecordingTracer

        trace = RecordingTracer()
    return ScheduleRequest(
        scheduler=getattr(args, "scheduler", "mirsc"),
        params=MirsParams(
            ii_search=args.ii_search, speculation=args.speculation
        ),
        trace=trace,
    )


def _finish_trace(args: argparse.Namespace, request: ScheduleRequest) -> None:
    """Write the command's trace (JSONL + Chrome sibling) if one was on."""
    path = getattr(args, "trace", None)
    if not path or not getattr(request.trace, "enabled", False):
        return
    from repro.obs.export import chrome_path_for, write_chrome, write_jsonl

    write_jsonl(request.trace, path)
    chrome = write_chrome(request.trace, chrome_path_for(path))
    print(f"trace written: {path} (+ {chrome})", file=sys.stderr)


def _demo_graph():
    b = LoopBuilder("daxpy", trip_count=1000)
    x = b.load(array=0)
    y = b.load(array=1)
    a = b.invariant("a")
    b.store(b.add(b.mul(x, a), y), array=1)
    return b.build()


def _resolve_source(source: str, kernel: str | None):
    """Lower ``--source`` (a path or a corpus kernel name) to one kernel."""
    from repro.frontend import lower_source
    from repro.frontend.corpus import CORPUS_KERNELS, corpus_path

    path = corpus_path(source) if source in CORPUS_KERNELS else source
    kernels = lower_source(path, kernel=kernel)
    if len(kernels) > 1:
        names = ", ".join(k.name for k in kernels)
        raise FrontendError(
            f"{source} defines {len(kernels)} kernels ({names}); "
            "pick one with --kernel"
        )
    return kernels[0]


def _loop_graph(args: argparse.Namespace):
    """Graph selected by ``--source`` / ``--loop`` (demo DAXPY otherwise)."""
    if args.source is not None:
        if args.loop is not None:
            raise FrontendError("--source and --loop are mutually exclusive")
        return _resolve_source(args.source, args.kernel).graph
    if args.loop is None:
        return _demo_graph()
    return build_loop(args.loop).graph


def _cmd_schedule(args: argparse.Namespace) -> int:
    machine = parse_config(
        args.config, move_latency=args.move_latency, buses=args.buses
    )
    request = _request_from(args)
    result = request.make_scheduler(machine).schedule(_loop_graph(args))
    print(format_kernel(result))
    print()
    print(result.summary())
    if result.oracle is not None:
        oracle = result.oracle
        print(
            f"oracle: {oracle['status']} (engine={oracle['engine']}, "
            f"proven lower bound II={oracle['proven_lower_ii']}, "
            f"{len(oracle['certificates'])} certificates)"
        )
    if args.code:
        print()
        print(generate_code(result).render())
    _finish_trace(args, request)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    machine = parse_config(
        args.config, move_latency=args.move_latency, buses=args.buses
    )
    request = _request_from(args)
    result = request.make_scheduler(machine).schedule(_loop_graph(args))
    # None: the environment decides (REPRO_CACHE_DIR opts in, as for
    # plain library calls elsewhere).
    report = run_differential(result, args.iterations, cache=None)
    sim = report.simulation

    analytic = MemoryModel().evaluate(result, iterations=sim.iterations)
    useful_ok = sim.useful_cycles == round(analytic.useful_cycles)
    rows = [
        ["iterations (requested -> run)",
         f"{sim.requested_iterations} -> {sim.iterations}"],
        ["II / stages / MVE", f"{sim.ii} / {sim.stage_count} / {sim.mve_factor}"],
    ]
    if sim.surplus_iterations:
        rows.append([
            "surplus source iterations",
            f"{sim.surplus_iterations} (unroll x{sim.unroll_factor} does "
            "not divide the source trip count)",
        ])
    rows += [
        ["useful cycles (measured)", sim.useful_cycles],
        ["useful cycles (analytic)", round(analytic.useful_cycles)],
        ["stall cycles (measured)", sim.stall_cycles],
        ["stall cycles (analytic)", round(analytic.stall_cycles, 1)],
        ["instructions / IPC", f"{sim.instructions} / {sim.ipc:.2f}"],
        ["cache hits / misses", f"{sim.cache_hits} / {sim.cache_misses}"],
        ["bus occupancy (moves/cycle)", round(sim.bus_occupancy, 3)],
    ]
    note = (
        f"reference interpreter: {'MATCH' if report.match else 'MISMATCH'}; "
        f"analytic useful cycles: "
        f"{'match' if useful_ok else 'MISMATCH'}"
    )
    print(
        render_table(
            f"Simulated {result.loop} on {machine.name} "
            f"(II={result.ii}, MII={result.mii})",
            ["metric", "value"],
            rows,
            note,
        )
    )
    if not report.match:
        print()
        print(report.summary())
    _finish_trace(args, request)
    return 0 if report.match and useful_ok else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import certify_code
    from repro.errors import CodegenError

    machine = parse_config(
        args.config, move_latency=args.move_latency, buses=args.buses
    )
    loops = cached_suite(args.loops)
    executor = SuiteExecutor(jobs=args.jobs, cache=not args.no_cache)
    request = _request_from(args)
    run = schedule_suite(machine, loops, request, session=executor)

    rows = []
    rejected: list[str] = []
    for loop, result in zip(loops, run.results, strict=True):
        name = loop.graph.name
        if not result.converged:
            rows.append([name, len(loop.graph), "n/a", "-", "-", "-", "-",
                         "not converged"])
            rejected.append(f"{name}: schedule did not converge")
            continue
        try:
            code = generate_code(result)
        except CodegenError as error:
            rows.append([name, len(loop.graph), result.ii, "-", "-", "-",
                         "-", error.kind])
            rejected.append(f"{name}: cannot emit code ({error.kind})")
            continue
        report = certify_code(code, result)
        verdict = "ok" if report.ok else f"{len(report.violations)} violations"
        rows.append([
            name,
            len(loop.graph),
            report.ii,
            report.stage_count,
            report.mve_factor,
            report.bundles_checked,
            report.reads_checked,
            verdict,
        ])
        if not report.ok:
            rejected.append(report.summary())
    print(
        render_table(
            f"Static certification on {machine.name} ({len(loops)} loops)",
            ["loop", "ops", "II", "SC", "MVE", "bundles", "reads", "verdict"],
            rows,
            f"{len(loops) - len(rejected)}/{len(loops)} pipelines certified",
        )
    )
    for entry in rejected:
        print()
        print(entry)
    _finish_trace(args, request)
    return 1 if rejected else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    machine = parse_config(
        args.config, move_latency=args.move_latency, buses=args.buses
    )
    loops = cached_suite(args.loops)
    executor = SuiteExecutor(jobs=args.jobs, cache=not args.no_cache)
    request = _request_from(args)
    ours_run = schedule_suite(machine, loops, request, session=executor)
    base_run = schedule_suite(
        machine, loops, ScheduleRequest(scheduler="baseline"),
        session=executor,
    )
    rows = []
    for loop, ours, base in zip(loops, ours_run.results, base_run.results, strict=True):
        rows.append(
            [
                loop.graph.name,
                len(loop.graph),
                ours.ii if ours.converged else "n/a",
                base.ii if base.converged else "n/a",
                ours.memory_traffic,
                ours.move_operations,
                ours.spill_operations,
            ]
        )
    print(
        render_table(
            f"MIRS-C vs [31] on {machine.name} ({len(loops)} loops)",
            ["loop", "ops", "II MIRS-C", "II [31]", "trf", "moves", "spills"],
            rows,
        )
    )
    stats = executor.stats
    print(
        f"[exec] jobs={executor.jobs} scheduled={stats.scheduled} "
        f"cache_hits={stats.cache_hits} wall={stats.wall_seconds:.2f}s"
    )
    _finish_trace(args, request)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.dir) if args.dir else ResultCache()
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.directory}")
        return 0
    stats = cache.stats()
    rows = [
        ["directory", stats.directory],
        ["entries", stats.entries],
        ["size (KiB)", round(stats.total_bytes / 1024, 1)],
    ]
    print(render_table("Schedule-result cache", ["key", "value"], rows))
    return 0


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    from repro.obs.export import validate_trace_file
    from repro.obs.summary import summarize_file

    problems = validate_trace_file(args.path)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    print(summarize_file(args.path).render())
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    loops = cached_suite(args.loops)
    stats = suite_statistics(list(loops))
    rows = [[key, value] for key, value in sorted(stats.items())]
    print(render_table("Workbench statistics", ["metric", "value"], rows))
    return 0


def _cmd_technology(args: argparse.Namespace) -> int:
    headers, rows, note = figure2_rows()
    print(render_table("Technology model (Figure 2)", headers, rows, note))
    return 0


def _cmd_frontend_show(args: argparse.Namespace) -> int:
    from repro.frontend.corpus import CORPUS_KERNELS, load_kernel
    from repro.graph.mii import compute_mii, resource_mii
    from repro.graph.recurrences import recurrence_mii

    machine = parse_config(args.config)
    if args.source is None:
        rows = []
        for name in CORPUS_KERNELS:
            lowered = load_kernel(name)
            graph = lowered.graph
            rows.append(
                [
                    name,
                    len(graph),
                    len(lowered.arrays),
                    len(lowered.scalars),
                    len(lowered.invariants),
                    len(lowered.mem_deps),
                    resource_mii(graph, machine),
                    recurrence_mii(graph, machine),
                    compute_mii(graph, machine),
                ]
            )
        print(
            render_table(
                f"Frontend corpus on {machine.name}",
                ["kernel", "ops", "arrays", "scalars", "invs", "mem deps",
                 "ResMII", "RecMII", "MII"],
                rows,
                "parser: python (.py sources)",
            )
        )
        return 0

    lowered = _resolve_source(args.source, args.kernel)
    kernel = lowered.kernel
    loop = kernel.loop
    graph = lowered.graph
    stop = loop.symbolic_bound or loop.start + loop.step * loop.trip_count
    print(f"kernel {lowered.name} ({kernel.source})")
    print(
        f"loop:  for {loop.var} in range({loop.start}, {stop}"
        + (f", {loop.step}" if loop.step != 1 else "")
        + f")  [trip count {graph.trip_count}]"
    )
    roles = lowered.roles
    print(f"names: induction {roles.induction!r}")
    for label, names in (
        ("arrays", roles.arrays),
        ("scalars", roles.loop_scalars),
        ("invariants", roles.invariants),
    ):
        if names:
            print(f"       {label}: {', '.join(names)}")
    for name, binding in sorted(lowered.scalars.items()):
        if binding.node_id is None:
            print(f"state: {name} stays live-in (invariant)")
        else:
            print(
                f"state: {name} <- node {binding.node_id} "
                f"({binding.shift} iteration(s) back)"
            )
    for dep in lowered.mem_deps:
        print(f"mem:   {dep.describe()}")
    res = resource_mii(graph, machine)
    rec = recurrence_mii(graph, machine)
    print(
        f"graph: {len(graph)} ops, {len(lowered.invariants)} invariant(s); "
        f"MII on {machine.name}: max(ResMII {res}, RecMII {rec}) = "
        f"{compute_mii(graph, machine)}"
    )
    return 0


def _cmd_frontend_run(args: argparse.Namespace) -> int:
    from repro.analysis import certify_code
    from repro.errors import CodegenError
    from repro.frontend.corpus import CORPUS_KERNELS
    from repro.frontend.differential import run_source_differential

    machine = parse_config(
        args.config, move_latency=args.move_latency, buses=args.buses
    )
    names = list(args.kernels) or list(CORPUS_KERNELS)
    lowered = [_resolve_source(name, None) for name in names]
    executor = SuiteExecutor(jobs=args.jobs, cache=not args.no_cache)
    request = _request_from(args)
    run = schedule_suite(machine, lowered, request, session=executor)
    cache = executor.cache if executor.cache is not None else False

    rows = []
    failures: list[str] = []
    ok_count = 0
    for kernel, result in zip(lowered, run.results, strict=True):
        if not result.converged:
            rows.append([kernel.name, len(kernel.graph), "-", "-", "-", "-"])
            failures.append(f"{kernel.name}: schedule did not converge")
            continue
        try:
            code = generate_code(result)
        except CodegenError as error:
            rows.append(
                [kernel.name, len(kernel.graph), result.mii, result.ii,
                 error.kind, "-"]
            )
            failures.append(f"{kernel.name}: cannot emit code ({error.kind})")
            continue
        cert = certify_code(code, result)
        diff = run_source_differential(
            kernel, result, args.iterations, cache=cache, code=code
        )
        if diff.match:
            verdict = "match" if diff.source_match is not None else (
                "match (link 3 skipped)"
            )
        else:
            verdict = "MISMATCH"
        rows.append(
            [
                kernel.name,
                len(kernel.graph),
                result.mii,
                result.ii,
                "ok" if cert.ok else f"{len(cert.violations)} violations",
                verdict,
            ]
        )
        if not cert.ok:
            failures.append(cert.summary())
        if not diff.match:
            failures.append(diff.summary())
        if cert.ok and diff.match:
            ok_count += 1
    print(
        render_table(
            f"Frontend differential on {machine.name} "
            f"({args.iterations} iterations)",
            ["kernel", "ops", "MII", "II", "certify", "differential"],
            rows,
            f"{ok_count}/{len(names)} kernels validated end to end "
            "(source = graph = emitted code)",
        )
    )
    for entry in failures:
        print()
        print(entry)
    _finish_trace(args, request)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MIRS-C reproduction (Zalamea et al., MICRO 2001)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--config",
            default="2-(GP4M2-REG32)",
            help="machine configuration, e.g. '4-(GP2M1-REG16)'",
        )
        p.add_argument(
            "--scheduler",
            choices=("mirsc", "baseline", "smt"),
            default="mirsc",
            help="scheduling backend: the paper's MIRS-C heuristic "
            "(default), the non-iterative baseline, or the exact "
            "optimality oracle ('smt'; proves its II minimal)",
        )
        p.add_argument(
            "--ii-search",
            choices=sorted(POLICIES),
            default="linear",
            help="II-search policy for MIRS-C (default: the paper's "
            "linear restart ladder)",
        )
        p.add_argument(
            "--speculation",
            type=positive_int,
            default=None,
            metavar="K",
            help="race K candidate IIs concurrently (default: "
            "$REPRO_SPECULATION or 1, the serial search; results are "
            "identical for every K)",
        )
        p.add_argument("--move-latency", type=int, default=1)
        p.add_argument(
            "--buses",
            type=lambda v: None if v == "inf" else int(v),
            default=2,
            help="inter-cluster buses ('inf' for unbounded)",
        )
        p.add_argument(
            "--trace",
            default=None,
            metavar="PATH",
            help="record a structured trace of the run to PATH (JSONL; "
            "a Perfetto-loadable .chrome.json sibling is written too); "
            "inspect it with 'repro trace summary PATH'",
        )

    def source_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--source",
            default=None,
            metavar="PATH",
            help="schedule a real source loop instead: a file for a "
            "registered frontend parser, or a corpus kernel name "
            "(see 'repro frontend show')",
        )
        p.add_argument(
            "--kernel",
            default=None,
            metavar="NAME",
            help="kernel (function) to pick when --source defines several",
        )

    schedule = sub.add_parser("schedule", help="schedule one loop")
    common(schedule)
    schedule.add_argument(
        "--loop",
        type=workbench_index,
        default=None,
        help="workbench loop index (omit for the built-in DAXPY demo)",
    )
    source_options(schedule)
    schedule.add_argument(
        "--code", action="store_true", help="also emit the VLIW code"
    )
    schedule.set_defaults(func=_cmd_schedule)

    simulate = sub.add_parser(
        "simulate",
        help="execute a loop's generated code on the cycle simulator",
    )
    common(simulate)
    simulate.add_argument(
        "--loop",
        type=workbench_index,
        default=None,
        help="workbench loop index (omit for the built-in DAXPY demo)",
    )
    source_options(simulate)
    simulate.add_argument(
        "--iterations",
        type=positive_int,
        default=100,
        help="loop iterations to execute (rounded up to whole kernel passes)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    analyze = sub.add_parser(
        "analyze",
        help="statically certify the generated code of a workbench subset",
    )
    common(analyze)
    analyze.add_argument(
        "--loops",
        type=workbench_count,
        default=16,
        help="number of workbench loops to certify (default: 16)",
    )
    analyze.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: $REPRO_JOBS or 1; 0 = all usable CPUs)",
    )
    analyze.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk schedule-result cache",
    )
    analyze.set_defaults(func=_cmd_analyze)

    compare = sub.add_parser("compare", help="MIRS-C vs the baseline [31]")
    common(compare)
    compare.add_argument("--loops", type=workbench_count, default=8)
    compare.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: $REPRO_JOBS or 1; 0 = all usable CPUs)",
    )
    compare.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk schedule-result cache",
    )
    compare.set_defaults(func=_cmd_compare)

    frontend = sub.add_parser(
        "frontend", help="parse, inspect and validate real source loops"
    )
    frontend_sub = frontend.add_subparsers(
        dest="frontend_command", required=True
    )
    frontend_show = frontend_sub.add_parser(
        "show",
        help="print the analyzed IR of one kernel (or the corpus table)",
    )
    frontend_show.add_argument(
        "source",
        nargs="?",
        default=None,
        help="source file or corpus kernel name (omit to list the corpus "
        "and the parser)",
    )
    frontend_show.add_argument(
        "--kernel",
        default=None,
        metavar="NAME",
        help="kernel (function) to pick when the source defines several",
    )
    frontend_show.add_argument(
        "--config",
        default="2-(GP4M2-REG32)",
        help="machine configuration for the MII breakdown",
    )
    frontend_show.set_defaults(func=_cmd_frontend_show)

    frontend_run = frontend_sub.add_parser(
        "run",
        help="schedule, certify and differentially validate source kernels",
    )
    common(frontend_run)
    frontend_run.add_argument(
        "kernels",
        nargs="*",
        metavar="KERNEL",
        help="corpus kernel names or source files (default: the whole "
        "corpus)",
    )
    frontend_run.add_argument(
        "--iterations",
        type=positive_int,
        default=40,
        help="loop iterations for the differential runs (default: 40)",
    )
    frontend_run.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: $REPRO_JOBS or 1; 0 = all usable CPUs)",
    )
    frontend_run.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk schedule-result cache",
    )
    frontend_run.set_defaults(func=_cmd_frontend_run)

    suite = sub.add_parser("suite", help="workbench statistics")
    suite.add_argument("--loops", type=workbench_count, default=60)
    suite.set_defaults(func=_cmd_suite)

    technology = sub.add_parser(
        "technology", help="Figure 2 technology table"
    )
    technology.set_defaults(func=_cmd_technology)

    trace = sub.add_parser(
        "trace", help="inspect structured traces (see --trace / REPRO_TRACE)"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary",
        help="validate a JSONL trace and print per-phase / per-attempt "
        "breakdowns",
    )
    trace_summary.add_argument("path", help="JSONL trace file")
    trace_summary.set_defaults(func=_cmd_trace_summary)

    cache = sub.add_parser("cache", help="inspect or clear the result cache")
    cache.add_argument(
        "--dir",
        default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    cache.add_argument(
        "--clear", action="store_true", help="delete every cached result"
    )
    cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FrontendError, ConvergenceError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
