"""Ablation: the spill heuristic's gauges (SG, MSG, DG) and BudgetRatio.

The paper fixes SG=2, MSG=4, DG=4 and defers the sensitivity study to
[33]; this benchmark regenerates that study on the workbench.  Expected
shape: SG=1 spills eagerly (more traffic, sometimes lower II), very large
SG postpones all spilling until the schedule is complete (fewer chances
to recover, higher II on tight register files); MSG/DG mostly trade
traffic against schedule freedom.
"""

from conftest import loops_for

from repro.core.params import MirsParams
from repro.core.request import ScheduleRequest
from repro.eval.reporting import render_table
from repro.eval.runner import schedule_suite
from repro.machine.config import paper_configuration
from repro.workloads.perfect import cached_suite


def _sweep(loops, executor=None):
    machine = paper_configuration(4, 16)
    variants = [
        ("paper (SG=2 MSG=4 DG=4 BR=3)", MirsParams()),
        ("SG=1 (eager spill)", MirsParams(spill_gauge=1.0)),
        ("SG=8 (late spill)", MirsParams(spill_gauge=8.0)),
        ("MSG=1", MirsParams(min_span_gauge=1)),
        ("MSG=12", MirsParams(min_span_gauge=12)),
        ("DG=1", MirsParams(distance_gauge=1)),
        ("DG=16", MirsParams(distance_gauge=16)),
        ("BR=1 (tiny budget)", MirsParams(budget_ratio=1)),
        ("BR=6 (double budget)", MirsParams(budget_ratio=6)),
    ]
    rows = []
    for label, params in variants:
        run = schedule_suite(
            machine, loops, ScheduleRequest(params=params), session=executor
        )
        rows.append(
            [
                label,
                run.sum_ii(),
                run.sum_traffic(),
                sum(r.spill_operations for r in run.converged),
                run.not_converged_count,
                round(run.sum_scheduling_seconds(), 2),
            ]
        )
    return rows


def test_ablation_gauges(benchmark, table_sink, executor):
    loops = cached_suite(loops_for(10))
    rows = benchmark.pedantic(
        _sweep, args=(loops, executor), rounds=1, iterations=1
    )
    headers = [
        "variant", "sum II", "sum trf", "spill ops",
        "not cnvr", "sched time (s)",
    ]
    text = render_table(
        f"Ablation: spill gauges on 4-(GP2M1-REG16) ({len(loops)} loops)",
        headers,
        rows,
        "Paper defaults should sit at or near the best sum II; eager "
        "spilling (SG=1) buys little II for noticeably more traffic.",
    )
    table_sink("ablation_gauges", text)
    assert len(rows) == 9
