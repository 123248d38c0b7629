"""Ablation: single-victim ejection vs eject-all (Section 3.2.2).

MIRS-C ejects only one node per resource conflict - the one placed
first - where earlier iterative schedulers [6, 16, 28] eject every
conflicting operation.  Expected shape: eject-all discards more useful
work per forcing, burning budget faster and ending at equal-or-worse
IIs, especially on the clustered machines where move reservations make
conflicts frequent.
"""

from conftest import loops_for

from repro.core.params import MirsParams
from repro.core.request import ScheduleRequest
from repro.eval.reporting import render_table
from repro.eval.runner import schedule_suite
from repro.machine.config import paper_configuration
from repro.workloads.perfect import cached_suite


def _sweep(loops, executor=None):
    rows = []
    for k in (2, 4):
        machine = paper_configuration(k, 32)
        for label, params in (
            ("single victim (paper)", MirsParams()),
            ("eject all [6,16,28]", MirsParams(eject_all=True)),
        ):
            run = schedule_suite(
                machine, loops, ScheduleRequest(params=params),
                session=executor,
            )
            rows.append(
                [
                    k,
                    label,
                    run.sum_ii(),
                    sum(r.stats.ejections for r in run.results),
                    round(run.sum_scheduling_seconds(), 2),
                ]
            )
    return rows


def test_ablation_ejection(benchmark, table_sink, executor):
    loops = cached_suite(loops_for(10))
    rows = benchmark.pedantic(
        _sweep, args=(loops, executor), rounds=1, iterations=1
    )
    headers = ["k", "policy", "sum II", "ejections", "sched time (s)"]
    text = render_table(
        f"Ablation: ejection policy ({len(loops)} loops)",
        headers,
        rows,
        "The paper's single-victim policy should need no more ejections "
        "and reach an equal or lower sum II.",
    )
    table_sink("ablation_ejection", text)
    assert len(rows) == 4
