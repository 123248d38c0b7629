"""Integration tests for the experiment drivers (tiny suites).

These run each table/figure driver end-to-end on a handful of loops and
pin the qualitative shapes the paper reports; the benchmarks rerun them
at larger scale.
"""

import pytest

from repro.eval.experiments import (
    figure2_rows,
    figure5_rows,
    figure6_rows,
    figure7_rows,
    simulator_rows,
    table1_rows,
    table2_rows,
    table3_rows,
)
from repro.eval.reporting import render_table
from repro.core.request import ScheduleRequest
from repro.eval.runner import schedule_suite
from repro.machine.config import paper_configuration
from repro.workloads.perfect import cached_suite

LOOPS = cached_suite(4)


class TestRunner:
    def test_schedule_suite_mirsc(self):
        run = schedule_suite(paper_configuration(2, 64), LOOPS)
        assert len(run.results) == len(LOOPS)
        assert run.not_converged_count == 0
        assert run.sum_ii() > 0
        assert run.sum_cycles() > 0

    def test_schedule_suite_baseline(self):
        run = schedule_suite(
            paper_configuration(2, None), LOOPS,
            ScheduleRequest(scheduler="baseline"),
        )
        assert run.sum_ii(run.converged_indices()) == run.sum_ii()

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            schedule_suite(
                paper_configuration(1, 64), LOOPS,
                ScheduleRequest(scheduler="magic"),
            )


class TestTableDrivers:
    def test_figure2_shape(self):
        headers, rows, note = figure2_rows()
        assert len(rows) == 12
        assert len(headers) == len(rows[0])

    def test_table1_shape(self):
        headers, rows, _ = table1_rows(
            LOOPS, clusters=(1, 2), move_latencies=(1,)
        )
        assert len(rows) == 2
        for row in rows:
            assert row[2] == len(LOOPS)
            # not-different + different <= loops
            assert row[3] + row[4] <= len(LOOPS)

    def test_table2_shape(self):
        headers, rows, _ = table2_rows(
            LOOPS, clusters=(2,), move_latencies=(1,)
        )
        (row,) = rows
        assert row[0] == 2
        assert row[6] <= 1.0 or row[3] == 0  # II ratio

    def test_table3_shape(self):
        headers, rows, _ = table3_rows(LOOPS, move_latencies=(1,))
        assert len(rows) == 6
        for row in rows:
            assert row[3] >= 0 and row[4] >= 0

    def test_figure5_shape(self):
        headers, rows, _ = figure5_rows(
            LOOPS,
            clusters=(1, 2),
            registers=(32, 64),
            move_latencies=(1,),
        )
        assert len(rows) == 4
        for row in rows:
            assert row[3] > 0 and row[5] > 0

    def test_figure6_speedup_reference(self):
        headers, rows, _ = figure6_rows(
            LOOPS, clusters=(1, 2), bus_counts=(2,)
        )
        assert rows[0][3] == 1.0  # k=1 is its own reference

    def test_figure7_modes(self):
        headers, rows, _ = figure7_rows(LOOPS, configs=((1, 64),))
        modes = {row[0] for row in rows}
        assert modes == {"normal", "prefetch"}
        normal = [r for r in rows if r[0] == "normal"][0]
        prefetch = [r for r in rows if r[0] == "prefetch"][0]
        assert prefetch[4] <= normal[4] + 1e-9  # stall component shrinks

    def test_simulator_rows_measured_vs_analytic(self):
        headers, rows, _ = simulator_rows(
            LOOPS[:2], configs=("1-(GP8M4-REG64)",), iterations=20
        )
        assert len(headers) == len(rows[0])
        for row in rows:
            useful_sim = row[headers.index("useful sim")]
            useful_model = row[headers.index("useful model")]
            assert useful_sim == useful_model
            assert row[-1] == "ok"


class TestReporting:
    def test_render_table_basics(self):
        text = render_table(
            "Title", ["a", "b"], [[1, 2.5], ["x", 10_000.0]], "note"
        )
        assert "Title" in text
        assert "=====" in text
        assert "note" in text
        assert "10,000" in text

    def test_render_empty_rows(self):
        text = render_table("Empty", ["col"], [])
        assert "Empty" in text
