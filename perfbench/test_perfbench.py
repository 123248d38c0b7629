"""Tests of the benchmark itself (run with ``python -m pytest perfbench``).

Tiny runs of every workload must emit exactly the metrics and units
``BENCHMARK.json`` declares, repeat their deterministic counts exactly,
and survive an injected failing pair.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import harness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: A cheap subset of each workload's population: (workload, pair labels).
TINY = {
    "workbench": ("reduction471@1-(GP8M4-REG64)", "reduction471@4-(GP2M1-REG32)"),
    "stress": ("stress6@1-(GP8M4-REG64)",),
    "corpus": ("saxpy@1-(GP8M4-REG64)", "fir4@4-(GP2M1-REG32)"),
    "oracle": ("dot@1-(GP8M4-REG64)", "stencil629@1-(GP8M4-REG64)"),
}


@pytest.fixture(scope="module")
def tiny_pairs():
    pairs = {}
    for name, labels in TINY.items():
        workload = harness.WORKLOADS[name]
        population, _ = harness.build_pairs(workload, workload.population_seed, repeats=1)
        by_label = {pair.label: pair for pair in population}
        pairs[name] = [by_label[label] for label in labels]
    return pairs


def _units(report) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in report["metrics"].items()}


def test_workloads_match_the_declaration():
    assert sorted(harness.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])
    assert SPEC["command"][-1] == "perfbench/run.py"


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_emits_every_metric_with_its_unit(name, tiny_pairs):
    workload = harness.WORKLOADS[name]
    untraced = harness.run_untraced(workload, tiny_pairs[name], 0.5, seed=3, seconds=0)
    assert _units(untraced) == END_TO_END
    assert untraced["failed"] == 0
    assert all(metric["value"] > 0 for metric in untraced["metrics"].values())

    first = harness.run_traced(workload, tiny_pairs[name], seed=3, trace_dir=None)
    second = harness.run_traced(workload, tiny_pairs[name], seed=4, trace_dir=None)
    assert _units(first) == PER_LAYER
    assert first["neutral"] and second["neutral"]
    counts = {
        metric for metric, unit in PER_LAYER.items() if unit in ("count", "cycles")
    }
    for metric in counts:
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric


def test_quality_sums_do_not_depend_on_the_run_seed(tiny_pairs):
    workload = harness.WORKLOADS["workbench"]
    deterministic = ("sum_ii", "exec_cycles", "mem_traffic", "code_size", "ok_frac",
                     "proven_frac")
    runs = [
        harness.run_untraced(workload, tiny_pairs["workbench"], 0.5, seed, seconds=0)
        for seed in (1, 2)
    ]
    for metric in deterministic:
        assert runs[0]["metrics"][metric] == runs[1]["metrics"][metric]


def test_failing_certifier_is_counted_and_the_run_carries_on(tiny_pairs, monkeypatch):
    certify = harness.analysis.certify_code
    victim = "saxpy"

    def sabotaged(code, result):
        report = certify(code, result)
        if result.loop == victim:
            return dataclasses.replace(report, violations=("injected",))
        return report

    monkeypatch.setattr(harness.analysis, "certify_code", sabotaged)
    workload = harness.WORKLOADS["corpus"]
    report = harness.run_untraced(workload, tiny_pairs["corpus"], 0.5, seed=1, seconds=0)
    passes = workload.min_passes
    assert report["attempted"] == 2 * passes
    assert report["failed"] == passes
    assert report["info"]["failures"] == {"certify": ["saxpy@1-(GP8M4-REG64)"]}
    assert report["metrics"]["ok_frac"]["value"] == 0.5


def test_raising_loop_is_counted_and_the_run_carries_on(tiny_pairs):
    workload = harness.WORKLOADS["workbench"]
    good = tiny_pairs["workbench"][0]
    broken = dataclasses.replace(good, name="broken", graph="not a graph")
    report = harness.run_untraced(workload, [broken, good], 0.5, seed=1, seconds=0)
    assert report["failed"] == workload.min_passes
    (reason,) = report["info"]["failures"]
    assert reason.startswith("exception:")
    assert report["metrics"]["sum_ii"]["value"] > 0


def _run_cli(cwd: Path, env: dict[str, str]):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "5",
         "--seconds", "0", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_the_result_line_and_ignores_program_knobs(tmp_path):
    trace_file = tmp_path / "trace.jsonl"
    env = dict(os.environ, REPRO_SPECULATION="4", REPRO_TRACE=str(trace_file),
               REPRO_JOBS="2", REPRO_STATIC_CERTIFY="1")
    done = _run_cli(ROOT, env)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert _units(result) == END_TO_END
    assert not trace_file.exists()


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = _run_cli(tmp_path, env)
    assert done.returncode != 0
    assert done.stdout == ""
