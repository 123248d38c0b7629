"""Integration tests: MIRS-C across the paper's configuration matrix."""

import pytest

from repro import (
    MirsC,
    MirsParams,
    Mirs,
    SchedulingError,
    verify_schedule,
)
from repro.machine.config import paper_configuration, scalability_configuration
from repro.workloads.perfect import cached_suite

LOOPS = cached_suite(6)


@pytest.mark.parametrize("clusters", [1, 2, 4])
@pytest.mark.parametrize("registers", [32, None])
def test_matrix_converges_and_verifies(clusters, registers):
    machine = paper_configuration(clusters, registers)
    for loop in LOOPS:
        result = MirsC(machine).schedule(loop.graph)
        assert result.converged
        violations = verify_schedule(
            result.graph,
            machine,
            result.ii,
            result.times,
            result.clusters,
            result.register_usage,
        )
        assert violations == [], f"{loop.graph.name}: {violations[:3]}"


@pytest.mark.parametrize("move_latency", [1, 3])
def test_move_latency_variants(move_latency):
    machine = paper_configuration(4, 32, move_latency=move_latency)
    for loop in LOOPS[:3]:
        result = MirsC(machine).schedule(loop.graph)
        assert result.converged


def test_bus_starved_machine_still_converges():
    machine = scalability_configuration(8, buses=1)
    result = MirsC(machine).schedule(LOOPS[0].graph)
    assert result.converged


def test_unbounded_buses():
    machine = scalability_configuration(8, buses=None)
    result = MirsC(machine).schedule(LOOPS[0].graph)
    assert result.converged


def test_register_constraint_is_hard():
    machine = paper_configuration(4, 16)
    for loop in LOOPS:
        result = MirsC(machine).schedule(loop.graph)
        assert result.converged
        assert all(used <= 16 for used in result.register_usage.values())


def test_spills_only_when_constrained():
    roomy = paper_configuration(1, 128)
    for loop in LOOPS[:3]:
        result = MirsC(roomy).schedule(loop.graph)
        assert result.spill_operations == 0 or result.max_live[0] > 64


def test_execution_cycles_account_for_pipeline_fill():
    machine = paper_configuration(1, 64)
    result = MirsC(machine).schedule(LOOPS[0].graph)
    expected = result.ii * (result.trip_count + result.stage_count - 1)
    assert result.execution_cycles == expected


def test_mirs_alias_requires_single_cluster():
    with pytest.raises(SchedulingError):
        Mirs(paper_configuration(2, 64))
    result = Mirs(paper_configuration(1, 64)).schedule(LOOPS[0].graph)
    assert result.converged


def test_moves_appear_only_on_clustered_machines():
    unified = paper_configuration(1, 64)
    clustered = paper_configuration(4, 64)
    for loop in LOOPS[:3]:
        assert MirsC(unified).schedule(loop.graph).move_operations == 0
    assert any(
        MirsC(clustered).schedule(loop.graph).move_operations > 0
        for loop in LOOPS
    )


def test_summary_is_printable():
    result = MirsC(paper_configuration(2, 64)).schedule(LOOPS[0].graph)
    summary = result.summary()
    assert "II=" in summary and "ok" in summary


def test_custom_params_accepted():
    params = MirsParams(
        budget_ratio=2, spill_gauge=1.5, min_span_gauge=2, distance_gauge=8
    )
    machine = paper_configuration(2, 32)
    result = MirsC(machine, params=params).schedule(LOOPS[0].graph)
    assert result.converged


class TestIncrementalAllocatorEquivalence:
    """Differential coverage of the incremental arc-colouring engine:
    whole-run schedules must reproduce the committed pre-engine
    (batch-allocator) fingerprint capture bit for bit."""

    FINGERPRINTS = None

    @classmethod
    def _fingerprints(cls):
        if cls.FINGERPRINTS is None:
            import json
            import pathlib

            cls.FINGERPRINTS = json.loads(
                (
                    pathlib.Path(__file__).parent
                    / "data"
                    / "workbench_fingerprints.json"
                ).read_text()
            )
        return cls.FINGERPRINTS

    @pytest.mark.parametrize(
        "config", ["1-(GP8M4-REG64)", "4-(GP2M1-REG32)"]
    )
    def test_workbench_fingerprints_with_allocator_engine(self, config):
        from repro.exec import result_fingerprint
        from repro.machine.config import parse_config
        from repro.workloads.perfect import cached_suite

        expected = self._fingerprints()[config]
        machine = parse_config(config)
        mismatched = [
            loop.graph.name
            for loop in cached_suite(16)
            if result_fingerprint(
                MirsC(machine, strict=False).schedule(loop.graph)
            )
            != expected[loop.graph.name]
        ]
        assert mismatched == []

    def test_differential_validation_on_incremental_path(self):
        """repro.sim end-to-end: code generated from schedules produced
        with the incremental allocator executes bit-identically to the
        scalar reference interpreter."""
        from repro.sim import run_differential
        from repro.workloads.perfect import cached_suite

        machine = paper_configuration(4, 32)
        for loop in cached_suite(3):
            result = MirsC(machine).schedule(loop.graph)
            report = run_differential(result, 17)
            assert report.match, report.summary()


class TestPaperScaleRegressions:
    """Latent bugs surfaced by the first full 1258-loop nightly sweep
    (the 16-loop subset never hits them).  Built-in verification always
    runs, so a regression raises ``SchedulingError`` rather than asserting."""

    @staticmethod
    def _paper_loop(name):
        from repro.workloads.perfect import cached_suite

        return next(
            loop.graph
            for loop in cached_suite(1258)
            if loop.graph.name == name
        )

    def test_unpipelined_div_packing_verifies(self):
        """divheavy1070@x2: a *valid* packing of 17-cycle unpipelined
        divides used to be rejected by the verifier's order-dependent
        first-fit replay (the exact instance-assignment check accepts
        it; see also tests/test_verify.py)."""
        graph = self._paper_loop("divheavy1070@x2")
        for clusters, registers in ((1, 64), (4, 32)):
            machine = paper_configuration(clusters, registers)
            result = MirsC(machine).schedule(graph.clone())
            assert result.converged

    def test_move_with_consumers_replaced_across_clusters(self):
        """reduction512@x2 on the clustered machine: consumers of an
        off-schedule move re-placed into different clusters used to be
        collapsed onto one destination - removal then reconnected a
        foreign-cluster consumer straight to the producer (cross-cluster
        read) with a violated merged edge."""
        graph = self._paper_loop("reduction512@x2")
        result = MirsC(paper_configuration(4, 32)).schedule(graph.clone())
        assert result.converged


def test_mirs_forwards_strict():
    """Regression: ``Mirs(machine, strict=False)`` used to be a
    ``TypeError`` (the kwarg was silently dropped from the signature),
    so single-cluster ablation runs could not opt out of
    ``ConvergenceError``."""
    from repro import ConvergenceError
    from tests.helpers import wide

    machine = paper_configuration(1, 64)
    starved = MirsParams(max_ii=1)  # wide(8) needs II >= 4: cannot converge
    graph = wide(8)

    result = Mirs(machine, params=starved, strict=False).schedule(graph)
    assert not result.converged
    assert result.ii == 1  # the cap it gave up at

    with pytest.raises(ConvergenceError):
        Mirs(machine, params=starved).schedule(graph)  # strict by default
