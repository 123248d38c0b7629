"""Tests for the pluggable II-search policy API (repro.core.search).

Pins the PR's contract:

* the default ``LinearSearch`` reproduces the pre-policy scheduler
  bit-for-bit — fingerprints are compared against a file captured from
  the hardwired-ladder driver on the 16-loop workbench (both machine
  configurations);
* the geometric jump policy finds linear's II (its documented bound)
  on the workbench and the stress seeds;
* every result carries the full ``(ii, outcome)`` search trace;
* the policy participates in the exec cache keys: same policy + inputs
  is a warm hit, a different policy is a miss.
"""

import functools
import json
import pathlib

import pytest

from repro import (
    AttemptOutcome,
    ConfigError,
    ConvergenceError,
    GeometricPressureSearch,
    IISearchPolicy,
    LinearSearch,
    MirsC,
    MirsParams,
    OutcomeKind,
    ScheduleRequest,
)
from repro.core.mirsc import Mirs
from repro.core.params import final_round_cap
from repro.core.search import POLICIES, canonical_search, make_policy
from repro.exec import ResultCache, SuiteExecutor, cache_key, result_fingerprint
from repro.machine.config import parse_config
from repro.workloads.perfect import cached_suite
from repro.workloads.stress import stress_suite

FINGERPRINTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "workbench_fingerprints.json")
    .read_text()
)
CONFIGS = tuple(sorted(FINGERPRINTS))


@functools.lru_cache(maxsize=None)
def linear_suite(config: str):
    """Linear-search results for the 16-loop workbench on one config."""
    machine = parse_config(config)
    engine = MirsC(machine, strict=False)
    return {
        loop.graph.name: engine.schedule(loop.graph)
        for loop in cached_suite(16)
    }


@functools.lru_cache(maxsize=None)
def stress_results(search: str, index: int):
    machine = parse_config("1-(GP8M4-REG64)")
    graph = stress_suite(index + 1)[index]
    return MirsC(
        machine, params=MirsParams(ii_search=search), strict=False
    ).schedule(graph)


def outcome(ii=10, kind=OutcomeKind.BUDGET_EXHAUSTED, deficit=0, **kw):
    return AttemptOutcome(
        ii=ii,
        kind=kind,
        pressure_deficit={0: deficit} if deficit else {},
        registers_available=64,
        suggested_ii=kw.pop("suggested_ii", ii + 1),
        **kw,
    )


# ----------------------------------------------------------------------
# Acceptance: the default policy is bit-identical to the pre-PR driver
# ----------------------------------------------------------------------


class TestLinearEquivalence:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_workbench_fingerprints_match_pre_policy_capture(self, config):
        expected = FINGERPRINTS[config]
        results = linear_suite(config)
        assert set(results) == set(expected)
        mismatched = [
            name
            for name, result in results.items()
            if result_fingerprint(result) != expected[name]
        ]
        assert mismatched == []

    def test_explicit_linear_equals_default(self):
        machine = parse_config(CONFIGS[0])
        loop = cached_suite(1)[0]
        default = MirsC(machine).schedule(loop.graph)
        explicit = MirsC(
            machine, params=MirsParams(ii_search="linear")
        ).schedule(loop.graph)
        instance = MirsC(
            machine, params=MirsParams(ii_search=LinearSearch())
        ).schedule(loop.graph)
        assert result_fingerprint(default) == result_fingerprint(explicit)
        assert result_fingerprint(default) == result_fingerprint(instance)

    def test_search_trace_recorded(self):
        machine = parse_config(CONFIGS[0])
        result = MirsC(machine).schedule(cached_suite(2)[1].graph)
        trace = result.stats.search_trace
        assert trace, "every result must carry its search trace"
        assert trace[-1]["kind"] == "scheduled"
        assert trace[-1]["ii"] == result.ii
        assert [e["ii"] for e in trace] == sorted(e["ii"] for e in trace)
        assert result.restarts == len(trace) - 1
        for entry in trace:
            assert set(entry) == {
                "ii", "kind", "deficit", "budget_left", "suggested_ii",
                "final_rounds", "on_path",
            }
            assert entry["on_path"] is True


# ----------------------------------------------------------------------
# Documented convergence bounds of the jump policies
# ----------------------------------------------------------------------


class TestPolicyBounds:
    """The documented bounds (see README "Choosing an II search policy").

    Geometric: same convergence verdict and the *same II* as linear —
    its jumps approach the first feasible II strictly from below.
    """

    @pytest.mark.parametrize("config", CONFIGS)
    def test_geometric_matches_linear_on_workbench(self, config):
        machine = parse_config(config)
        engine = MirsC(
            machine, params=MirsParams(ii_search="geometric"), strict=False
        )
        for loop in cached_suite(16):
            lin = linear_suite(config)[loop.graph.name]
            geo = engine.schedule(loop.graph)
            assert (geo.converged, geo.ii) == (lin.converged, lin.ii), (
                loop.graph.name
            )

    @pytest.mark.parametrize("index", [0, 3])
    def test_geometric_exact_on_stress_seeds(self, index):
        lin = stress_results("linear", index)
        geo = stress_results("geometric", index)
        assert geo.converged == lin.converged
        assert geo.ii == lin.ii
        assert len(geo.stats.search_trace) <= len(lin.stats.search_trace)

    def test_geometric_cuts_stress0_attempts(self):
        lin = stress_results("linear", 0)
        geo = stress_results("geometric", 0)
        # ~147 linear attempts on stress0; the deficit jumps cut >2/3.
        assert len(geo.stats.search_trace) <= len(lin.stats.search_trace) // 3

# ----------------------------------------------------------------------
# Satellite: stress2 is cleanly reported, and the round cap is a param
# ----------------------------------------------------------------------


class TestStress2AndRoundCap:
    def test_stress2_cleanly_non_converged_with_outcome_kinds(self):
        """stress2's pressure floor exceeds AR at every II in range: the
        search must end as a clean non-convergence whose trace names a
        register-bound failure kind for the final attempts (not a crash,
        not an II=cap mystery)."""
        result = stress_results("geometric", 2)
        lin = stress_results("linear", 2)
        assert result.converged == lin.converged  # no policy regression
        if not result.converged:
            trace = result.stats.search_trace
            assert trace
            assert result.restarts == len(trace)
            kinds = {entry["kind"] for entry in trace}
            assert "scheduled" not in kinds
            assert kinds & {"round-cap", "registers", "budget"}
            # The register-bound failures carry the measured deficit.
            assert any(
                entry["deficit"] for entry in trace
                if entry["kind"] in ("round-cap", "registers")
            )

    def test_strict_mode_still_raises(self):
        machine = parse_config("1-(GP8M4-REG64)")
        graph = stress_suite(3)[2]
        with pytest.raises(ConvergenceError):
            MirsC(
                machine, params=MirsParams(ii_search="geometric")
            ).schedule(graph)

    def test_round_cap_param(self):
        assert final_round_cap(1, 16) == 3 + 8 + 2
        assert final_round_cap(4, 320) == 12 + 8 + 40
        # Scales with the loop, never below the historical constant.
        assert final_round_cap(2, 0) == 3 * 2 + 8


# ----------------------------------------------------------------------
# Acceptance: the policy participates in exec cache keys
# ----------------------------------------------------------------------


class TestCacheKeys:
    MACHINE = parse_config("2-(GP4M2-REG32)")

    def test_policy_changes_key(self):
        graph = cached_suite(1)[0].graph
        keys = {
            cache_key(graph, self.MACHINE, MirsParams(ii_search=name), "mirsc")
            for name in POLICIES
        }
        assert len(keys) == len(POLICIES)
        # Default == explicit linear (no spurious cache split).
        assert cache_key(graph, self.MACHINE, None, "mirsc") == cache_key(
            graph, self.MACHINE, MirsParams(ii_search="linear"), "mirsc"
        )

    def test_policy_parameters_change_key(self):
        graph = cached_suite(1)[0].graph
        base = cache_key(
            graph, self.MACHINE, MirsParams(ii_search="geometric"), "mirsc"
        )
        tuned = cache_key(
            graph,
            self.MACHINE,
            MirsParams(ii_search=GeometricPressureSearch(jump_fraction=0.5)),
            "mirsc",
        )
        assert base != tuned
        # ...but an instance with default parameters aliases the name.
        assert base == cache_key(
            graph,
            self.MACHINE,
            MirsParams(ii_search=GeometricPressureSearch()),
            "mirsc",
        )

    def test_parallel_equals_sequential_under_policy(self):
        """Policy objects ship to worker processes with the params."""
        from repro.eval.runner import schedule_suite

        loops = cached_suite(3)
        request = ScheduleRequest(params=MirsParams(ii_search="geometric"))
        seq = schedule_suite(
            self.MACHINE, loops, request, session=SuiteExecutor(jobs=1)
        )
        par = schedule_suite(
            self.MACHINE, loops, request, session=SuiteExecutor(jobs=2)
        )
        assert [result_fingerprint(r) for r in seq.results] == [
            result_fingerprint(r) for r in par.results
        ]

    def test_same_policy_warm_hit_different_policy_miss(self, tmp_path):
        loops = cached_suite(2)
        cache = ResultCache(tmp_path)
        linear = ScheduleRequest(params=MirsParams(ii_search="linear"))
        geometric = ScheduleRequest(params=MirsParams(ii_search="geometric"))

        cold = SuiteExecutor(cache=cache)
        cold.run(self.MACHINE, loops, linear)
        assert cold.stats.scheduled == len(loops)

        warm = SuiteExecutor(cache=cache)
        warm.run(self.MACHINE, loops, linear)
        assert warm.stats.scheduled == 0
        assert warm.stats.cache_hits == len(loops)

        other = SuiteExecutor(cache=cache)
        other.run(self.MACHINE, loops, geometric)
        assert other.stats.cache_hits == 0
        assert other.stats.scheduled == len(loops)


# ----------------------------------------------------------------------
# Policy unit tests (synthetic outcomes, no scheduling)
# ----------------------------------------------------------------------


class TestPolicyUnits:
    def test_registry_and_factory(self):
        assert set(POLICIES) == {"linear", "geometric"}
        for name, cls in POLICIES.items():
            policy = make_policy(name)
            assert isinstance(policy, cls)
            assert isinstance(policy, IISearchPolicy)
            assert policy.canonical()["name"] == name
        instance = GeometricPressureSearch(jump_fraction=0.5)
        assert make_policy(instance) is instance
        assert canonical_search("geometric") == {
            "name": "geometric", "jump_fraction": 0.25, "tail_deficit": 40,
        }
        with pytest.raises(ConfigError):
            make_policy("simulated-annealing")
        with pytest.raises(ConfigError):
            make_policy(42)
        with pytest.raises(ConfigError):
            MirsParams(ii_search="nope")

    def test_policy_parameter_validation(self):
        with pytest.raises(ConfigError):
            GeometricPressureSearch(jump_fraction=0.0)
        with pytest.raises(ConfigError):
            GeometricPressureSearch(tail_deficit=0)

    def test_linear_ladder(self):
        policy = LinearSearch()
        assert policy.first_ii(7, 10) == 7
        assert policy.next_ii(outcome(ii=7)) == 8
        # Traffic failures skip to the scheduler's suggestion.
        assert policy.next_ii(
            outcome(ii=8, kind=OutcomeKind.TRAFFIC_INFEASIBLE, suggested_ii=10)
        ) == 10
        assert policy.next_ii(
            outcome(ii=10, kind=OutcomeKind.SCHEDULED)
        ) is None
        assert policy.next_ii(outcome(ii=10)) is None  # cap reached

    def test_geometric_jumps_then_latches(self):
        policy = GeometricPressureSearch(jump_fraction=0.25, tail_deficit=40)
        assert policy.first_ii(100, 1000) == 100
        # Large deficit: jump min(deficit, ceil(ii/4)).
        assert policy.next_ii(
            outcome(ii=100, kind=OutcomeKind.ROUND_CAP, deficit=60)
        ) == 125
        # Jump capped by ceil(ii * fraction).
        assert policy.next_ii(
            outcome(ii=125, kind=OutcomeKind.ROUND_CAP, deficit=41)
        ) == 157
        # Jump never exceeds the deficit itself.
        assert policy.next_ii(
            outcome(ii=160, kind=OutcomeKind.ROUND_CAP, deficit=40)
        ) == 200
        # Small deficit latches the +1 tail...
        assert policy.next_ii(
            outcome(ii=200, kind=OutcomeKind.ROUND_CAP, deficit=39)
        ) == 201
        # ...permanently, even if the deficit bounces back up.
        assert policy.next_ii(
            outcome(ii=201, kind=OutcomeKind.ROUND_CAP, deficit=60)
        ) == 202

    def test_geometric_backfills_skipped_iis_before_giving_up(self):
        policy = GeometricPressureSearch()
        assert policy.first_ii(10, 16) == 10
        assert policy.next_ii(outcome(ii=10, deficit=50)) == 13  # jump
        assert policy.next_ii(outcome(ii=13, deficit=5)) == 14  # latch
        assert policy.next_ii(outcome(ii=14, deficit=0)) == 15
        assert policy.next_ii(outcome(ii=15, deficit=0)) == 16
        # Ladder exhausted: the jumped-over 11 and 12 are probed,
        # nearest-first, so a jump can never cost a convergence.
        assert policy.next_ii(outcome(ii=16, deficit=0)) == 12
        assert policy.next_ii(outcome(ii=12, deficit=0)) == 11
        assert policy.next_ii(outcome(ii=11, deficit=0)) is None

    def test_first_ii_resets_state(self):
        policy = GeometricPressureSearch()
        policy.first_ii(10, 11)
        assert policy.next_ii(outcome(ii=10, deficit=5)) == 11  # latched
        assert policy.next_ii(outcome(ii=11, deficit=5)) is None  # backfill
        # A new search forgets the latch, the backfill and the issued
        # IIs: a large deficit jumps again.
        assert policy.first_ii(100, 1000) == 100
        assert policy.next_ii(outcome(ii=100, deficit=60)) == 125

    def test_outcome_helpers(self):
        o = outcome(ii=9, kind=OutcomeKind.ROUND_CAP, deficit=7)
        assert o.kind.is_register_bound
        assert not o.scheduled
        assert o.max_deficit == 7
        entry = o.as_trace_entry()
        assert entry["ii"] == 9 and entry["kind"] == "round-cap"
        assert json.dumps(entry)  # JSON-serializable

    def test_mirs_accepts_search(self):
        machine = parse_config("1-(GP8M4-REG64)")
        result = Mirs(
            machine, params=MirsParams(ii_search="geometric")
        ).schedule(
            cached_suite(1)[0].graph
        )
        assert result.converged
