"""Additional property-based tests: folding math, codegen conservation,
allocation safety - cross-checked against naive reference implementations."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MirsC
from repro.codegen import generate_code
from repro.schedule.lifetimes import LifetimeAnalysis
from repro.schedule.partial import PartialSchedule
from repro.schedule.regalloc import _colour_arcs

from tests.helpers import TWO_CLUSTER, UNIFIED, graph_seeds, random_graph

lifetime_lists = st.lists(
    st.tuples(
        st.integers(min_value=-20, max_value=40),  # start
        st.integers(min_value=0, max_value=60),  # length
    ),
    min_size=0,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(lifetimes=lifetime_lists, ii=st.integers(1, 17))
def test_row_folding_matches_naive_count(lifetimes, ii):
    """The difference-array fold in LifetimeAnalysis must agree with the
    obvious per-cycle count."""
    diff = [0] * (ii + 1)
    base = 0
    for start, length in lifetimes:
        full, rest = divmod(length, ii)
        base += full
        if rest:
            first = start % ii
            tail = first + rest
            if tail <= ii:
                diff[first] += 1
                diff[tail] -= 1
            else:
                diff[first] += 1
                diff[ii] -= 1
                diff[0] += 1
                diff[tail - ii] -= 1
    rows = [base + r for r in itertools.accumulate(diff[:ii])]

    naive = [0] * ii
    for start, length in lifetimes:
        for t in range(start, start + length):
            naive[t % ii] += 1
    assert rows == naive


@settings(max_examples=60, deadline=None)
@given(
    arcs=st.lists(
        st.tuples(st.integers(0, 30), st.integers(1, 16)),
        min_size=1,
        max_size=10,
    ),
    ii=st.integers(2, 16),
)
def test_colouring_is_always_conflict_free(arcs, ii):
    arcs = [
        (index, start % ii, min(length, ii))
        for index, (start, length) in enumerate(arcs)
    ]
    count, chosen = _colour_arcs(arcs, ii)
    occupancy: dict[int, set] = {}
    for value, start, length in arcs:
        rows = {(start + i) % ii for i in range(length)}
        taken = occupancy.setdefault(chosen[value], set())
        assert not (taken & rows)
        taken |= rows
    assert count == len({c for c in chosen.values()})


@settings(max_examples=12, deadline=None)
@given(seed=graph_seeds)
def test_codegen_conserves_operations(seed):
    """Prologue+epilogue contain each op SC-1 times; the kernel contains
    it once per MVE copy - together exactly the software pipeline."""
    graph = random_graph(seed, size=7)
    result = MirsC(UNIFIED).schedule(graph)
    code = generate_code(result)
    kernel_counts: dict[int, int] = {}
    for bundle in code.kernel:
        for inst in bundle:
            kernel_counts[inst.node] = kernel_counts.get(inst.node, 0) + 1
    edge_counts: dict[int, int] = {}
    for bundle in code.prologue + code.epilogue:
        for inst in bundle:
            edge_counts[inst.node] = edge_counts.get(inst.node, 0) + 1
    for node in graph.nodes():
        assert kernel_counts.get(node.id, 0) == code.mve_factor
        assert edge_counts.get(node.id, 0) == code.stage_count - 1


@settings(max_examples=12, deadline=None)
@given(seed=graph_seeds)
def test_pressure_analysis_consistent_across_machines(seed):
    """Summed per-cluster variant pressure is invariant to how scheduled
    nodes are spread over clusters (values counted exactly once)."""
    graph = random_graph(seed, size=8)
    result = MirsC(TWO_CLUSTER).schedule(graph)
    schedule = PartialSchedule(TWO_CLUSTER, result.ii)
    for node in sorted(result.graph.nodes(), key=lambda n: n.id):
        schedule.place(
            node,
            result.clusters[node.id],
            result.times[node.id],
            src_cluster=node.src_cluster,
        )
    analysis = LifetimeAnalysis(result.graph, schedule, TWO_CLUSTER)
    produced = sum(
        1 for n in result.graph.nodes() if n.produces_value
    )
    assert len(analysis.lifetimes) == produced
