"""The z3 engine for fixed-II decision problems.

A direct integer encoding of :class:`repro.smt.problem.FixedIIProblem`
for the optional ``z3-solver`` package (lazily gated through
:func:`repro.errors.require_optional`).  The encoding and the native engine must agree verdict for
verdict — the differential suite checks exactly that on the z3 CI leg.

Encoding notes:

* Issue cycles ``t_i`` are bounded to ``[0, horizon)``; a weak
  normalization clause (*some* anchor candidate issues in ``[0, II)``)
  is sound because any schedule shifts by a multiple of II into it.
* Modulo row membership uses SMT-LIB ``mod`` semantics (non-negative
  for a positive modulus), so ``(r - t) mod II < occupancy`` is the
  row-coverage test even when ``r - t`` is negative.
* Per-row counting sums are exact for single-row reservations (memory
  ports, move ports, buses).  Unpipelined multi-row reservations
  additionally get explicit FU-instance variables with pairwise
  disjointness — counting alone is necessary but not sufficient there.
* The register bound introduces one end-of-lifetime variable per value
  with only ``>=`` constraints; a satisfying model can always tighten
  them to the true lifetime ends, so the bound is exact in both the
  SAT and the UNSAT direction.
* The work budget is z3's deterministic ``rlimit`` (never wall-clock),
  so verdicts — including ``unknown`` — reproduce across runs.
"""

from __future__ import annotations

from repro.errors import require_optional
from repro.smt.native import SAT, UNKNOWN, UNSAT, SolveOutcome
from repro.smt.problem import FixedIIProblem

_FEATURE = "the z3 exact-scheduling engine (scheduler='smt', engine='z3')"
_HINT = "pip install z3-solver"


def solve_fixed_ii_z3(problem: FixedIIProblem, step_budget: int) -> SolveOutcome:
    """Decide one fixed-II problem with z3 (within the rlimit budget)."""
    z3 = require_optional("z3", feature=_FEATURE, hint=_HINT)
    ii = problem.ii
    machine = problem.machine
    graph = problem.graph
    horizon = problem.horizon
    clustered = machine.clusters > 1

    if any(occ > ii for occ in problem.occupancy.values()):
        # An unpipelined operation reissues every II cycles on one FU;
        # occupancy beyond II self-collides — UNSAT with no solver work.
        return SolveOutcome(status=UNSAT, steps=0)

    solver = z3.Solver()
    solver.set("rlimit", step_budget)

    t = {nid: z3.Int(f"t_{nid}") for nid in problem.nodes}
    for var in t.values():
        solver.add(var >= 0, var < horizon)
    if clustered:
        c = {nid: z3.Int(f"c_{nid}") for nid in problem.nodes}
        for var in c.values():
            solver.add(var >= 0, var < machine.clusters)
        # Clusters are interchangeable: pin the first node's label.
        solver.add(c[problem.nodes[0]] == 0)
    else:
        c = {}

    def cluster_is(nid: int, k: int):
        if not clustered:
            return z3.BoolVal(k == 0)
        return c[nid] == k

    # Move slots: send cycle, activation condition.
    tau = {}
    active = {}
    for slot in problem.slots:
        key = (slot.producer, slot.dst)
        var = z3.Int(f"tau_{slot.producer}_{slot.dst}")
        maxd = max((d for _, d in slot.consumers), default=0)
        solver.add(var >= 0, var < horizon + ii * maxd)
        tau[key] = var
        active[key] = z3.And(
            c[slot.producer] != slot.dst,
            z3.Or([c[v] == slot.dst for v, _ in slot.consumers]),
        )

    # Dependences.
    for src, dst, distance, latency in problem.order_edges:
        solver.add(t[dst] >= t[src] + latency - ii * distance)
    for src, dst, distance, latency in problem.reg_edges:
        if not clustered:
            solver.add(t[dst] >= t[src] + latency - ii * distance)
            continue
        same = c[src] == c[dst]
        solver.add(z3.Implies(same, t[dst] >= t[src] + latency - ii * distance))
        for k in range(machine.clusters):
            slot_var = tau[(src, k)]
            solver.add(
                z3.Implies(
                    z3.And(c[dst] == k, c[src] != k),
                    z3.And(
                        slot_var >= t[src] + problem.latency[src],
                        t[dst] >= slot_var + machine.move_latency - ii * distance,
                    ),
                )
            )

    # Weak normalization: some anchor issues in the first II cycles.
    anchors = problem.anchor_candidates()
    if anchors:
        solver.add(z3.Or([t[a] <= ii - 1 for a in anchors]))

    def row_of(expr):
        return expr % ii

    # Memory ports: single-row reservations, counting is exact.
    memory_nodes = [
        nid for nid in problem.nodes if graph.node(nid).kind.is_memory
    ]
    for k in range(machine.clusters):
        for r in range(ii):
            terms = [
                z3.If(
                    z3.And(cluster_is(nid, k), row_of(t[nid]) == r), 1, 0
                )
                for nid in memory_nodes
            ]
            if terms:
                solver.add(z3.Sum(terms) <= machine.cluster.mem_ports)

    # GP FUs: row-coverage counting, made exact for unpipelined mixes
    # by explicit instance variables with pairwise disjointness.
    compute_nodes = [
        nid for nid in problem.nodes if graph.node(nid).kind.is_compute
    ]
    for k in range(machine.clusters):
        for r in range(ii):
            terms = [
                z3.If(
                    z3.And(
                        cluster_is(nid, k),
                        row_of(r - t[nid]) < problem.occupancy[nid],
                    ),
                    1,
                    0,
                )
                for nid in compute_nodes
            ]
            if terms:
                solver.add(z3.Sum(terms) <= machine.cluster.gp_units)
    if any(occ > 1 for occ in problem.occupancy.values()):
        fu = {nid: z3.Int(f"fu_{nid}") for nid in compute_nodes}
        for nid in compute_nodes:
            solver.add(fu[nid] >= 0, fu[nid] < machine.cluster.gp_units)
        for i, a in enumerate(compute_nodes):
            for b in compute_nodes[i + 1:]:
                same_unit = (
                    z3.And(c[a] == c[b], fu[a] == fu[b])
                    if clustered
                    else fu[a] == fu[b]
                )
                solver.add(
                    z3.Implies(
                        same_unit,
                        z3.And(
                            row_of(t[b] - t[a]) >= problem.occupancy[a],
                            row_of(t[a] - t[b]) >= problem.occupancy[b],
                        ),
                    )
                )

    # Move ports and buses: single-row reservations per move.
    if problem.slots:
        move_latency = machine.move_latency
        for r in range(ii):
            for k in range(machine.clusters):
                out_terms = [
                    z3.If(
                        z3.And(
                            active[(s.producer, s.dst)],
                            c[s.producer] == k,
                            row_of(tau[(s.producer, s.dst)]) == r,
                        ),
                        1,
                        0,
                    )
                    for s in problem.slots
                ]
                solver.add(z3.Sum(out_terms) <= 1)
                in_terms = [
                    z3.If(
                        z3.And(
                            active[(s.producer, s.dst)],
                            row_of(tau[(s.producer, s.dst)] + move_latency - 1)
                            == r,
                        ),
                        1,
                        0,
                    )
                    for s in problem.slots
                    if s.dst == k
                ]
                if in_terms:
                    solver.add(z3.Sum(in_terms) <= 1)
            if machine.buses is not None:
                bus_terms = [
                    z3.If(
                        z3.And(
                            active[(s.producer, s.dst)],
                            row_of(tau[(s.producer, s.dst)]) == r,
                        ),
                        1,
                        0,
                    )
                    for s in problem.slots
                ]
                solver.add(z3.Sum(bus_terms) <= machine.buses)

    # Register bound: folded-lifetime counting per cluster and row.
    if problem.register_caps:
        ends = {}
        values = [
            nid
            for nid in problem.nodes
            if graph.node(nid).produces_value
        ]
        from repro.graph.ddg import DepKind

        for nid in values:
            end = z3.Int(f"end_{nid}")
            solver.add(end >= t[nid] + problem.latency[nid])
            for edge in graph.out_edges(nid):
                if edge.kind is not DepKind.REG:
                    continue
                use = t[edge.dst] + ii * edge.distance
                if clustered:
                    solver.add(z3.Implies(c[edge.dst] == c[nid], end >= use))
                else:
                    solver.add(end >= use)
            for k in range(machine.clusters):
                key = (nid, k)
                if key in tau:
                    solver.add(z3.Implies(active[key], end >= tau[key]))
            ends[nid] = end
        move_ends = {}
        for slot in problem.slots:
            key = (slot.producer, slot.dst)
            end = z3.Int(f"mend_{slot.producer}_{slot.dst}")
            solver.add(end >= tau[key] + machine.move_latency)
            for v, d in slot.consumers:
                solver.add(
                    z3.Implies(
                        z3.And(active[key], c[v] == slot.dst),
                        end >= t[v] + ii * d,
                    )
                )
            move_ends[key] = end

        def folded(start, end, r):
            length = end - start
            return (length / ii) + z3.If(row_of(r - start) < length % ii, 1, 0)

        for k, cap in sorted(problem.register_caps.items()):
            for r in range(ii):
                terms = [
                    z3.If(
                        cluster_is(nid, k),
                        folded(t[nid], ends[nid], r),
                        0,
                    )
                    for nid in values
                ]
                terms += [
                    z3.If(
                        active[(s.producer, s.dst)],
                        folded(
                            tau[(s.producer, s.dst)],
                            move_ends[(s.producer, s.dst)],
                            r,
                        ),
                        0,
                    )
                    for s in problem.slots
                    if s.dst == k
                ]
                terms += [
                    z3.If(
                        z3.Or([cluster_is(v, k) for v in consumer_ids]),
                        1,
                        0,
                    )
                    for _, consumer_ids in problem.invariants
                ]
                if terms:
                    solver.add(z3.Sum(terms) <= cap)

    verdict = solver.check()
    steps = _rlimit_spent(solver)
    if verdict == z3.unsat:
        return SolveOutcome(status=UNSAT, steps=steps)
    if verdict != z3.sat:
        return SolveOutcome(status=UNKNOWN, steps=steps)

    model = solver.model()
    times = {nid: model.eval(t[nid], model_completion=True).as_long()
             for nid in problem.nodes}
    if clustered:
        clusters = {
            nid: model.eval(c[nid], model_completion=True).as_long()
            for nid in problem.nodes
        }
    else:
        clusters = dict.fromkeys(problem.nodes, 0)
    move_times = {
        (slot.producer, slot.dst): model.eval(
            tau[(slot.producer, slot.dst)], model_completion=True
        ).as_long()
        for slot in problem.active_slots(clusters)
    }
    return SolveOutcome(
        status=SAT,
        times=times,
        clusters=clusters,
        move_times=move_times,
        steps=steps,
    )


def _rlimit_spent(solver) -> int:
    """z3's deterministic work counter (0 when the key is absent)."""
    stats = solver.statistics()
    for i in range(len(stats)):
        if stats.get_key_name(i) == "rlimit count":
            return int(stats.get_value(i))
    return 0
