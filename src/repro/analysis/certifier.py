"""Static certification of emitted VLIW software pipelines.

:func:`certify_code` proves bundle-level legality of
:func:`repro.codegen.generate_code` output *without executing it*: an
O(code-size) dataflow analysis over the bundle CFG replaces the
O(II x iterations) :mod:`repro.sim` differential for the properties
that do not depend on concrete values.

What is checked
---------------

* **Register dataflow** (reaching definitions + liveness, across the
  modulo-expansion copy renaming): a symbolic register file maps every
  architectural name to the ``(operation, iteration)`` instance that
  last defined it - or to the loop-entry live-in it still holds.  Each
  instruction's reads must observe exactly the instances its
  dependence-graph operands require (``iteration - distance``), with
  pre-loop instances resolving to live-ins.  A read observing a stale
  live-in is the MVE copy-label bug; a read observing the wrong
  instance is a renaming collision; a read of an unknown name is the
  simulator's ``SimulationError``, proven statically.
* **Bundle semantics**: sources are read before any write of the same
  bundle lands (the walk evaluates whole bundles read-first), and two
  writes to one register in one cycle are a collision.
* **Latencies**: every matched producer->consumer pair must be spaced
  at least the producer's latency apart in *concrete* cycles - the
  kernel back-edge included, because the walk runs the kernel body
  repeatedly until the register state reaches its fixpoint.
* **Resources**: per-cycle usage, re-derived from the code alone via
  the machine's reservation tables (unpipelined occupancy and the
  move's two-cluster + bus reservation included), must fit the
  :class:`~repro.machine.config.MachineConfig`.  On the linearized
  pipeline every reservation is a contiguous cycle interval, so the
  max-overlap count is an *exact* feasibility test (interval graphs
  are perfect) - no backtracking search as in
  :mod:`repro.core.verify`.
* **Cluster locality**: non-move instructions read and write only
  their own cluster's register file; moves read exactly from their
  declared source cluster.
* **Replication**: an operation of stage ``s`` appears ``SC - 1 - s``
  times in the prologue, once per kernel copy, and ``s`` times in the
  epilogue.

The kernel back-edge fixpoint terminates because every destination
register is rewritten each pass, so the shift-normalized state is
eventually periodic; violations found on the explored passes cover all
trip counts by translation invariance, and the epilogue is re-checked
after every explored pass (a pipeline may drain after any number of
passes >= 1).
"""

from __future__ import annotations

import dataclasses
import operator
from typing import NamedTuple

from repro.analysis.cfg import (
    EPILOGUE,
    KERNEL,
    PROLOGUE,
    BundleCFG,
    BundleSite,
    register_cluster,
    split_sources,
)
from repro.analysis.model import (
    CertifierReport,
    CertifierViolation,
    ViolationKind,
)
from repro.codegen.emitter import GeneratedCode, Instruction
from repro.core.result import ScheduleResult
from repro.errors import GraphError
from repro.graph.ddg import DependenceGraph, DepKind, Node
from repro.graph.latency import edge_latency
from repro.machine.config import MachineConfig
from repro.machine.reservation import ClusterRole, reservation_steps
from repro.machine.resources import ResourceClass

#: Hard cap on kernel passes explored before the certifier gives up on
#: the dataflow fixpoint and reports a STRUCTURE violation (legal code
#: converges within a couple of passes; the cap only guards degenerate
#: sabotage).
MAX_FIXPOINT_SLACK = 8


#: A value instance: ``(operation, iteration, live_in)``.
_Instance = tuple[int, int, bool]
#: What a register holds: the instance it last received and the
#: concrete cycle the defining instruction issued at (-1 for live-ins,
#: which are ready at loop entry).
_Content = tuple[_Instance, int]


#: Sort key of ``(instance, latency)`` pairs: by producer, then by
#: iteration (``live_in`` follows from the iteration's sign).
_by_instance = operator.itemgetter(0)


def _describe(instance: _Instance) -> str:
    node, iteration, live_in = instance
    if live_in:
        return f"live-in of value {node} (iteration {iteration})"
    return f"value {node} of iteration {iteration}"


@dataclasses.dataclass(slots=True)
class _NodePlan:
    """What the dataflow walk needs to know of one graph node.

    Every emitted instance of the node - one per prologue, kernel and
    epilogue copy, each kernel copy revisited on every explored pass
    and epilogue replay - is checked against the same graph facts, so
    they are resolved once per node instead of once per visit.
    """

    stage: int
    #: The scheduled cluster (``None``: the instruction's own).
    cluster: int | None
    is_move: bool
    src_cluster: int | None
    produces_value: bool
    has_reg_consumers: bool
    kind_name: str
    invariants: list[str]
    #: ``(producer, distance, live-in modulus, latency)`` per register
    #: dependence.
    reg_edges: tuple[tuple[int, int, int, int], ...]
    #: ``(producer, distance, latency, kind name)`` per memory/control
    #: dependence.
    other_edges: tuple[tuple[int, int, int, str], ...]


#: A violation found without a site: ``(kind, register, operation,
#: detail)``; every visit reports it at the site it visits.
_Finding = tuple[ViolationKind, "str | None", int, str]


class _Static(NamedTuple):
    """What the walk checks of one instruction without its visit's
    iteration, cycle or register state (see :meth:`_Certifier._static`).
    """

    plan: _NodePlan
    #: The register sources, in emitted order.
    reads: list[str]
    #: Source-cluster and invariant findings (reported before the reads
    #: resolve).
    operands: tuple[_Finding, ...]
    #: The operand-count finding (reported after the undefined reads).
    count: tuple[_Finding, ...]
    #: Destination findings (reported after the reads are matched).
    destination: tuple[_Finding, ...]
    #: No findings at all.
    clean: bool


class _Certifier:
    """One certification run (see module docstring)."""

    def __init__(self, code: GeneratedCode, schedule: ScheduleResult):
        graph = schedule.graph
        if graph is None:
            raise GraphError(
                f"certifying loop {schedule.loop!r} needs the schedule's "
                "dependence graph"
            )
        self.code = code
        self.schedule = schedule
        self.graph: DependenceGraph = graph
        self.machine: MachineConfig = schedule.machine
        self.cfg = BundleCFG(code)
        self.violations: list[CertifierViolation] = []
        self._seen: set[
            tuple[ViolationKind, str, int, str | None, int | None, str]
        ] = set()
        self.bundles_checked = 0
        self.reads_checked = 0
        self.passes_checked = 0
        times = schedule.times
        low = min(times.values(), default=0)
        self.stage_of: dict[int, int] = {
            node_id: (cycle - low) // code.ii for node_id, cycle in times.items()
        }
        #: (node, iteration) -> issue cycle, over the committed walk
        #: (prologue + kernel passes); epilogue replays overlay it.
        self.issue_cycle: dict[tuple[int, int], int] = {}
        self._nodes: dict[int, Node] = {node.id: node for node in graph.nodes()}
        #: Live-in modulus per value: a value held in ``m`` distinct
        #: physical registers presents at most ``m`` distinct live-ins,
        #: so pre-loop instances congruent modulo ``m`` are physically
        #: one value (mirrors ``live_in_moduli_of_code`` - the semantic
        #: contract the differential's reference interpreter uses too).
        self._live_in_modulus: dict[int, int] = {
            value: len(set(names)) for value, names in code.registers.items()
        }
        #: node id -> its walk plan (``None``: not walkable), built on
        #: the node's first visit.
        self._plans: dict[int, _NodePlan | None] = {}
        #: id of an instruction object -> its static findings, built on
        #: the object's first visit (the code keeps every object alive,
        #: so the ids stay unique for the whole run).
        self._statics: dict[int, _Static | None] = {}

    # ------------------------------------------------------------------
    # Violation recording
    # ------------------------------------------------------------------

    def _report(
        self,
        kind: ViolationKind,
        site: BundleSite | None,
        register: str | None = None,
        operation: int | None = None,
        detail: str = "",
    ) -> None:
        """Record one violation, deduplicating shift-equivalent repeats.

        The kernel fixpoint and the per-pass epilogue replays revisit
        the same static bundle; a defect there would otherwise be
        reported once per visited pass.
        """
        section = site.section if site is not None else "code"
        index = site.index if site is not None else -1
        # Keyed without `detail` at concrete sites (details embed
        # pass-dependent iteration numbers); whole-pipeline reports have
        # pass-independent details and would collide without it.
        key = (kind, section, index, register, operation,
               detail if site is None else "")
        if key in self._seen:
            return
        self._seen.add(key)
        self.violations.append(
            CertifierViolation(
                kind=kind,
                section=section,
                bundle=index,
                register=register,
                operation=operation,
                detail=detail,
            )
        )

    # ------------------------------------------------------------------
    # Structural checks
    # ------------------------------------------------------------------

    def check_structure(self) -> bool:
        """Section lengths; False when the pipeline shape is unusable."""
        code = self.code
        fill = code.ii * (code.stage_count - 1)
        ok = True
        if len(code.prologue) != fill:
            self._report(
                ViolationKind.STRUCTURE,
                None,
                detail=(
                    f"prologue has {len(code.prologue)} bundles, expected "
                    f"II*(SC-1) = {fill}"
                ),
            )
            ok = False
        if len(code.epilogue) != fill:
            self._report(
                ViolationKind.STRUCTURE,
                None,
                detail=(
                    f"epilogue has {len(code.epilogue)} bundles, expected "
                    f"II*(SC-1) = {fill}"
                ),
            )
            ok = False
        kernel_cycles = code.ii * code.mve_factor
        if len(code.kernel) != kernel_cycles:
            self._report(
                ViolationKind.STRUCTURE,
                None,
                detail=(
                    f"kernel has {len(code.kernel)} bundles, expected "
                    f"II*MVE = {kernel_cycles}"
                ),
            )
            ok = False
        return ok

    def check_replication(self) -> None:
        """The SC-1-s / MVE / s instance-count invariant, per node."""
        counts: dict[str, dict[int, int]] = {PROLOGUE: {}, KERNEL: {}, EPILOGUE: {}}
        for section, bundles in (
            (PROLOGUE, self.code.prologue),
            (KERNEL, self.code.kernel),
            (EPILOGUE, self.code.epilogue),
        ):
            tally = counts[section]
            for bundle in bundles:
                for inst in bundle:
                    tally[inst.node] = tally.get(inst.node, 0) + 1
        sc = self.code.stage_count
        mve = self.code.mve_factor
        for node_id in sorted(self._nodes):
            stage = self.stage_of.get(node_id)
            if stage is None:
                self._report(
                    ViolationKind.STRUCTURE,
                    None,
                    operation=node_id,
                    detail=f"node {node_id} has no scheduled cycle",
                )
                continue
            expected = {
                PROLOGUE: sc - 1 - stage,
                KERNEL: mve,
                EPILOGUE: stage,
            }
            for section, want in expected.items():
                have = counts[section].get(node_id, 0)
                if have != want:
                    self._report(
                        ViolationKind.REPLICATION,
                        None,
                        operation=node_id,
                        detail=(
                            f"stage-{stage} node {node_id} appears {have} "
                            f"times in the {section}, expected {want}"
                        ),
                    )
        for section, tally in counts.items():
            for node_id in sorted(tally):
                if node_id not in self._nodes:
                    self._report(
                        ViolationKind.STRUCTURE,
                        None,
                        operation=node_id,
                        detail=(
                            f"{section} issues node {node_id} which is not "
                            "in the dependence graph"
                        ),
                    )

    # ------------------------------------------------------------------
    # Resource usage (re-derived from the code alone)
    # ------------------------------------------------------------------

    def check_resources(self) -> None:
        """Exact per-cycle resource feasibility on the linearized code.

        Enough kernel passes are materialized that any occupancy tail
        (an unpipelined divide spans up to 30 cycles) wraps through the
        back-edge into the next pass; prologue and epilogue bundles are
        instruction subsets of their kernel rows, so the multi-pass
        interior dominates every smaller trip count.
        """
        kernel_cycles = max(1, self.cfg.kernel_cycles)
        max_occ = 1
        kinds = {inst.kind for inst in self._steps_iter()}
        for kind in kinds:
            if kind.is_compute:
                max_occ = max(max_occ, self.machine.occupancy(kind))
        passes = max(2, -(-max_occ // kernel_cycles) + 1)

        usage: dict[tuple[ResourceClass, int], dict[int, list[int]]] = {}
        # (node, cluster) -> the pools one instance reserves, with the
        # offset and duration of each reservation.
        slots_of: dict[
            tuple[int, int], list[tuple[dict[int, list[int]], int, int]]
        ] = {}
        # id of an instruction object -> (its node, its slots).
        booked: dict[
            int, tuple[int, list[tuple[dict[int, list[int]], int, int]]]
        ] = {}
        site_at: dict[int, BundleSite] = {}
        for site in self.cfg.linearized(passes):
            at = site.cycle
            site_at[at] = site
            for inst in site.bundle:
                entry = booked.get(id(inst))
                if entry is None:
                    key = (inst.node, inst.cluster)
                    slots = slots_of.get(key)
                    if slots is None:
                        slots = slots_of[key] = self._reservation_slots(
                            inst, usage
                        )
                    entry = booked[id(inst)] = (inst.node, slots)
                node_id, slots = entry
                for pool, offset, duration in slots:
                    cycle = at + offset
                    if duration == 1:
                        users = pool.get(cycle)
                        if users is None:
                            pool[cycle] = [node_id]
                        else:
                            users.append(node_id)
                        continue
                    for cycle in range(cycle, cycle + duration):
                        users = pool.get(cycle)
                        if users is None:
                            pool[cycle] = [node_id]
                        else:
                            users.append(node_id)

        for (resource, target), pool in sorted(
            usage.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
        ):
            capacity = self.machine.instances(resource)
            if capacity is None:
                continue
            for cycle in sorted(pool):
                users = pool[cycle]
                if len(users) <= capacity:
                    continue
                where = "interconnect" if target == -1 else f"cluster {target}"
                site = site_at.get(cycle)
                self._report(
                    ViolationKind.RESOURCE,
                    site,
                    operation=sorted(users)[0],
                    detail=(
                        f"{len(users)} operations {sorted(set(users))} need "
                        f"{resource.name} of {where} in one cycle but only "
                        f"{capacity} instances exist"
                    ),
                )
                break  # first overflow per pool is the diagnostic one

    def _reservation_slots(
        self,
        inst: Instruction,
        usage: dict[tuple[ResourceClass, int], dict[int, list[int]]],
    ) -> list[tuple[dict[int, list[int]], int, int]]:
        """The ``(pool, offset, duration)`` reservations of ``inst``."""
        node = self._nodes.get(inst.node)
        if node is None:
            return []
        slots: list[tuple[dict[int, list[int]], int, int]] = []
        for step in reservation_steps(node.kind, self.machine):
            if step.role is ClusterRole.SELF:
                target = inst.cluster
            elif step.role is ClusterRole.SOURCE:
                if node.src_cluster is None:
                    continue  # reported by the dataflow walk
                target = node.src_cluster
            else:
                if self.machine.buses is None:
                    continue  # unbounded interconnect
                target = -1
            pool = usage.setdefault((step.resource, target), {})
            slots.append((pool, step.offset, step.duration))
        return slots

    def _steps_iter(self) -> list[Node]:
        return [
            self._nodes[inst.node]
            for inst in self.code.all_instructions()
            if inst.node in self._nodes
        ]

    # ------------------------------------------------------------------
    # Register dataflow
    # ------------------------------------------------------------------

    def _initial_state(self) -> dict[str, _Content]:
        """Loop-entry register contents (mirrors the simulator).

        Copy ``c`` of a value's register set is owned by pre-loop
        iteration ``c - MVE``; aliased copies of non-expanded values
        overwrite each other in ascending copy order, leaving iteration
        -1 - exactly :meth:`VliwSimulator._initial_registers`, with
        symbolic live-ins in place of concrete values.
        """
        mve = self.code.mve_factor
        state: dict[str, _Content] = {}
        for value, names in sorted(self.code.registers.items()):
            for copy, name in enumerate(names):
                state[name] = ((value, copy - mve, True), -1)
        return state

    def _plan(self, node_id: int) -> _NodePlan | None:
        """The graph facts of ``node_id`` (``None``: not walkable).

        A node missing from the graph, or without a scheduled cycle, is
        reported by :meth:`check_replication`.
        """
        node = self._nodes.get(node_id)
        stage = self.stage_of.get(node_id)
        if node is None or stage is None:
            return None
        graph = self.graph
        modulus = self._live_in_modulus
        return _NodePlan(
            stage=stage,
            cluster=self.schedule.clusters.get(node_id),
            is_move=node.is_move,
            src_cluster=node.src_cluster,
            produces_value=node.produces_value,
            has_reg_consumers=bool(graph.reg_consumers(node_id)),
            kind_name=node.kind.value,
            invariants=sorted(inv.name for inv in graph.invariants_of(node_id)),
            reg_edges=tuple(
                (edge.src, edge.distance, modulus.get(edge.src, 1),
                 edge_latency(graph, edge, self.machine))
                for edge in graph.reg_producers(node_id)
            ),
            other_edges=tuple(
                (edge.src, edge.distance,
                 edge_latency(graph, edge, self.machine), edge.kind.value)
                for edge in graph.in_edges(node_id)
                if edge.kind is not DepKind.REG
            ),
        )

    def _static(self, inst: Instruction) -> _Static | None:
        """The findings of ``inst`` that read only it and its node's plan
        (``None``: the node is not walkable, see :meth:`_plan`).

        The emitter shares one instruction object between the prologue,
        the kernel and the epilogue, and the walk revisits kernel and
        epilogue bundles on every explored pass and replay, so these
        checks run once per instruction object.  Each visit reports the
        findings again, at its own site and in the order the walk
        always reported them; :meth:`_report` drops the repeats.
        """
        node_id = inst.node
        plans = self._plans
        if node_id in plans:
            plan = plans[node_id]
        else:
            plan = plans[node_id] = self._plan(node_id)
        if plan is None:
            return None
        cluster = plan.cluster if plan.cluster is not None else inst.cluster
        reg_names, inv_names = split_sources(inst.sources)

        # Cluster locality: moves read from their declared source
        # cluster, everything else from its own register file.
        operands: list[_Finding] = []
        source_cluster = plan.src_cluster if plan.is_move else cluster
        if plan.is_move and plan.src_cluster is None:
            operands.append((
                ViolationKind.STRUCTURE, None, node_id,
                f"move {node_id} declares no source cluster",
            ))
        for name in reg_names:
            owner = register_cluster(name)
            if owner is None:
                operands.append((
                    ViolationKind.OPERAND_MISMATCH, name, node_id,
                    f"malformed register name {name!r}",
                ))
            elif source_cluster is not None and owner != source_cluster:
                operands.append((
                    ViolationKind.CROSS_CLUSTER, name, node_id,
                    f"node {node_id} on cluster {cluster} reads "
                    f"{name} from cluster {owner} without a move"
                    if not plan.is_move
                    else f"move {node_id} reads {name} from cluster "
                    f"{owner} but declares source {plan.src_cluster}",
                ))

        # Invariant operands must be exactly the graph's.
        expected_invariants = plan.invariants
        if (inv_names or expected_invariants) and (
            sorted(inv_names) != expected_invariants
        ):
            operands.append((
                ViolationKind.OPERAND_MISMATCH, None, node_id,
                f"invariant operands {sorted(inv_names)} != "
                f"{expected_invariants} required by the graph",
            ))

        count: list[_Finding] = []
        if len(reg_names) != len(plan.reg_edges):
            count.append((
                ViolationKind.OPERAND_MISMATCH, None, node_id,
                f"{len(reg_names)} register operands for "
                f"{len(plan.reg_edges)} register dependences",
            ))

        destination: list[_Finding] = []
        dest = inst.dest
        if dest is not None:
            if not plan.produces_value:
                destination.append((
                    ViolationKind.OPERAND_MISMATCH, dest, node_id,
                    f"{plan.kind_name} node {node_id} writes a register",
                ))
            owner = register_cluster(dest)
            if owner is not None and owner != cluster:
                destination.append((
                    ViolationKind.CROSS_CLUSTER, dest, node_id,
                    f"node {node_id} on cluster {cluster} writes "
                    f"{dest} of cluster {owner}",
                ))
        elif plan.has_reg_consumers:
            destination.append((
                ViolationKind.OPERAND_MISMATCH, None, node_id,
                f"node {node_id} has register consumers but the "
                "instruction writes no destination",
            ))
        return _Static(
            plan,
            reg_names,
            tuple(operands),
            tuple(count),
            tuple(destination),
            not (operands or count or destination),
        )

    def _check_reads(
        self,
        site: BundleSite,
        node_id: int,
        iteration: int,
        static: _Static,
        state: dict[str, _Content],
    ) -> None:
        """Match one visit's register reads against the graph's operands,
        reporting every operand finding in order."""
        cycle = site.cycle
        for kind, register, operation, detail in static.operands:
            self._report(kind, site, register, operation, detail)

        # Resolve every register read (before any write of this bundle).
        unmatched_reads: list[tuple[str, _Content | None]] = []
        for name in static.reads:
            content = state.get(name)
            if content is None:
                self._report(
                    ViolationKind.UNDEFINED_READ,
                    site,
                    register=name,
                    operation=node_id,
                    detail=(
                        f"node {node_id} reads {name} which no definition "
                        "or live-in ever reaches"
                    ),
                )
            unmatched_reads.append((name, content))

        # The instances the graph's register operands require; pre-loop
        # instances collapse onto the value's physical live-in
        # registers (see ``_live_in_modulus``).
        wanted: list[tuple[_Instance, int]] = []
        for src, distance, modulus, latency in static.plan.reg_edges:
            produced = iteration - distance
            if produced < 0:
                produced = produced % modulus - modulus
            wanted.append(((src, produced, produced < 0), latency))
        for kind, register, operation, detail in static.count:
            self._report(kind, site, register, operation, detail)
        if len(wanted) > 1:
            wanted.sort(key=_by_instance)

        # Match reads against the graph's operands: exact instance
        # matches first, then classify the leftovers.
        for want, latency in wanted:
            hit = None
            for index, (name, content) in enumerate(unmatched_reads):
                if content is not None and content[0] == want:
                    hit = index
                    break
            if hit is not None:
                name, content = unmatched_reads.pop(hit)
                assert content is not None
                write_cycle = content[1]
                if not want[2] and cycle < write_cycle + latency:
                    self._report(
                        ViolationKind.LATENCY,
                        site,
                        register=name,
                        operation=node_id,
                        detail=(
                            f"node {node_id} reads {_describe(want)} "
                            f"{cycle - write_cycle} cycles "
                            f"after its definition; latency is {latency}"
                        ),
                    )
                continue
            # No read observes the required instance: classify against
            # the (deterministically chosen) first unmatched read.
            offender = next(
                ((n, c) for n, c in unmatched_reads if c is not None), None
            )
            if offender is None:
                continue  # reads were undefined - already reported
            name, content = offender
            unmatched_reads.remove(offender)
            assert content is not None
            held = content[0]
            if held[2] and not want[2]:
                kind = ViolationKind.STALE_LIVE_IN
            else:
                kind = ViolationKind.WRONG_PRODUCER
            self._report(
                kind,
                site,
                register=name,
                operation=node_id,
                detail=(
                    f"node {node_id} needs {_describe(want)} but {name} "
                    f"holds {_describe(held)}"
                ),
            )

    def _walk_site(
        self,
        site: BundleSite,
        state: dict[str, _Content],
        issued: dict[tuple[int, int], int],
    ) -> None:
        """Execute one bundle symbolically: read-first, then write back."""
        self.bundles_checked += 1
        statics = self._statics
        cycle = site.cycle
        block = site.block
        writes: list[tuple[str, _Content, int]] = []
        for inst in site.bundle:
            key = id(inst)
            if key in statics:
                static = statics[key]
            else:
                static = statics[key] = self._static(inst)
            if static is None:
                continue
            plan, reg_names, _, _, destination, clean = static
            node_id = inst.node
            iteration = block - plan.stage
            self.reads_checked += len(reg_names)

            # Fast path: a clean instruction of at most two register
            # operands whose reads hold exactly the distinct instances
            # it needs, each past its latency.  Then the full check of
            # ``_check_reads`` reports nothing (the reads pair with the
            # wanted instances one way only), so it runs only when this
            # test fails.
            matched = clean
            if matched and reg_names:
                edges = plan.reg_edges
                if len(edges) == 1:
                    src, distance, modulus, latency = edges[0]
                    produced = iteration - distance
                    content = state.get(reg_names[0])
                    if produced < 0:
                        produced = produced % modulus - modulus
                        matched = (
                            content is not None
                            and content[0] == (src, produced, True)
                        )
                    else:
                        matched = (
                            content is not None
                            and content[0] == (src, produced, False)
                            and cycle >= content[1] + latency
                        )
                elif len(edges) == 2:
                    wants = []
                    for src, distance, modulus, latency in edges:
                        produced = iteration - distance
                        if produced < 0:
                            produced = produced % modulus - modulus
                        wants.append(((src, produced, produced < 0), latency))
                    first = state.get(reg_names[0])
                    second = state.get(reg_names[1])
                    if (
                        first is None
                        or second is None
                        or wants[0][0] == wants[1][0]
                    ):
                        matched = False
                    else:
                        if first[0] != wants[0][0]:
                            wants.reverse()
                        for (want, latency), content in zip(
                            wants, (first, second)
                        ):
                            if content[0] != want or (
                                not want[2] and cycle < content[1] + latency
                            ):
                                matched = False
                                break
                else:
                    matched = False
            if not matched:
                self._check_reads(site, node_id, iteration, static, state)

            # Destination bookkeeping.
            for kind, register, operation, detail in destination:
                self._report(kind, site, register, operation, detail)
            dest = inst.dest
            if dest is not None:
                writes.append(
                    (dest, ((node_id, iteration, False), cycle), node_id)
                )

            # Memory / control ordering across the concrete walk.
            for src, distance, latency, kind_name in plan.other_edges:
                produced = iteration - distance
                if produced < 0:
                    continue
                producer_cycle = issued.get((src, produced))
                if producer_cycle is None:
                    producer_cycle = self.issue_cycle.get((src, produced))
                if producer_cycle is None:
                    continue
                if cycle < producer_cycle + latency:
                    self._report(
                        ViolationKind.LATENCY,
                        site,
                        operation=node_id,
                        detail=(
                            f"{kind_name} dependence {src}->"
                            f"{node_id} (d={distance}) violated: issued "
                            f"{cycle - producer_cycle} cycles apart, "
                            f"latency {latency}"
                        ),
                    )
            issued[(node_id, iteration)] = cycle

        written: dict[str, int] = {}
        for name, content, node_id in writes:
            earlier = written.get(name)
            if earlier is not None:
                self._report(
                    ViolationKind.WRITE_WRITE,
                    site,
                    register=name,
                    operation=node_id,
                    detail=(
                        f"nodes {earlier} and {node_id} both write {name} "
                        f"in one bundle"
                    ),
                )
            written[name] = node_id
            state[name] = content

    def _normalized(
        self, state: dict[str, _Content], passes: int
    ) -> frozenset[tuple[str, bool, int, int]]:
        """State modulo the per-pass iteration shift (fixpoint test)."""
        shift = passes * self.code.mve_factor
        return frozenset(
            (name, live_in, node, iteration - (0 if live_in else shift))
            for name, ((node, iteration, live_in), _) in state.items()
        )

    def check_dataflow(self) -> None:
        state = self._initial_state()
        issued = self.issue_cycle
        for site in self.cfg.prologue_sites():
            self._walk_site(site, state, issued)

        explored: set[frozenset[tuple[str, bool, int, int]]] = set()
        max_passes = (
            self.code.stage_count + self.code.mve_factor + MAX_FIXPOINT_SLACK
        )
        passes = 0
        while True:
            norm = self._normalized(state, passes)
            if norm in explored:
                break
            explored.add(norm)
            if passes >= 1:
                # The pipeline may drain after *any* number of passes:
                # replay the epilogue from the state entering this pass
                # boundary, without committing its effects.
                replay_state = dict(state)
                replay_issued: dict[tuple[int, int], int] = {}
                for site in self.cfg.epilogue_sites(passes):
                    self._walk_site(site, replay_state, replay_issued)
            if passes >= max_passes:
                self._report(
                    ViolationKind.STRUCTURE,
                    None,
                    detail=(
                        f"register dataflow did not reach a fixpoint "
                        f"within {max_passes} kernel passes"
                    ),
                )
                break
            for site in self.cfg.kernel_sites(passes):
                self._walk_site(site, state, issued)
            passes += 1
        self.passes_checked = passes

    # ------------------------------------------------------------------

    def run(self) -> CertifierReport:
        if self.check_structure():
            self.check_replication()
            self.check_resources()
            self.check_dataflow()
        return CertifierReport(
            loop=self.code.loop,
            machine=self.machine.name,
            ii=self.code.ii,
            stage_count=self.code.stage_count,
            mve_factor=self.code.mve_factor,
            passes_checked=self.passes_checked,
            bundles_checked=self.bundles_checked,
            reads_checked=self.reads_checked,
            violations=tuple(self.violations),
        )


def certify_code(
    code: GeneratedCode,
    schedule: ScheduleResult,
    *,
    trace: object = None,
) -> CertifierReport:
    """Statically certify emitted code against its schedule and machine.

    Args:
        code: the :func:`repro.codegen.generate_code` output to certify.
        schedule: the converged :class:`ScheduleResult` the code was
            emitted from (supplies the dependence graph, the machine
            configuration and the per-node cycles/clusters).
        trace: optional tracer selector (as accepted by
            :func:`repro.obs.resolve_tracer`); when tracing is on the
            run records a ``certify`` span and one ``certify.violation``
            instant per violation.

    Returns:
        A :class:`CertifierReport`; ``report.ok`` means every check
        passed and the code is legal for every trip count.
    """
    from repro.obs import resolve_tracer

    tracer = resolve_tracer(trace)
    token = None
    if tracer.enabled:
        token = tracer.begin("certify", "analysis", loop=code.loop)
    report = _Certifier(code, schedule).run()
    if tracer.enabled:
        for violation in report.violations:
            tracer.instant("certify.violation", "analysis", **violation.as_dict())
        tracer.end(
            token,
            ok=report.ok,
            violations=len(report.violations),
            reads=report.reads_checked,
            bundles=report.bundles_checked,
        )
    return report


def certify_schedule(
    schedule: ScheduleResult, *, trace: object = None
) -> CertifierReport:
    """Emit code for a converged schedule and certify it.

    Raises:
        CodegenError: when the schedule did not converge or is
            register-infeasible (no code exists to certify).
    """
    from repro.codegen.emitter import generate_code

    return certify_code(generate_code(schedule), schedule, trace=trace)
