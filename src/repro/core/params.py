"""Tunable parameters of the MIRS-C algorithm.

The paper fixes three *gauges* controlling the spill heuristic (Section
3.2.3) and one controlling the backtracking budget (Section 3.1):

* ``SG`` (spill gauge) = 2 - spill code is introduced whenever the
  register requirement exceeds ``SG x AR`` during scheduling (and
  whenever it exceeds ``AR`` once the PriorityList has drained),
* ``MSG`` (minimum span gauge) = 4 - a lifetime section must span at
  least this many cycles to be worth spilling,
* ``DG`` (distance gauge) = 4 - spill loads/stores are kept within DG
  cycles of their consumer/producer,
* ``BudgetRatio`` - scheduling attempts allowed per node before the
  current II is abandoned.

``bench_ablation_gauges`` sweeps these to reproduce the sensitivity study
the paper defers to [33].

:class:`MirsParams` is the one home of every algorithm setting, the
II-search policy and the speculation width included: the CLI flags and
:class:`~repro.core.request.ScheduleRequest` only fill its fields.
Settings that only ever took one value are constants where they are
read (the forcing eviction cap in :mod:`repro.core.scheduling`, the
balancing candidate count in :mod:`repro.cluster.balance`, the exact
backend's cluster gate in :mod:`repro.smt.scheduler`, and
:func:`final_round_cap`).  The register allocator is not a setting
either: every attempt on a register-limited machine answers its
allocation queries from the incremental colouring engine (see
:mod:`repro.core.state`), and every produced schedule is verified.
"""

from __future__ import annotations

import dataclasses

from repro.core.search import canonical_search, make_policy
from repro.env import int_env
from repro.errors import ConfigError

#: Environment fallback for :attr:`MirsParams.speculation` (the CLI flag
#: and the explicit field win over it).
SPECULATION_ENV = "REPRO_SPECULATION"


@dataclasses.dataclass(frozen=True)
class SmtParams:
    """Parameters of the exact (``scheduler="smt"``) backend.

    The exact backend proves rather than guesses, so its knobs bound
    *work*, never randomness: every field below is part of the problem's
    identity and participates in :meth:`MirsParams.canonical` (and thus
    the exec cache keys).
    """

    #: Which solver runs the fixed-II decision problems: ``"native"``
    #: (the built-in exact CSP engine, always available), ``"z3"``
    #: (requires the optional ``z3-solver`` package) or ``"auto"``
    #: (z3 when installed, native otherwise).  Resolved by
    #: :meth:`effective_engine` before entering any cache key: two
    #: environments resolving differently *should* key differently,
    #: because the engines may return different (equally optimal)
    #: schedules.
    engine: str = "auto"
    #: Loops larger than this are skipped (``oracle.status ==
    #: "skipped"``) instead of burning the step budget: exact modulo
    #: scheduling is exponential and the oracle targets small loops.
    #: The default admits the whole 16-loop workbench (22-93 nodes);
    #: the step budget, not the node count, is the real work bound.
    max_nodes: int = 96
    #: Deterministic work bound per fixed-II decision problem, counted
    #: in solver steps (decisions + propagations for the native engine,
    #: a solver-reported budget for z3) — never wall-clock, so cached
    #: verdicts are reproducible.  Exhaustion yields an ``"unknown"``
    #: verdict, not an error.
    step_budget: int = 2_000_000
    #: Extra kernel stages of schedule-length headroom beyond the
    #: critical-path bound.  Every UNSAT certificate records the horizon
    #: it was proven under; raising this widens the claim (and the
    #: search space).
    horizon_stages: int = 2
    #: Enforce the MaxLive-style per-cluster register bound.  Off turns
    #: the backend into a pure resource/dependence feasibility oracle.
    register_bound: bool = True

    def __post_init__(self) -> None:
        if self.engine not in ("auto", "native", "z3"):
            raise ConfigError(
                f"unknown smt engine {self.engine!r} "
                "(expected 'auto', 'native' or 'z3')"
            )
        if self.max_nodes < 1:
            raise ConfigError("smt size gate must be at least 1")
        if self.step_budget < 1:
            raise ConfigError("smt step budget must be at least 1")
        if self.horizon_stages < 0:
            raise ConfigError("smt horizon stages must be non-negative")

    def effective_engine(self) -> str:
        """Resolve ``"auto"`` against the environment (z3 if installed)."""
        if self.engine != "auto":
            return self.engine
        from repro.errors import optional_import

        return "z3" if optional_import("z3") is not None else "native"

    def canonical(self) -> dict:
        """Stable form for cache keys: ``engine`` resolved, rest verbatim."""
        payload = dataclasses.asdict(self)
        payload["engine"] = self.effective_engine()
        return payload


@dataclasses.dataclass(frozen=True)
class MirsParams:
    """Algorithm parameters (paper defaults).

    The paper does not publish its BudgetRatio; we default to 3, the
    value Rau's iterative modulo scheduling [28] uses, after verifying on
    the workbench that larger budgets (4, 6) produce identical schedules
    while taking 1.6x-2.7x longer.  The ablation benchmark sweeps it.
    """

    budget_ratio: int = 3
    spill_gauge: float = 2.0
    min_span_gauge: int = 4
    distance_gauge: int = 4
    #: Hard cap on the II explored before declaring non-convergence; when
    #: ``None`` a cap is derived from the loop (see :func:`max_ii_for`).
    max_ii: int | None = None
    #: Single-victim ejection (the paper's policy) vs ejecting every
    #: conflicting node (the policy of [6, 16, 28]); the ablation bench
    #: flips this.
    eject_all: bool = False
    #: II-search policy: a registered name (``"linear"`` or
    #: ``"geometric"``) or an
    #: :class:`~repro.core.search.IISearchPolicy` instance.  Part of the
    #: scheduling problem's identity: it participates in
    #: :meth:`canonical` and therefore in the ``exec`` cache keys.  The
    #: policy also decides whether attempts bound eject-only churn by
    #: the round cap (its ``bound_eject_churn`` attribute: off for the
    #: paper-exact ``LinearSearch``, on for the jumping policies).
    ii_search: object = "linear"
    #: Speculative II-search width: how many candidate IIs the driver
    #: races concurrently (see :mod:`repro.core.attempts`).  ``1`` is
    #: the serial search; ``None`` defers to the ``REPRO_SPECULATION``
    #: environment variable and then to 1.  The committed schedule is
    #: fingerprint-identical for every K by construction — K only
    #: changes wall-clock time and the ``search_trace`` diagnostics.
    speculation: int | None = None
    #: Exact-backend parameters (``scheduler="smt"``); ``None`` means
    #: :class:`SmtParams` defaults.  Ignored by the heuristic schedulers,
    #: but part of :meth:`canonical` so exec cache keys distinguish
    #: oracle configurations.
    smt: SmtParams | None = None

    def __post_init__(self) -> None:
        if self.budget_ratio < 1:
            raise ConfigError("budget ratio must be at least 1")
        if self.spill_gauge < 1.0:
            raise ConfigError("spill gauge must be >= 1 (Section 3.2.3)")
        if self.min_span_gauge < 0 or self.distance_gauge < 0:
            raise ConfigError("gauges must be non-negative")
        if self.speculation is not None and self.speculation < 1:
            raise ConfigError("speculation width must be at least 1")
        if self.smt is not None and not isinstance(self.smt, SmtParams):
            raise ConfigError(
                f"smt must be an SmtParams (got {type(self.smt).__name__})"
            )
        make_policy(self.ii_search)  # fail fast on unknown policies

    def make_search_policy(self):
        """A policy instance for one search (see :mod:`repro.core.search`)."""
        return make_policy(self.ii_search)

    def effective_speculation(self) -> int:
        """Resolve the speculative search width (field, env, then 1).

        A malformed ``REPRO_SPECULATION`` warns and falls back to the
        serial search rather than killing a run.
        """
        if self.speculation is not None:
            return self.speculation
        return max(
            1,
            int_env(
                SPECULATION_ENV, 1,
                fallback_note="searching serially (speculation=1)",
            ),
        )

    def canonical(self) -> dict:
        """A stable, JSON-serializable form (cache keys, reports).

        Every field is a plain scalar except the search policy, which
        contributes its own :meth:`~repro.core.search.IISearchPolicy.canonical`
        form; new non-scalar fields must make an explicit encoding
        decision here rather than silently breaking cache keys.
        """
        payload = dataclasses.asdict(self)
        payload["ii_search"] = canonical_search(self.ii_search)
        payload["speculation"] = self.effective_speculation()
        # The exact backend's sub-params resolve their own tri-state
        # (engine "auto" → the engine that will actually run).
        payload["smt"] = self.effective_smt().canonical()
        return payload

    def effective_smt(self) -> SmtParams:
        """The exact-backend parameter set (field, or defaults)."""
        return self.smt if self.smt is not None else SmtParams()


def max_ii_for(mii: int, node_count: int, params: MirsParams) -> int:
    """The largest II a scheduler will try before giving up.

    Generous enough that any structurally schedulable loop converges,
    small enough that the baseline's genuine non-convergence (register
    pressure that no II can fix) is detected quickly.
    """
    if params.max_ii is not None:
        return params.max_ii
    return max(4 * mii + 32, mii + node_count, 64)


def final_round_cap(clusters: int, node_count: int) -> int:
    """Drained-regime spill/allocate rounds allowed per attempt.

    The historical constant ``3 * clusters + 8`` starved very large
    loops: each round spills or ejects a single section, so a 300-node
    loop whose MaxLive sits far above AR runs out of rounds while still
    making progress (ROADMAP's stress2 non-convergence).  The cap
    therefore grows with the loop size.
    """
    return 3 * clusters + 8 + node_count // 8
