"""Pluggable II-search policies for the MIRS-C driver.

The paper's driver (Figure 4, step (6)) restarts a failed attempt at
``II + 1``: *"Re_Initialize(II++, S, Priority_List)"*.  That linear
ladder is correct but slow on pressure-bound loops — the II must climb
far above MII before MaxLive fits the register file, one failed attempt
per step.  Rau's iterative modulo scheduling [28] and the MIRS work [33]
treat the restart II as a search problem; this module makes it one.

Every scheduling attempt at a fixed II produces a structured
:class:`AttemptOutcome` (instead of the old bare ``None``): which of the
step-(6) restart conditions fired, the measured per-cluster pressure
deficit (MaxLive vs AR from the incremental
:class:`~repro.schedule.pressure.PressureTracker`), the restart budget
consumed, and the scheduler's own suggested next II.  An
:class:`IISearchPolicy` consumes outcomes and names the next II to try:

* :class:`LinearSearch` — the paper's ladder, ``II + 1`` per failure
  (the default; schedules are fingerprint-identical to the fixed
  ladder);
* :class:`GeometricPressureSearch` — jumps sized by the measured
  pressure deficit (never more than ``deficit`` or a fraction of the
  current II), latching into the paper's ladder once the deficit goes
  small so the first feasible II is always approached from below.

A policy is selected by one field, ``MirsParams.ii_search`` (a
registered name or an instance); the CLI's ``--ii-search`` fills it.
The driver records the full ``(ii, outcome)`` trace in
``ScheduleResult.stats.search_trace`` and the policy's
:meth:`~IISearchPolicy.canonical` form participates in the ``exec``
cache keys (through :meth:`repro.core.params.MirsParams.canonical`), so
results computed under different policies never alias in the cache.
A policy's ``bound_eject_churn`` attribute (:func:`bounds_eject_churn`)
is the one way it changes what an attempt does.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Protocol, runtime_checkable

from repro.errors import ConfigError


class OutcomeKind(enum.Enum):
    """How one fixed-II scheduling attempt ended.

    ``SCHEDULED`` is the success case; the failure kinds map onto the
    paper's restart conditions (Section 3.2.4 / Figure 4 step (6)):

    * ``BUDGET_EXHAUSTED`` — the backtracking budget
      (``Budget_Ratio x Number_Nodes``) ran out before the
      PriorityList drained;
    * ``TRAFFIC_INFEASIBLE`` — spill code pushed the memory traffic
      beyond what the memory ports sustain at this II;
    * ``REGISTER_INFEASIBLE`` — the drained-regime register allocation
      could not fit and the spill/balance/eject machinery had no action
      left to take;
    * ``ROUND_CAP`` — the drained-regime spill/allocate loop was still
      making progress when it hit the final-round cap
      (:func:`repro.core.params.final_round_cap`) — the
      register-infeasible verdict for attempts that thrash rather than
      settle.
    """

    SCHEDULED = "scheduled"
    BUDGET_EXHAUSTED = "budget"
    TRAFFIC_INFEASIBLE = "traffic"
    REGISTER_INFEASIBLE = "registers"
    ROUND_CAP = "round-cap"

    @property
    def is_register_bound(self) -> bool:
        """True for the two drained-regime register-pressure failures."""
        return self in (
            OutcomeKind.REGISTER_INFEASIBLE, OutcomeKind.ROUND_CAP
        )


@dataclasses.dataclass(frozen=True)
class AttemptOutcome:
    """Structured result of one scheduling attempt at a fixed II.

    Attributes:
        ii: the II the attempt ran at.
        kind: how the attempt ended (see :class:`OutcomeKind`).
        pressure_deficit: per-cluster ``max(0, MaxLive - AR)`` measured
            when the attempt ended (empty on machines with unbounded
            register files).
        registers_available: AR, registers per cluster (``None`` when
            unbounded).
        budget_left: restart budget remaining (<= 0 when exhausted).
        suggested_ii: the scheduler's own lower bound on the next II
            worth trying (always > ``ii``; traffic-driven failures push
            it to ``ceil(traffic / ports)``, matching the old
            ``_suggested_ii`` side-channel).
        final_rounds: drained-regime spill/allocate rounds consumed.
    """

    ii: int
    kind: OutcomeKind
    pressure_deficit: dict[int, int] = dataclasses.field(default_factory=dict)
    registers_available: int | None = None
    budget_left: int = 0
    suggested_ii: int = 0
    final_rounds: int = 0

    @property
    def scheduled(self) -> bool:
        return self.kind is OutcomeKind.SCHEDULED

    @property
    def max_deficit(self) -> int:
        """The worst per-cluster register deficit (0 when none)."""
        return max(self.pressure_deficit.values(), default=0)

    def as_trace_entry(self) -> dict:
        """Compact JSON-friendly form for ``stats.search_trace``."""
        return {
            "ii": self.ii,
            "kind": self.kind.value,
            "deficit": dict(sorted(self.pressure_deficit.items())),
            "budget_left": self.budget_left,
            "suggested_ii": self.suggested_ii,
            "final_rounds": self.final_rounds,
        }


def predicted_failure(ii: int) -> AttemptOutcome:
    """A conservative synthetic failure outcome for frontier prediction.

    The speculative driver (:mod:`repro.core.attempts`) must guess
    which IIs a policy will request *before* the anchoring attempt
    completes.  A budget-exhausted outcome with no measured deficit and
    the minimal ``suggested_ii`` makes both built-in policies step to
    ``II + 1`` (the zero deficit latches geometric), so the predicted
    frontier
    matches the serial trajectory whenever attempts fail "ordinarily"
    and is merely conservative (wasted speculation, never a wrong
    committed result) when they do not.  The policy object fed these is
    replayed fresh from :meth:`IISearchPolicy.first_ii` before the next
    frontier, so synthetic outcomes never contaminate the real path.
    """
    return AttemptOutcome(
        ii=ii, kind=OutcomeKind.BUDGET_EXHAUSTED, suggested_ii=ii + 1
    )


@runtime_checkable
class IISearchPolicy(Protocol):
    """The II-search contract the MIRS-C driver programs against.

    A policy is a stateful, single-search object: :meth:`first_ii`
    begins a new search (resetting any state left by a previous one)
    and :meth:`next_ii` consumes the outcome of the attempt it last
    requested.  The driver guarantees outcomes arrive in request order.
    """

    def first_ii(self, mii: int, limit: int) -> int:
        """The first II to attempt; starts (and resets) a search."""
        ...

    def next_ii(self, outcome: AttemptOutcome) -> int | None:
        """The next II to attempt, or ``None`` to end the search.

        Ending the search after at least one ``SCHEDULED`` outcome
        accepts the lowest successfully scheduled II (the driver keeps
        its verified schedule); ending it without one reports
        non-convergence.
        """
        ...

    def canonical(self) -> dict:
        """Stable JSON-serializable identity (cache keys, reports)."""
        ...


class LinearSearch:
    """The paper's ladder: restart at ``II + 1`` (Figure 4, step (6)).

    Identical to the historical hardwired driver, including the
    traffic-driven skip to the scheduler's suggested II — schedules
    produced under this policy are bit-identical (fingerprint-equal) to
    the pre-policy scheduler's.  This is the default.
    """

    name = "linear"
    #: Paper-exact attempts: eject-only churn is bounded only by the
    #: restart budget, as in Figure 4.
    bound_eject_churn = False

    def __init__(self) -> None:
        self._limit = 0

    def first_ii(self, mii: int, limit: int) -> int:
        self._limit = limit
        return mii

    def next_ii(self, outcome: AttemptOutcome) -> int | None:
        if outcome.scheduled:
            return None
        ii = max(outcome.ii + 1, outcome.suggested_ii)
        return ii if ii <= self._limit else None

    def canonical(self) -> dict:
        return {"name": self.name}

    def __repr__(self) -> str:
        return "LinearSearch()"


class GeometricPressureSearch:
    """Deficit-scaled jumps from below, then a latched linear tail.

    The measured stress landscape (see README, "Choosing an II search
    policy") is *not* monotone in II: feasible IIs are isolated points
    (stress1 has exactly one in its whole search range), so a policy
    that ever jumps past the linear ladder's first feasible II cannot
    come back and accepts a strictly worse schedule.  This policy is
    therefore built to approach from below:

    * while failures carry a large register deficit
      (``max_deficit >= tail_deficit``), it jumps
      ``min(deficit, ceil(II * jump_fraction))`` cycles — the deficit
      bounds how far the pressure can possibly fall per II step
      (removing one register of MaxLive never takes more than one II
      step in the observed decay), and the ``jump_fraction`` cap keeps
      a noisy deficit snapshot from overshooting on small loops;
    * the first failure with a small deficit **latches** the policy
      into the paper's ``II + 1`` ladder for the rest of the search
      (the deficit is noisy near the frontier — 4 at one II, 24 a few
      steps later — so un-latching would jump past the needle).

    The scheduler's ``suggested_ii`` (exact for traffic failures) is
    always honoured as a floor.  On the workbench, deficits are small
    from the first failure, so the policy degenerates to the linear
    ladder and finds the same II.
    """

    name = "geometric"
    #: Jump policies probe sparse IIs, so an attempt must fail *because
    #: the II is too small*, not because the eject-and-replace cycle
    #: outlasted the budget: churn is bounded by the round cap (see
    #: :func:`bounds_eject_churn`), which both speeds failing
    #: attempts up ~6x and makes the failure kind (and its pressure
    #: deficit) a usable gradient.  Measured on the workbench and the
    #: stress seeds, the bound changes no attempt verdict — only how
    #: fast doomed attempts die.
    bound_eject_churn = True

    def __init__(self, jump_fraction: float = 0.25, tail_deficit: int = 40):
        if not 0.0 < jump_fraction <= 1.0:
            raise ConfigError("jump fraction must be in (0, 1]")
        if tail_deficit < 1:
            raise ConfigError("tail deficit must be at least 1")
        self.jump_fraction = jump_fraction
        self.tail_deficit = tail_deficit
        self._limit = 0
        self._mii = 1
        self._latched = False
        self._backfill = False
        self._issued: set[int] = set()

    def first_ii(self, mii: int, limit: int) -> int:
        self._limit = limit
        self._mii = mii
        self._latched = False
        self._backfill = False
        self._issued = {mii}
        return mii

    def _issue(self, ii: int) -> int:
        self._issued.add(ii)
        return ii

    def next_ii(self, outcome: AttemptOutcome) -> int | None:
        if outcome.scheduled:
            return None
        if self._backfill:
            # Descending over the jumped-over gaps, nearest-first: the
            # needle, if any, is most likely just below the latch point
            # (that is where the deficit went small).
            ii = outcome.ii - 1
            while ii in self._issued:
                ii -= 1
            return self._issue(ii) if ii >= self._mii else None
        ii = max(outcome.ii + 1, outcome.suggested_ii)
        if not self._latched:
            deficit = outcome.max_deficit
            if deficit >= self.tail_deficit:
                jump = min(
                    deficit,
                    max(1, math.ceil(outcome.ii * self.jump_fraction)),
                )
                ii = max(ii, outcome.ii + jump)
            else:
                self._latched = True
        if ii <= self._limit:
            return self._issue(ii)
        # Ladder exhausted the cap: if the jumps skipped IIs on the way
        # up, scan them (descending) before giving up, so a jump can
        # never cost a convergence the paper's ladder would have found.
        self._backfill = True
        ii = outcome.ii
        while ii in self._issued:
            ii -= 1
        return self._issue(ii) if ii >= self._mii else None

    def canonical(self) -> dict:
        return {
            "name": self.name,
            "jump_fraction": self.jump_fraction,
            "tail_deficit": self.tail_deficit,
        }

    def __repr__(self) -> str:
        return (
            f"GeometricPressureSearch(jump_fraction={self.jump_fraction}, "
            f"tail_deficit={self.tail_deficit})"
        )


#: Registry of named policies (CLI ``--ii-search``, ``MirsParams``).
POLICIES: dict[str, type] = {
    LinearSearch.name: LinearSearch,
    GeometricPressureSearch.name: GeometricPressureSearch,
}

def make_policy(spec) -> IISearchPolicy:
    """Resolve a search spec into a policy instance.

    Strings name a registered policy with default parameters; a policy
    instance is returned as-is (``first_ii`` resets it, so one instance
    serializes fine across consecutive searches).
    """
    if isinstance(spec, str):
        try:
            return POLICIES[spec]()
        except KeyError:
            raise ConfigError(
                f"unknown II-search policy {spec!r}; "
                f"choose from {sorted(POLICIES)}"
            ) from None
    if isinstance(spec, IISearchPolicy):
        return spec
    raise ConfigError(
        f"II-search policy must be a name or an IISearchPolicy, "
        f"got {type(spec).__name__}"
    )


def canonical_search(spec) -> dict:
    """The stable cache-key form of a search spec."""
    return make_policy(spec).canonical()


def bounds_eject_churn(spec) -> bool:
    """Whether a search spec's attempts bound eject-only churn.

    Read from the policy's ``bound_eject_churn`` attribute (a policy
    without one runs paper-exact attempts).  This is the one way a
    policy changes what an attempt *does*.
    """
    return bool(getattr(make_policy(spec), "bound_eject_churn", False))
