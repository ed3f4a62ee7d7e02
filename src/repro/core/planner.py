"""The filter / recycle / mine decision, as a reusable planner.

:class:`~repro.core.session.MiningSession` and the multi-tenant
:class:`~repro.service.MiningService` face the same question on every
request: given a cached support-level pattern set (the recycling
feedstock) mined at some absolute support, what is the cheapest sound way
to produce the pattern set at a *new* absolute support?  The answer is
the paper's Section 2 case analysis:

* ``new_support >= feedstock_support`` — the cached set is a superset of
  the answer: **filter** it, no mining at all;
* ``new_support < feedstock_support`` and the feedstock is non-empty —
  **recycle**: compress the database with the cached patterns and mine
  the compressed groups;
* no feedstock (or an empty one, which carries nothing to salvage) —
  **mine** from scratch.

Both mining paths run the one grouped kernel,
:func:`~repro.storage.projection.mine_grouped` — a scratch mine is a
grouped database of one residual group. The paper's named miners stay in
the registry as reproduction artifacts; no serving path looks them up.

Since the versioned-chain refactor there is a fourth path for the case
where *the database itself changed* (the paper's Section 2 extended
problem statement): **update** — patch a pattern set warehoused for a
chain *ancestor* using the :class:`~repro.data.versioned.DatabaseDelta`
between the versions. :func:`plan_update_path` arbitrates it against the
trichotomy with a churn cost model, and picks between two patch engines:
FUP (exact old supports, insert-only, cheap) and recycling (any delta,
full recount over the compressed new database).

The planner is pure (no I/O, no mining); :func:`execute_plan` carries a
plan out.  Splitting the two keeps the decision testable in isolation
and lets callers report *what* they decided before paying for it.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.groups import GroupedDatabase
from repro.data.patterns import CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta
from repro.errors import ReproError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import PatternSet
from repro.resilience import (
    REASON_CIRCUIT_OPEN,
    REASON_FUP_INSERT_ONLY,
    REASON_UPDATE_FAILED,
    UPDATE_PATCH,
    CircuitBreaker,
    DegradationReport,
    ResilienceConfig,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.executor import ParallelOutcome

#: The four sound paths to a support-level pattern set.
PATH_FILTER = "filter"
PATH_RECYCLE = "recycle"
PATH_MINE = "mine"
PATH_UPDATE = "update"

#: The two patch engines behind :data:`PATH_UPDATE`.
UPDATE_FUP = "fup"
UPDATE_RECYCLE = "recycle"

#: Delta rows per new-database row beyond which patching is presumed to
#: cost more than a cold re-mine. Half the database churning means the
#: "old" work being salvaged no longer dominates; the incremental bench
#: (``BENCH_incremental.json``) records the measured crossover next to
#: this modeled one.
UPDATE_CHURN_CUTOFF = 0.5


@dataclass(frozen=True)
class MiningPlan:
    """A chosen path plus the feedstock it consumes (if any).

    The update-path fields (``ancestor_db`` onward) are populated only by
    :func:`plan_update_path`; the support-trichotomy paths leave them at
    their defaults.
    """

    path: str  # PATH_FILTER | PATH_RECYCLE | PATH_MINE | PATH_UPDATE
    feedstock: "PatternSet | CondensedPatternSet | None" = None
    feedstock_support: int | None = None
    ancestor_db: TransactionDatabase | None = None
    delta: DatabaseDelta | None = None
    update_mode: str | None = None  # UPDATE_FUP | UPDATE_RECYCLE
    ancestor_fingerprint: str | None = None
    distance: int = 0


def plan_support_path(
    new_support: int,
    feedstock: "PatternSet | CondensedPatternSet | None",
    feedstock_support: int | None,
) -> MiningPlan:
    """Pick the cheapest sound path to the patterns at ``new_support``.

    ``feedstock`` must represent the *full* (unconstrained)
    frequent-pattern set at ``feedstock_support`` — the invariant both
    the session cache and the pattern warehouse maintain. It may be a
    condensed warehouse entry; condensation is lossless, so the case
    analysis is unchanged (a condensed entry is empty exactly when the
    full set is: maximal patterns are closed, and frequent singletons
    are non-derivable).
    """
    if feedstock is None or feedstock_support is None:
        return MiningPlan(PATH_MINE)
    if new_support >= feedstock_support:
        return MiningPlan(PATH_FILTER, feedstock, feedstock_support)
    if len(feedstock) == 0:
        # The paper's conservation argument in reverse: the previous
        # threshold admitted no patterns, so no resources were invested
        # and nothing can be salvaged. Mine from scratch.
        return MiningPlan(PATH_MINE)
    return MiningPlan(PATH_RECYCLE, feedstock, feedstock_support)


def plan_update_path(
    new_support: int,
    feedstock: "PatternSet | CondensedPatternSet | None",
    feedstock_support: int | None,
    ancestor_db: TransactionDatabase | None,
    delta: DatabaseDelta | None,
    new_db_size: int,
    churn_cutoff: float = UPDATE_CHURN_CUTOFF,
    ancestor_fingerprint: str | None = None,
    distance: int | None = None,
) -> MiningPlan:
    """Arbitrate the update path against the filter/recycle/mine trichotomy.

    ``feedstock`` is the full pattern set warehoused for ``ancestor_db``
    at ``feedstock_support``; ``delta`` is the exact change from that
    ancestor to the database being mined (``new_db_size`` rows). The
    case analysis:

    * empty delta — the versions are content-identical, so this *is* the
      support trichotomy: defer to :func:`plan_support_path`;
    * no usable feedstock — **mine** (nothing to patch);
    * churn above ``churn_cutoff`` — **mine**: the cost model says
      patching reads most of the database anyway, so the salvageable old
      work no longer pays for the patch machinery;
    * insert-only delta whose feedstock supports are exact and complete
      at the new threshold (:func:`~repro.core.fup.fup_applicable`) —
      **update/fup**: the cheapest sound patch, scans mostly the
      increment;
    * anything else — **update/recycle**: the old patterns compress the
      *new* database and the kernel recounts exactly, sound
      for deletions, mixed deltas and threshold drops alike.
    """
    if feedstock is None or feedstock_support is None or delta is None:
        return MiningPlan(PATH_MINE)
    if delta.is_empty:
        return plan_support_path(new_support, feedstock, feedstock_support)
    if len(feedstock) == 0 or ancestor_db is None:
        return MiningPlan(PATH_MINE)
    churn = delta.size / max(1, new_db_size)
    if churn > churn_cutoff:
        return MiningPlan(PATH_MINE)
    from repro.core.fup import fup_applicable

    mode = (
        UPDATE_FUP
        if fup_applicable(delta, feedstock_support, new_support, len(ancestor_db))
        else UPDATE_RECYCLE
    )
    if distance is None:
        distance = delta.size
    return MiningPlan(
        PATH_UPDATE,
        feedstock,
        feedstock_support,
        ancestor_db=ancestor_db,
        delta=delta,
        update_mode=mode,
        ancestor_fingerprint=ancestor_fingerprint,
        distance=distance,
    )


def execute_plan(
    plan: MiningPlan,
    db: TransactionDatabase,
    new_support: int,
    strategy: str = "mcp",
    counters: CostCounters | None = None,
    backend: str = "bitset",
    jobs: int = 1,
    resilience: ResilienceConfig | None = None,
    degradation: DegradationReport | None = None,
) -> PatternSet:
    """Carry out ``plan``, returning the full pattern set at ``new_support``.

    Every mining path runs the one grouped kernel
    (:func:`~repro.storage.projection.mine_grouped`): a scratch mine is
    the degenerate database of one residual group, and a recycle (or an
    update-recycle patch) compresses ``db`` with the feedstock first.
    ``backend`` selects both the compression claiming and the kernel
    implementation. ``jobs > 1`` fans the recycle and mine paths out
    through the sharded engine (:mod:`repro.parallel`); the filter path
    never mines, so it never shards. ``resilience`` threads a retry
    budget and fault injector into that engine and, when it carries a
    circuit breaker, skips straight to serial while the breaker is open
    (:func:`run_guarded_parallel`); every rung descended is recorded on
    ``degradation`` (when given).

    The update path additionally honors the ``update.patch`` fault point
    and guarantees atomicity-of-outcome: any failure mid-patch falls
    through to a clean scratch mine of ``db`` (recorded as
    ``update→mine: update_failed``), so callers can never observe a
    half-patched pattern set.
    """
    if plan.path == PATH_FILTER:
        assert plan.feedstock is not None
        if isinstance(plan.feedstock, CondensedPatternSet):
            # Closedness/derivability are threshold-independent, so the
            # support filter runs over the condensed entries; only the
            # (smaller) surviving representation is ever expanded.
            return plan.feedstock.filter_min_support(new_support).expand()
        return plan.feedstock.filter_min_support(new_support)
    mine = functools.partial(
        _mine_with_kernel,
        db,
        new_support=new_support,
        strategy=strategy,
        counters=counters,
        backend=backend,
        jobs=jobs,
        resilience=resilience,
        degradation=degradation,
    )
    if plan.path == PATH_RECYCLE:
        assert plan.feedstock is not None
        return mine(plan.feedstock)
    if plan.path == PATH_UPDATE:
        assert plan.feedstock is not None and plan.delta is not None
        try:
            if resilience is not None and resilience.faults is not None:
                delay = resilience.faults.fire(
                    UPDATE_PATCH, detail=plan.update_mode or ""
                )
                if delay > 0:
                    time.sleep(delay)
            if plan.update_mode == UPDATE_FUP:
                from repro.core.fup import fup_update_delta

                assert plan.ancestor_db is not None
                feed = plan.feedstock
                if isinstance(feed, CondensedPatternSet):
                    feed = feed.expand()
                return fup_update_delta(
                    plan.ancestor_db,
                    plan.delta,
                    feed,
                    new_support,
                    counters,
                    degradation,
                )
            # UPDATE_RECYCLE: the ancestor's patterns compress the *new*
            # database and the kernel recounts every support exactly, so
            # stale feedstock supports cost performance, never
            # correctness.
            return mine(plan.feedstock)
        except ReproError:
            # A failed update must degrade to a clean scratch mine —
            # never serve a half-patched pattern set. (If FUP already
            # recorded its structured insert-only rejection, don't
            # stack a second step on top of it.)
            if degradation is not None and not (
                degradation.steps
                and degradation.steps[-1].reason == REASON_FUP_INSERT_ONLY
            ):
                degradation.record(PATH_UPDATE, PATH_MINE, REASON_UPDATE_FAILED)
            if counters is not None:
                counters.add("update_fallbacks")
    return mine(None)


def _mine_with_kernel(
    db: TransactionDatabase,
    feedstock: "PatternSet | CondensedPatternSet | None",
    *,
    new_support: int,
    strategy: str,
    counters: CostCounters | None,
    backend: str,
    jobs: int,
    resilience: ResilienceConfig | None,
    degradation: DegradationReport | None,
) -> PatternSet:
    """Mine ``db`` with the grouped kernel, recycling ``feedstock`` if any."""
    if jobs > 1:
        from repro.parallel import ParallelEngine

        resilience = resilience or ResilienceConfig()
        engine = ParallelEngine(
            jobs, retry_policy=resilience.retry, fault_injector=resilience.faults
        )
        if feedstock is None:
            run = functools.partial(
                engine.mine, db, new_support, strategy, counters, backend
            )
        else:
            run = functools.partial(
                engine.recycle_mine,
                db,
                feedstock,
                new_support,
                strategy,
                counters,
                backend,
            )
        outcome = run_guarded_parallel(resilience.breaker, run, counters, degradation)
        if outcome is not None:
            return outcome.patterns
    # Looked up at call time, so a wrapped kernel (the benchmark's
    # tracer) sees every call.
    from repro.core.recycle import compress
    from repro.storage.projection import mine_grouped

    if feedstock is None:
        grouped = GroupedDatabase.from_database(db)
    else:
        if isinstance(feedstock, CondensedPatternSet):
            # Phase 1 only needs genuine frequent patterns with exact
            # supports; the condensed entries qualify without expansion.
            feedstock = feedstock.entry_patterns()
        grouped = compress(db, feedstock, strategy, counters, backend=backend).compressed
    return mine_grouped(grouped, new_support, counters, backend=backend)


def run_guarded_parallel(
    breaker: CircuitBreaker | None,
    run: "Callable[[], ParallelOutcome]",
    counters: CostCounters | None = None,
    degradation: DegradationReport | None = None,
) -> "ParallelOutcome | None":
    """One breaker-guarded attempt at the sharded engine.

    Returns ``None`` without calling ``run`` while ``breaker`` is open
    (recorded as ``parallel→serial: circuit_open``), so the caller serves
    serially without spinning up — and re-crashing — worker processes.
    Otherwise runs the engine, feeds its outcome to the breaker (a
    whole-run fallback is a failure) and folds its degradation steps
    into ``degradation``.
    """
    if breaker is not None and not breaker.allow():
        if degradation is not None:
            degradation.record("parallel", "serial", REASON_CIRCUIT_OPEN)
        if counters is not None:
            counters.add("parallel_circuit_skips")
        return None
    outcome = run()
    if breaker is not None:
        if outcome.fallback:
            breaker.record_failure()
        else:
            breaker.record_success()
    if degradation is not None:
        degradation.extend(outcome.degradation)
    return outcome
