"""Interactive iterative mining sessions.

The paper's motivating scenario (Section 1): a user mines, inspects,
refines the constraints and mines again — and existing systems restart
from scratch each time. :class:`MiningSession` is that loop with
recycling built in. Each :meth:`mine` call classifies the constraint
change against the previous iteration and picks the cheapest sound path:

* **same / tightened** — filter the cached patterns (no mining);
* **relaxed** — compress the database with the cached patterns and mine
  the compressed groups with the grouped kernel;
* **incomparable** (mixed changes) — recycle at the new support, then
  filter by the remaining constraints.

The session also keeps the *unconstrained-at-support* pattern set cached
so that non-support constraints never poison future recycling, and a per
iteration :class:`IterationReport` history so experiments (and users) can
see what each path cost. Pattern sets can be exported/imported, which is
how one user's mining output becomes another user's recycling input on a
multi-user platform (Section 2).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.constraints.base import ChangeKind, ConstraintContext
from repro.constraints.engine import ConstraintSet
from repro.core.planner import (
    PATH_MINE,
    execute_plan,
    plan_support_path,
    plan_update_path,
)
from repro.data.items import ItemTable
from repro.data.patterns import REPRESENTATIONS, CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.errors import DataError, RecycleError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import PatternSet
from repro.resilience import DegradationReport, ResilienceConfig


@dataclass(frozen=True)
class IterationReport:
    """What one :meth:`MiningSession.mine` call did and what it cost.

    ``degradation`` names any resilience-ladder rungs the iteration
    descended (empty for a clean run).
    """

    index: int
    path: str  # "initial" | "filter" | "recycle" | "update" | "mine"
    change: ChangeKind | None
    absolute_support: int
    pattern_count: int
    elapsed_seconds: float
    counters: CostCounters
    degradation: DegradationReport = field(default_factory=DegradationReport)
    #: How the session caches its recycling feedstock ("full", "closed"
    #: or "ndi"), the stored-entry count of that cache, and how many
    #: times smaller it is than the full frequent set it reconstructs
    #: (1.0 for the full representation).
    representation: str = "full"
    feedstock_entries: int = 0
    condensation_ratio: float = 1.0
    #: When the iteration crossed a database change: which update mode
    #: patched the feedstock ("fup" or "recycle", ``None`` off the update
    #: path) and how many delta rows separated mined from current state.
    update_mode: str | None = None
    delta_size: int = 0


class MiningSession:
    """A stateful, recycling-aware mining loop over one database.

    Parameters
    ----------
    db:
        The database under investigation. Every iteration that mines —
        the initial run, a recycle, an update patch — runs the grouped
        kernel (:func:`~repro.storage.projection.mine_grouped`).
    strategy:
        Compression strategy for the recycling path ("mcp" or "mlp").
    item_table:
        Optional item catalog consulted by aggregate constraints.
    backend:
        Compression claiming and kernel backend ("bitset" word-parallel
        default, "python" reference loops).
    jobs:
        Worker processes for the mining paths (``1`` = in-process; more
        fans out through the sharded engine of :mod:`repro.parallel`,
        same results either way).
    resilience:
        Retry budget, fault injector and circuit breaker threaded into
        the sharded engine when ``jobs > 1``; any degradation is
        recorded on each :class:`IterationReport`.
    window:
        When set, the session runs in **sliding-window** mode over
        transaction batches: the initial database is batch 0, every
        :meth:`append_batch` adds one batch, and once more than
        ``window`` batches are live the oldest is expired *in the same
        delta* that appends the new one. ``None`` (the default) keeps
        the database append/delete-only under explicit calls.
    representation:
        How the cached recycling feedstock is held between iterations:
        ``"full"`` (the frequent set verbatim, the historical behavior),
        ``"closed"`` (closed itemsets) or ``"ndi"`` (non-derivable
        itemsets). Condensed caches are lossless — every path replays
        bit-identically — and shrink both the in-memory footprint and
        the files :meth:`save_patterns` writes.
    """

    def __init__(
        self,
        db: TransactionDatabase,
        strategy: str = "mcp",
        item_table: ItemTable | None = None,
        backend: str = "bitset",
        jobs: int = 1,
        resilience: ResilienceConfig | None = None,
        representation: str = "full",
        window: int | None = None,
    ) -> None:
        if jobs < 1:
            raise RecycleError(f"jobs must be >= 1, got {jobs}")
        if representation not in REPRESENTATIONS:
            raise RecycleError(
                f"unknown representation {representation!r}; "
                f"expected one of {REPRESENTATIONS}"
            )
        if window is not None and window < 1:
            raise RecycleError(f"window must be >= 1 batches, got {window}")
        self.representation = representation
        self._item_table = item_table or ItemTable()
        self._version = VersionedDatabase.initial(db)
        # The chain state the cached feedstock was mined against. None
        # until the first mine; when it trails self._version, the next
        # mine() goes through the update path (patch across the delta)
        # instead of the same-database support trichotomy.
        self._mined_version: VersionedDatabase | None = None
        self.window = window
        # Sliding-window bookkeeping: the tids of each live batch,
        # oldest first. Batch 0 is the initial database.
        self._batches: deque[tuple[int, ...]] = deque()
        if window is not None:
            self._batches.append(tuple(db.tids))
        self.strategy = strategy
        self.backend = backend
        self.jobs = jobs
        self.resilience = resilience or ResilienceConfig()
        self.context = ConstraintContext(
            db_size=len(db), item_table=self._item_table
        )
        self.history: list[IterationReport] = []
        self._constraints: ConstraintSet | None = None
        # The frequent-pattern set at the current support threshold,
        # before non-support constraints — the recycling feedstock. Held
        # condensed (closed/NDI) when the session's representation says
        # so; every consumer (planner, compression, export) understands
        # both forms.
        self._support_patterns: PatternSet | CondensedPatternSet | None = None
        self._absolute_support: int | None = None

    @property
    def db(self) -> TransactionDatabase:
        """The current database — the head of the version chain."""
        return self._version.db

    @property
    def version(self) -> VersionedDatabase:
        """The current chain head (fingerprint-linked to its ancestors)."""
        return self._version

    # ------------------------------------------------------------------
    # database evolution (streaming tenancy)
    # ------------------------------------------------------------------
    def apply_delta(self, delta: DatabaseDelta) -> VersionedDatabase:
        """Advance the session's database by one delta.

        The cached feedstock is *kept*: the next :meth:`mine` call plans
        an update path across the accumulated delta (FUP for insert-only
        growth, compression-based recycling otherwise) with cost-model
        fallback to scratch mining. Returns the new chain head.
        """
        self._version = self._version.apply(delta)
        self.context = ConstraintContext(
            db_size=len(self.db), item_table=self._item_table
        )
        return self._version

    def append_batch(self, transactions: Iterable[Iterable[int]]) -> DatabaseDelta:
        """Append a batch of transactions (one delta).

        In sliding-window mode the oldest live batch is expired in the
        same delta once the window would overflow, so the database only
        ever reflects the newest ``window`` batches. Returns the delta
        that was applied.
        """
        appended = DatabaseDelta.append(transactions)
        if appended.is_empty:
            raise RecycleError("append_batch needs at least one transaction")
        delta = appended
        if self.window is not None and len(self._batches) >= self.window:
            expired: list[int] = []
            while len(self._batches) >= self.window:
                expired.extend(self._batches.popleft())
            delta = DatabaseDelta(appends=appended.appends, deletes=frozenset(expired))
        self.apply_delta(delta)
        if self.window is not None:
            # apply() assigns the batch the newest tids in the chain.
            count = len(delta.appends)
            self._batches.append(tuple(self._version.db.tids[-count:]))
        return delta

    def delete_tids(self, tids: Iterable[int]) -> DatabaseDelta:
        """Delete transactions by tid (one delta)."""
        delta = DatabaseDelta.delete(tids)
        if delta.is_empty:
            raise RecycleError("delete_tids needs at least one tid")
        self.apply_delta(delta)
        if self.window is not None:
            gone = delta.deletes
            self._batches = deque(
                batch
                for batch in (
                    tuple(t for t in b if t not in gone) for b in self._batches
                )
                if batch
            )
        return delta

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def mine(self, constraints: ConstraintSet | float) -> PatternSet:
        """Run one iteration under ``constraints``.

        A bare number is shorthand for a support-only constraint set.
        Returns the patterns satisfying every constraint; internally
        caches the support-level pattern set for future recycling.
        """
        if not isinstance(constraints, ConstraintSet):
            constraints = ConstraintSet.min_support(constraints)
        counters = CostCounters()
        started = time.perf_counter()
        new_support = constraints.absolute_support(len(self.db))

        stale = (
            self._mined_version is not None
            and self._mined_version.fingerprint() != self._version.fingerprint()
        )
        if self._constraints is None or self._support_patterns is None:
            change: ChangeKind | None = None
            plan = plan_support_path(new_support, None, None)
            path = "initial" if plan.path == PATH_MINE else plan.path
        elif stale:
            # The database moved since the feedstock was mined: patch
            # the cached patterns across the delta instead of treating
            # them as same-database feedstock (which would be unsound).
            change = self._constraints.classify_change(constraints)
            assert self._mined_version is not None
            delta = self._version.delta_from(self._mined_version)
            plan = plan_update_path(
                new_support,
                self._support_patterns,
                self._absolute_support,
                self._mined_version.db,
                delta,
                len(self.db),
            )
            path = plan.path
        else:
            change = self._constraints.classify_change(constraints)
            plan = plan_support_path(
                new_support, self._support_patterns, self._absolute_support
            )
            path = "initial" if plan.path == PATH_MINE else plan.path
        degradation = DegradationReport()
        support_patterns = execute_plan(
            plan,
            self.db,
            new_support,
            strategy=self.strategy,
            counters=counters,
            backend=self.backend,
            jobs=self.jobs,
            resilience=self.resilience,
            degradation=degradation,
        )

        result = constraints.filter_patterns(support_patterns, self.context)
        feedstock = self._condense(support_patterns, new_support)
        elapsed = time.perf_counter() - started

        self._constraints = constraints
        self._support_patterns = feedstock
        self._absolute_support = new_support
        self._mined_version = self._version
        if isinstance(feedstock, CondensedPatternSet):
            feedstock_entries = len(feedstock)
            condensation_ratio = feedstock.condensation_ratio()
        else:
            feedstock_entries = len(feedstock)
            condensation_ratio = 1.0
        self.history.append(
            IterationReport(
                index=len(self.history),
                path=path,
                change=change,
                absolute_support=new_support,
                pattern_count=len(result),
                elapsed_seconds=elapsed,
                counters=counters,
                degradation=degradation,
                representation=self.representation,
                feedstock_entries=feedstock_entries,
                condensation_ratio=condensation_ratio,
                update_mode=plan.update_mode,
                delta_size=plan.delta.size if plan.delta is not None else 0,
            )
        )
        return result

    def _condense(
        self, support_patterns: PatternSet | CondensedPatternSet, new_support: int
    ) -> PatternSet | CondensedPatternSet:
        """Cache-form of the feedstock under the session representation."""
        if self.representation == "full":
            if isinstance(support_patterns, CondensedPatternSet):
                return support_patterns.expand()
            return support_patterns
        if (
            isinstance(support_patterns, CondensedPatternSet)
            and support_patterns.representation == self.representation
        ):
            return support_patterns
        if isinstance(support_patterns, CondensedPatternSet):
            support_patterns = support_patterns.expand()
        return CondensedPatternSet.condense(
            support_patterns,
            new_support,
            self.representation,
            n_transactions=len(self.db),
        )

    def seed_patterns(
        self,
        patterns: PatternSet | CondensedPatternSet,
        absolute_support: int,
    ) -> None:
        """Adopt another session's (or user's) pattern set for recycling.

        ``absolute_support`` is the threshold those patterns were mined
        at; the next :meth:`mine` call will filter or recycle from them
        instead of mining from scratch. Condensed sets are adopted as-is
        (a closed/NDI warehouse entry is valid feedstock directly).
        """
        if len(patterns) == 0:
            raise RecycleError("cannot seed an empty pattern set")
        self._support_patterns = self._condense(patterns, absolute_support)
        self._absolute_support = absolute_support
        self._constraints = ConstraintSet.min_support(absolute_support)
        # Seeded feedstock is taken to describe the database as it
        # stands now; deltas applied afterwards route through the
        # update path like any mined feedstock.
        self._mined_version = self._version

    def exported_patterns(self) -> PatternSet:
        """The cached support-level pattern set (for another user/session).

        Always the *full* frequent set — condensed caches are expanded
        on the way out, so consumers never need to know the session's
        representation. Use :meth:`exported_feedstock` for the raw form.
        """
        if self._support_patterns is None:
            raise RecycleError("nothing mined yet — nothing to export")
        if isinstance(self._support_patterns, CondensedPatternSet):
            return self._support_patterns.expand()
        return self._support_patterns

    def exported_feedstock(self) -> PatternSet | CondensedPatternSet:
        """The cached feedstock in its stored form (condensed or full)."""
        if self._support_patterns is None:
            raise RecycleError("nothing mined yet — nothing to export")
        return self._support_patterns

    @property
    def last_report(self) -> IterationReport:
        """The most recent iteration's report."""
        if not self.history:
            raise RecycleError("no iterations have run yet")
        return self.history[-1]

    # ------------------------------------------------------------------
    # persistence (multi-user / cross-process recycling, Section 2)
    # ------------------------------------------------------------------
    def save_patterns(self, path: str) -> None:
        """Persist the recycling feedstock to disk.

        The file is the warehouse-entry pattern format of
        :mod:`repro.data.io`: header comments record the absolute
        support and the representation (plus transaction count / rule
        depth for condensed forms), so any session — whatever its own
        representation — and any other tool can pick it up. The write is
        atomic: the file is assembled in a sibling temp file and moved
        into place with :func:`os.replace`, so a concurrent reader (or a
        crash) never observes a half-written or header-less file.
        """
        from repro.data.io import write_warehouse_entry

        feedstock = self.exported_feedstock()
        if not isinstance(feedstock, CondensedPatternSet):
            feedstock = CondensedPatternSet.condense(
                feedstock,
                self._absolute_support or 0,
                "full",
                n_transactions=len(self.db),
            )
        write_warehouse_entry(feedstock, path)

    def load_patterns(self, path: str) -> None:
        """Seed this session from a file written by :meth:`save_patterns`.

        Reads both the current warehouse-entry format (any
        representation) and pre-condensation full-set files, with or
        without their integrity checksum.
        """
        from repro.data.io import read_warehouse_entry

        try:
            condensed, _full_bytes = read_warehouse_entry(path)
        except DataError as exc:
            raise RecycleError(str(exc)) from None
        self.seed_patterns(condensed, condensed.absolute_support)
