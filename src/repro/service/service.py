"""The multi-tenant mining service.

:class:`MiningService` is the front door of the multi-user platform from
Section 2 of the paper: tenants submit :class:`MineRequest`s, a worker
pool executes them, and a shared :class:`PatternWarehouse` turns one
tenant's results into everyone else's feedstock. Each request is planned
with the same :mod:`repro.core.planner` decision the interactive
session uses — filter a cached superset, recycle a cached subset,
*update*-patch a chain ancestor's entry across a database delta, or
mine from scratch — so the service never re-derives what the warehouse
already paid for. Every path that mines runs the one grouped kernel
(:func:`~repro.storage.projection.mine_grouped`), serially or sharded.

Three service-level mechanisms ride on top:

* **Single-flight coalescing.** Identical requests (same database
  fingerprint, absolute support, strategy, backend and jobs) that are in
  flight at the same time share one underlying computation; followers
  attach to the leader's future instead of mining again. De-duplication
  happens at submit time in the caller's thread, so even requests that
  are still queued behind a busy pool coalesce. A leader that fails
  propagates its exception to every waiter, and the in-flight key is
  cleared first, so the next identical submit starts fresh.
* **A degradation ladder, not a cliff.** Every response carries a
  :class:`~repro.resilience.DegradationReport` naming each rung the
  request descended: a :class:`~repro.resilience.CircuitBreaker` trips
  the parallel path to serial for a cooldown after consecutive whole-run
  fallbacks (``parallel→serial: circuit_open``), a failed warehouse read
  degrades to a miss (``feedstock→miss: warehouse_read_failed``), a miss
  where quarantined feedstock used to be is named
  (``recycle→mine: feedstock_quarantined``), and a warehouse that lost
  its disk keeps serving from memory (``warehouse→memory_only:
  write_failed``). The :class:`~repro.resilience.ResilienceConfig`
  threads retry/backoff budgets and a
  :class:`~repro.resilience.FaultInjector` into every engine the service
  builds.
* **Service statistics.** Every response is folded into a thread-safe
  :class:`ServiceStats`: per-path counts (filter hits / recycles /
  misses), coalesced request count, underlying computation count,
  latency quantiles (p50/p95/p99 off a fixed-size reservoir, so a
  long-running service never grows stats memory without bound),
  degraded-response counts by reason, and the circuit breaker's live
  state.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.planner import (
    PATH_FILTER,
    PATH_MINE,
    PATH_RECYCLE,
    PATH_UPDATE,
    MiningPlan,
    execute_plan,
    plan_support_path,
    plan_update_path,
    run_guarded_parallel,
)
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.durability import record_from_node
from repro.errors import ReproError
from repro.metrics.counters import CostCounters
from repro.metrics.reservoir import LatencyReservoir
from repro.mining.patterns import PatternSet
from repro.resilience import (
    REASON_FEEDSTOCK_QUARANTINED,
    REASON_WAREHOUSE_READ_FAILED,
    REASON_WRITE_FAILED,
    CircuitBreaker,
    DegradationReport,
    ResilienceConfig,
)
from repro.service.warehouse import PatternWarehouse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel import ParallelOutcome


@dataclass(frozen=True)
class MineRequest:
    """One tenant's mining request.

    ``support`` follows the library convention: values in ``(0, 1)`` are
    relative fractions of the database, values ``>= 1`` are absolute
    counts.

    ``version`` optionally places ``db`` in a
    :class:`~repro.data.versioned.VersionedDatabase` chain. A versioned
    request that misses the warehouse for its own fingerprint may still
    be served from a chain *ancestor*'s entry via the planner's update
    path; the version's database must be the request's database
    (validated at submit).
    """

    db: TransactionDatabase
    support: float | int
    tenant: str = "anonymous"
    strategy: str = "mcp"
    backend: str = "bitset"
    jobs: int = 1
    version: VersionedDatabase | None = None

    def absolute_support(self) -> int:
        """The absolute threshold this request resolves to."""
        return self.db.relative_to_absolute(self.support)

    def version_fingerprint(self) -> str:
        """The fingerprint identifying this request's database *version*.

        Identical to ``db.fingerprint()`` (the version wraps the same
        database), but spelled through the chain when one is attached so
        version identity is explicit at call sites that must never mix
        versions (the gateway's ``batch_key``).
        """
        if self.version is not None:
            return self.version.fingerprint()
        return self.db.fingerprint()


@dataclass(frozen=True)
class MineResponse:
    """What the service did for one request and what it cost.

    ``counters`` belong to the underlying computation; a coalesced
    follower shares its leader's counters (the work was paid once), which
    is why aggregate accounting should sum over non-coalesced responses.
    ``degradation`` names every rung of the ladder the computation
    descended (empty when the request was served exactly as asked).
    """

    tenant: str
    path: str  # "filter" | "recycle" | "mine" | "update"
    absolute_support: int
    feedstock_support: int | None
    patterns: PatternSet
    coalesced: bool
    elapsed_seconds: float
    counters: CostCounters
    jobs: int = 1
    parallel_fallback: bool = False
    degradation: DegradationReport = field(default_factory=DegradationReport)
    #: Update-path detail: which patch engine ran ("fup" | "recycle"),
    #: and the delta distance to the ancestor whose entry was patched.
    update_mode: str | None = None
    feedstock_distance: int = 0

    @property
    def pattern_count(self) -> int:
        return len(self.patterns)


@dataclass(frozen=True)
class _Computation:
    """The shared result of one underlying (leader) execution."""

    path: str
    absolute_support: int
    feedstock_support: int | None
    patterns: PatternSet
    counters: CostCounters
    elapsed_seconds: float
    jobs: int = 1
    parallel_fallback: bool = False
    degradation: DegradationReport = field(default_factory=DegradationReport)
    update_mode: str | None = None
    feedstock_distance: int = 0


class ServiceStats:
    """Thread-safe aggregation of responses into service-level numbers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.filter_hits = 0
        self.recycles = 0
        self.updates = 0
        self.misses = 0
        self.coalesced = 0
        self.computations = 0
        self.mine_runs = 0
        self.recycle_runs = 0
        self.update_runs = 0
        self.parallel_runs = 0
        self.parallel_fallbacks = 0
        self.degraded = 0
        #: Version-chain traffic: deltas applied through the service and
        #: chains registered with the warehouse lineage registry.
        self.deltas_applied = 0
        self.versions_registered = 0
        self._degradation_reasons: dict[str, int] = {}
        self._latencies = LatencyReservoir()
        self._breaker: CircuitBreaker | None = None
        self._warehouse: PatternWarehouse | None = None
        self._gauge_sources: list[object] = []

    def attach_breaker(self, breaker: CircuitBreaker) -> None:
        """Surface a circuit breaker's live state in :meth:`snapshot`."""
        self._breaker = breaker

    def attach_warehouse(self, warehouse: PatternWarehouse) -> None:
        """Surface warehouse storage gauges in :meth:`snapshot`."""
        self._warehouse = warehouse

    def attach_gauges(self, source: object) -> None:
        """Merge an external gauge source into :meth:`snapshot`.

        ``source`` is anything with a ``gauges() -> dict[str, float]``
        method. The gateway attaches its :class:`~repro.gateway.stats.
        GatewayStats` here, so one snapshot carries the request ledger,
        the warehouse economics and the queue's live state without the
        service layer importing the gateway above it.
        """
        self._gauge_sources.append(source)

    def record(self, response: MineResponse) -> None:
        with self._lock:
            self.requests += 1
            if response.path == "filter":
                self.filter_hits += 1
            elif response.path == "recycle":
                self.recycles += 1
            elif response.path == "update":
                self.updates += 1
            else:
                self.misses += 1
            if response.coalesced:
                self.coalesced += 1
            else:
                self.computations += 1
                if response.path == "mine":
                    self.mine_runs += 1
                elif response.path == "recycle":
                    self.recycle_runs += 1
                elif response.path == "update":
                    self.update_runs += 1
                if response.jobs > 1:
                    self.parallel_runs += 1
                if response.parallel_fallback:
                    self.parallel_fallbacks += 1
            if response.degradation.degraded:
                self.degraded += 1
                for label in response.degradation.reasons():
                    self._degradation_reasons[label] = (
                        self._degradation_reasons.get(label, 0) + 1
                    )
            self._latencies.add(response.elapsed_seconds)

    def record_delta_applied(self) -> None:
        """Count one database delta applied through the service."""
        with self._lock:
            self.deltas_applied += 1

    def record_version_registered(self) -> None:
        """Count one version chain registered with the lineage registry."""
        with self._lock:
            self.versions_registered += 1

    def latency_quantile(self, q: float) -> float:
        """The q-quantile (0 < q <= 1) of recorded latencies (0.0 if none).

        Read off a fixed-size :class:`~repro.metrics.LatencyReservoir`
        — exact while the service has seen fewer observations than the
        reservoir holds, a uniform sample after.
        """
        with self._lock:
            return self._latencies.quantile(q)

    def path_rates(self) -> dict[str, float]:
        """Per-path (and degraded) request fractions, safe on an empty window.

        A fresh service (or an all-coalesced window, where every request
        rode a leader) must report rates without dividing by zero — each
        rate is defined as 0.0 when no requests have been recorded. The
        ``degraded`` rate counts responses whose ladder has at least one
        step, whatever path ultimately served them.
        """
        with self._lock:
            if self.requests == 0:
                return {
                    "filter": 0.0,
                    "recycle": 0.0,
                    "update": 0.0,
                    "mine": 0.0,
                    "degraded": 0.0,
                }
            return {
                "filter": self.filter_hits / self.requests,
                "recycle": self.recycles / self.requests,
                "update": self.updates / self.requests,
                "mine": self.misses / self.requests,
                "degraded": self.degraded / self.requests,
            }

    def degradation_summary(self) -> dict[str, int]:
        """Counts per ``requested→served: reason`` label, most common first."""
        with self._lock:
            return dict(
                sorted(
                    self._degradation_reasons.items(),
                    key=lambda item: (-item[1], item[0]),
                )
            )

    def snapshot(self) -> dict[str, float]:
        """All aggregates as a plain dict (latencies as p50/p95/p99)."""
        p50 = self.latency_quantile(0.50)
        p95 = self.latency_quantile(0.95)
        p99 = self.latency_quantile(0.99)
        rates = self.path_rates()
        warehouse_gauges = self._warehouse_snapshot()
        external_gauges: dict[str, float] = {}
        for source in list(self._gauge_sources):
            external_gauges.update(source.gauges())
        with self._lock:
            breaker = (
                self._breaker.snapshot()
                if self._breaker is not None
                else {"state": "closed", "trips": 0}
            )
            return {
                "requests": self.requests,
                "filter_hits": self.filter_hits,
                "recycles": self.recycles,
                "updates": self.updates,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "computations": self.computations,
                "mine_runs": self.mine_runs,
                "recycle_runs": self.recycle_runs,
                "update_runs": self.update_runs,
                "parallel_runs": self.parallel_runs,
                "parallel_fallbacks": self.parallel_fallbacks,
                "degraded": self.degraded,
                "deltas_applied": self.deltas_applied,
                "versions_registered": self.versions_registered,
                "filter_rate": rates["filter"],
                "recycle_rate": rates["recycle"],
                "update_rate": rates["update"],
                "mine_rate": rates["mine"],
                "degraded_rate": rates["degraded"],
                "breaker_open": float(breaker["state"] != "closed"),
                "breaker_trips": float(breaker["trips"]),
                "latency_p50_s": p50,
                "latency_p95_s": p95,
                "latency_p99_s": p99,
                **warehouse_gauges,
                **external_gauges,
            }

    def _warehouse_snapshot(self) -> dict[str, float]:
        """Storage gauges from the attached warehouse (empty when none).

        Called outside the stats lock — the warehouse has its own — and
        merged into :meth:`snapshot` so one dict carries both the request
        ledger and the condensation economics behind it.
        """
        if self._warehouse is None:
            return {}
        stats = self._warehouse.stats()
        return {
            "warehouse_entries": float(stats["entries"]),
            "warehouse_stored_bytes": float(stats["stored_bytes"]),
            "warehouse_full_bytes": float(stats["full_bytes"]),
            "warehouse_condensation_ratio": self._warehouse.condensation_ratio(),
            "warehouse_migrated": float(stats["migrated"]),
            "recovered_entries": float(stats["recovered_entries"]),
            "recovered_chains": float(stats["recovered_chains"]),
            "journal_replays": float(stats["journal_replays"]),
            "gc_dropped_links": float(stats["gc_dropped_links"]),
            "gc_collapsed_hops": float(stats["gc_collapsed_hops"]),
        }


class MiningService:
    """A concurrent, warehouse-backed mining service.

    Parameters
    ----------
    warehouse:
        The shared pattern store; ``None`` disables caching entirely
        (every non-coalesced request mines from scratch — the "cold"
        baseline the benchmarks compare against).
    max_workers:
        Worker-pool width for concurrent requests.
    parallel_engine_factory:
        Optional hook building the sharded engine for ``jobs > 1``
        requests, called as ``factory(jobs, shard_feedstock,
        on_shard_result)``. Tests use it to inject failures or force the
        inline executor; ``None`` builds a standard
        :class:`~repro.parallel.ParallelEngine` configured from
        ``resilience``.
    resilience:
        Retry/backoff budget and fault injector threaded into every
        engine the service builds, plus (optionally) the circuit
        breaker guarding the parallel path. When the config carries no
        breaker a default one is created, so breaker state is always
        live in :class:`ServiceStats`.
    """

    def __init__(
        self,
        warehouse: PatternWarehouse | None = None,
        max_workers: int = 4,
        parallel_engine_factory=None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        if max_workers < 1:
            raise ReproError(f"max_workers must be >= 1, got {max_workers}")
        self.warehouse = warehouse
        self._parallel_engine_factory = parallel_engine_factory
        self.resilience = resilience or ResilienceConfig()
        self.breaker = self.resilience.breaker or CircuitBreaker()
        self.stats = ServiceStats()
        self.stats.attach_breaker(self.breaker)
        if warehouse is not None:
            self.stats.attach_warehouse(warehouse)
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-mining"
        )
        self._inflight: dict[tuple[str, int, str, str, int], Future] = {}
        self._inflight_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------
    def submit(self, request: MineRequest) -> "Future[MineResponse]":
        """Enqueue a request; returns a future resolving to its response.

        Coalescing happens here, synchronously: if an identical request
        is already in flight the returned future simply wraps the
        leader's computation.
        """
        if self._closed:
            raise ReproError("service is closed")
        if request.jobs < 1:
            raise ReproError(f"jobs must be >= 1, got {request.jobs}")
        if request.version is not None:
            if request.version.fingerprint() != request.db.fingerprint():
                raise ReproError(
                    "request.version wraps a different database than "
                    "request.db — the chain and the payload must agree"
                )
            # Keep the warehouse's lineage registry current so even a
            # cold restart of the chain object can find ancestors later.
            self._record_lineage(request.version)
        absolute = request.absolute_support()
        key = (
            request.db.fingerprint(),
            absolute,
            request.strategy,
            request.backend,
            request.jobs,
        )
        with self._inflight_lock:
            leader = self._inflight.get(key)
            coalesced = leader is not None
            if leader is None:
                leader = Future()
                self._inflight[key] = leader
                self._executor.submit(self._run_leader, key, request, absolute, leader)

        submitted = time.perf_counter()
        response_future: "Future[MineResponse]" = Future()

        def _deliver(done: "Future[_Computation]") -> None:
            error = done.exception()
            if error is not None:
                response_future.set_exception(error)
                return
            computation = done.result()
            response = MineResponse(
                tenant=request.tenant,
                path=computation.path,
                absolute_support=computation.absolute_support,
                feedstock_support=computation.feedstock_support,
                patterns=computation.patterns,
                coalesced=coalesced,
                elapsed_seconds=(
                    time.perf_counter() - submitted
                    if coalesced
                    else computation.elapsed_seconds
                ),
                counters=computation.counters,
                jobs=computation.jobs,
                parallel_fallback=computation.parallel_fallback,
                degradation=computation.degradation,
                update_mode=computation.update_mode,
                feedstock_distance=computation.feedstock_distance,
            )
            self.stats.record(response)
            response_future.set_result(response)

        leader.add_done_callback(_deliver)
        return response_future

    def execute(self, request: MineRequest) -> MineResponse:
        """Submit and wait: the blocking single-request entry point."""
        return self.submit(request).result()

    def execute_many(self, requests: list[MineRequest]) -> list[MineResponse]:
        """Submit every request up front, then gather in request order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # version-chain operations
    # ------------------------------------------------------------------
    def apply_delta(
        self, version: VersionedDatabase, delta: DatabaseDelta
    ) -> VersionedDatabase:
        """Advance a tenant's database chain by one delta.

        Returns the child version; the link is recorded with the
        warehouse's lineage registry so subsequent requests for the new
        fingerprint can be served from the parent's warehoused patterns
        through the update path.
        """
        child = version.apply(delta)
        self.register_version(child)
        self.stats.record_delta_applied()
        return child

    def register_version(self, version: VersionedDatabase) -> None:
        """Make a version chain's lineage visible to the warehouse."""
        self._record_lineage(version)
        self.stats.record_version_registered()

    def _record_lineage(self, version: VersionedDatabase) -> None:
        if self.warehouse is None:
            return
        for node in version.chain():
            if node.parent is None or node.delta is None:
                continue
            fingerprint = node.fingerprint()
            self.warehouse.record_lineage(
                fingerprint,
                node.parent.fingerprint(),
                node.delta_fingerprint,
                node.delta.size,
            )
            # Persist the hop itself, not just the routing link: the
            # durable ChainRecord is what lets a *restarted* service
            # rebuild this chain (restore_version) and keep serving the
            # update path without the tenant resubmitting its history.
            if not self.warehouse.has_chain(fingerprint):
                self.warehouse.persist_chain(record_from_node(node))

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Finish in-flight work and shut the pool down."""
        self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "MiningService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_leader(
        self,
        key: tuple[str, int, str, str, int],
        request: MineRequest,
        absolute: int,
        leader: "Future[_Computation]",
    ) -> None:
        try:
            computation = self._compute(key[0], request, absolute)
        except BaseException as exc:  # propagate to every waiter
            # Clear the in-flight entry *before* failing the future, so
            # a retry submitted by any waiter starts a fresh leader
            # instead of re-attaching to this corpse.
            with self._inflight_lock:
                self._inflight.pop(key, None)
            leader.set_exception(exc)
            return
        # Drop the in-flight entry *before* resolving the future: a new
        # identical request arriving after resolution must start a fresh
        # computation (it will typically hit the warehouse instead).
        with self._inflight_lock:
            self._inflight.pop(key, None)
        leader.set_result(computation)

    def _find_feedstock(
        self,
        fingerprint: str,
        absolute: int,
        degradation: DegradationReport,
        version: VersionedDatabase | None = None,
    ):
        """Consult the warehouse, degrading read failures to a miss.

        A versioned request searches the whole chain in one lookup —
        nearest warehoused ancestor first — so a brand-new version whose
        parent is warehoused still comes back a (distance > 0) hit
        instead of a cold miss.
        """
        if self.warehouse is None:
            return None
        try:
            if version is not None:
                hit = self.warehouse.ancestor_feedstock(
                    fingerprint, absolute, lineage=version.lineage()
                )
            else:
                hit = self.warehouse.best_feedstock(fingerprint, absolute)
        except ReproError:
            # An injected (or genuine) read failure: the feedstock is
            # unavailable, not poisoned — serve a miss and keep going.
            degradation.record("feedstock", "miss", REASON_WAREHOUSE_READ_FAILED)
            return None
        if hit is None and self.warehouse.has_quarantined(fingerprint):
            # Not a cold miss: this database *had* stored patterns, and
            # they were quarantined at load. Name the real reason.
            degradation.record("recycle", "mine", REASON_FEEDSTOCK_QUARANTINED)
        return hit

    def _compute(
        self, fingerprint: str, request: MineRequest, absolute: int
    ) -> _Computation:
        counters = CostCounters()
        degradation = DegradationReport()
        started = time.perf_counter()
        version = request.version
        if version is None and self.warehouse is not None:
            # An unversioned request may be a post-restart resubmit of a
            # database whose chain was persisted before the crash.
            # Rebuilding it from durable chain records re-opens the
            # update path instead of mining the new version cold.
            version = self.warehouse.restore_version(request.db)
        hit = self._find_feedstock(fingerprint, absolute, degradation, version=version)
        # The plan consumes the warehouse entry in its stored (condensed)
        # form: a filter answers straight off the condensed set, and the
        # recycle path claims compression from the entries without ever
        # materializing the full expansion.
        if hit is not None and hit.distance > 0:
            plan = self._plan_from_ancestor(request, absolute, hit, version)
        else:
            plan = plan_support_path(
                absolute,
                hit.feedstock if hit is not None else None,
                hit.absolute_support if hit is not None else None,
            )
        outcome = None
        if request.jobs > 1 and plan.path in (PATH_MINE, PATH_RECYCLE):
            outcome = run_guarded_parallel(
                self.breaker,
                lambda: self._compute_parallel(request, absolute, plan, counters),
                counters,
                degradation,
            )
        if outcome is not None:
            patterns = outcome.patterns
        else:
            # Serial requests, an open breaker, and the whole update
            # path: FUP is inherently serial, and the recycle-mode patch
            # threads jobs/resilience into its own engine. Any mid-patch
            # failure degrades to a scratch mine inside execute_plan.
            update = plan.path == PATH_UPDATE
            patterns = execute_plan(
                plan,
                request.db,
                absolute,
                strategy=request.strategy,
                counters=counters,
                backend=request.backend,
                jobs=request.jobs if update else 1,
                resilience=self.resilience if update else None,
                degradation=degradation,
            )
        if self.warehouse is not None and plan.path != PATH_FILTER:
            # Filter results are cheap derivations of an existing entry;
            # storing them would only dilute the byte budget. Mined and
            # recycled sets are new capital — shelve them.
            was_memory_only = self.warehouse.memory_only_reason is not None
            self.warehouse.put(
                fingerprint, absolute, patterns, n_transactions=len(request.db)
            )
            if not was_memory_only and self.warehouse.memory_only_reason:
                degradation.record("warehouse", "memory_only", REASON_WRITE_FAILED)
        elapsed = time.perf_counter() - started
        return _Computation(
            path=plan.path,
            absolute_support=absolute,
            feedstock_support=plan.feedstock_support,
            patterns=patterns,
            counters=counters,
            elapsed_seconds=elapsed,
            jobs=outcome.jobs if outcome is not None else 1,
            parallel_fallback=outcome is not None and outcome.fallback,
            degradation=degradation,
            update_mode=plan.update_mode,
            feedstock_distance=plan.distance,
        )

    def _plan_from_ancestor(
        self,
        request: MineRequest,
        absolute: int,
        hit,
        version: VersionedDatabase | None,
    ) -> MiningPlan:
        """Turn an ancestor warehouse hit into an update (or fallback) plan.

        ``version`` is the chain the feedstock lookup walked — the
        request's own, or one rebuilt from durable chain records for an
        unversioned post-restart request. When it still holds the
        ancestor, the exact delta is reconstructible and the full
        FUP/recycle/mine arbitration applies. A registry-only hit (chain
        gone, only the warehouse's lineage links survive) cannot rebuild
        the ancestor database, so FUP is off the table — but recycling
        the ancestor's patterns as compression vocabulary is still
        sound, supports being mere utility estimates across versions.
        """
        ancestor = (
            version.ancestor(hit.fingerprint) if version is not None else None
        )
        if ancestor is not None:
            delta = version.delta_from(ancestor)
            return plan_update_path(
                absolute,
                hit.feedstock,
                hit.absolute_support,
                ancestor.db,
                delta,
                len(request.db),
                ancestor_fingerprint=hit.fingerprint,
                distance=hit.distance,
            )
        if len(hit.feedstock) == 0:
            return MiningPlan(PATH_MINE)
        return MiningPlan(PATH_RECYCLE, hit.feedstock, hit.absolute_support)

    def _compute_parallel(
        self,
        request: MineRequest,
        absolute: int,
        plan: MiningPlan,
        counters: CostCounters,
    ) -> "ParallelOutcome":
        """Fan a heavy request out through the sharded engine.

        The warehouse rides along per shard: each worker's feedstock is
        sliced by its shard fingerprint going out, and each fresh shard
        result is banked coming back — one tenant's heavy request warms
        the shards for everyone else's.
        """
        from repro.parallel import ParallelEngine

        shard_feedstock = None
        on_shard_result = None
        if self.warehouse is not None:
            warehouse = self.warehouse

            def shard_feedstock(fingerprint: str, local_support: int):
                try:
                    hit = warehouse.best_feedstock(fingerprint, local_support)
                except ReproError:
                    return None  # a failed shard read is just a cold shard
                if hit is None:
                    return None
                # Condensed entries cross the shard boundary as-is; the
                # executor serializes their entries and rehydrates the
                # condensed set inside the worker.
                return hit.feedstock, hit.absolute_support

            def on_shard_result(
                fingerprint: str, local_support: int, patterns: PatternSet
            ) -> None:
                warehouse.put(fingerprint, local_support, patterns)

        if self._parallel_engine_factory is not None:
            engine = self._parallel_engine_factory(
                request.jobs, shard_feedstock, on_shard_result
            )
        else:
            engine = ParallelEngine(
                request.jobs,
                shard_feedstock=shard_feedstock,
                on_shard_result=on_shard_result,
                retry_policy=self.resilience.retry,
                fault_injector=self.resilience.faults,
            )
        if plan.path == PATH_RECYCLE:
            return engine.recycle_mine(
                request.db,
                plan.feedstock,
                absolute,
                strategy=request.strategy,
                counters=counters,
                backend=request.backend,
            )
        return engine.mine(
            request.db,
            absolute,
            strategy=request.strategy,
            counters=counters,
            backend=request.backend,
        )
