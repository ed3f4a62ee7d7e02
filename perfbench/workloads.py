"""The three tenant workloads, built from a seed, driven through the public API.

Each workload has four phases:

* ``prepare`` (untimed): what a tenant would not pay for — calibrating
  each tenant's support ladder and computing the reference results, or
  writing the on-disk chain history that a restart recovers.
* ``setup`` (timed as ``setup_s``): build the tenant databases, open the
  warehouse, service and gateway, and warm up on a throwaway service.
* ``sessions``: an endless, seed-determined sequence of tenant sessions
  that the closed loop runs; each request returns ``(outcome, detail)``.
* ``check`` (untimed, after each request): compare the served pattern
  set with an independent scratch mine (:class:`Oracle`) and keep only
  what the per-layer accounting needs.
"""

from __future__ import annotations

import itertools
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from harness import RAISED, SERVED

from repro.data.datasets import connect4_like, weather_like
from repro.data.patterns import CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.errors import ReproError
from repro.gateway import GatewayConfig, MiningGateway
from repro.metrics.counters import CostCounters
from repro.mining.registry import get_miner
from repro.service import MineRequest, MiningService, PatternWarehouse
from repro.storage.disk import patterns_byte_size

GENERATORS: dict[str, Callable[..., TransactionDatabase]] = {
    "connect4": connect4_like,
    "weather": weather_like,
}

#: Independent reference miner: vertical Eclat over big-int tidsets, an
#: algorithm no serving path uses.
ORACLE_MINER = "eclat-bitset"


class Oracle:
    """Scratch mines of the reference miner, cached per (database, support)."""

    def __init__(self) -> None:
        self._cache: dict[tuple[str, int], object] = {}
        self._miner = get_miner(ORACLE_MINER, kind="baseline")

    def mine(self, db: TransactionDatabase, absolute: int):
        return self._miner.mine(db, absolute, None)

    def expected(self, db: TransactionDatabase, absolute: int):
        key = (db.fingerprint(), absolute)
        if key not in self._cache:
            self._cache[key] = self.mine(db, absolute)
        return self._cache[key]


@dataclass(frozen=True)
class Tenant:
    name: str
    kind: str
    rows: int
    seed: int

    def build(self, extra_rows: int = 0) -> TransactionDatabase:
        return GENERATORS[self.kind](seed=self.seed, n_transactions=self.rows + extra_rows)


@dataclass
class Served:
    """A served request, until it is checked."""

    db: TransactionDatabase
    absolute: int
    patterns: object
    response: object  # MineResponse
    gateway: object = None  # GatewayResponse, when served through the gateway


@dataclass
class Record:
    """What a checked request leaves for the per-layer accounting."""

    path: str
    counters: CostCounters
    queue_seconds: float = 0.0
    batched: bool = False


@dataclass
class Runtime:
    """What one set-up opened; ``close`` releases it."""

    service: MiningService
    warehouse: PatternWarehouse
    dbs: dict[str, TransactionDatabase]
    generate_seconds: float
    gateway: MiningGateway | None = None

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.close()
        self.service.close()


def zipf_ranks(n: int, exponent: float) -> Iterator[int]:
    """Popularity ranks in Zipf proportions, smoothly interleaved.

    Smooth weighted round-robin: every prefix of the sequence visits each
    rank within one visit of its Zipf share, so a run sees the same mix
    of popular and rare tenants however far it gets.
    """
    weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
    total = sum(weights)
    credit = [0.0] * n
    while True:
        for rank in range(n):
            credit[rank] += weights[rank]
        pick = max(range(n), key=credit.__getitem__)
        credit[pick] -= total
        yield pick


def calibrated_ladder(
    oracle: Oracle,
    db: TransactionDatabase,
    rung_patterns: tuple[int, ...],
    start: float,
) -> tuple[int, ...]:
    """Absolute supports at which the result first reaches each rung's size.

    One reference mine at a support low enough for the largest rung
    gives the whole support-to-size curve: the result at support ``s``
    holds every pattern whose support is at least ``s``. Asking every
    tenant for results of the same sizes keeps the work of a session
    comparable across seeds, where fixed relative supports give result
    sizes that differ fourfold between seeds of one generator.
    """
    relative = start
    while True:
        absolute = db.relative_to_absolute(relative)
        reference = oracle.mine(db, absolute)  # not a rung: keep it out of the cache
        if len(reference) >= max(rung_patterns) or absolute <= 1:
            break
        relative -= 0.02
    supports = sorted((support for _, support in reference.items()), reverse=True)
    ladder: list[int] = []
    for size in rung_patterns:
        support = supports[min(size, len(supports)) - 1]
        if ladder and support >= ladder[-1]:
            support = ladder[-1] - 1
        ladder.append(support)
    return tuple(ladder)


def _warm_up(jobs: int, gateway: bool) -> None:
    """Run one tiny request through a throwaway stack (imports, pools)."""
    db = TransactionDatabase([[1, 2, 3], [1, 2], [2, 3], [1, 3], [1, 2, 3]] * 4)
    with MiningService(None, max_workers=1) as service:
        request = MineRequest(db, 2, tenant="warm-up", jobs=jobs)
        if gateway:
            front = MiningGateway(service, GatewayConfig(max_inflight=1))
            try:
                front.execute(request)
            finally:
                front.close()
        else:
            service.execute(request)


def _serve(service: MiningService, request: MineRequest) -> tuple[str, object]:
    try:
        response = service.execute(request)
    except ReproError as exc:
        return RAISED, exc
    return SERVED, Served(request.db, request.absolute_support(), response.patterns, response)


def _serve_gateway(gateway: MiningGateway, request: MineRequest) -> tuple[str, object]:
    try:
        response = gateway.execute(request)
    except ReproError as exc:
        return RAISED, exc
    if not response.ok:
        return response.status, response
    served = response.response
    return SERVED, Served(request.db, request.absolute_support(), served.patterns, served, response)


def _ladder_session(
    send: Callable[[MineRequest], tuple[str, object]],
    db: TransactionDatabase,
    tenant: str,
    ladder: tuple[int, ...],
    jobs: int,
) -> Callable[[], Iterator]:
    """Walk the ladder down, then tighten back to its second rung once."""
    supports = list(ladder) + [ladder[1]]

    def run() -> Iterator:
        for step, support in enumerate(supports):
            request = MineRequest(db, support, tenant=tenant, jobs=jobs)
            yield step, (lambda request=request: send(request))

    return run


class Workload:
    """Common shape; subclasses fill in the tenants and the sessions."""

    name = ""
    #: What the workload loads and what it bypasses, printed with its sizes.
    loads = ""
    bypasses = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setups = 5
    clients = 1
    jobs = 1
    kind = ""
    #: Tenant i has ``rows[i % len(rows)]`` rows.
    rows: tuple[int, ...] = ()
    n_tenants = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.tenants = self.plan_tenants()
        self.oracle = Oracle()

    def plan_tenants(self) -> list[Tenant]:
        return [
            Tenant(
                name=f"t{i}",
                kind=self.kind,
                rows=self.rows[i % len(self.rows)],
                seed=self.rng.randrange(1 << 30),
            )
            for i in range(self.n_tenants)
        ]

    def prepare(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Untimed, before every set-up: undo what an earlier loop changed."""

    def setup(self) -> Runtime:
        raise NotImplementedError

    def sessions(self, runtime: Runtime) -> Iterator[Callable[[], Iterator]]:
        raise NotImplementedError

    def sizes(self) -> dict[str, object]:
        rows = sorted({t.rows for t in self.tenants})
        return {
            "tenants": len(self.tenants),
            "rows": f"{rows[0]}-{rows[-1]}",
            "clients": self.clients,
            "jobs": self.jobs,
        }

    def reference(self, db: TransactionDatabase, absolute: int):
        return self.oracle.expected(db, absolute)

    def check(self, outcome: str, detail: object) -> tuple[bool | None, Record | None]:
        if outcome != SERVED:
            return None, None
        response, gateway = detail.response, detail.gateway
        record = Record(response.path, response.counters)
        if gateway is not None:
            record.queue_seconds = gateway.queue_seconds
            record.batched = gateway.batched
        return detail.patterns == self.reference(detail.db, detail.absolute), record

    def _generate(self) -> tuple[dict[str, TransactionDatabase], float]:
        started = time.perf_counter()
        dbs = {t.name: t.build() for t in self.tenants}
        return dbs, time.perf_counter() - started


class LadderWorkload(Workload):
    """Tenants walk calibrated support ladders against a byte-budgeted LRU."""

    rung_patterns: tuple[int, ...] = ()
    #: Relative support the calibration search starts from.
    calibration_start = 0.95
    #: Warehouse byte budget as a share of every tenant's lowest-rung result.
    budget_share = 1.0

    def prepare(self) -> None:
        dbs, _ = self._generate()
        self.ladders: dict[str, tuple[int, ...]] = {}
        working_set = 0
        for name, db in dbs.items():
            ladder = calibrated_ladder(
                self.oracle, db, self.rung_patterns, self.calibration_start
            )
            self.ladders[name] = ladder
            for support in ladder:
                self.oracle.expected(db, support)
            lowest = ladder[-1]
            condensed = CondensedPatternSet.condense(
                self.oracle.expected(db, lowest), lowest, "closed"
            )
            working_set += patterns_byte_size(condensed)
        self.byte_budget = max(1, int(working_set * self.budget_share))

    def sizes(self) -> dict[str, object]:
        return {
            **super().sizes(),
            "byte_budget": self.byte_budget,
            "flush": "in-memory closed warehouse, LRU",
        }

    def _open(self) -> tuple[dict[str, TransactionDatabase], float, PatternWarehouse, MiningService]:
        dbs, generated = self._generate()
        warehouse = PatternWarehouse(byte_budget=self.byte_budget, representation="closed")
        service = MiningService(warehouse, max_workers=self.clients)
        return dbs, generated, warehouse, service


class TenantDense(LadderWorkload):
    """Zipfian tenants on dense stand-ins behind the gateway, tight LRU.

    Every tenant is a 1k-row connect4 stand-in: at equal result sizes
    pumsb recycles cost up to four times more from one seed to the next,
    and larger tables make a cold H-Mine mine cost seconds, leaving too
    few cold mines in a run to place its 90th percentile steadily.
    """

    name = "tenant-dense"
    loads = "gateway queue, cold H-Mine mines, recycling, warehouse LRU evictions"
    bypasses = "parallel engine, durability"
    clients = 2
    kind = "connect4"
    rows = (1000,)
    n_tenants = 16
    rung_patterns = (250, 400, 600, 900, 1400)
    calibration_start = 0.95
    zipf_exponent = 0.6
    budget_share = 0.2

    def setup(self) -> Runtime:
        dbs, generated, warehouse, service = self._open()
        gateway = MiningGateway(
            service, GatewayConfig(batching=True, max_inflight=self.clients)
        )
        _warm_up(self.jobs, gateway=True)
        return Runtime(service, warehouse, dbs, generated, gateway=gateway)

    def sessions(self, runtime: Runtime) -> Iterator[Callable[[], Iterator]]:
        # Tenant i has popularity rank i; the seed picks each one's data.
        send = lambda request: _serve_gateway(runtime.gateway, request)
        for rank in zipf_ranks(len(self.tenants), self.zipf_exponent):
            tenant = self.tenants[rank]
            yield _ladder_session(
                send, runtime.dbs[tenant.name], tenant.name, self.ladders[tenant.name], self.jobs
            )


class SparseSharded(LadderWorkload):
    """One analyst at a time on sparse stand-ins, recycling through shards."""

    name = "sparse-sharded"
    loads = "parallel engine: phase-1 compression, shard mining, exact merge"
    bypasses = "gateway, cold H-Mine mining, durability"
    clients = 1
    jobs = 2
    kind = "weather"
    rows = (1000, 1500, 2000)
    n_tenants = 8
    rung_patterns = (100, 200, 400)
    calibration_start = 0.3
    #: Tenants come back in a fixed cycle and the LRU holds about two of
    #: them, so every session is cold: the mix stays the same however
    #: many cycles a run completes.
    budget_share = 0.25

    def setup(self) -> Runtime:
        dbs, generated, warehouse, service = self._open()
        _warm_up(self.jobs, gateway=False)
        return Runtime(service, warehouse, dbs, generated)

    def sessions(self, runtime: Runtime) -> Iterator[Callable[[], Iterator]]:
        order = list(self.tenants)
        random.Random(f"{self.name}:sessions:{self.seed}").shuffle(order)
        send = lambda request: _serve(runtime.service, request)
        for tenant in itertools.cycle(order):
            yield _ladder_session(
                send, runtime.dbs[tenant.name], tenant.name, self.ladders[tenant.name], self.jobs
            )


@dataclass
class Stream:
    """One tenant's client-side chain and its supply of new rows."""

    head: VersionedDatabase
    pool: list[tuple[int, ...]]
    steps: int = 0
    #: Versions the client holds: the head and its retained ancestors.
    depth: int = 1


class StreamRestart(Workload):
    """Streaming tenants reopened from disk, then one delta per request."""

    name = "stream-restart"
    loads = "recovery, apply_delta, update path (FUP / update-recycle), journal fsyncs, chains"
    bypasses = "gateway, parallel engine, cold mining"
    kind = "connect4"
    rows = (1000,)
    n_tenants = 4
    support = 0.93
    history_steps = 3
    #: The client keeps at most this many versions of its chain, then
    #: starts a new chain at its head. The chain's cost (apply_delta,
    #: lineage walks) and memory then cycle instead of growing with the
    #: number of steps a run happens to complete.
    window = 20
    #: The warehouse's byte budget holds about this many entries per
    #: tenant, so memory stays flat however many steps a run completes.
    entries_per_tenant = 6
    append_share = 0.01
    delete_every = 5
    pool_rows = 1000

    def sizes(self) -> dict[str, object]:
        return {
            **super().sizes(),
            "history_steps": self.history_steps,
            "window": self.window,
            "byte_budget": self.byte_budget,
            "flush": "directory warehouse, journaled, fsync per write, LRU",
        }

    @property
    def directory(self) -> Path:
        return self.workdir / "warehouse"

    @property
    def pristine(self) -> Path:
        return self.workdir / "warehouse-prepared"

    def _delta(self, tenant: Tenant, stream: Stream) -> DatabaseDelta:
        """The stream's next step: 1% appends, plus a 1% delete every fifth."""
        count = max(1, int(tenant.rows * self.append_share))
        start = (stream.steps * count) % (len(stream.pool) - count)
        deletes: list[int] = []
        if stream.steps % self.delete_every == self.delete_every - 1:
            rng = random.Random(f"{self.name}:{self.seed}:{tenant.name}:{stream.steps}")
            deletes = rng.sample(sorted(stream.head.db.tids), count)
        stream.steps += 1
        return DatabaseDelta(
            appends=tuple(stream.pool[start : start + count]), deletes=frozenset(deletes)
        )

    def _streams(self, service: MiningService | None = None) -> dict[str, Stream]:
        """Each tenant's chain after its history; ``service`` records it on disk."""
        streams = {}
        for tenant in self.tenants:
            full = tenant.build(extra_rows=self.pool_rows)
            stream = Stream(
                VersionedDatabase.initial(TransactionDatabase(full.transactions[: tenant.rows])),
                list(full.transactions[tenant.rows :]),
            )
            for step in range(self.history_steps + 1):
                if service is not None:
                    service.execute(
                        MineRequest(stream.head.db, self.support, tenant.name, version=stream.head)
                    )
                if step < self.history_steps:
                    delta = self._delta(tenant, stream)
                    stream.head = (
                        service.apply_delta(stream.head, delta)
                        if service is not None
                        else stream.head.apply(delta)
                    )
                    stream.depth += 1
            streams[tenant.name] = stream
        return streams

    def prepare(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        warehouse = PatternWarehouse(directory=self.directory, representation="closed")
        with MiningService(warehouse, max_workers=1) as service:
            self._streams(service)
        stats = warehouse.stats()
        per_entry = stats["stored_bytes"] / stats["entries"]
        self.byte_budget = int(per_entry * self.entries_per_tenant * self.n_tenants)
        shutil.copytree(self.directory, self.pristine)

    def reset(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)
        shutil.copytree(self.pristine, self.directory)

    def setup(self) -> Runtime:
        # The client rebuilds its chains; the restarted service reopens
        # the disk, which runs recovery.
        started = time.perf_counter()
        self.streams = self._streams()
        generated = time.perf_counter() - started
        warehouse = PatternWarehouse(
            byte_budget=self.byte_budget, directory=self.directory, representation="closed"
        )
        service = MiningService(warehouse, max_workers=1)
        _warm_up(self.jobs, gateway=False)
        dbs = {name: stream.head.db for name, stream in self.streams.items()}
        return Runtime(service, warehouse, dbs, generated)

    def reference(self, db: TransactionDatabase, absolute: int):
        return self.oracle.mine(db, absolute)  # every version is new: no cache

    def sessions(self, runtime: Runtime) -> Iterator[Callable[[], Iterator]]:
        service = runtime.service
        streams = self.streams

        def resubmit(tenant: Tenant) -> Callable[[], Iterator]:
            # The first request after the restart is unversioned, so the
            # service rebuilds the chain from its durable records.
            request = MineRequest(streams[tenant.name].head.db, self.support, tenant.name)

            def run() -> Iterator:
                yield 0, (lambda: _serve(service, request))

            return run

        def advance(tenant: Tenant) -> Callable[[], Iterator]:
            stream = streams[tenant.name]

            def step() -> tuple[str, object]:
                if stream.depth >= self.window:
                    head = stream.head
                    stream.head = VersionedDatabase(
                        head.db, version=head.version, next_tid=head.next_tid
                    )
                    stream.depth = 1
                try:
                    stream.head = service.apply_delta(stream.head, self._delta(tenant, stream))
                except ReproError as exc:
                    return RAISED, exc
                stream.depth += 1
                return _serve(
                    service,
                    MineRequest(stream.head.db, self.support, tenant.name, version=stream.head),
                )

            def run() -> Iterator:
                yield 0, step

            return run

        for tenant in self.tenants:
            yield resubmit(tenant)
        for tenant in itertools.cycle(self.tenants):
            yield advance(tenant)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TenantDense, SparseSharded, StreamRestart)
}
