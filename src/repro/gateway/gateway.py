"""The async high-throughput gateway in front of :class:`MiningService`.

``MiningService`` is a synchronous worker pool: every submission goes
straight into the pool's FIFO, saturation queues silently, and only
byte-identical requests share work. :class:`MiningGateway` is the
traffic-management layer the "millions of users" north star needs in
front of it:

* **Priority queueing with deadlines** — submissions wait in a
  :class:`~repro.gateway.queueing.PriorityRequestQueue` (interactive >
  standard > batch); a request whose deadline elapses in queue is
  rejected with a structured ``deadline_expired`` degradation instead
  of mining stale work.
* **Admission control / backpressure** — a bounded queue depth; at the
  bound, an arriving request either sheds the youngest lowest-priority
  queued entry (when it outranks it) or is itself rejected
  (``queue_full``). Both outcomes are structured
  :class:`~repro.gateway.request.GatewayResponse`\\ s, counted in
  :class:`~repro.gateway.stats.GatewayStats`, never silent.
* **Cross-request batching** — at dispatch, every queued request
  compatible with the dequeued leader (same database fingerprint,
  strategy, backend, jobs) joins one
  :class:`~repro.gateway.batching.BatchPlan`: mine once at the group's
  minimum support, serve each member exactly via ``filter_min_support``.
* **Per-tenant fairness** — weighted deficit-round-robin dequeue inside
  each priority class, so one hot tenant cannot starve the rest.

Two execution modes share all of that logic:

* **Auto mode** (default): a dispatcher thread pulls plans from the
  queue and fans them out through ``service.submit`` asynchronously,
  with at most ``max_inflight`` computations outstanding — the
  backpressure signal that makes the queue (and therefore admission
  control) real when the pool saturates. ``submit`` returns a
  ``concurrent.futures.Future``; ``submit_async`` awaits the same
  future on an asyncio loop, making the gateway a drop-in async front
  end over the thread pool (the hybrid async-over-pool design).
* **Manual mode** (``start=False``): nothing runs until the caller
  pumps (:meth:`pump_once` / :meth:`drain`). Dispatch order is then a
  pure function of the submission sequence and the injected clock,
  which is what the deterministic load benchmark and the chaos tests
  replay.

Whatever the mode and whatever the path — batched, coalesced, degraded
to serial, retried — a *served* response is bit-identical to the same
request executed synchronously by the service; the gateway only ever
reorders, merges or refuses work, never approximates it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Callable, Mapping

from repro.errors import GatewayError
from repro.gateway.batching import BatchPlan, member_response, plan_batch
from repro.gateway.queueing import PriorityRequestQueue, QueueEntry
from repro.gateway.request import (
    PRIORITY_RANKS,
    PRIORITY_STANDARD,
    STATUS_EXPIRED,
    STATUS_REJECTED,
    STATUS_SERVED,
    STATUS_SHED,
    GatewayRequest,
    GatewayResponse,
)
from repro.gateway.stats import GatewayStats
from repro.resilience import (
    REASON_DEADLINE_EXPIRED,
    REASON_GATEWAY_CLOSED,
    REASON_LOAD_SHED,
    REASON_QUEUE_FULL,
    DegradationReport,
)
from repro.service import MineRequest, MiningService


class GatewayConfig:
    """The gateway's traffic-management knobs.

    Parameters
    ----------
    max_queue_depth:
        Admission bound: arrivals beyond this queue depth shed or are
        rejected. ``None`` disables admission control (the queue grows
        without limit, like a naive front end).
    shed_on_full:
        At the bound, drop the youngest strictly-lower-priority queued
        entry to admit a higher-priority arrival. When ``False`` (or
        when nothing outranks), the arrival is rejected instead.
    batching:
        Enable cross-request batching at dispatch.
    max_batch_size:
        Cap on requests merged into one plan (``None`` = unlimited).
    default_priority / default_deadline_seconds:
        Applied to plain :class:`MineRequest` submissions that carry no
        gateway envelope.
    tenant_weights:
        Deficit-round-robin weights (default 1.0; higher = larger share).
    fifo:
        Disable priority *and* fairness scheduling — pure arrival order.
        The "no admission control" baseline for benchmarks.
    max_inflight:
        Auto-mode cap on concurrently dispatched computations. This is
        the saturation coupling: when the pool is this far behind, the
        queue grows and admission control takes over.
    """

    def __init__(
        self,
        max_queue_depth: int | None = None,
        shed_on_full: bool = True,
        batching: bool = True,
        max_batch_size: int | None = None,
        default_priority: str = PRIORITY_STANDARD,
        default_deadline_seconds: float | None = None,
        tenant_weights: Mapping[str, float] | None = None,
        drr_quantum: float = 1.0,
        fifo: bool = False,
        max_inflight: int = 4,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise GatewayError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if max_batch_size is not None and max_batch_size < 1:
            raise GatewayError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_inflight < 1:
            raise GatewayError(f"max_inflight must be >= 1, got {max_inflight}")
        if default_priority not in PRIORITY_RANKS:
            raise GatewayError(f"unknown priority {default_priority!r}")
        if (
            default_deadline_seconds is not None
            and default_deadline_seconds <= 0
        ):
            raise GatewayError(
                "default_deadline_seconds must be positive, "
                f"got {default_deadline_seconds}"
            )
        self.max_queue_depth = max_queue_depth
        self.shed_on_full = shed_on_full
        self.batching = batching
        self.max_batch_size = max_batch_size
        self.default_priority = default_priority
        self.default_deadline_seconds = default_deadline_seconds
        self.tenant_weights = dict(tenant_weights or {})
        self.drr_quantum = drr_quantum
        self.fifo = fifo
        self.max_inflight = max_inflight


class MiningGateway:
    """Priority queueing, admission control and batching over a service.

    The gateway never closes the service it fronts — the caller owns
    both lifecycles (typically via nested ``with`` blocks).
    """

    def __init__(
        self,
        service: MiningService,
        config: GatewayConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        start: bool = True,
    ) -> None:
        self._service = service
        self.config = config or GatewayConfig()
        self._clock = clock
        self._queue = PriorityRequestQueue(
            tenant_weights=self.config.tenant_weights,
            quantum=self.config.drr_quantum,
            fifo=self.config.fifo,
        )
        self.stats = GatewayStats()
        service.stats.attach_gauges(self.stats)
        self._cv = threading.Condition()
        self._seq = 0
        self._inflight = 0
        self._closed = False
        self._thread: threading.Thread | None = None
        if start:
            self._thread = threading.Thread(
                target=self._dispatch_loop,
                name="repro-gateway-dispatch",
                daemon=True,
            )
            self._thread.start()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self, request: "MineRequest | GatewayRequest"
    ) -> "Future[GatewayResponse]":
        """Enqueue a request; returns a future resolving to its outcome.

        Admission control runs here, synchronously: a rejected or
        shedding arrival resolves (its own or the victim's) future
        immediately with a structured non-served response. Validation
        errors (``jobs < 1``, closed gateway) raise — they are caller
        bugs, not traffic.
        """
        gateway_request = self._wrap(request)
        mine_request = gateway_request.request
        if mine_request.jobs < 1:
            raise GatewayError(f"jobs must be >= 1, got {mine_request.jobs}")
        future: "Future[GatewayResponse]" = Future()
        self.stats.record_submitted()
        to_shed: QueueEntry | None = None
        rejected = False
        with self._cv:
            if self._closed:
                raise GatewayError("gateway is closed")
            self._seq += 1
            entry = QueueEntry(
                gateway_request=gateway_request,
                seq=self._seq,
                enqueued_at=self._clock(),
                future=future,
            )
            depth_bound = self.config.max_queue_depth
            if depth_bound is not None and self._queue.depth >= depth_bound:
                if self.config.shed_on_full:
                    to_shed = self._queue.shed_worse_than(entry.rank)
                if to_shed is not None:
                    self._queue.push(entry)
                else:
                    rejected = True
            else:
                self._queue.push(entry)
            self._note_depth_locked()
            self._cv.notify_all()
        if to_shed is not None:
            self._resolve_unserved(to_shed, STATUS_SHED, REASON_LOAD_SHED)
        if rejected:
            self._resolve_unserved(entry, STATUS_REJECTED, REASON_QUEUE_FULL)
        return future

    def execute(
        self, request: "MineRequest | GatewayRequest"
    ) -> GatewayResponse:
        """Submit and wait (manual mode drains the queue to get there)."""
        future = self.submit(request)
        if self._thread is None:
            self.drain()
        return future.result()

    def execute_many(
        self, requests: "list[MineRequest | GatewayRequest]"
    ) -> list[GatewayResponse]:
        """Submit every request up front, then gather in arrival order.

        Submitting everything before gathering is what gives
        cross-request batching its shot: queued contemporaries on the
        same fingerprint merge into one plan, exactly like simultaneous
        users.
        """
        futures = [self.submit(request) for request in requests]
        if self._thread is None:
            self.drain()
        return [future.result() for future in futures]

    async def submit_async(
        self, request: "MineRequest | GatewayRequest"
    ) -> GatewayResponse:
        """Await one request on an asyncio loop (auto mode only)."""
        import asyncio

        self._require_auto("submit_async")
        return await asyncio.wrap_future(self.submit(request))

    async def execute_many_async(
        self, requests: "list[MineRequest | GatewayRequest]"
    ) -> list[GatewayResponse]:
        """Submit all, await all — the asyncio face of :meth:`execute_many`."""
        import asyncio

        self._require_auto("execute_many_async")
        futures = [asyncio.wrap_future(self.submit(r)) for r in requests]
        return list(await asyncio.gather(*futures))

    # ------------------------------------------------------------------
    # manual pumping (deterministic mode)
    # ------------------------------------------------------------------
    def pump_once(self) -> int:
        """Dispatch at most one batch synchronously; returns resolutions.

        Manual mode only. One pump: purge expired entries, pop the next
        leader under priority + fairness, pull its compatible queue-
        mates into a plan, execute the shared request through the
        service, fan the result out. The count includes expired
        resolutions, so ``pump_once() == 0`` means the queue is empty.
        """
        self._require_manual("pump_once")
        with self._cv:
            now = self._clock()
            expired = self._queue.purge_expired(now)
            leader = self._queue.pop()
            members: list[QueueEntry] = []
            if leader is not None and self.config.batching:
                limit = (
                    None
                    if self.config.max_batch_size is None
                    else self.config.max_batch_size - 1
                )
                members = self._queue.take_compatible(
                    leader.gateway_request.batch_key(), limit
                )
            self._note_depth_locked()
        resolved = 0
        for entry in expired:
            self._resolve_unserved(
                entry, STATUS_EXPIRED, REASON_DEADLINE_EXPIRED
            )
            resolved += 1
        if leader is None:
            return resolved
        plan = plan_batch(leader, members)
        try:
            shared = self._service.execute(plan.shared_request())
        except BaseException as exc:
            self._fail_plan(plan, exc)
            return resolved + plan.size
        self._complete_plan(plan, shared, dispatched_at=now)
        return resolved + plan.size

    def drain(self) -> int:
        """Pump until the queue is empty; returns total resolutions."""
        total = 0
        while True:
            resolved = self.pump_once()
            if resolved == 0:
                return total
            total += resolved

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop accepting work; finish (or flush) what is queued.

        ``drain=True`` serves everything already admitted before
        shutting down; ``drain=False`` rejects queued entries with a
        ``gateway_closed`` degradation.
        """
        with self._cv:
            already_closed = self._closed
            self._closed = True
            flushed = [] if drain else self._queue.drain()
            self._note_depth_locked()
            self._cv.notify_all()
        for entry in flushed:
            self._resolve_unserved(entry, STATUS_REJECTED, REASON_GATEWAY_CLOSED)
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        elif drain and not already_closed:
            self.drain()

    def __enter__(self) -> "MiningGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def queue_depth(self) -> int:
        with self._cv:
            return self._queue.depth

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _wrap(
        self, request: "MineRequest | GatewayRequest"
    ) -> GatewayRequest:
        if isinstance(request, GatewayRequest):
            return request
        return GatewayRequest(
            request=request,
            priority=self.config.default_priority,
            deadline_seconds=self.config.default_deadline_seconds,
        )

    def _require_manual(self, what: str) -> None:
        if self._thread is not None:
            raise GatewayError(
                f"{what} is for manual-mode gateways (start=False); "
                "this gateway runs its own dispatcher"
            )

    def _require_auto(self, what: str) -> None:
        if self._thread is None:
            raise GatewayError(
                f"{what} needs the auto-mode dispatcher; this gateway is "
                "manual (start=False) — pump it instead"
            )

    def _note_depth_locked(self) -> None:
        self.stats.note_queue_depth(self._queue.depth, self._queue.high_water)

    def _resolve_unserved(
        self, entry: QueueEntry, status: str, reason: str
    ) -> None:
        """Resolve a future for work the gateway refused or dropped."""
        degradation = DegradationReport()
        served = "shed" if status == STATUS_SHED else "reject"
        degradation.record("serve", served, reason)
        response = GatewayResponse(
            gateway_request=entry.gateway_request,
            status=status,
            queue_seconds=max(0.0, self._clock() - entry.enqueued_at),
            served_at_work=self.stats.current_work(),
            degradation=degradation,
        )
        self.stats.record_outcome(response)
        entry.future.set_result(response)

    def _fail_plan(self, plan: BatchPlan, exc: BaseException) -> None:
        self.stats.record_failure()
        for entry in plan.entries:
            entry.future.set_exception(exc)

    def _complete_plan(
        self, plan: BatchPlan, shared, dispatched_at: float
    ) -> None:
        """Fan a shared computation out to every member of the plan."""
        leader_work = (
            shared.counters.total_work() if not shared.coalesced else 0
        )
        self.stats.record_batch(plan.size, leader_work)
        work_now = self.stats.current_work()
        for entry in plan.entries:
            response = GatewayResponse(
                gateway_request=entry.gateway_request,
                status=STATUS_SERVED,
                response=member_response(entry, shared, plan),
                batched=plan.batched,
                batch_size=plan.size,
                batch_support=plan.min_support,
                queue_seconds=max(0.0, dispatched_at - entry.enqueued_at),
                served_at_work=work_now,
            )
            self.stats.record_outcome(response)
            entry.future.set_result(response)

    def _dispatch_loop(self) -> None:
        """Auto mode: feed plans to the service, bounded by max_inflight."""
        while True:
            expired: list[QueueEntry] = []
            plan: BatchPlan | None = None
            dispatched_at = 0.0
            with self._cv:
                while True:
                    now = self._clock()
                    expired = self._queue.purge_expired(now)
                    if expired:
                        break
                    if (
                        self._queue.depth
                        and self._inflight < self.config.max_inflight
                    ):
                        leader = self._queue.pop()
                        members: list[QueueEntry] = []
                        if self.config.batching:
                            limit = (
                                None
                                if self.config.max_batch_size is None
                                else self.config.max_batch_size - 1
                            )
                            members = self._queue.take_compatible(
                                leader.gateway_request.batch_key(), limit
                            )
                        self._note_depth_locked()
                        plan = plan_batch(leader, members)
                        dispatched_at = now
                        self._inflight += 1
                        break
                    if (
                        self._closed
                        and self._queue.depth == 0
                        and self._inflight == 0
                    ):
                        return
                    deadline = self._queue.next_deadline()
                    timeout = (
                        None if deadline is None else max(0.0, deadline - now)
                    )
                    self._cv.wait(timeout)
            for entry in expired:
                self._resolve_unserved(
                    entry, STATUS_EXPIRED, REASON_DEADLINE_EXPIRED
                )
            if plan is None:
                continue
            try:
                future = self._service.submit(plan.shared_request())
            except BaseException as exc:
                self._fail_plan(plan, exc)
                with self._cv:
                    self._inflight -= 1
                    self._cv.notify_all()
                continue
            future.add_done_callback(
                lambda f, p=plan, t=dispatched_at: self._on_leader_done(p, t, f)
            )

    def _on_leader_done(
        self, plan: BatchPlan, dispatched_at: float, future: "Future"
    ) -> None:
        """Service-side completion callback for an auto-mode plan."""
        try:
            error = future.exception()
            if error is not None:
                self._fail_plan(plan, error)
            else:
                self._complete_plan(plan, future.result(), dispatched_at)
        finally:
            with self._cv:
                self._inflight -= 1
                self._cv.notify_all()
