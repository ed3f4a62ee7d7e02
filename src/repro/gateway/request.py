"""Gateway request/response envelopes: priorities, deadlines, outcomes.

The gateway wraps the service's :class:`~repro.service.MineRequest` in a
:class:`GatewayRequest` carrying the two traffic-management fields the
synchronous service has no use for — a **priority class** (which queue
lane the request waits in) and a **deadline** (how long the answer is
worth waiting for) — and answers every submission with a
:class:`GatewayResponse` whose ``status`` says what actually happened:
served, shed under load, rejected at admission, or expired in queue.

A non-``served`` response is not an exception. Load shedding and
deadline expiry are the gateway doing its job — protecting latency for
the traffic that still matters — so they come back as structured
responses with a :class:`~repro.resilience.DegradationReport` naming the
reason, and counters in :class:`~repro.gateway.stats.GatewayStats`, not
as errors a caller has to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import GatewayError
from repro.mining.patterns import PatternSet
from repro.resilience import DegradationReport
from repro.service import MineRequest, MineResponse

#: Priority classes, best first. Rank order is scheduling order: the
#: queue always serves the lowest-ranked non-empty class.
PRIORITY_INTERACTIVE = "interactive"
PRIORITY_STANDARD = "standard"
PRIORITY_BATCH = "batch"
PRIORITY_CLASSES: tuple[str, ...] = (
    PRIORITY_INTERACTIVE,
    PRIORITY_STANDARD,
    PRIORITY_BATCH,
)
PRIORITY_RANKS: dict[str, int] = {
    name: rank for rank, name in enumerate(PRIORITY_CLASSES)
}

#: Terminal statuses a gateway submission can resolve to.
STATUS_SERVED = "served"
STATUS_SHED = "shed"
STATUS_REJECTED = "rejected"
STATUS_EXPIRED = "expired"
STATUSES: tuple[str, ...] = (
    STATUS_SERVED,
    STATUS_SHED,
    STATUS_REJECTED,
    STATUS_EXPIRED,
)


@dataclass(frozen=True)
class GatewayRequest:
    """One tenant's request plus its traffic-management envelope.

    ``deadline_seconds`` is relative to enqueue: if the request is still
    queued when it elapses, the gateway rejects it (``status ==
    "expired"``) instead of mining stale work. ``None`` means wait
    forever.
    """

    request: MineRequest
    priority: str = PRIORITY_STANDARD
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.priority not in PRIORITY_RANKS:
            raise GatewayError(
                f"unknown priority {self.priority!r} "
                f"(known: {', '.join(PRIORITY_CLASSES)})"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise GatewayError(
                f"deadline_seconds must be positive, got {self.deadline_seconds}"
            )

    @property
    def rank(self) -> int:
        """Scheduling rank (lower serves first)."""
        return PRIORITY_RANKS[self.priority]

    @property
    def tenant(self) -> str:
        return self.request.tenant

    def batch_key(self) -> tuple[str, str, str, int]:
        """The cross-request batching compatibility key.

        Two requests are *compatible* — one shared mine can serve both
        exactly — when they target the same database *version* (the
        chain head's fingerprint when the request carries a
        :class:`~repro.data.versioned.VersionedDatabase`, the bare
        database fingerprint otherwise — two versions of one tenant's
        evolving database never share a batch) with
        the same strategy, backend and jobs. Support is
        deliberately absent: the batch mines once at the group's minimum
        absolute support and serves every member by
        ``filter_min_support``, which is exact because the full frequent
        set at a lower threshold is a superset of the set at any higher
        one. This generalizes the service's byte-identical single-flight
        coalescing (same key *and* same support) to whole support
        ladders.
        """
        return (
            self.request.version_fingerprint(),
            self.request.strategy,
            self.request.backend,
            self.request.jobs,
        )


@dataclass(frozen=True)
class GatewayResponse:
    """What the gateway did with one submission.

    ``response`` is the underlying service response — the batch
    leader's for the member that triggered the shared mine, a
    synthesized filter-view of it for the other members — and is
    ``None`` exactly when ``status != "served"``. ``served_at_work`` is
    the gateway's cumulative machine-independent work counter
    (``CostCounters.total_work`` summed over every computation it has
    dispatched) at the moment this response resolved: a wall-clock-free
    latency proxy the load bench gates CI on.
    """

    gateway_request: GatewayRequest
    status: str
    response: MineResponse | None = None
    batched: bool = False
    batch_size: int = 1
    batch_support: int | None = None
    queue_seconds: float = 0.0
    served_at_work: int | None = None
    degradation: DegradationReport = field(default_factory=DegradationReport)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SERVED

    @property
    def tenant(self) -> str:
        return self.gateway_request.tenant

    @property
    def priority(self) -> str:
        return self.gateway_request.priority

    @property
    def patterns(self) -> PatternSet:
        """The served pattern set (raises on a non-served response)."""
        if self.response is None:
            raise GatewayError(
                f"request was not served (status={self.status!r}: "
                f"{self.degradation.describe() or 'no reason recorded'})"
            )
        return self.response.patterns
