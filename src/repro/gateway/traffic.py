"""Synthetic heavy-traffic workload generator for the gateway.

The load benchmark and the gateway stress tests need traffic that looks
like the shared-platform scenario — many tenants, a few of them hot,
analysts walking support ladders, arrivals clumped into bursts — and
they need it *deterministic*, because CI gates on the machine-independent
counters the schedule produces. :func:`synthesize_traffic` builds such a
trace from a seed:

* **Zipfian tenant popularity** — tenant ``rank`` (1-based) is drawn
  with weight ``1 / rank**zipf_exponent``, so a handful of tenants
  dominate, exactly the regime where per-tenant fairness and
  cross-request batching matter.
* **Support-ladder sessions** — each session is one tenant re-mining the
  same database at descending supports (the paper's iterative-refinement
  usage pattern, and the planner's filter/recycle sweet spot).
* **Burst arrivals** — requests land in bursts separated by gaps, the
  arrival process that actually exercises admission control: a queue
  that never fills never sheds.

Everything is driven by one ``random.Random(seed)``; the same seed and
config produce the identical list of ``(arrival_offset, GatewayRequest)``
pairs on any machine.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.data.transactions import TransactionDatabase
from repro.errors import GatewayError
from repro.gateway.request import PRIORITY_CLASSES, PRIORITY_RANKS, GatewayRequest
from repro.service import MineRequest

#: Default mix: mostly interactive and standard traffic, some batch.
DEFAULT_PRIORITY_MIX: dict[str, float] = {
    "interactive": 0.3,
    "standard": 0.5,
    "batch": 0.2,
}


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of a synthetic gateway workload (all knobs seeded)."""

    requests: int = 100
    tenants: int = 8
    zipf_exponent: float = 1.2
    seed: int = 7
    #: Probability of each priority class per session (normalized).
    priority_mix: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_PRIORITY_MIX)
    )
    #: Supports per ladder session (descending walk over ``supports``).
    session_length: int = 3
    #: Requests per arrival burst.
    burst_length: int = 8
    #: Gap between bursts, in synthetic seconds.
    burst_gap_seconds: float = 0.05
    #: Spacing between arrivals inside a burst.
    within_burst_seconds: float = 0.001
    #: Fraction of requests carrying a deadline (0 disables deadlines).
    deadline_fraction: float = 0.0
    #: The deadline attached to that fraction, in synthetic seconds.
    deadline_seconds: float = 0.5
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise GatewayError(f"requests must be >= 1, got {self.requests}")
        if self.tenants < 1:
            raise GatewayError(f"tenants must be >= 1, got {self.tenants}")
        if self.session_length < 1:
            raise GatewayError(
                f"session_length must be >= 1, got {self.session_length}"
            )
        if self.burst_length < 1:
            raise GatewayError(
                f"burst_length must be >= 1, got {self.burst_length}"
            )
        if not 0.0 <= self.deadline_fraction <= 1.0:
            raise GatewayError(
                f"deadline_fraction must be in [0, 1], got "
                f"{self.deadline_fraction}"
            )
        for cls, share in self.priority_mix.items():
            if cls not in PRIORITY_RANKS:
                raise GatewayError(f"unknown priority {cls!r} in priority_mix")
            if share < 0:
                raise GatewayError(
                    f"priority_mix share must be >= 0, got {cls!r}: {share}"
                )
        if not any(self.priority_mix.values()):
            raise GatewayError("priority_mix must have a positive share")


def _zipf_weights(tenants: int, exponent: float) -> list[float]:
    return [1.0 / (rank**exponent) for rank in range(1, tenants + 1)]


def synthesize_traffic(
    db: TransactionDatabase,
    supports: "list[int]",
    config: TrafficConfig | None = None,
    strategy: str = "mcp",
    backend: str = "bitset",
) -> "list[tuple[float, GatewayRequest]]":
    """Build a deterministic ``(arrival_offset, request)`` trace.

    ``supports`` is the absolute-support menu sessions walk down (it is
    sorted descending internally). Offsets are synthetic seconds from
    the start of the trace; a replayer may honor them (sleep), compress
    them (fire bursts back-to-back) or ignore them entirely — the bench
    submits burst-by-burst and lets queue contention come from the
    service's real latency.
    """
    if not supports:
        raise GatewayError("supports menu must not be empty")
    cfg = config or TrafficConfig()
    rng = random.Random(cfg.seed)
    menu = sorted(set(int(s) for s in supports), reverse=True)
    tenant_weights = _zipf_weights(cfg.tenants, cfg.zipf_exponent)
    tenant_names = [f"tenant-{i:02d}" for i in range(1, cfg.tenants + 1)]
    classes = [cls for cls in PRIORITY_CLASSES if cfg.priority_mix.get(cls, 0) > 0]
    class_weights = [cfg.priority_mix[cls] for cls in classes]

    trace: "list[tuple[float, GatewayRequest]]" = []
    offset = 0.0
    in_burst = 0
    # Session state: (tenant, priority, remaining ladder of supports).
    session_tenant = ""
    session_priority = PRIORITY_CLASSES[1]
    ladder: list[int] = []
    while len(trace) < cfg.requests:
        if not ladder:
            session_tenant = rng.choices(tenant_names, tenant_weights)[0]
            session_priority = rng.choices(classes, class_weights)[0]
            # A descending walk: start somewhere on the menu, take up to
            # session_length steps down it (iterative refinement).
            start = rng.randrange(len(menu))
            ladder = list(menu[start : start + cfg.session_length])
        support = ladder.pop(0)
        deadline = (
            cfg.deadline_seconds
            if cfg.deadline_fraction > 0
            and rng.random() < cfg.deadline_fraction
            else None
        )
        request = GatewayRequest(
            request=MineRequest(
                db=db,
                support=support,
                tenant=session_tenant,
                strategy=strategy,
                backend=backend,
                jobs=cfg.jobs,
            ),
            priority=session_priority,
            deadline_seconds=deadline,
        )
        trace.append((offset, request))
        in_burst += 1
        if in_burst >= cfg.burst_length:
            offset += cfg.burst_gap_seconds
            in_burst = 0
        else:
            offset += cfg.within_burst_seconds
    return trace


def bursts(
    trace: "list[tuple[float, GatewayRequest]]",
    gap_threshold_seconds: float,
) -> "list[list[GatewayRequest]]":
    """Split a trace into arrival bursts at gaps >= the threshold.

    The load bench submits one burst at a time (then drains), which is
    how contemporaneous requests end up queued together for
    cross-request batching without depending on real thread timing.
    """
    groups: "list[list[GatewayRequest]]" = []
    current: "list[GatewayRequest]" = []
    previous: float | None = None
    for offset, request in trace:
        if (
            previous is not None
            and offset - previous >= gap_threshold_seconds
            and current
        ):
            groups.append(current)
            current = []
        current.append(request)
        previous = offset
    if current:
        groups.append(current)
    return groups
