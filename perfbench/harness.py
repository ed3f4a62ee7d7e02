"""Closed-loop load, latency statistics and error accounting.

Everything here is independent of the ``repro`` package, so the unit
tests in ``perfbench/tests`` exercise it without building a workload.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Request outcomes. ``served`` is the only one that is not an error; a
#: served request whose patterns differ from the reference is re-filed
#: as ``mismatched`` by :meth:`ErrorTally.record`.
SERVED = "served"
SHED = "shed"
REJECTED = "rejected"
EXPIRED = "expired"
RAISED = "raised"
MISMATCHED = "mismatched"
OUTCOMES = (SERVED, SHED, REJECTED, EXPIRED, RAISED, MISMATCHED)

#: A percentile is only reported when at least this many samples lie
#: strictly beyond it.
MIN_TAIL_SAMPLES = 10


class TailTooThin(ValueError):
    """Too few samples beyond a percentile to report it."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie beyond the nearest-rank ``q`` one."""
    if n <= 0:
        return 0
    return n - math.ceil(q * n)


def min_samples_for(q: float, tail: int = MIN_TAIL_SAMPLES) -> int:
    """The smallest sample count leaving ``tail`` samples beyond ``q``."""
    n = 1
    while samples_beyond(n, q) < tail:
        n += 1
    return n


def percentile(samples: list[float], q: float, tail: int = MIN_TAIL_SAMPLES) -> float:
    """Nearest-rank ``q`` percentile; raises :class:`TailTooThin` below the rule."""
    n = len(samples)
    if samples_beyond(n, q) < tail:
        raise TailTooThin(
            f"p{round(q * 100)} needs {min_samples_for(q, tail)} samples "
            f"(>= {tail} beyond it), got {n}"
        )
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * n) - 1)]


@dataclass
class ErrorTally:
    """Counts every attempted request exactly once, by outcome."""

    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(OUTCOMES, 0))

    def record(self, outcome: str, matches_reference: bool | None = None) -> str:
        """File one request; a served request that mismatched counts as such."""
        if outcome not in self.counts:
            raise ValueError(f"unknown outcome {outcome!r}")
        if outcome == SERVED and matches_reference is False:
            outcome = MISMATCHED
        self.counts[outcome] += 1
        return outcome

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.counts[SERVED]

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Sample:
    """One completed request as the client saw it."""

    session: int
    step: int
    latency: float
    outcome: str
    #: Whether the served patterns matched the reference (None when not served).
    verdict: bool | None = None
    #: What the workload kept for per-layer accounting.
    detail: object = None


@dataclass
class LoopResult:
    samples: list[Sample]
    #: Run time the clients spent sending requests: elapsed time less the
    #: clients' share of the time spent checking results.
    wall_seconds: float
    #: Process CPU time over the run, less the time spent checking.
    cpu_seconds: float


#: A request: returns ``(outcome, detail)``.
Request = Callable[[], tuple[str, object]]
#: Checks one result outside the timed region: ``(outcome, detail) ->
#: (verdict, detail to keep)``.
Check = Callable[[str, object], tuple["bool | None", object]]


def run_closed_loop(
    sessions: Iterator[Callable[[], Iterator[tuple[int, Request]]]],
    check: Check,
    clients: int,
    seconds: float,
    min_samples: int,
    max_seconds: float,
) -> LoopResult:
    """Drive ``clients`` threads, each running whole sessions back to back.

    ``sessions`` yields session factories in a fixed order; a client
    takes the next factory, then sends that session's requests one at a
    time, each only after the previous one completed (a closed loop).
    After each request the client checks its result; that time is not
    part of the request's latency, and the clients' share of it is not
    part of the run time. Clients stop taking sessions after ``seconds``
    of run time once ``min_samples`` requests have completed, and stop
    sending requests at ``max_seconds`` regardless; the session a client
    is in when time runs out is cut short.
    """
    lock = threading.Lock()
    samples: list[Sample] = []
    errors: list[BaseException] = []
    checking = [0.0, 0.0]  # wall seconds, CPU seconds
    session_index = iter(range(1 << 62))
    started = time.perf_counter()
    cpu_started = time.process_time()

    def run_time() -> float:
        return time.perf_counter() - started - checking[0] / clients

    def out_of_time() -> bool:
        now = run_time()
        return now >= max_seconds or (now >= seconds and len(samples) >= min_samples)

    def client() -> None:
        try:
            while not out_of_time():
                with lock:
                    index = next(session_index)
                    factory = next(sessions)
                for step, send in factory():
                    if out_of_time():
                        return
                    t0 = time.perf_counter()
                    outcome, detail = send()
                    t1, cpu1 = time.perf_counter(), time.thread_time()
                    verdict, detail = check(outcome, detail)
                    t2, cpu2 = time.perf_counter(), time.thread_time()
                    with lock:
                        checking[0] += t2 - t1
                        checking[1] += cpu2 - cpu1
                        samples.append(Sample(index, step, t1 - t0, outcome, verdict, detail))
        except BaseException as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, name=f"perfbench-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = run_time()
    cpu = time.process_time() - cpu_started - checking[1]
    if errors:
        raise errors[0]
    return LoopResult(samples, wall, cpu)
