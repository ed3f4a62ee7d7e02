"""An in-memory span recorder that wraps the program's layers from outside.

:class:`SpanRecorder` installs wrappers only while it is active, each at
the attribute its callers actually look up: a function imported by name
into another module (``compress`` in both ``repro.core.recycle`` and
``repro.parallel.executor``) is wrapped in that module, a method on its
class. Uninstalling restores every original object, so the untraced
run executes the program unchanged.

A span records its name, start, end, parent span, request id and
thread. Spans stay in memory until :meth:`SpanRecorder.write` dumps
them as JSON lines at the end of a run. A layer's self time is its
span's duration minus the part of that interval its child spans cover
(:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    thread: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (another thread's work) never drives self time
    below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent is not None else None
        if parent is None:
            continue
        start = max(span.start, parent.start)
        end = min(span.end, parent.end)
        if end > start:
            children.setdefault(parent.id, []).append((start, end))
    return {
        span.id: span.duration - covered_length(children.get(span.id, []))
        for span in spans
    }


class SpanRecorder:
    """Records spans from wrappers it installs; a context manager."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Forked workers inherit the wrappers but not the recorder; they
        #: call straight through.
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        #: request key -> (request id, root span id), so work a request
        #: causes on a service worker thread joins its request.
        self._requests: dict[object, tuple[int, int]] = {}

    # -- span bookkeeping ------------------------------------------------
    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def open(
        self,
        name: str,
        request: int | None = None,
        parent: int | None = None,
    ) -> Span:
        stack = self._stack()
        if stack:
            parent_id, inherited = stack[-1]
            parent = parent_id if parent is None else parent
            request = inherited if request is None else request
        span = Span(self._new_id(), name, 0.0, 0.0, parent, request, threading.get_ident())
        stack.append((span.id, request))
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, request: int | None = None, parent: int | None = None):
        span = self.open(name, request, parent)
        try:
            yield span
        finally:
            self.close(span)

    def bind_request(self, key: object, request_id: int, span_id: int) -> None:
        with self._lock:
            self._requests[key] = (request_id, span_id)

    def lookup_request(self, key: object) -> tuple[int | None, int | None]:
        with self._lock:
            return self._requests.get(key, (None, None))

    # -- installing wrappers ---------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[..., str],
        on_result: Callable[[Span, tuple, dict, object], None] | None = None,
        request_of: Callable[[tuple, dict], object] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` may be a callable of ``(args, kwargs)`` picking the span
        name per call; ``on_result`` may attach attributes from the
        result; ``request_of`` returns the key a call's request was bound
        under (:meth:`bind_request`), linking worker-thread spans to the
        client's request.
        """
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if os.getpid() != recorder.pid:  # a forked shard worker
                return original(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            request = parent = None
            if request_of is not None:
                request, parent = recorder.lookup_request(request_of(args, kwargs))
            span = recorder.open(span_name, request, parent)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores the original."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_path(self, dotted: str, attr: str, *args, **kwargs) -> None:
        """:meth:`wrap` on ``module[:Class]`` given as a dotted string."""
        module_name, _, class_name = dotted.partition(":")
        owner: object = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        self.wrap(owner, attr, *args, **kwargs)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------
    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), default=str) + "\n")

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and span counts per span name."""
        own = self_times(self.spans)
        seconds: dict[str, float] = {}
        counts: dict[str, int] = {}
        for span in self.spans:
            seconds[span.name] = seconds.get(span.name, 0.0) + own[span.id]
            counts[span.name] = counts.get(span.name, 0) + 1
        return seconds, counts
