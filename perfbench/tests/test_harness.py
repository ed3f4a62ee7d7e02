"""Unit tests for the benchmark harness: percentiles, spans, error accounting.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import threading
import time

import pytest

from harness import (
    EXPIRED,
    MISMATCHED,
    RAISED,
    REJECTED,
    SERVED,
    SHED,
    ErrorTally,
    TailTooThin,
    min_samples_for,
    percentile,
    run_closed_loop,
    samples_beyond,
)
from tracing import Span, SpanRecorder, covered_length, self_times


# -- the p90 sample-count rule ------------------------------------------------
def test_p90_needs_ten_samples_beyond_it():
    assert min_samples_for(0.9) == 100
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(TailTooThin):
        percentile([float(i) for i in range(99)], 0.9)


def test_percentile_is_nearest_rank():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    assert percentile(samples, 0.9) == 90.0
    assert percentile(list(reversed(samples)), 0.9) == 90.0
    assert sum(1 for s in samples if s > percentile(samples, 0.9)) == 10


def test_p50_rule_is_looser():
    assert min_samples_for(0.5) == 20
    assert percentile([float(i) for i in range(1, 21)], 0.5) == 10.0


# -- span self-time arithmetic -------------------------------------------------
def _span(id, start, end, parent=None):
    return Span(id, f"s{id}", start, end, parent, None, 0)


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (2, 3)]) == 2.0
    assert covered_length([(0, 2), (1, 3)]) == 3.0
    assert covered_length([(0, 4), (1, 2), (3, 3.5)]) == 4.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, 0.0, 10.0),
        _span(2, 1.0, 4.0, parent=1),
        _span(3, 2.0, 3.0, parent=2),  # grandchild: charged to 2, not 1
        _span(4, 6.0, 8.0, parent=1),
    ]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 1.0, 4: 2.0}
    assert sum(own.values()) == spans[0].duration


def test_overlapping_children_are_not_double_subtracted():
    # Two children of one parent on different threads overlap in time.
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 6.0, 1), _span(3, 4.0, 8.0, 1)]
    assert self_times(spans)[1] == pytest.approx(3.0)


def test_child_outliving_its_parent_is_clipped():
    spans = [_span(1, 0.0, 5.0), _span(2, 3.0, 9.0, parent=1)]
    own = self_times(spans)
    assert own[1] == 3.0
    assert own[2] == 6.0


def test_recorder_nests_spans_per_thread_and_restores_wrapped_attrs():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original_outer, original_inner = Layer.outer, Layer.inner
    with SpanRecorder() as recorder:
        recorder.wrap(Layer, "outer", "outer")
        recorder.wrap(Layer, "inner", "inner")
        with recorder.span("request", request=7) as root:
            assert Layer().outer() == 2
        worker = threading.Thread(target=Layer().inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert Layer.outer is original_outer and Layer.inner is original_inner
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    outer = by_name["outer"][0]
    assert outer.parent == root.id and outer.request == 7
    nested, other_thread = sorted(by_name["inner"], key=lambda s: s.parent is None)
    assert nested.parent == outer.id and nested.request == 7
    assert other_thread.parent is None and other_thread.request is None
    seconds, counts = recorder.totals()
    assert counts == {"request": 1, "outer": 1, "inner": 2}
    assert seconds["request"] + seconds["outer"] + seconds["inner"] >= root.duration


# -- error accounting ------------------------------------------------------------
def test_each_failure_kind_counts_once():
    tally = ErrorTally()
    tally.record(SERVED, True)
    tally.record(SHED)
    tally.record(REJECTED)
    tally.record(EXPIRED)
    tally.record(RAISED)
    assert tally.record(SERVED, False) == MISMATCHED
    assert tally.attempted == 6
    assert tally.failed == 5
    assert tally.error_rate == pytest.approx(5 / 6)
    assert all(tally.counts[k] == 1 for k in (SHED, REJECTED, EXPIRED, RAISED, MISMATCHED))


def test_unverified_served_request_is_not_an_error():
    tally = ErrorTally()
    tally.record(SERVED, None)
    assert tally.error_rate == 0.0 and tally.attempted == 1


def test_unknown_outcome_is_refused():
    with pytest.raises(ValueError):
        ErrorTally().record("lost")


# -- the closed loop ---------------------------------------------------------------
def _sessions(steps: int, request):
    index = 0
    while True:
        def run(index=index):
            for step in range(steps):
                yield step, request
        index += 1
        yield run


def test_closed_loop_runs_whole_sessions_until_enough_samples():
    checked = []

    def check(outcome, detail):
        checked.append(detail)
        return True, "kept"

    result = run_closed_loop(
        _sessions(3, lambda: (SERVED, "raw")), check, clients=2, seconds=0.0,
        min_samples=30, max_seconds=10,
    )
    assert len(result.samples) >= 30
    assert len(checked) == len(result.samples)
    assert all(s.verdict is True and s.detail == "kept" for s in result.samples)
    per_session: dict[int, list[int]] = {}
    for sample in result.samples:
        per_session.setdefault(sample.session, []).append(sample.step)
    # Steps of one session run in order on one client.
    assert all(steps == sorted(steps) for steps in per_session.values())


def test_check_time_is_neither_latency_nor_run_time():
    def check(outcome, detail):
        time.sleep(0.02)
        return None, None

    result = run_closed_loop(
        _sessions(1, lambda: (SERVED, None)), check, clients=1, seconds=0.0,
        min_samples=10, max_seconds=10,
    )
    assert len(result.samples) == 10
    assert max(s.latency for s in result.samples) < 0.01
    assert result.wall_seconds < 0.1  # ten checks alone take 0.2 s
