"""The tentpole invariant: shard-merge == single-process, always.

For every compression strategy x kernel backend x jobs in {1, 2, 4}, the
sharded engine's patterns (and supports) are set-identical to a
brute-force scratch mine — an oracle that shares no code with the
grouped kernel the shards run — over hypothesis-generated databases. The
property runs on the inline executor — the exact worker code path
including the pickling round-trip, minus process startup — and a
separate spot check covers the real process pool.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.recycle import recycle_mine
from repro.data.transactions import TransactionDatabase
from repro.mining.bruteforce import mine_bruteforce
from repro.parallel import ParallelEngine
from repro.resilience import SHARD_CRASH, FaultInjector, RetryPolicy

JOBS = (1, 2, 4)

small_databases = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=6),
    min_size=1,
    max_size=16,
)


@given(
    transactions=small_databases,
    xi_old=st.integers(2, 5),
    xi_new=st.integers(1, 3),
    strategy=st.sampled_from(["mcp", "mlp"]),
    backend=st.sampled_from(["bitset", "python"]),
)
@settings(max_examples=25, deadline=None)
def test_shard_merge_equals_single_process(
    transactions, xi_old, xi_new, strategy, backend
):
    db = TransactionDatabase(transactions)
    old_patterns = mine_bruteforce(db, max(xi_old, xi_new))
    if len(old_patterns) == 0:
        return
    reference = mine_bruteforce(db, xi_new)
    for jobs in JOBS:
        outcome = ParallelEngine(jobs, executor="inline").recycle_mine(
            db, old_patterns, xi_new, strategy=strategy, backend=backend
        )
        assert outcome.patterns == reference, (
            f"{strategy}/{backend}/jobs={jobs} diverged"
        )


@given(
    transactions=small_databases,
    xi_new=st.integers(1, 3),
    jobs=st.sampled_from(JOBS),
    backend=st.sampled_from(["bitset", "python"]),
)
@settings(max_examples=25, deadline=None)
def test_parallel_scratch_mine_equals_single_process(
    transactions, xi_new, jobs, backend
):
    db = TransactionDatabase(transactions)
    reference = mine_bruteforce(db, xi_new)
    outcome = ParallelEngine(jobs, executor="inline").mine(
        db, xi_new, backend=backend
    )
    assert outcome.patterns == reference


@given(
    transactions=small_databases,
    xi_old=st.integers(2, 5),
    xi_new=st.integers(1, 3),
)
@settings(max_examples=10, deadline=None)
def test_crash_fallback_still_matches(transactions, xi_old, xi_new):
    db = TransactionDatabase(transactions)
    old_patterns = mine_bruteforce(db, max(xi_old, xi_new))
    if len(old_patterns) == 0:
        return
    reference = mine_bruteforce(db, xi_new)
    outcome = ParallelEngine(
        4,
        executor="inline",
        retry_policy=RetryPolicy(max_attempts=1),
        fault_injector=FaultInjector().inject(SHARD_CRASH, probability=1.0),
    ).recycle_mine(db, old_patterns, xi_new)
    assert outcome.patterns == reference


def test_real_process_pool_spot_check():
    """One non-hypothesis run through actual worker processes."""
    db = TransactionDatabase(
        [[1, 2, 3], [1, 2, 3], [1, 2], [2, 3], [1, 3], [4, 5], [4, 5, 1], [2, 4]]
    )
    old_patterns = mine_bruteforce(db, 4)
    reference = recycle_mine(db, old_patterns, 2)
    for jobs in (2, 4):
        outcome = ParallelEngine(jobs, executor="process").recycle_mine(
            db, old_patterns, 2
        )
        assert not outcome.fallback
        assert outcome.patterns == reference
