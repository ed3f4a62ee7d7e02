"""Property tests for the update planner path (PR tentpole).

The load-bearing invariant, over hypothesis-generated databases and
deltas: a pattern set produced by patching warehoused feedstock across a
:class:`~repro.data.versioned.DatabaseDelta` — whatever update mode the
planner picks, whatever strategy/backend/jobs setting the grouped kernel
runs under, whatever representation the feedstock is cached in — is
**bit-identical** to mining the post-update database from scratch (by
brute force, an oracle that shares no code with the kernel). Covered delta shapes:
insert-only (FUP territory), delete-only, mixed, and the session's
sliding-window slide (append + expire in one delta).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.planner import (
    PATH_MINE,
    PATH_UPDATE,
    UPDATE_FUP,
    execute_plan,
    plan_update_path,
)
from repro.core.session import MiningSession
from repro.data.patterns import CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.mining.bruteforce import mine_bruteforce

small_databases = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=6),
    min_size=1,
    max_size=16,
)
small_batches = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=6),
    min_size=0,
    max_size=6,
)


def _condensed(patterns, support, representation, db_size):
    if representation == "full":
        return patterns
    return CondensedPatternSet.condense(
        patterns, support, representation, n_transactions=db_size
    )


@given(
    transactions=small_databases,
    appends=small_batches,
    delete_count=st.integers(0, 4),
    xi_old=st.integers(1, 5),
    xi_new=st.integers(1, 5),
    strategy=st.sampled_from(["mcp", "mlp"]),
    backend=st.sampled_from(["bitset", "python"]),
    jobs=st.sampled_from([1, 2]),
    representation=st.sampled_from(["full", "closed", "ndi"]),
)
@settings(max_examples=60, deadline=None)
def test_update_path_is_bit_identical_to_scratch(
    transactions, appends, delete_count, xi_old, xi_new,
    strategy, backend, jobs, representation,
):
    db = TransactionDatabase(transactions)
    v0 = VersionedDatabase.initial(db)
    deletes = db.tids[: min(delete_count, len(db) - 1)]
    delta = DatabaseDelta(appends=tuple(tuple(tx) for tx in appends),
                          deletes=frozenset(deletes))
    if delta.is_empty:
        return
    v1 = v0.apply(delta)
    old_patterns = mine_bruteforce(db, xi_old)
    if len(old_patterns) == 0:
        return
    feedstock = _condensed(old_patterns, xi_old, representation, len(db))
    reference = mine_bruteforce(v1.db, xi_new)
    plan = plan_update_path(xi_new, feedstock, xi_old, db, delta, len(v1.db))
    assert plan.path in (PATH_UPDATE, PATH_MINE)
    if plan.path == PATH_UPDATE and plan.update_mode == UPDATE_FUP:
        assert delta.is_insert_only
    result = execute_plan(
        plan, v1.db, xi_new, strategy=strategy, backend=backend, jobs=jobs,
    )
    assert result == reference, (
        f"{strategy}/{backend}/jobs={jobs}/{representation} diverged on "
        f"{plan.path}:{plan.update_mode} "
        f"(+{len(delta.appends)}/-{len(delta.deletes)})"
    )


@given(
    transactions=small_databases,
    batches=st.lists(
        st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=5),
                 min_size=1, max_size=4),
        min_size=1,
        max_size=3,
    ),
    xi=st.integers(1, 4),
    strategy=st.sampled_from(["mcp", "mlp"]),
    backend=st.sampled_from(["bitset", "python"]),
    representation=st.sampled_from(["full", "closed", "ndi"]),
)
@settings(max_examples=40, deadline=None)
def test_sliding_window_session_is_bit_identical(
    transactions, batches, xi, strategy, backend, representation,
):
    db = TransactionDatabase(transactions)
    session = MiningSession(
        db, strategy=strategy, backend=backend,
        representation=representation, window=2,
    )
    assert session.mine(xi) == mine_bruteforce(session.db, xi)
    for batch in batches:
        session.append_batch(batch)
        result = session.mine(xi)
        assert result == mine_bruteforce(session.db, xi), (
            f"window slide diverged on {session.last_report.path}:"
            f"{session.last_report.update_mode}"
        )
    # The window never holds more than 2 live batches.
    assert len(session._batches) <= 2


@given(
    transactions=small_databases,
    delete_count=st.integers(1, 4),
    appends=small_batches,
    xi=st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_session_delta_methods_track_scratch(
    transactions, delete_count, appends, xi
):
    """Explicit append/delete calls (no window) stay scratch-identical."""
    db = TransactionDatabase(transactions)
    session = MiningSession(db)
    session.mine(xi)
    if len(db) > delete_count:
        session.delete_tids(db.tids[:delete_count])
        assert session.mine(xi) == mine_bruteforce(session.db, xi)
    if appends:
        session.append_batch(appends)
        assert session.mine(xi) == mine_bruteforce(session.db, xi)
