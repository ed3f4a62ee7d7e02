"""Property tests for the session's path-selection invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import MiningSession
from repro.data.synthetic import random_database
from repro.mining.eclat import mine_eclat_bitset

_DB = random_database(n_transactions=60, n_items=12, max_transaction_length=8, seed=7)


@given(
    supports=st.lists(st.integers(min_value=2, max_value=30), min_size=1, max_size=6),
    strategy=st.sampled_from(["mcp", "mlp"]),
    backend=st.sampled_from(["bitset", "python"]),
    jobs=st.sampled_from([1, 2]),
    representation=st.sampled_from(["full", "closed", "ndi"]),
)
@settings(max_examples=25, deadline=None)
def test_any_support_walk_is_exact(supports, strategy, backend, jobs, representation):
    """Whatever order the user wanders through thresholds, every answer
    equals a from-scratch mine at that threshold (by an independent
    miner), whatever the session's kernel settings."""
    session = MiningSession(
        _DB,
        strategy=strategy,
        backend=backend,
        jobs=jobs,
        representation=representation,
    )
    for support in supports:
        assert session.mine(support) == mine_eclat_bitset(_DB, support)


@given(supports=st.lists(st.integers(min_value=2, max_value=30), min_size=2, max_size=6))
@settings(max_examples=25, deadline=None)
def test_path_choice_matches_support_direction(supports):
    """After the initial run: raising (or keeping) the support filters,
    lowering it recycles."""
    session = MiningSession(_DB)
    session.mine(supports[0])
    previous = supports[0]
    for support in supports[1:]:
        had_feedstock = len(session.exported_patterns()) > 0
        session.mine(support)
        if support >= previous:
            expected = "filter"
        elif had_feedstock:
            expected = "recycle"
        else:
            expected = "initial"  # nothing to recycle -> scratch fallback
        assert session.last_report.path == expected, (
            f"{previous} -> {support} took {session.last_report.path}"
        )
        previous = support


@given(supports=st.lists(st.integers(min_value=2, max_value=30), min_size=1, max_size=5))
@settings(max_examples=15, deadline=None)
def test_history_is_append_only_and_indexed(supports):
    session = MiningSession(_DB)
    for support in supports:
        session.mine(support)
    assert [r.index for r in session.history] == list(range(len(supports)))
    assert session.history[0].path == "initial"
