"""Tests for the shared filter/recycle/mine planner."""

from __future__ import annotations

import pytest

from repro.core.planner import (
    PATH_FILTER,
    PATH_MINE,
    PATH_RECYCLE,
    execute_plan,
    plan_support_path,
)
from repro.data.synthetic import QuestParams, quest_database
from repro.mining.hmine import mine_hmine
from repro.mining.patterns import PatternSet


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=120, n_items=30, avg_transaction_length=5), seed=4
    )


class TestPlanning:
    def test_no_feedstock_mines(self):
        assert plan_support_path(10, None, None).path == PATH_MINE

    def test_equal_or_higher_support_filters(self, db):
        feedstock = mine_hmine(db, 8)
        assert plan_support_path(8, feedstock, 8).path == PATH_FILTER
        assert plan_support_path(12, feedstock, 8).path == PATH_FILTER

    def test_lower_support_recycles(self, db):
        feedstock = mine_hmine(db, 8)
        plan = plan_support_path(5, feedstock, 8)
        assert plan.path == PATH_RECYCLE
        assert plan.feedstock is feedstock
        assert plan.feedstock_support == 8

    def test_empty_feedstock_mines(self):
        assert plan_support_path(5, PatternSet(), 200).path == PATH_MINE

    def test_empty_feedstock_at_exact_support_filters_to_empty(self, db):
        """Feedstock mined at exactly the requested support, but empty:
        the equal-support rule wins, the plan filters, and the (correct)
        answer is the empty set — no remining."""
        barren_support = len(db) + 1
        feedstock = mine_hmine(db, barren_support)
        assert len(feedstock) == 0
        plan = plan_support_path(barren_support, feedstock, barren_support)
        assert plan.path == PATH_FILTER
        result = execute_plan(plan, db, barren_support)
        assert len(result) == 0
        assert result == mine_hmine(db, barren_support)


class TestExecution:
    @pytest.mark.parametrize("new_support", [4, 8, 15])
    def test_every_path_is_exact(self, db, new_support):
        feedstock = mine_hmine(db, 8)
        plan = plan_support_path(new_support, feedstock, 8)
        result = execute_plan(plan, db, new_support)
        assert result == mine_hmine(db, new_support)

    @pytest.mark.parametrize("backend", ["bitset", "python"])
    @pytest.mark.parametrize("new_support", [4, 15])
    def test_mine_and_recycle_paths_honor_backend(self, db, backend, new_support):
        feedstock = mine_hmine(db, 8)
        for plan in (
            plan_support_path(new_support, None, None),
            plan_support_path(new_support, feedstock, 8),
        ):
            result = execute_plan(plan, db, new_support, backend=backend)
            assert result == mine_hmine(db, new_support)
