"""Tests for the one-call recycle_mine API."""

from __future__ import annotations

import pytest

from repro.core.recycle import recycle_mine, recycle_mine_detailed
from repro.errors import RecycleError
from repro.metrics.counters import CostCounters
from repro.mining.apriori import mine_apriori
from repro.mining.patterns import PatternSet
from repro.mining.registry import miner_names


class TestRecycleMine:
    def test_end_to_end(self, paper_db, paper_old_patterns):
        result = recycle_mine(paper_db, paper_old_patterns, 2)
        assert result == mine_apriori(paper_db, 2)

    @pytest.mark.parametrize("algorithm", miner_names("recycling"))
    def test_every_algorithm(self, paper_db, paper_old_patterns, algorithm):
        result = recycle_mine(paper_db, paper_old_patterns, 2, algorithm=algorithm)
        assert result == mine_apriori(paper_db, 2)

    def test_detailed_outcome(self, paper_db, paper_old_patterns):
        outcome = recycle_mine_detailed(paper_db, paper_old_patterns, 2)
        assert outcome.patterns == mine_apriori(paper_db, 2)
        assert outcome.compression.strategy == "mcp"
        assert 0 < outcome.compression.ratio <= 1

    def test_counters_cover_both_phases(self, paper_db, paper_old_patterns):
        counters = CostCounters()
        recycle_mine(paper_db, paper_old_patterns, 2, counters=counters)
        assert counters.containment_checks > 0  # compression phase
        assert counters.patterns_emitted > 0    # mining phase

    def test_empty_patterns_rejected(self, paper_db):
        with pytest.raises(RecycleError, match="no patterns to recycle"):
            recycle_mine(paper_db, PatternSet(), 2)

    def test_unknown_algorithm_rejected(self, paper_db, paper_old_patterns):
        with pytest.raises(RecycleError, match="unknown recycling algorithm"):
            recycle_mine(paper_db, paper_old_patterns, 2, algorithm="quantum")

    def test_strategy_object_accepted(self, paper_db, paper_old_patterns):
        from repro.core.utility import MLP

        result = recycle_mine(paper_db, paper_old_patterns, 2, strategy=MLP)
        assert result == mine_apriori(paper_db, 2)
