"""Statistical micro-benchmarks of the individual miners.

Unlike the one-shot figure sweeps, these use pytest-benchmark's normal
repetition on a small fixed workload, giving stable per-algorithm
numbers for regression tracking: every baseline miner, every recycling
miner (over a shared MCP compression), and the compression step itself.
"""

from __future__ import annotations

import pytest

from repro.core.compression import compress
from repro.data.synthetic import QuestParams, quest_database
from repro.mining.registry import get_miner, miner_names

_DB = quest_database(
    QuestParams(n_transactions=600, n_items=80, avg_transaction_length=8,
                n_patterns=30, avg_pattern_length=4),
    seed=7,
)
_XI_OLD = 60
_XI_NEW = 24
_OLD_PATTERNS = get_miner("hmine", "baseline").fn(_DB, _XI_OLD)
_COMPRESSED = compress(_DB, _OLD_PATTERNS, "mcp").compressed


@pytest.mark.parametrize("algorithm", miner_names("baseline"))
def test_baseline_miner(benchmark, algorithm):
    miner = get_miner(algorithm, "baseline").fn
    patterns = benchmark(miner, _DB, _XI_NEW)
    assert len(patterns) > 0


@pytest.mark.parametrize("algorithm", miner_names("recycling"))
def test_recycling_miner(benchmark, algorithm):
    miner = get_miner(algorithm, "recycling").fn
    patterns = benchmark(miner, _COMPRESSED, _XI_NEW)
    assert len(patterns) > 0


@pytest.mark.parametrize("strategy", ["mcp", "mlp"])
def test_compression(benchmark, strategy):
    result = benchmark(compress, _DB, _OLD_PATTERNS, strategy)
    assert result.ratio < 1.0
