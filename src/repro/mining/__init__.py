"""Baseline frequent-pattern miners (the substrate the paper adapts).

All miners share one contract::

    mine_*(db, min_support, counters=None) -> PatternSet

with absolute ``min_support`` (support >= threshold is frequent) and
optional :class:`~repro.metrics.counters.CostCounters` accounting.
"""

from repro.mining.apriori import mine_apriori
from repro.mining.bruteforce import mine_bruteforce
from repro.mining.eclat import mine_eclat, mine_eclat_bitset
from repro.mining.flist import FList, count_supports, project_transactions
from repro.mining.fptree import FPNode, FPTree, mine_fpgrowth
from repro.mining.hmine import build_hstruct, mine_hmine, mine_hmine_suffixes
from repro.mining.patterns import Pattern, PatternSet, pattern
from repro.mining.registry import (
    MINERS,
    MinerSpec,
    get_miner,
    has_miner,
    iter_miners,
    miner_names,
    register,
)
from repro.mining.topk import mine_top_k, top_k_by_probe
from repro.mining.treeprojection import mine_treeprojection

__all__ = [
    "FList",
    "MINERS",
    "MinerSpec",
    "FPNode",
    "FPTree",
    "Pattern",
    "PatternSet",
    "build_hstruct",
    "count_supports",
    "get_miner",
    "has_miner",
    "iter_miners",
    "mine_apriori",
    "mine_bruteforce",
    "mine_eclat",
    "mine_eclat_bitset",
    "mine_fpgrowth",
    "mine_hmine",
    "mine_hmine_suffixes",
    "mine_top_k",
    "mine_treeprojection",
    "miner_names",
    "pattern",
    "register",
    "top_k_by_probe",
    "project_transactions",
]
