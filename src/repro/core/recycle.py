"""One-call recycling API: compress with old patterns, mine the result.

This is the paper's two-phase pipeline as a function::

    patterns = recycle_mine(db, old_patterns, new_min_support,
                            algorithm="hmine", strategy="mcp")

Recycling miners (HM-MCP, HM-MLP, FP-MCP, FP-MLP, TP-MCP, TP-MLP, the
naive RP-Mine and Recycle-Eclat) resolve through the single
:mod:`repro.mining.registry` under ``kind="recycling"``. This is the
reproduction surface that drives the paper's figures; the serving stack
(:func:`repro.core.planner.execute_plan`) recycles with ``compress``
followed by the grouped kernel instead of a named miner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compression import CompressionResult, compress
from repro.core.utility import CompressionStrategy
from repro.data.patterns import CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError, RecycleError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import PatternSet
from repro.mining.registry import get_miner


def get_miner_spec(algorithm: str):
    """The full recycling :class:`~repro.mining.registry.MinerSpec`."""
    try:
        return get_miner(algorithm, kind="recycling")
    except MiningError as exc:
        raise RecycleError(str(exc).replace("miner", "algorithm", 1)) from None


@dataclass(frozen=True)
class RecycleOutcome:
    """Everything a recycling run produced, for reporting."""

    patterns: PatternSet
    compression: CompressionResult


def recycle_mine(
    db: TransactionDatabase,
    old_patterns: PatternSet,
    min_support: int,
    algorithm: str = "hmine",
    strategy: CompressionStrategy | str = "mcp",
    counters: CostCounters | None = None,
    backend: str = "bitset",
) -> PatternSet:
    """Phase 1 + Phase 2: compress ``db`` with ``old_patterns``, then mine.

    ``min_support`` is the relaxed absolute threshold (``xi_new``). The
    result is exactly the frequent patterns of ``db`` at that threshold —
    recycling changes the cost, never the answer. ``backend`` selects the
    Phase 1 claiming implementation (both backends produce bit-identical
    groups; the grouped output always carries the encoded view the
    bitset mining kernel needs).
    """
    return recycle_mine_detailed(
        db, old_patterns, min_support, algorithm, strategy, counters, backend
    ).patterns


def recycle_mine_detailed(
    db: TransactionDatabase,
    old_patterns: "PatternSet | CondensedPatternSet",
    min_support: int,
    algorithm: str = "hmine",
    strategy: CompressionStrategy | str = "mcp",
    counters: CostCounters | None = None,
    backend: str = "bitset",
) -> RecycleOutcome:
    """Like :func:`recycle_mine` but also returns compression statistics.

    ``old_patterns`` may be a condensed warehouse entry: Phase 1 only
    requires that its feedstock be genuine frequent patterns with exact
    supports, which the condensed *entries* already are — so they feed
    the compressor directly, without expanding the full set. (Phase 2
    re-counts exactly; the feedstock subset never changes the answer.)
    """
    spec = get_miner_spec(algorithm)
    if isinstance(old_patterns, CondensedPatternSet):
        old_patterns = old_patterns.entry_patterns()
    if len(old_patterns) == 0:
        raise RecycleError(
            "no patterns to recycle — mine with a baseline algorithm instead"
        )
    compression = compress(db, old_patterns, strategy, counters, backend=backend)
    patterns = spec.mine(compression.compressed, min_support, counters)
    return RecycleOutcome(patterns=patterns, compression=compression)
