"""Engine unit tests: worker trichotomy, fallback, hooks, real processes."""

from __future__ import annotations

import pickle

import pytest

from repro.core.compression import compress
from repro.core.groups import GroupedDatabase
from repro.core.planner import PATH_FILTER, PATH_RECYCLE
from repro.data.patterns import PatternSet
from repro.data.transactions import TransactionDatabase
from repro.errors import ParallelError
from repro.metrics.counters import CostCounters
from repro.mining.bruteforce import mine_bruteforce
from repro.parallel import (
    ParallelEngine,
    ShardPlanner,
    ShardTask,
    run_shard_task,
)
from repro.parallel.executor import patterns_to_rows, rows_to_patterns
from repro.resilience import SHARD_CRASH, FaultInjector


def db() -> TransactionDatabase:
    return TransactionDatabase(
        [
            [1, 2, 3],
            [1, 2, 3],
            [1, 2],
            [2, 3],
            [1, 3],
            [4, 5],
            [4, 5, 1],
            [2, 3, 4],
            [1, 2, 4],
            [3, 4, 5],
        ]
    )


def one_shard(jobs: int = 2):
    database = db()
    patterns = mine_bruteforce(database, 4)
    grouped = compress(database, patterns, "mcp").compressed
    return ShardPlanner(jobs).plan(grouped).shards[0]


class TestPatternRows:
    def test_round_trip(self):
        patterns = mine_bruteforce(db(), 2)
        assert rows_to_patterns(patterns_to_rows(patterns)) == patterns

    def test_rows_are_sorted_canonically(self):
        rows = patterns_to_rows(mine_bruteforce(db(), 2))
        assert rows == tuple(sorted(rows))


class TestRunShardTask:
    def test_recycle_mode_mines_the_shard_groups(self):
        shard = one_shard()
        result = run_shard_task(ShardTask(shard=shard, local_support=2))
        assert result["path"] == PATH_RECYCLE
        patterns = rows_to_patterns(result["patterns"])
        assert patterns == mine_bruteforce(shard.database(), 2)

    def test_scratch_shard_is_one_residual_group(self):
        """A scratch mine's shard is the uncompressed case of the same
        task: one residual group, mined by the same kernel."""
        grouped = GroupedDatabase.from_database(db())
        shard = ShardPlanner(2).plan(grouped).shards[0]
        result = run_shard_task(ShardTask(shard=shard, local_support=2))
        patterns = rows_to_patterns(result["patterns"])
        assert patterns == mine_bruteforce(shard.database(), 2)

    def test_feedstock_runs_the_planner_trichotomy(self):
        shard = one_shard()
        feedstock = mine_bruteforce(shard.database(), 1)
        # Feedstock mined at a lower threshold: the worker filters.
        result = run_shard_task(
            ShardTask(
                shard=shard,
                local_support=2,
                feedstock=patterns_to_rows(feedstock),
                feedstock_support=1,
            )
        )
        assert result["path"] == PATH_FILTER
        assert rows_to_patterns(result["patterns"]) == mine_bruteforce(
            shard.database(), 2
        )

    def test_task_survives_pickling(self):
        shard = one_shard()
        task = ShardTask(shard=shard, local_support=2)
        clone = pickle.loads(pickle.dumps(task))
        assert run_shard_task(clone)["patterns"] == run_shard_task(task)["patterns"]

    def test_fail_hook_raises(self):
        with pytest.raises(ParallelError):
            run_shard_task(ShardTask(shard=one_shard(), local_support=2, fail=True))


class TestParallelEngine:
    def test_requires_positive_jobs(self):
        with pytest.raises(ParallelError):
            ParallelEngine(0)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ParallelError):
            ParallelEngine(2, executor="threads")

    def test_jobs_one_short_circuits(self):
        database = db()
        old = mine_bruteforce(database, 4)
        outcome = ParallelEngine(1).recycle_mine(database, old, 2)
        assert outcome.jobs == 1 and not outcome.shards and not outcome.fallback
        assert outcome.patterns == mine_bruteforce(database, 2)

    def test_inline_recycle_matches_reference(self):
        database = db()
        old = mine_bruteforce(database, 4)
        outcome = ParallelEngine(3, executor="inline").recycle_mine(
            database, old, 2
        )
        assert outcome.jobs == 3
        assert outcome.patterns == mine_bruteforce(database, 2)
        assert outcome.merge is not None
        assert outcome.critical_path_seconds <= outcome.elapsed_seconds

    def test_process_pool_matches_reference(self):
        database = db()
        old = mine_bruteforce(database, 4)
        outcome = ParallelEngine(2, executor="process").recycle_mine(
            database, old, 2
        )
        assert outcome.jobs == 2 and not outcome.fallback
        assert outcome.patterns == mine_bruteforce(database, 2)

    def test_scratch_mine_matches_reference(self):
        database = db()
        outcome = ParallelEngine(3, executor="inline").mine(database, 2)
        assert outcome.jobs == 3
        assert outcome.patterns == mine_bruteforce(database, 2)

    def test_crash_falls_back_to_serial(self):
        database = db()
        old = mine_bruteforce(database, 4)
        counters = CostCounters()
        outcome = ParallelEngine(
            2,
            executor="inline",
            fault_injector=FaultInjector().inject(SHARD_CRASH, probability=1.0),
        ).recycle_mine(database, old, 2, counters=counters)
        assert outcome.fallback
        assert "injected failure" in outcome.fallback_reason
        assert outcome.jobs == 1
        assert outcome.patterns == mine_bruteforce(database, 2)
        assert counters.as_dict()["parallel_fallbacks"] == 1

    def test_missed_deadline_falls_back(self):
        database = db()
        old = mine_bruteforce(database, 4)
        outcome = ParallelEngine(
            2, executor="process", timeout_seconds=0.0
        ).recycle_mine(database, old, 2)
        assert outcome.fallback
        assert "deadline" in outcome.fallback_reason
        assert outcome.patterns == mine_bruteforce(database, 2)

    def test_worker_counters_are_merged(self):
        database = db()
        old = mine_bruteforce(database, 4)
        counters = CostCounters()
        outcome = ParallelEngine(2, executor="inline").recycle_mine(
            database, old, 2, counters=counters
        )
        recorded = counters.as_dict()
        assert recorded["parallel_runs"] == 1
        assert recorded["parallel_shards"] == outcome.jobs
        assert counters.total_work() > 0

    def test_shard_feedstock_and_result_hooks(self):
        database = db()
        old = mine_bruteforce(database, 4)
        banked: dict[tuple[str, int], PatternSet] = {}

        def feedstock(fingerprint: str, local_support: int):
            return None  # cold warehouse

        def on_result(fingerprint: str, local_support: int, patterns: PatternSet):
            banked[(fingerprint, local_support)] = patterns

        engine = ParallelEngine(
            2,
            executor="inline",
            shard_feedstock=feedstock,
            on_shard_result=on_result,
        )
        outcome = engine.recycle_mine(database, old, 2)
        assert len(banked) == outcome.jobs

        # Second run: hand the banked sets back and expect filter paths.
        def warm_feedstock(fingerprint: str, local_support: int):
            hit = banked.get((fingerprint, local_support))
            return (hit, local_support) if hit is not None else None

        warm = ParallelEngine(
            2, executor="inline", shard_feedstock=warm_feedstock
        ).recycle_mine(database, old, 2)
        assert warm.patterns == outcome.patterns
        assert all(shard.path == PATH_FILTER for shard in warm.shards)
