"""Sharded parallel mining: the two-pass partition scheme over groups.

The subsystem in three modules, one per pass boundary:

:mod:`repro.parallel.sharding`
    Splitting a :class:`~repro.core.groups.GroupedDatabase` group-wise
    into balanced shards, and the sound local-support scaling rule.
:mod:`repro.parallel.executor`
    The :class:`ParallelEngine`: pickle-friendly shard tasks, a
    ``ProcessPoolExecutor`` worker pool, per-worker cost counters merged
    on return, and the crash/timeout fallback to the serial path.
:mod:`repro.parallel.merge`
    The second pass: candidate union, Apriori + tight-candidate-bound
    budgeting, and the exact global recount over the grouped database.

The engine sits above :mod:`repro.core` (it drives the planner
trichotomy inside workers) and below :mod:`repro.service` (which fans
heavy requests out through it). Every shard, and the serial fallback,
mines with the grouped kernel
(:func:`~repro.storage.projection.mine_grouped`). The front doors are
``execute_plan(..., jobs=N)``, ``MiningSession(jobs=N)``, a request's
``jobs`` field and ``repro serve-batch --jobs``.
"""

from repro.parallel.executor import (
    ParallelEngine,
    ParallelOutcome,
    ShardOutcome,
    ShardTask,
    run_shard_task,
)
from repro.parallel.merge import (
    MergeResult,
    count_pattern_support,
    merge_shard_patterns,
    tight_candidate_bound,
    union_candidates,
)
from repro.parallel.sharding import (
    Shard,
    ShardPlan,
    ShardPlanner,
    scale_local_support,
)

__all__ = [
    "MergeResult",
    "ParallelEngine",
    "ParallelOutcome",
    "Shard",
    "ShardOutcome",
    "ShardPlan",
    "ShardPlanner",
    "ShardTask",
    "count_pattern_support",
    "merge_shard_patterns",
    "run_shard_task",
    "scale_local_support",
    "tight_candidate_bound",
    "union_candidates",
]
