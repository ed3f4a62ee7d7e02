"""Tests for the multi-tenant mining service (correctness under concurrency,
single-flight coalescing, warehouse interplay and statistics)."""

from __future__ import annotations

import threading

import pytest

import repro.storage.projection as projection_module
from repro.data.synthetic import QuestParams, quest_database
from repro.errors import ReproError
from repro.mining.hmine import mine_hmine
from repro.resilience import SHARD_CRASH, FaultInjector
from repro.service import MineRequest, MiningService, PatternWarehouse
from repro.storage.disk import patterns_byte_size


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=150, n_items=40, avg_transaction_length=6), seed=2
    )


class TestSingleRequests:
    def test_miss_then_filter_then_recycle(self, db):
        with MiningService(warehouse=PatternWarehouse()) as service:
            first = service.execute(MineRequest(db=db, support=12, tenant="alice"))
            assert first.path == "mine" and not first.coalesced
            again = service.execute(MineRequest(db=db, support=12, tenant="bob"))
            assert again.path == "filter" and again.feedstock_support == 12
            relaxed = service.execute(MineRequest(db=db, support=5, tenant="carol"))
            assert relaxed.path == "recycle" and relaxed.feedstock_support == 12
            for response, support in ((first, 12), (again, 12), (relaxed, 5)):
                assert response.patterns == mine_hmine(db, support)

    def test_relative_supports_resolve_via_database(self, db):
        with MiningService(warehouse=PatternWarehouse()) as service:
            response = service.execute(MineRequest(db=db, support=0.1))
            assert response.absolute_support == 15  # ceil(0.1 * 150)

    def test_cold_service_always_mines(self, db):
        with MiningService(warehouse=None) as service:
            service.execute(MineRequest(db=db, support=12))
            second = service.execute(MineRequest(db=db, support=12))
            assert second.path == "mine"
            assert service.stats.mine_runs == 2

    def test_unknown_algorithm_rejected_at_submit(self, db):
        """The service runs one kernel: a request cannot name a miner."""
        with pytest.raises(TypeError, match="algorithm"):
            MineRequest(db=db, support=12, algorithm="hmine")

    def test_closed_service_rejects_requests(self, db):
        service = MiningService()
        service.close()
        with pytest.raises(ReproError, match="closed"):
            service.submit(MineRequest(db=db, support=12))

    def test_empty_result_supports_are_cached_not_recycled(self, db):
        """A threshold admitting no patterns must fall back to scratch
        mining on relaxation, exactly like the interactive session."""
        with MiningService(warehouse=PatternWarehouse()) as service:
            barren = service.execute(MineRequest(db=db, support=len(db) + 1))
            assert barren.pattern_count == 0
            relaxed = service.execute(MineRequest(db=db, support=5))
            assert relaxed.path == "mine"
            assert relaxed.patterns == mine_hmine(db, 5)


class TestParallelRequests:
    @staticmethod
    def _inline_factory(**extra):
        """Engine factory running the real worker code path in-process."""
        from repro.parallel import ParallelEngine

        def factory(jobs, shard_feedstock, on_shard_result):
            return ParallelEngine(
                jobs,
                executor="inline",
                shard_feedstock=shard_feedstock,
                on_shard_result=on_shard_result,
                **extra,
            )

        return factory

    def test_parallel_mine_matches_serial(self, db):
        with MiningService(
            warehouse=PatternWarehouse(),
            parallel_engine_factory=self._inline_factory(),
        ) as service:
            response = service.execute(MineRequest(db=db, support=10, jobs=2))
            assert response.jobs == 2 and not response.parallel_fallback
            assert response.patterns == mine_hmine(db, 10)
            snapshot = service.stats.snapshot()
            assert snapshot["parallel_runs"] == 1
            assert snapshot["parallel_fallbacks"] == 0

    def test_parallel_recycle_reuses_warehouse_feedstock(self, db):
        with MiningService(
            warehouse=PatternWarehouse(),
            parallel_engine_factory=self._inline_factory(),
        ) as service:
            service.execute(MineRequest(db=db, support=12))
            relaxed = service.execute(MineRequest(db=db, support=6, jobs=2))
            assert relaxed.path == "recycle" and relaxed.jobs == 2
            assert relaxed.patterns == mine_hmine(db, 6)

    def test_worker_crash_degrades_to_serial_and_is_surfaced(self, db):
        """Acceptance: a shard raising mid-mine falls back to the
        in-process path with exact results, visible in the response and
        in the service stats."""
        with MiningService(
            warehouse=PatternWarehouse(),
            parallel_engine_factory=self._inline_factory(
                fault_injector=FaultInjector().inject(SHARD_CRASH, probability=1.0)
            ),
        ) as service:
            response = service.execute(MineRequest(db=db, support=10, jobs=2))
            assert response.parallel_fallback
            assert response.jobs == 1  # the run that produced the answer
            assert response.patterns == mine_hmine(db, 10)
            snapshot = service.stats.snapshot()
            assert snapshot["parallel_fallbacks"] == 1

    def test_nonpositive_jobs_rejected_at_submit(self, db):
        with MiningService() as service:
            with pytest.raises(ReproError, match="jobs"):
                service.submit(MineRequest(db=db, support=12, jobs=0))


class TestStatsZeroGuards:
    def test_fresh_stats_report_without_requests(self):
        from repro.service.service import ServiceStats

        stats = ServiceStats()
        assert stats.latency_quantile(0.5) == 0.0
        assert stats.latency_quantile(0.95) == 0.0
        assert stats.path_rates() == {
            "filter": 0.0,
            "recycle": 0.0,
            "update": 0.0,
            "mine": 0.0,
            "degraded": 0.0,
        }
        snapshot = stats.snapshot()
        assert snapshot["requests"] == 0
        assert snapshot["latency_p50_s"] == 0.0
        assert snapshot["filter_rate"] == 0.0


class TestSingleFlight:
    def test_identical_inflight_requests_share_one_run(self, db, monkeypatch):
        """Six identical requests submitted while the leader is gated must
        produce exactly one underlying mining run."""
        release = threading.Event()
        real_kernel = projection_module.mine_grouped
        mine_calls: list[int] = []

        def gated_kernel(source, support, counters=None, **kwargs):
            mine_calls.append(support)
            assert release.wait(timeout=30), "gate never released"
            return real_kernel(source, support, counters, **kwargs)

        monkeypatch.setattr(projection_module, "mine_grouped", gated_kernel)
        with MiningService(warehouse=PatternWarehouse(), max_workers=4) as service:
            futures = [
                service.submit(MineRequest(db=db, support=10, tenant=f"user-{i}"))
                for i in range(6)
            ]
            release.set()
            responses = [future.result(timeout=60) for future in futures]
        assert len(mine_calls) == 1, "single-flight must run the miner once"
        assert service.stats.mine_runs == 1
        assert service.stats.coalesced == 5
        expected = mine_hmine(db, 10)
        assert all(response.patterns == expected for response in responses)
        assert sum(1 for r in responses if not r.coalesced) == 1

    def test_failures_propagate_to_every_waiter(self, db, monkeypatch):
        release = threading.Event()

        def explode(source, support, counters=None, **kwargs):
            assert release.wait(timeout=30)
            raise RuntimeError("disk on fire")

        monkeypatch.setattr(projection_module, "mine_grouped", explode)
        with MiningService(warehouse=PatternWarehouse(), max_workers=2) as service:
            futures = [
                service.submit(MineRequest(db=db, support=10)) for _ in range(3)
            ]
            release.set()
            for future in futures:
                with pytest.raises(RuntimeError, match="disk on fire"):
                    future.result(timeout=60)
        # A failed computation must not leave the in-flight slot occupied.
        assert not service._inflight


class TestConcurrency:
    def test_eight_threads_mixed_supports_exact_and_budgeted(self, db):
        """The acceptance scenario: >= 8 client threads of mixed-support
        requests against one service. Every result must be bit-identical
        to single-threaded mining and the warehouse must never exceed its
        byte budget."""
        supports = [18, 12, 9, 15, 7, 20, 10, 8]
        expected = {support: mine_hmine(db, support) for support in supports}
        # Big enough for any single set, far too small for all of them.
        budget = max(
            patterns_byte_size(patterns) for patterns in expected.values()
        ) + 64
        warehouse = PatternWarehouse(byte_budget=budget)
        service = MiningService(warehouse=warehouse, max_workers=8)
        start = threading.Barrier(8)
        failures: list[BaseException] = []

        def tenant(index: int) -> None:
            try:
                start.wait(timeout=30)
                # Every thread walks all supports, each starting elsewhere.
                for offset in range(len(supports)):
                    support = supports[(index + offset) % len(supports)]
                    response = service.execute(
                        MineRequest(db=db, support=support, tenant=f"t{index}")
                    )
                    assert response.patterns == expected[support], (
                        f"thread {index} got wrong patterns at {support}"
                    )
                    assert warehouse.stored_bytes() <= budget
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=tenant, args=(i,), name=f"tenant-{i}")
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        service.close()
        assert not failures, failures
        assert warehouse.stored_bytes() <= budget
        assert warehouse.evictions > 0, "budget pressure should have evicted"
        snapshot = service.stats.snapshot()
        assert snapshot["requests"] == 8 * len(supports)
        # The warehouse + coalescing must have absorbed some of the traffic.
        assert snapshot["computations"] + snapshot["coalesced"] == snapshot["requests"]
        assert snapshot["misses"] < snapshot["requests"]
        reused = (
            snapshot["filter_hits"] + snapshot["recycles"] + snapshot["coalesced"]
        )
        assert reused > 0

    def test_stats_quantiles_monotonic(self, db):
        with MiningService(warehouse=PatternWarehouse()) as service:
            for support in (20, 15, 10):
                service.execute(MineRequest(db=db, support=support))
            p50 = service.stats.latency_quantile(0.5)
            p95 = service.stats.latency_quantile(0.95)
            assert 0 <= p50 <= p95
