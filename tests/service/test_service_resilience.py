"""Service-level resilience: the circuit breaker, the degradation ladder
on responses and stats, and single-flight failure semantics."""

from __future__ import annotations

import threading

import pytest

import repro.storage.projection as projection_module
from repro.data.synthetic import QuestParams, quest_database
from repro.errors import MiningError
from repro.mining.hmine import mine_hmine
from repro.resilience import (
    REASON_CIRCUIT_OPEN,
    REASON_FEEDSTOCK_QUARANTINED,
    REASON_SHARD_FAILED,
    REASON_WAREHOUSE_READ_FAILED,
    REASON_WRITE_FAILED,
    CircuitBreaker,
    FaultInjector,
    ResilienceConfig,
    RetryPolicy,
    SHARD_CRASH,
    WAREHOUSE_READ,
    WAREHOUSE_WRITE,
)
from repro.service import MineRequest, MiningService, PatternWarehouse


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=150, n_items=40, avg_transaction_length=6),
        seed=2,
    )


def inline_factory(**extra):
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


def no_wait() -> RetryPolicy:
    return RetryPolicy(
        max_attempts=1,
        base_delay_seconds=0.0,
        max_delay_seconds=0.0,
        jitter_fraction=0.0,
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_breaker_trips_after_consecutive_fallbacks(self, db):
        """Two fallbacks trip the breaker; the third parallel request is
        served serially with a circuit_open step, without touching the
        engine at all."""
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_seconds=60.0, clock=clock
        )
        with MiningService(
            warehouse=None,  # keep every request on the mine path
            parallel_engine_factory=inline_factory(
                fault_injector=FaultInjector().inject(SHARD_CRASH, probability=1.0),
                retry_policy=no_wait(),
            ),
            resilience=ResilienceConfig(breaker=breaker),
        ) as service:
            for _ in range(2):
                response = service.execute(
                    MineRequest(db=db, support=10, jobs=2)
                )
                assert response.parallel_fallback
                assert response.degradation.reasons() == [
                    f"parallel→serial: {REASON_SHARD_FAILED}"
                ]
            assert breaker.state == "open"
            tripped = service.execute(MineRequest(db=db, support=10, jobs=2))
            assert not tripped.parallel_fallback  # never attempted
            assert tripped.jobs == 1
            assert tripped.degradation.reasons() == [
                f"parallel→serial: {REASON_CIRCUIT_OPEN}"
            ]
            assert tripped.patterns == mine_hmine(db, 10)
            snapshot = service.stats.snapshot()
            assert snapshot["breaker_open"] == 1.0
            assert snapshot["breaker_trips"] == 1.0
            assert snapshot["degraded"] == 3
            summary = service.stats.degradation_summary()
            assert summary[f"parallel→serial: {REASON_CIRCUIT_OPEN}"] == 1
            assert summary[f"parallel→serial: {REASON_SHARD_FAILED}"] == 2

    def test_half_open_success_closes_the_breaker(self, db):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=30.0, clock=clock
        )
        calls = {"n": 0}

        def flaky_factory(jobs, shard_feedstock, on_shard_result):
            from repro.parallel import ParallelEngine

            calls["n"] += 1
            inject = (
                FaultInjector().inject(SHARD_CRASH, probability=1.0)
                if calls["n"] == 1
                else None
            )
            return ParallelEngine(
                jobs,
                executor="inline",
                shard_feedstock=shard_feedstock,
                on_shard_result=on_shard_result,
                fault_injector=inject,
                retry_policy=no_wait(),
            )

        with MiningService(
            warehouse=None,
            parallel_engine_factory=flaky_factory,
            resilience=ResilienceConfig(breaker=breaker),
        ) as service:
            service.execute(MineRequest(db=db, support=10, jobs=2))
            assert breaker.state == "open"
            clock.now = 30.0  # cooldown over → half-open trial allowed
            trial = service.execute(MineRequest(db=db, support=10, jobs=2))
            assert not trial.parallel_fallback and trial.jobs == 2
            assert breaker.state == "closed"


class TestWarehouseDegradation:
    def test_read_fault_degrades_to_miss_and_is_reported(self, db):
        faults = FaultInjector().inject(WAREHOUSE_READ, on_calls=(2,))
        warehouse = PatternWarehouse(fault_injector=faults)
        with MiningService(warehouse=warehouse) as service:
            service.execute(MineRequest(db=db, support=12))  # call 1: miss
            # Call 2 would have been a filter hit; the fault turns it
            # into a mine with a named degradation instead of an error.
            response = service.execute(MineRequest(db=db, support=12))
            assert response.path == "mine"
            assert response.degradation.reasons() == [
                f"feedstock→miss: {REASON_WAREHOUSE_READ_FAILED}"
            ]
            assert response.patterns == mine_hmine(db, 12)
            assert service.stats.snapshot()["degraded"] == 1

    def test_quarantined_feedstock_names_the_miss(self, db, tmp_path):
        fingerprint = db.fingerprint()
        seeded = PatternWarehouse(directory=tmp_path)
        seeded.put(fingerprint, 12, mine_hmine(db, 12))
        path = tmp_path / f"{fingerprint}-12.patterns"
        path.write_text(path.read_text()[:40])  # corrupt it on disk
        warehouse = PatternWarehouse(directory=tmp_path)
        assert warehouse.has_quarantined(fingerprint)
        with MiningService(warehouse=warehouse) as service:
            response = service.execute(MineRequest(db=db, support=8))
            assert response.path == "mine"
            assert response.degradation.reasons() == [
                f"recycle→mine: {REASON_FEEDSTOCK_QUARANTINED}"
            ]
            assert response.patterns == mine_hmine(db, 8)

    def test_write_fault_reports_memory_only_degradation(self, db, tmp_path):
        faults = FaultInjector().inject(WAREHOUSE_WRITE, on_calls=(1,))
        warehouse = PatternWarehouse(directory=tmp_path, fault_injector=faults)
        with MiningService(warehouse=warehouse) as service:
            response = service.execute(MineRequest(db=db, support=12))
            assert response.degradation.reasons() == [
                f"warehouse→memory_only: {REASON_WRITE_FAILED}"
            ]
            # The entry still serves future requests from memory.
            again = service.execute(MineRequest(db=db, support=12))
            assert again.path == "filter" and not again.degradation.degraded

    def test_shard_feedstock_read_fault_is_a_cold_shard_not_a_crash(self, db):
        # Calls: 1 = leader put's lookup... arm every read after the
        # first (global) lookup so the per-shard lookups all fail.
        faults = FaultInjector().inject(
            WAREHOUSE_READ, on_calls=(2, 3, 4, 5, 6)
        )
        warehouse = PatternWarehouse()
        warehouse.put(db.fingerprint(), 12, mine_hmine(db, 12))
        warehouse.faults = faults
        with MiningService(
            warehouse=warehouse, parallel_engine_factory=inline_factory()
        ) as service:
            response = service.execute(MineRequest(db=db, support=6, jobs=2))
            assert response.patterns == mine_hmine(db, 6)
            assert not response.parallel_fallback


class TestSingleFlightFailure:
    def test_leader_exception_reaches_every_waiter_then_clears(self, db, monkeypatch):
        """Satellite: all coalesced waiters get the leader's exception,
        and the in-flight key is cleared so the next submit retries."""
        release = threading.Event()
        real_kernel = projection_module.mine_grouped
        attempts: list[int] = []

        def exploding_kernel(source, support, counters=None, **kwargs):
            attempts.append(support)
            assert release.wait(timeout=30), "gate never released"
            if len(attempts) == 1:
                raise MiningError("injected leader failure")
            return real_kernel(source, support, counters, **kwargs)

        monkeypatch.setattr(projection_module, "mine_grouped", exploding_kernel)
        with MiningService(warehouse=None, max_workers=2) as service:
            futures = [
                service.submit(MineRequest(db=db, support=10, tenant=f"t{i}"))
                for i in range(4)
            ]
            release.set()
            for future in futures:
                with pytest.raises(MiningError, match="injected leader"):
                    future.result(timeout=60)
            assert len(attempts) == 1  # one leader, one failure, shared
            # The key was cleared: a fresh submit starts a new leader
            # and succeeds.
            retry = service.execute(MineRequest(db=db, support=10))
            assert retry.patterns == mine_hmine(db, 10)
            assert len(attempts) == 2
