"""Every serving path mines through the one grouped kernel.

The paper's named miners stay registered as reproduction artifacts
(``recycle_mine``, the CLI, the figure benchmarks), but no serving path
may reach them: a scratch mine, a recycle, an update patch, a sharded
run and an interactive session all run
:func:`repro.storage.projection.mine_grouped`. Forbidding
:meth:`MinerSpec.mine` for the duration proves it.
"""

from __future__ import annotations

import pytest

import repro.storage.projection as projection_module
from repro.core.session import MiningSession
from repro.data.synthetic import QuestParams, quest_database
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.mining.bruteforce import mine_bruteforce
from repro.mining.registry import MinerSpec
from repro.service import MineRequest, MiningService, PatternWarehouse


@pytest.fixture
def kernel_calls(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"serving path called the {self.kind} miner {self.name!r}")

    monkeypatch.setattr(MinerSpec, "mine", refuse)
    real_kernel = projection_module.mine_grouped
    calls: list[int] = []

    def counting_kernel(source, min_support, counters=None, **kwargs):
        calls.append(min_support)
        return real_kernel(source, min_support, counters, **kwargs)

    monkeypatch.setattr(projection_module, "mine_grouped", counting_kernel)
    return calls


def make_db(seed: int = 1):
    return quest_database(
        QuestParams(n_transactions=80, n_items=20, avg_transaction_length=5),
        seed=seed,
    )


def test_service_paths_never_call_a_registered_miner(kernel_calls):
    db = make_db()
    v0 = VersionedDatabase(db)
    with MiningService(warehouse=PatternWarehouse()) as service:
        mined = service.execute(MineRequest(db, 12, version=v0))
        recycled = service.execute(MineRequest(db, 8, version=v0))
        # A delete forces the recycle-mode patch (FUP is insert-only).
        v1 = service.apply_delta(
            v0, DatabaseDelta(appends=((1, 2, 3),), deletes=frozenset(db.tids[:2]))
        )
        updated = service.execute(MineRequest(v1.db, 8, version=v1))
        sharded = service.execute(MineRequest(make_db(seed=2), 8, jobs=2))
    assert [mined.path, recycled.path, updated.path] == ["mine", "recycle", "update"]
    assert updated.update_mode == "recycle"
    assert sharded.path == "mine" and sharded.jobs == 2
    assert not sharded.parallel_fallback
    assert mined.patterns == mine_bruteforce(db, 12)
    assert recycled.patterns == mine_bruteforce(db, 8)
    assert updated.patterns == mine_bruteforce(v1.db, 8)
    assert sharded.patterns == mine_bruteforce(make_db(seed=2), 8)
    assert len(kernel_calls) >= 3


def test_session_paths_never_call_a_registered_miner(kernel_calls):
    db = make_db()
    session = MiningSession(db)
    session.mine(12)
    session.mine(8)
    session.delete_tids(db.tids[:2])
    result = session.mine(8)
    assert [report.path for report in session.history] == [
        "initial",
        "recycle",
        "update",
    ]
    assert result == mine_bruteforce(session.db, 8)
    assert len(kernel_calls) == 3
