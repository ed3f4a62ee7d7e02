"""Hypothesis property: persist → kill → recover → bit-identical serving.

For every combination of compression strategy × kernel backend × jobs ×
warehouse representation × persistence fault point × kill offset, a
service generation that persists its warehouse and chain, dies at an
injected persistence fault, and is rebuilt from the directory alone
must serve the post-delta request with *bit-identical* patterns to the
uninterrupted run — whatever path (update or mine) recovery left
reachable — and the uninterrupted run must equal a brute-force scratch
mine, an oracle that shares no code with the serving kernel.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import QuestParams, quest_database
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.mining.bruteforce import mine_bruteforce
from repro.resilience import PERSIST_FAULT_POINTS, FaultInjector
from repro.service import MineRequest, MiningService, PatternWarehouse

BACKENDS = ("bitset", "python")
STRATEGIES = ("mcp", "mlp")
REPRESENTATIONS = ("full", "closed", "ndi")
SUPPORT = 8


def make_db(seed: int) -> TransactionDatabase:
    return quest_database(
        QuestParams(n_transactions=50, n_items=18, avg_transaction_length=5),
        seed=seed,
    )


def run_generation(directory, db, strategy, backend, jobs, representation, faults):
    """One service generation: mine v0 versioned, advance by one delta.

    Injected persistence faults are absorbed by the warehouse's
    degradation ladder (memory-only), exactly like a dying disk; the
    kill is simulated by abandoning every live object afterwards.
    Returns the post-delta version.
    """
    warehouse = PatternWarehouse(
        directory=directory,
        representation=representation,
        fault_injector=faults,
    )
    with MiningService(warehouse=warehouse) as service:
        v0 = VersionedDatabase(db)
        service.execute(
            MineRequest(
                db=db,
                support=SUPPORT,
                strategy=strategy,
                backend=backend,
                jobs=jobs,
                version=v0,
            )
        )
        v1 = service.apply_delta(
            v0, DatabaseDelta(appends=((1, 2, 4), (3, 5)))
        )
    return v1


def serve_after_restart(directory, v1, strategy, backend, jobs, representation):
    """Rebuild the service from the directory and serve v1 unversioned."""
    warehouse = PatternWarehouse(
        directory=directory, representation=representation
    )
    with MiningService(warehouse=warehouse) as service:
        return service.execute(
            MineRequest(
                db=TransactionDatabase(v1.db.transactions, tids=v1.db.tids),
                support=SUPPORT,
                strategy=strategy,
                backend=backend,
                jobs=jobs,
            )
        )


@settings(max_examples=20, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGIES),
    backend=st.sampled_from(BACKENDS),
    jobs=st.sampled_from((1, 2)),
    representation=st.sampled_from(REPRESENTATIONS),
    point=st.sampled_from(PERSIST_FAULT_POINTS),
    offset=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=3),
)
def test_kill_then_recover_serves_bit_identical_patterns(
    tmp_path_factory, strategy, backend, jobs, representation, point, offset, seed
):
    db = make_db(seed)

    # Ground truth: the uninterrupted persist → restart → serve run.
    clean_dir = tmp_path_factory.mktemp("clean")
    v1 = run_generation(
        clean_dir, db, strategy, backend, jobs, representation, faults=None
    )
    expected = serve_after_restart(
        clean_dir, v1, strategy, backend, jobs, representation
    )
    assert expected.path == "update"
    assert expected.patterns == mine_bruteforce(v1.db, SUPPORT)

    # The killed run: same generation, a persistence fault at (point,
    # offset), then recovery from whatever reached the disk.
    crash_dir = tmp_path_factory.mktemp("crash")
    faults = FaultInjector(seed=seed).inject(point, on_calls=(offset,))
    v1_crash = run_generation(
        crash_dir, db, strategy, backend, jobs, representation, faults
    )
    assert v1_crash.fingerprint() == v1.fingerprint()
    response = serve_after_restart(
        crash_dir, v1_crash, strategy, backend, jobs, representation
    )
    # The one non-negotiable: bit-identical patterns, whatever survived.
    assert response.patterns == expected.patterns, (
        f"{strategy}/{backend}/jobs={jobs}/{representation} "
        f"{point}@{offset} seed={seed}"
        f" served via {response.path}"
    )
    assert response.path in ("update", "mine")
