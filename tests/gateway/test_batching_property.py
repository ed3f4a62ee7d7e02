"""The gateway's tentpole invariant: batched serving is bit-identical.

For hypothesis-generated databases and support ladders, a group of
compatible requests served through one gateway batch (one mine at the
group-minimum support, members served by ``filter_min_support``) must
equal — pattern for pattern, support count for support count — the
responses an isolated synchronous :class:`MiningService` produces for
the same requests, across strategy × backend × jobs × warehouse
representation (closed / NDI) — and both must equal an independent
scratch mine (vertical Eclat, which shares no code with the grouped
kernel).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.transactions import TransactionDatabase
from repro.gateway import MiningGateway
from repro.mining.eclat import mine_eclat_bitset
from repro.service import MineRequest, MiningService, PatternWarehouse

small_databases = st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=6),
    min_size=2,
    max_size=16,
)


@given(
    transactions=small_databases,
    supports=st.lists(st.integers(1, 8), min_size=2, max_size=5),
    strategy=st.sampled_from(["mcp", "mlp"]),
    backend=st.sampled_from(["python", "bitset"]),
    jobs=st.sampled_from([1, 2]),
    representation=st.sampled_from(["closed", "ndi"]),
)
@settings(max_examples=25, deadline=None)
def test_batched_group_equals_independent_serving(
    transactions, supports, strategy, backend, jobs, representation
):
    db = TransactionDatabase(transactions)
    requests = [
        MineRequest(
            db=db,
            support=support,
            tenant=f"tenant-{i}",
            strategy=strategy,
            backend=backend,
            jobs=jobs,
        )
        for i, support in enumerate(supports)
    ]

    with MiningService(
        warehouse=PatternWarehouse(representation=representation),
        max_workers=1,
    ) as service:
        gateway = MiningGateway(service, start=False)
        batched = gateway.execute_many(requests)
        gateway.close()

    with MiningService(
        warehouse=PatternWarehouse(representation=representation),
        max_workers=1,
    ) as reference:
        for response, request in zip(batched, requests):
            expected = reference.execute(request)
            assert response.status == "served"
            assert response.patterns == expected.patterns
            assert response.patterns == mine_eclat_bitset(
                db, request.absolute_support()
            )
            assert (
                response.response.absolute_support == expected.absolute_support
            )


@given(
    transactions=small_databases,
    supports=st.lists(st.integers(1, 6), min_size=3, max_size=6),
)
@settings(max_examples=15, deadline=None)
def test_one_submission_wave_is_one_computation(transactions, supports):
    """However long the ladder, a single queued cohort mines exactly once."""
    db = TransactionDatabase(transactions)
    with MiningService(warehouse=None, max_workers=1) as service:
        gateway = MiningGateway(service, start=False)
        gateway.execute_many(
            [MineRequest(db=db, support=s) for s in supports]
        )
        assert service.stats.computations == 1
        assert gateway.stats.batches == 1
        gateway.close()
