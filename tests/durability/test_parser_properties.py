"""Hypothesis property: every parser of durable bytes is total.

For each durable file kind — warehouse entry, chain record, MANIFEST and
``journal.log`` — a valid file written by the store is damaged by random
byte flips, deletions and insertions. The kind's parser must return a
value or raise :class:`~repro.errors.DataError`, never anything else;
whatever it raised on, recovery must list in its one quarantine list;
and reopening ``PatternWarehouse(directory=...)`` over the damaged
directory must never raise.
"""

from __future__ import annotations

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.io import read_warehouse_entry
from repro.data.synthetic import QuestParams, quest_database
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.durability import DurableStore, read_chain_record, record_from_node
from repro.durability.journal import WriteAheadJournal
from repro.errors import DataError
from repro.mining.hmine import mine_hmine
from repro.service import PatternWarehouse


def _read_manifest(path):
    report = DurableStore(path.parent).recover(apply=False)
    if any(name == path.name for name, _ in report.quarantined):
        raise DataError(dict(report.quarantined)[path.name])
    return report


#: file kind -> (path relative to the directory, its parser)
KINDS = {
    "entry": (None, read_warehouse_entry),
    "chain": (None, read_chain_record),
    "manifest": ("MANIFEST", _read_manifest),
    "journal": ("journal.log", lambda path: WriteAheadJournal(path).load()),
}

#: (operation, position, byte): positions wrap modulo the file length.
MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(("flip", "delete", "insert")),
        st.integers(min_value=0, max_value=1 << 16),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=6,
)


def mutate(data: bytes, mutations) -> bytes:
    buffer = bytearray(data)
    for op, position, byte in mutations:
        if op == "insert":
            buffer.insert(position % (len(buffer) + 1), byte)
        elif buffer and op == "delete":
            del buffer[position % len(buffer)]
        elif buffer:
            buffer[position % len(buffer)] ^= byte or 1
    return bytes(buffer)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A store-written directory holding one file of every kind."""
    directory = tmp_path_factory.mktemp("pristine")
    db = quest_database(
        QuestParams(n_transactions=40, n_items=12, avg_transaction_length=4),
        seed=1,
    )
    v0 = VersionedDatabase(db)
    v1 = v0.apply(DatabaseDelta(appends=((1, 2, 3),), deletes=frozenset({0})))
    warehouse = PatternWarehouse(directory=directory)
    warehouse.put(v0.fingerprint(), 5, mine_hmine(db, 5), n_transactions=len(db))
    record = record_from_node(v1)
    warehouse.record_lineage(
        record.child, record.parent, record.delta_fingerprint(), record.size
    )
    warehouse.persist_chain(record)
    relative = {
        "entry": f"{v0.fingerprint()}-5.patterns",
        "chain": f"chains/{record.child}.chain",
    }
    for kind, name in relative.items():
        assert (directory / name).stat().st_size > 0, kind
    assert (directory / "journal.log").stat().st_size > 0
    return directory, relative


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=15, deadline=None)
@given(mutations=MUTATIONS)
def test_damaged_file_parses_or_is_quarantined(
    pristine, tmp_path_factory, kind, mutations
):
    source, relative = pristine
    name, parser = KINDS[kind]
    name = name or relative[kind]
    directory = tmp_path_factory.mktemp(kind)
    shutil.copytree(source, directory, dirs_exist_ok=True)
    path = directory / name
    path.write_bytes(mutate(path.read_bytes(), mutations))

    try:
        parser(path)
        raised = False
    except DataError:
        raised = True

    warehouse = PatternWarehouse(directory=directory)
    if raised:
        assert path.name in {n for n, _ in warehouse.quarantined}
        assert (directory / "quarantine" / path.name).exists()
