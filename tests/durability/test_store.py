"""Unit tests for :class:`DurableStore`: journaled mutations, kill-window
recovery at every persistence fault point, quarantine, and GC on disk."""

from __future__ import annotations

import pytest

from repro.data.io import read_warehouse_entry
from repro.data.patterns import CondensedPatternSet, PatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.durability import DurableStore, record_from_node
from repro.durability.journal import OP_DROP, WriteAheadJournal, format_record
from repro.errors import InjectedFaultError
from repro.resilience import (
    PERSIST_MANIFEST,
    PERSIST_RENAME,
    PERSIST_WRITE,
    FaultInjector,
)


def condensed_patterns():
    patterns = PatternSet({(1,): 4, (2,): 3, (1, 2): 3})
    return CondensedPatternSet.condense(patterns, 3, "closed")


def build_chain():
    db = TransactionDatabase([[1, 2, 3], [1, 2], [2, 3], [1, 3]])
    v0 = VersionedDatabase(db)
    v1 = v0.apply(DatabaseDelta(appends=((1, 4),)))
    v2 = v1.apply(DatabaseDelta(appends=((2, 4),)))
    return v0, v1, v2


class TestHappyPath:
    def test_entry_write_lands_and_reloads(self, tmp_path):
        store = DurableStore(tmp_path)
        store.write_entry("f" * 64, 3, condensed_patterns())
        condensed, _full = read_warehouse_entry(store.entry_path("f" * 64, 3))
        assert condensed.as_dict() == condensed_patterns().as_dict()
        # Both journal lines landed; nothing is pending on reload.
        assert DurableStore(tmp_path).recover(apply=False).journal_replays == 0

    def test_links_and_chains_survive_restart(self, tmp_path):
        v0, v1, v2 = build_chain()
        store = DurableStore(tmp_path)
        for node in (v1, v2):
            record = record_from_node(node)
            store.write_chain(record)
            store.record_link(
                record.child, record.parent, record.delta_fingerprint(), record.size
            )
        reopened = DurableStore(tmp_path)
        report = reopened.recover()
        assert report.recovered_chains == 2
        assert report.recovered_links == 2
        restored = reopened.restore_version(v2.db)
        assert restored is not None
        assert restored.fingerprint() == v2.fingerprint()
        assert restored.parent.parent.fingerprint() == v0.fingerprint()

    def test_journal_compacts_once_it_grows(self, tmp_path):
        store = DurableStore(tmp_path)
        for i in range(3):
            store.write_entry(f"{i:064x}", 2, condensed_patterns())
        # Far under the compaction threshold: history retained.
        assert store.journal.size_bytes() > 0


class TestKillWindows:
    def test_kill_mid_journal_append_leaves_torn_tail(self, tmp_path):
        faults = FaultInjector().inject(PERSIST_WRITE, on_calls=(1,))
        store = DurableStore(tmp_path, faults)
        with pytest.raises(InjectedFaultError):
            store.write_entry("a" * 64, 2, condensed_patterns())
        # The mutation never started: no target file, and recovery
        # drops exactly one torn line.
        assert not store.entry_path("a" * 64, 2).exists()
        report = DurableStore(tmp_path).recover()
        assert report.torn_journal_lines == 1
        assert report.journal_replays == 0

    def test_kill_before_rename_keeps_old_state_and_sweeps_tmp(self, tmp_path):
        store = DurableStore(tmp_path)
        store.write_entry("a" * 64, 2, condensed_patterns())
        before = store.entry_path("a" * 64, 2).read_text()
        faults = FaultInjector().inject(PERSIST_RENAME, on_calls=(1,))
        dying = DurableStore(tmp_path, faults)
        with pytest.raises(InjectedFaultError):
            dying.write_entry("a" * 64, 2, condensed_patterns())
        # Old state intact, never torn.
        assert store.entry_path("a" * 64, 2).read_text() == before
        report = DurableStore(tmp_path).recover()
        assert report.stray_tmp_removed == 1
        assert list(tmp_path.glob("*.tmp")) == []

    def test_kill_mid_manifest_rolls_the_link_forward(self, tmp_path):
        faults = FaultInjector().inject(PERSIST_MANIFEST, on_calls=(1,))
        dying = DurableStore(tmp_path, faults)
        with pytest.raises(InjectedFaultError):
            dying.record_link("c" * 64, "p" * 64, None, 1)
        reopened = DurableStore(tmp_path)
        report = reopened.recover()
        # The begin record carried the full intent; replay re-applies it.
        assert report.journal_replays == 1
        assert reopened.lineage_links()["c" * 64] == ("p" * 64, None, 1)
        # And the replay is durable: a third open sees it with no replay.
        third = DurableStore(tmp_path)
        assert third.recover().journal_replays == 0
        assert third.lineage_links()["c" * 64] == ("p" * 64, None, 1)

    def test_pending_drop_is_replayed(self, tmp_path):
        store = DurableStore(tmp_path)
        store.write_entry("a" * 64, 2, condensed_patterns())
        # Simulate a crash between the drop's begin and the unlink: append
        # the begin record by hand, as the dying process would have.
        journal = WriteAheadJournal(tmp_path / "journal.log")
        name = store.entry_path("a" * 64, 2).name
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write(format_record(99, "begin", OP_DROP, {"file": name}))
        report = DurableStore(tmp_path).recover()
        assert report.journal_replays == 1
        assert not store.entry_path("a" * 64, 2).exists()

    def test_audit_mode_never_mutates(self, tmp_path):
        faults = FaultInjector().inject(PERSIST_RENAME, on_calls=(1,))
        dying = DurableStore(tmp_path, faults)
        with pytest.raises(InjectedFaultError):
            dying.write_entry("a" * 64, 2, condensed_patterns())
        stray = list(tmp_path.glob("*.tmp"))
        assert len(stray) == 1
        report = DurableStore(tmp_path).recover(apply=False)
        assert report.stray_tmp_removed == 0
        assert list(tmp_path.glob("*.tmp")) == stray


class TestQuarantine:
    def test_corrupt_chain_file_is_quarantined(self, tmp_path):
        _, v1, _ = build_chain()
        store = DurableStore(tmp_path)
        record = record_from_node(v1)
        store.write_chain(record)
        path = store.chain_path(record.child)
        path.write_text(path.read_text()[:-6])
        reopened = DurableStore(tmp_path)
        report = reopened.recover()
        assert report.recovered_chains == 0
        assert [name for name, _ in report.quarantined] == [path.name]
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_corrupt_manifest_is_quarantined(self, tmp_path):
        store = DurableStore(tmp_path)
        store.record_link("c" * 64, "p" * 64, None, 1)
        store.manifest_path.write_text("{ not json")
        report = DurableStore(tmp_path).recover()
        assert any(name == "MANIFEST" for name, _ in report.quarantined)

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            "1",
            '{"format": 1, "lineage": []}',
            '{"format": 1, "lineage": {"c": "abc"}}',
            '{"format": 1, "lineage": {"c": ["p", null, 1e999]}}',
            '{"format": 1, "lineage": {"c": ["p", 7, 1]}}',
        ],
    )
    def test_well_formed_json_of_the_wrong_shape_is_quarantined(
        self, tmp_path, text
    ):
        (tmp_path / "MANIFEST").write_text(text)
        report = DurableStore(tmp_path).recover()
        assert [name for name, _ in report.quarantined] == ["MANIFEST"]
        assert report.recovered_links == 0
        assert (tmp_path / "quarantine" / "MANIFEST").exists()

    def test_corrupt_entry_file_is_quarantined_with_the_rest(self, tmp_path):
        store = DurableStore(tmp_path)
        store.write_entry("a" * 64, 3, condensed_patterns())
        store.write_entry("b" * 64, 3, condensed_patterns())
        path = store.entry_path("a" * 64, 3)
        path.write_text(path.read_text()[:-4])
        audit = DurableStore(tmp_path).recover(apply=False)
        assert [name for name, _ in audit.quarantined] == [path.name]
        assert audit.quarantined_entry("a" * 64)
        assert not audit.quarantined_entry("b" * 64)
        assert path.exists()  # the audit moves nothing
        report = DurableStore(tmp_path).recover()
        assert [name for name, _ in report.quarantined] == [path.name]
        assert [fp for fp, _c, _full in report.take_entries()] == ["b" * 64]
        assert report.recovered_entries == 1 and report.entries == []
        assert (tmp_path / "quarantine" / path.name).exists()
        assert not path.exists()


class TestGC:
    def test_dead_links_and_chain_files_are_dropped(self, tmp_path):
        _, v1, v2 = build_chain()
        store = DurableStore(tmp_path)
        for node in (v1, v2):
            record = record_from_node(node)
            store.write_chain(record)
            store.record_link(
                record.child, record.parent, record.delta_fingerprint(), record.size
            )
        report = store.gc(warehoused=set())
        assert report.dropped_links == 2
        assert report.dropped_chain_files == 2
        assert store.lineage_links() == {}
        assert list((tmp_path / "chains").glob("*.chain")) == []

    def test_compaction_rewires_past_unwarehoused_hop(self, tmp_path):
        v0, v1, v2 = build_chain()
        store = DurableStore(tmp_path)
        for node in (v1, v2):
            record = record_from_node(node)
            store.write_chain(record)
            store.record_link(
                record.child, record.parent, record.delta_fingerprint(), record.size
            )
        report = store.gc(warehoused={v0.fingerprint()})
        assert report.collapsed_hops == 1
        assert report.rewritten_chains == 1
        parent, _fp, _distance = store.lineage_links()[v2.fingerprint()]
        assert parent == v0.fingerprint()
        # The composed record still restores v2 straight to v0 — even
        # after another restart re-reads everything from disk.
        reopened = DurableStore(tmp_path)
        reopened.recover()
        restored = reopened.restore_version(v2.db)
        assert restored is not None
        assert restored.parent.fingerprint() == v0.fingerprint()

    def test_dry_run_plans_without_touching_disk(self, tmp_path):
        _, v1, v2 = build_chain()
        store = DurableStore(tmp_path)
        for node in (v1, v2):
            record = record_from_node(node)
            store.write_chain(record)
            store.record_link(
                record.child, record.parent, record.delta_fingerprint(), record.size
            )
        report = store.gc(warehoused=set(), dry_run=True)
        assert report.dry_run
        assert report.dropped_links == 2
        assert len(store.lineage_links()) == 2
        assert len(list((tmp_path / "chains").glob("*.chain"))) == 2
