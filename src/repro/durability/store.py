"""The durable store: crash-safe files + journal + manifest + recovery.

One :class:`DurableStore` owns everything under a warehouse directory
that must survive a kill::

    <dir>/
        <fingerprint>-<support>.patterns   warehouse entries (atomic)
        chains/<fingerprint>.chain         chain records (atomic)
        MANIFEST                           lineage links (atomic JSON)
        journal.log                        write-ahead intent log
        quarantine/                        torn/corrupt files, preserved

Write protocol (the crash-safety argument, window by window):

1. ``journal.begin`` — intent is fsynced before anything else moves. A
   kill here leaves old state plus a pending record recovery resolves.
2. the mutation itself — every target file is written via
   :func:`~repro.durability.atomic.atomic_write_text` (temp + fsync +
   ``os.replace``) or is a single ``unlink``. A kill here leaves the
   old file or the new file, never a torn one; the worst residue is a
   stray ``*.tmp``.
3. ``journal.commit`` — a kill here merely leaves a pending record
   whose effect already landed; replay is idempotent.

:meth:`DurableStore.recover` runs before the warehouse trusts the
directory: it reads the journal (tolerating a torn tail line), rolls
pending mutations forward or confirms them rolled back, sweeps stray
temp files, loads the manifest and every chain record (quarantining
damage exactly like corrupt pattern files), then compacts the journal.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Collection

from repro.data.io import warehouse_entry_text
from repro.data.patterns import CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import VersionedDatabase
from repro.errors import DataError, InjectedFaultError
from repro.resilience.faults import PERSIST_MANIFEST

from repro.durability.atomic import atomic_write_text, sweep_tmp_files
from repro.durability.chains import (
    CHAIN_SUFFIX,
    ChainRecord,
    chain_record_text,
    read_chain_record,
    restore_version,
)
from repro.durability.gc import GCPlan, GCReport, LineageLink, plan_gc
from repro.durability.journal import (
    OP_CHAIN,
    OP_DROP,
    OP_EVICT,
    OP_GC,
    OP_LINK,
    OP_PUT,
    OP_UNLINK,
    WriteAheadJournal,
)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.resilience.faults import FaultInjector

#: The atomic lineage manifest's file name inside the store directory.
MANIFEST_NAME = "MANIFEST"

#: The write-ahead journal's file name inside the store directory.
JOURNAL_NAME = "journal.log"

#: Subdirectory holding one ``.chain`` file per durable hop.
CHAINS_DIR = "chains"

#: Subdirectory quarantined files move to (shared with the warehouse).
QUARANTINE_DIR = "quarantine"

#: Manifest format stamp; bump on incompatible change.
MANIFEST_FORMAT_VERSION = 1

#: Compact the journal once it grows past this many bytes. Mutations are
#: serialized under the warehouse lock, so at any commit boundary there
#: are no in-flight records and truncation loses nothing.
JOURNAL_COMPACT_BYTES = 64 * 1024


@dataclass
class RecoveryReport:
    """What one :meth:`DurableStore.recover` pass found and fixed."""

    journal_replays: int = 0
    torn_journal_lines: int = 0
    stray_tmp_removed: int = 0
    recovered_links: int = 0
    recovered_chains: int = 0
    quarantined: list[tuple[str, str]] = field(default_factory=list)


class DurableStore:
    """Journaled, crash-safe persistence for one warehouse directory.

    The store is the only writer of entry, chain, manifest and journal
    files; the warehouse calls it under its own lock, so the store adds
    just enough locking to protect the journal's sequence counter.
    Construction performs no I/O beyond creating the directory layout —
    call :meth:`recover` (the warehouse does, first thing) before
    trusting the registries.
    """

    def __init__(
        self,
        directory: str | Path,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.chains_dir = self.directory / CHAINS_DIR
        self.chains_dir.mkdir(parents=True, exist_ok=True)
        self.faults = faults
        self.journal = WriteAheadJournal(
            self.directory / JOURNAL_NAME, faults
        )
        self._lock = threading.Lock()
        self._lineage: dict[str, LineageLink] = {}
        self._chains: dict[str, ChainRecord] = {}

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def entry_path(self, fingerprint: str, absolute_support: int) -> Path:
        return self.directory / f"{fingerprint}-{absolute_support}.patterns"

    def chain_path(self, child: str) -> Path:
        return self.chains_dir / f"{child}{CHAIN_SUFFIX}"

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def quarantine_path(self, name: str) -> Path:
        return self.directory / QUARANTINE_DIR / name

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self, *, apply: bool = True) -> RecoveryReport:
        """Resolve in-flight mutations and load the durable registries.

        ``apply=False`` audits without mutating the directory — pending
        records are counted, stray temp files are reported as zero
        (they are only *swept* when applying), and the journal is left
        as found; the loaded registries are identical either way. The
        CLI's read-only inspection uses the audit mode so listing a
        warehouse never rewrites it.
        """
        report = RecoveryReport()
        try:
            records, report.torn_journal_lines = self.journal.load()
        except DataError as exc:
            # Undecodable bytes: no line of the journal can be trusted.
            # Preserve it for inspection and recover from the manifest,
            # entries and chain files, which are each written atomically.
            records = []
            if apply:
                self._quarantine_file(self.journal.path, str(exc))
            report.quarantined.append((JOURNAL_NAME, str(exc)))
        committed = {r.seq for r in records if r.phase == "commit"}
        pending = [
            r
            for r in records
            if r.phase == "begin" and r.seq not in committed
        ]

        # Load the manifest before replay so pending lineage ops apply
        # on top of the last durable state.
        lineage, manifest_damage = self._load_manifest()
        if manifest_damage is not None:
            if apply:
                self._quarantine_file(self.manifest_path, manifest_damage)
            report.quarantined.append((MANIFEST_NAME, manifest_damage))

        lineage_dirty = False
        for record in pending:
            replayed, touched = self._resolve_pending(record, lineage, apply)
            if replayed:
                report.journal_replays += 1
            lineage_dirty = lineage_dirty or touched

        if apply:
            report.stray_tmp_removed += sweep_tmp_files(self.directory)
            report.stray_tmp_removed += sweep_tmp_files(self.chains_dir)

        chains: dict[str, ChainRecord] = {}
        if self.chains_dir.is_dir():
            for path in sorted(self.chains_dir.glob(f"*{CHAIN_SUFFIX}")):
                try:
                    record = read_chain_record(path)
                except DataError as exc:
                    if apply:
                        self._quarantine_file(path, str(exc))
                    report.quarantined.append((path.name, str(exc)))
                    continue
                chains[record.child] = record

        with self._lock:
            self._lineage = lineage
            self._chains = chains
        report.recovered_links = len(lineage)
        report.recovered_chains = len(chains)

        if apply:
            if lineage_dirty:
                self._write_manifest()
            if pending or report.torn_journal_lines:
                self.journal.compact()
        return report

    def _resolve_pending(
        self, record, lineage: dict[str, LineageLink], apply: bool
    ) -> tuple[bool, bool]:
        """Roll one pending mutation forward; (replayed, lineage_touched)."""
        payload = record.payload
        if record.op in (OP_PUT, OP_CHAIN):
            # The target write is itself atomic: if the file exists the
            # mutation landed (only uncommitted), else it rolled back.
            # Either state is consistent; nothing to roll forward.
            return False, False
        if record.op in (OP_DROP, OP_EVICT):
            name = payload.get("file", "")
            target = self.directory / name if name else None
            if target is not None and target.exists():
                if apply:
                    target.unlink()
                return True, False
            return False, False
        if record.op == OP_LINK:
            child = payload.get("child")
            if not isinstance(child, str):
                return False, False
            link = (
                payload.get("parent"),
                payload.get("delta"),
                int(payload.get("distance", 0)),
            )
            if lineage.get(child) == link:
                return False, False
            lineage[child] = link
            return True, True
        if record.op == OP_UNLINK:
            children = payload.get("children", [])
            touched = False
            for child in children:
                if child in lineage:
                    del lineage[child]
                    touched = True
                target = self.chain_path(str(child))
                if target.exists():
                    if apply:
                        target.unlink()
                    touched = True
            return touched, touched
        if record.op == OP_GC:
            touched = False
            for child in payload.get("drop", []):
                if child in lineage:
                    del lineage[child]
                    touched = True
                target = self.chain_path(str(child))
                if target.exists() and apply:
                    target.unlink()
            for child, link in payload.get("rewrite", {}).items():
                new_link = (link[0], link[1], int(link[2]))
                if lineage.get(child) != new_link:
                    lineage[child] = new_link
                    touched = True
            return touched, touched
        return False, False

    def _load_manifest(
        self,
    ) -> tuple[dict[str, LineageLink], str | None]:
        """(lineage, damage-reason). Damage yields an empty registry."""
        try:
            raw = self.manifest_path.read_bytes()
        except FileNotFoundError:
            return {}, None
        except OSError as exc:
            return {}, f"cannot read manifest: {exc}"
        try:
            data = json.loads(raw.decode("utf-8"))
            if data.get("format") != MANIFEST_FORMAT_VERSION:
                return {}, f"unsupported manifest format {data.get('format')!r}"
            lineage: dict[str, LineageLink] = {}
            for child, link in data["lineage"].items():
                parent, delta_fp, distance = link
                if not isinstance(child, str) or not isinstance(parent, str):
                    raise ValueError("non-string fingerprint")
                lineage[child] = (parent, delta_fp, int(distance))
            return lineage, None
        except (ValueError, KeyError, TypeError) as exc:
            return {}, f"malformed manifest: {exc}"

    def _quarantine_file(self, path: Path, reason: str) -> None:
        destination = self.quarantine_path(path.name)
        destination.parent.mkdir(parents=True, exist_ok=True)
        try:
            path.replace(destination)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # entries
    # ------------------------------------------------------------------
    def write_entry(
        self,
        fingerprint: str,
        absolute_support: int,
        condensed: CondensedPatternSet,
        *,
        full_bytes: int | None = None,
    ) -> None:
        """Journaled, atomic write of one warehouse entry file."""
        path = self.entry_path(fingerprint, absolute_support)
        seq = self.journal.begin(OP_PUT, {"file": path.name})
        atomic_write_text(
            path,
            warehouse_entry_text(condensed, full_bytes=full_bytes),
            faults=self.faults,
            detail=f"entry {fingerprint[:12]}@{absolute_support}",
        )
        self.journal.commit(seq, OP_PUT)
        self._maybe_compact()

    def remove_entry(
        self, fingerprint: str, absolute_support: int, *, op: str = OP_DROP
    ) -> None:
        """Journaled unlink of one entry file (``op`` is drop or evict)."""
        path = self.entry_path(fingerprint, absolute_support)
        seq = self.journal.begin(op, {"file": path.name})
        try:
            path.unlink()
        except FileNotFoundError:
            pass
        self.journal.commit(seq, op)
        self._maybe_compact()

    # ------------------------------------------------------------------
    # lineage + chains
    # ------------------------------------------------------------------
    def lineage_links(self) -> dict[str, LineageLink]:
        with self._lock:
            return dict(self._lineage)

    def chain_records(self) -> dict[str, ChainRecord]:
        with self._lock:
            return dict(self._chains)

    def has_chain(self, child: str) -> bool:
        with self._lock:
            return child in self._chains

    def record_link(
        self,
        child: str,
        parent: str,
        delta_fingerprint: str | None,
        distance: int,
    ) -> None:
        """Journaled lineage link + manifest rewrite (idempotent)."""
        link = (parent, delta_fingerprint, distance)
        with self._lock:
            if self._lineage.get(child) == link:
                return
        seq = self.journal.begin(
            OP_LINK,
            {
                "child": child,
                "parent": parent,
                "delta": delta_fingerprint,
                "distance": distance,
            },
        )
        with self._lock:
            self._lineage[child] = link
        self._write_manifest()
        self.journal.commit(seq, OP_LINK)
        self._maybe_compact()

    def drop_links(self, children: Collection[str]) -> int:
        """Journaled removal of links + chain files; returns links dropped."""
        with self._lock:
            doomed = [c for c in children if c in self._lineage]
            doomed_chains = [c for c in children if c in self._chains]
        if not doomed and not doomed_chains:
            return 0
        seq = self.journal.begin(
            OP_UNLINK, {"children": sorted(set(doomed) | set(doomed_chains))}
        )
        with self._lock:
            for child in doomed:
                del self._lineage[child]
            for child in doomed_chains:
                del self._chains[child]
        for child in doomed_chains:
            try:
                self.chain_path(child).unlink()
            except FileNotFoundError:
                pass
        self._write_manifest()
        self.journal.commit(seq, OP_UNLINK)
        self._maybe_compact()
        return len(doomed)

    def write_chain(self, record: ChainRecord) -> None:
        """Journaled, atomic write of one chain record file."""
        with self._lock:
            if self._chains.get(record.child) == record:
                return
        seq = self.journal.begin(OP_CHAIN, {"child": record.child})
        atomic_write_text(
            self.chain_path(record.child),
            chain_record_text(record),
            faults=self.faults,
            detail=f"chain {record.child[:12]}",
        )
        with self._lock:
            self._chains[record.child] = record
        self.journal.commit(seq, OP_CHAIN)
        self._maybe_compact()

    def restore_version(
        self, db: TransactionDatabase
    ) -> VersionedDatabase | None:
        """Rebuild ``db``'s version chain from recovered records."""
        with self._lock:
            if not self._chains:
                return None
            records = dict(self._chains)
        return restore_version(db, records)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def plan_gc(self, warehoused: Collection[str]) -> GCPlan:
        with self._lock:
            return plan_gc(dict(self._lineage), dict(self._chains), warehoused)

    def gc(
        self, warehoused: Collection[str], *, dry_run: bool = False
    ) -> GCReport:
        """One full GC pass (prune + compaction), journaled unless dry."""
        plan = self.plan_gc(warehoused)
        if dry_run or plan.is_empty:
            return GCReport(
                dropped_links=len(plan.dropped_links),
                collapsed_hops=plan.collapsed_hops,
                rewritten_chains=len(plan.record_rewrites),
                dropped_chain_files=sum(
                    1
                    for child in plan.dropped_links
                    if self.has_chain(child)
                ),
                dry_run=dry_run,
            )
        seq = self.journal.begin(
            OP_GC,
            {
                "drop": sorted(plan.dropped_links),
                "rewrite": {
                    child: [link[0], link[1], link[2]]
                    for child, link in sorted(plan.link_rewrites.items())
                },
            },
        )
        for child, record in sorted(plan.record_rewrites.items()):
            atomic_write_text(
                self.chain_path(child),
                chain_record_text(record),
                faults=self.faults,
                detail=f"gc chain {child[:12]}",
            )
        dropped_files = 0
        for child in plan.dropped_links:
            target = self.chain_path(child)
            if target.exists():
                target.unlink()
                dropped_files += 1
        with self._lock:
            for child in plan.dropped_links:
                self._lineage.pop(child, None)
                self._chains.pop(child, None)
            for child, link in plan.link_rewrites.items():
                self._lineage[child] = link
            for child, record in plan.record_rewrites.items():
                self._chains[child] = record
        self._write_manifest()
        self.journal.commit(seq, OP_GC)
        self._maybe_compact()
        return GCReport(
            dropped_links=len(plan.dropped_links),
            collapsed_hops=plan.collapsed_hops,
            rewritten_chains=len(plan.record_rewrites),
            dropped_chain_files=dropped_files,
            dry_run=False,
        )

    def _maybe_compact(self) -> None:
        """Best-effort journal truncation past the size bound.

        Housekeeping only — the committed mutation already landed, so a
        failure (real or injected) here must not fail the caller; it
        just leaves a longer journal for the next recovery to compact.
        """
        if self.journal.size_bytes() <= JOURNAL_COMPACT_BYTES:
            return
        try:
            self.journal.compact()
        except (OSError, InjectedFaultError):
            pass

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _write_manifest(self) -> None:
        with self._lock:
            lineage = {
                child: [link[0], link[1], link[2]]
                for child, link in sorted(self._lineage.items())
            }
        text = json.dumps(
            {"format": MANIFEST_FORMAT_VERSION, "lineage": lineage},
            sort_keys=True,
            indent=0,
        )
        atomic_write_text(
            self.manifest_path,
            text + "\n",
            faults=self.faults,
            write_point=PERSIST_MANIFEST,
            detail="manifest",
        )

    def footprint_bytes(self) -> int:
        """Total durable footprint: entries + chains + manifest + journal."""
        total = 0
        for path in self.directory.glob("*.patterns"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        if self.chains_dir.is_dir():
            for path in self.chains_dir.glob(f"*{CHAIN_SUFFIX}"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
        for path in (self.manifest_path, self.journal.path):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total
