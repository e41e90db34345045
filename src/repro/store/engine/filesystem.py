"""The durable file backend: slotted-page heap + WAL + manifest log.

This is the layout the seed built directly into ``ObjectStore``, extracted
behind :class:`~repro.store.engine.base.StorageEngine`.  A store directory
holds three files:

* ``store.heap`` — record bytes in slotted pages
  (:class:`~repro.store.heap.HeapFile`);
* ``store.wal`` — the write-ahead log
  (:class:`~repro.store.wal.WriteAheadLog`);
* ``store.manifest`` — an append-only **manifest log** of metadata: one
  optional *base* entry (a full snapshot of the object table, root
  table and allocator cursor) followed by one *delta* entry per applied
  batch.  Replacing the seed's atomically-rewritten full JSON snapshot,
  a delta costs O(batch) bytes instead of O(stored objects) per commit.

:meth:`FileEngine.apply` commits with a **single fsync**: append the
batch to the WAL and commit it (the fsync — this is the durability
point), apply it to the heap's buffered pages, and append a manifest
delta *without* syncing.  A **checkpoint** — flush+fsync the heap,
fsync the manifest, truncate the WAL — runs only when the WAL outgrows
``checkpoint_wal_bytes`` (and on ``close``), amortising the remaining
fsyncs over many batches.  Once the manifest accumulates
``manifest_compact_deltas`` deltas it is compacted: atomically rewritten
as one fresh base entry.

Opening the engine replays the manifest (base, then deltas; a torn tail
is discarded) and then replays committed WAL batches over it, so a crash
at any point yields either the old state or the new state, never a
mixture: every delta past the last checkpoint has its batch still in the
WAL, and replay rebuilds heap records whose pages never reached disk.

:meth:`FileEngine.apply_many` is the group-commit hook: it appends every
batch in the group to the WAL and fsyncs *once*, which is what the
commit pipeline (``durability=group``) uses to make N concurrent commits
cost one fsync.

Format-1/2 snapshots (``store.meta``) from earlier versions are
migrated on open: loaded, written out as a manifest base entry, and the
legacy file removed.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Optional

from repro.errors import CorruptHeapError, UnknownOidError
from repro.store.engine.base import StorageEngine, WriteBatch
from repro.store.heap import DEFAULT_CACHE_PAGES, HeapFile, RecordId
from repro.store.obs.trace import span as trace_span
from repro.store.oids import FIRST_OID, NULL_OID, Oid
from repro.store.serve.locks import ReadWriteLock
from repro.store.wal import (
    ENTRY_BEGIN,
    ENTRY_DELETE,
    ENTRY_NEXT_OID,
    ENTRY_ROOT,
    ENTRY_UNROOT,
    ENTRY_WRITE,
    LogEntry,
    WriteAheadLog,
    frame_payload,
    iter_frames,
)

_HEAP_NAME = "store.heap"
_WAL_NAME = "store.wal"
_MANIFEST_NAME = "store.manifest"
#: Legacy full-snapshot file (formats 1 and 2), migrated on open.
_META_NAME = "store.meta"

#: Manifest format written by this engine.  Format 1 (the seed) was a
#: full JSON snapshot with a per-record signature table; format 2
#: dropped the signatures; format 3 is the append-only manifest log.
_MANIFEST_FORMAT = 3

#: Checkpoint (heap+manifest fsync, WAL truncate) once the WAL holds
#: this many bytes of committed-but-uncheckpointed batches.
DEFAULT_CHECKPOINT_WAL_BYTES = 256 * 1024

#: Compact the manifest back to a single base entry after this many
#: delta entries (bounds replay work on open).
DEFAULT_MANIFEST_COMPACT_DELTAS = 1024


def _json_int(value: object) -> int:
    """An integer field of a manifest entry (JSON floats, booleans and
    strings are corruption, not integers)."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _record_id(value: object) -> RecordId:
    page_no, slot = value
    return RecordId(_json_int(page_no), _json_int(slot))


def _encode_entry(entry: dict) -> bytes:
    payload = json.dumps(entry, separators=(",", ":")).encode("utf-8")
    return frame_payload(payload)


class ManifestLog:
    """Append-only, CRC-framed JSON log of metadata entries.

    Each entry is framed ``u32 length | u32 crc32 | payload`` (the same
    framing as the WAL, via :func:`repro.store.wal.frame_payload`); the
    payload is one JSON object with a ``"kind"`` of ``"base"`` (full
    snapshot) or ``"delta"`` (one batch's metadata changes).  A torn
    tail (short frame, bad CRC or empty frame) ends — and :meth:`load`
    truncates away — whatever a crash left half-written, so later
    appends start on a clean frame boundary.  A non-empty CRC-valid
    frame cannot be a torn write: if its payload does not decode, the
    log is corrupt.
    """

    def __init__(self, path: str):
        self._path = path
        self._file = open(path, "ab+")
        self.fsyncs = 0

    @property
    def path(self) -> str:
        return self._path

    def append(self, entry: dict) -> None:
        self._file.write(_encode_entry(entry))

    def sync(self) -> None:
        with trace_span("manifest.fsync"):
            self._file.flush()
            os.fsync(self._file.fileno())
        self.fsyncs += 1

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def load(self) -> list[dict]:
        """Decode every complete entry; truncate a torn tail.

        Raises :class:`CorruptHeapError` for a non-empty CRC-valid
        frame whose payload is not JSON, leaving the file untouched.
        """
        self._file.seek(0)
        data = self._file.read()
        entries: list[dict] = []
        pos = 0
        for end, payload in iter_frames(data):
            try:
                entry = json.loads(payload.decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                raise CorruptHeapError(
                    f"manifest {self._path} frame at offset {pos} passed "
                    f"its CRC but is not JSON: {exc}"
                ) from None
            entries.append(entry)
            pos = end
        if pos != len(data):
            self._file.seek(pos)
            self._file.truncate()
            self._file.flush()
        return entries

    def rewrite(self, entry: dict) -> None:
        """Atomically replace the whole log with one (base) entry."""
        tmp = self._path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(_encode_entry(entry))
            fh.flush()
            os.fsync(fh.fileno())
        self._file.close()
        os.replace(tmp, self._path)
        self._file = open(self._path, "ab+")

    def __enter__(self) -> "ManifestLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class FileEngine(StorageEngine):
    """Crash-safe storage in a directory of heap + WAL + manifest files."""

    name = "file"

    def __init__(self, directory: str, *,
                 checkpoint_wal_bytes: int = DEFAULT_CHECKPOINT_WAL_BYTES,
                 manifest_compact_deltas: int =
                 DEFAULT_MANIFEST_COMPACT_DELTAS,
                 heap_cache_pages: int = DEFAULT_CACHE_PAGES):
        super().__init__()
        if checkpoint_wal_bytes < 1:
            raise ValueError("checkpoint_wal_bytes must be >= 1, got "
                             f"{checkpoint_wal_bytes}")
        if manifest_compact_deltas < 1:
            raise ValueError("manifest_compact_deltas must be >= 1, got "
                             f"{manifest_compact_deltas}")
        self._directory = directory
        self._checkpoint_wal_bytes = checkpoint_wal_bytes
        self._manifest_compact_deltas = manifest_compact_deltas
        # Readers share this lock; applying a batch's in-memory effects
        # (object table + heap) takes the write side, so a concurrent
        # read observes a batch all-or-nothing and can never follow a
        # record id into a slot the same batch just tombstoned.
        self._state_lock = ReadWriteLock()
        os.makedirs(directory, exist_ok=True)
        self._heap = HeapFile(os.path.join(directory, _HEAP_NAME),
                              cache_pages=heap_cache_pages)
        self._wal = WriteAheadLog(os.path.join(directory, _WAL_NAME))
        self._manifest = ManifestLog(os.path.join(directory, _MANIFEST_NAME))
        self._table: dict[Oid, RecordId] = {}
        self._roots: dict[str, Oid] = {}
        self._next_oid = int(FIRST_OID)
        self._txn_counter = 0
        self._delta_count = 0
        self.checkpoints = 0
        self._dirty = False
        self._recovering = False
        try:
            self._load_metadata()
            self._recover()
        except BaseException:
            self._manifest.close()
            self._heap.close()
            self._wal.close()
            raise

    # -- lifecycle --------------------------------------------------------

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def heap(self) -> HeapFile:
        """The underlying heap file (statistics, tests, fault injection)."""
        return self._heap

    @property
    def wal(self) -> WriteAheadLog:
        """The underlying write-ahead log (tests, fault injection)."""
        return self._wal

    @property
    def manifest(self) -> ManifestLog:
        """The underlying manifest log (tests, fault injection)."""
        return self._manifest

    def close(self) -> None:
        if self._closed:
            return
        self._checkpoint()
        self._manifest.close()
        self._heap.close()
        self._wal.close()
        super().close()

    # -- manifest log -------------------------------------------------------

    def _base_entry(self) -> dict:
        return {
            "kind": "base",
            "format": _MANIFEST_FORMAT,
            "next_oid": self._next_oid,
            "roots": {name: int(oid) for name, oid in self._roots.items()},
            "objects": {str(int(oid)): [rid.page_no, rid.slot]
                        for oid, rid in self._table.items()},
        }

    def _append_delta(self, batch: WriteBatch) -> None:
        delta_set: dict[str, list[int]] = {}
        for oid, _ in batch.writes:
            rid = self._table.get(oid)
            if rid is not None:  # absent: also deleted in this batch
                delta_set[str(int(oid))] = [rid.page_no, rid.slot]
        entry = {
            "kind": "delta",
            "set": delta_set,
            "del": sorted({int(oid) for oid in batch.deletes}),
            "roots": None if batch.roots is None else
            {name: int(oid) for name, oid in batch.roots.items()},
            "next_oid": batch.next_oid,
        }
        self._manifest.append(entry)
        self._delta_count += 1

    def _load_base(self, entry: dict) -> None:
        self._next_oid = max(int(FIRST_OID), _json_int(entry["next_oid"]))
        self._roots = {name: Oid(_json_int(oid))
                       for name, oid in entry["roots"].items()}
        self._table = {Oid(int(oid)): _record_id(rid)
                       for oid, rid in entry["objects"].items()}

    def _load_delta(self, entry: dict) -> None:
        for oid, rid in entry["set"].items():
            self._table[Oid(int(oid))] = _record_id(rid)
        for oid in entry["del"]:
            self._table.pop(Oid(_json_int(oid)), None)
        if entry["roots"] is not None:
            self._roots = {name: Oid(_json_int(oid))
                           for name, oid in entry["roots"].items()}
        if entry["next_oid"] is not None:
            self._next_oid = max(self._next_oid,
                                 _json_int(entry["next_oid"]))

    def _load_metadata(self) -> None:
        entries = self._manifest.load()
        legacy = os.path.join(self._directory, _META_NAME)
        if not entries:
            if os.path.exists(legacy):
                self._migrate_legacy_snapshot(legacy)
            return
        if os.path.exists(legacy):
            # A crash between the migration's manifest sync and this
            # remove left the (now stale) snapshot behind; the manifest
            # is authoritative from here on.
            os.remove(legacy)
        for index, entry in enumerate(entries):
            try:
                kind = entry["kind"]
                if kind == "base":
                    self._load_base(entry)
                    self._delta_count = 0
                elif kind == "delta":
                    self._load_delta(entry)
                    self._delta_count += 1
                else:
                    raise ValueError(f"unknown entry kind {kind!r}")
            except (LookupError, TypeError, ValueError,
                    AttributeError) as exc:
                raise CorruptHeapError(
                    f"manifest {self._manifest.path} entry {index} is "
                    f"malformed: {exc!r}"
                ) from None

    def _migrate_legacy_snapshot(self, path: str) -> None:
        """Read a format-1/2 ``store.meta`` snapshot and re-home it as
        the manifest's base entry (the legacy file is then removed; a
        crash in between leaves both, and the manifest — same content —
        wins on the next open)."""
        with open(path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        self._next_oid = max(self._next_oid, int(meta["next_oid"]))
        self._roots = {name: Oid(oid) for name, oid in meta["roots"].items()}
        self._table = {Oid(int(oid)): RecordId(rid[0], rid[1])
                       for oid, rid in meta["objects"].items()}
        # Format-1 snapshots also carried "signatures"; the store layer
        # rebuilds those lazily now, so the key is simply ignored.
        self._manifest.append(self._base_entry())
        self._manifest.sync()
        os.remove(path)

    # -- recovery -----------------------------------------------------------

    def _recover(self) -> None:
        """Replay committed WAL batches over the manifest state."""
        batches = self._wal.committed_batches()
        if not batches:
            self._wal.truncate()
            return
        self._recovering = True
        try:
            for entries in batches:
                self._apply_committed(self._batch_from_entries(entries))
        finally:
            self._recovering = False
        self._checkpoint()

    def _batch_from_entries(self, entries: list[LogEntry]) -> WriteBatch:
        batch = WriteBatch()
        roots: Optional[dict[str, Oid]] = None
        for entry in entries:
            if entry.kind == ENTRY_WRITE:
                batch.write(entry.oid, entry.data)
            elif entry.kind == ENTRY_DELETE:
                batch.delete(entry.oid)
            elif entry.kind == ENTRY_ROOT:
                if roots is None:
                    roots = dict(self._roots)
                roots[entry.name] = entry.oid
            elif entry.kind == ENTRY_UNROOT:
                if roots is None:
                    roots = dict(self._roots)
                roots.pop(entry.name, None)
            elif entry.kind == ENTRY_NEXT_OID:
                batch.advance_next_oid(int(entry.oid))
        if roots is not None:
            batch.set_roots(roots)
        return batch

    # -- reads ----------------------------------------------------------

    def read(self, oid: Oid) -> bytes:
        self._check_open()
        with self._state_lock.read_locked():
            try:
                rid = self._table[oid]
            except KeyError:
                raise UnknownOidError(int(oid)) from None
            return self._heap.read(rid)

    def fetch_many(self, oids: Iterable[Oid]) -> dict[Oid, bytes]:
        self._check_open()
        found: dict[Oid, bytes] = {}
        with self._state_lock.read_locked():
            for oid in oids:
                rid = self._table.get(oid)
                if rid is not None:
                    found[oid] = self._heap.read(rid)
        return found

    def contains(self, oid: Oid) -> bool:
        return oid in self._table

    def oids(self) -> tuple[Oid, ...]:
        with self._state_lock.read_locked():
            return tuple(self._table)

    @property
    def object_count(self) -> int:
        return len(self._table)

    def roots(self) -> dict[str, Oid]:
        return dict(self._roots)

    @property
    def next_oid(self) -> int:
        return self._next_oid

    @property
    def page_count(self) -> int:
        return self._heap.page_count

    # -- writes ---------------------------------------------------------

    def apply(self, batch: WriteBatch) -> None:
        self._check_open()
        self._log_batch(batch, sync=True)
        self._apply_committed(batch)
        self.batches_applied += 1
        self._maybe_checkpoint()

    def apply_many(self, batches: Iterable[WriteBatch]) -> None:
        """The group-commit path: every batch is WAL-logged, then one
        fsync commits the whole group, then each batch is applied.

        Each batch keeps its own transaction frame in the log, so
        atomicity is still per batch — a crash mid-group replays the
        committed prefix."""
        self._check_open()
        batches = list(batches)
        if not batches:
            return
        try:
            for batch in batches:
                self._log_batch(batch, sync=False)
            self._wal.sync()
        except BaseException:
            # Half-logged group: checkpoint now, so the WAL keeps no
            # committed-but-never-applied frames for a crash replay to
            # resurrect (their submitters are getting an error, not an
            # acknowledgement).
            self._checkpoint()
            raise
        for batch in batches:
            self._apply_committed(batch)
            self.batches_applied += 1
        self._maybe_checkpoint()

    def log_batch(self, batch: WriteBatch) -> int:
        """The WAL half of :meth:`apply`: append the batch and commit it
        (fsync), *without* applying it to the heap or manifest.

        Exposed separately so crash recovery can be exercised: a process
        dying after ``log_batch`` but before the apply must find the
        batch replayed on the next open.  Returns the transaction id.
        """
        return self._log_batch(batch, sync=True)

    def _log_batch(self, batch: WriteBatch, sync: bool) -> int:
        self._check_open()
        self._txn_counter += 1
        txn = self._txn_counter
        self._wal.append(LogEntry(ENTRY_BEGIN, txn))
        for oid, raw in batch.writes:
            self._wal.append(LogEntry(ENTRY_WRITE, txn, oid, raw))
        for oid in batch.deletes:
            self._wal.append(LogEntry(ENTRY_DELETE, txn, oid))
        if batch.roots is not None:
            for name in self._roots:
                if name not in batch.roots:
                    self._wal.append(LogEntry(ENTRY_UNROOT, txn, NULL_OID,
                                              b"", name))
            for name, oid in batch.roots.items():
                self._wal.append(LogEntry(ENTRY_ROOT, txn, oid, b"", name))
        if batch.next_oid is not None:
            self._wal.append(LogEntry(ENTRY_NEXT_OID, txn,
                                      Oid(batch.next_oid)))
        self._wal.commit(txn, sync=sync)
        return txn

    def _apply_committed(self, batch: WriteBatch) -> None:
        # In-memory effects land atomically with respect to readers; the
        # manifest delta (writer-only state) is appended outside the
        # exclusive section so readers are not blocked on its file I/O.
        with self._state_lock.write_locked():
            for oid, raw in batch.writes:
                self._apply_write(oid, raw)
            for oid in batch.deletes:
                self._apply_delete(oid)
            if batch.roots is not None:
                self._roots = dict(batch.roots)
            if batch.next_oid is not None:
                self._next_oid = max(self._next_oid, batch.next_oid)
        self._append_delta(batch)
        self._dirty = True

    def _maybe_checkpoint(self) -> None:
        if self._wal.size() >= self._checkpoint_wal_bytes:
            self._checkpoint()

    def _checkpoint(self) -> None:
        """Make the heap and manifest independently durable, then drop
        the WAL: heap pages first, then the metadata that points into
        them, then the log whose replay would rebuild both."""
        if not self._dirty and self._wal.size() == 0:
            return
        self._heap.flush()
        self._manifest.sync()
        self._wal.truncate()
        self.checkpoints += 1
        self._dirty = False
        if self._delta_count >= self._manifest_compact_deltas:
            self.compact_manifest()

    def compact_manifest(self) -> None:
        """Rewrite the manifest as a single base entry (atomic replace);
        bounds the metadata replayed on the next open."""
        self._check_open()
        self._manifest.rewrite(self._base_entry())
        self._delta_count = 0

    def _apply_write(self, oid: Oid, record_bytes: bytes) -> None:
        old = self._table.pop(oid, None)
        if old is not None:
            self._drop_record(old)
        self._table[oid] = self._heap.insert(record_bytes)
        self.record_writes += 1

    def _apply_delete(self, oid: Oid) -> None:
        rid = self._table.pop(oid, None)
        if rid is not None:
            self._drop_record(rid)

    def _drop_record(self, rid: RecordId) -> None:
        try:
            self._heap.delete(rid)
        except CorruptHeapError:
            if not self._recovering:
                raise
            # WAL replay after a crash: the manifest delta that named
            # this record id was durable, but the heap pages it points
            # into never reached disk.  The record is being rebuilt
            # from the WAL right now, so the dangling id is expected.

    def compact(self) -> int:
        self._check_open()
        compacted = self._heap.compact_fragmented()
        if compacted:
            self._heap.flush()
        return compacted
