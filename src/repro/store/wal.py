"""Write-ahead log.

Durability for :class:`~repro.store.objectstore.ObjectStore` follows the
classic checkpoint + log discipline:

* the durable state is the heap file plus a metadata snapshot (roots,
  OID allocator cursor, object table);
* every :meth:`stabilise <repro.store.objectstore.ObjectStore.stabilize>`
  first appends the batch of object writes to the log and *commits* it
  (fsync), then applies the batch to the heap and atomically replaces the
  metadata snapshot, then truncates the log;
* recovery replays committed log batches over the snapshot, so a crash at
  any point yields either the old or the new state, never a mixture.

Each log entry is framed as ``u32 length | u32 crc32 | payload`` and the
payload starts with a one-byte entry type.  A torn tail (bad length or CRC,
or an empty frame) ends replay — exactly the entries up to the last fsynced commit survive.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator

from repro.errors import CorruptHeapError
from repro.store.obs.trace import span as trace_span
from repro.store.oids import Oid

ENTRY_BEGIN = b"B"
ENTRY_WRITE = b"W"
ENTRY_DELETE = b"D"
ENTRY_ROOT = b"R"
ENTRY_UNROOT = b"U"
ENTRY_NEXT_OID = b"N"
ENTRY_COMMIT = b"C"

_FRAME = struct.Struct("<II")


def frame_payload(payload: bytes) -> bytes:
    """One CRC frame: ``u32 length | u32 crc32 | payload``.

    Shared by the WAL and the file engine's manifest log, so the two
    append-only logs cannot drift apart in format handling.
    """
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def iter_frames(data: bytes) -> Iterator[tuple[int, bytes]]:
    """Yield ``(end_offset, payload)`` for every complete, CRC-valid
    frame; a torn tail (short frame, bad CRC or empty frame) ends
    iteration — the caller's last ``end_offset`` is the clean
    truncation point.

    An empty frame is torn, not data: neither log writes an empty
    payload, and a crash can leave a file extended with zero-filled
    blocks, which read as empty frames whose CRC (``crc32(b"") == 0``)
    checks out.
    """
    pos = 0
    while pos + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, pos)
        start = pos + _FRAME.size
        end = start + length
        if length == 0 or end > len(data):
            return
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return
        yield end, payload
        pos = end


@dataclass
class LogEntry:
    """One decoded log entry."""

    kind: bytes
    txn_id: int
    oid: Oid = Oid(0)
    data: bytes = b""
    name: str = ""

    def encode(self) -> bytes:
        buf = bytearray()
        buf.extend(self.kind)
        buf.extend(struct.pack("<Q", self.txn_id))
        if self.kind in (ENTRY_WRITE, ENTRY_DELETE, ENTRY_NEXT_OID):
            buf.extend(struct.pack("<Q", self.oid))
            buf.extend(self.data)
        elif self.kind in (ENTRY_ROOT, ENTRY_UNROOT):
            raw_name = self.name.encode("utf-8")
            buf.extend(struct.pack("<QI", self.oid, len(raw_name)))
            buf.extend(raw_name)
        return bytes(buf)

    @classmethod
    def decode(cls, payload: bytes) -> "LogEntry":
        """Decode one entry; an unknown kind or a root name running past
        the payload raises :class:`CorruptHeapError` (short fixed fields
        raise ``struct.error``, which the log reader reports the same
        way)."""
        kind = payload[0:1]
        txn_id = struct.unpack_from("<Q", payload, 1)[0]
        pos = 9
        if kind in (ENTRY_WRITE, ENTRY_DELETE, ENTRY_NEXT_OID):
            oid = struct.unpack_from("<Q", payload, pos)[0]
            return cls(kind, txn_id, Oid(oid), payload[pos + 8:])
        if kind in (ENTRY_ROOT, ENTRY_UNROOT):
            oid, name_len = struct.unpack_from("<QI", payload, pos)
            end = pos + 12 + name_len
            if end > len(payload):
                raise CorruptHeapError(
                    f"root name of {name_len} bytes overruns its "
                    f"{len(payload)}-byte log entry")
            name = payload[pos + 12:end].decode("utf-8")
            return cls(kind, txn_id, Oid(oid), b"", name)
        if kind in (ENTRY_BEGIN, ENTRY_COMMIT):
            return cls(kind, txn_id)
        raise CorruptHeapError(f"unknown log entry kind {kind!r}")


class WriteAheadLog:
    """Append-only, CRC-framed log with batch commit."""

    def __init__(self, path: str):
        self._path = path
        self._file = open(path, "ab+")
        # Native telemetry, surfaced as pull gauges by
        # repro.store.obs.bind_engine_metrics.
        self.fsyncs = 0
        self.synced_bytes = 0
        self._unsynced_bytes = 0

    @property
    def path(self) -> str:
        return self._path

    def size(self) -> int:
        self._file.seek(0, os.SEEK_END)
        return self._file.tell()

    # -- writing ----------------------------------------------------------

    def append(self, entry: LogEntry) -> None:
        frame = frame_payload(entry.encode())
        self._file.write(frame)
        self._unsynced_bytes += len(frame)

    def commit(self, txn_id: int, sync: bool = True) -> None:
        """Append a commit marker and (by default) force it to disk.

        Group commit passes ``sync=False`` for every batch but the
        last, then issues one :meth:`sync` for the whole group — the
        markers are only acknowledged once that fsync returns.
        """
        self.append(LogEntry(ENTRY_COMMIT, txn_id))
        if sync:
            self.sync()

    def sync(self) -> None:
        # The durability point of every commit: a leaf span when the
        # surrounding work is being traced, free otherwise.
        with trace_span("wal.fsync"):
            self._file.flush()
            os.fsync(self._file.fileno())
        self.fsyncs += 1
        self.synced_bytes += self._unsynced_bytes
        self._unsynced_bytes = 0

    def truncate(self) -> None:
        """Discard the log after a successful checkpoint."""
        self._file.seek(0)
        self._file.truncate()
        self._unsynced_bytes = 0
        self.sync()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    # -- replay -----------------------------------------------------------

    def _iter_raw(self) -> Iterator[LogEntry]:
        self._file.seek(0)
        data = self._file.read()
        pos = 0
        for end, payload in iter_frames(data):
            try:
                yield LogEntry.decode(payload)
            except (CorruptHeapError, struct.error, IndexError,
                    UnicodeDecodeError) as exc:
                raise CorruptHeapError(
                    f"undecodable log entry at offset {pos}: {exc}"
                ) from exc
            pos = end

    def committed_batches(self) -> list[list[LogEntry]]:
        """Entries of every committed batch, in commit order.

        Entries of a batch that never reached its commit marker are
        discarded, which is the atomicity guarantee.
        """
        batches: dict[int, list[LogEntry]] = {}
        committed: list[list[LogEntry]] = []
        for entry in self._iter_raw():
            if entry.kind == ENTRY_BEGIN:
                batches[entry.txn_id] = []
            elif entry.kind == ENTRY_COMMIT:
                if entry.txn_id in batches:
                    committed.append(batches.pop(entry.txn_id))
            else:
                batches.setdefault(entry.txn_id, []).append(entry)
        return committed

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
