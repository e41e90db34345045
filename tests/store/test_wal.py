"""Write-ahead log: framing, commit atomicity, torn-tail tolerance."""

import os
import struct
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptHeapError
from repro.store.engine import FileEngine
from repro.store.oids import Oid
from repro.store.wal import (
    ENTRY_BEGIN,
    ENTRY_COMMIT,
    ENTRY_DELETE,
    ENTRY_NEXT_OID,
    ENTRY_ROOT,
    ENTRY_UNROOT,
    ENTRY_WRITE,
    LogEntry,
    WriteAheadLog,
    frame_payload,
)


@pytest.fixture
def wal(tmp_path):
    with WriteAheadLog(str(tmp_path / "test.wal")) as log:
        yield log


class TestEntryCodec:
    def test_write_entry_roundtrip(self):
        entry = LogEntry(ENTRY_WRITE, 7, Oid(3), b"payload")
        back = LogEntry.decode(entry.encode())
        assert (back.kind, back.txn_id, back.oid, back.data) == \
            (ENTRY_WRITE, 7, 3, b"payload")

    def test_root_entry_roundtrip(self):
        entry = LogEntry(ENTRY_ROOT, 1, Oid(9), b"", "my root ⟦")
        back = LogEntry.decode(entry.encode())
        assert back.name == "my root ⟦" and back.oid == 9

    def test_unroot_entry_roundtrip(self):
        entry = LogEntry(ENTRY_UNROOT, 2, Oid(0), b"", "gone")
        back = LogEntry.decode(entry.encode())
        assert back.kind == ENTRY_UNROOT and back.name == "gone"

    def test_bare_entries(self):
        for kind in (ENTRY_BEGIN, ENTRY_COMMIT):
            back = LogEntry.decode(LogEntry(kind, 5).encode())
            assert back.kind == kind and back.txn_id == 5


class TestEntryDecoding:
    """A CRC-valid frame whose entry does not decode is corruption, not
    an entry for replay to skip or cut short."""

    def test_unknown_kind_rejected(self):
        with pytest.raises(CorruptHeapError, match="unknown log entry kind"):
            LogEntry.decode(b"Z" + bytes(8))

    def test_root_name_overrunning_the_entry_rejected(self):
        payload = (ENTRY_ROOT + struct.pack("<QQI", 1, 2, 10) + b"short")
        with pytest.raises(CorruptHeapError, match="overruns"):
            LogEntry.decode(payload)

    @pytest.mark.parametrize("payload", [
        b"Z" + bytes(8),
        ENTRY_UNROOT + struct.pack("<QQI", 1, 0, 1),
        ENTRY_ROOT + struct.pack("<QQI", 1, 2, 1) + b"\xff",
        ENTRY_WRITE + bytes(8),
        b"",
    ])
    def test_reader_reports_corruption(self, tmp_path, payload):
        path = str(tmp_path / "bad.wal")
        with open(path, "wb") as fh:
            fh.write(frame_payload(payload))
        with WriteAheadLog(path) as log:
            if payload:
                with pytest.raises(CorruptHeapError, match="offset 0"):
                    log.committed_batches()
            else:
                assert log.committed_batches() == []  # empty frame: torn

    @staticmethod
    def open_with_wal(*payloads: bytes) -> None:
        """Open a file engine whose WAL holds ``payloads``' frames: it
        either opens or raises :class:`CorruptHeapError`."""
        with tempfile.TemporaryDirectory() as directory:
            FileEngine(directory).close()
            with open(os.path.join(directory, "store.wal"), "ab") as fh:
                for payload in payloads:
                    fh.write(frame_payload(payload))
            try:
                engine = FileEngine(directory)
            except CorruptHeapError:
                return
            engine.close()

    @settings(max_examples=80, deadline=None)
    @given(st.binary())
    def test_arbitrary_valid_frame_opens_or_is_corruption(self, payload):
        self.open_with_wal(payload)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([ENTRY_WRITE, ENTRY_DELETE, ENTRY_ROOT,
                            ENTRY_UNROOT, ENTRY_NEXT_OID]),
           st.binary(min_size=8))
    def test_arbitrary_committed_entry_replays_or_is_corruption(
            self, kind, body):
        # The same frame inside a committed batch of its own txn id, so
        # replay applies whatever it decodes to.
        txn = struct.unpack_from("<Q", body)[0]
        self.open_with_wal(LogEntry(ENTRY_BEGIN, txn).encode(), kind + body,
                           LogEntry(ENTRY_COMMIT, txn).encode())


class TestCommitAtomicity:
    def test_committed_batch_returned(self, wal):
        wal.append(LogEntry(ENTRY_BEGIN, 1))
        wal.append(LogEntry(ENTRY_WRITE, 1, Oid(1), b"a"))
        wal.commit(1)
        batches = wal.committed_batches()
        assert len(batches) == 1
        assert batches[0][0].data == b"a"

    def test_uncommitted_batch_discarded(self, wal):
        wal.append(LogEntry(ENTRY_BEGIN, 1))
        wal.append(LogEntry(ENTRY_WRITE, 1, Oid(1), b"a"))
        wal.sync()
        assert wal.committed_batches() == []

    def test_batches_in_commit_order(self, wal):
        wal.append(LogEntry(ENTRY_BEGIN, 1))
        wal.append(LogEntry(ENTRY_WRITE, 1, Oid(1), b"first"))
        wal.append(LogEntry(ENTRY_BEGIN, 2))
        wal.append(LogEntry(ENTRY_WRITE, 2, Oid(2), b"second"))
        wal.commit(2)
        wal.commit(1)
        batches = wal.committed_batches()
        assert [batch[0].data for batch in batches] == [b"second", b"first"]

    def test_truncate_clears_log(self, wal):
        wal.append(LogEntry(ENTRY_BEGIN, 1))
        wal.commit(1)
        wal.truncate()
        assert wal.committed_batches() == []
        assert wal.size() == 0

    def test_mixed_entry_kinds_in_batch(self, wal):
        wal.append(LogEntry(ENTRY_BEGIN, 3))
        wal.append(LogEntry(ENTRY_WRITE, 3, Oid(1), b"w"))
        wal.append(LogEntry(ENTRY_DELETE, 3, Oid(2)))
        wal.append(LogEntry(ENTRY_ROOT, 3, Oid(1), b"", "r"))
        wal.append(LogEntry(ENTRY_NEXT_OID, 3, Oid(50)))
        wal.commit(3)
        kinds = [entry.kind for entry in wal.committed_batches()[0]]
        assert kinds == [ENTRY_WRITE, ENTRY_DELETE, ENTRY_ROOT,
                         ENTRY_NEXT_OID]


class TestTornTail:
    def _write_committed(self, path: str) -> None:
        with WriteAheadLog(path) as log:
            log.append(LogEntry(ENTRY_BEGIN, 1))
            log.append(LogEntry(ENTRY_WRITE, 1, Oid(1), b"safe"))
            log.commit(1)

    def test_truncated_tail_keeps_committed_prefix(self, tmp_path):
        path = str(tmp_path / "torn.wal")
        self._write_committed(path)
        with open(path, "ab") as fh:
            fh.write(b"\x50\x00\x00\x00")  # frame header promising 80 bytes
        with WriteAheadLog(path) as log:
            batches = log.committed_batches()
        assert len(batches) == 1
        assert batches[0][0].data == b"safe"

    def test_zero_filled_tail_ends_replay(self, tmp_path):
        # Zeros read as empty frames with a matching CRC; no entry is
        # empty, so they are a torn tail, not an undecodable entry.
        path = str(tmp_path / "zeros.wal")
        self._write_committed(path)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 16)
        with WriteAheadLog(path) as log:
            batches = log.committed_batches()
        assert len(batches) == 1
        assert batches[0][0].data == b"safe"

    def test_corrupt_crc_ends_replay(self, tmp_path):
        path = str(tmp_path / "crc.wal")
        self._write_committed(path)
        size = os.path.getsize(path)
        self._write_committed_second(path)
        # Flip a byte inside the second batch's frames.
        with open(path, "r+b") as fh:
            fh.seek(size + 12)
            byte = fh.read(1)
            fh.seek(size + 12)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with WriteAheadLog(path) as log:
            batches = log.committed_batches()
        assert len(batches) == 1  # only the first batch survives

    def _write_committed_second(self, path: str) -> None:
        with WriteAheadLog(path) as log:
            log.append(LogEntry(ENTRY_BEGIN, 2))
            log.append(LogEntry(ENTRY_WRITE, 2, Oid(2), b"doomed"))
            log.commit(2)

    def test_empty_log_has_no_batches(self, wal):
        assert wal.committed_batches() == []
