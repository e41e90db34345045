"""The manifest delta log: replay, crash injection between every phase
(WAL commit → apply → checkpoint → compaction), legacy-snapshot
migration, and durability-policy × crash coverage."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptHeapError
from repro.store import open_store
from repro.store.commit import AsyncPolicy, GroupPolicy, PipelinedEngine
from repro.store.engine import FileEngine, WriteBatch
from repro.store.engine.filesystem import (
    _MANIFEST_NAME,
    _META_NAME,
    ManifestLog,
)
from repro.store.oids import Oid
from repro.store.wal import frame_payload, iter_frames

from tests.conftest import Person


def manifest_path(directory) -> str:
    return os.path.join(str(directory), _MANIFEST_NAME)


def crash(engine: FileEngine) -> None:
    """Abandon a file engine as a dying process would: drop the raw
    file handles directly, so nothing buffered — in particular the
    heap's dirty page cache, which ``HeapFile.close`` would flush —
    reaches disk.  Recovery must come from what was already durable."""
    engine.wal._file.close()
    engine.heap._file.close()
    engine.manifest._file.close()


def batch_for(oid: int, payload: bytes = b"x") -> WriteBatch:
    return WriteBatch().write(Oid(oid), payload)


class TestManifestLog:
    def test_append_load_roundtrip(self, tmp_path):
        log = ManifestLog(str(tmp_path / "m"))
        log.append({"kind": "base", "objects": {}})
        log.append({"kind": "delta", "set": {"1": [0, 0]}})
        log.sync()
        log.close()
        with ManifestLog(str(tmp_path / "m")) as reopened:
            kinds = [entry["kind"] for entry in reopened.load()]
        assert kinds == ["base", "delta"]

    def test_torn_tail_is_discarded_and_truncated(self, tmp_path):
        path = str(tmp_path / "m")
        log = ManifestLog(path)
        log.append({"kind": "delta", "set": {}})
        log.sync()
        log.close()
        good_size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(os.urandom(11))  # a torn frame
        with ManifestLog(path) as reopened:
            assert len(reopened.load()) == 1
            # The torn bytes are gone; new appends land on a clean frame.
            reopened.append({"kind": "delta", "set": {"2": [0, 1]}})
            reopened.sync()
        assert os.path.getsize(path) > good_size
        with ManifestLog(path) as again:
            assert len(again.load()) == 2

    def test_rewrite_replaces_atomically(self, tmp_path):
        log = ManifestLog(str(tmp_path / "m"))
        for index in range(5):
            log.append({"kind": "delta", "set": {str(index): [0, index]}})
        log.rewrite({"kind": "base", "objects": {"compacted": [1, 2]}})
        entries = log.load()
        assert [entry["kind"] for entry in entries] == ["base"]
        log.close()


def closed_store(directory) -> str:
    """A cleanly closed one-object file store; returns its manifest."""
    with FileEngine(str(directory)) as engine:
        engine.apply(batch_for(1).set_roots({"r": Oid(1)})
                     .advance_next_oid(5))
    return manifest_path(directory)


def append_frames(path: str, *payloads: bytes) -> None:
    with open(path, "ab") as fh:
        for payload in payloads:
            fh.write(frame_payload(payload))


#: JSON values of every shape, for entries with the right kind but
#: arbitrary fields.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
json_entries = st.fixed_dictionaries(
    {"kind": st.sampled_from(["base", "delta", "other"])},
    optional={field: json_values
              for field in ("set", "del", "roots", "next_oid", "objects")},
).map(lambda entry: json.dumps(entry).encode("utf-8"))


class TestManifestDecoding:
    """A CRC-valid manifest frame is never a torn write: whatever it
    holds, opening the engine either succeeds or raises
    :class:`CorruptHeapError`."""

    @pytest.mark.parametrize("payload", [
        b"[]",
        b"7",
        b'{"kind":"delta"}',
        b'{"kind":"base","next_oid":"x"}',
    ])
    def test_malformed_entry_is_corruption(self, tmp_path, payload):
        path = closed_store(tmp_path / "s")
        append_frames(path, payload)
        with pytest.raises(CorruptHeapError, match="malformed"):
            FileEngine(str(tmp_path / "s"))

    def test_failed_open_closes_its_files(self, tmp_path, monkeypatch):
        from repro.store.heap import HeapFile
        from repro.store.wal import WriteAheadLog

        closed = []
        for cls in (HeapFile, WriteAheadLog, ManifestLog):
            def spy(self, _close=cls.close, _name=cls.__name__):
                closed.append(_name)
                _close(self)
            monkeypatch.setattr(cls, "close", spy)
        append_frames(closed_store(tmp_path / "s"), b"7")
        closed.clear()
        with pytest.raises(CorruptHeapError):
            FileEngine(str(tmp_path / "s"))
        assert sorted(closed) == ["HeapFile", "ManifestLog", "WriteAheadLog"]

    def test_non_json_frame_is_corruption_not_a_torn_tail(self, tmp_path):
        path = closed_store(tmp_path / "s")
        later = {"kind": "delta", "set": {}, "del": [],
                 "roots": {"r": 7}, "next_oid": 99}
        append_frames(path, b"\xffnot json",
                      json.dumps(later).encode("utf-8"))
        size = os.path.getsize(path)
        with pytest.raises(CorruptHeapError, match="not JSON"):
            FileEngine(str(tmp_path / "s"))
        # Nothing was truncated: the later valid delta is still there.
        assert os.path.getsize(path) == size

    def test_zero_filled_tail_is_torn_and_rebuilt_from_the_wal(
            self, tmp_path):
        """A crash can leave the manifest extended with zero-filled
        blocks (deltas are appended without an fsync).  Those read as
        empty CRC-valid frames; they are a torn tail, truncated on open,
        and the WAL rebuilds the batch whose delta they replaced."""
        directory = tmp_path / "s"
        path = closed_store(directory)
        engine = FileEngine(str(directory))
        engine.log_batch(batch_for(2, b"new").set_roots({"r": Oid(2)})
                         .advance_next_oid(9))
        crash(engine)
        with open(path, "ab") as fh:
            fh.write(b"\0" * 16)
        with FileEngine(str(directory)) as reopened:
            assert reopened.read(Oid(1)) == b"x"
            assert reopened.read(Oid(2)) == b"new"
            assert reopened.roots() == {"r": Oid(2)}
            assert reopened.next_oid == 9
        # The zeros are gone: the file is whole frames end to end.
        with open(path, "rb") as fh:
            data = fh.read()
        assert [end for end, _ in iter_frames(data)][-1] == len(data)

    @given(st.binary())
    def test_iter_frames_never_raises(self, data):
        ends = [end for end, _ in iter_frames(data)]
        assert ends == sorted(ends)
        assert all(0 < end <= len(data) for end in ends)

    @settings(max_examples=60, deadline=None)
    @given(st.binary() | json_entries)
    def test_arbitrary_valid_frame_opens_or_is_corruption(self, payload):
        with tempfile.TemporaryDirectory() as directory:
            append_frames(closed_store(directory), payload)
            try:
                engine = FileEngine(directory)
            except CorruptHeapError:
                return
            engine.close()


class TestCrashBetweenPhases:
    """One committed batch, killed at every point of the apply path:
    recovery must expose the whole batch (it was WAL-committed) and
    exactly once."""

    def populate(self, directory) -> FileEngine:
        engine = FileEngine(str(directory))
        engine.apply(WriteBatch().write(Oid(1), b"old-1")
                     .write(Oid(2), b"old-2")
                     .set_roots({"r": Oid(1)}).advance_next_oid(10))
        return engine

    def check_recovered(self, directory, expect_new: bool) -> None:
        with FileEngine(str(directory)) as recovered:
            if expect_new:
                assert recovered.read(Oid(1)) == b"new-1"
                assert recovered.read(Oid(3)) == b"new-3"
                assert recovered.next_oid == 20
            else:
                assert recovered.read(Oid(1)) == b"old-1"
                assert not recovered.contains(Oid(3))
                assert recovered.next_oid == 10
            assert recovered.read(Oid(2)) == b"old-2"
            assert recovered.roots() == {"r": Oid(1)}
            # Exactly once: no duplicate table entries, no residue.
            assert recovered.object_count == (3 if expect_new else 2)

    def next_batch(self) -> WriteBatch:
        return (WriteBatch().write(Oid(1), b"new-1")
                .write(Oid(3), b"new-3").advance_next_oid(20))

    def test_crash_before_wal_commit_loses_nothing_new(self, tmp_path):
        engine = self.populate(tmp_path / "s")
        # The batch never reaches log_batch: nothing to replay.
        crash(engine)
        self.check_recovered(tmp_path / "s", expect_new=False)

    def test_crash_after_wal_commit_before_apply(self, tmp_path):
        engine = self.populate(tmp_path / "s")
        engine.log_batch(self.next_batch())
        crash(engine)  # heap and manifest never saw the batch
        self.check_recovered(tmp_path / "s", expect_new=True)

    def test_crash_after_apply_with_unfsynced_delta_lost(self, tmp_path):
        """The manifest delta is buffered, not fsynced, at apply time;
        losing it to the crash must not lose the batch — the WAL still
        holds it."""
        engine = self.populate(tmp_path / "s")
        size_before = os.path.getsize(manifest_path(tmp_path / "s"))
        engine.apply(self.next_batch())
        crash(engine)
        # Simulate the unfsynced delta never reaching disk.
        with open(manifest_path(tmp_path / "s"), "ab") as fh:
            fh.truncate(size_before)
        self.check_recovered(tmp_path / "s", expect_new=True)

    def test_crash_after_apply_with_delta_on_disk(self, tmp_path):
        """Crash inside the checkpoint, after the manifest fsync but
        before the WAL truncate: the batch is in both — replay must be
        idempotent."""
        engine = self.populate(tmp_path / "s")
        engine.apply(self.next_batch())
        engine.heap.flush()
        engine.manifest.sync()
        crash(engine)  # WAL still holds the batch
        self.check_recovered(tmp_path / "s", expect_new=True)

    def test_crash_after_full_checkpoint(self, tmp_path):
        engine = self.populate(tmp_path / "s")
        engine.apply(self.next_batch())
        engine._checkpoint()
        crash(engine)
        self.check_recovered(tmp_path / "s", expect_new=True)

    def test_crash_between_compaction_tmp_and_replace(self, tmp_path):
        """Compaction writes store.manifest.tmp then renames; dying in
        between leaves the tmp file, which the next open ignores."""
        engine = self.populate(tmp_path / "s")
        engine.apply(self.next_batch())
        engine._checkpoint()
        with open(manifest_path(tmp_path / "s") + ".tmp", "wb") as fh:
            fh.write(b"half-written base entry")
        crash(engine)
        self.check_recovered(tmp_path / "s", expect_new=True)

    def test_crash_after_compaction_replace(self, tmp_path):
        engine = self.populate(tmp_path / "s")
        engine.apply(self.next_batch())
        engine._checkpoint()
        engine.compact_manifest()
        crash(engine)
        with ManifestLog(manifest_path(tmp_path / "s")) as manifest:
            assert [e["kind"] for e in manifest.load()] == ["base"]
        self.check_recovered(tmp_path / "s", expect_new=True)


class TestCheckpointPolicy:
    def test_wal_threshold_triggers_checkpoint(self, tmp_path):
        engine = FileEngine(str(tmp_path / "s"), checkpoint_wal_bytes=1)
        engine.apply(batch_for(1))
        # Every apply crosses the 1-byte threshold: the WAL is truncated
        # and the manifest delta fsynced each time.
        assert engine.wal.size() == 0
        engine.close()

    def test_wal_below_threshold_defers_checkpoint(self, tmp_path):
        engine = FileEngine(str(tmp_path / "s"),
                            checkpoint_wal_bytes=1 << 30)
        for oid in range(1, 6):
            engine.apply(batch_for(oid))
        assert engine.wal.size() > 0  # five batches still in the log
        engine.close()  # close checkpoints
        with FileEngine(str(tmp_path / "s")) as reopened:
            assert reopened.wal.size() == 0
            assert reopened.object_count == 5

    def test_compaction_threshold_folds_deltas(self, tmp_path):
        engine = FileEngine(str(tmp_path / "s"), checkpoint_wal_bytes=1,
                            manifest_compact_deltas=4)
        for oid in range(1, 10):
            engine.apply(batch_for(oid))
        engine.close()
        with ManifestLog(manifest_path(tmp_path / "s")) as manifest:
            kinds = [entry["kind"] for entry in manifest.load()]
        # Compacted at least once: a base leads, few deltas trail.
        assert kinds[0] == "base"
        assert kinds.count("delta") < 9
        with FileEngine(str(tmp_path / "s")) as reopened:
            assert reopened.object_count == 9

    def test_bad_thresholds_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_wal_bytes"):
            FileEngine(str(tmp_path / "a"), checkpoint_wal_bytes=0)
        with pytest.raises(ValueError, match="manifest_compact_deltas"):
            FileEngine(str(tmp_path / "b"), manifest_compact_deltas=0)


class TestReplayEquivalence:
    """The same batch sequence through aggressive checkpoint/compaction
    and through none at all must converge to identical visible state —
    and to the same state the legacy full-snapshot format reloads."""

    def run_workload(self, engine: FileEngine) -> None:
        engine.apply(WriteBatch().write(Oid(1), b"a").write(Oid(2), b"b")
                     .set_roots({"r": Oid(1)}).advance_next_oid(10))
        engine.apply(WriteBatch().write(Oid(1), b"a2").delete(Oid(2)))
        engine.apply(WriteBatch().write(Oid(3), b"c")
                     .set_roots({"r": Oid(1), "s": Oid(3)})
                     .advance_next_oid(20))

    def state_of(self, directory) -> tuple:
        with FileEngine(str(directory)) as engine:
            return (
                {int(oid): engine.read(oid) for oid in engine.oids()},
                {name: int(oid) for name, oid in engine.roots().items()},
                engine.next_oid,
            )

    def test_checkpoint_paths_agree(self, tmp_path):
        eager = FileEngine(str(tmp_path / "eager"), checkpoint_wal_bytes=1,
                           manifest_compact_deltas=1)
        lazy = FileEngine(str(tmp_path / "lazy"),
                          checkpoint_wal_bytes=1 << 30)
        self.run_workload(eager)
        self.run_workload(lazy)
        eager.close()
        crash(lazy)  # lazy path additionally recovers through the WAL
        assert self.state_of(tmp_path / "eager") \
            == self.state_of(tmp_path / "lazy")

    def test_legacy_snapshot_migrates_to_manifest(self, tmp_path):
        """A format-2 ``store.meta`` snapshot (the pre-manifest layout)
        loads identically, is re-homed as the manifest base, and the
        legacy file is removed."""
        directory = tmp_path / "s"
        engine = FileEngine(str(directory))
        self.run_workload(engine)
        engine.compact_manifest()
        engine.close()
        reference = self.state_of(directory)
        # Rewrite the metadata in the legacy format from the manifest
        # base, then delete the manifest: this is a pre-upgrade store.
        with ManifestLog(manifest_path(directory)) as manifest:
            base = manifest.load()[0]
        legacy = {
            "format": 2,
            "next_oid": base["next_oid"],
            "roots": base["roots"],
            "objects": base["objects"],
        }
        meta_path = os.path.join(str(directory), _META_NAME)
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(legacy, fh)
        os.remove(manifest_path(directory))
        assert self.state_of(directory) == reference
        assert not os.path.exists(meta_path)  # migrated away
        with ManifestLog(manifest_path(directory)) as manifest:
            assert manifest.load()[0]["kind"] == "base"

    def test_format1_signatures_ignored(self, tmp_path):
        directory = tmp_path / "s"
        engine = FileEngine(str(directory))
        engine.apply(batch_for(1, b"one"))
        engine.compact_manifest()
        engine.close()
        with ManifestLog(manifest_path(directory)) as manifest:
            base = manifest.load()[0]
        legacy = {
            "format": 1,
            "next_oid": base["next_oid"],
            "roots": base["roots"],
            "objects": base["objects"],
            "signatures": {"1": [3, 12345]},
        }
        with open(os.path.join(str(directory), _META_NAME), "w",
                  encoding="utf-8") as fh:
            json.dump(legacy, fh)
        os.remove(manifest_path(directory))
        with FileEngine(str(directory)) as engine:
            assert engine.read(Oid(1)) == b"one"

    def test_migration_crash_leaves_both_files_consistent(self, tmp_path):
        """Crash between writing the manifest base and removing
        store.meta: both exist with the same content, manifest wins."""
        directory = tmp_path / "s"
        engine = FileEngine(str(directory))
        engine.apply(batch_for(1, b"one"))
        engine.compact_manifest()
        engine.close()
        with ManifestLog(manifest_path(directory)) as manifest:
            base = manifest.load()[0]
        legacy = {"format": 2, "next_oid": base["next_oid"],
                  "roots": base["roots"], "objects": base["objects"]}
        with open(os.path.join(str(directory), _META_NAME), "w",
                  encoding="utf-8") as fh:
            json.dump(legacy, fh)
        # Both store.meta and store.manifest now exist.
        with FileEngine(str(directory)) as engine:
            assert engine.read(Oid(1)) == b"one"


class TestPolicyCrashMatrix:
    """Every durability policy × a crash right after its acknowledgement
    point: an acknowledged commit (a resolved future) is never lost."""

    @pytest.mark.parametrize("policy_name", ["sync", "group", "async"])
    def test_acknowledged_commits_survive(self, tmp_path, policy_name):
        directory = str(tmp_path / "s")
        child = FileEngine(directory)
        if policy_name == "sync":
            engine: FileEngine = child
            engine.apply(batch_for(1, b"acked"))
            crash(engine)
        else:
            policy = (GroupPolicy() if policy_name == "group"
                      else AsyncPolicy())
            wrapped = PipelinedEngine(child, policy)
            ticket = wrapped.apply_async(batch_for(1, b"acked"))
            ticket.result(timeout=10.0)  # the acknowledgement point
            crash(child)  # die without closing the pipeline
        with FileEngine(directory) as recovered:
            assert recovered.read(Oid(1)) == b"acked"

    @pytest.mark.parametrize("policy_name", ["group", "async"])
    def test_unacknowledged_batches_may_only_lose_a_suffix(
            self, tmp_path, policy_name):
        """Recovery yields a *prefix* of submissions: batches are
        committed in order, so whatever survives is a clean prefix."""
        directory = str(tmp_path / "s")
        child = FileEngine(directory)
        policy = (GroupPolicy() if policy_name == "group"
                  else AsyncPolicy())
        wrapped = PipelinedEngine(child, policy)
        tickets = [wrapped.apply_async(batch_for(oid, b"p"))
                   for oid in range(1, 31)]
        crash(child)  # no flush, no close
        acked = {index + 1 for index, ticket in enumerate(tickets)
                 if ticket.done and ticket.exception() is None}
        with FileEngine(directory) as recovered:
            present = {int(oid) for oid in recovered.oids()}
        # Every acknowledged batch survived...
        assert acked <= present
        # ...and the survivors form a prefix of the submission order.
        assert present == set(range(1, len(present) + 1))

    def test_store_over_group_policy_recovers_after_crash(self, tmp_path,
                                                          registry):
        directory = str(tmp_path / "s")
        url = f"file:{directory}?durability=group"
        store = open_store(url, registry=registry)
        store.set_root("people", [Person(f"p{i}") for i in range(12)])
        store.stabilize()
        crash(store.engine.child)  # die mid-session, pipeline unflushed
        with open_store(url, registry=registry) as recovered:
            assert len(recovered.get_root("people")) == 12
            assert recovered.verify_referential_integrity() == []
