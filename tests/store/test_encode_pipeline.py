"""The stabilise encode phase: per-record encoding on the stabilising
thread, mid-encode failure atomicity, and codec round trips over every
backend.

The encode phase's contract is that it is *invisible* except in
speed: a stabilise that fails mid-encode leaves no partial bookkeeping
(signatures, shadows, engine state), encoding runs with the commit
lock released, and a store written with any codec reads back
identically under any other.
"""

from __future__ import annotations

import threading

import pytest

import repro.store.objectstore as objectstore_mod
from repro.store.objectstore import ObjectStore
from repro.store.serializer import (
    CODEC_ZLIB,
    Record,
    RecordCodec,
    encode_record,
    is_framed,
    unwrap_record,
)

from tests.conftest import Person
from tests.store.conftest import ENGINE_PARAMS, make_engine

#: A bulk dirty set: more than 100 records in one stabilise.
BULK = 101


def bulk_people(store, count=BULK):
    people = [Person("p%04d" % i) for i in range(count)]
    store.set_root("people", people)
    return people


def value_records(count):
    from repro.store.oids import Oid
    from repro.store.serializer import KIND_LIST
    return [Record(Oid(i + 1), KIND_LIST, "", "", ["v%d" % i])
            for i in range(count)]


class TestEncodeRecord:
    def test_signature_is_over_raw_bytes(self):
        import zlib as _zlib
        record = value_records(1)[0]
        raw = record.to_bytes()
        codec = RecordCodec(CODEC_ZLIB, 6)
        plain = encode_record(record, None)
        framed = encode_record(record, codec)
        # The dirty filter compares signatures over *raw* bytes whatever
        # codec is in force — that is what lets legacy and compressed
        # stores interoperate without re-writing each other's records.
        assert plain.sig == framed.sig == (len(raw), _zlib.crc32(raw))
        assert plain.raw_len == framed.raw_len == len(raw)
        assert Record.from_bytes(unwrap_record(framed.stored)).payload \
            == record.payload


class TestInlineEncode:
    def test_bulk_stabilize_starts_no_threads(self, tmp_path, registry):
        with ObjectStore(str(tmp_path / "s"), registry) as store:
            bulk_people(store)
            before = set(threading.enumerate())
            assert store.stabilize() >= BULK
            assert set(threading.enumerate()) <= before
            assert store.verify_referential_integrity() == []

    def test_encode_runs_with_the_commit_lock_released(
            self, tmp_path, registry, monkeypatch):
        held = []

        def probe(record, codec):
            held.append(store._commit_lock._is_owned())
            return encode_record(record, codec)

        monkeypatch.setattr(objectstore_mod, "encode_record", probe)
        with ObjectStore(str(tmp_path / "s"), registry) as store:
            bulk_people(store)
            store.stabilize()
        assert len(held) > BULK and not any(held)

    def test_bulk_restabilize_encodes_and_writes_each_dirty_record_once(
            self, tmp_path, registry):
        url = str(tmp_path / "s")
        with ObjectStore(url, registry) as store:
            people = bulk_people(store)
            store.stabilize()
            encoded = store.encode_count
            writes = store.engine.record_writes
            for person in people:
                person.name += "!"
            assert store.stabilize() == BULK
            assert store.encode_count - encoded == BULK
            assert store.engine.record_writes - writes == BULK
        with ObjectStore.open(url, registry=registry) as store:
            assert [p.name for p in store.get_root("people")] \
                == [p.name for p in people]


class TestEncodeFailureAtomicity:
    """A record whose encode raises must abort the whole stabilise
    with no partial bookkeeping — and the next stabilise must succeed."""

    @pytest.fixture
    def failing_encode(self, monkeypatch):
        """Make every second record's encode raise, after the first
        succeeded."""
        calls = {"n": 0}

        def flaky(record, codec):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise RuntimeError("injected encode failure")
            return encode_record(record, codec)

        monkeypatch.setattr(objectstore_mod, "encode_record", flaky)
        return calls

    def test_failure_rolls_back_and_next_stabilize_succeeds(
            self, tmp_path, registry, failing_encode, monkeypatch):
        with ObjectStore(str(tmp_path / "s"), registry) as store:
            people = bulk_people(store)
            sigs_before = dict(store._stored_sig)
            shadows_before = set(store._shadow)
            with pytest.raises(RuntimeError, match="injected"):
                store.stabilize()
            # No signature or shadow from the aborted walk survived.
            assert store._stored_sig == sigs_before
            assert set(store._shadow) == shadows_before
            # Heal the injection: the store itself must not be poisoned.
            monkeypatch.undo()
            written = store.stabilize()
            assert written >= BULK
            assert store.verify_referential_integrity() == []
        with ObjectStore.open(str(tmp_path / "s"),
                              registry=registry) as store:
            assert [p.name for p in store.get_root("people")[:3]] \
                == [p.name for p in people[:3]]

    def test_failed_stabilize_persists_nothing_new(
            self, tmp_path, registry, failing_encode):
        with ObjectStore(str(tmp_path / "s"), registry) as store:
            stored_before = set(store.engine.oids())
            bulk_people(store)
            with pytest.raises(RuntimeError, match="injected"):
                store.stabilize()
        # Nothing from the aborted commit reached the engine durably.
        with ObjectStore.open(str(tmp_path / "s"),
                              registry=registry) as store:
            assert set(store.engine.oids()) == stored_before
            assert not store.has_root("people")


class TestCodecAcrossBackends:
    @pytest.mark.parametrize("kind", ENGINE_PARAMS)
    def test_compressed_round_trip(self, kind, tmp_path, registry):
        engine = make_engine(kind, tmp_path)
        with ObjectStore(registry=registry, engine=engine,
                         compress="zlib:1") as store:
            people = bulk_people(store)
            Person.marry(people[0], people[1])
            store.stabilize()
            stats = store.stats()
            assert stats["compressed_bytes"] <= stats["encoded_bytes"]
            # Close only the store; in-memory engines would lose data.
            assert store.get_root("people")[0].spouse is people[1]
            assert store.verify_referential_integrity() == []

    @pytest.mark.parametrize("spec", ["zlib:1", "lzma:0"])
    def test_reopen_plain_after_compressed(self, spec, tmp_path, registry):
        url = str(tmp_path / "s")
        with ObjectStore(url, registry, compress=spec) as store:
            bulk_people(store)
            store.stabilize()
        # A plain (legacy) open decodes framed records transparently.
        with ObjectStore.open(url, registry=registry) as store:
            assert len(store.get_root("people")) == BULK
            assert store.verify_referential_integrity() == []
            # ... and re-stabilising under no codec doesn't rewrite
            # unchanged records: the signature is over raw bytes.
            assert store.stabilize() == 0

    def test_reopen_compressed_after_plain(self, tmp_path, registry):
        url = str(tmp_path / "s")
        with ObjectStore.open(url, registry=registry) as store:
            bulk_people(store)
            store.stabilize()
        with ObjectStore(url, registry, compress="zlib:6") as store:
            assert len(store.get_root("people")) == BULK
            # Unchanged records are not re-written just to compress them.
            assert store.stabilize() == 0

    def test_framed_records_actually_on_disk(self, tmp_path, registry):
        with ObjectStore(str(tmp_path / "s"), registry,
                         compress="zlib:1") as store:
            # A long compressible string comfortably over the 64-byte
            # framing floor.
            store.set_root("text", ["persistence " * 50])
            store.stabilize()
            framed = [oid for oid in store.engine.oids()
                      if is_framed(store.engine.read(oid))]
            assert framed, "expected at least one framed record on disk"


class TestStabilizePhaseStats:
    def test_phase_counters_accumulate(self, tmp_path, registry):
        with ObjectStore.open(str(tmp_path / "s"),
                              registry=registry) as store:
            bulk_people(store)
            store.stabilize()
            stats = store.stats()
            assert stats["walk_ns"] > 0
            assert stats["encode_ns"] > 0
            assert stats["commit_ns"] > 0
            assert stats["encoded_bytes"] > 0
            # No codec: stored volume equals raw volume.
            assert stats["compressed_bytes"] == stats["encoded_bytes"]

    def test_compression_shrinks_stored_volume(self, tmp_path, registry):
        with ObjectStore(str(tmp_path / "s"), registry,
                         compress="zlib:1") as store:
            store.set_root("text", ["compress me " * 100
                                    for _ in range(8)])
            store.stabilize()
            stats = store.stats()
            assert 0 < stats["compressed_bytes"] < stats["encoded_bytes"]

    def test_clean_restabilize_adds_no_encode_volume(self, tmp_path,
                                                     registry):
        with ObjectStore.open(str(tmp_path / "s"),
                              registry=registry) as store:
            bulk_people(store)
            store.stabilize()
            encoded = store.stats()["encoded_bytes"]
            rebuilds = store.stats()["weak_rebuilds"]
            assert store.stabilize() == 0
            assert store.stats()["encoded_bytes"] == encoded
            assert store.stats()["weak_rebuilds"] == rebuilds
