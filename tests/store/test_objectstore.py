"""The object store: roots, reachability, identity, fidelity, recovery,
referential integrity."""

import pytest

from repro.errors import (
    SerializationError,
    StoreClosedError,
    UnknownOidError,
    UnknownRootError,
)
from repro.store.objectstore import ObjectStore
from repro.store.serializer import Serializer

from tests.conftest import Employee, Person


class TestRoots:
    def test_set_and_get_root(self, store):
        person = Person("ada")
        store.set_root("ada", person)
        assert store.get_root("ada") is person

    def test_unknown_root_raises(self, store):
        with pytest.raises(UnknownRootError):
            store.get_root("nope")

    def test_delete_root(self, store):
        store.set_root("r", [1])
        store.delete_root("r")
        assert not store.has_root("r")
        with pytest.raises(UnknownRootError):
            store.delete_root("r")

    def test_root_names_sorted(self, store):
        store.set_root("zebra", [1])
        store.set_root("apple", [2])
        assert store.root_names() == ("apple", "zebra")

    def test_rebinding_root_replaces(self, store):
        store.set_root("r", [1])
        replacement = [2]
        store.set_root("r", replacement)
        assert store.get_root("r") is replacement


class TestPersistenceByReachability:
    def test_interior_objects_stored_without_explicit_calls(self, store):
        a, b = Person("a"), Person("b")
        a.spouse = b
        store.set_root("a", a)
        store.stabilize()
        assert store.is_stored(store.oid_of(b))

    def test_unreachable_objects_not_stored(self, store):
        reachable, orphan = Person("in"), Person("out")
        store.set_root("r", reachable)
        orphan_oid = store._ensure_oid(orphan)
        store.stabilize()
        assert not store.is_stored(orphan_oid)

    def test_stabilize_counts_only_changes(self, store, people):
        first = store.stabilize()
        assert first >= 3  # two persons + list (+ registry structures)
        assert store.stabilize() == 0  # no changes -> nothing rewritten
        people[0].name = "renamed"
        assert store.stabilize() == 1  # only the mutated record

    def test_deep_graph_stored(self, store):
        head = tail = Person("p0")
        for index in range(1, 200):
            nxt = Person(f"p{index}")
            tail.spouse = nxt
            tail = nxt
        store.set_root("chain", head)
        store.stabilize()
        assert store.statistics().object_count >= 200


class TestPartialFetchStabilize:
    def test_mutation_behind_unfetched_root_is_checkpointed(self, tmp_path,
                                                            registry):
        """A live, mutated object reachable only through a never-fetched
        root must still be re-encoded by stabilize (regression test)."""
        directory = str(tmp_path / "s")
        with ObjectStore.open(directory, registry=registry) as store:
            person = Person("original")
            store.set_root("holder", [person])
            store.stabilize()
        with ObjectStore.open(directory, registry=registry) as store:
            # Fetch the person via its OID without fetching the holder list.
            holder = store.get_root("holder")
            person = holder[0]
            store._identity.evict(store.oid_of(holder))
            del holder
            person.name = "mutated"
            store.stabilize()
            store.evict_all()
            assert store.get_root("holder")[0].name == "mutated"


class TestIdentityAndSharing:
    def test_fetch_preserves_sharing(self, tmp_path, registry):
        directory = str(tmp_path / "s")
        with ObjectStore.open(directory, registry=registry) as store:
            shared = Person("shared")
            store.set_root("pair", [shared, shared])
            store.stabilize()
        with ObjectStore.open(directory, registry=registry) as store:
            pair = store.get_root("pair")
            assert pair[0] is pair[1]

    def test_fetch_preserves_cycles(self, tmp_path, registry):
        directory = str(tmp_path / "s")
        with ObjectStore.open(directory, registry=registry) as store:
            a, b = Person("a"), Person("b")
            Person.marry(a, b)
            store.set_root("a", a)
            store.stabilize()
        with ObjectStore.open(directory, registry=registry) as store:
            a = store.get_root("a")
            assert a.spouse.spouse is a

    def test_two_roots_to_same_object_fetch_identically(self, tmp_path,
                                                        registry):
        directory = str(tmp_path / "s")
        with ObjectStore.open(directory, registry=registry) as store:
            person = Person("both")
            store.set_root("r1", person)
            store.set_root("r2", person)
            store.stabilize()
        with ObjectStore.open(directory, registry=registry) as store:
            assert store.get_root("r1") is store.get_root("r2")

    def test_oid_stable_across_stabilizes(self, store):
        person = Person("stable")
        store.set_root("p", person)
        store.stabilize()
        oid = store.oid_of(person)
        person.name = "still stable"
        store.stabilize()
        assert store.oid_of(person) == oid


class TestTypedFidelity:
    def test_fetched_object_has_registered_class(self, tmp_path, registry):
        directory = str(tmp_path / "s")
        with ObjectStore.open(directory, registry=registry) as store:
            store.set_root("e", Employee("zoe", 40_000))
            store.stabilize()
        with ObjectStore.open(directory, registry=registry) as store:
            employee = store.get_root("e")
            assert type(employee) is Employee
            assert employee.salary == 40_000
            assert employee.greet() == "hello, zoe"  # inherited behaviour

    def test_container_types_roundtrip_exactly(self, tmp_path, registry):
        directory = str(tmp_path / "s")
        payload = {"list": [1, 2], "set": {3}, "tuple": (4, (5,)),
                   "bytes": b"\x00", "bytearray": bytearray(b"ba")}
        with ObjectStore.open(directory, registry=registry) as store:
            store.set_root("d", payload)
            store.stabilize()
        with ObjectStore.open(directory, registry=registry) as store:
            back = store.get_root("d")
            for key, value in payload.items():
                assert type(back[key]) is type(value)
                assert back[key] == value


class TestRecovery:
    def test_state_survives_reopen(self, tmp_path, registry):
        directory = str(tmp_path / "s")
        with ObjectStore.open(directory, registry=registry) as store:
            store.set_root("people", [Person("a"), Person("b")])
            store.stabilize()
            stats = store.statistics()
        with ObjectStore.open(directory, registry=registry) as store:
            assert store.statistics().object_count == stats.object_count
            assert [p.name for p in store.get_root("people")] == ["a", "b"]

    def test_unstabilized_changes_lost_on_reopen(self, tmp_path, registry):
        directory = str(tmp_path / "s")
        with ObjectStore.open(directory, registry=registry) as store:
            person = Person("committed")
            store.set_root("p", person)
            store.stabilize()
            person.name = "uncommitted"
            # no stabilize; close flushes pages but records were not written
        with ObjectStore.open(directory, registry=registry) as store:
            assert store.get_root("p").name == "committed"

    def test_wal_replay_after_simulated_crash(self, tmp_path, registry):
        directory = str(tmp_path / "s")
        store = ObjectStore.open(directory, registry=registry)
        store.set_root("p", Person("durable"))
        # Simulate a crash after WAL commit but before checkpoint: run the
        # WAL half of stabilize only (the engine's log_batch), then drop
        # the file handles without checkpointing.
        from repro.store.engine import WriteBatch
        __, records, __ = store._flatten_from_roots()
        batch = WriteBatch()
        for oid, record in records.items():
            batch.write(oid, record.to_bytes())
        batch.set_roots(store.root_bindings())
        batch.advance_next_oid(int(store._allocator.next_oid))
        engine = store.engine
        engine.log_batch(batch)
        engine.wal.close()
        engine.heap.close()  # crash: metadata never written
        with ObjectStore.open(directory, registry=registry) as recovered:
            assert recovered.get_root("p").name == "durable"

    def test_oids_not_reused_after_recovery(self, tmp_path, registry):
        directory = str(tmp_path / "s")
        with ObjectStore.open(directory, registry=registry) as store:
            store.set_root("p", Person("x"))
            store.stabilize()
            high_water = store.statistics().next_oid
        with ObjectStore.open(directory, registry=registry) as store:
            fresh_oid = store._ensure_oid(Person("new"))
            assert int(fresh_oid) >= high_water


class TestReferentialIntegrity:
    def test_clean_store_verifies(self, store, people):
        store.stabilize()
        assert store.verify_referential_integrity() == []

    def test_unknown_oid_raises(self, store):
        from repro.store.oids import Oid
        with pytest.raises(UnknownOidError):
            store.object_for(Oid(424242))

    def test_refresh_reloads_from_disk(self, store):
        person = Person("disk")
        store.set_root("p", person)
        store.stabilize()
        person.name = "memory"
        fresh = store.refresh(person)
        assert fresh.name == "disk"
        assert fresh is not person


class TestUnencodableState:
    def test_failed_encode_changes_no_bookkeeping(self, store):
        """A reachable string that cannot be stored fails the stabilise
        with a typed error and leaves the dirty tracker as it was, so
        the next stabilise writes the fixed value."""
        ann = Person("ann")
        people = [ann]
        store.set_root("people", people)
        store.stabilize()
        ann.name = "\udc80"
        people.append(Person("\udc80"))
        sigs = dict(store._stored_sig)
        shadows = dict(store._shadow)
        seqs = dict(store._commit_seq)
        with pytest.raises(SerializationError):
            store.stabilize()
        assert store._stored_sig == sigs
        assert store._shadow == shadows
        assert all(store._shadow[oid] is shadows[oid] for oid in shadows)
        assert store._commit_seq == seqs
        ann.name = "ann2"
        people[1].name = "cara"
        assert store.stabilize() == 3  # ann, the list and the new person
        oid = store.oid_of(ann)
        assert store.stored_record(oid).payload["name"] == "ann2"
        assert store.verify_referential_integrity() == []


class TestOneReadPerObject:
    def test_stabilise_reads_each_instance_once(self, registry,
                                                monkeypatch):
        reads = []
        fields_of = Serializer._instance_fields

        def counted(obj, entry):
            reads.append(obj)
            return fields_of(obj, entry)

        monkeypatch.setattr(Serializer, "_instance_fields",
                            staticmethod(counted))
        people = [Person(f"p{i}") for i in range(50)]
        for i, person in enumerate(people):
            person.spouse = people[(i * 7) % 50]
        with ObjectStore.in_memory(registry=registry) as store:
            store.set_root("people", people)
            store.set_root("index", {p.name: p for p in people})
            reads.clear()
            store.stabilize()  # every instance newly reached
            assert len(reads) == 50
            assert {id(p) for p in reads} == {id(p) for p in people}
            reads.clear()
            assert store.stabilize() == 0  # clean
            assert len(reads) == 50
            people[3].name = "moved"
            reads.clear()
            assert store.stabilize() == 1
            assert len(reads) == 50


class TestLifecycle:
    def test_closed_store_rejects_operations(self, tmp_path, registry):
        store = ObjectStore.open(str(tmp_path / "s"), registry=registry)
        store.close()
        with pytest.raises(StoreClosedError):
            store.set_root("r", [1])
        with pytest.raises(StoreClosedError):
            store.stabilize()

    def test_close_is_idempotent(self, tmp_path, registry):
        store = ObjectStore.open(str(tmp_path / "s"), registry=registry)
        store.close()
        store.close()
        assert store.is_closed

    def test_statistics_shape(self, store, people):
        store.stabilize()
        stats = store.statistics()
        assert stats.object_count >= 3
        assert stats.root_count == 1
        assert stats.heap_pages >= 1
