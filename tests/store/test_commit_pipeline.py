"""The commit pipeline: policies, group coalescing, the read overlay,
deterministic failure, and store-level concurrent stabilisation."""

import threading
import time

import pytest

from repro.errors import (
    CommitPipelineError,
    StoreClosedError,
    UnknownOidError,
)
import repro.store.objectstore as objectstore_mod
from repro.store import open_store
from repro.store.commit import (
    AsyncPolicy,
    CommitTicket,
    GroupPolicy,
    PipelinedEngine,
    SyncPolicy,
)
from repro.store.commit.policy import make_policy
from repro.store.engine import FileEngine, MemoryEngine, WriteBatch
from repro.store.objectstore import ObjectStore
from repro.store.oids import Oid
from repro.store.serializer import Record
from repro.store.weakrefs import PersistentWeakRef

from tests.conftest import Person


class GateEngine(MemoryEngine):
    """A child whose group commits can be held at a gate, making the
    pipeline's batching deterministic to test."""

    def __init__(self):
        super().__init__()
        self.groups: list[int] = []
        self.gate = threading.Event()
        self.gate.set()
        self.entered = threading.Event()

    def apply_many(self, batches) -> None:
        batches = list(batches)
        self.entered.set()
        assert self.gate.wait(10.0), "gate never released"
        self.groups.append(len(batches))
        super().apply_many(batches)


class FailingEngine(MemoryEngine):
    """A child that fails every commit after the first."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def apply_many(self, batches) -> None:
        self.calls += 1
        if self.calls > 1:
            raise IOError("disk on fire")
        super().apply_many(batches)


class LostCommitEngine(MemoryEngine):
    """A direct engine whose ``fail_call``-th commit is lost: its ticket
    fails without applying anything, and later commits go through."""

    def __init__(self, fail_call: int):
        super().__init__()
        self.calls = 0
        self.fail_call = fail_call

    def apply_async(self, batch: WriteBatch) -> CommitTicket:
        self.calls += 1
        if self.calls != self.fail_call:
            return super().apply_async(batch)
        ticket = CommitTicket(batch)
        ticket._resolve(IOError("disk on fire"))
        return ticket


def record_batch(oid: int, payload: bytes = b"x") -> WriteBatch:
    return WriteBatch().write(Oid(oid), payload)


class TestPolicies:
    def test_make_policy_kinds(self):
        assert isinstance(make_policy("sync"), SyncPolicy)
        group = make_policy("group", window_ms=2.5, max_batches=8)
        assert isinstance(group, GroupPolicy)
        assert group.window_s == pytest.approx(0.0025)
        assert group.max_batches == 8
        assert group.waits and group.threaded
        async_policy = make_policy("async", max_pending=3)
        assert isinstance(async_policy, AsyncPolicy)
        assert not async_policy.waits
        assert async_policy.max_pending == 3

    def test_bad_policy_values_rejected(self):
        with pytest.raises(ValueError, match="unknown durability policy"):
            make_policy("never")
        with pytest.raises(ValueError, match="group_window_ms"):
            make_policy("group", window_ms=-1)
        with pytest.raises(ValueError, match="group_max_batches"):
            make_policy("group", max_batches=0)
        with pytest.raises(ValueError, match="async_max_pending"):
            make_policy("async", max_pending=0)


class TestCommitTicket:
    def test_resolution_and_result(self):
        ticket = CommitTicket()
        assert not ticket.done
        assert not ticket.wait(0.01)
        ticket._resolve()
        assert ticket.done
        assert ticket.exception() is None
        ticket.result()  # no error

    def test_error_propagates(self):
        ticket = CommitTicket()
        ticket._resolve(IOError("lost"))
        assert isinstance(ticket.exception(), IOError)
        with pytest.raises(IOError):
            ticket.result()

    def test_timeout(self):
        ticket = CommitTicket()
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)


class TestGroupCoalescing:
    def test_batches_queued_behind_a_commit_form_one_group(self):
        child = GateEngine()
        engine = PipelinedEngine(child, AsyncPolicy())
        child.gate.clear()
        first = engine.apply_async(record_batch(1))
        # Wait until the committer is inside apply_many with batch 1...
        assert child.entered.wait(10.0)
        # ...then queue three more behind it.
        tickets = [engine.apply_async(record_batch(oid))
                   for oid in (2, 3, 4)]
        child.gate.set()
        for ticket in [first, *tickets]:
            ticket.result(timeout=10.0)
        # One group for the opener, one coalesced group for the rest.
        assert child.groups == [1, 3]
        assert sorted(map(int, engine.oids())) == [1, 2, 3, 4]
        engine.close()

    def test_group_policy_apply_returns_durable(self, tmp_path):
        engine = PipelinedEngine(FileEngine(str(tmp_path / "s")),
                                 GroupPolicy())
        engine.apply(record_batch(1, b"kept"))
        # The ticket of the last commit is settled by the time apply
        # returns; a process dying now must keep the record.
        engine.child.wal.close()
        engine.child.heap.close()
        with FileEngine(str(tmp_path / "s")) as recovered:
            assert recovered.read(Oid(1)) == b"kept"

    def test_concurrent_appliers_share_groups(self, tmp_path):
        child = FileEngine(str(tmp_path / "s"))
        engine = PipelinedEngine(child, GroupPolicy())
        per_thread, threads = 10, 8

        def work(base: int) -> None:
            for offset in range(per_thread):
                engine.apply(record_batch(base + offset, b"p" * 32))

        workers = [threading.Thread(target=work, args=(100 * index,))
                   for index in range(1, threads + 1)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert engine.object_count == per_thread * threads
        assert engine.batches_applied == per_thread * threads
        engine.close()
        with FileEngine(str(tmp_path / "s")) as reopened:
            assert reopened.object_count == per_thread * threads


class TestAsyncOverlay:
    def test_pending_writes_are_readable(self):
        child = GateEngine()
        engine = PipelinedEngine(child, AsyncPolicy())
        child.gate.clear()
        engine.apply(record_batch(1, b"one"))
        engine.apply(WriteBatch().write(Oid(2), b"two")
                     .set_roots({"r": Oid(2)}).advance_next_oid(50))
        # Nothing has reached the child, yet every overlay-served read
        # answers immediately (aggregate views — oids/object_count —
        # serialise against the in-flight commit by design, so they are
        # asserted after the gate opens).
        assert engine.read(Oid(1)) == b"one"
        assert engine.contains(Oid(2))
        assert engine.roots() == {"r": Oid(2)}
        assert engine.next_oid == 50
        written, deleted = engine.pipeline.pending_effects()
        assert sorted(map(int, written)) == [1, 2] and deleted == []
        child.gate.set()
        engine.flush()
        # Same answers once the overlay has drained into the child.
        assert engine.read(Oid(1)) == b"one"
        assert engine.roots() == {"r": Oid(2)}
        assert sorted(map(int, engine.oids())) == [1, 2]
        assert engine.object_count == 2
        assert child.next_oid == 50
        engine.close()

    def test_pending_delete_hides_a_stored_record(self):
        child = GateEngine()
        engine = PipelinedEngine(child, AsyncPolicy())
        engine.apply(record_batch(1))
        engine.flush()
        child.gate.clear()
        engine.apply(WriteBatch().delete(Oid(1)))
        assert not engine.contains(Oid(1))
        with pytest.raises(UnknownOidError):
            engine.read(Oid(1))
        child.gate.set()
        engine.flush()
        assert engine.object_count == 0
        engine.close()

    def test_last_pending_write_wins(self):
        child = GateEngine()
        engine = PipelinedEngine(child, AsyncPolicy())
        child.gate.clear()
        engine.apply(record_batch(1, b"v1"))
        engine.apply(record_batch(1, b"v2"))
        engine.apply(record_batch(1, b"v3"))
        assert engine.read(Oid(1)) == b"v3"
        child.gate.set()
        engine.flush()
        assert engine.read(Oid(1)) == b"v3"
        assert engine.object_count == 1
        engine.close()

    def test_aggregate_views_merge_overlay_and_child(self):
        """oids()/object_count serialise against an in-flight commit;
        their overlay snapshot is taken first, so the merge covers the
        pending batches whichever side of the commit the child read
        lands on."""
        child = GateEngine()
        engine = PipelinedEngine(child, AsyncPolicy())
        engine.apply(record_batch(1))
        engine.flush()
        child.gate.clear()
        engine.apply(WriteBatch().write(Oid(2), b"two").delete(Oid(1)))
        results = []

        def aggregate() -> None:
            results.append(sorted(map(int, engine.oids())))
            results.append(engine.object_count)

        thread = threading.Thread(target=aggregate)
        thread.start()  # snapshots the overlay, then waits out the gate
        child.gate.set()
        thread.join(10.0)
        assert results == [[2], 1]
        engine.close()

    def test_async_close_flushes_pending_batches(self, tmp_path):
        """The regression pin for close(): queued async batches are
        durable after close, never silently dropped."""
        directory = str(tmp_path / "s")
        engine = PipelinedEngine(FileEngine(directory), AsyncPolicy())
        tickets = [engine.apply_async(record_batch(oid, b"survives"))
                   for oid in range(1, 21)]
        engine.close()
        assert all(ticket.done for ticket in tickets)
        with FileEngine(directory) as reopened:
            assert reopened.object_count == 20
            assert reopened.read(Oid(20)) == b"survives"

    def test_backpressure_blocks_submission(self):
        child = GateEngine()
        engine = PipelinedEngine(child, AsyncPolicy(max_pending=2))
        child.gate.clear()
        engine.apply(record_batch(1))
        engine.apply(record_batch(2))
        blocked = threading.Event()

        def third() -> None:
            engine.apply(record_batch(3))
            blocked.set()

        thread = threading.Thread(target=third)
        thread.start()
        time.sleep(0.05)
        assert not blocked.is_set()  # pipeline is full, submit waits
        child.gate.set()
        thread.join(10.0)
        assert blocked.is_set()
        engine.flush()
        assert engine.object_count == 3
        engine.close()


class TestDeterministicFailure:
    def test_failed_group_resolves_every_ticket(self):
        child = FailingEngine()
        engine = PipelinedEngine(child, AsyncPolicy())
        engine.apply(record_batch(1))
        engine.flush()  # first commit succeeds
        hold = [engine.apply_async(record_batch(oid))
                for oid in range(2, 7)]
        for ticket in hold:
            assert ticket.wait(10.0)
        errors = [ticket.exception() for ticket in hold]
        assert isinstance(errors[0], (IOError, CommitPipelineError))
        assert all(error is not None for error in errors)
        # The pipeline is poisoned: no further work, and close raises.
        with pytest.raises(CommitPipelineError):
            engine.apply(record_batch(99))
        with pytest.raises(CommitPipelineError):
            engine.flush()
        with pytest.raises(CommitPipelineError):
            engine.close()
        # ...but exactly once: close is idempotent afterwards.
        engine.close()
        assert engine.closed

    def test_sync_policy_failure_does_not_poison(self):
        engine = PipelinedEngine(MemoryEngine(), SyncPolicy())
        engine.apply(record_batch(1))
        bad = WriteBatch()
        bad.writes.append((Oid(2), object()))  # not bytes-convertible
        with pytest.raises(TypeError):
            engine.apply(bad)
        # The child applied nothing of the bad batch; the pipeline keeps
        # serving (a sync commit failure is atomic at the child).
        engine.apply(record_batch(3))
        assert sorted(map(int, engine.oids())) == [1, 3]
        engine.close()

    def test_submit_after_close_rejected(self):
        engine = PipelinedEngine(MemoryEngine(), GroupPolicy())
        engine.apply(record_batch(1))
        engine.close()
        with pytest.raises(StoreClosedError):
            engine.apply(record_batch(2))


class TestStoreIntegration:
    def url(self, tmp_path, policy: str) -> str:
        return f"file:{tmp_path / 's'}?durability={policy}"

    @pytest.mark.parametrize("policy", ["sync", "group", "async"])
    def test_roundtrip_per_policy(self, tmp_path, registry, policy):
        with open_store(self.url(tmp_path, policy),
                        registry=registry) as store:
            store.set_root("people", [Person("ann"), Person("bo")])
            store.stabilize()
        with open_store(self.url(tmp_path, policy),
                        registry=registry) as store:
            assert [p.name for p in store.get_root("people")] \
                == ["ann", "bo"]
            assert store.verify_referential_integrity() == []

    def test_async_stabilize_exposes_ticket_and_flush(self, tmp_path,
                                                      registry):
        with open_store(self.url(tmp_path, "async"),
                        registry=registry) as store:
            store.set_root("p", Person("queued"))
            written = store.stabilize()
            assert written >= 1
            assert store.last_commit is not None
            store.flush()
            store.last_commit.result(timeout=0)  # settled and durable

    def test_concurrent_stabilize_threads(self, tmp_path, registry):
        with open_store(self.url(tmp_path, "group"),
                        registry=registry) as store:
            people = [Person(f"p{index}") for index in range(64)]
            store.set_root("people", people)
            store.stabilize()
            threads = 8

            def mutate(slot: int) -> None:
                for round_no in range(10):
                    people[slot * threads + round_no % 8].name = \
                        f"t{slot}r{round_no}"
                    store.stabilize()

            workers = [threading.Thread(target=mutate, args=(index,))
                       for index in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            assert store.verify_referential_integrity() == []
        with open_store(self.url(tmp_path, "group"),
                        registry=registry) as store:
            names = [p.name for p in store.get_root("people")]
            # Every thread's final rename is durable.
            for slot in range(threads):
                assert f"t{slot}r9" in names

    def test_transaction_commit_is_a_durability_point(self, registry):
        child = GateEngine()
        store = ObjectStore(registry=registry,
                            engine=PipelinedEngine(child, AsyncPolicy()))
        with store.transaction() as txn:
            store.set_root("p", Person("tx"))
            txn.commit()  # durable=True flushes the async pipeline
        assert store.engine.pipeline.pending_count == 0
        # durable=False returns with the commit still queued.
        child.gate.clear()
        txn = store.transaction().begin()
        store.get_root("p").name = "tx2"
        txn.commit(durable=False)
        assert store.engine.pipeline.pending_count > 0
        child.gate.set()
        store.flush()
        store.close()

    def test_sharded_async_children_make_the_engine_asynchronous(
            self, tmp_path, registry):
        """A transaction's durable commit must reach the bottom of the
        stack: async shard pipelines mark the whole sharded engine
        asynchronous, so commit(durable=True) flushes them."""
        url = f"sharded:2:file:{tmp_path / 'c'}?shard_durability=async"
        store = open_store(url, registry=registry)
        assert store.engine.asynchronous
        with store.transaction():
            store.set_root("people", [Person(f"p{i}") for i in range(9)])
        # durable=True (the default) flushed every shard pipeline —
        # a hard crash now must lose nothing.
        for child in store.engine.children:
            child.child.wal.close()
            child.child.heap.close()
            child.child.manifest.close()
        with open_store(f"sharded:2:file:{tmp_path / 'c'}",
                        registry=registry) as recovered:
            assert len(recovered.get_root("people")) == 9

    def test_flush_reaches_nested_pipelines(self, tmp_path, registry):
        """An outer async pipeline over a sharded engine with async
        shard pipelines: flush() must drain the whole stack."""
        url = (f"sharded:2:file:{tmp_path / 'n'}"
               "?durability=async&shard_durability=async")
        store = open_store(url, registry=registry)
        store.set_root("people", [Person(f"p{i}") for i in range(9)])
        store.stabilize()
        store.flush()
        for child in store.engine.child.children:
            child.child.wal.close()
            child.child.heap.close()
            child.child.manifest.close()
        with open_store(f"sharded:2:file:{tmp_path / 'n'}",
                        registry=registry) as recovered:
            assert len(recovered.get_root("people")) == 9

    def test_store_close_surfaces_lost_async_commits(self, registry):
        child = FailingEngine()
        store = ObjectStore(registry=registry,
                            engine=PipelinedEngine(child, AsyncPolicy()))
        store.set_root("p", Person("first"))
        store.stabilize()
        store.flush()  # first commit lands
        store.get_root("p").name = "second"
        store.stabilize()  # enqueued; the child will refuse it
        with pytest.raises(CommitPipelineError):
            store.close()
        assert store.is_closed  # closed either way, never half-open

    def test_failed_durability_rolls_back_bookkeeping(self, registry):
        """A commit whose durability wait fails must re-dirty exactly
        what its batch covered: signatures, shadows and weak targets
        of the batch's OIDs return to their pre-stabilise values."""
        store = ObjectStore(registry=registry,
                            engine=PipelinedEngine(FailingEngine(),
                                                   GroupPolicy()))
        ann, bo = Person("ann"), Person("bo")
        people = [ann, bo]
        weak = PersistentWeakRef(ann)
        store.set_root("people", people)
        store.set_root("refs", [weak])
        store.stabilize()  # the first commit lands
        ann.name = "ann2"
        people.append(Person("cara"))
        weak.set(bo)
        sigs = dict(store._stored_sig)
        shadows = dict(store._shadow)
        weak_targets = dict(store._weak_stored)
        missing = object()
        with pytest.raises((IOError, CommitPipelineError)):
            store.stabilize()  # the child refuses the second commit
        batch_oids = [store._identity.oid_for(obj)
                      for obj in (ann, people, people[2], weak)]
        assert None not in batch_oids
        assert store._stored_sig.get(batch_oids[2]) is None
        for oid in batch_oids:
            assert store._stored_sig.get(oid) == sigs.get(oid)
            assert store._shadow.get(oid, missing) \
                is shadows.get(oid, missing)
            assert store._weak_stored.get(oid, missing) \
                == weak_targets.get(oid, missing)
        with pytest.raises(CommitPipelineError):
            store.close()


    def test_unchanged_roots_are_not_read_under_the_pipeline_lock(
            self, registry):
        """A stabilise with no root change compares the roots against
        the ones it last submitted, so it reaches submission while
        another thread holds the pipeline's commit lock (as a group
        commit does for its whole fsync)."""
        engine = PipelinedEngine(MemoryEngine(), GroupPolicy())
        submitted = threading.Event()
        real_apply_async = engine.apply_async

        def apply_async(batch):
            submitted.set()
            return real_apply_async(batch)

        engine.apply_async = apply_async
        store = ObjectStore(registry=registry, engine=engine)
        ann = Person("ann")
        store.set_root("p", ann)
        store.stabilize()
        assert engine._pipeline.pending_roots() is None
        ann.name = "ann2"
        submitted.clear()
        results = {}
        with engine._pipeline.commit_lock:
            thread = threading.Thread(
                target=lambda: results.update(n=store.stabilize()))
            thread.start()
            assert submitted.wait(10.0), "stabilise never reached submission"
        thread.join(10.0)
        assert results == {"n": 1}
        store.close()

    def test_failed_commit_resubmits_roots(self, registry):
        """A failed commit forgets the root table it submitted, so the
        next stabilise resubmits it."""
        engine = LostCommitEngine(fail_call=2)
        store = ObjectStore(registry=registry, engine=engine)
        store.set_root("p", Person("ann"))
        store.stabilize()
        store.set_root("q", Person("bo"))
        with pytest.raises(IOError):
            store.stabilize()  # this commit's ticket fails
        assert set(engine.roots()) == {"p"}
        assert store.stabilize() == 1  # bo's record, re-dirtied
        assert set(engine.roots()) == {"p", "q"}
        store.close()


def hold_encodes(monkeypatch, *names):
    """Hold each named thread in its stabilise's encode phase — after its
    walk — until released.  Returns ``{name: (reached, release)}``."""
    gates = {name: (threading.Event(), threading.Event()) for name in names}
    real = objectstore_mod.encode_record

    def encode(record, codec):
        gate = gates.get(threading.current_thread().name)
        if gate is not None:
            gate[0].set()
            assert gate[1].wait(10.0), "encode never released"
        return real(record, codec)

    monkeypatch.setattr(objectstore_mod, "encode_record", encode)
    return gates


class TestOutOfOrderCommits:
    """Two stabilises whose walks both collected a record, reaching
    their commit phases in the opposite order: the earlier walk (thread
    A) is held in its encode phase while a later one (thread B) walks."""

    @pytest.fixture
    def setup(self, registry):
        child = GateEngine()
        store = ObjectStore(registry=registry,
                            engine=PipelinedEngine(child, GroupPolicy()))
        ann = Person("ann")
        store.set_root("p", ann)
        store.stabilize()
        yield store, child, ann
        child.gate.set()
        store.close()

    @staticmethod
    def start(store, name, results):
        def run():
            try:
                results[name] = store.stabilize()
            except Exception as exc:  # noqa: BLE001 - asserted on
                results[name] = exc
        thread = threading.Thread(target=run, name=name)
        thread.start()
        return thread

    @staticmethod
    def stored_name(child, store, obj):
        oid = store._identity.oid_for(obj)
        return Record.from_bytes(child.read(oid)).payload["name"]

    def test_record_left_to_a_later_commit_waits_for_it(
            self, setup, monkeypatch):
        store, child, ann = setup
        gates = hold_encodes(monkeypatch, "A")
        ann.name = "ann2"
        results = {}
        a = self.start(store, "A", results)
        assert gates["A"][0].wait(10.0)
        # B walks, encodes and submits while A is held; its group
        # commit then sits at the closed gate.  B's new root rides in
        # its batch, so A finds the root table already submitted.
        store.set_root("q", Person("q"))
        child.gate.clear()
        child.entered.clear()
        b = self.start(store, "B", results)
        assert child.entered.wait(10.0)
        gates["A"][1].set()
        # A skips the record B committed, so its own batch is empty —
        # but it must not report success before B's commit is durable.
        a.join(0.3)
        assert a.is_alive()
        child.gate.set()
        a.join(10.0)
        b.join(10.0)
        assert results == {"A": 0, "B": 2}
        assert self.stored_name(child, store, ann) == "ann2"

    def test_earlier_walk_writes_a_record_not_yet_committed_later(
            self, setup, monkeypatch):
        store, child, ann = setup
        gates = hold_encodes(monkeypatch, "A", "B")
        ann.name = "ann2"
        results = {}
        a = self.start(store, "A", results)
        assert gates["A"][0].wait(10.0)
        b = self.start(store, "B", results)
        assert gates["B"][0].wait(10.0)
        # B has walked the record but not committed it: A writes it
        # itself, and A's own ticket makes it durable.
        gates["A"][1].set()
        a.join(10.0)
        assert results == {"A": 1}
        assert self.stored_name(child, store, ann) == "ann2"
        # B's identical bytes are already durable: nothing to write.
        gates["B"][1].set()
        b.join(10.0)
        assert results == {"A": 1, "B": 0}
        assert store.stabilize() == 0

    def test_identical_bytes_in_flight_are_waited_for(
            self, setup, monkeypatch):
        store, child, ann = setup
        gates = hold_encodes(monkeypatch, "A", "B")
        ann.name = "ann2"
        # A new root rides in A's batch, so B finds the root table
        # already submitted.
        store.set_root("q", Person("q"))
        results = {}
        a = self.start(store, "A", results)
        assert gates["A"][0].wait(10.0)
        b = self.start(store, "B", results)
        assert gates["B"][0].wait(10.0)
        child.gate.clear()
        child.entered.clear()
        gates["A"][1].set()
        assert child.entered.wait(10.0)
        # B encodes the very bytes A's pending commit carries: nothing
        # to write, but B is durable only once A's commit is.
        gates["B"][1].set()
        b.join(0.3)
        assert b.is_alive()
        child.gate.set()
        a.join(10.0)
        b.join(10.0)
        assert results == {"A": 2, "B": 0}

    def test_record_left_to_a_failed_commit_is_not_reported_durable(
            self, registry, monkeypatch):
        store = ObjectStore(registry=registry,
                            engine=PipelinedEngine(FailingEngine(),
                                                   GroupPolicy()))
        ann = Person("ann")
        store.set_root("p", ann)
        store.stabilize()  # the first commit lands
        gates = hold_encodes(monkeypatch, "A")
        ann.name = "ann2"
        results = {}
        a = self.start(store, "A", results)
        assert gates["A"][0].wait(10.0)
        b = self.start(store, "B", results)
        b.join(10.0)
        assert isinstance(results["B"], (IOError, CommitPipelineError))
        # B's rollback hands the record back: A must commit it itself
        # (and here fail with the poisoned pipeline), not skip it.
        gates["A"][1].set()
        a.join(10.0)
        assert isinstance(results["A"], (IOError, CommitPipelineError))
        with pytest.raises(CommitPipelineError):
            store.close()
