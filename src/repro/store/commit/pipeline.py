"""The commit pipeline: group commit, async durability, read overlay.

``CommitPipeline`` accepts :class:`~repro.store.engine.base.WriteBatch`
submissions from any number of threads and commits them on a single
dedicated committer thread, coalescing whatever queued while the
previous group was committing into one
:meth:`~repro.store.engine.base.StorageEngine.apply_many` call — for
the file backend that is one WAL append run and a *single* fsync for
the whole group.  Each submission returns a :class:`CommitTicket`, the
durability future.

``PipelinedEngine`` packages a pipeline as a storage engine, so the
rest of the system (the store, the sharded engine, the URL factory)
can treat "an engine with a durability policy" exactly like any other
backend.  Batches that are queued but not yet applied stay *visible*:
reads consult the pending overlay before the child engine, so a caller
always observes its own writes immediately — only durability is
deferred, never visibility.

Failure is deterministic: if a group commit raises, every ticket in the
group (and everything queued behind it) resolves with the error, the
pipeline refuses further submissions, and :meth:`CommitPipeline.close`
re-raises — an async batch can be lost to a crash (that is the policy's
contract) but never silently swallowed by an error.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Iterable, Optional

from repro.errors import CommitPipelineError, StoreClosedError, UnknownOidError
from repro.store.commit.policy import DurabilityPolicy, SyncPolicy
from repro.store.engine.base import StorageEngine, WriteBatch
from repro.store.obs.trace import current_span, run_with_span
from repro.store.obs.trace import span as trace_span
from repro.store.oids import Oid


class CommitTicket:
    """The durability future of one submitted batch.

    Resolves exactly once — successfully, or with the exception the
    commit raised.  ``wait``/``result`` may be called from any thread.
    """

    __slots__ = ("batch", "span", "_done", "_error")

    def __init__(self, batch: Optional[WriteBatch] = None):
        self.batch = batch
        #: The submitter's active trace span, if any — the committer
        #: thread attributes the group commit to it (contextvars do
        #: not cross the thread boundary on their own).
        self.span = current_span()
        self._done = threading.Event()
        self._error: Optional[BaseException] = None

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the batch settles; ``False`` on timeout."""
        return self._done.wait(timeout)

    def exception(self,
                  timeout: Optional[float] = None) -> Optional[BaseException]:
        """The commit's exception (``None`` on success); blocks first."""
        if not self._done.wait(timeout):
            raise TimeoutError("commit is still pending")
        return self._error

    def result(self, timeout: Optional[float] = None) -> None:
        """Block until durable; re-raise the commit's failure, if any."""
        error = self.exception(timeout)
        if error is not None:
            raise error

    def _resolve(self, error: Optional[BaseException] = None) -> None:
        self._error = error
        # The batch reference has served its purpose (the committer
        # reads it before resolving); dropping it keeps a long-lived
        # ticket — e.g. a store's ``last_commit`` — from pinning the
        # whole checkpoint's record bytes in memory.  Same for the
        # captured span and its trace collector.
        self.batch = None
        self.span = None
        self._done.set()


def completed_ticket(batch: Optional[WriteBatch] = None) -> CommitTicket:
    """A ticket that is already durable (direct-engine ``apply_async``)."""
    ticket = CommitTicket(batch)
    ticket._resolve()
    return ticket


class CommitPipeline:
    """Queue + committer thread turning many commits into few."""

    def __init__(self, engine: StorageEngine, policy: DurabilityPolicy):
        self._engine = engine
        self.policy = policy
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self._settled = threading.Condition(self._lock)
        #: Tickets waiting for the committer, oldest first.
        self._queue: deque[CommitTicket] = deque()
        #: (sequence, batch) submitted but not yet applied to the child
        #: — strictly FIFO alongside ``_queue`` plus the group currently
        #: being committed.
        self._pending: deque[tuple[int, WriteBatch]] = deque()
        self._seq = 0
        #: The read overlay, maintained incrementally so lookups are
        #: O(1) however deep the queue: OID -> (sequence of the newest
        #: pending batch touching it, record bytes or the delete
        #: sentinel).  Entries whose sequence has been applied to the
        #: child are dropped when their group completes.
        self._overlay: dict[Oid, tuple[int, object]] = {}
        self._overlay_roots: Optional[tuple[int, dict]] = None
        self._overlay_next_oid: Optional[int] = None
        self._failure: Optional[BaseException] = None
        self._closed = False
        # Serialises every touch of the child engine: sync-policy
        # inline applies, the committer's group commits, and — through
        # :attr:`commit_lock` — the wrapper's reads, which would
        # otherwise race the committer through the child's
        # unsynchronised file handles and tables.
        self._apply_lock = threading.Lock()
        # Native group-commit telemetry (pull gauges via obs).
        self.groups_committed = 0
        self.batches_committed = 0
        self.linger_ns = 0
        self._thread: Optional[threading.Thread] = None
        if policy.threaded:
            self._thread = threading.Thread(
                target=self._run, name="repro-commit-pipeline", daemon=True)
            self._thread.start()

    # -- submission ------------------------------------------------------

    def _raise_if_unusable(self) -> None:
        if self._closed:
            raise StoreClosedError("the commit pipeline has been closed")
        if self._failure is not None:
            raise CommitPipelineError(
                "the commit pipeline failed; no further commits are accepted"
            ) from self._failure

    def submit(self, batch: WriteBatch) -> CommitTicket:
        """Queue one batch for commit; returns its durability ticket.

        Never blocks on I/O for threaded policies (only on backpressure
        when ``max_pending`` submissions are already in flight); for the
        sync policy the commit happens inline, serialised, and the
        returned ticket is already settled.
        """
        ticket = CommitTicket(batch)
        if self._thread is None:
            return self._submit_inline(ticket)
        with self._lock:
            self._raise_if_unusable()
            while len(self._pending) >= self.policy.max_pending:
                self._settled.wait()
                self._raise_if_unusable()
            self._seq += 1
            seq = self._seq
            self._queue.append(ticket)
            self._pending.append((seq, batch))
            # Batch order contract: writes apply first, deletes last —
            # an OID both written and deleted ends absent.
            for oid, raw in batch.writes:
                self._overlay[oid] = (seq, bytes(raw))
            for oid in batch.deletes:
                self._overlay[oid] = (seq, self._ABSENT)
            if batch.roots is not None:
                self._overlay_roots = (seq, dict(batch.roots))
            if batch.next_oid is not None:
                self._overlay_next_oid = max(
                    self._overlay_next_oid or 0, batch.next_oid)
            self._arrived.notify()
        return ticket

    def _submit_inline(self, ticket: CommitTicket) -> CommitTicket:
        with self._lock:
            self._raise_if_unusable()
        error: Optional[BaseException] = None
        try:
            with trace_span("commit.group"), self._apply_lock:
                self._engine.apply(ticket.batch)
        except BaseException as exc:
            error = exc
        ticket._resolve(error)
        if error is not None:
            raise error
        self.groups_committed += 1
        self.batches_committed += 1
        return ticket

    # -- the committer thread -------------------------------------------

    def _collect_group(self) -> Optional[list[CommitTicket]]:
        """Wait for work; returns the next group, or ``None`` to exit."""
        policy = self.policy
        with self._lock:
            while not self._queue and not self._closed:
                self._arrived.wait()
            if not self._queue:
                return None  # closed and drained
            if policy.window_s > 0 and len(self._queue) < policy.max_batches:
                # Optional linger: give concurrent submitters the window
                # to join this group before it commits.
                lingered_from = time.monotonic()
                deadline = lingered_from + policy.window_s
                while len(self._queue) < policy.max_batches \
                        and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._arrived.wait(remaining)
                self.linger_ns += int(
                    (time.monotonic() - lingered_from) * 1e9)
            count = min(len(self._queue), policy.max_batches)
            return [self._queue.popleft() for _ in range(count)]

    def _run(self) -> None:
        while True:
            group = self._collect_group()
            if group is None:
                return
            error: Optional[BaseException] = None

            def commit_group() -> None:
                # Runs with the submitter's span active (if any), so
                # the group shows up in that trace with the child WAL
                # fsync / 2PC work nested underneath.
                with trace_span("commit.group"), self._apply_lock:
                    self._engine.apply_many(
                        [ticket.batch for ticket in group])

            group_span = next((ticket.span for ticket in group
                               if ticket.span is not None), None)
            try:
                run_with_span(group_span, commit_group)
            except BaseException as exc:  # noqa: BLE001 - forwarded to tickets
                error = exc
            with self._lock:
                applied_seq = 0
                for _ in group:
                    applied_seq, _batch = self._pending.popleft()
                leftovers: list[CommitTicket] = []
                if error is not None:
                    # Poison the pipeline: the child's in-memory state
                    # can no longer be trusted to match what later
                    # batches assumed.  Everything queued fails too.
                    self._failure = error
                    leftovers = list(self._queue)
                    self._queue.clear()
                    self._pending.clear()
                    self._overlay.clear()
                    self._overlay_roots = None
                    self._overlay_next_oid = None
                else:
                    self._drop_applied(applied_seq)
                    self.groups_committed += 1
                    self.batches_committed += len(group)
                self._settled.notify_all()
            # Wake the submitters outside the lock: they return into
            # submit(), which needs it.
            for ticket in group:
                ticket._resolve(error)
            if error is not None:
                chained = CommitPipelineError(
                    "an earlier group commit failed")
                chained.__cause__ = error
                for ticket in leftovers:
                    ticket._resolve(chained)
                return

    # -- draining --------------------------------------------------------

    @property
    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def flush(self) -> None:
        """Block until every submitted batch has settled; re-raise the
        pipeline's failure if any commit failed."""
        with self._lock:
            while self._pending and self._failure is None \
                    and not self._closed:
                self._settled.wait()
            if self._failure is not None:
                raise CommitPipelineError(
                    "commits were lost: the pipeline failed while batches "
                    "were in flight"
                ) from self._failure

    def close(self) -> None:
        """Drain the queue, stop the committer, and surface any failure.

        Deterministic: either every submitted batch was committed by the
        time ``close`` returns, or ``close`` raises
        :class:`~repro.errors.CommitPipelineError`.
        """
        with self._lock:
            already = self._closed
            self._closed = True
            self._arrived.notify_all()
            self._settled.notify_all()
        if self._thread is not None:
            self._thread.join()
        if already:
            return
        if self._failure is not None:
            raise CommitPipelineError(
                "commits were lost: the pipeline failed before close "
                "could drain it"
            ) from self._failure

    # -- the read overlay ------------------------------------------------

    _ABSENT = object()

    @property
    def commit_lock(self) -> threading.Lock:
        """The lock every child-engine touch runs under.  The wrapper's
        read paths hold it so a read can never interleave with the
        committer mid-``apply_many`` (shared file handles, live table
        mutation); it is never held together with the queue lock."""
        return self._apply_lock

    def _drop_applied(self, applied_seq: int) -> None:
        """Shed overlay entries whose newest writer has reached the
        child (called with the lock held, after a group commit)."""
        for oid in [oid for oid, (seq, _) in self._overlay.items()
                    if seq <= applied_seq]:
            del self._overlay[oid]
        if self._overlay_roots is not None \
                and self._overlay_roots[0] <= applied_seq:
            self._overlay_roots = None
        if not self._pending:
            # The child is fully caught up (its cursor is monotonic, so
            # the stale maximum would be harmless — just noise).
            self._overlay_next_oid = None

    def pending_value(self, oid: Oid):
        """The newest pending effect on ``oid``: record bytes, the
        ``_ABSENT`` sentinel for a pending delete, or ``None`` when no
        pending batch touches the OID.  O(1)."""
        with self._lock:
            entry = self._overlay.get(oid)
        return entry[1] if entry is not None else None

    def pending_values(self, oids) -> dict:
        """Bulk :meth:`pending_value`: one lock acquisition for a whole
        fetch wave; OIDs no pending batch touches are omitted."""
        with self._lock:
            overlay = self._overlay
            return {oid: overlay[oid][1] for oid in oids if oid in overlay}

    def pending_effects(self) -> tuple[list[Oid], list[Oid]]:
        """Snapshot of the overlay as (written OIDs, deleted OIDs)."""
        with self._lock:
            items = list(self._overlay.items())
        written = [oid for oid, (_, value) in items
                   if value is not self._ABSENT]
        deleted = [oid for oid, (_, value) in items
                   if value is self._ABSENT]
        return written, deleted

    def pending_roots(self) -> Optional[dict]:
        with self._lock:
            if self._overlay_roots is not None:
                return dict(self._overlay_roots[1])
        return None

    def pending_next_oid(self) -> Optional[int]:
        with self._lock:
            return self._overlay_next_oid


class PipelinedEngine(StorageEngine):
    """A storage engine whose ``apply`` goes through a commit pipeline.

    Wraps any child engine.  Reads merge the pipeline's pending overlay
    over the child, so submitted-but-uncommitted batches are always
    visible; writes follow the policy (``sync``/``group`` block until
    durable, ``async`` returns on submission).  ``close`` drains the
    pipeline before closing the child — pending commits are flushed or
    the failure is raised, never dropped silently.
    """

    name = "pipelined"

    def __init__(self, child: StorageEngine,
                 policy: Optional[DurabilityPolicy] = None):
        if child.closed:
            raise ValueError("the child engine must be open")
        super().__init__()
        self._child = child
        self._policy = policy if policy is not None else SyncPolicy()
        self._pipeline = CommitPipeline(child, self._policy)
        self.asynchronous = not self._policy.waits

    # -- composition -----------------------------------------------------

    @property
    def child(self) -> StorageEngine:
        """The engine the pipeline commits to."""
        return self._child

    @property
    def policy(self) -> DurabilityPolicy:
        return self._policy

    @property
    def pipeline(self) -> CommitPipeline:
        """The underlying pipeline (tests, statistics)."""
        return self._pipeline

    @property
    def directory(self):
        """The child's backing directory, if it has one (store API)."""
        return getattr(self._child, "directory", None)

    # The physical counters belong to the child (one counter however the
    # engine is wrapped); the base initialiser's zeroing is absorbed by
    # the no-op setters.

    @property
    def record_writes(self) -> int:
        return self._child.record_writes

    @record_writes.setter
    def record_writes(self, value: int) -> None:
        pass

    @property
    def batches_applied(self) -> int:
        return self._child.batches_applied

    @batches_applied.setter
    def batches_applied(self, value: int) -> None:
        pass

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        error: Optional[BaseException] = None
        try:
            self._pipeline.close()
        except BaseException as exc:  # noqa: BLE001 - re-raised after close
            error = exc
        self._child.close()
        if error is not None:
            raise error

    # -- reads (overlay over child) --------------------------------------
    #
    # Overlay first: a batch dropped from the overlay concurrently has,
    # by ordering, already been applied to the child.  Record reads do
    # *not* take the commit lock — every backend's read path is itself
    # safe against a concurrent ``apply`` (the read-serving work), so a
    # reader can never observe a torn batch: it finds the newest value
    # in the overlay, or the child serves a committed prefix.  Aggregate
    # views and maintenance still serialise against the committer.

    def read(self, oid: Oid) -> bytes:
        self._check_open()
        value = self._pipeline.pending_value(oid)
        if value is CommitPipeline._ABSENT:
            raise UnknownOidError(int(oid))
        if value is not None:
            return value
        return self._child.read(oid)

    def fetch_many(self, oids: Iterable[Oid]) -> dict[Oid, bytes]:
        """Overlay first (bulk, one lock hold), then one child bulk read
        for the rest — a queued-but-uncommitted batch stays visible to
        fetch waves exactly as it does to single reads."""
        self._check_open()
        wanted = list(oids)
        pending = self._pipeline.pending_values(wanted)
        found: dict[Oid, bytes] = {}
        rest: list[Oid] = []
        for oid in wanted:
            if oid in pending:
                value = pending[oid]
                if value is not CommitPipeline._ABSENT:
                    found[oid] = value
            else:
                rest.append(oid)
        if rest:
            found.update(self._child.fetch_many(rest))
        return found

    def contains(self, oid: Oid) -> bool:
        self._check_open()
        value = self._pipeline.pending_value(oid)
        if value is CommitPipeline._ABSENT:
            return False
        if value is not None:
            return True
        return self._child.contains(oid)

    def _merged_oids(self) -> set[Oid]:
        written, deleted = self._pipeline.pending_effects()
        with self._pipeline.commit_lock:
            oids = set(self._child.oids())
        oids.update(written)
        oids.difference_update(deleted)
        return oids

    def oids(self) -> tuple[Oid, ...]:
        self._check_open()
        return tuple(self._merged_oids())

    @property
    def object_count(self) -> int:
        self._check_open()
        if self._pipeline.pending_count == 0:
            with self._pipeline.commit_lock:
                return self._child.object_count
        return len(self._merged_oids())

    def roots(self) -> dict[str, Oid]:
        self._check_open()
        pending = self._pipeline.pending_roots()
        if pending is not None:
            return pending
        with self._pipeline.commit_lock:
            return self._child.roots()

    @property
    def next_oid(self) -> int:
        self._check_open()
        pending = self._pipeline.pending_next_oid()
        # No commit lock: every backend serves this as a plain integer
        # attribute read, atomic under the GIL, and the cursor is
        # monotonic — a torn moment can only under-read, and the
        # pending maximum covers exactly that window.
        child = self._child.next_oid
        return child if pending is None else max(child, pending)

    @property
    def page_count(self) -> int:
        self._check_open()
        with self._pipeline.commit_lock:
            return self._child.page_count

    # -- writes ----------------------------------------------------------

    def apply(self, batch: WriteBatch) -> None:
        ticket = self.apply_async(batch)
        if self._policy.waits:
            ticket.result()

    def apply_async(self, batch: WriteBatch) -> CommitTicket:
        self._check_open()
        return self._pipeline.submit(batch)

    def apply_many(self, batches: Iterable[WriteBatch]) -> None:
        self._check_open()
        tickets = [self._pipeline.submit(batch) for batch in batches]
        if self._policy.waits:
            for ticket in tickets:
                ticket.result()

    # -- barriers and maintenance ----------------------------------------

    def flush(self) -> None:
        self._check_open()
        self._pipeline.flush()
        # The child may itself acknowledge before durability (a sharded
        # engine over async shard pipelines): the barrier is only a
        # barrier if it reaches the bottom of the stack.
        with self._pipeline.commit_lock:
            self._child.flush()

    def sync(self) -> None:
        self._check_open()
        self._pipeline.flush()
        with self._pipeline.commit_lock:
            self._child.sync()

    def compact(self) -> int:
        self._check_open()
        self._pipeline.flush()
        with self._pipeline.commit_lock:
            return self._child.compact()
