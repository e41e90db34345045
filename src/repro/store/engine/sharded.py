"""The scale-out backend: the OID space partitioned over child engines.

``ShardedEngine`` composes N child :class:`StorageEngine` instances —
any backends, including a mixture — into one engine.  Record ``oid``
lives on shard ``oid % N``; the root table and the allocator cursor live
on shard 0, the **meta shard**.  Reads and per-shard writes fan out in
parallel on a small thread pool (one worker per shard), which is where
the horizontal win comes from: a wide batch becomes N narrower batches
whose I/O overlaps.

Atomicity across shards cannot be delegated to the children (each child
is only atomic for *its* slice), so :meth:`ShardedEngine.apply` runs a
two-phase protocol built entirely out of the children's own atomic
``apply``:

1. **Prepare** — each involved shard durably stages its encoded
   sub-batch under the reserved staging OID (one atomic child batch per
   shard, in parallel), tagged with a fresh per-batch token; then a
   :meth:`StorageEngine.sync` barrier on those shards.
2. **Commit marker** — shard 0 durably writes the reserved marker
   record carrying the same token, followed by a ``sync`` barrier.
   This is the commit point for the whole batch.
3. **Apply** — each involved shard applies its sub-batch and deletes its
   staging record *in one atomic child batch* (parallel again), then the
   marker is cleared.

Opening the engine recovers: a marker on shard 0 means the batch
committed, so any shard still holding a staging record *with the
marker's token* redoes it (idempotent — record writes are put-by-OID,
deletes tolerate absence, the allocator cursor is monotonic); staging
records with any other token, or any staging found with no marker,
belong to a batch that never committed and are discarded.  A crash at
any point therefore yields the old state or the new state across *all*
shards, never a mixture.

The ``sync`` barriers and the token make this hold even against
power-loss reordering between shard files: stagings are on stable
storage before the marker, the marker before any phase-3 effect, and a
stale marker whose lazy clear was lost can never adopt a later batch's
stagings (token mismatch).  The cross-shard guarantee is still only as
strong as each child's own durability — a ``MemoryEngine`` shard keeps
nothing across close, honestly.

Reserved OIDs sit at ``2**62`` and above, far outside anything the
allocator will ever issue; they are filtered out of every aggregate view
(``oids``, ``object_count``, ``contains``), so the staging machinery —
and the shard-topology record on shard 0 (the shard count is persisted
on first open and validated on every reopen, so a store can never be
silently opened with the wrong ``N`` and misroute every OID) — is
invisible above the engine layer.

Like every other backend, the engine assumes a single writer at a time;
the parallelism is per-batch fan-out, not concurrent ``apply`` calls.
This is the broker arrangement (ZBroker, PAPERS.md): one logical store
API routed over many physical stores.

Children may themselves be
:class:`~repro.store.commit.pipeline.PipelinedEngine` wrappers (the URL
factory builds them from ``sharded:N:CHILD?shard_durability=async``):
the prepare and commit-marker phases still order durability through the
children's ``sync`` barriers (a pipelined ``sync`` drains the shard's
queue first), while the phase-3 applies ride the pipelines *off the
caller's critical path*: ``apply`` returns after the commit marker is
durable, and a background settle task flushes the involved shards
before submitting the marker deletion (a marker deletion durable ahead
of a shard's staged apply would make recovery discard that shard's
committed sub-batch; on the meta shard the deletion queues behind its
own phase-3 apply, so FIFO order covers it).  Crash recovery covers
every window (marker + staging redo, token-guarded discard), and the
next ``apply``/``sync``/``flush``/``close`` awaits the settle.  The net
effect is that the two-phase protocol stops multiplying the per-batch
fsync count.
"""

from __future__ import annotations

import os
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Optional, Sequence

from repro.errors import UnknownOidError
from repro.store.engine.base import StorageEngine, WriteBatch
from repro.store.obs.trace import current_span, run_with_span
from repro.store.obs.trace import span as trace_span
from repro.store.oids import Oid

#: OIDs at or above this value are reserved for the sharding protocol.
RESERVED_OID_BASE = 1 << 62

#: Per-shard staging record holding the encoded prepared sub-batch.
STAGE_OID = Oid(RESERVED_OID_BASE)

#: Shard-0 commit marker: present iff a prepared batch has committed.
MARKER_OID = Oid(RESERVED_OID_BASE + 1)

#: Shard-0 topology record: the shard count the store was created with.
TOPOLOGY_OID = Oid(RESERVED_OID_BASE + 2)

#: Bytes of per-batch token prefixed to staging and marker records.
_TOKEN_LEN = 16

#: Batches with at most this many record operations run their staging
#: and apply fans inline on the committing thread rather than on the
#: shard pool — the pool's per-item GIL handoff costs more than the
#: overlap buys for a handful of writes.
_INLINE_FAN_OPS = 16


def encode_batch(batch: WriteBatch) -> bytes:
    """Serialise a :class:`WriteBatch` for staging (little-endian framed)."""
    parts = [struct.pack("<I", len(batch.writes))]
    for oid, raw in batch.writes:
        raw = bytes(raw)
        parts.append(struct.pack("<QI", int(oid), len(raw)))
        parts.append(raw)
    parts.append(struct.pack("<I", len(batch.deletes)))
    for oid in batch.deletes:
        parts.append(struct.pack("<Q", int(oid)))
    if batch.roots is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01")
        parts.append(struct.pack("<I", len(batch.roots)))
        for name, oid in batch.roots.items():
            encoded = name.encode("utf-8")
            parts.append(struct.pack("<HQ", len(encoded), int(oid)))
            parts.append(encoded)
    if batch.next_oid is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01")
        parts.append(struct.pack("<Q", batch.next_oid))
    return b"".join(parts)


def decode_batch(blob: bytes) -> WriteBatch:
    """Inverse of :func:`encode_batch`."""
    batch = WriteBatch()
    view = memoryview(blob)
    offset = 0

    def take(fmt: str) -> tuple:
        nonlocal offset
        size = struct.calcsize(fmt)
        values = struct.unpack_from(fmt, view, offset)
        offset += size
        return values

    (write_count,) = take("<I")
    for _ in range(write_count):
        oid, length = take("<QI")
        batch.write(Oid(oid), bytes(view[offset:offset + length]))
        offset += length
    (delete_count,) = take("<I")
    for _ in range(delete_count):
        (oid,) = take("<Q")
        batch.delete(Oid(oid))
    (has_roots,) = take("<B")
    if has_roots:
        roots: dict[str, Oid] = {}
        (root_count,) = take("<I")
        for _ in range(root_count):
            name_len, oid = take("<HQ")
            name = bytes(view[offset:offset + name_len]).decode("utf-8")
            offset += name_len
            roots[name] = Oid(oid)
        batch.set_roots(roots)
    (has_next,) = take("<B")
    if has_next:
        (next_oid,) = take("<Q")
        batch.advance_next_oid(next_oid)
    return batch


class ShardedEngine(StorageEngine):
    """N child engines behind one engine; two-phase atomic batches."""

    name = "sharded"

    def __init__(self, children: Sequence[StorageEngine]):
        super().__init__()
        children = tuple(children)
        if not children:
            raise ValueError("ShardedEngine needs at least one child engine")
        if len({id(child) for child in children}) != len(children):
            raise ValueError("each shard needs its own engine instance")
        for child in children:
            if child.closed:
                raise ValueError("child engines must be open")
        self._children = children
        # An async child acknowledges before durability, so the engine
        # as a whole does too (the single-shard fast path is exactly
        # one child apply); durability-sensitive callers (transaction
        # commit, the store's stabilise wait) check this flag.
        self.asynchronous = any(child.asynchronous for child in children)
        self._pool = ThreadPoolExecutor(max_workers=len(children),
                                        thread_name_prefix="repro-shard")
        #: Token of the batch currently between prepare and commit (also
        #: lets the fault-injection tests drive the phases separately).
        self._batch_token: Optional[bytes] = None
        #: The in-flight background settle (marker clear) of the last
        #: cross-shard apply, if any; awaited before the next protocol
        #: action (single writer at a time).
        self._settle_future = None
        # Native 2PC telemetry (pull gauges via obs): cross-shard commit
        # count and wall time per protocol phase.
        self.two_phase_commits = 0
        self.prepare_ns = 0
        self.marker_ns = 0
        self.apply_ns = 0
        try:
            self._check_topology()
            self._recover()
        except BaseException:
            # A failed open must not leak the children (or the pool):
            # the engine took ownership of them above.
            self._pool.shutdown(wait=True)
            for child in children:
                child.close()
            raise

    def _check_topology(self) -> None:
        """Pin the shard count: ``oid % N`` routing silently scatters
        records if a store is ever reopened with a different ``N``."""
        meta = self._children[0]
        blob = struct.pack("<I", len(self._children))
        if meta.contains(TOPOLOGY_OID):
            (stored,) = struct.unpack("<I", meta.read(TOPOLOGY_OID))
            if stored != len(self._children):
                raise ValueError(
                    f"store was created with {stored} shards, cannot open "
                    f"it with {len(self._children)}"
                )
        else:
            meta.apply(WriteBatch().write(TOPOLOGY_OID, blob))

    # -- topology -------------------------------------------------------

    @property
    def children(self) -> tuple[StorageEngine, ...]:
        """The child engines, by shard index (tests, fault injection)."""
        return self._children

    @property
    def shard_count(self) -> int:
        return len(self._children)

    def shard_of(self, oid: Oid) -> int:
        """The index of the shard that owns ``oid``."""
        return int(oid) % len(self._children)

    def _fan(self, fn, items: Iterable, inline: bool = False) -> list:
        """Run ``fn`` over ``items`` on the shard pool; propagate errors.

        ``inline=True`` runs the items sequentially on the calling
        thread instead.  Write-side fans use it for small batches: a
        pool dispatch is a GIL handoff per item, and when concurrent
        reader threads are saturating the interpreter, every handoff
        can cost many scheduler switch intervals — far more than the
        few records of staging work it would overlap.
        """
        if inline:
            return [fn(item) for item in items]
        active = current_span()
        if active is not None:
            # Contextvars do not follow work onto pool threads; carry
            # the active span across so per-shard leaf spans (a child
            # WAL fsync, a remote request) attach to the right trace.
            return list(self._pool.map(
                lambda item: run_with_span(active, fn, item), items))
        return list(self._pool.map(fn, items))

    @staticmethod
    def _small(subs: dict[int, WriteBatch]) -> bool:
        """Whether a partitioned batch is too small to be worth fanning
        out (see :meth:`_fan`)."""
        ops = sum(len(sub.writes) + len(sub.deletes)
                  for sub in subs.values())
        return ops <= _INLINE_FAN_OPS

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        error: Optional[BaseException] = None
        try:
            self._await_settle()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            error = exc
        self._pool.shutdown(wait=True)
        # Close every child even if one raises (a pipelined child's
        # close surfaces its commit failures); re-raise the first error
        # once the rest are released.
        for child in self._children:
            try:
                child.close()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None:
                    error = exc
        super().close()
        if error is not None:
            raise error

    # -- reads ----------------------------------------------------------

    def read(self, oid: Oid) -> bytes:
        self._check_open()
        if int(oid) >= RESERVED_OID_BASE:
            raise UnknownOidError(int(oid))
        return self._children[self.shard_of(oid)].read(oid)

    def contains(self, oid: Oid) -> bool:
        self._check_open()
        if int(oid) >= RESERVED_OID_BASE:
            return False
        return self._children[self.shard_of(oid)].contains(oid)

    def fetch_many(self, oids: Iterable[Oid]) -> dict[Oid, bytes]:
        """Bulk read, fanned out per shard on the shard pool: the
        closure planner's wave of N OIDs becomes at most ``shard_count``
        concurrent child bulk reads whose I/O overlaps — this is the
        read-path twin of the write fan-out."""
        self._check_open()
        per_shard: dict[int, list[Oid]] = {}
        for oid in oids:
            if int(oid) >= RESERVED_OID_BASE:
                continue
            per_shard.setdefault(self.shard_of(oid), []).append(oid)
        if not per_shard:
            return {}
        if len(per_shard) == 1:
            shard, wanted = next(iter(per_shard.items()))
            return self._children[shard].fetch_many(wanted)
        with trace_span("fanout.fetch_many"):
            active = current_span()
            futures = [
                self._pool.submit(run_with_span, active,
                                  self._children[shard].fetch_many,
                                  wanted)
                for shard, wanted in per_shard.items()
            ]
            found: dict[Oid, bytes] = {}
            for future in futures:
                found.update(future.result())
        return found

    def oids(self) -> tuple[Oid, ...]:
        self._check_open()
        per_shard = self._fan(
            lambda child: [oid for oid in child.oids()
                           if int(oid) < RESERVED_OID_BASE],
            self._children,
        )
        return tuple(oid for shard_oids in per_shard for oid in shard_oids)

    @property
    def object_count(self) -> int:
        # One reserved-OID-filtered snapshot per shard (oids() already
        # does exactly that): counting and filtering in a single read
        # per child keeps the background marker clear — which may land
        # between two reads of the meta shard — from skewing the count.
        return len(self.oids())

    def roots(self) -> dict[str, Oid]:
        self._check_open()
        return self._children[0].roots()

    @property
    def next_oid(self) -> int:
        self._check_open()
        return self._children[0].next_oid

    @property
    def page_count(self) -> int:
        self._check_open()
        return sum(child.page_count for child in self._children)

    # -- writes: the two-phase protocol ---------------------------------

    def partition(self, batch: WriteBatch) -> dict[int, WriteBatch]:
        """Split ``batch`` into per-shard sub-batches.

        Roots and the allocator cursor always land on the meta shard
        (shard 0).  Payloads are coerced to bytes here, so a bad write
        raises before any shard has seen I/O.
        """
        subs: dict[int, WriteBatch] = {}

        def sub_for(shard: int) -> WriteBatch:
            if shard not in subs:
                subs[shard] = WriteBatch()
            return subs[shard]

        for oid, raw in batch.writes:
            if int(oid) >= RESERVED_OID_BASE:
                raise ValueError(f"oid {int(oid)} is reserved for the "
                                 "sharding protocol")
            sub_for(self.shard_of(oid)).write(oid, bytes(raw))
        for oid in batch.deletes:
            if int(oid) >= RESERVED_OID_BASE:
                raise ValueError(f"oid {int(oid)} is reserved for the "
                                 "sharding protocol")
            sub_for(self.shard_of(oid)).delete(oid)
        if batch.roots is not None:
            sub_for(0).set_roots(batch.roots)
        if batch.next_oid is not None:
            sub_for(0).advance_next_oid(batch.next_oid)
        return subs

    def prepare(self, subs: dict[int, WriteBatch],
                token: Optional[bytes] = None) -> bytes:
        """Phase 1: durably stage each shard's sub-batch on that shard,
        tagged with the batch token, then a durability barrier.

        The per-shard staging blobs (``encode_batch`` of each
        sub-batch) are built and written in parallel on the shard pool
        via ``_fan`` — the write-side counterpart of ``fetch_many``'s
        fan-out.  :meth:`partition` has already split the batch by
        ``shard_of``, whatever order the store encoded its records in.

        Public (like ``FileEngine.log_batch``) so crash recovery is
        testable: a process dying after a partial or complete prepare,
        with no commit marker, must expose none of the batch on reopen.
        Returns the token (freshly generated when not supplied).
        """
        self._check_open()
        if token is None:
            token = os.urandom(_TOKEN_LEN)
        self._batch_token = token

        def stage(item: tuple[int, WriteBatch]) -> None:
            shard, sub = item
            child = self._children[shard]
            child.apply(
                WriteBatch().write(STAGE_OID, token + encode_batch(sub))
            )
            child.sync()

        self._fan(stage, subs.items(), inline=self._small(subs))
        return token

    def write_commit_marker(self, token: Optional[bytes] = None) -> None:
        """Phase 2: the commit point — one atomic write on the meta
        shard carrying the batch token, then a durability barrier.

        Public for fault injection: a marker present on reopen means the
        batch committed and any shard still staged under the marker's
        token is redone.
        """
        self._check_open()
        if token is None:
            token = self._batch_token
        if token is None:
            raise ValueError("no prepared batch to commit")
        meta = self._children[0]
        meta.apply(WriteBatch().write(MARKER_OID, token))
        meta.sync()

    def _apply_staged(self, subs: dict[int, WriteBatch]) -> None:
        """Phase 3: apply each sub-batch and drop its staging record in
        one atomic child batch per shard."""

        def apply_one(item: tuple[int, WriteBatch]) -> None:
            shard, sub = item
            combined = WriteBatch()
            combined.writes = list(sub.writes)
            combined.deletes = list(sub.deletes) + [STAGE_OID]
            combined.roots = sub.roots
            combined.next_oid = sub.next_oid
            self._children[shard].apply(combined)

        self._fan(apply_one, subs.items(), inline=self._small(subs))

    def _clear_commit_marker(self) -> None:
        self._children[0].apply(WriteBatch().delete(MARKER_OID))
        self._batch_token = None

    def _settle_in_background(self, subs: dict[int, WriteBatch]) -> None:
        """Clear the commit marker off the caller's critical path, with
        the durability order recovery depends on.

        The marker may only disappear after every involved shard's
        phase-3 apply is durable — were the deletion to land first, a
        crash would leave a committed-but-staged shard with no marker,
        and recovery would discard its sub-batch.  The settle task
        flushes the non-meta shards (a no-op for direct children, a
        pipeline drain for ``shard_durability`` children) and then
        submits the marker deletion; on the meta shard the deletion
        queues *behind* its own phase-3 apply, so FIFO order covers
        shard 0.  The next ``apply`` (and ``sync``/``flush``/``close``)
        awaits the task, preserving the single-writer protocol.
        """
        involved = [shard for shard in subs if shard != 0]

        def settle() -> None:
            for shard in involved:
                self._children[shard].flush()
            self._clear_commit_marker()

        if hasattr(self._children[0], "pipeline"):
            # Pipelined meta shard: its commit lock serialises the
            # background marker deletion against concurrent readers.
            self._settle_future = self._pool.submit(settle)
        else:
            # Direct meta shard: clear synchronously (the pre-pipeline
            # behaviour) rather than race readers through the child's
            # unsynchronised state.
            settle()

    def _await_settle(self) -> None:
        future, self._settle_future = self._settle_future, None
        if future is not None:
            future.result()

    def apply(self, batch: WriteBatch) -> None:
        self._check_open()
        # Wait out the previous apply's background marker clear (it is
        # the tail of that batch's protocol; the engine is single-writer).
        self._await_settle()
        # A leftover marker means an earlier apply died (or raised) after
        # its commit point: settle that batch first, or this batch could
        # overwrite the marker and orphan a committed-but-unapplied
        # staging — and replay ordering would break for the fast path.
        if self._children[0].contains(MARKER_OID):
            self._recover()
        subs = self.partition(batch)
        if not subs:
            self.batches_applied += 1
            return
        if len(subs) == 1:
            # One shard involved: that child's own apply is already
            # all-or-nothing, so the cross-shard protocol would only add
            # three extra durable writes.
            shard, sub = next(iter(subs.items()))
            self._children[shard].apply(sub)
        else:
            t0 = time.perf_counter_ns()
            with trace_span("twophase.prepare"):
                token = self.prepare(subs)
            t1 = time.perf_counter_ns()
            with trace_span("twophase.marker"):
                self.write_commit_marker(token)
            t2 = time.perf_counter_ns()
            with trace_span("twophase.apply"):
                self._apply_staged(subs)
            t3 = time.perf_counter_ns()
            self._settle_in_background(subs)
            self.two_phase_commits += 1
            self.prepare_ns += t1 - t0
            self.marker_ns += t2 - t1
            self.apply_ns += t3 - t2
        self.record_writes += len(batch.writes)
        self.batches_applied += 1

    # -- recovery -------------------------------------------------------

    def _recover(self) -> None:
        """Finish or roll back a batch interrupted mid-protocol."""
        meta = self._children[0]
        committed_token: Optional[bytes] = None
        if meta.contains(MARKER_OID):
            committed_token = bytes(meta.read(MARKER_OID))[:_TOKEN_LEN]

        def settle(child: StorageEngine) -> None:
            if not child.contains(STAGE_OID):
                return
            staged = bytes(child.read(STAGE_OID))
            if committed_token is not None \
                    and staged[:_TOKEN_LEN] == committed_token:
                sub = decode_batch(staged[_TOKEN_LEN:])
                sub.delete(STAGE_OID)
                child.apply(sub)
            else:
                # Never committed (no marker), or staged by a *later*
                # batch than a stale marker whose clear was lost: abort.
                child.apply(WriteBatch().delete(STAGE_OID))

        self._fan(settle, self._children)
        if committed_token is not None:
            # Same barrier as the apply path: every redone sub-batch
            # must be durable before the marker deletion can be.
            self._fan(lambda child: child.flush(), self._children)
            self._clear_commit_marker()

    # -- maintenance ----------------------------------------------------

    def compact(self) -> int:
        self._check_open()
        self._await_settle()
        return sum(self._fan(lambda child: child.compact(), self._children))

    def flush(self) -> None:
        """Drain the background settle and every child's commit pipeline
        (children opened with a ``shard_durability`` policy run one
        pipeline per shard; plain children inherit the no-op)."""
        self._check_open()
        self._await_settle()
        self._fan(lambda child: child.flush(), self._children)

    def sync(self) -> None:
        """Durability barrier across every shard (the single-shard apply
        fast path commits with the child's own durability level, so a
        caller needing power-loss durability syncs explicitly)."""
        self._check_open()
        self._await_settle()
        self._fan(lambda child: child.sync(), self._children)
