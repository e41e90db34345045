"""The orthogonally persistent object store.

This is the PJama analogue: "a persistent store with root(s), reachability
and referential integrity" (paper, Section 1).  Key behaviours:

* **Roots** — named entry points (:meth:`ObjectStore.set_root`).
* **Persistence by reachability** — :meth:`stabilize` makes durable exactly
  the storable nodes reachable from the roots by strong edges; no explicit
  "save this object" calls are needed for interior objects.
* **Referential integrity** — stored objects refer to each other by OID,
  OIDs are never reused, and garbage collection only frees what is
  unreachable, so a stored reference always resolves.
* **Identity** — fetching an OID twice returns the same live object
  (:class:`~repro.store.cache.IdentityMap`).
* **Typed fidelity** — instances are rebuilt from their *registered* class
  after a schema-fingerprint check (:mod:`repro.store.registry`).
* **Weak references** — :class:`~repro.store.weakrefs.PersistentWeakRef`
  edges do not make their target reachable; the collector clears dead ones
  (paper Figure 7).
* **Crash safety and layout** — delegated to a pluggable
  :class:`~repro.store.engine.base.StorageEngine`.  The default
  :class:`~repro.store.engine.filesystem.FileEngine` stabilises atomically
  through a write-ahead log in a directory of ``store.heap``, ``store.wal``
  and ``store.manifest`` files; a
  :class:`~repro.store.engine.memory.MemoryEngine` serves ephemeral stores,
  and any engine can sit behind a commit pipeline
  (:mod:`repro.store.commit`) for group or asynchronous durability.

Stabilisation is **incremental**: the store keeps a shallow snapshot of
every clean live object (see :meth:`~repro.store.serializer.Serializer.
snapshot`) and re-serialises only objects that were mutated or newly
reached since the last stabilise.  The engine's ``record_writes`` counter
makes that observable.

The **read path is concurrent** (:mod:`repro.store.serve`): lookups take
the read side of a writer-preferring read-write lock, so N serving
threads resolve OIDs in parallel; faulting a missing subgraph plans its
reference closure in engine-parallel waves *outside* the lock
(:class:`~repro.store.serve.prefetch.FetchPlanner` over
:meth:`~repro.store.engine.base.StorageEngine.fetch_many`) and installs
the planned records under the write side, re-validating against whatever
faults, refreshes or collections won the race.  With ``cache_objects``
set, the identity map is a bounded
:class:`~repro.store.serve.cache.ObjectCache` — at most that many clean
objects stay strongly pinned; the tail is demoted to weak references and
re-faulted on demand.
"""

from __future__ import annotations

import threading
import time
import zlib
from typing import Any, Optional

from repro.errors import (
    StoreClosedError,
    UnknownOidError,
    UnknownRootError,
)
from repro.store.engine.base import StorageEngine, WriteBatch
from repro.store.engine.filesystem import FileEngine
from repro.store.engine.memory import MemoryEngine
from repro.store.obs import MetricsRegistry, TimedEngine, bind_engine_metrics
from repro.store.obs.trace import (
    TraceLog,
    Tracer,
    current_span,
    span as trace_span,
)
from repro.store.oids import Oid, OidAllocator
from repro.store.registry import ClassRegistry
from repro.store.serializer import (
    KIND_WEAKREF,
    EncodedRecord,
    Record,
    RecordCodec,
    Ref,
    Serializer,
    encode_record,
    parse_codec,
    record_refs,
    snapshot_record,
    snapshot_refs,
    snapshots_equal,
    unwrap_record,
)
from repro.store.serve.cache import ObjectCache
from repro.store.serve.locks import ReadWriteLock
from repro.store.serve.prefetch import FetchPlan, FetchPlanner
from repro.store.weakrefs import PersistentWeakRef

__all__ = ["ObjectStore", "StoreStatistics", "record_refs"]

#: Sentinel distinguishing "weakref never stored" from "stored with a
#: cleared (None) target" in the ``_weak_stored`` cache — ``None`` is a
#: legal cached value there.
_WEAK_UNKNOWN = object()

#: Times a fault re-plans after losing a race (a concurrent eviction
#: invalidated its plan, or a sharded engine was read mid-commit) before
#: falling back to planning under the exclusive lock.  The exponential
#: backoff (1 ms doubling per retry, ~30 ms total) must outlast a
#: sharded two-phase commit's phase-3 window, which includes per-shard
#: fsyncs on slower disks; genuine corruption pays the same delay once
#: and then surfaces unchanged.
_FAULT_RETRIES = 5


class StoreStatistics:
    """A point-in-time summary of store contents (used by the browser)."""

    def __init__(self, object_count: int, root_count: int, live_count: int,
                 heap_pages: int, next_oid: int):
        self.object_count = object_count
        self.root_count = root_count
        self.live_count = live_count
        self.heap_pages = heap_pages
        self.next_oid = next_oid

    def __repr__(self) -> str:
        return (f"StoreStatistics(objects={self.object_count}, "
                f"roots={self.root_count}, live={self.live_count}, "
                f"pages={self.heap_pages}, next_oid={self.next_oid})")


class ObjectStore:
    """An orthogonally persistent object store over a storage engine."""

    def __init__(self, directory: str | None = None,
                 registry: ClassRegistry | None = None, *,
                 engine: StorageEngine | None = None,
                 cache_objects: int | None = None,
                 compress: str | RecordCodec | None = None,
                 metrics: bool | MetricsRegistry = True,
                 slow_op_ms: float | None = None,
                 trace_sample: int | None = None,
                 slow_trace_ms: float | None = None,
                 trace_log: str | None = None):
        if engine is None:
            if directory is None:
                raise ValueError(
                    "ObjectStore needs a directory (file engine) or an "
                    "explicit engine"
                )
            engine = FileEngine(directory)
        elif directory is not None:
            raise ValueError(
                "pass either a directory or an engine, not both — an "
                "explicit engine decides where (and whether) data lives"
            )
        # The store's telemetry registry.  ``metrics=True`` (the
        # default) creates an enabled one and wraps the engine in a
        # TimedEngine; ``metrics=False`` creates a disabled registry —
        # every instrument below becomes the shared no-op and the engine
        # stays unwrapped, so the hot paths pay nothing.  Passing a
        # ``MetricsRegistry`` shares one registry across stores.
        if isinstance(metrics, MetricsRegistry):
            self._metrics = metrics
        else:
            self._metrics = MetricsRegistry(enabled=bool(metrics))
        if self._metrics.enabled or slow_op_ms is not None:
            engine = TimedEngine(engine, self._metrics,
                                 slow_op_ms=slow_op_ms)
            bind_engine_metrics(engine, self._metrics)
        # The span tracer.  Default-off: with ``trace_sample=0`` (or
        # unset), no slow-trace threshold and no sink, ``root()``
        # returns the shared null scope and the store pays one method
        # call per fault/stabilise — the cached-read fast path never
        # touches the tracer at all.
        self._tracer = Tracer(
            sample=trace_sample or 0,
            slow_ms=slow_trace_ms,
            log=TraceLog(trace_log) if trace_log else None,
        )
        self._engine = engine
        # One registry instance is threaded through every layer that
        # resolves classes (serializer, link store, compiler, evolution).
        # A store that is not handed a registry gets its own private one
        # rather than a process-wide global, so two stores can never
        # accidentally share schema state.
        self.registry = registry if registry is not None else ClassRegistry()
        self._serializer = Serializer(self.registry)
        # The identity map is a bounded object cache: with a capacity it
        # keeps an LRU hot set strongly and demotes the clean tail to
        # weak references; unbounded (the default) it pins everything,
        # like the seed behaviour.  The guard keeps dirty objects
        # strongly held until stabilised; the hook drops the demoted
        # object's clean-state snapshot, which would otherwise pin its
        # children through the bookkeeping.
        self._identity = ObjectCache(capacity=cache_objects)
        self._identity.set_demotion_guard(self._may_demote)
        self._identity.set_demotion_hook(self._on_demoted)
        self._allocator = OidAllocator(max(int(engine.next_oid), 1))
        self._planner = FetchPlanner(engine)
        # The read-serving lock (writer-preferring): lookups share the
        # read side; installing a faulted subgraph, refresh's
        # evict-and-refault, transaction aborts and GC evictions take
        # the write side.  Ordering: threads that hold the commit lock
        # may take this lock, never the reverse.
        self._serve_lock = ReadWriteLock()
        #: Bumped under the write lock by every bulk invalidation
        #: (garbage collection, evict_all); a fault whose plan started
        #: under an older epoch discards the plan and re-plans, so a
        #: freed or aborted subgraph can never be resurrected from
        #: stale reads.
        self._epoch = 0
        self._roots: dict[str, Oid] = engine.roots()
        #: The root table this store last handed the engine (``None``
        #: after a failed commit: resubmit).  The commit phase compares
        #: against it rather than ``engine.roots()``, which over a
        #: pipelined engine waits for a group commit's fsync.
        self._submitted_roots: Optional[dict[str, Oid]] = dict(self._roots)
        #: oid -> (len, crc) of the stored record bytes *before* codec
        #: framing — signatures are always over raw record bytes, so a
        #: store reopened under a different ``compress=`` setting keeps
        #: its dirty filter intact.  Rebuilt lazily.
        self._stored_sig: dict[Oid, tuple[int, int]] = {}
        #: oid -> shallow state snapshot of the clean live object.
        self._shadow: dict[Oid, Any] = {}
        #: oid -> target OID of the last *stored* weak-reference record.
        #: Weak records used to be rebuilt and re-serialised on every
        #: stabilise "just in case"; this cache (the weakref analogue of
        #: the shadow snapshot — weakrefs have no snapshot by design)
        #: skips the rebuild when the resolved target has not moved.
        self._weak_stored: dict[Oid, Optional[Oid]] = {}
        #: Objects serialised since open (observability for benchmarks:
        #: incremental stabilisation keeps this close to the dirty count).
        self.encode_count = 0
        #: Weak-reference records actually rebuilt (the `_weak_stored`
        #: cache keeps this from growing on clean re-stabilises).
        self.weak_rebuilds = 0
        self._active_txn = None
        self._closed = False
        # Serialises the stabilise walk/commit phases and their
        # bookkeeping, so several threads may call stabilize()
        # concurrently — the encode phase and the wait for durability
        # both run *outside* this lock, so over a pipelined engine their
        # batches coalesce into group commits while other threads walk.
        # Re-entrant because collect_garbage() stabilises internally.
        self._commit_lock = threading.RLock()
        #: Per-OID commit sequence: the walk number of the stabilise
        #: whose commit phase last installed the OID.  With the encode
        #: phase outside the lock, two concurrent stabilises can reach
        #: their commit phase out of walk order; the later walk always
        #: wins — an earlier one skips any OID a later one installed, so
        #: a stale encoding can never overwrite a fresher committed one,
        #: and writes any other, because a later commit overwrites it.
        self._commit_seq: dict[Oid, int] = {}
        #: Walk number -> durability ticket of each submitted commit
        #: whose stabilise is still waiting on it.  A stabilise that
        #: leaves a record to such a commit waits on its ticket too.
        self._in_flight: dict[int, Any] = {}
        self._stabilize_seq = 0
        #: Bumped by every garbage collection; a stabilise whose walk
        #: predates the sweep re-walks instead of committing records
        #: that may reference freed OIDs.
        self._gc_seq = 0
        #: The per-record codec new writes go through (``None``: raw).
        self._codec = parse_codec(compress)
        #: Cumulative stabilise-phase counters behind :meth:`stats`, now
        #: registry instruments (``stats()`` stays as the compat view).
        #: Every increment happens under the commit lock, which keeps
        #: them *exact* — N racing stabilises count exactly N — not just
        #: GIL-atomic-enough.  Instrument references are cached here so
        #: the commit path never takes the registry's creation mutex.
        m = self._metrics
        self._phase_counters = {
            "stabilize_count": m.counter("store_stabilize_total"),
            "walk_ns": m.counter("store_walk_ns_total"),
            "encode_ns": m.counter("store_encode_ns_total"),
            "commit_ns": m.counter("store_commit_ns_total"),
            "encoded_bytes": m.counter("store_encoded_bytes_total"),
            "compressed_bytes": m.counter("store_compressed_bytes_total"),
        }
        #: Lock-free identity-map hits on the seqlock fast path.  A
        #: plain int + pull gauge, *not* a Counter: the hottest read
        #: path in the store pays one ``+= 1``, identical with metrics
        #: on or off (a bound-method ``inc`` measurably slows the
        #: seqlock hit — see [B9]).
        self._fastpath_hits = 0
        m.gauge_fn("store_fastpath_hits_total",
                   lambda: self._fastpath_hits)
        # Pull gauges over the serving components' native counters.
        m.gauge_fn("store_lock_writer_wait_ns",
                   lambda: self._serve_lock.writer_wait_ns)
        m.gauge_fn("store_lock_write_acquires_total",
                   lambda: self._serve_lock.write_acquires)
        m.gauge_fn("store_cache_live_objects",
                   lambda: len(self._identity))
        m.gauge_fn("store_cache_demotions_total",
                   lambda: self._identity.demotions)
        m.gauge_fn("store_cache_weak_deaths_total",
                   lambda: self._identity.weak_deaths)
        m.gauge_fn("store_fault_plans_total",
                   lambda: self._planner.plans)
        m.gauge_fn("store_fault_waves_total",
                   lambda: self._planner.total_waves)
        #: Ticket of the most recent engine commit this store submitted
        #: (for awaiting an ``async``-policy engine's durability).
        self.last_commit = None
        #: Count of write-side operations (stabilise, garbage collection)
        #: currently in flight.  Read *without* a lock by the serving
        #: fast path (plain int loads are atomic under the GIL): while a
        #: commit is running, readers route through the shared lock —
        #: whose sleeping naturally throttles a reader stampede — so the
        #: committing thread and the engine worker threads it waits on
        #: are never starved of scheduler slots by spinning cache hits.
        self._write_busy = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, directory: str,
             registry: ClassRegistry | None = None) -> "ObjectStore":
        """Open (creating if necessary) a file-backed store in
        ``directory``."""
        return cls(directory, registry)

    @classmethod
    def in_memory(cls,
                  registry: ClassRegistry | None = None) -> "ObjectStore":
        """An ephemeral store over a fresh
        :class:`~repro.store.engine.memory.MemoryEngine`; nothing survives
        :meth:`close`."""
        return cls(registry=registry, engine=MemoryEngine())

    @classmethod
    def from_url(cls, url: str,
                 registry: ClassRegistry | None = None) -> "ObjectStore":
        """Open a store over the backend a storage URL names.

        ``"file:/path"``, ``"sqlite:/path"``, ``"memory:"`` and
        ``"sharded:N:CHILD-URL"`` (plus bare paths, which mean the file
        backend) are understood — see
        :func:`repro.store.engine.factory.engine_from_url`.  Store-level
        query parameters are split off here; everything else tunes the
        engine.  ``?cache_objects=50000`` bounds the object cache,
        and ``?compress=zlib:1`` (or ``lzma:0``) compresses new record
        writes per record.  Telemetry defaults
        on: ``?metrics=0`` disables it, ``?slow_op_ms=N`` logs one
        structured line per engine op slower than N milliseconds.
        Tracing defaults off: ``?trace_sample=N`` head-samples one in N
        faults/stabilises into a span tree, ``?slow_trace_ms=N`` keeps
        every trace slower than N milliseconds, and ``?trace_log=PATH``
        appends kept spans to a JSONL sink.
        """
        from repro.store.engine.factory import (
            engine_from_url,
            split_store_url,
        )
        engine_url, store_options = split_store_url(url)
        return cls(registry=registry, engine=engine_from_url(engine_url),
                   **store_options)

    def close(self) -> None:
        """Flush and close; the store object is unusable afterwards.

        Closing an engine with a commit pipeline drains the pipeline
        first: every in-flight ``async`` commit is either durable when
        ``close`` returns or the pipeline's failure is raised — the
        store is marked closed either way, never half-open.
        """
        if self._closed:
            return
        self._closed = True
        self._engine.close()
        self._tracer.close()

    def flush(self) -> None:
        """Durability barrier: block until every commit this store has
        submitted is durable (a no-op over direct engines, whose
        ``apply`` already returns post-commit).  Re-raises the commit
        pipeline's failure if an ``async`` commit was lost."""
        self._check_open()
        self._engine.flush()

    def __enter__(self) -> "ObjectStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def engine(self) -> StorageEngine:
        """The storage engine this store runs over."""
        return self._engine

    @property
    def directory(self) -> Optional[str]:
        """The backing directory, or ``None`` for non-file engines."""
        return getattr(self._engine, "directory", None)

    @property
    def is_closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise StoreClosedError("the store has been closed")

    # ------------------------------------------------------------------
    # roots
    # ------------------------------------------------------------------

    def set_root(self, name: str, obj: Any) -> Oid:
        """Bind ``obj`` as the persistent root called ``name``.

        The binding becomes durable at the next :meth:`stabilize`.
        """
        self._check_open()
        oid = self._ensure_oid(obj)
        self._roots[name] = oid
        return oid

    def get_root(self, name: str) -> Any:
        """The object bound to root ``name`` (fetched if not yet live)."""
        self._check_open()
        try:
            oid = self._roots[name]
        except KeyError:
            raise UnknownRootError(name) from None
        return self.object_for(oid)

    def delete_root(self, name: str) -> None:
        """Unbind a root; its objects survive until garbage collection."""
        self._check_open()
        if name not in self._roots:
            raise UnknownRootError(name)
        del self._roots[name]

    def has_root(self, name: str) -> bool:
        return name in self._roots

    def root_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._roots))

    def root_oid(self, name: str) -> Oid:
        try:
            return self._roots[name]
        except KeyError:
            raise UnknownRootError(name) from None

    def root_bindings(self) -> dict[str, Oid]:
        """A copy of the current name -> OID root table (transactions use
        this to snapshot and restore bindings without reaching into store
        internals)."""
        return dict(self._roots)

    def restore_root_bindings(self, bindings: dict[str, Oid]) -> None:
        """Replace the live root table (transaction abort)."""
        self._roots = dict(bindings)

    # ------------------------------------------------------------------
    # identity / oids
    # ------------------------------------------------------------------

    def oid_of(self, obj: Any) -> Optional[Oid]:
        """The OID of a live object, or ``None`` if it has none yet."""
        return self._identity.oid_for(obj)

    def _ensure_oid(self, obj: Any,
                    snaps: Optional[dict[int, Any]] = None) -> Oid:
        """The OID of ``obj``, allocating one if it has none yet.

        A walk passes ``snaps`` to keep the snapshot that validated a
        newly reached object, so the walk reads its state only once.
        """
        oid = self._identity.oid_for(obj)
        if oid is None:
            if type(obj) is not PersistentWeakRef:
                # Validate up front that the object is storable at all, so
                # errors surface at set_root time rather than at stabilise.
                snap = self._serializer.snapshot(obj)
                if snaps is not None:
                    snaps[id(obj)] = snap
            with self._serve_lock.write_locked():
                oid = self._identity.oid_for(obj)
                if oid is None:
                    oid = self._allocator.allocate()
                    # No capacity enforcement here: a stabilise walk
                    # registering thousands of new (dirty, pinned)
                    # objects must not demote the clean tail one victim
                    # at a time mid-walk; the next fetch trims.
                    self._identity.add(oid, obj, enforce=False)
        return oid

    def is_stored(self, oid: Oid) -> bool:
        return self._engine.contains(oid)

    def stored_oids(self) -> tuple[Oid, ...]:
        return tuple(sorted(self._engine.oids()))

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def object_for(self, oid: Oid) -> Any:
        """Materialise (or return the live) object named by ``oid``.

        Fetch is closure-based: the whole subgraph below ``oid`` that is
        not yet live is decoded in two phases (shells, then fills), so
        shared structure and cycles come back exactly as stored.

        Thread-safe: the hot path (the object is live) is an optimistic
        *lock-free* probe — it samples the serve lock's seqlock epoch,
        reads the identity map (whose single operations are atomic),
        and accepts the result only if no write-locked section
        overlapped the probe.  A write section installs shells before
        filling them, so only a probe provably free of such overlap may
        trust what it saw; anything else falls back to the shared read
        lock.  Besides being faster, the lock-free hit keeps a stampede
        of cache-hit readers off the lock's condition mutex, whose
        convoy on few-core hosts can starve a concurrent stabilise for
        tens of seconds.  A fault plans its closure in engine-parallel
        waves *without* holding the lock — so N threads faulting
        disjoint subgraphs overlap their engine I/O — and installs the
        result under the write lock, re-validating against concurrent
        faults and evictions (losing a race costs a re-plan, never a
        torn object or a duplicate identity).
        """
        self._check_open()
        lock = self._serve_lock
        before = lock.seq
        # Optimistic only in the quiescent state: no serve-side writer
        # (odd seq) and no stabilise/GC in flight (`_write_busy`).  The
        # second condition is purely about scheduling, not safety — a
        # spinning cache-hit loop that never sleeps monopolises the
        # interpreter on few-core hosts, starving the committing thread
        # and the engine workers it hands off to; routing readers
        # through the shared lock while a commit runs puts them to
        # sleep on contention instead.
        if not before & 1 and not self._write_busy:
            live = self._identity.hit(oid)
            if live is not None and lock.seq == before:
                self._fastpath_hits += 1
                return live
        else:
            # A commit (or serve-side writer) is in flight.  Yield the
            # GIL for half a millisecond before queueing on the shared
            # lock: the throttle itself must *sleep*, not merely take a
            # different lock — N readers cycling any mutex still starve
            # the commit's cross-thread handoffs on few-core hosts.
            time.sleep(0.0005)
        with lock.read_locked():
            live = self._identity.object_for(oid)
        if live is not None:
            return live
        return self._fault(oid)

    def _is_live(self, oid: Oid) -> bool:
        """Planner liveness callback (no LRU side effects)."""
        return self._identity.peek(oid) is not None

    def _fault(self, oid: Oid) -> Any:
        with self._tracer.root("store.fault"):
            return self._fault_miss(oid)

    def _fault_miss(self, oid: Oid) -> Any:
        if not self._engine.contains(oid):
            raise UnknownOidError(int(oid))
        delay = 0.001
        for attempt in range(_FAULT_RETRIES):
            epoch = self._epoch
            try:
                plan = self._planner.closure([oid], self._is_live)
            except UnknownOidError:
                if attempt == _FAULT_RETRIES - 1:
                    raise
                # A reference did not resolve: either genuine corruption
                # (the retries re-raise it unchanged) or a transient torn
                # window — a sharded engine read mid-two-phase-commit, or
                # a GC sweep racing this plan.  Back off briefly and
                # re-plan.
                time.sleep(delay)
                delay *= 2
                continue
            with self._serve_lock.write_locked():
                obj = self._install_plan(oid, plan, epoch)
            if obj is not None:
                return obj
            # The plan went stale (a concurrent refresh/eviction removed
            # an object the plan assumed live, or the epoch moved).
        # Final attempt: plan *and* install under the write lock, where
        # nothing can shift underneath the plan.
        with self._serve_lock.write_locked():
            plan = self._planner.closure([oid], self._is_live)
            obj = self._install_plan(oid, plan, self._epoch)
            if obj is None:  # pragma: no cover - exclusive plan is stable
                raise UnknownOidError(int(oid))
            return obj

    def _install_plan(self, target: Oid, plan: FetchPlan,
                      epoch: int) -> Optional[Any]:
        """Install a planned closure into the identity map; returns the
        target object, or ``None`` when the plan is stale and the caller
        must re-plan.  Caller holds the write lock.
        """
        if epoch != self._epoch:
            return None
        live = self._identity.peek(target)
        if live is not None:
            return live  # another thread faulted it first
        # Skip records that went live since planning; what remains must
        # resolve every reference within itself or the live map, or the
        # plan raced an eviction and is stale.  Live dependencies are
        # *pinned* (a strong reference held for the rest of the install)
        # — a weak-tier dependency judged alive here could otherwise be
        # collected before phase 2 resolves it, since object death needs
        # no lock.
        needed: dict[Oid, tuple[bytes, Record]] = {}
        for record_oid, entry in plan.records.items():
            if self._identity.peek(record_oid) is None:
                needed[record_oid] = entry
        if target not in needed:
            return None
        pinned: dict[Oid, Any] = {}
        for record_oid, (_, record) in needed.items():
            for ref in record_refs(record, include_weak=True):
                if ref in needed or ref in pinned:
                    continue
                live_ref = self._identity.peek(ref)
                if live_ref is None:
                    return None
                pinned[ref] = live_ref
        installed: list[Oid] = []
        try:
            # Phase 1: shells.  Capacity enforcement is deferred to the
            # end of the install: demoting an LRU victim mid-install
            # could kill an object a later fill still resolves.
            for record_oid, (_, record) in needed.items():
                self._identity.add(record_oid,
                                   self._serializer.make_shell(record),
                                   enforce=False)
                installed.append(record_oid)
            # Phase 2: fill.
            for record_oid, (_, record) in needed.items():
                shell = self._identity.peek(record_oid)
                self._serializer.fill_shell(shell, record, self._resolve)
        except BaseException:
            # A failed install (schema mismatch, converter error) must
            # not leave half-filled shells behind: a later fetch would
            # find them "live" and serve torn objects forever.
            for record_oid in installed:
                self._identity.evict(record_oid)
                self._shadow.pop(record_oid, None)
            raise
        # Phase 3: freshly materialised objects are clean by construction
        # (their live state *is* the stored state), so seed the dirty
        # tracker — unless an evolution converter ran, in which case the
        # next stabilise must rewrite the record under the new schema.
        for record_oid, (raw, record) in needed.items():
            self._stored_sig[record_oid] = (len(raw), zlib.crc32(raw))
            obj = self._identity.peek(record_oid)
            snap = self._snapshot_if_clean(obj, record)
            if snap is not None:
                self._shadow[record_oid] = snap
        # Hold the target strongly before cache maintenance: were it
        # demoted here, nothing else would pin it yet and the weak
        # reference could die before the caller ever saw the object.
        result = self._identity.peek(target)
        self._identity.enforce_capacity()
        return result

    def _snapshot_if_clean(self, obj: Any, record: Record) -> Any:
        """A snapshot for a just-fetched object, or ``None`` when the live
        state already differs from the stored record (schema conversion)."""
        if record.kind == KIND_WEAKREF:
            return None
        snap = self._serializer.snapshot(obj)
        if snap is not None and snap[0] == "instance" \
                and snap[1] != record.fingerprint:
            return None
        return snap

    def _resolve(self, oid: Oid) -> Any:
        obj = self._identity.peek(oid)
        if obj is None:
            raise UnknownOidError(int(oid))
        return obj

    def _read_record(self, oid: Oid) -> Record:
        # Unwrap any codec frame first: stored signatures are over the
        # raw record bytes whatever codec wrote them.
        raw = unwrap_record(self._engine.read(oid))
        self._stored_sig[oid] = (len(raw), zlib.crc32(raw))
        return Record.from_bytes(raw)

    def refresh(self, obj: Any) -> Any:
        """Discard in-memory state of ``obj``'s OID and re-fetch from disk.

        Evict-and-refault is one atomic step under the write lock: a
        concurrent ``object_for`` either sees the old object (before) or
        the re-fetched one (after) — it can no longer slip between the
        eviction and the re-fetch and resurrect the stale shell.
        """
        self._check_open()
        with self._serve_lock.write_locked():
            oid = self._identity.oid_for(obj)
            if oid is None or not self._engine.contains(oid):
                raise UnknownOidError("object is not stored")
            self._identity.evict(oid)
            self._shadow.pop(oid, None)
            plan = self._planner.closure([oid], self._is_live)
            fresh = self._install_plan(oid, plan, self._epoch)
            if fresh is None:  # pragma: no cover - exclusive plan is stable
                raise UnknownOidError(int(oid))
            return fresh

    def evict_all(self) -> None:
        """Drop every live object; subsequent fetches re-read from disk.

        Used by transaction abort: live objects mutated inside the aborted
        transaction become unreachable through the store, and fresh fetches
        observe the last stabilised state.
        """
        with self._serve_lock.write_locked():
            self._identity.clear()
            self._shadow.clear()
            self._epoch += 1

    # -- bounded-cache policy ------------------------------------------

    def _may_demote(self, oid: Oid, obj: Any) -> bool:
        """Whether an LRU victim may leave the strong set: only objects
        whose current state still matches their last-stored state —
        unstabilised mutations must never become collectable.

        The cheap test is the clean-state snapshot; an object without
        one (promoted back from the weak tier — demotion dropped its
        snapshot — or registered by a walk) is re-encoded and its bytes
        compared against the stored signature instead.  Either check
        errs towards pinning.
        """
        shadow = self._shadow.get(oid)
        if shadow is not None:
            return snapshots_equal(shadow, self._serializer.snapshot(obj))
        sig = self._stored_sig.get(oid)
        if sig is None:
            return False  # never stored (or sig not yet seen): pin it

        def known_oid(child: Any) -> Oid:
            child_oid = self._identity.oid_for(child)
            if child_oid is None:
                # References an object the store has never seen: the
                # victim must be dirty (a new edge).
                raise LookupError(int(oid))
            return child_oid

        try:
            raw = self._serializer.encode_object(oid, obj, known_oid) \
                .to_bytes()
        except Exception:
            return False
        return (len(raw), zlib.crc32(raw)) == sig

    def _on_demoted(self, oid: Oid) -> None:
        """A demoted object's snapshot would pin its children (snapshots
        hold plain references); drop it — if the object survives and is
        walked again it is simply re-encoded, and the byte-signature
        filter suppresses the redundant write."""
        self._shadow.pop(oid, None)

    # ------------------------------------------------------------------
    # stabilisation (checkpoint)
    # ------------------------------------------------------------------

    def stabilize(self) -> int:
        """Make the state reachable from the roots durable; returns the
        number of records written.

        This is PJama's ``stabilizeAll``: persistence by reachability.  The
        live graph is walked from the root objects along strong edges, but
        only *dirty* nodes — mutated or newly reached since the last
        stabilise, per the snapshot tracker — are re-serialised.  Changed
        records go to the engine as one atomic batch.

        The work runs in **three phases** (the write-path twin of the
        read path's plan-outside-the-lock shape):

        1. *Walk* — under the commit lock: reachability, dirty detection
           and flattening (OID assignment needs the identity map), all
           from one snapshot per live node, which yields the dirty
           ``(oid, record)`` set and fresh shadows.
        2. *Encode* — no lock held, on the calling thread: each dirty
           record runs ``to_bytes()`` + crc signature + optional
           per-record compression into the write batch.  Other threads
           walk and commit meanwhile, and crc and compression release
           the GIL.
        3. *Commit* — back under the lock: the batch is submitted and
           the optimistic bookkeeping installed, with the pre-commit
           values kept for rollback.  Per-OID commit sequence numbers
           (stamped here) resolve races between stabilises that reach
           this phase out of walk order: a record a later walk already
           committed is skipped, and the call then also waits for that
           commit.  A garbage collection between walk and commit forces
           a re-walk.

        Thread-safe: over an engine with a ``group`` commit pipeline,
        stabilises from several threads coalesce into shared group
        commits because each thread waits for durability outside the
        lock.  Over an ``async`` pipeline the call returns once the
        batch is submitted; ``self.last_commit`` is its durability
        ticket and :meth:`flush` the barrier.
        """
        self._check_open()
        with self._tracer.root("store.stabilize"):
            return self._stabilize_traced()

    def _stabilize_traced(self) -> int:
        """The stabilise loop proper, run under :meth:`stabilize`'s root
        trace scope (the shared null scope when tracing is off)."""
        with self._commit_lock:
            self._write_busy += 1
        try:
            while True:
                outcome = self._stabilize_once()
                if outcome is None:
                    # A garbage collection slipped between our walk and
                    # commit phases: the encoded records could reference
                    # freed OIDs.  Rare (collections take the commit lock
                    # for their whole mark/sweep), so simply re-walk.
                    continue
                written, seq, ticket, borrowed, rollback = outcome
                if self._engine.asynchronous:
                    return written
                if ticket is not None:
                    # The durability wait happens with no lock held, so
                    # stabilises from several threads coalesce into
                    # shared group commits over a pipelined engine.
                    wait_start = time.perf_counter_ns()
                    try:
                        ticket.result()
                    except BaseException:
                        with self._commit_lock:
                            self._rollback_bookkeeping(seq, rollback)
                            self._in_flight.pop(seq, None)
                        raise
                    with self._commit_lock:
                        self._in_flight.pop(seq, None)
                        self._phase_counters["commit_ns"].inc(
                            time.perf_counter_ns() - wait_start)
                # Records this walk left to another stabilise's commit
                # are durable only once that commit is.
                for other in borrowed:
                    other.result()
                return written
        finally:
            with self._commit_lock:
                self._write_busy -= 1

    def _stabilize_once(self):
        """One walk/encode/commit attempt.

        Returns ``None`` when a concurrent garbage collection
        invalidated the walk (the caller must retry), else a
        ``(written, seq, ticket, borrowed, rollback)`` tuple: ``ticket``
        is the durability ticket of the submitted batch (``None`` when
        the checkpoint was clean), ``borrowed`` the in-flight tickets of
        other stabilises this one's records ride on, and ``rollback``
        the pre-commit bookkeeping for a failed wait.
        """
        # ---- phase 1: walk (commit lock held, no engine I/O) ----------
        walk_start = time.perf_counter_ns()
        with self._commit_lock:
            gc_seq = self._gc_seq
            self._stabilize_seq += 1
            seq = self._stabilize_seq
            reachable, records, fresh_shadows = self._flatten_from_roots()
            walk_ns = time.perf_counter_ns() - walk_start
            active = current_span()
            if active is not None:
                active.child("store.walk", time.time_ns() - walk_ns,
                             walk_ns)

        # ---- phase 2: encode (no lock held, except re-entrantly by a
        # stabilise nested in collect_garbage) --------------------------
        encode_start = time.perf_counter_ns()
        codec = self._codec
        encoded = [encode_record(record, codec)
                   for record in records.values()]
        encode_ns = time.perf_counter_ns() - encode_start
        active = current_span()
        if active is not None:
            active.child("store.encode", time.time_ns() - encode_ns,
                         encode_ns)

        # ---- phase 3: commit (commit lock re-taken) -------------------
        commit_start = time.perf_counter_ns()
        with trace_span("store.commit"), self._commit_lock:
            if self._gc_seq != gc_seq:
                return None
            batch = WriteBatch()
            claimed: list[tuple[EncodedRecord, bool]] = []
            borrowed = set()
            for item in encoded:
                owner = self._commit_seq.get(item.oid, 0)
                pending = self._in_flight.get(owner)
                if owner > seq or (pending is not None and
                                   item.sig == self._stored_sig.get(item.oid)):
                    # A later walk already committed fresher state, or
                    # these very bytes are still in flight in another
                    # stabilise's commit: that commit covers the record.
                    if pending is not None:
                        borrowed.add(pending)
                    continue
                # Equal bytes mean a conservative snapshot fired: the
                # stored record is current, nothing to write.
                if item.sig != self._stored_sig.get(item.oid):
                    batch.write(item.oid, item.stored)
                claimed.append((item, pending is not None))
            # Roots and the allocator cursor are compared *here*, not
            # at walk time: a concurrent stabilise may have submitted
            # newer values since our walk.
            roots = None
            if self._roots != self._submitted_roots:
                roots = dict(self._roots)
                batch.set_roots(roots)
            if int(self._allocator.next_oid) != self._engine.next_oid:
                batch.advance_next_oid(int(self._allocator.next_oid))
            counters = self._phase_counters
            counters["stabilize_count"].inc()
            counters["walk_ns"].inc(walk_ns)
            counters["encode_ns"].inc(encode_ns)
            counters["encoded_bytes"].inc(
                sum(item.raw_len for item in encoded))
            counters["compressed_bytes"].inc(
                sum(len(item.stored) for item in encoded))
            # A fully-clean checkpoint (no writes, roots and allocator
            # cursor already durable) skips the engine entirely — no
            # fsyncs, no metadata rewrite.
            ticket = None
            if not batch.is_empty:
                ticket = self._engine.apply_async(batch)
                self.last_commit = ticket
                if roots is not None:
                    self._submitted_roots = roots
                if not self._engine.asynchronous:
                    self._in_flight[seq] = ticket
            # Bookkeeping is committed optimistically under the lock (the
            # engine's pending overlay already serves the new state to
            # readers); the pre-commit values are kept so a failed commit
            # re-dirties exactly what it covered.  Values another
            # stabilise's still-pending commit installed are not known
            # to be durable, so a failure forgets them instead.
            rollback: dict[Oid, tuple[Any, Any, Any]] = {}
            for item, over_pending in claimed:
                oid = item.oid
                rollback[oid] = ((None, None, _WEAK_UNKNOWN) if over_pending
                                 else (self._stored_sig.get(oid),
                                       self._shadow.get(oid),
                                       self._weak_stored.get(
                                           oid, _WEAK_UNKNOWN)))
                self._commit_seq[oid] = seq
                self._stored_sig[oid] = item.sig
                record = records[oid]
                if record.kind == KIND_WEAKREF:
                    self._weak_stored[oid] = (
                        record.payload.oid
                        if isinstance(record.payload, Ref) else None)
                else:
                    self._shadow[oid] = fresh_shadows[oid]
            counters["commit_ns"].inc(time.perf_counter_ns() - commit_start)
        return len(batch.writes), seq, ticket, borrowed, rollback

    def _rollback_bookkeeping(self, seq: int,
                              rollback: dict[Oid, tuple[Any, Any, Any]]
                              ) -> None:
        """Undo one failed commit's optimistic bookkeeping (caller holds
        the commit lock).  Sequence-guarded: an OID a later commit
        installed belongs to that stabilise now — its bookkeeping
        stands.  The submitted root table is forgotten either way, so
        the next stabilise resubmits the roots."""
        self._submitted_roots = None
        for oid, (sig, snap, target) in rollback.items():
            if self._commit_seq.get(oid) != seq:
                continue
            # Unowned again: an earlier walk still committing this OID
            # writes it rather than deferring to a commit that failed.
            del self._commit_seq[oid]
            if sig is None:
                self._stored_sig.pop(oid, None)
            else:
                self._stored_sig[oid] = sig
            if snap is None:
                self._shadow.pop(oid, None)
            else:
                self._shadow[oid] = snap
            if target is _WEAK_UNKNOWN:
                self._weak_stored.pop(oid, None)
            else:
                self._weak_stored[oid] = target

    def _flatten_from_roots(self) -> tuple[set[Oid], dict[Oid, Record],
                                           dict[Oid, Any]]:
        """Walk the live graph from the roots; returns (reachable-oids,
        records-for-dirty-live-nodes, snapshots-to-commit-on-success).

        Clean nodes (snapshot matches the state stored at the last
        stabilise) are traversed but not re-serialised.  Roots that are
        not live (never fetched this session) contribute their *stored*
        subgraph to the reachable set without being decoded.
        """
        records: dict[Oid, Record] = {}
        fresh_shadows: dict[Oid, Any] = {}
        reachable: set[Oid] = set()
        live_worklist: list[Any] = []
        stored_worklist: list[Oid] = []

        # Snapshot the root table: set_root from another thread must not
        # resize the dict under this iteration.  peek() rather than
        # object_for(): a full walk must not churn the bounded cache's
        # recency order.
        for oid in list(self._roots.values()):
            obj = self._identity.peek(oid)
            if obj is not None:
                live_worklist.append(obj)
            else:
                stored_worklist.append(oid)

        seen_ids: set[int] = set()
        weakrefs: list[tuple[Oid, PersistentWeakRef]] = []
        snapshot = self._serializer.snapshot
        # Snapshots that validated objects first reached by this walk.
        # Each object is walked after the record that reached it, and
        # parents' snapshots keep it alive, so its id stays its own.
        new_snaps: dict[int, Any] = {}

        def ref_oid(child: Any) -> Oid:
            return self._ensure_oid(child, new_snaps)

        def walk_live(start: Any) -> None:
            pending = [start]
            while pending:
                obj = pending.pop()
                if id(obj) in seen_ids:
                    continue
                seen_ids.add(id(obj))
                oid = self._ensure_oid(obj)
                reachable.add(oid)
                if isinstance(obj, PersistentWeakRef):
                    weakrefs.append((oid, obj))
                    continue
                # The one read of the object's state: its references,
                # the dirty test and its record all come from this
                # snapshot, which becomes the shadow once committed.
                snap = new_snaps.pop(id(obj), None)
                if snap is None:
                    snap = snapshot(obj)
                if not snapshots_equal(self._shadow.get(oid), snap):
                    fresh_shadows[oid] = snap
                    self.encode_count += 1
                    records[oid] = snapshot_record(oid, snap, ref_oid)
                pending.extend(snapshot_refs(snap))

        while live_worklist:
            walk_live(live_worklist.pop())

        # Stored-only roots: mark their stored closure reachable.  If the
        # walk reaches an OID whose object *is* live (fetched and possibly
        # mutated), switch back to the live walk so its current state is
        # re-encoded — otherwise mutations behind a never-fetched root
        # would silently miss the checkpoint.
        seen_stored: set[Oid] = set()
        while stored_worklist:
            oid = stored_worklist.pop()
            if oid in seen_stored or oid in reachable:
                continue
            live = self._identity.peek(oid)
            if live is not None:
                walk_live(live)
                continue
            seen_stored.add(oid)
            reachable.add(oid)
            if self._engine.contains(oid):
                for ref in record_refs(self._read_record(oid),
                                       include_weak=False):
                    stored_worklist.append(ref)

        # Weak references never pull their target into persistence: the
        # stored edge points at the target only if it is independently
        # persistent (already stored or strongly reachable this round).
        # This runs *after* both walks — the stored-root walk can switch
        # back into the live walk and surface more weakrefs, and every
        # one of them needs a record or its parent would reference a
        # missing OID.  A weakref whose stored target (per the
        # ``_weak_stored`` cache) is unchanged since its last commit is
        # skipped outright — previously every stabilise rebuilt and
        # re-serialised every live weakref just for the byte-signature
        # filter to discover it unchanged.
        for oid, weakref in weakrefs:
            target = weakref.get()
            target_oid = None
            if target is not None:
                candidate = self._identity.oid_for(target)
                if candidate is not None and (candidate in reachable
                                              or self._engine.contains(candidate)):
                    target_oid = candidate
            if (self._weak_stored.get(oid, _WEAK_UNKNOWN) == target_oid
                    and oid in self._stored_sig):
                continue  # stored weak record already points at target_oid
            self.weak_rebuilds += 1
            payload = Ref(target_oid) if target_oid is not None else None
            records[oid] = Record(oid, KIND_WEAKREF, "", "", payload)
        return reachable, records, fresh_shadows

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------

    def collect_garbage(self) -> int:
        """Disk garbage collection: free stored objects unreachable from the
        roots along strong edges, and clear weak references to them.

        Returns the number of freed objects.  Mirrors the paper's Figure 7
        requirement: hyper-programs held only through weak references become
        collectable once no strong user references remain.

        Holds the commit lock for the whole mark/sweep: a stabilise
        committing fresh objects between the mark walk and the victim
        sweep would get them deleted as garbage.
        """
        self._check_open()
        with self._commit_lock:
            self._write_busy += 1
            try:
                return self._collect_garbage_locked()
            finally:
                self._write_busy -= 1

    def _collect_garbage_locked(self) -> int:
        # Bring the durable state up to date first, so the mark phase can
        # run purely over stored records: collecting against a stale disk
        # image could free objects the durable graph still references.
        self.stabilize()
        marked: set[Oid] = set()
        worklist: list[Oid] = list(self._roots.values())
        while worklist:
            oid = worklist.pop()
            if oid in marked:
                continue
            marked.add(oid)
            if self._engine.contains(oid):
                for ref in record_refs(self._read_record(oid),
                                       include_weak=False):
                    if ref not in marked:
                        worklist.append(ref)

        victims = [oid for oid in self._engine.oids() if oid not in marked]
        batch = WriteBatch()
        freed = set(victims)
        for oid in victims:
            batch.delete(oid)
        # Clear stored weak references whose targets are being freed (or
        # were already missing).
        for oid in self._engine.oids():
            if oid in freed:
                continue
            record = self._read_record(oid)
            if record.kind == KIND_WEAKREF and isinstance(record.payload, Ref):
                target = record.payload.oid
                if target in freed or not self._engine.contains(target):
                    cleared = Record(oid, KIND_WEAKREF, "", "", None)
                    batch.write(oid, cleared.to_bytes())
                    live = self._identity.peek(oid)
                    if isinstance(live, PersistentWeakRef):
                        live.clear()
        # One atomic batch: deletions and weak-reference clears commit (and
        # recover) together, so a crash cannot leave a cleared weakref
        # without its deletion or vice versa.
        if not batch.is_empty:
            self._engine.apply(batch)
        for oid, raw in batch.writes:
            self._stored_sig[oid] = (len(raw), zlib.crc32(raw))
            # Every write here is a cleared weak record.
            self._weak_stored[oid] = None
        # Invalidate any stabilise caught between its walk and commit
        # phases: its encoded records may reference OIDs this sweep just
        # freed, so it must re-walk (see ``_stabilize_once``).
        self._gc_seq += 1
        # Evictions happen exclusively against the serving threads, and
        # the epoch moves: a fault whose plan predates this sweep could
        # otherwise install freed records from its stale reads.
        with self._serve_lock.write_locked():
            # Clear live weak references pointing at freed objects —
            # before the victims leave the identity map, while their
            # targets still resolve to OIDs.
            for oid, obj in self._identity.items():
                if isinstance(obj, PersistentWeakRef) \
                        and obj.get() is not None:
                    target_oid = self._identity.oid_for(obj.get())
                    if target_oid is not None and target_oid in freed:
                        obj.clear()
            for oid in victims:
                self._identity.evict(oid)
                self._shadow.pop(oid, None)
                self._stored_sig.pop(oid, None)
                self._weak_stored.pop(oid, None)
                self._commit_seq.pop(oid, None)
            self._epoch += 1
        # Reclaim space the deletions left behind.
        self._engine.compact()
        return len(victims)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------

    def transaction(self) -> "Transaction":
        """A commit-on-success / revert-on-failure scope around mutations.

        See :class:`repro.store.transactions.Transaction`.
        """
        from repro.store.transactions import Transaction
        return Transaction(self)

    @property
    def active_transaction(self):
        """The currently open transaction, or ``None``."""
        return self._active_txn

    def _begin_transaction(self, txn: Any) -> None:
        from repro.errors import TransactionError
        if self._active_txn is not None:
            raise TransactionError("store already has an active transaction")
        self._active_txn = txn

    def _end_transaction(self, txn: Any) -> None:
        if self._active_txn is txn:
            self._active_txn = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def statistics(self) -> StoreStatistics:
        return StoreStatistics(
            object_count=self._engine.object_count,
            root_count=len(self._roots),
            live_count=len(self._identity),
            heap_pages=self._engine.page_count,
            next_oid=int(self._allocator.next_oid),
        )

    def stats(self) -> dict[str, int]:
        """Stabilise-phase counters, cumulative over the store's life.

        ``walk_ns`` / ``encode_ns`` / ``commit_ns`` attribute each
        stabilise's wall time to its three phases (commit includes the
        durability wait on synchronous engines); ``encoded_bytes`` is
        the raw serialised volume and ``compressed_bytes`` the volume
        actually handed to the engine (equal when no codec is in force
        or compression never won).  ``encode_count`` counts dirty
        non-weak records serialised by walks; ``weak_rebuilds`` counts
        weak records rebuilt because their stored target changed.

        This is the compatibility view over the store's
        :class:`~repro.store.obs.MetricsRegistry` counters; with
        ``metrics=False`` the phase counters are no-ops and read zero.
        """
        with self._commit_lock:
            out = {name: counter.value
                   for name, counter in self._phase_counters.items()}
        out["encode_count"] = self.encode_count
        out["weak_rebuilds"] = self.weak_rebuilds
        return out

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The store's telemetry registry (shared with its engine
        wrapper; disabled under ``metrics=False``)."""
        return self._metrics

    def metrics(self) -> dict:
        """A plain-dict snapshot of every store and engine instrument
        (see :meth:`repro.store.obs.MetricsRegistry.snapshot`)."""
        return self._metrics.snapshot()

    @property
    def tracer(self) -> Tracer:
        """The store's span tracer (inert unless ``trace_sample``,
        ``slow_trace_ms`` or ``trace_log`` configured it).  Kept traces
        land in ``tracer.spans`` (a :class:`~repro.store.obs.SpanLog`)
        and, when a sink path was given, in the JSONL trace log."""
        return self._tracer

    def stored_record(self, oid: Oid) -> Record:
        """The stored record for an OID (browser / debugging use)."""
        self._check_open()
        if not self._engine.contains(oid):
            raise UnknownOidError(int(oid))
        return self._read_record(oid)

    def verify_referential_integrity(self) -> list[str]:
        """Check that every stored reference resolves; returns problems found
        (empty list means the store is sound)."""
        problems: list[str] = []
        for oid in self._engine.oids():
            record = self._read_record(oid)
            for ref in record_refs(record, include_weak=True):
                if not self._engine.contains(ref):
                    problems.append(
                        f"oid {int(oid)} references missing oid {int(ref)}"
                    )
        for name, oid in self._roots.items():
            if not self._engine.contains(oid) and \
                    self._identity.peek(oid) is None:
                problems.append(f"root {name!r} names missing oid {int(oid)}")
        return problems
