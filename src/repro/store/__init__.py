"""Orthogonally persistent object store — the PJama-analogue substrate.

The paper's hyper-programming system rests on "a persistent store with
root(s), reachability and referential integrity" (Section 1).  This package
provides that substrate for Python:

* :class:`~repro.store.objectstore.ObjectStore` — named roots, persistence by
  reachability, an identity map so every OID has at most one live object, and
  referential integrity (an OID reachable from a stored object always
  resolves).
* :class:`~repro.store.registry.ClassRegistry` — typed-object fidelity: every
  stored instance is re-bound to its registered class and checked against a
  schema fingerprint on fetch, which plain pickle does not guarantee.
* :mod:`~repro.store.engine` — pluggable storage engines behind one
  atomic-batch interface: :class:`~repro.store.engine.FileEngine` (a
  slotted-page heap file plus a write-ahead log, giving stabilisation
  (checkpoint) and crash recovery),
  :class:`~repro.store.engine.MemoryEngine` (ephemeral, for scratch
  stores and tests), :class:`~repro.store.engine.SqliteEngine` (one
  transactional SQLite file) and
  :class:`~repro.store.engine.ShardedEngine` (the OID space partitioned
  over N child engines with a two-phase cross-shard commit).  The
  :func:`open_store` factory picks a backend by URL.
* :mod:`~repro.store.gc` — a reachability collector over the stored graph
  with persistent *weak references*, as required by the paper's Figure 7 for
  collectable hyper-programs.
* :mod:`~repro.store.transactions` — begin/commit/abort built on the WAL, as
  assumed by the paper's Section 7 evolution discussion.
"""

from repro.store.oids import Oid, OidAllocator
from repro.store.registry import ClassRegistry, persistent
from repro.store.serializer import Record, RecordCodec, Serializer, parse_codec
from repro.store.engine import (
    FileEngine,
    MemoryEngine,
    ShardedEngine,
    SqliteEngine,
    StorageEngine,
    WriteBatch,
    engine_from_url,
)
from repro.store.commit import (
    AsyncPolicy,
    CommitPipeline,
    CommitTicket,
    DurabilityPolicy,
    GroupPolicy,
    PipelinedEngine,
    SyncPolicy,
)
from repro.store.serve import FetchPlanner, ObjectCache, ReadWriteLock
from repro.store.net import RemoteEngine, RouterEngine, StoreServer
from repro.store.objectstore import ObjectStore
from repro.store.weakrefs import PersistentWeakRef
from repro.store.transactions import Transaction


def open_store(url: str, registry=None) -> ObjectStore:
    """Open a store over the backend named by a storage URL.

    Understood URLs (see :mod:`repro.store.engine.factory`):

    * ``"file:/path"`` (or a bare path) — the heap + WAL file backend;
    * ``"sqlite:/path"`` — one transactional SQLite file;
    * ``"memory:"`` — ephemeral, nothing survives close;
    * ``"sharded:N:CHILD-URL"`` — N shards of the child backend, e.g.
      ``"sharded:4:sqlite:/path"``.

    A query string tunes the stack: engine keys are listed in the
    factory module; store-level keys are ``?cache_objects=N`` (bound
    the live-object cache — at most N clean objects pinned strongly,
    the tail demoted to weak references) and ``?compress=zlib:1`` (a
    per-record codec for new writes; ``zlib`` / ``lzma``, optional
    ``:level``).
    """
    return ObjectStore.from_url(url, registry=registry)


__all__ = [
    "Oid",
    "OidAllocator",
    "ClassRegistry",
    "persistent",
    "Serializer",
    "Record",
    "RecordCodec",
    "parse_codec",
    "StorageEngine",
    "WriteBatch",
    "FileEngine",
    "MemoryEngine",
    "SqliteEngine",
    "ShardedEngine",
    "PipelinedEngine",
    "CommitPipeline",
    "CommitTicket",
    "DurabilityPolicy",
    "SyncPolicy",
    "GroupPolicy",
    "AsyncPolicy",
    "engine_from_url",
    "RemoteEngine",
    "RouterEngine",
    "StoreServer",
    "ObjectStore",
    "ObjectCache",
    "ReadWriteLock",
    "FetchPlanner",
    "open_store",
    "PersistentWeakRef",
    "Transaction",
]
