"""The concurrent commit pipeline.

Storage engines make one :class:`~repro.store.engine.base.WriteBatch`
durable per :meth:`~repro.store.engine.base.StorageEngine.apply` call,
which puts an fsync floor under every commit.  This package brokers
*concurrent* commits instead of serialising them:

* :class:`~repro.store.commit.policy.DurabilityPolicy` — when a commit
  call may return relative to durability (``sync``, ``group``,
  ``async``);
* :class:`~repro.store.commit.pipeline.CommitPipeline` — the queue and
  dedicated committer thread that coalesces submitted batches into
  group commits (one engine ``apply_many`` — for the file backend, one
  WAL append run and a single fsync — per group);
* :class:`~repro.store.commit.pipeline.PipelinedEngine` — a wrapper
  :class:`~repro.store.engine.base.StorageEngine` that routes ``apply``
  through a pipeline and keeps queued batches readable (an overlay over
  the child engine), so callers observe their own writes immediately
  whatever the durability policy;
* :class:`~repro.store.commit.pipeline.CommitTicket` — the durability
  future a submission returns.

The store's ``stabilize()`` encodes its dirty records on the calling
thread, outside its commit lock, and hands the batch to whichever of
these engines it runs over.

Engines pick a policy via storage-URL query parameters
(``file:/p?durability=group``) — see
:func:`repro.store.engine.factory.engine_from_url`.
"""

from repro.store.commit.pipeline import (
    CommitPipeline,
    CommitTicket,
    PipelinedEngine,
)
from repro.store.commit.policy import (
    AsyncPolicy,
    DurabilityPolicy,
    GroupPolicy,
    SyncPolicy,
)

__all__ = [
    "CommitPipeline",
    "CommitTicket",
    "PipelinedEngine",
    "DurabilityPolicy",
    "SyncPolicy",
    "GroupPolicy",
    "AsyncPolicy",
]
