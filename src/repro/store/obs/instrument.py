"""Engine instrumentation: the ``TimedEngine`` decorator and the
native-counter binder.

``TimedEngine`` wraps any :class:`~repro.store.engine.base.StorageEngine`
and records one ``engine_op_ns{engine=...,op=...}`` histogram
observation per contract operation — the per-op latency distribution
every layer above (the store server's STATS_FULL, the router's load
table, ``store_top``) reads.  Two owners install it, each over its
own registry: the ``ObjectStore`` (telemetry is on by default;
``?metrics=0`` turns it off) and the ``StoreServer``.  It
forwards everything else to the child, so engine-specific surface
(``children``, ``pipeline``, ``reserve_oids`` …) keeps working through
the wrapper.

With ``slow_op_ms`` set, any operation slower than the threshold also
emits one structured ``logging`` line on the ``repro.store.slowop``
logger::

    slow op read engine=file dur_ms=12.3 threshold_ms=5.0

:func:`bind_engine_metrics` handles what a wrapper cannot see: it walks
the engine stack (pipeline -> sharded -> file/sqlite/memory/remote) and
registers *pull-model* gauges over each layer's native counters — WAL
fsyncs, heap page-cache hits, commit-pipeline queue depth, two-phase
timings, network reconnects — so existing plain-``int`` bookkeeping
surfaces in snapshots without adding a single write-path instruction.
"""

from __future__ import annotations

import logging
import time
from typing import Iterable, Optional

from repro.store.engine.base import StorageEngine, WriteBatch
from repro.store.obs.metrics import MetricsRegistry
from repro.store.obs.trace import current_span
from repro.store.oids import Oid

__all__ = ["TimedEngine", "bind_engine_metrics"]

#: The slow-op log: one structured line per offending operation.
slow_log = logging.getLogger("repro.store.slowop")

#: Engine contract operations the wrapper times (one histogram each).
_TIMED_OPS = ("read", "contains", "fetch_many", "oids", "roots",
              "apply", "apply_many", "apply_async", "flush", "sync",
              "compact")


class TimedEngine(StorageEngine):
    """A storage engine that times every operation of its child."""

    def __init__(self, child: StorageEngine,
                 registry: Optional[MetricsRegistry] = None,
                 slow_op_ms: Optional[float] = None):
        super().__init__()
        self._child = child
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        if slow_op_ms is not None and slow_op_ms <= 0:
            raise ValueError(
                f"slow_op_ms must be > 0, got {slow_op_ms}")
        self._slow_ns = (int(slow_op_ms * 1e6)
                         if slow_op_ms is not None else None)
        self._slow_ms = slow_op_ms
        # One histogram per op, bound once: the hot path costs one
        # timestamped method call, never a registry lookup.
        engine = child.name
        self._op_hist = {op: self.metrics.histogram("engine_op_ns",
                                                    engine=engine, op=op)
                         for op in _TIMED_OPS}

    # -- timing core -----------------------------------------------------

    def _observe(self, op: str, start_ns: int) -> None:
        dur = time.perf_counter_ns() - start_ns
        self._op_hist[op].observe(dur)
        active = current_span()
        if active is not None:
            # Attach the engine op as a child of whatever traced work
            # caused it (a server dispatch, a store fault/stabilize).
            # The duration is already measured, so record directly
            # rather than re-wrapping the call in a scope.
            active.child("engine." + op,
                         time.time_ns() - dur, dur)
        if self._slow_ns is not None and dur >= self._slow_ns:
            slow_log.warning(
                "slow op %s engine=%s dur_ms=%.3f threshold_ms=%.3f",
                op, self._child.name, dur / 1e6, self._slow_ms,
                extra={"fields": {
                    "event": "slow_op", "op": op,
                    "engine": self._child.name, "dur_ms": dur / 1e6,
                    "threshold_ms": self._slow_ms,
                }})

    # -- composition -----------------------------------------------------

    @property
    def wrapped(self) -> StorageEngine:
        """The engine being timed.  Deliberately *not* named ``child``:
        ``child`` (like ``children``, ``pipeline``) forwards through
        ``__getattr__`` to the wrapped engine, so a wrapped
        ``PipelinedEngine``'s own composition stays visible exactly as
        if this wrapper were not there."""
        return self._child

    @property
    def name(self) -> str:  # type: ignore[override]
        return self._child.name

    @property
    def asynchronous(self) -> bool:  # type: ignore[override]
        return self._child.asynchronous

    @asynchronous.setter
    def asynchronous(self, value: bool) -> None:
        pass  # the child owns the flag; the base initialiser's write lands here

    @property
    def directory(self):
        return getattr(self._child, "directory", None)

    # The physical counters belong to the child (same pattern as
    # PipelinedEngine): one counter however the engine is wrapped.

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

    def __getattr__(self, item: str):
        # Engine-specific surface (children, pipeline, policy,
        # reserve_oids, reset, stats, stats_full, ...) passes through.
        if item.startswith("_"):
            raise AttributeError(item)
        return getattr(self._child, item)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._child.close()

    # -- reads -----------------------------------------------------------

    def read(self, oid: Oid) -> bytes:
        start = time.perf_counter_ns()
        try:
            return self._child.read(oid)
        finally:
            self._observe("read", start)

    def contains(self, oid: Oid) -> bool:
        start = time.perf_counter_ns()
        try:
            return self._child.contains(oid)
        finally:
            self._observe("contains", start)

    def fetch_many(self, oids: Iterable[Oid]) -> dict[Oid, bytes]:
        start = time.perf_counter_ns()
        try:
            return self._child.fetch_many(oids)
        finally:
            self._observe("fetch_many", start)

    def oids(self) -> Iterable[Oid]:
        start = time.perf_counter_ns()
        try:
            return self._child.oids()
        finally:
            self._observe("oids", start)

    @property
    def object_count(self) -> int:
        return self._child.object_count

    def roots(self) -> dict[str, Oid]:
        start = time.perf_counter_ns()
        try:
            return self._child.roots()
        finally:
            self._observe("roots", start)

    @property
    def next_oid(self) -> int:
        return self._child.next_oid

    @property
    def page_count(self) -> int:
        return self._child.page_count

    # -- writes ----------------------------------------------------------

    def apply(self, batch: WriteBatch) -> None:
        start = time.perf_counter_ns()
        try:
            self._child.apply(batch)
        finally:
            self._observe("apply", start)

    def apply_many(self, batches: Iterable[WriteBatch]) -> None:
        start = time.perf_counter_ns()
        try:
            self._child.apply_many(batches)
        finally:
            self._observe("apply_many", start)

    def apply_async(self, batch: WriteBatch):
        start = time.perf_counter_ns()
        try:
            return self._child.apply_async(batch)
        finally:
            self._observe("apply_async", start)

    # -- barriers and maintenance ----------------------------------------

    def flush(self) -> None:
        start = time.perf_counter_ns()
        try:
            self._child.flush()
        finally:
            self._observe("flush", start)

    def sync(self) -> None:
        start = time.perf_counter_ns()
        try:
            self._child.sync()
        finally:
            self._observe("sync", start)

    def compact(self) -> int:
        start = time.perf_counter_ns()
        try:
            return self._child.compact()
        finally:
            self._observe("compact", start)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimedEngine({self._child!r})"


def _gauges_for(registry: MetricsRegistry, obj: object,
                names: dict[str, str], **labels: str) -> None:
    """Pull gauges over ``obj``'s plain-int attributes: ``names`` maps
    gauge name -> attribute name."""
    for gauge_name, attr in names.items():
        registry.gauge_fn(gauge_name,
                          (lambda o=obj, a=attr: getattr(o, a, 0)),
                          **labels)


def bind_engine_metrics(engine: StorageEngine,
                        registry: MetricsRegistry,
                        **labels: str) -> None:
    """Expose an engine stack's native counters as pull-model gauges.

    Walks wrappers and compositions (``TimedEngine`` ->
    ``PipelinedEngine`` -> ``ShardedEngine``/``RouterEngine`` -> leaf
    backends), registering gauges labelled by engine kind (and by
    ``shard=N`` below a sharded engine).  Idempotent: re-binding after
    an engine swap (the server's ``reset``) replaces the callbacks.
    """
    if not registry.enabled:
        return
    if isinstance(engine, TimedEngine):
        bind_engine_metrics(engine.wrapped, registry, **labels)
        return
    child = getattr(engine, "child", None)
    kind = engine.name
    pipeline = getattr(engine, "pipeline", None)
    if pipeline is not None and child is not None:  # PipelinedEngine
        registry.gauge_fn("commit_queue_depth",
                          lambda p=pipeline: p.pending_count, **labels)
        _gauges_for(registry, pipeline, {
            "commit_groups_total": "groups_committed",
            "commit_group_batches_total": "batches_committed",
            "commit_linger_ns_total": "linger_ns",
        }, **labels)
        bind_engine_metrics(child, registry, **labels)
        return
    children = getattr(engine, "children", None)
    if children is not None:  # ShardedEngine / RouterEngine
        _gauges_for(registry, engine, {
            "twophase_commits_total": "two_phase_commits",
            "twophase_prepare_ns_total": "prepare_ns",
            "twophase_marker_ns_total": "marker_ns",
            "twophase_apply_ns_total": "apply_ns",
        }, engine=kind, **labels)
        for index, shard_child in enumerate(children):
            bind_engine_metrics(shard_child, registry,
                                shard=str(index), **labels)
        return
    if kind == "file":
        _gauges_for(registry, engine.wal, {
            "wal_fsyncs_total": "fsyncs",
            "wal_synced_bytes_total": "synced_bytes",
        }, engine=kind, **labels)
        _gauges_for(registry, engine.manifest,
                    {"manifest_fsyncs_total": "fsyncs"},
                    engine=kind, **labels)
        _gauges_for(registry, engine.heap, {
            "heap_page_hits_total": "page_hits",
            "heap_page_misses_total": "page_misses",
            "heap_page_evictions_total": "page_evictions",
            "heap_cached_pages": "cached_pages",
        }, engine=kind, **labels)
        _gauges_for(registry, engine,
                    {"checkpoints_total": "checkpoints"},
                    engine=kind, **labels)
    elif kind == "remote":
        _gauges_for(registry, engine, {
            "net_connects_total": "connects",
            "net_reconnect_retries_total": "reconnect_retries",
            "net_timeouts_total": "timeouts",
        }, engine=kind, endpoint=engine.endpoint, **labels)
    _gauges_for(registry, engine, {
        "engine_record_writes_total": "record_writes",
        "engine_batches_applied_total": "batches_applied",
    }, engine=kind, **labels)
