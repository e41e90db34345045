"""Store telemetry: metrics registry, engine instrumentation, tracing.

Three small pieces, threaded through every storage layer:

* :mod:`~repro.store.obs.metrics` — the lock-cheap
  :class:`MetricsRegistry` of counters, gauges and power-of-two latency
  histograms, with a plain-dict :meth:`~MetricsRegistry.snapshot` (the
  wire exposition) and a Prometheus-style text renderer;
* :mod:`~repro.store.obs.instrument` — the :class:`TimedEngine`
  decorator timing every :class:`~repro.store.engine.base.StorageEngine`
  operation, plus :func:`bind_engine_metrics`, which walks an engine
  stack and exposes each layer's native counters as pull-model gauges;
* :mod:`~repro.store.obs.trace` — hierarchical span trees: the
  contextvar-propagated :func:`span` context manager, the sampling
  :class:`Tracer`, the bounded :class:`SpanLog` each store server
  keeps, and the durable JSONL :class:`TraceLog` sink.

``open_store(url)`` enables metrics by default (``?metrics=0`` turns
them off; a disabled registry hands out shared no-op instruments, so
the hot paths pay nothing).  ``?slow_op_ms=N`` adds a structured
``logging`` line per engine operation slower than N milliseconds.
These are store-level keys: ``engine_from_url`` rejects them and never
returns a ``TimedEngine``.
``?trace_sample=N`` samples 1 in N store ops into a span tree,
``?slow_trace_ms=F`` always keeps traces slower than F milliseconds,
and ``?trace_log=PATH`` makes captured spans durable as JSONL.
"""

from repro.store.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    merge_snapshots,
    render_prometheus,
)
from repro.store.obs.instrument import TimedEngine, bind_engine_metrics
from repro.store.obs.trace import (
    JsonLineFormatter,
    Span,
    SpanLog,
    TraceLog,
    Tracer,
    current_span,
    iter_trace_log,
    new_span_id,
    new_trace_id,
    run_with_span,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLineFormatter",
    "MetricsRegistry",
    "Span",
    "SpanLog",
    "TimedEngine",
    "TraceLog",
    "Tracer",
    "bind_engine_metrics",
    "current_span",
    "global_registry",
    "iter_trace_log",
    "merge_snapshots",
    "new_span_id",
    "new_trace_id",
    "render_prometheus",
    "run_with_span",
    "span",
]
