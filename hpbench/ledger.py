"""The benchmark's own span recorder and per-layer cost ledger.

Spans are recorded from the benchmark's files, around each call it makes
into a layer's public functions; nothing inside ``repro`` is
instrumented.  Spans are kept in memory and written out as JSON lines
when the run ends.  A span's *self time* is its duration minus the part
of it its child spans cover.

Layer counters come from the store's own telemetry: ``ObjectStore.stats()``
(the stabilise phase counters) and ``ObjectStore.metrics()`` (engine, WAL,
heap, cache, fault planner and lock gauges), read as deltas around the
operations a traced run measures.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
import traceback


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("ledger", "span_id", "parent", "trace_id", "name",
                 "start_ns", "end_ns")

    def __init__(self, ledger: "Ledger", name: str):
        self.ledger = ledger
        self.name = name

    def __enter__(self):
        ledger = self.ledger
        stack = ledger._stack
        self.parent = stack[-1].span_id if stack else 0
        self.span_id = ledger._next_id
        ledger._next_id += 1
        self.trace_id = ledger.trace_id
        stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info):
        self.end_ns = time.perf_counter_ns()
        self.ledger._stack.pop()
        self.ledger.spans.append(self)
        return False


class Ledger:
    """Span recorder; inert (one attribute test per span) while
    ``enabled`` is false, so untraced operations pay next to nothing."""

    def __init__(self, traced: bool):
        #: Whether this run traces at all (``--trace 1``).
        self.traced = traced
        #: Whether the *current* operation is traced.  A traced run
        #: alternates traced and untraced operations, so the tracing
        #: overhead is measured on interleaved, like-for-like samples.
        self.enabled = False
        self.trace_id = 0
        self.spans: list[_Span] = []
        self._stack: list[_Span] = []
        self._next_id = 1

    def arm(self, sequence: int) -> bool:
        """Trace the operation numbered ``sequence`` (odd ones, in a
        traced run); returns whether it is traced."""
        self.enabled = self.traced and sequence % 2 == 1
        if self.enabled:
            self.trace_id += 1
        return self.enabled

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def durations_us(self, name: str) -> list[float]:
        return [(s.end_ns - s.start_ns) / 1e3 for s in self.spans
                if s.name == name]

    def self_times(self) -> dict[str, dict[str, tuple[int, float, float]]]:
        """``root name -> span name -> (calls, total ms, self ms)``: every
        span grouped under the name of the root span of its operation."""
        by_id = {s.span_id: s for s in self.spans}
        child_ns: dict[int, int] = {}
        for s in self.spans:
            if s.parent:
                child_ns[s.parent] = child_ns.get(s.parent, 0) + \
                    (s.end_ns - s.start_ns)
        table: dict[str, dict[str, list]] = {}
        for s in self.spans:
            root = s
            while root.parent:
                root = by_id[root.parent]
            total = s.end_ns - s.start_ns
            row = table.setdefault(root.name, {}).setdefault(s.name,
                                                             [0, 0, 0])
            row[0] += 1
            row[1] += total
            row[2] += total - child_ns.get(s.span_id, 0)
        return {root: {name: (calls, total / 1e6, own / 1e6)
                       for name, (calls, total, own) in rows.items()}
                for root, rows in table.items()}

    def wrap(self, obj, method: str, name: str) -> None:
        """Span every call of ``obj.method`` made by the program itself
        (such as ``get_link`` from compiled code), by shadowing the
        method on that one instance."""
        inner = getattr(obj, method)
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return inner(*args, **kwargs)
        setattr(obj, method, traced)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "trace": s.trace_id, "span": s.span_id,
                    "parent": s.parent, "name": s.name,
                    "start_ns": s.start_ns, "end_ns": s.end_ns,
                }) + "\n")


#: What :func:`guarded` returns when the operation raised.
FAILED = object()


def guarded(call, *args):
    """Run one benchmark operation; an exception is reported on stderr
    and counted as a failed operation by the caller, not a crash."""
    try:
        return call(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return FAILED


# ---------------------------------------------------------------------------
# Store telemetry
# ---------------------------------------------------------------------------

def telemetry(store) -> dict[str, float]:
    """One flat reading of the counters the ledger uses."""
    snap = store.metrics()
    gauges = snap["gauges"]
    hists = snap["histograms"]

    def gauge(prefix: str) -> float:
        return sum(v for k, v in gauges.items()
                   if k == prefix or k.startswith(prefix + "{"))

    def op(name: str) -> tuple[int, int]:
        count = total = 0
        for key, h in hists.items():
            if key.startswith("engine_op_ns{") and f"op={name}" in key:
                count += h["count"]
                total += h["sum"]
        return count, total

    out = {k: float(v) for k, v in store.stats().items()}
    for name in ("wal_fsyncs_total", "wal_synced_bytes_total",
                 "checkpoints_total", "heap_page_hits_total",
                 "heap_page_misses_total", "store_cache_demotions_total",
                 "store_fault_plans_total", "store_fault_waves_total",
                 "store_lock_writer_wait_ns"):
        out[name] = gauge(name)
    for name in ("fetch_many", "apply", "apply_async", "apply_many"):
        count, total = op(name)
        out[f"{name}_calls"] = count
        out[f"{name}_ns"] = total
    return out


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(top, name))
               for top, __, names in os.walk(path) for name in names)


def delta(after: dict[str, float], before: dict[str, float]
          ) -> dict[str, float]:
    return {k: after[k] - before.get(k, 0.0) for k in after}


def total(samples: list[dict[str, float]], key: str) -> float:
    return sum(s[key] for s in samples)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


#: The tail percentile every latency is reported at.  A 25-second run
#: leaves at least ten samples beyond it on every workload (~15 commits
#: or reopens, ~340 presses), and it is fixed, so a faster program is
#: compared at the same percentile.  Higher percentiles of sub-ms Go
#: presses were dominated by the host's contention bursts (p99 spread
#: 53% between the quartiles of ten runs).
TAIL_PCT = 90


def tail(values: list[float]) -> tuple[float, int]:
    """The nearest-rank ``TAIL_PCT`` percentile and how many samples lie
    beyond it (``(0.0, 0)`` for no samples)."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(math.ceil(TAIL_PCT / 100 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank
