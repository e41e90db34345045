"""The observability subsystem: metrics core, engine instrumentation,
store counter exactness, and the STATS_FULL/TRACE wire round trip.

Covers the guarantees the telemetry layer actually promises:

* histogram bucket boundaries (power-of-two upper bounds, clamping);
* counter *exactness* for increments made under the commit lock — N
  racing stabilises count exactly N;
* zero-overhead when disabled — a disabled registry hands out one
  shared null instrument and the store leaves its engine unwrapped;
* ``metrics``/``slow_op_ms`` as store-level keys only: the engine
  factory and the store server refuse them, so each ``TimedEngine``
  records into its owner's registry;
* ``STATS_FULL`` against a live store-server subprocess, including the
  ``TRACE`` envelope carrying a client trace id into server spans.
"""

from __future__ import annotations

import logging
import threading

import pytest

from repro.store.engine import MemoryEngine
from repro.store.engine.factory import engine_from_url, split_store_url
from repro.store.obs import (
    MetricsRegistry,
    TimedEngine,
    merge_snapshots,
    new_trace_id,
    render_prometheus,
)
from repro.store.obs.metrics import _NULL, _NUM_BUCKETS, Histogram
from repro.store.objectstore import ObjectStore

from tests.conftest import Person
from tests.store.conftest import _remote_endpoint


# ---------------------------------------------------------------------------
# metrics core
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_bucket_boundaries_are_powers_of_two(self):
        hist = Histogram()
        # v lands in the bucket whose upper bound is the smallest
        # 2**i >= v; 0 and 1 share bucket "1".
        for value in (0, 1, 2, 3, 4, 5, 1023, 1024, 1025):
            hist.observe(value)
        snapshot_buckets = {
            1 << i: c for i, c in enumerate(hist.buckets) if c}
        assert snapshot_buckets == {
            1: 2,      # 0, 1
            2: 1,      # 2
            4: 2,      # 3, 4
            8: 1,      # 5
            1024: 2,   # 1023, 1024
            2048: 1,   # 1025
        }
        assert hist.count == 9
        assert hist.sum == 0 + 1 + 2 + 3 + 4 + 5 + 1023 + 1024 + 1025

    def test_huge_observation_clamps_to_last_bucket(self):
        hist = Histogram()
        hist.observe(1 << 60)
        assert hist.buckets[_NUM_BUCKETS - 1] == 1

    def test_quantile_returns_bucket_upper_bound(self):
        hist = Histogram()
        for _ in range(99):
            hist.observe(100)     # bucket 128
        hist.observe(1 << 20)     # one slow outlier
        assert hist.quantile(0.50) == 128
        assert hist.quantile(0.99) == 128
        assert hist.quantile(1.0) == 1 << 20
        assert Histogram().quantile(0.5) == 0


class TestRegistry:
    def test_labels_flatten_sorted_and_instruments_are_shared(self):
        reg = MetricsRegistry()
        a = reg.counter("ops", op="read", engine="memory")
        b = reg.counter("ops", engine="memory", op="read")
        assert a is b
        a.inc(3)
        snap = reg.snapshot()
        assert snap["counters"] == {"ops{engine=memory,op=read}": 3}

    def test_disabled_registry_hands_out_the_shared_null(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("c") is _NULL
        assert reg.gauge("g") is _NULL
        assert reg.gauge_fn("g", lambda: 7) is _NULL
        assert reg.histogram("h") is _NULL
        _NULL.inc()
        _NULL.observe(5)
        assert _NULL.value == 0 and _NULL.quantile(0.9) == 0
        assert reg.snapshot() == {"counters": {}, "gauges": {},
                                  "histograms": {}}

    def test_pull_gauge_evaluates_at_snapshot_and_rebinding_replaces(self):
        reg = MetricsRegistry()
        box = {"v": 1}
        reg.gauge_fn("depth", lambda: box["v"])
        box["v"] = 42
        assert reg.snapshot()["gauges"]["depth"] == 42
        reg.gauge_fn("depth", lambda: -1)      # engine-reset rebind
        assert reg.snapshot()["gauges"]["depth"] == -1
        reg.gauge_fn("boom", lambda: 1 / 0)    # failing callback reads 0
        assert reg.snapshot()["gauges"]["boom"] == 0

    def test_merge_snapshots_sums_everything(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(5)
        reg.histogram("h").observe(3)
        snap = reg.snapshot()
        merged = merge_snapshots([snap, snap])
        assert merged["counters"]["c"] == 4
        assert merged["gauges"]["g"] == 10
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["buckets"]["4"] == 2

    def test_merge_keeps_conflicting_label_sets_apart(self):
        # Two servers exposing the same metric *name* under different
        # label sets must not sum into one series: snapshot keys carry
        # the flattened labels, so each labelled series merges only
        # with its exact twin.
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("ops", engine="file").inc(2)
        a.counter("ops", engine="file", shard="0").inc(3)
        b.counter("ops", engine="memory").inc(5)
        b.counter("ops", engine="file").inc(7)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"] == {
            "ops{engine=file}": 9,
            "ops{engine=file,shard=0}": 3,
            "ops{engine=memory}": 5,
        }

    def test_merge_histograms_with_mismatched_bucket_sets(self):
        # One server saw only fast ops, the other only slow ones: the
        # merged histogram is the union of their populated buckets,
        # with count/sum summed — no bucket is dropped or misaligned.
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("ns").observe(3)          # bucket "4"
        b.histogram("ns").observe(1000)       # bucket "1024"
        b.histogram("ns").observe(1001)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        hist = merged["histograms"]["ns"]
        assert hist["count"] == 3
        assert hist["sum"] == 2004
        assert hist["buckets"] == {"4": 1, "1024": 2}

    def test_merge_with_empty_and_disabled_snapshots(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        disabled = MetricsRegistry(enabled=False)
        merged = merge_snapshots([reg.snapshot(), disabled.snapshot(),
                                  {}])
        assert merged["counters"] == {"c": 2}
        assert merged["gauges"] == {} and merged["histograms"] == {}
        # All-empty input still yields the canonical empty shape.
        assert merge_snapshots([]) == {"counters": {}, "gauges": {},
                                       "histograms": {}}

    def test_prometheus_render_shape(self):
        reg = MetricsRegistry()
        reg.counter("reads_total", engine="memory").inc(7)
        reg.histogram("op_ns", op="read").observe(3)
        reg.histogram("op_ns", op="read").observe(100)
        text = render_prometheus(reg.snapshot())
        assert "# TYPE reads_total counter" in text
        assert "reads_total{engine=memory} 7" in text
        assert "# TYPE op_ns histogram" in text
        # Cumulative buckets: le=4 holds 1, le=128 holds both.
        assert "op_ns_bucket{op=read,le=4} 1" in text
        assert "op_ns_bucket{op=read,le=128} 2" in text
        assert "op_ns_bucket{op=read,le=+Inf} 2" in text
        assert "op_ns_count{op=read} 2" in text


# ---------------------------------------------------------------------------
# engine instrumentation
# ---------------------------------------------------------------------------


class TestTimedEngine:
    def test_ops_land_in_per_op_histograms(self, registry):
        reg = MetricsRegistry()
        store = ObjectStore(engine=MemoryEngine(), registry=registry,
                            metrics=reg)
        store.set_root("p", Person("Ada"))
        store.stabilize()
        assert store.get_root("p").name == "Ada"
        hists = reg.snapshot()["histograms"]
        applies = sum(
            hists[f"engine_op_ns{{engine=memory,op={op}}}"]["count"]
            for op in ("apply", "apply_many", "apply_async"))
        assert applies >= 1
        assert hists["engine_op_ns{engine=memory,op=roots}"]["count"] >= 1
        store.close()

    def test_hand_wrapped_engine_ops_reach_the_store_registry(
            self, registry):
        # The store times whatever engine it is given through its own
        # registry, so a caller's TimedEngine cannot split the
        # engine histograms away from store.metrics().
        outer = MetricsRegistry()
        engine = TimedEngine(MemoryEngine(), outer)
        store = ObjectStore(engine=engine, registry=registry)
        try:
            store.set_root("p", Person("Ada"))
            store.stabilize()
            hists = store.metrics()["histograms"]
            assert sum(hist["count"] for key, hist in hists.items()
                       if key.startswith("engine_op_ns")) >= 1
        finally:
            store.close()

    def test_slow_op_log_fires_above_threshold(self, caplog):
        # A nanosecond-scale threshold: every op is "slow".
        engine = TimedEngine(MemoryEngine(), MetricsRegistry(),
                             slow_op_ms=0.000001)
        with caplog.at_level(logging.WARNING, logger="repro.store.slowop"):
            engine.contains(1)
        assert any("slow op contains" in r.getMessage()
                   for r in caplog.records)
        engine.close()

    def test_slow_op_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            TimedEngine(MemoryEngine(), slow_op_ms=0)

    def test_wrapper_forwards_engine_specific_surface(self):
        engine = TimedEngine(engine_from_url("sharded:2:memory:"))
        assert engine.name == "sharded"
        assert len(engine.children) == 2        # via __getattr__
        assert engine.wrapped is not engine
        engine.close()


# ---------------------------------------------------------------------------
# factory wiring
# ---------------------------------------------------------------------------


class TestFactoryWiring:
    def test_bare_url_stays_unwrapped(self):
        with engine_from_url("memory:") as engine:
            assert isinstance(engine, MemoryEngine)

    @pytest.mark.parametrize("query", ["metrics=1", "metrics=0",
                                       "slow_op_ms=5"])
    def test_telemetry_keys_rejected_by_engine_factory(self, query):
        key = query.partition("=")[0]
        with pytest.raises(ValueError, match=f"'{key}'.*configure the store"):
            engine_from_url(f"memory:?{query}")

    def test_split_store_url_peels_obs_keys(self):
        url, options = split_store_url("memory:?metrics=0&cache_objects=8")
        assert options["metrics"] is False
        assert options["cache_objects"] == 8
        assert "metrics" not in url

    def test_store_registry_holds_engine_histograms(self, registry):
        # The store owns the one registry: store counters and its
        # TimedEngine's histograms land in one snapshot.
        store = ObjectStore.from_url("memory:?metrics=1", registry)
        try:
            store.set_root("p", Person("Ada"))
            store.stabilize()
            snap = store.metrics()
            assert snap["counters"]["store_stabilize_total"] == 1
            assert any(k.startswith("engine_op_ns")
                       for k in snap["histograms"])
        finally:
            store.close()


class TestServerTelemetry:
    @pytest.mark.parametrize("query", ["metrics=1", "slow_op_ms=5"])
    def test_telemetry_keys_rejected_before_binding(self, query, monkeypatch):
        from repro.store.net import StoreServer

        def no_bind(bind):
            raise AssertionError("bound a socket for a rejected URL")

        monkeypatch.setattr(StoreServer, "_bind", staticmethod(no_bind))
        key = query.partition("=")[0]
        with pytest.raises(ValueError, match=key):
            StoreServer(f"memory:?{query}")

    def test_engine_ops_land_in_server_registry(self):
        from repro.store.engine.base import WriteBatch
        from repro.store.net import RemoteEngine, StoreServer

        with StoreServer("memory:") as server:
            server.start()
            client = RemoteEngine(server.endpoint)
            try:
                client.apply(WriteBatch().write(1, b"x"))
                assert client.contains(1)
            finally:
                client.close()
            hists = server.metrics.snapshot()["histograms"]
        assert hists["engine_op_ns{engine=memory,op=contains}"]["count"] >= 1
        assert sum(hist["count"] for name, hist in hists.items()
                   if name.startswith("engine_op_ns")) >= 2


# ---------------------------------------------------------------------------
# store counters
# ---------------------------------------------------------------------------


class TestStoreCounters:
    def test_racing_stabilizes_count_exactly(self, registry):
        store = ObjectStore(engine=MemoryEngine(), registry=registry)
        threads, per_thread = 8, 25
        store.set_root("people",
                       [Person(f"p{i}") for i in range(16)])
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            people = store.get_root("people")
            for n in range(per_thread):
                person = people[n % len(people)]
                person.name = f"{person.name}+"
                store.stabilize()

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        # Incremented under the commit lock: exact, not approximately
        # GIL-atomic.  One extra from the seeding stabilize? No — the
        # add_root above was never stabilised before the workers ran.
        assert store.stats()["stabilize_count"] == threads * per_thread
        assert (store.metrics()["counters"]["store_stabilize_total"]
                == threads * per_thread)
        store.close()

    def test_metrics_disabled_is_inert(self, registry):
        store = ObjectStore(engine=MemoryEngine(), registry=registry,
                            metrics=False)
        assert not isinstance(store.engine, TimedEngine)
        assert store._phase_counters["stabilize_count"] is _NULL
        store.set_root("p", Person("Ada"))
        store.stabilize()
        stats = store.stats()
        assert stats["stabilize_count"] == 0        # null instrument
        assert store.encode_count == 1              # plain attr still counts
        snap = store.metrics()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
        store.close()

    def test_stats_compat_view_matches_registry(self, registry):
        store = ObjectStore(engine=MemoryEngine(), registry=registry)
        store.set_root("p", Person("Ada"))
        store.stabilize()
        stats = store.stats()
        counters = store.metrics()["counters"]
        assert stats["stabilize_count"] == counters["store_stabilize_total"]
        assert stats["walk_ns"] == counters["store_walk_ns_total"]
        assert stats["walk_ns"] > 0 and stats["commit_ns"] > 0
        store.close()


# ---------------------------------------------------------------------------
# the wire: STATS_FULL + TRACE against a live server subprocess
# ---------------------------------------------------------------------------


class TestStatsFullOverTheWire:
    def test_stats_full_round_trip_with_trace_id(self):
        from repro.store.net.client import RemoteEngine

        engine = RemoteEngine(_remote_endpoint(), op_timeout=60)
        try:
            engine.reset()
            trace = new_trace_id()
            engine.trace_id = trace
            engine.contains(1)
            engine.fetch_many([1, 2, 3])
            engine.trace_id = 0
            body = engine.stats_full()
            assert set(body) >= {"server", "metrics", "spans"}
            assert body["server"]["engine"] == "memory"
            hists = body["metrics"]["histograms"]
            contains_hist = hists["server_op_ns{op=contains}"]
            assert contains_hist["count"] >= 1
            # The TRACE envelope carried the client's id into spans.
            traced_ops = {span["op"] for span in body["spans"]
                          if span.get("trace_id") == trace}
            assert "contains" in traced_ops
            assert "fetch_many" in traced_ops
        finally:
            engine.close()

    def test_router_merges_child_snapshots(self):
        # One live server is enough to exercise the aggregation shape;
        # the two-server fleet is benchmarked in [B9].
        from repro.store.net.router import RouterEngine

        router = RouterEngine([_remote_endpoint()], op_timeout=60)
        try:
            router.contains(1)
            body = router.stats_full()
            assert list(body["per_server"]) == [_remote_endpoint()]
            merged = body["merged"]
            assert any(k.startswith("server_op_ns")
                       for k in merged["histograms"])
            table = router.load_table()
            assert len(table) == 1
            assert table[0]["endpoint"] == _remote_endpoint()
            assert table[0]["requests"] >= 1
        finally:
            router.close()
