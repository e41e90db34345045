"""The storage-URL factory: one string picks the backend.

``open_store()`` / ``engine_from_url()`` are how examples, benchmarks
and applications choose among the file, memory, sqlite and sharded
backends without constructing engine objects by hand."""

import os
import re
from pathlib import Path

import pytest

from repro.store import ObjectStore, open_store
from repro.store.engine import (
    FileEngine,
    MemoryEngine,
    ShardedEngine,
    SqliteEngine,
    engine_from_url,
)

from tests.conftest import Person


class TestEngineFromUrl:
    def test_memory_scheme(self):
        with engine_from_url("memory:") as engine:
            assert isinstance(engine, MemoryEngine)

    def test_file_scheme_and_bare_path(self, tmp_path):
        with engine_from_url(f"file:{tmp_path / 'a'}") as engine:
            assert isinstance(engine, FileEngine)
            assert engine.directory == str(tmp_path / "a")
        with engine_from_url(str(tmp_path / "b")) as engine:
            assert isinstance(engine, FileEngine)
            assert engine.directory == str(tmp_path / "b")

    def test_sqlite_scheme(self, tmp_path):
        path = str(tmp_path / "db.sqlite")
        with engine_from_url(f"sqlite:{path}") as engine:
            assert isinstance(engine, SqliteEngine)
            assert engine.path == path

    def test_sharded_scheme_derives_child_locations(self, tmp_path):
        base = str(tmp_path / "cluster")
        with engine_from_url(f"sharded:4:sqlite:{base}") as engine:
            assert isinstance(engine, ShardedEngine)
            assert engine.shard_count == 4
            assert all(isinstance(child, SqliteEngine)
                       for child in engine.children)
        assert sorted(os.listdir(base)) >= [f"shard{i}.sqlite"
                                            for i in range(4)]
        with engine_from_url(f"sharded:2:file:{base}-files") as engine:
            assert [type(child) for child in engine.children] \
                == [FileEngine, FileEngine]
        with engine_from_url("sharded:3:memory:") as engine:
            assert all(isinstance(child, MemoryEngine)
                       for child in engine.children)

    @pytest.mark.parametrize("bad_url", [
        "",
        "redis:/somewhere",
        "memory:/no/location/allowed",
        "sqlite:",
        "file:",
        "sharded:4",
        "sharded:zero:memory:",
        "sharded:0:memory:",
        "sharded:2:sharded:2:memory:",
        "sharded:3:memory",  # scheme missing its trailing colon
    ])
    def test_bad_urls_rejected(self, bad_url):
        with pytest.raises(ValueError):
            engine_from_url(bad_url)


class TestQueryParameters:
    """``?key=value`` tuning: durability policies, engine knobs, and
    loud rejection of anything unknown or malformed."""

    def test_file_durability_group(self, tmp_path):
        from repro.store.commit import GroupPolicy, PipelinedEngine
        url = (f"file:{tmp_path / 's'}?durability=group"
               "&group_window_ms=2&group_max_batches=16")
        with engine_from_url(url) as engine:
            assert isinstance(engine, PipelinedEngine)
            assert isinstance(engine.child, FileEngine)
            assert isinstance(engine.policy, GroupPolicy)
            assert engine.policy.window_s == pytest.approx(0.002)
            assert engine.policy.max_batches == 16

    def test_async_policy_and_backpressure_bound(self, tmp_path):
        from repro.store.commit import AsyncPolicy, PipelinedEngine
        url = (f"sqlite:{tmp_path / 'db.sqlite'}?durability=async"
               "&async_max_pending=7")
        with engine_from_url(url) as engine:
            assert isinstance(engine, PipelinedEngine)
            assert isinstance(engine.child, SqliteEngine)
            assert isinstance(engine.policy, AsyncPolicy)
            assert engine.policy.max_pending == 7
            assert engine.asynchronous

    def test_memory_can_be_pipelined_too(self):
        from repro.store.commit import PipelinedEngine
        with engine_from_url("memory:?durability=sync") as engine:
            assert isinstance(engine, PipelinedEngine)
            assert isinstance(engine.child, MemoryEngine)

    def test_file_engine_knobs(self, tmp_path):
        url = (f"file:{tmp_path / 's'}?checkpoint_wal_bytes=128"
               "&manifest_compact_deltas=9")
        with engine_from_url(url) as engine:
            assert engine._checkpoint_wal_bytes == 128
            assert engine._manifest_compact_deltas == 9

    def test_sqlite_synchronous_level(self, tmp_path):
        url = f"sqlite:{tmp_path / 'db.sqlite'}?synchronous=FULL"
        with engine_from_url(url) as engine:
            level = engine._conn.execute(
                "PRAGMA synchronous").fetchone()[0]
            assert level == 2  # FULL

    def test_sharded_shard_durability_wraps_children(self, tmp_path):
        from repro.store.commit import AsyncPolicy, PipelinedEngine
        url = (f"sharded:3:file:{tmp_path / 'cluster'}"
               "?shard_durability=async")
        with engine_from_url(url) as engine:
            assert isinstance(engine, ShardedEngine)
            for child in engine.children:
                assert isinstance(child, PipelinedEngine)
                assert isinstance(child.policy, AsyncPolicy)
                assert isinstance(child.child, FileEngine)

    def test_sharded_outer_and_inner_policies_compose(self, tmp_path):
        from repro.store.commit import PipelinedEngine
        url = (f"sharded:2:sqlite:{tmp_path / 'cluster'}"
               "?durability=group&shard_durability=async")
        with engine_from_url(url) as engine:
            assert isinstance(engine, PipelinedEngine)
            assert isinstance(engine.child, ShardedEngine)
            assert all(isinstance(child, PipelinedEngine)
                       for child in engine.child.children)

    @pytest.mark.parametrize("bad_url, match", [
        ("memory:?speed=fast", "unknown query parameter"),
        ("memory:?synchronous=FULL", "unknown query parameter"),
        ("memory:?durability", "malformed query parameter"),
        ("memory:?durability=group&durability=sync", "duplicate"),
        ("memory:?durability=never", "unknown durability policy"),
        ("memory:?group_window_ms=2", "needs durability="),
        ("memory:?durability=sync&group_max_batches=8",
         "needs durability=group"),
        ("memory:?durability=group&group_window_ms=fast",
         "must be a number"),
        ("memory:?durability=group&group_max_batches=0",
         "group_max_batches"),
        ("memory:?durability=async&async_max_pending=-1",
         "async_max_pending"),
        ("?durability=group", "no location"),
    ])
    def test_bad_query_parameters_rejected(self, bad_url, match):
        with pytest.raises(ValueError, match=match):
            engine_from_url(bad_url)

    def test_file_knob_value_must_be_integer(self, tmp_path):
        with pytest.raises(ValueError, match="checkpoint_wal_bytes"):
            engine_from_url(f"file:{tmp_path}?checkpoint_wal_bytes=big")

    def test_heap_cache_pages_knob(self, tmp_path):
        with engine_from_url(f"file:{tmp_path / 's'}"
                             "?heap_cache_pages=7") as engine:
            assert engine.heap._cache_pages == 7

    def test_heap_cache_pages_rejected_for_other_schemes(self):
        with pytest.raises(ValueError, match="heap_cache_pages"):
            engine_from_url("memory:?heap_cache_pages=7")

    def test_sharded_forwards_file_child_keys(self, tmp_path):
        url = f"sharded:2:file:{tmp_path / 'c'}?heap_cache_pages=9"
        with engine_from_url(url) as engine:
            for child in engine.children:
                assert child.heap._cache_pages == 9

    def test_sharded_forwards_sqlite_child_keys(self, tmp_path):
        url = f"sharded:2:sqlite:{tmp_path / 'c'}?synchronous=FULL"
        with engine_from_url(url) as engine:
            for child in engine.children:
                level = child._conn.execute(
                    "PRAGMA synchronous").fetchone()[0]
                assert level == 2  # FULL

    def test_sharded_rejects_foreign_child_keys(self, tmp_path):
        with pytest.raises(ValueError, match="synchronous"):
            engine_from_url(f"sharded:2:file:{tmp_path}?synchronous=FULL")

    def test_unknown_key_error_names_known_keys(self):
        with pytest.raises(ValueError) as excinfo:
            engine_from_url("memory:?bogus=1")
        message = str(excinfo.value)
        assert "durability" in message and "bogus" in message

    def test_store_roundtrip_through_param_url(self, tmp_path, registry):
        url = (f"sharded:2:file:{tmp_path / 'cluster'}"
               "?shard_durability=async")
        with open_store(url, registry=registry) as store:
            store.set_root("people", [Person("ann"), Person("bo")])
            store.stabilize()
        with open_store(url, registry=registry) as store:
            assert [p.name for p in store.get_root("people")] \
                == ["ann", "bo"]
            assert store.verify_referential_integrity() == []

    def test_single_letter_prefix_is_a_path_not_a_scheme(self, tmp_path,
                                                         monkeypatch):
        # Windows drive letters ("C:\store") must fall through to the
        # file backend, not die as an unknown scheme.
        monkeypatch.chdir(tmp_path)
        with engine_from_url("c:drive-style-path") as engine:
            assert isinstance(engine, FileEngine)
            assert engine.directory == "c:drive-style-path"

    def test_reopening_sharded_url_with_other_count_rejected(self, tmp_path,
                                                             registry):
        base = tmp_path / "cluster"
        with open_store(f"sharded:4:sqlite:{base}", registry=registry) as st:
            st.set_root("n", [1, 2, 3])
            st.stabilize()
        with pytest.raises(ValueError, match="4 shards"):
            open_store(f"sharded:3:sqlite:{base}", registry=registry)


class TestSchemeRegistry:
    """The scheme table behind the factory: every backend — built-in
    or network — is one row of it, and unknown schemes fail loudly
    with the full menu."""

    def test_unknown_scheme_error_lists_every_registered_scheme(self):
        with pytest.raises(ValueError) as excinfo:
            engine_from_url("redis:/somewhere")
        message = str(excinfo.value)
        assert "unknown storage scheme 'redis'" in message
        for scheme in ("memory", "file", "sqlite", "sharded",
                       "remote", "routed"):
            assert scheme in message

    @pytest.mark.parametrize("bad_url, match", [
        ("remote:", "HOST:PORT or unix:PATH"),
        ("routed:", "comma-separated endpoint list"),
        ("routed:,,", "comma-separated endpoint list"),
        ("remote:h:1?connect_timeout=fast", "must be a number"),
        ("remote:h:1?op_timeout=slow", "must be a number"),
        ("remote:h:1?read_retries=lots", "must be an integer"),
        ("remote:h:1?heap_cache_pages=4", "unknown query parameter"),
        ("sharded:2:remote:h:1", "routed"),
        ("sharded:2:routed:h:1,h:2", "routed"),
    ])
    def test_bad_network_urls_rejected(self, bad_url, match):
        with pytest.raises(ValueError, match=match):
            engine_from_url(bad_url)


class TestStoreLevelParameters:
    """``cache_objects`` configures the store, not the engine."""

    def test_split_store_url_peels_cache_objects(self, tmp_path):
        from repro.store.engine.factory import split_store_url
        engine_url, options = split_store_url(
            f"file:{tmp_path}?cache_objects=64&durability=group")
        assert engine_url == f"file:{tmp_path}?durability=group"
        assert options == {"cache_objects": 64}

    def test_split_store_url_without_query_is_identity(self, tmp_path):
        from repro.store.engine.factory import split_store_url
        assert split_store_url(f"file:{tmp_path}") == (f"file:{tmp_path}", {})

    def test_engine_factory_refuses_store_keys(self, tmp_path):
        with pytest.raises(ValueError, match="configure the store"):
            engine_from_url(f"file:{tmp_path}?cache_objects=64")

    def test_open_store_bounds_the_object_cache(self, tmp_path, registry):
        url = f"file:{tmp_path / 's'}?cache_objects=32"
        with open_store(url, registry=registry) as store:
            assert store._identity.capacity == 32
            store.set_root("people", [Person("ann")])
            store.stabilize()
        with open_store(url, registry=registry) as store:
            assert store.get_root("people")[0].name == "ann"

    def test_open_store_default_cache_is_unbounded(self, tmp_path, registry):
        with open_store(f"file:{tmp_path / 's'}", registry=registry) as store:
            assert store._identity.capacity is None

    @pytest.mark.parametrize("value", ["0", "-1", "many"])
    def test_bad_cache_objects_rejected(self, tmp_path, value):
        with pytest.raises(ValueError, match="cache_objects"):
            open_store(f"memory:?cache_objects={value}")

    def test_split_store_url_peels_compress(self, tmp_path):
        from repro.store.engine.factory import split_store_url
        engine_url, options = split_store_url(
            f"file:{tmp_path}?compress=zlib:1&durability=group")
        assert engine_url == f"file:{tmp_path}?durability=group"
        assert options == {"compress": "zlib:1"}

    def test_engine_factory_refuses_compress(self, tmp_path):
        with pytest.raises(ValueError, match="configure the store"):
            engine_from_url(f"file:{tmp_path}?compress=zlib")

    @pytest.mark.parametrize("value", ["snappy", "zlib:10", "zlib:x"])
    def test_bad_compress_rejected(self, value):
        with pytest.raises(ValueError, match="compress"):
            open_store(f"memory:?compress={value}")

    @pytest.mark.parametrize("value", ["2", "-1", "two"])
    def test_encode_workers_is_an_unknown_key(self, value):
        # The stabilise encoder pool and its size knob are gone:
        # encoding runs on the stabilising thread, and no value of the
        # old key is accepted or validated as a worker count.
        with pytest.raises(ValueError,
                           match="unknown query parameter.*encode_workers"):
            open_store(f"memory:?encode_workers={value}")

    def test_open_store_wires_codec(self, tmp_path, registry):
        url = f"file:{tmp_path / 's'}?compress=zlib:1&cache_objects=64"
        with open_store(url, registry=registry) as store:
            assert store._codec is not None
            assert store._codec.name == "zlib:1"
            store.set_root("text", ["compressible " * 50])
            store.stabilize()
        # Reopening without ?compress= reads the framed records fine.
        with open_store(f"file:{tmp_path / 's'}",
                        registry=registry) as store:
            assert store._codec is None
            assert store.get_root("text")[0].startswith("compressible")

    def test_cache_objects_composes_with_engine_params(self, tmp_path,
                                                       registry):
        url = (f"sharded:2:file:{tmp_path / 'cluster'}"
               "?shard_durability=async&cache_objects=16")
        with open_store(url, registry=registry) as store:
            assert store._identity.capacity == 16
            store.set_root("people", [Person("ann"), Person("bo")])
            store.stabilize()
        with open_store(url, registry=registry) as store:
            assert [p.name for p in store.get_root("people")] \
                == ["ann", "bo"]


class TestOpenStore:
    @pytest.mark.parametrize("scheme", ["file", "sqlite", "sharded"])
    def test_roundtrip_through_url(self, scheme, tmp_path, registry):
        url = {
            "file": f"file:{tmp_path / 's'}",
            "sqlite": f"sqlite:{tmp_path / 's.sqlite'}",
            "sharded": f"sharded:3:sqlite:{tmp_path / 'shards'}",
        }[scheme]
        with open_store(url, registry=registry) as store:
            store.set_root("people", [Person("ann"), Person("bo")])
            store.stabilize()
        with open_store(url, registry=registry) as store:
            assert [p.name for p in store.get_root("people")] == ["ann", "bo"]
            assert store.verify_referential_integrity() == []

    def test_memory_store_is_ephemeral(self, registry):
        with open_store("memory:", registry=registry) as store:
            store.set_root("p", Person("gone"))
            store.stabilize()
        with open_store("memory:", registry=registry) as store:
            assert not store.has_root("p")

    def test_from_url_classmethod(self, tmp_path, registry):
        with ObjectStore.from_url(f"sqlite:{tmp_path / 'db'}",
                                  registry=registry) as store:
            store.set_root("n", [1, 2, 3])
            store.stabilize()
            assert store.engine.name == "sqlite"

    def test_bare_path_matches_objectstore_open(self, tmp_path, registry):
        directory = str(tmp_path / "plain")
        with open_store(directory, registry=registry) as store:
            store.set_root("n", [4, 5])
            store.stabilize()
        with ObjectStore.open(directory, registry=registry) as store:
            assert store.get_root("n") == [4, 5]


class TestKeyTableMatchesDocs:
    """``docs/architecture.md`` lists every URL key with its layer; the
    list must track the factory's key table."""

    #: Table layer -> the "applies to" wording the docs use for it.
    _DOC_LAYER = {"pipeline": "any", "remote": "remote/routed"}

    def _documented_keys(self) -> dict[str, str]:
        doc = (Path(__file__).parents[2] / "docs"
               / "architecture.md").read_text(encoding="utf-8")
        section = doc.split("## Storage URLs", 1)[1].split("\n## ", 1)[0]
        return dict(re.findall(r"^\| `([a-z_]+)` +\| ([a-z/]+) +\|",
                               section, re.MULTILINE))

    def test_same_keys_and_layers(self):
        from repro.store.engine.factory import _KEYS
        expected = {key: self._DOC_LAYER.get(spec.layer, spec.layer)
                    for key, spec in _KEYS.items()}
        assert self._documented_keys() == expected
