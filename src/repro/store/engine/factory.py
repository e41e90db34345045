"""Engine construction from storage URLs.

Callers pick a backend by URL instead of wiring engine objects by hand:

* ``memory:`` — an ephemeral :class:`MemoryEngine`;
* ``file:/path/to/dir`` — a :class:`FileEngine` over that directory;
* ``sqlite:/path/to/db`` — a :class:`SqliteEngine` over that file;
* ``sharded:N:CHILD-URL`` — a :class:`ShardedEngine` over N children of
  the child scheme; the child URL's location is treated as a *base
  directory* and each shard gets its own location inside it
  (``shard0``, ``shard1``, … for ``file:``; ``shard0.sqlite``, … for
  ``sqlite:``).  ``sharded:4:memory:`` composes four memory shards.
* ``remote:HOST:PORT`` (or ``remote:unix:/path.sock``) — a
  :class:`~repro.store.net.client.RemoteEngine` client of a store
  server process (``scripts/store_server.py``);
* ``routed:HOST1:P1,HOST2:P2,...`` — a
  :class:`~repro.store.net.router.RouterEngine` front-end mapping OID
  ranges over N backend store servers (``oid % N``), with the sharded
  engine's two-phase commit running across the servers.

Schemes live in a registry (:func:`register_scheme`): each entry names
its legal query keys and a builder, so new backends — the network
schemes above are plugged in exactly this way — extend the factory
without touching its parsing; an unknown scheme's error names every
registered scheme.

A string with no (known) scheme is taken as a plain filesystem path and
opened with the file engine, so existing ``ObjectStore.open(path)``
habits carry over: ``open_store("/tmp/s")`` == ``open_store("file:/tmp/s")``.

A trailing query string tunes the engine, ``?key=value&key=value``:

===========================  ============================================
key                          meaning
===========================  ============================================
``durability``               wrap the engine in a commit pipeline with
                             this policy: ``sync`` (inline, serialised),
                             ``group`` (coalesced group commits) or
                             ``async`` (acknowledge before durable)
``group_window_ms``          group-commit linger window (float ms,
                             default 0: natural batching only)
``group_max_batches``        most batches per group commit (default 64)
``async_max_pending``        submission backpressure bound (default 256)
``checkpoint_wal_bytes``     [file] WAL size that triggers a checkpoint
``manifest_compact_deltas``  [file] manifest deltas before compaction
``heap_cache_pages``         [file] bound on cached heap page images
``synchronous``              [sqlite] PRAGMA synchronous level
``shard_durability``         [sharded] wrap every *child* in a pipeline
                             with this policy (the ``group_*`` /
                             ``async_*`` knobs apply to those pipelines
                             too)
``connect_timeout``          [remote/routed] seconds to establish each
                             server connection (default 5)
``op_timeout``               [remote/routed] seconds to wait for one
                             reply (default 30; 0 waits forever)
``read_retries``             [remote/routed] reconnect-retry bound for
                             idempotent reads (default 2; writes are
                             never retried)
===========================  ============================================

``file:/p?durability=group&group_window_ms=2`` is the canonical example;
unknown keys, malformed pairs and out-of-range values raise
``ValueError`` naming the offending key.

A few query keys belong to the *store* layer rather than any engine:
``cache_objects`` bounds the store's live-object cache, ``compress``
names a per-record codec for new writes (``zlib``, ``zlib:1`` …
``zlib:9``, ``lzma``, ``lzma:0`` … ``lzma:9``, or ``none``),
``trace_sample`` head-samples 1 in N store ops into the span tracer,
``slow_trace_ms`` always keeps traces for store ops slower than the
threshold, and ``trace_log`` names a JSONL sink for kept spans.
:func:`split_store_url` peels such keys off (``ObjectStore.from_url``
and ``open_store`` call it); handing them straight to
:func:`engine_from_url` raises a ``ValueError`` that says so.
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple, Optional

from repro.store.commit.pipeline import PipelinedEngine
from repro.store.commit.policy import DurabilityPolicy, make_policy
from repro.store.engine.base import StorageEngine
from repro.store.engine.filesystem import FileEngine
from repro.store.engine.memory import MemoryEngine
from repro.store.engine.sharded import ShardedEngine
from repro.store.engine.sqlite import SqliteEngine

#: Pipeline keys, honoured for every scheme.
_PIPELINE_KEYS = ("durability", "group_window_ms", "group_max_batches",
                  "async_max_pending")

#: Keys consumed by the ObjectStore layer, valid for every scheme; the
#: engine factory never sees them (``split_store_url`` peels them off).
#: The trace keys configure the store's sampling tracer (the server
#: process takes the equivalent via ``store_server.py --trace-log``).
STORE_KEYS = ("cache_objects", "compress", "trace_sample",
              "slow_trace_ms", "trace_log")

#: Observability keys, honoured for every scheme.  ``open_store``
#: consumes them via ``split_store_url`` (metrics default *on* at the
#: store layer); a bare ``engine_from_url`` call honours an explicit
#: ``metrics=1`` / ``slow_op_ms=N`` by wrapping the engine in a
#: :class:`~repro.store.obs.TimedEngine`, and leaves plain URLs
#: unwrapped.
_OBS_KEYS = ("metrics", "slow_op_ms")


class SchemeSpec(NamedTuple):
    """One row of the scheme registry.

    ``keys`` are the scheme's own query-parameter names (the pipeline
    keys are valid for every scheme and need not be listed); ``build``
    turns the URL's location part plus its parsed query parameters into
    an opened engine.
    """

    keys: tuple[str, ...]
    build: Callable[[str, dict], StorageEngine]


#: The scheme registry: every storage scheme the factory understands.
#: The built-in backends register below; the network schemes
#: (``remote:``, ``routed:``) plug in the same way with lazily-imported
#: builders, and out-of-tree backends may call :func:`register_scheme`.
_SCHEME_REGISTRY: dict[str, SchemeSpec] = {}

#: Registered scheme names, kept in registration order for messages and
#: backward compatibility (``factory.SCHEMES`` predates the registry).
SCHEMES: tuple[str, ...] = ()


def register_scheme(name: str, keys: tuple[str, ...],
                    build: Callable[[str, dict], StorageEngine]) -> None:
    """Add a storage scheme to the registry (idempotent per name).

    ``build(rest, params)`` receives the URL after ``name:`` (query
    string already stripped and parsed into ``params``) and must return
    an opened engine.  ``keys`` become the scheme's legal query
    parameters alongside the pipeline keys.
    """
    if not name or not name.isalpha() or len(name) < 2:
        raise ValueError(
            f"scheme name must be alphabetic and at least two "
            f"characters, got {name!r}"
        )
    _SCHEME_REGISTRY[name] = SchemeSpec(tuple(keys), build)
    global SCHEMES
    if name not in SCHEMES:
        SCHEMES = SCHEMES + (name,)


def registered_schemes() -> tuple[str, ...]:
    """Every scheme the factory currently understands."""
    return SCHEMES


def _split_scheme(url: str) -> tuple[str | None, str]:
    scheme, sep, rest = url.partition(":")
    if sep and scheme in _SCHEME_REGISTRY:
        return scheme, rest
    if sep and len(scheme) > 1 and scheme.isalpha():
        raise ValueError(
            f"unknown storage scheme {scheme!r} in {url!r}; "
            f"known schemes: {', '.join(registered_schemes())}"
        )
    # No colon, or something path-like (a single-letter drive prefix, a
    # path with a colon in it): a bare filesystem path for the default
    # file backend.
    return None, url


def _parse_query(query: str, url: str) -> dict[str, str]:
    params: dict[str, str] = {}
    for pair in query.split("&"):
        if not pair:
            continue
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ValueError(
                f"malformed query parameter {pair!r} in {url!r}; "
                "expected key=value"
            )
        if key in params:
            raise ValueError(f"duplicate query parameter {key!r} in {url!r}")
        params[key] = value
    return params


def _check_keys(params: dict[str, str], scheme: str, url: str,
                extra: tuple[str, ...] = ()) -> None:
    store_level = sorted(set(params) & set(STORE_KEYS))
    if store_level:
        raise ValueError(
            f"query parameter(s) {', '.join(map(repr, store_level))} in "
            f"{url!r} configure the store, not the engine; open the URL "
            f"with open_store()/ObjectStore.from_url (or split it with "
            f"repro.store.engine.factory.split_store_url first)"
        )
    known = (set(_PIPELINE_KEYS) | set(_OBS_KEYS)
             | set(_SCHEME_REGISTRY[scheme].keys) | set(extra))
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(
            f"unknown query parameter(s) {', '.join(map(repr, unknown))} "
            f"for {scheme}: URLs in {url!r}; known keys: "
            f"{', '.join(sorted(known))}"
        )


def _int_param(params: dict[str, str], key: str) -> Optional[int]:
    if key not in params:
        return None
    try:
        return int(params[key])
    except ValueError:
        raise ValueError(
            f"query parameter {key} must be an integer, "
            f"got {params[key]!r}"
        ) from None


def _float_param(params: dict[str, str], key: str) -> Optional[float]:
    if key not in params:
        return None
    try:
        return float(params[key])
    except ValueError:
        raise ValueError(
            f"query parameter {key} must be a number, got {params[key]!r}"
        ) from None


def _obs_params(params: dict[str, str], url: str) -> dict:
    """Pop and validate the observability keys.  Returns a dict with
    ``metrics`` (bool) and/or ``slow_op_ms`` (float) for whichever keys
    were present."""
    out: dict = {}
    if "metrics" in params:
        value = params.pop("metrics")
        if value not in ("0", "1"):
            raise ValueError(
                f"query parameter metrics must be 0 or 1, got {value!r} "
                f"in {url!r}"
            )
        out["metrics"] = value == "1"
    if "slow_op_ms" in params:
        threshold = _float_param(params, "slow_op_ms")
        del params["slow_op_ms"]
        if threshold is not None and threshold <= 0:
            raise ValueError(
                f"query parameter slow_op_ms must be > 0, got {threshold}"
            )
        out["slow_op_ms"] = threshold
    return out


def _policy_from_params(kind: Optional[str],
                        params: dict[str, str]) -> Optional[DurabilityPolicy]:
    if kind is None:
        return None
    window_ms = _float_param(params, "group_window_ms")
    max_batches = _int_param(params, "group_max_batches")
    max_pending = _int_param(params, "async_max_pending")
    return make_policy(
        kind,
        window_ms=0.0 if window_ms is None else window_ms,
        max_batches=64 if max_batches is None else max_batches,
        max_pending=256 if max_pending is None else max_pending,
    )


def _sharded_children(rest: str,
                      params: dict[str, str]) -> list[StorageEngine]:
    count_text, sep, child_url = rest.partition(":")
    if not sep:
        raise ValueError(
            "sharded URLs look like 'sharded:N:CHILD-URL', "
            f"got 'sharded:{rest}'"
        )
    try:
        count = int(count_text)
    except ValueError:
        raise ValueError(
            f"shard count must be an integer, got {count_text!r}"
        ) from None
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    child_scheme, location = _split_scheme(child_url)
    if child_scheme == "sharded":
        raise ValueError("sharded children cannot themselves be sharded")
    if child_scheme in ("remote", "routed"):
        raise ValueError(
            f"sharded children cannot be {child_scheme}: engines — "
            f"compose remote servers with 'routed:' instead"
        )
    if child_scheme is None and location in _SCHEME_REGISTRY:
        raise ValueError(
            f"child URL {child_url!r} looks like a scheme missing its "
            f"colon — did you mean '{location}:'?"
        )
    # Build the shard policy before any child is opened, so a bad
    # parameter cannot leak N opened engines.  One shared instance is
    # enough — a policy is a stateless parameter bag; only the wrapper
    # (and its pipeline) is per-child.
    shard_policy = _policy_from_params(params.get("shard_durability"),
                                       params)
    if child_scheme == "memory":
        children: list[StorageEngine] = [MemoryEngine()
                                         for _ in range(count)]
    elif child_scheme == "sqlite":
        os.makedirs(location, exist_ok=True)
        children = [SqliteEngine(os.path.join(location,
                                              f"shard{index}.sqlite"),
                                 synchronous=params.get("synchronous",
                                                        "NORMAL"))
                    for index in range(count)]
    else:
        # file scheme or a bare path: one subdirectory per shard.
        file_kwargs = _file_kwargs(params)
        os.makedirs(location, exist_ok=True)
        children = [FileEngine(os.path.join(location, f"shard{index}"),
                               **file_kwargs)
                    for index in range(count)]
    if shard_policy is not None:
        children = [PipelinedEngine(child, shard_policy)
                    for child in children]
    return children


def _file_kwargs(params: dict[str, str]) -> dict:
    """FileEngine keyword arguments named in a URL's query parameters."""
    file_kwargs: dict = {}
    wal_bytes = _int_param(params, "checkpoint_wal_bytes")
    if wal_bytes is not None:
        file_kwargs["checkpoint_wal_bytes"] = wal_bytes
    compact_deltas = _int_param(params, "manifest_compact_deltas")
    if compact_deltas is not None:
        file_kwargs["manifest_compact_deltas"] = compact_deltas
    cache_pages = _int_param(params, "heap_cache_pages")
    if cache_pages is not None:
        file_kwargs["heap_cache_pages"] = cache_pages
    return file_kwargs


def split_store_url(url: str) -> tuple[str, dict]:
    """Split store-level query parameters off a storage URL.

    Returns ``(engine_url, store_options)`` where ``engine_url`` keeps
    every engine-level parameter and ``store_options`` is ready to pass
    to ``ObjectStore(**store_options)``: ``cache_objects`` (the bounded
    object-cache capacity, an integer >= 1), ``compress`` (a per-record
    codec spec such as ``zlib:1``), ``metrics`` (0/1, store
    telemetry — default on), ``slow_op_ms`` (log engine ops slower
    than this threshold), ``trace_sample`` (head-sample 1 in N store
    ops into the span tracer, ``0`` = off), ``slow_trace_ms`` (always
    keep traces for store ops slower than this) and ``trace_log`` (a
    JSONL sink path for kept spans and events).  Values are validated
    here so a bad store parameter fails before any engine is opened.
    """
    base, has_query, query = url.partition("?")
    if not has_query:
        return url, {}
    params = _parse_query(query, url)
    store_options: dict = dict(_obs_params(params, url))
    if "cache_objects" in params:
        capacity = _int_param(params, "cache_objects")
        if capacity is not None and capacity < 1:
            raise ValueError(
                f"query parameter cache_objects must be >= 1, "
                f"got {capacity}"
            )
        store_options["cache_objects"] = capacity
        del params["cache_objects"]
    if "compress" in params:
        from repro.store.serializer import parse_codec

        spec = params.pop("compress")
        try:
            parse_codec(spec)
        except ValueError as exc:
            raise ValueError(
                f"query parameter compress is invalid: {exc}"
            ) from None
        store_options["compress"] = spec
    if "trace_sample" in params:
        sample = _int_param(params, "trace_sample")
        if sample is not None and sample < 0:
            raise ValueError(
                f"query parameter trace_sample must be >= 0, "
                f"got {sample}"
            )
        store_options["trace_sample"] = sample
        del params["trace_sample"]
    if "slow_trace_ms" in params:
        slow_trace = _float_param(params, "slow_trace_ms")
        if slow_trace is not None and slow_trace <= 0:
            raise ValueError(
                f"query parameter slow_trace_ms must be > 0, "
                f"got {slow_trace}"
            )
        store_options["slow_trace_ms"] = slow_trace
        del params["slow_trace_ms"]
    if "trace_log" in params:
        trace_log = params.pop("trace_log")
        if not trace_log:
            raise ValueError(
                "query parameter trace_log needs a file path"
            )
        store_options["trace_log"] = trace_log
    if params:
        rest = "&".join(f"{key}={value}" for key, value in params.items())
        return f"{base}?{rest}", store_options
    return base, store_options


# -- scheme builders --------------------------------------------------------

def _build_memory(rest: str, params: dict) -> StorageEngine:
    if rest:
        raise ValueError(f"memory: takes no location, got {rest!r}")
    return MemoryEngine()


def _build_file(rest: str, params: dict) -> StorageEngine:
    if not rest:
        raise ValueError("file: needs a directory path")
    return FileEngine(rest, **_file_kwargs(params))


def _build_sqlite(rest: str, params: dict) -> StorageEngine:
    if not rest:
        raise ValueError("sqlite: needs a database path")
    return SqliteEngine(rest,
                        synchronous=params.get("synchronous", "NORMAL"))


def _build_sharded(rest: str, params: dict) -> StorageEngine:
    return ShardedEngine(_sharded_children(rest, params))


def _remote_kwargs(params: dict) -> dict:
    """RemoteEngine keyword arguments named in a URL's query
    parameters (shared by the ``remote:`` and ``routed:`` schemes)."""
    kwargs: dict = {}
    connect_timeout = _float_param(params, "connect_timeout")
    if connect_timeout is not None:
        kwargs["connect_timeout"] = connect_timeout
    op_timeout = _float_param(params, "op_timeout")
    if op_timeout is not None:
        kwargs["op_timeout"] = op_timeout
    retries = _int_param(params, "read_retries")
    if retries is not None:
        kwargs["read_retries"] = retries
    return kwargs


#: Client-tuning keys shared by the network schemes.
_REMOTE_KEYS = ("connect_timeout", "op_timeout", "read_retries")


def _build_remote(rest: str, params: dict) -> StorageEngine:
    from repro.store.net.client import RemoteEngine

    if not rest:
        raise ValueError("remote: needs HOST:PORT or unix:PATH")
    return RemoteEngine(rest, **_remote_kwargs(params))


def _build_routed(rest: str, params: dict) -> StorageEngine:
    from repro.store.net.router import RouterEngine

    endpoints = [endpoint for endpoint in rest.split(",") if endpoint]
    if not endpoints:
        raise ValueError(
            "routed: needs a comma-separated endpoint list, e.g. "
            "'routed:host1:p1,host2:p2'"
        )
    return RouterEngine(endpoints, **_remote_kwargs(params))


register_scheme("memory", (), _build_memory)
register_scheme("file", ("checkpoint_wal_bytes", "manifest_compact_deltas",
                         "heap_cache_pages"), _build_file)
register_scheme("sqlite", ("synchronous",), _build_sqlite)
register_scheme("sharded", ("shard_durability",), _build_sharded)
register_scheme("remote", _REMOTE_KEYS, _build_remote)
register_scheme("routed", _REMOTE_KEYS, _build_routed)


def engine_from_url(url: str) -> StorageEngine:
    """Construct (opening or creating) the storage engine ``url`` names."""
    if not url:
        raise ValueError("empty storage URL")
    base, has_query, query = url.partition("?")
    params = _parse_query(query, url) if has_query else {}
    if not base:
        raise ValueError(f"storage URL {url!r} has no location before '?'")
    scheme, rest = _split_scheme(base)
    extra_keys: tuple[str, ...] = ()
    if scheme == "sharded":
        # Child-scheme keys ride along on sharded URLs and configure
        # every shard: 'sharded:4:file:/p?heap_cache_pages=64'.
        child_part = rest.partition(":")[2]
        if child_part:
            child_scheme = _split_scheme(child_part)[0]
            spec = _SCHEME_REGISTRY.get(
                child_scheme if child_scheme is not None else "file")
            extra_keys = spec.keys if spec is not None else ()
    _check_keys(params, scheme if scheme is not None else "file", url,
                extra_keys)
    kinds = {params.get("durability"), params.get("shard_durability")}
    if not kinds & {"group", "async"}:
        # The tuning knobs configure the committer thread; a sync-only
        # (or policy-less) URL carrying them is a likely typo for
        # durability=group — reject it rather than silently ignore.
        for key in ("group_window_ms", "group_max_batches",
                    "async_max_pending"):
            if key in params:
                raise ValueError(
                    f"query parameter {key} needs durability=group or "
                    f"durability=async (or shard_durability=) alongside "
                    f"it in {url!r}"
                )
    # Validate policy parameters before constructing anything, so a bad
    # value cannot leak an opened engine (file handles, on-disk files).
    obs = _obs_params(params, url)
    policy = _policy_from_params(params.get("durability"), params)
    build = _SCHEME_REGISTRY[scheme if scheme is not None else "file"].build
    engine = build(rest, params)
    if policy is not None:
        engine = PipelinedEngine(engine, policy)
    if obs.get("metrics") or obs.get("slow_op_ms") is not None:
        # An explicit ask for telemetry at the engine level; plain URLs
        # stay unwrapped here (open_store wraps by default at the store
        # layer instead).
        from repro.store.obs import TimedEngine, bind_engine_metrics

        engine = TimedEngine(engine,
                             slow_op_ms=obs.get("slow_op_ms"))
        bind_engine_metrics(engine, engine.metrics)
    return engine
