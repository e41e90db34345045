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

A string with no (known) scheme is taken as a plain filesystem path and
opened with the file engine, so existing ``ObjectStore.open(path)``
habits carry over: ``open_store("/tmp/s")`` == ``open_store("file:/tmp/s")``.

A trailing query string, ``?key=value&key=value``, tunes the store and
its engine.  Every key is declared once, in :data:`_KEYS`, with the
layer it configures and its value parser; ``docs/architecture.md``
("Storage URLs") documents them.  Unknown keys, malformed pairs and
out-of-range values raise ``ValueError`` naming the offending key.
The ``store``-layer keys configure the :class:`ObjectStore`, not the
engine: :func:`split_store_url` peels them off (``ObjectStore.from_url``
and ``open_store`` call it); handing them straight to
:func:`engine_from_url` raises a ``ValueError`` that says so.
"""

from __future__ import annotations

import operator
import os
from typing import Callable, NamedTuple, Optional

from repro.store.commit.pipeline import PipelinedEngine
from repro.store.commit.policy import DurabilityPolicy, make_policy
from repro.store.engine.base import StorageEngine
from repro.store.engine.filesystem import FileEngine
from repro.store.engine.memory import MemoryEngine
from repro.store.engine.sharded import ShardedEngine
from repro.store.engine.sqlite import SqliteEngine


# -- value parsers ----------------------------------------------------------

def _integer(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"query parameter {key} must be an integer, got {text!r}"
        ) from None


def _number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(
            f"query parameter {key} must be a number, got {text!r}"
        ) from None


def _string(key: str, text: str) -> str:
    return text


def _codec(key: str, text: str) -> str:
    from repro.store.serializer import parse_codec

    try:
        parse_codec(text)
    except ValueError as exc:
        raise ValueError(f"query parameter {key} is invalid: {exc}") from None
    return text


def _flag(key: str, text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"query parameter {key} must be 0 or 1, got {text!r}")
    return text == "1"


def _path(key: str, text: str) -> str:
    if not text:
        raise ValueError(f"query parameter {key} needs a file path")
    return text


class _Key(NamedTuple):
    """One query key: the layer it configures, its value parser and,
    where one is checked here, its lower bound (``(">=", 1)``)."""

    layer: str
    parse: Callable[[str, str], object]
    bound: Optional[tuple[str, float]] = None


#: Every query key the factory understands.  ``store`` keys are the
#: ``ObjectStore`` keyword arguments of the same name; ``pipeline`` keys
#: are valid for every scheme; ``file``/``sqlite``/``remote`` keys are the
#: engine keyword arguments of the same name; a sharded URL also takes
#: its child scheme's keys and forwards them to every shard.
_KEYS: dict[str, _Key] = {
    "cache_objects": _Key("store", _integer, (">=", 1)),
    "compress": _Key("store", _codec),
    "metrics": _Key("store", _flag),
    "slow_op_ms": _Key("store", _number, (">", 0)),
    "trace_sample": _Key("store", _integer, (">=", 0)),
    "slow_trace_ms": _Key("store", _number, (">", 0)),
    "trace_log": _Key("store", _path),
    "durability": _Key("pipeline", _string),
    "group_window_ms": _Key("pipeline", _number),
    "group_max_batches": _Key("pipeline", _integer),
    "async_max_pending": _Key("pipeline", _integer),
    "checkpoint_wal_bytes": _Key("file", _integer),
    "manifest_compact_deltas": _Key("file", _integer),
    "heap_cache_pages": _Key("file", _integer),
    "synchronous": _Key("sqlite", _string),
    "shard_durability": _Key("sharded", _string),
    "connect_timeout": _Key("remote", _number),
    "op_timeout": _Key("remote", _number),
    "read_retries": _Key("remote", _integer),
}

#: Keys consumed by the ObjectStore layer; the engine never sees them.
STORE_KEYS = tuple(key for key, spec in _KEYS.items()
                   if spec.layer == "store")

#: Pipeline keys that tune the committer thread -> ``make_policy`` args.
_POLICY_ARGS = {"group_window_ms": "window_ms",
                "group_max_batches": "max_batches",
                "async_max_pending": "max_pending"}

_BOUND_CHECKS = {">=": operator.ge, ">": operator.gt}


def _value(key: str, text: str) -> object:
    spec = _KEYS[key]
    value = spec.parse(key, text)
    if spec.bound is not None:
        op, limit = spec.bound
        if not _BOUND_CHECKS[op](value, limit):
            raise ValueError(
                f"query parameter {key} must be {op} {limit}, got {value}"
            )
    return value


def _layer(values: dict, layer: str) -> dict:
    """The parsed values of one layer's keys, as keyword arguments."""
    return {key: value for key, value in values.items()
            if _KEYS[key].layer == layer}


# -- scheme builders --------------------------------------------------------

def _build_memory(location: str, values: dict) -> StorageEngine:
    if location:
        raise ValueError(f"memory: takes no location, got {location!r}")
    return MemoryEngine()


def _build_file(location: str, values: dict) -> StorageEngine:
    if not location:
        raise ValueError("file: needs a directory path")
    return FileEngine(location, **_layer(values, "file"))


def _build_sqlite(location: str, values: dict) -> StorageEngine:
    if not location:
        raise ValueError("sqlite: needs a database path")
    return SqliteEngine(location, **_layer(values, "sqlite"))


#: Each leaf scheme's per-shard location inside a sharded URL's base
#: directory (memory shards take no location).
_SHARD_NAMES = {"memory": None, "file": "shard{}",
                "sqlite": "shard{}.sqlite"}


def _build_sharded(rest: str, values: dict) -> StorageEngine:
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
    if child_scheme is None and location in _SCHEMES:
        raise ValueError(
            f"child URL {child_url!r} looks like a scheme missing its "
            f"colon — did you mean '{location}:'?"
        )
    child_scheme = child_scheme or "file"
    if child_scheme not in _SHARD_NAMES:
        raise ValueError(
            f"sharded children must be memory:, file: or sqlite: engines, "
            f"got {child_scheme}: — compose store servers with 'routed:' "
            f"instead"
        )
    # Build the shard policy before any child is opened, so a bad
    # parameter cannot leak N opened engines.  One shared instance is
    # enough — a policy is a stateless parameter bag; only the wrapper
    # (and its pipeline) is per-child.
    shard_policy = _policy(values.get("shard_durability"), values)
    build = _SCHEMES[child_scheme][1]
    name = _SHARD_NAMES[child_scheme]
    if name is None:
        children = [build(location, values) for _ in range(count)]
    else:
        if not location:
            raise ValueError(f"{child_scheme}: needs a base directory "
                             f"for its shards")
        os.makedirs(location, exist_ok=True)
        children = [build(os.path.join(location, name.format(index)), values)
                    for index in range(count)]
    if shard_policy is not None:
        children = [PipelinedEngine(child, shard_policy)
                    for child in children]
    return ShardedEngine(children)


def _build_remote(location: str, values: dict) -> StorageEngine:
    from repro.store.net.client import RemoteEngine

    if not location:
        raise ValueError("remote: needs HOST:PORT or unix:PATH")
    return RemoteEngine(location, **_layer(values, "remote"))


def _build_routed(location: str, values: dict) -> StorageEngine:
    from repro.store.net.router import RouterEngine

    endpoints = [endpoint for endpoint in location.split(",") if endpoint]
    if not endpoints:
        raise ValueError(
            "routed: needs a comma-separated endpoint list, e.g. "
            "'routed:host1:p1,host2:p2'"
        )
    return RouterEngine(endpoints, **_layer(values, "remote"))


#: Every storage scheme: the layer of its own query keys (alongside the
#: pipeline keys) and the builder that opens its engine from the URL's
#: location and the parsed query values.
_SCHEMES: dict[str, tuple[str, Callable[[str, dict], StorageEngine]]] = {
    "memory": ("memory", _build_memory),
    "file": ("file", _build_file),
    "sqlite": ("sqlite", _build_sqlite),
    "sharded": ("sharded", _build_sharded),
    "remote": ("remote", _build_remote),
    "routed": ("remote", _build_routed),
}


# -- parsing ----------------------------------------------------------------

def _split_scheme(url: str) -> tuple[str | None, str]:
    scheme, sep, rest = url.partition(":")
    if sep and scheme in _SCHEMES:
        return scheme, rest
    if sep and len(scheme) > 1 and scheme.isalpha():
        raise ValueError(
            f"unknown storage scheme {scheme!r} in {url!r}; "
            f"known schemes: {', '.join(_SCHEMES)}"
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


def _check_keys(params: dict[str, str], scheme: str, rest: str,
                url: str) -> None:
    store_level = sorted(key for key in params if key in STORE_KEYS)
    if store_level:
        raise ValueError(
            f"query parameter(s) {', '.join(map(repr, store_level))} in "
            f"{url!r} configure the store, not the engine; open the URL "
            f"with open_store()/ObjectStore.from_url (or split it with "
            f"repro.store.engine.factory.split_store_url first)"
        )
    layers = {"pipeline", _SCHEMES[scheme][0]}
    if scheme == "sharded":
        # Child-scheme keys ride along on sharded URLs and configure
        # every shard: 'sharded:4:file:/p?heap_cache_pages=64'.
        child_part = rest.partition(":")[2]
        if child_part:
            child_scheme = _split_scheme(child_part)[0] or "file"
            layers.add(_SCHEMES[child_scheme][0])
    known = {key for key, spec in _KEYS.items() if spec.layer in layers}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(
            f"unknown query parameter(s) {', '.join(map(repr, unknown))} "
            f"for {scheme}: URLs in {url!r}; known keys: "
            f"{', '.join(sorted(known))}"
        )
    kinds = {params.get("durability"), params.get("shard_durability")}
    if not kinds & {"group", "async"}:
        # The tuning knobs configure the committer thread; a sync-only
        # (or policy-less) URL carrying them is a likely typo for
        # durability=group — reject it rather than silently ignore.
        for key in _POLICY_ARGS:
            if key in params:
                raise ValueError(
                    f"query parameter {key} needs durability=group or "
                    f"durability=async (or shard_durability=) alongside "
                    f"it in {url!r}"
                )


def _policy(kind: Optional[str], values: dict) -> Optional[DurabilityPolicy]:
    if kind is None:
        return None
    return make_policy(kind, **{arg: values[key]
                                for key, arg in _POLICY_ARGS.items()
                                if key in values})


def split_store_url(url: str) -> tuple[str, dict]:
    """Split store-level query parameters off a storage URL.

    Returns ``(engine_url, store_options)`` where ``engine_url`` keeps
    every engine-level parameter and ``store_options`` is ready to pass
    to ``ObjectStore(**store_options)``.  Values are validated here so a
    bad store parameter fails before any engine is opened.
    """
    base, has_query, query = url.partition("?")
    if not has_query:
        return url, {}
    params = _parse_query(query, url)
    store_options = {key: _value(key, params.pop(key))
                     for key in list(params) if key in STORE_KEYS}
    if params:
        rest = "&".join(f"{key}={value}" for key, value in params.items())
        return f"{base}?{rest}", store_options
    return base, store_options


def engine_from_url(url: str) -> StorageEngine:
    """Construct (opening or creating) the storage engine ``url`` names."""
    if not url:
        raise ValueError("empty storage URL")
    base, has_query, query = url.partition("?")
    params = _parse_query(query, url) if has_query else {}
    if not base:
        raise ValueError(f"storage URL {url!r} has no location before '?'")
    scheme, rest = _split_scheme(base)
    scheme = scheme or "file"
    _check_keys(params, scheme, rest, url)
    # Parse every value and build the policy before constructing
    # anything, so a bad value cannot leak an opened engine (file
    # handles, on-disk files).
    values = {key: _value(key, text) for key, text in params.items()}
    policy = _policy(values.get("durability"), values)
    engine = _SCHEMES[scheme][1](rest, values)
    if policy is not None:
        engine = PipelinedEngine(engine, policy)
    return engine
