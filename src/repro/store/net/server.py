"""The store server: one process per shard group, any engine behind it.

A :class:`StoreServer` wraps whatever engine a storage URL names
(``file:``, ``sqlite:``, ``memory:``, ``sharded:N:...``, including all
their query parameters) and serves the full
:class:`~repro.store.engine.base.StorageEngine` contract over TCP or a
Unix socket, speaking the length-prefixed frames of
:mod:`repro.store.net.protocol`.  ``scripts/store_server.py`` is the
process entry point; the ``remote:`` engine
(:mod:`repro.store.net.client`) is the in-process view from the other
side of the socket.

Threading model: one acceptor thread (``repro-net-accept``) plus one
thread per connection (``repro-net-conn-N``).  Engine *reads* run
concurrently across connections — every backend's ``read``/
``fetch_many`` is reader-thread-safe — while every mutating operation
(``apply``, ``apply_many``, ``set_roots``, ``reserve``, ``compact``,
``reset``) serialises on one server-wide write lock, preserving the
engines' single-writer contract no matter how many clients are
connected.

Failure discipline per connection:

* an engine or value error inside a well-framed request is reported as
  an ``ST_ERROR`` (or ``ST_NOT_FOUND``) response and the connection
  keeps serving;
* a frame-level violation (bad CRC, oversized length, unterminated
  prefix) gets a best-effort error response and the connection is
  dropped — a desynchronised stream cannot be re-framed;
* a peer disconnect, mid-request or between requests, just closes the
  connection; the server and its other connections are unaffected.

``reset`` is the admin operation behind per-session test isolation: it
closes the engine and re-opens the same URL (ephemeral ``memory:``
engines come back empty; durable engines come back with their data).
``shutdown`` stops the whole server gracefully.  Both ride the same
trusted-network assumption as the rest of the protocol.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Optional

from repro.errors import (
    RemoteDisconnectedError,
    StoreClosedError,
    UnknownOidError,
    WireProtocolError,
)
from repro.store.engine.base import StorageEngine, WriteBatch
from repro.store.engine.factory import engine_from_url
from repro.store.engine.sharded import decode_batch, encode_batch  # noqa: F401 - encode_batch re-exported for symmetry
from repro.store.net import protocol as wire
from repro.store.obs import (
    MetricsRegistry,
    SpanLog,
    TimedEngine,
    TraceLog,
    Tracer,
    bind_engine_metrics,
)
from repro.store.serializer import read_uvarint

__all__ = ["StoreServer"]


class StoreServer:
    """Serve one engine URL over a TCP or Unix socket."""

    def __init__(self, url: str, bind: str = "127.0.0.1:0",
                 max_frame: int = wire.MAX_FRAME_BYTES,
                 trace_log: Optional[str] = None):
        self._url = url
        self._max_frame = max_frame
        #: The server's own registry: per-op dispatch histograms plus
        #: the wrapped engine's instruments, returned whole by the
        #: ``stats_full`` op.
        self.metrics = MetricsRegistry()
        #: Recent dispatch spans (``stats_full`` returns the tail).
        self.spans = SpanLog()
        #: Envelope-driven tracing: a TRACE-wrapped request dispatches
        #: under a real span scope, so engine-phase children (WAL
        #: fsync, 2PC phases, pipeline groups) land in :attr:`spans`
        #: with the client's trace id — and, with ``trace_log``, in a
        #: durable JSONL sink alongside lifecycle events.
        self.tracer = Tracer(
            log=TraceLog(trace_log) if trace_log else None,
            spans=self.spans)
        self._op_hist = {
            op: self.metrics.histogram("server_op_ns", op=name)
            for op, name in wire.OP_NAMES.items()
        }
        self._engine = self._instrumented(engine_from_url(url))
        self._write_lock = threading.Lock()
        self._conn_lock = threading.Lock()
        self._connections: dict[int, socket.socket] = {}
        self._conn_seq = 0
        self._requests = 0
        self._started_at = time.time()
        self._closing = False
        self._stopped = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        try:
            self._listener, self.endpoint = self._bind(bind)
        except BaseException:
            self._engine.close()
            raise

    def _instrumented(self, engine: StorageEngine) -> StorageEngine:
        """Time the engine through the server's registry and surface its
        native counters as pull gauges (re-run on ``reset``: gauge
        callbacks re-bind to the fresh engine)."""
        engine = TimedEngine(engine, self.metrics)
        bind_engine_metrics(engine, self.metrics)
        return engine

    @staticmethod
    def _bind(bind: str) -> tuple[socket.socket, str]:
        if bind.startswith("unix:"):
            path = bind[len("unix:"):]
            if not path:
                raise ValueError("unix: bind address needs a socket path")
            if os.path.exists(path):
                os.unlink(path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            endpoint = f"unix:{path}"
        else:
            host, sep, port_text = bind.rpartition(":")
            if not sep:
                raise ValueError(
                    f"bind address {bind!r} is neither HOST:PORT nor "
                    f"unix:PATH"
                )
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, int(port_text)))
            bound_host, bound_port = listener.getsockname()[:2]
            endpoint = f"{bound_host}:{bound_port}"
        listener.listen(128)
        return listener, endpoint

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "StoreServer":
        """Begin accepting connections on a background thread."""
        if self._accept_thread is not None:
            raise RuntimeError("server already started")
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-net-accept", daemon=True)
        self._accept_thread.start()
        self.tracer.event("server_start", endpoint=self.endpoint,
                          url=self._url, pid=os.getpid())
        return self

    def serve_forever(self) -> None:
        """Start and block until :meth:`stop` (or a ``shutdown`` op)."""
        self.start()
        self._stopped.wait()

    def stop(self) -> None:
        """Stop accepting, drop every connection, close the engine."""
        if self._closing:
            self._stopped.wait()
            return
        self._closing = True
        try:
            # shutdown(), not just close(): a thread blocked in accept()
            # is not woken by a cross-thread close() on Linux, but a
            # shutdown of the listening socket interrupts it immediately.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        with self._conn_lock:
            conns = list(self._connections.values())
            self._connections.clear()
        for sock in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        thread = self._accept_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5)
        self.tracer.event("server_stop", endpoint=self.endpoint,
                          requests=self._requests)
        try:
            self._engine.close()
        finally:
            self.tracer.close()
            if self.endpoint.startswith("unix:"):
                try:
                    os.unlink(self.endpoint[len("unix:"):])
                except OSError:
                    pass
            self._stopped.set()

    def __enter__(self) -> "StoreServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- accept/connection loops --------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            with self._conn_lock:
                if self._closing:
                    sock.close()
                    break
                self._conn_seq += 1
                conn_id = self._conn_seq
                self._connections[conn_id] = sock
            if sock.family == socket.AF_INET:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve_connection, args=(conn_id, sock),
                name=f"repro-net-conn-{conn_id}", daemon=True,
            ).start()

    def _serve_connection(self, conn_id: int, sock: socket.socket) -> None:
        stream = wire.FrameStream(sock, self._max_frame)
        try:
            while not self._closing:
                try:
                    payload = stream.recv_message(eof_ok=True)
                except RemoteDisconnectedError:
                    break  # mid-request disconnect: just this conn dies
                except WireProtocolError as exc:
                    # Best-effort report, then drop: the stream cannot
                    # be re-framed after a framing violation.
                    self._try_send_error(stream, exc)
                    break
                if payload is None:
                    break  # clean EOF between frames
                self._requests += 1
                try:
                    response, stop_after = self._dispatch(payload)
                except WireProtocolError as exc:
                    self._try_send_error(stream, exc)
                    break
                try:
                    stream.send_message(response)
                except RemoteDisconnectedError:
                    break
                if stop_after:
                    threading.Thread(target=self.stop,
                                     name="repro-net-shutdown",
                                     daemon=True).start()
                    break
        finally:
            with self._conn_lock:
                self._connections.pop(conn_id, None)
            stream.close()

    @staticmethod
    def _try_send_error(stream: wire.FrameStream,
                        exc: BaseException) -> None:
        try:
            stream.send_message(bytes([wire.ST_ERROR]) +
                                wire.pack_error(exc))
        except RemoteDisconnectedError:
            pass

    # -- dispatch -----------------------------------------------------------

    def _dispatch(self, payload: bytes, trace_id: int = 0,
                  parent_span: int = 0) -> tuple[bytes, bool]:
        """The response payload for one request, plus a stop-after flag."""
        op = payload[0]
        if op == wire.OP_TRACE:
            # Trace envelope: unwrap the carried trace and parent span
            # ids and dispatch the inner request under them (one level;
            # a nested envelope is a client bug and just re-enters here
            # harmlessly).
            try:
                inner_id, parent, pos = wire.unpack_trace_envelope(payload)
            except WireProtocolError:
                raise
            except Exception as exc:
                raise WireProtocolError(
                    f"malformed trace envelope: {exc}") from exc
            return self._dispatch(payload[pos:], trace_id=inner_id,
                                  parent_span=parent)
        body = payload[1:]
        handler = self._HANDLERS.get(op)
        if handler is None:
            raise WireProtocolError(f"unknown opcode 0x{op:02X}")

        def run() -> tuple[bytes, bool]:
            try:
                response = handler(self, body)
            except UnknownOidError as exc:
                oid = exc.args[0] if exc.args else 0
                oid = oid if isinstance(oid, int) else 0
                return (bytes([wire.ST_NOT_FOUND]) + wire.pack_oid(oid),
                        False)
            except WireProtocolError:
                raise
            except Exception as exc:  # noqa: BLE001 - reported to the client
                return bytes([wire.ST_ERROR]) + wire.pack_error(exc), False
            return bytes([wire.ST_OK]) + response, op == wire.OP_SHUTDOWN

        started_at = time.time_ns()
        start = time.perf_counter_ns()
        # An enveloped request dispatches under a real (always-kept)
        # span scope: engine-phase children recorded during the handler
        # attach to it, the whole subtree lands in self.spans under the
        # client's trace id, and the dispatch span itself is parented
        # to the client-side span that issued the request.
        scope = self.tracer.root(wire.OP_NAMES.get(op, hex(op)),
                                 trace_id=trace_id, parent_id=parent_span,
                                 forced=True) if trace_id else None
        try:
            if scope is not None:
                with scope:
                    return run()
            return run()
        finally:
            dur = time.perf_counter_ns() - start
            self._op_hist[op].observe(dur)
            if scope is None:
                self.spans.record(wire.OP_NAMES.get(op, hex(op)),
                                  started_at, dur, trace_id)

    # -- handlers (one per opcode) ------------------------------------------

    def _op_hello(self, body: bytes) -> bytes:
        version, _pos = read_uvarint(body, 0)
        if version != wire.PROTOCOL_VERSION:
            raise WireProtocolError(
                f"client speaks protocol {version}, server speaks "
                f"{wire.PROTOCOL_VERSION}"
            )
        buf = bytearray()
        buf.append(wire.PROTOCOL_VERSION)
        buf.extend(self._engine.name.encode("utf-8"))
        return bytes(buf)

    def _op_fetch(self, body: bytes) -> bytes:
        oid, _pos = wire.unpack_oid(body)
        return self._engine.read(oid)

    def _op_fetch_many(self, body: bytes) -> bytes:
        oids, _pos = wire.unpack_oids(body)
        return wire.pack_records(self._engine.fetch_many(oids))

    def _op_contains(self, body: bytes) -> bytes:
        oid, _pos = wire.unpack_oid(body)
        return b"\x01" if self._engine.contains(oid) else b"\x00"

    def _op_oids(self, body: bytes) -> bytes:
        return wire.pack_oids(self._engine.oids())

    def _op_roots(self, body: bytes) -> bytes:
        return wire.pack_roots(self._engine.roots())

    def _op_set_roots(self, body: bytes) -> bytes:
        roots, _pos = wire.unpack_roots(body)
        with self._write_lock:
            self._engine.apply(WriteBatch().set_roots(roots))
        return b""

    def _op_next_oid(self, body: bytes) -> bytes:
        return wire.pack_oid(self._engine.next_oid)

    def _op_reserve(self, body: bytes) -> bytes:
        count, _pos = read_uvarint(body, 0)
        if count < 1:
            raise ValueError(f"reserve count must be >= 1, got {count}")
        with self._write_lock:
            start = self._engine.next_oid
            self._engine.apply(
                WriteBatch().advance_next_oid(start + count))
        return wire.pack_oid(start)

    def _op_apply(self, body: bytes) -> bytes:
        batch = self._decode_batch(body)
        with self._write_lock:
            self._engine.apply(batch)
        return b""

    def _op_apply_many(self, body: bytes) -> bytes:
        count, pos = read_uvarint(body, 0)
        batches = []
        for _ in range(count):
            length, pos = read_uvarint(body, pos)
            if pos + length > len(body):
                raise WireProtocolError("batch overruns its frame")
            batches.append(self._decode_batch(body[pos:pos + length]))
            pos += length
        with self._write_lock:
            self._engine.apply_many(batches)
        return b""

    @staticmethod
    def _decode_batch(blob: bytes) -> WriteBatch:
        try:
            return decode_batch(blob)
        except Exception as exc:
            raise WireProtocolError(f"malformed batch body: {exc}") from exc

    def _op_flush(self, body: bytes) -> bytes:
        self._engine.flush()
        return b""

    def _op_sync(self, body: bytes) -> bytes:
        self._engine.sync()
        return b""

    def _op_compact(self, body: bytes) -> bytes:
        with self._write_lock:
            return wire.pack_oid(self._engine.compact())

    def _stats_dict(self) -> dict:
        engine = self._engine
        return {
            "engine": engine.name,
            "url": self._url,
            "endpoint": self.endpoint,
            "pid": os.getpid(),
            "uptime_s": time.time() - self._started_at,
            "requests": self._requests,
            "connections": len(self._connections),
            "object_count": engine.object_count,
            "page_count": engine.page_count,
            "next_oid": engine.next_oid,
            "record_writes": engine.record_writes,
            "batches_applied": engine.batches_applied,
        }

    def _op_stats(self, body: bytes) -> bytes:
        return wire.pack_stats(self._stats_dict())

    def _op_stats_full(self, body: bytes) -> bytes:
        if body:
            # Optional trace filter: every retained span of one trace,
            # not just the recent tail — the reassembly path.
            wanted, _pos = read_uvarint(body, 0)
            spans = self.spans.for_trace(wanted)
        else:
            spans = self.spans.tail()
        return wire.pack_stats({
            "server": self._stats_dict(),
            "metrics": self.metrics.snapshot(),
            "spans": spans,
        })

    def _op_reset(self, body: bytes) -> bytes:
        with self._write_lock:
            old, self._engine = (self._engine,
                                 self._instrumented(
                                     engine_from_url(self._url)))
            try:
                old.close()
            except StoreClosedError:  # pragma: no cover - double reset
                pass
        self.tracer.event("engine_reset", endpoint=self.endpoint,
                          url=self._url)
        return b""

    def _op_shutdown(self, body: bytes) -> bytes:
        return b""

    _HANDLERS = {
        wire.OP_HELLO: _op_hello,
        wire.OP_FETCH: _op_fetch,
        wire.OP_FETCH_MANY: _op_fetch_many,
        wire.OP_CONTAINS: _op_contains,
        wire.OP_OIDS: _op_oids,
        wire.OP_ROOTS: _op_roots,
        wire.OP_SET_ROOTS: _op_set_roots,
        wire.OP_NEXT_OID: _op_next_oid,
        wire.OP_RESERVE: _op_reserve,
        wire.OP_APPLY: _op_apply,
        wire.OP_APPLY_MANY: _op_apply_many,
        wire.OP_FLUSH: _op_flush,
        wire.OP_SYNC: _op_sync,
        wire.OP_COMPACT: _op_compact,
        wire.OP_STATS: _op_stats,
        wire.OP_STATS_FULL: _op_stats_full,
        wire.OP_RESET: _op_reset,
        wire.OP_SHUTDOWN: _op_shutdown,
    }
