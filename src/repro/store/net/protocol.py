"""The store wire protocol: compact length-prefixed binary frames.

One frame travels in each direction per operation::

    uvarint(len(payload)) | u32 crc32(payload) | payload

The payload's first byte is the **opcode** on a request and the
**status** on a response; the rest is the operation body.  The CRC sits
in the same little-endian ``u32``-after-length position as the WAL's
:func:`repro.store.wal.frame_payload` frames and guards the payload the
same way — a frame whose CRC does not match is a protocol violation,
not a soft error, because a desynchronised stream cannot be trusted to
re-frame.  The length prefix is a LEB128 uvarint (the serializer's
integer wire format, :func:`repro.store.serializer.write_uvarint`)
rather than the WAL's fixed ``u32``, so tiny control frames cost two
bytes of framing instead of eight.

Bodies reuse the store's existing binary vocabulary wholesale:

* OIDs and counts are uvarints;
* a :class:`~repro.store.engine.base.WriteBatch` travels as the sharded
  engine's staging encoding
  (:func:`repro.store.engine.sharded.encode_batch`);
* root tables are ``count | (uvarint(len(name)) name uvarint(oid))*``;
* stats ride as UTF-8 JSON (they feed dashboards, not hot paths).

A frame longer than the receiver's ``max_frame`` bound is rejected
before any allocation happens — the length is read first, so a hostile
or corrupt length prefix cannot balloon memory.

The protocol is **trusted-network** transport (a deployment runs it
over localhost, Unix sockets or a private interconnect): there is no
authentication and no encryption, exactly like the memcached/redis
class of stores this layer is modelled on.
"""

from __future__ import annotations

import json
import socket
import struct
import zlib
from typing import Iterable, Optional

from repro.errors import RemoteDisconnectedError, WireProtocolError
from repro.store.oids import Oid
from repro.store.serializer import read_uvarint, write_uvarint

#: Bump on any incompatible frame/body change; exchanged in HELLO.
#: v2: the TRACE envelope carries a parent span id after the trace id,
#: so server-side spans link into the client's span tree.
PROTOCOL_VERSION = 2

#: Default ceiling on one frame's payload, either direction.  Large
#: enough for a fat ``apply_many`` group, small enough that a corrupt
#: length prefix cannot OOM the receiver.
MAX_FRAME_BYTES = 64 * 1024 * 1024

# -- opcodes (request payload byte 0) ---------------------------------------

OP_HELLO = 0x01
OP_FETCH = 0x02
OP_FETCH_MANY = 0x03
OP_CONTAINS = 0x04
OP_OIDS = 0x05
OP_ROOTS = 0x06
OP_SET_ROOTS = 0x07
OP_NEXT_OID = 0x08
OP_RESERVE = 0x09
OP_APPLY = 0x0A
OP_APPLY_MANY = 0x0B
OP_FLUSH = 0x0C
OP_SYNC = 0x0D
OP_COMPACT = 0x0E
OP_STATS = 0x0F
OP_RESET = 0x10
OP_SHUTDOWN = 0x11
#: Extended stats: server info plus a full metrics snapshot and the
#: recent span tail (JSON body, like OP_STATS).  An optional request
#: body ``uvarint trace_id`` filters the spans to that trace — the
#: hook a client uses to pull back its own trace's server-side
#: children for tree reassembly.
OP_STATS_FULL = 0x12
#: Trace envelope: ``uvarint trace_id | uvarint parent_span_id |
#: inner request``.  The server dispatches the inner request normally
#: and records a span subtree for it under the carried trace id, with
#: the dispatch span parented to ``parent_span_id`` (0: no parent) —
#: which is how client-side and server-side spans join into one tree.
OP_TRACE = 0x13

#: Human names for errors and stats.
OP_NAMES = {
    OP_HELLO: "hello", OP_FETCH: "fetch", OP_FETCH_MANY: "fetch_many",
    OP_CONTAINS: "contains", OP_OIDS: "oids", OP_ROOTS: "roots",
    OP_SET_ROOTS: "set_roots", OP_NEXT_OID: "next_oid",
    OP_RESERVE: "reserve", OP_APPLY: "apply",
    OP_APPLY_MANY: "apply_many", OP_FLUSH: "flush", OP_SYNC: "sync",
    OP_COMPACT: "compact", OP_STATS: "stats", OP_RESET: "reset",
    OP_SHUTDOWN: "shutdown", OP_STATS_FULL: "stats_full",
    OP_TRACE: "trace",
}

# -- statuses (response payload byte 0) -------------------------------------

ST_OK = 0x00
ST_NOT_FOUND = 0x01
ST_ERROR = 0x02

_CRC = struct.Struct("<I")


# -- framing ----------------------------------------------------------------

def frame_message(payload: bytes) -> bytes:
    """One wire frame around ``payload`` (opcode/status byte included)."""
    head = bytearray()
    write_uvarint(head, len(payload))
    head.extend(_CRC.pack(zlib.crc32(payload)))
    return bytes(head) + payload


class FrameStream:
    """Buffered frame reader/writer over one connected socket.

    Owns nothing but the framing: the caller decides payload meaning,
    connection lifetime and locking.  Every read error is normalised to
    one of two exceptions — :class:`RemoteDisconnectedError` when the
    peer vanished (EOF, reset, timeout) and :class:`WireProtocolError`
    when bytes arrived but violated the protocol — so both sides of the
    connection can make the same drop-the-connection decision.
    """

    def __init__(self, sock: socket.socket,
                 max_frame: int = MAX_FRAME_BYTES):
        self._sock = sock
        self._max_frame = max_frame
        self._buffer = b""

    @property
    def socket(self) -> socket.socket:
        return self._sock

    # -- sending ------------------------------------------------------------

    def send_message(self, payload: bytes) -> None:
        self.send_raw(frame_message(payload))

    def send_raw(self, data: bytes) -> None:
        """Send pre-framed bytes (the client's pipelining batches several
        frames into one send)."""
        try:
            self._sock.sendall(data)
        except (OSError, ValueError) as exc:
            raise RemoteDisconnectedError(
                f"connection lost while sending: {exc}"
            ) from exc

    # -- receiving ----------------------------------------------------------

    def _recv_chunk(self) -> bytes:
        try:
            chunk = self._sock.recv(65536)
        except (TimeoutError, socket.timeout) as exc:
            error = RemoteDisconnectedError(
                "timed out waiting for a reply"
            )
            # Flagged so the client can count timeouts apart from other
            # disconnects without parsing the message.
            error.timeout = True
            raise error from exc
        except (OSError, ValueError) as exc:
            raise RemoteDisconnectedError(
                f"connection lost while receiving: {exc}"
            ) from exc
        if not chunk:
            raise RemoteDisconnectedError("peer closed the connection")
        return chunk

    def _read_exact(self, size: int) -> bytes:
        while len(self._buffer) < size:
            self._buffer += self._recv_chunk()
        data, self._buffer = self._buffer[:size], self._buffer[size:]
        return data

    def _read_length(self) -> int:
        """The frame's uvarint length prefix, byte by byte."""
        value = 0
        shift = 0
        while True:
            byte = self._read_exact(1)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise WireProtocolError("unterminated frame length prefix")

    def recv_message(self, eof_ok: bool = False) -> Optional[bytes]:
        """The next frame's payload (CRC-checked), or ``None`` on a
        clean EOF between frames when ``eof_ok`` (the server's idle
        connections end that way)."""
        if eof_ok and not self._buffer:
            try:
                self._buffer = self._recv_chunk()
            except RemoteDisconnectedError:
                return None
        length = self._read_length()
        if length > self._max_frame:
            raise WireProtocolError(
                f"frame of {length} bytes exceeds the "
                f"{self._max_frame}-byte bound"
            )
        (crc,) = _CRC.unpack(self._read_exact(_CRC.size))
        payload = self._read_exact(length)
        if zlib.crc32(payload) != crc:
            raise WireProtocolError("frame payload failed its CRC check")
        if not payload:
            raise WireProtocolError("empty frame payload")
        return payload

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


# -- body encoding ----------------------------------------------------------

def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireProtocolError(f"{what} is not UTF-8: {exc}") from None


def pack_oid(oid: int) -> bytes:
    buf = bytearray()
    write_uvarint(buf, int(oid))
    return bytes(buf)


def unpack_oid(body: bytes, pos: int = 0) -> tuple[Oid, int]:
    value, pos = read_uvarint(body, pos)
    return Oid(value), pos


def pack_oids(oids: Iterable[int]) -> bytes:
    oids = list(oids)
    buf = bytearray()
    write_uvarint(buf, len(oids))
    for oid in oids:
        write_uvarint(buf, int(oid))
    return bytes(buf)


def unpack_oids(body: bytes, pos: int = 0) -> tuple[list[Oid], int]:
    count, pos = read_uvarint(body, pos)
    oids = []
    for _ in range(count):
        value, pos = read_uvarint(body, pos)
        oids.append(Oid(value))
    return oids, pos


def pack_records(records: dict) -> bytes:
    """``fetch_many`` reply body: present OIDs with their record bytes."""
    buf = bytearray()
    write_uvarint(buf, len(records))
    parts = [bytes(buf)]
    for oid, raw in records.items():
        head = bytearray()
        write_uvarint(head, int(oid))
        write_uvarint(head, len(raw))
        parts.append(bytes(head))
        parts.append(bytes(raw))
    return b"".join(parts)


def unpack_records(body: bytes, pos: int = 0) -> tuple[dict, int]:
    count, pos = read_uvarint(body, pos)
    records: dict[Oid, bytes] = {}
    for _ in range(count):
        oid, pos = read_uvarint(body, pos)
        length, pos = read_uvarint(body, pos)
        if pos + length > len(body):
            raise WireProtocolError("record body overruns its frame")
        records[Oid(oid)] = body[pos:pos + length]
        pos += length
    return records, pos


def pack_roots(roots: dict) -> bytes:
    buf = bytearray()
    write_uvarint(buf, len(roots))
    for name, oid in roots.items():
        encoded = name.encode("utf-8")
        write_uvarint(buf, len(encoded))
        buf.extend(encoded)
        write_uvarint(buf, int(oid))
    return bytes(buf)


def unpack_roots(body: bytes, pos: int = 0) -> tuple[dict, int]:
    count, pos = read_uvarint(body, pos)
    roots: dict[str, Oid] = {}
    for _ in range(count):
        length, pos = read_uvarint(body, pos)
        if pos + length > len(body):
            raise WireProtocolError("root name overruns its frame")
        name = _utf8(body[pos:pos + length], "root name")
        pos += length
        oid, pos = read_uvarint(body, pos)
        roots[name] = Oid(oid)
    return roots, pos


def pack_trace_envelope(trace_id: int, parent_span_id: int,
                        inner: bytes) -> bytes:
    """An ``OP_TRACE`` request wrapping ``inner`` (a complete request
    payload, opcode byte first)."""
    buf = bytearray([OP_TRACE])
    write_uvarint(buf, trace_id)
    write_uvarint(buf, parent_span_id)
    return bytes(buf) + inner


def unpack_trace_envelope(payload: bytes,
                          pos: int = 1) -> tuple[int, int, int]:
    """``(trace_id, parent_span_id, inner_offset)`` of an ``OP_TRACE``
    payload; ``pos`` starts after the opcode byte."""
    trace_id, pos = read_uvarint(payload, pos)
    parent_span_id, pos = read_uvarint(payload, pos)
    if pos >= len(payload):
        raise WireProtocolError("trace envelope carries no inner request")
    return trace_id, parent_span_id, pos


def pack_stats(stats: dict) -> bytes:
    return json.dumps(stats, sort_keys=True).encode("utf-8")


def unpack_stats(body: bytes) -> dict:
    try:
        return json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise WireProtocolError(f"malformed stats body: {exc}") from exc


# -- error transport --------------------------------------------------------

def pack_error(exc: BaseException) -> bytes:
    """``ST_ERROR`` body: exception type name + message, both UTF-8."""
    kind = type(exc).__name__.encode("utf-8")
    message = str(exc).encode("utf-8", "replace")
    buf = bytearray()
    write_uvarint(buf, len(kind))
    buf.extend(kind)
    return bytes(buf) + message


def unpack_error(body: bytes) -> tuple[str, str]:
    length, pos = read_uvarint(body, 0)
    if pos + length > len(body):
        raise WireProtocolError("error frame overruns its payload")
    kind = _utf8(body[pos:pos + length], "error type name")
    message = body[pos + length:].decode("utf-8", "replace")
    return kind, message
