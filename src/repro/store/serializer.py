"""Typed, identity-preserving serialisation.

The store does not use pickle: pickle re-imports classes by path without a
schema check and flattens away the distinction between *references* and
*values*, losing exactly the typed-object fidelity PJama provides and
hyper-links require.  This module defines a small binary record format with
explicit type tags in which:

* every *storable node* (registered instance, ``list``, ``dict``, ``set``,
  ``bytearray``, :class:`~repro.store.weakrefs.PersistentWeakRef`) becomes
  one :class:`Record` named by an OID, and inter-node edges are stored as
  OID references — so sharing and cycles survive a round trip;
* immutable values (``None``, ``bool``, ``int``, ``float``, ``complex``,
  ``str``, ``bytes``, ``tuple``, ``frozenset``) are inlined with their own
  tags — a fetched field has exactly the type it was stored with;
* instance records carry the class's qualified name and schema fingerprint,
  checked against the :class:`~repro.store.registry.ClassRegistry` on fetch.

Decoding is two-phase so that cyclic graphs materialise correctly: first a
*shell* object is created for each record, then fields are filled with
references resolved through the store's identity map.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import DeserializationError, SerializationError
from repro.store.oids import Oid
from repro.store.registry import ClassRegistry, RegisteredClass

try:  # pragma: no cover - present in every standard CPython build
    import lzma
except ImportError:  # pragma: no cover - minimal builds without liblzma
    lzma = None  # type: ignore[assignment]

# ---------------------------------------------------------------------------
# Record kinds
# ---------------------------------------------------------------------------

KIND_INSTANCE = 1
KIND_LIST = 2
KIND_DICT = 3
KIND_SET = 4
KIND_BYTEARRAY = 5
KIND_WEAKREF = 6

_KIND_NAMES = {
    KIND_INSTANCE: "instance",
    KIND_LIST: "list",
    KIND_DICT: "dict",
    KIND_SET: "set",
    KIND_BYTEARRAY: "bytearray",
    KIND_WEAKREF: "weakref",
}

# Value tags -----------------------------------------------------------------

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_COMPLEX = b"c"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_TUPLE = b"u"
_TAG_FROZENSET = b"z"
_TAG_REF = b"r"


@dataclass(frozen=True)
class Ref:
    """A decoded reference to another storable node."""

    oid: Oid

    def __repr__(self) -> str:
        return f"Ref({self.oid})"


# ---------------------------------------------------------------------------
# Varint helpers
# ---------------------------------------------------------------------------

def write_uvarint(buf: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise SerializationError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Read an unsigned LEB128 varint; returns (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise DeserializationError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def write_svarint(buf: bytearray, value: int) -> None:
    """Append a signed integer as zigzag-encoded varint (arbitrary size)."""
    # Zigzag for arbitrary-precision ints: non-negative -> 2n, negative -> -2n-1.
    encoded = value * 2 if value >= 0 else -value * 2 - 1
    write_uvarint(buf, encoded)


def read_svarint(data: bytes, pos: int) -> tuple[int, int]:
    encoded, pos = read_uvarint(data, pos)
    value = encoded // 2 if encoded % 2 == 0 else -(encoded + 1) // 2
    return value, pos


def _write_str(buf: bytearray, text: str) -> None:
    try:
        raw = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise SerializationError(
            f"string cannot be stored as UTF-8: {exc}") from None
    write_uvarint(buf, len(raw))
    buf.extend(raw)


def _read_str(data: bytes, pos: int) -> tuple[str, int]:
    length, pos = read_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise DeserializationError("truncated string")
    try:
        return data[pos:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise DeserializationError(f"string is not UTF-8: {exc}") from None


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------

def encode_value(buf: bytearray, value: Any,
                 ref_fn: Callable[[Any], Oid]) -> None:
    """Encode one value into ``buf``.

    ``ref_fn`` is called for every storable node met inside the value; it
    must return the node's OID (allocating one if necessary) — the store
    supplies it during graph flattening.
    """
    if value is None:
        buf.extend(_TAG_NONE)
    elif value is True:
        buf.extend(_TAG_TRUE)
    elif value is False:
        buf.extend(_TAG_FALSE)
    elif type(value) is int:
        buf.extend(_TAG_INT)
        write_svarint(buf, value)
    elif type(value) is float:
        buf.extend(_TAG_FLOAT)
        buf.extend(struct.pack("<d", value))
    elif type(value) is complex:
        buf.extend(_TAG_COMPLEX)
        buf.extend(struct.pack("<dd", value.real, value.imag))
    elif type(value) is str:
        buf.extend(_TAG_STR)
        _write_str(buf, value)
    elif type(value) is bytes:
        buf.extend(_TAG_BYTES)
        write_uvarint(buf, len(value))
        buf.extend(value)
    elif type(value) is tuple:
        buf.extend(_TAG_TUPLE)
        write_uvarint(buf, len(value))
        for item in value:
            encode_value(buf, item, ref_fn)
    elif type(value) is frozenset:
        buf.extend(_TAG_FROZENSET)
        write_uvarint(buf, len(value))
        # Sort by encoding for a canonical order, so equal frozensets
        # produce identical bytes.
        encoded_items = []
        for item in value:
            item_buf = bytearray()
            encode_value(item_buf, item, ref_fn)
            encoded_items.append(bytes(item_buf))
        for raw in sorted(encoded_items):
            buf.extend(raw)
    else:
        oid = ref_fn(value)
        buf.extend(_TAG_REF)
        write_uvarint(buf, oid)


def decode_value(data: bytes, pos: int) -> tuple[Any, int]:
    """Decode one value; storable-node references come back as :class:`Ref`.

    Nesting deeper than the interpreter's stack allows is reported as
    corrupt input, like every other malformed byte string."""
    try:
        return _decode_value(data, pos)
    except RecursionError:
        raise DeserializationError("value nesting too deep") from None


def _decode_value(data: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(data):
        raise DeserializationError("truncated value")
    tag = data[pos:pos + 1]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_TRUE:
        return True, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_INT:
        return read_svarint(data, pos)
    if tag == _TAG_FLOAT:
        if pos + 8 > len(data):
            raise DeserializationError("truncated float")
        return struct.unpack_from("<d", data, pos)[0], pos + 8
    if tag == _TAG_COMPLEX:
        if pos + 16 > len(data):
            raise DeserializationError("truncated complex")
        real, imag = struct.unpack_from("<dd", data, pos)
        return complex(real, imag), pos + 16
    if tag == _TAG_STR:
        return _read_str(data, pos)
    if tag == _TAG_BYTES:
        length, pos = read_uvarint(data, pos)
        end = pos + length
        if end > len(data):
            raise DeserializationError("truncated bytes")
        return data[pos:end], end
    if tag == _TAG_TUPLE:
        count, pos = read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _TAG_FROZENSET:
        count, pos = read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos)
            items.append(item)
        return frozenset(items), pos
    if tag == _TAG_REF:
        oid, pos = read_uvarint(data, pos)
        return Ref(Oid(oid)), pos
    raise DeserializationError(f"unknown value tag {tag!r} at offset {pos - 1}")


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

@dataclass
class Record:
    """One storable node, flattened.

    ``payload`` is kind-specific *decoded structure*:

    * instance — ``dict[str, value]`` of persistent fields,
    * list/set — ``list[value]``,
    * dict — ``list[tuple[key, value]]``,
    * bytearray — ``bytes``,
    * weakref — a single value (``Ref`` or ``None``).

    Values may contain :class:`Ref` placeholders after decoding.
    """

    oid: Oid
    kind: int
    class_name: str
    fingerprint: str
    payload: Any

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES.get(self.kind, f"kind#{self.kind}")

    # -- binary format --------------------------------------------------

    def to_bytes(self) -> bytes:
        buf = bytearray()
        write_uvarint(buf, self.oid)
        buf.append(self.kind)
        _write_str(buf, self.class_name)
        _write_str(buf, self.fingerprint)
        body = bytearray()
        self._encode_payload(body)
        write_uvarint(buf, len(body))
        buf.extend(body)
        return bytes(buf)

    def _encode_payload(self, buf: bytearray) -> None:
        def no_refs(value: Any) -> Oid:
            if isinstance(value, Ref):
                return value.oid
            raise SerializationError(
                f"record payload for oid {self.oid} contains live object "
                f"{value!r}; flatten through Serializer.encode_object first"
            )

        if self.kind == KIND_INSTANCE:
            write_uvarint(buf, len(self.payload))
            for name, value in self.payload.items():
                _write_str(buf, name)
                encode_value(buf, value, no_refs)
        elif self.kind in (KIND_LIST, KIND_SET):
            write_uvarint(buf, len(self.payload))
            for value in self.payload:
                encode_value(buf, value, no_refs)
        elif self.kind == KIND_DICT:
            write_uvarint(buf, len(self.payload))
            for key, value in self.payload:
                encode_value(buf, key, no_refs)
                encode_value(buf, value, no_refs)
        elif self.kind == KIND_BYTEARRAY:
            write_uvarint(buf, len(self.payload))
            buf.extend(self.payload)
        elif self.kind == KIND_WEAKREF:
            encode_value(buf, self.payload, no_refs)
        else:
            raise SerializationError(f"unknown record kind {self.kind}")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Record":
        if data[:1] == b"\x00":
            # Codec-framed bytes (raw records never start with 0x00 —
            # the leading uvarint encodes an OID >= 1); decode stays
            # transparent whatever codec wrote the store.
            data = unwrap_record(data)
        oid, pos = read_uvarint(data, 0)
        if pos >= len(data):
            raise DeserializationError("truncated record header")
        kind = data[pos]
        pos += 1
        class_name, pos = _read_str(data, pos)
        fingerprint, pos = _read_str(data, pos)
        body_len, pos = read_uvarint(data, pos)
        end = pos + body_len
        if end > len(data):
            raise DeserializationError("truncated record body")
        try:
            payload = cls._decode_payload(kind, data[pos:end])
        except RecursionError:
            raise DeserializationError("value nesting too deep") from None
        return cls(Oid(oid), kind, class_name, fingerprint, payload)

    @staticmethod
    def _decode_payload(kind: int, body: bytes) -> Any:
        pos = 0
        if kind == KIND_INSTANCE:
            count, pos = read_uvarint(body, pos)
            fields: dict[str, Any] = {}
            for _ in range(count):
                name, pos = _read_str(body, pos)
                value, pos = _decode_value(body, pos)
                fields[name] = value
            return fields
        if kind in (KIND_LIST, KIND_SET):
            count, pos = read_uvarint(body, pos)
            items = []
            for _ in range(count):
                value, pos = _decode_value(body, pos)
                items.append(value)
            return items
        if kind == KIND_DICT:
            count, pos = read_uvarint(body, pos)
            pairs = []
            for _ in range(count):
                key, pos = _decode_value(body, pos)
                value, pos = _decode_value(body, pos)
                pairs.append((key, value))
            return pairs
        if kind == KIND_BYTEARRAY:
            length, pos = read_uvarint(body, pos)
            return body[pos:pos + length]
        if kind == KIND_WEAKREF:
            value, pos = _decode_value(body, pos)
            return value
        raise DeserializationError(f"unknown record kind {kind}")


# ---------------------------------------------------------------------------
# Record codec: optional per-record compression framing
# ---------------------------------------------------------------------------
#
# Legal record bytes start with ``uvarint(oid)`` and OID 0 is the null OID,
# never allocated — so an unframed record can never begin with a 0x00 byte.
# The codec claims that byte as a frame marker:
#
#     0x00 | codec id (1 byte) | uvarint(raw_len) | compressed body
#
# The codec id versions the frame (new compressors get new ids rather than
# reinterpreting old bytes), and ``raw_len`` lets decoders validate the
# expansion.  Framing is strictly optional and decode is always
# transparent: :func:`unwrap_record` passes unframed bytes through
# untouched, so a legacy uncompressed store opens under a
# compression-enabled URL — and a compressed store under a plain URL —
# without migration.  The codec choice only affects *new* writes.

#: First byte of a framed record; never the first byte of a raw record.
FRAME_MARKER = 0x00

CODEC_ZLIB = 1
CODEC_LZMA = 2

_CODEC_NAMES = {CODEC_ZLIB: "zlib", CODEC_LZMA: "lzma"}

#: Records shorter than this are never framed: the frame plus compressor
#: header overhead exceeds any plausible saving.
_MIN_COMPRESS_LEN = 64


class RecordCodec:
    """One per-record compression choice: a codec id and its level.

    :meth:`wrap` frames raw record bytes *only when that makes them
    smaller* — incompressible records are stored unframed, so readers
    pay nothing for them and the worst case costs zero bytes.
    """

    __slots__ = ("codec_id", "level")

    def __init__(self, codec_id: int, level: int):
        if codec_id not in _CODEC_NAMES:
            raise ValueError(f"unknown record codec id {codec_id}")
        if codec_id == CODEC_LZMA and lzma is None:
            raise ValueError(
                "lzma compression is unavailable in this Python build"
            )
        if not 0 <= level <= 9:
            raise ValueError(
                f"{_CODEC_NAMES[codec_id]} level must be in 0..9, "
                f"got {level}"
            )
        self.codec_id = codec_id
        self.level = level

    @property
    def name(self) -> str:
        return f"{_CODEC_NAMES[self.codec_id]}:{self.level}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RecordCodec({self.name})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, RecordCodec)
                and other.codec_id == self.codec_id
                and other.level == self.level)

    def __hash__(self) -> int:
        return hash((self.codec_id, self.level))

    def wrap(self, raw: bytes) -> bytes:
        """Frame ``raw`` if compression shrinks it, else return it as is.

        ``zlib.compress``/``lzma.compress`` release the GIL while they
        run, which is what lets encode workers overlap on bytes.
        """
        if len(raw) < _MIN_COMPRESS_LEN:
            return raw
        if self.codec_id == CODEC_ZLIB:
            body = zlib.compress(raw, self.level)
        else:
            body = lzma.compress(raw, preset=self.level)
        frame = bytearray((FRAME_MARKER, self.codec_id))
        write_uvarint(frame, len(raw))
        frame.extend(body)
        if len(frame) >= len(raw):
            return raw
        return bytes(frame)


def parse_codec(spec: "str | RecordCodec | None") -> Optional[RecordCodec]:
    """A :class:`RecordCodec` from a ``?compress=`` specification.

    Accepts ``"zlib"``/``"lzma"`` (default level 6), ``"zlib:LEVEL"`` /
    ``"lzma:LEVEL"`` with a level in 0..9, ``"none"``/``""``/``None``
    (no compression), or an already-built codec (returned unchanged).
    Raises ``ValueError`` for anything else, naming the known codecs.
    """
    if spec is None or isinstance(spec, RecordCodec):
        return spec
    text = spec.strip()
    if text in ("", "none"):
        return None
    name, sep, level_text = text.partition(":")
    ids = {codec_name: codec_id
           for codec_id, codec_name in _CODEC_NAMES.items()}
    if name not in ids:
        raise ValueError(
            f"unknown compression codec {name!r} in {spec!r}; known codecs: "
            f"{', '.join(sorted(ids))}, none"
        )
    if not sep:
        return RecordCodec(ids[name], 6)
    try:
        level = int(level_text)
    except ValueError:
        raise ValueError(
            f"compression level must be an integer, got {level_text!r} "
            f"in {spec!r}"
        ) from None
    return RecordCodec(ids[name], level)


def is_framed(data: bytes) -> bool:
    """Whether stored bytes carry a codec frame."""
    return bool(data) and data[0] == FRAME_MARKER


def unwrap_record(data: bytes) -> bytes:
    """The raw record bytes behind ``data``: framed bytes are
    decompressed and validated, unframed bytes pass through unchanged.

    Every read path funnels through this (or
    :meth:`Record.from_bytes`), which is what makes the codec choice a
    write-side-only concern.
    """
    if not data or data[0] != FRAME_MARKER:
        return data
    if len(data) < 3:
        raise DeserializationError("truncated codec frame")
    codec_id = data[1]
    raw_len, pos = read_uvarint(data, 2)
    body = data[pos:]
    try:
        if codec_id == CODEC_ZLIB:
            raw = zlib.decompress(body)
        elif codec_id == CODEC_LZMA:
            if lzma is None:
                raise DeserializationError(
                    "record is lzma-compressed but lzma is unavailable in "
                    "this Python build"
                )
            raw = lzma.decompress(body)
        else:
            raise DeserializationError(
                f"unknown record codec id {codec_id}"
            )
    except DeserializationError:
        raise
    except Exception as exc:
        raise DeserializationError(
            f"corrupt {_CODEC_NAMES.get(codec_id, codec_id)} record "
            f"frame: {exc}"
        ) from exc
    if len(raw) != raw_len:
        raise DeserializationError(
            f"codec frame declares {raw_len} raw bytes but decompressed "
            f"to {len(raw)}"
        )
    return raw


@dataclass(frozen=True)
class EncodedRecord:
    """One dirty record, encoded and ready to commit."""

    oid: Oid
    #: The bytes handed to the engine (codec-framed when that is smaller).
    stored: bytes
    #: ``(len, crc32)`` of the *raw* (uncompressed) record bytes — the
    #: store's dirty filter compares signatures over raw bytes whatever
    #: codec is in force, so legacy and compressed stores interoperate.
    sig: tuple[int, int]
    #: Length of the raw encoding (observability: ``encoded_bytes``).
    raw_len: int


def encode_record(record: Record,
                  codec: Optional[RecordCodec]) -> EncodedRecord:
    """Serialise one record, sign it and (optionally) compress it — the
    write-side twin of :func:`unwrap_record`."""
    raw = record.to_bytes()
    sig = (len(raw), zlib.crc32(raw))
    stored = codec.wrap(raw) if codec is not None else raw
    return EncodedRecord(record.oid, stored, sig, len(raw))


# ---------------------------------------------------------------------------
# Object <-> Record
# ---------------------------------------------------------------------------

#: Exact types :func:`encode_value` writes as a single tagged scalar.
_ATOMS = frozenset((type(None), bool, int, float, complex, str, bytes))


def is_inline(value: Any) -> bool:
    """True when a value is inlined rather than given its own record."""
    return type(value) in _ATOMS or type(value) in (tuple, frozenset)


def record_refs(record: "Record", include_weak: bool = True) -> list[Oid]:
    """All OIDs referenced by a record (optionally excluding weak edges)."""
    if record.kind == KIND_WEAKREF:
        if include_weak and isinstance(record.payload, Ref):
            return [record.payload.oid]
        return []
    refs: list[Oid] = []

    def visit(value: Any) -> None:
        if isinstance(value, Ref):
            refs.append(value.oid)
        elif type(value) is tuple or type(value) is frozenset:
            for item in value:
                visit(item)

    payload = record.payload
    if isinstance(payload, dict):
        for value in payload.values():
            visit(value)
    elif isinstance(payload, list):
        # List/set records hold values; dict records hold (key, value)
        # tuples — visit() recurses into tuples either way.
        for item in payload:
            visit(item)
    return refs


# ---------------------------------------------------------------------------
# Dirty tracking: shallow state snapshots
# ---------------------------------------------------------------------------
#
# Incremental stabilisation needs to know whether a live object has changed
# since it was last written, *without* re-encoding it.  A snapshot is a
# shallow capture of the object's immediate persistent state: container
# elements and instance-field values held by reference, nothing deep-copied.
# Two snapshots are compared with an identity-aware equality: storable
# nodes match only if they are the *same* object (their own mutations are
# caught by their own records), inline immutables match by type and exact
# value.  The comparison errs on the side of "changed" — a false positive
# merely costs one re-encode, which the byte-signature filter then drops.

def _values_equal(a: Any, b: Any) -> bool:
    """Identity-aware equality over snapshot values (conservative)."""
    if a is b:
        return True  # covers None, bools, interned values and storables
    ta = type(a)
    if ta is not type(b):
        return False  # 1 vs True vs 1.0 encode differently
    if ta in (int, str, bytes, complex):
        return a == b
    if ta is float:
        # 0.0 == -0.0 but they encode differently; NaN handled by `a is b`
        # above or conservatively re-encoded.
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if ta is tuple:
        return len(a) == len(b) and all(map(_values_equal, a, b))
    # frozensets that are not the same object, and distinct storable
    # nodes: treat as changed.
    return False


def snapshots_equal(old: Any, new: Any) -> bool:
    """Whether two :meth:`Serializer.snapshot` captures denote the same
    stored state (``False`` is always safe)."""
    if old is None or new is None or old[0] != new[0]:
        return False
    kind = old[0]
    if kind == "bytearray":
        return old[1] == new[1]
    if kind == "instance":
        if old[1] != new[1]:
            return False  # schema fingerprint moved (evolution)
        a, b = old[2], new[2]
        if a.keys() != b.keys():
            return False
        return all(_values_equal(a[name], b[name]) for name in a)
    a, b = old[1], new[1]
    if len(a) != len(b):
        return False
    if kind == "dict":
        return all(_values_equal(ka, kb) and _values_equal(va, vb)
                   for (ka, va), (kb, vb) in zip(a, b))
    return all(map(_values_equal, a, b))


# ---------------------------------------------------------------------------
# Snapshot -> references and record
# ---------------------------------------------------------------------------
#
# A stabilise reads each live object's state once, as a snapshot, and
# derives everything else from it: the storable nodes it references (the
# walk's edges) and, when the dirty test fails, its record.  The record's
# payload maps each value exactly as :func:`encode_value` dispatches on it,
# so the record encodes to the very bytes a direct encode would give.

_SNAPSHOT_KINDS = {"list": KIND_LIST, "set": KIND_SET, "dict": KIND_DICT}


def _payload_value(value: Any, ref_fn: Callable[[Any], Oid]) -> Any:
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is tuple:
        return tuple([_payload_value(item, ref_fn) for item in value])
    if kind is frozenset:
        return frozenset([_payload_value(item, ref_fn) for item in value])
    return Ref(ref_fn(value))


def _collect_refs(values: Any, refs: list[Any]) -> None:
    for value in values:
        kind = type(value)
        if kind is tuple or kind is frozenset:
            _collect_refs(value, refs)
        elif kind not in _ATOMS:
            refs.append(value)


def snapshot_refs(snap: Any) -> list[Any]:
    """Every storable node a :meth:`Serializer.snapshot` capture
    references directly, in payload order (dict keys before their
    values)."""
    kind = snap[0]
    if kind == "bytearray":
        return []
    refs: list[Any] = []
    # Dict captures hold (key, value) pairs, which recurse like tuples.
    _collect_refs(snap[2].values() if kind == "instance" else snap[1], refs)
    return refs


def snapshot_record(oid: Oid, snap: Any,
                    ref_fn: Callable[[Any], Oid]) -> Record:
    """The :class:`Record` for the state a :meth:`Serializer.snapshot`
    captured.  ``ref_fn`` maps every referenced storable node to its OID
    and is called in payload order."""
    kind = snap[0]
    if kind == "instance":
        _, fingerprint, fields, class_name = snap
        return Record(oid, KIND_INSTANCE, class_name, fingerprint,
                      {name: _payload_value(value, ref_fn)
                       for name, value in fields.items()})
    if kind == "bytearray":
        return Record(oid, KIND_BYTEARRAY, "", "", snap[1])
    if kind == "dict":
        payload = [(_payload_value(key, ref_fn), _payload_value(value, ref_fn))
                   for key, value in snap[1]]
    else:
        payload = [_payload_value(value, ref_fn) for value in snap[1]]
    return Record(oid, _SNAPSHOT_KINDS[kind], "", "", payload)


class Serializer:
    """Flattens storable nodes to :class:`Record` and rebuilds them.

    The serializer is stateless apart from its registry; graph traversal,
    OID assignment and the identity map belong to the
    :class:`~repro.store.objectstore.ObjectStore`.
    """

    def __init__(self, registry: ClassRegistry):
        self._registry = registry

    # -- encoding -------------------------------------------------------

    def encode_object(self, oid: Oid, obj: Any,
                      ref_fn: Callable[[Any], Oid]) -> Record:
        """Flatten one storable node into a :class:`Record`.

        ``ref_fn`` maps every referenced storable node to its OID.
        """
        from repro.store.weakrefs import PersistentWeakRef

        if isinstance(obj, PersistentWeakRef):
            target = obj.get()
            payload = Ref(ref_fn(target)) if target is not None else None
            return Record(oid, KIND_WEAKREF, "", "", payload)
        return snapshot_record(oid, self.snapshot(obj), ref_fn)

    @staticmethod
    def _instance_fields(obj: Any, entry: RegisteredClass) -> dict[str, Any]:
        if entry.fields:
            fields = {}
            for name in entry.fields:
                if hasattr(obj, name):
                    fields[name] = getattr(obj, name)
            return fields
        instance_dict = getattr(obj, "__dict__", None)
        if instance_dict is None:
            raise SerializationError(
                f"instance of {entry.name} has neither declared fields nor "
                f"a __dict__; nothing to store"
            )
        return {name: instance_dict[name] for name in sorted(instance_dict)
                if not name.startswith("_")}

    def snapshot(self, obj: Any) -> Any:
        """A shallow dirty-tracking capture of ``obj``'s persistent state.

        Returns ``None`` for :class:`~repro.store.weakrefs.PersistentWeakRef`
        (weak records are cheap and context-dependent, so the store always
        re-encodes them).  Compare captures with :func:`snapshots_equal`.
        """
        from repro.store.weakrefs import PersistentWeakRef

        if isinstance(obj, PersistentWeakRef):
            return None
        if type(obj) is list:
            return ("list", list(obj))
        if type(obj) is set:
            return ("set", list(obj))
        if type(obj) is dict:
            return ("dict", list(obj.items()))
        if type(obj) is bytearray:
            return ("bytearray", bytes(obj))
        entry = self._registry.entry_for_class(type(obj))
        return ("instance", entry.fingerprint,
                self._instance_fields(obj, entry), entry.name)

    # -- decoding -------------------------------------------------------

    def make_shell(self, record: Record) -> Any:
        """Phase one of materialisation: an empty object of the right type."""
        from repro.store.weakrefs import PersistentWeakRef

        if record.kind == KIND_LIST:
            return []
        if record.kind == KIND_SET:
            return set()
        if record.kind == KIND_DICT:
            return {}
        if record.kind == KIND_BYTEARRAY:
            return bytearray(record.payload)
        if record.kind == KIND_WEAKREF:
            return PersistentWeakRef(None)
        entry = self._registry.check_fingerprint(record.class_name,
                                                 record.fingerprint)
        return object.__new__(entry.cls)

    def fill_shell(self, shell: Any, record: Record,
                   resolve: Callable[[Oid], Any]) -> None:
        """Phase two: populate ``shell``, resolving :class:`Ref` via ``resolve``."""
        from repro.store.weakrefs import PersistentWeakRef

        def hydrate(value: Any) -> Any:
            if isinstance(value, Ref):
                return resolve(value.oid)
            if type(value) is tuple:
                return tuple(hydrate(item) for item in value)
            if type(value) is frozenset:
                return frozenset(hydrate(item) for item in value)
            return value

        if record.kind == KIND_LIST:
            shell.extend(hydrate(v) for v in record.payload)
        elif record.kind == KIND_SET:
            shell.update(hydrate(v) for v in record.payload)
        elif record.kind == KIND_DICT:
            for key, value in record.payload:
                shell[hydrate(key)] = hydrate(value)
        elif record.kind == KIND_BYTEARRAY:
            pass  # filled at shell creation
        elif record.kind == KIND_WEAKREF:
            assert isinstance(shell, PersistentWeakRef)
            shell.set(hydrate(record.payload))
        elif record.kind == KIND_INSTANCE:
            entry = self._registry.check_fingerprint(record.class_name,
                                                     record.fingerprint)
            fields = {name: hydrate(value)
                      for name, value in record.payload.items()}
            if record.fingerprint != entry.fingerprint:
                converter = entry.converters[record.fingerprint]
                fields = converter(fields)
            for name, value in fields.items():
                setattr(shell, name, value)
        else:
            raise DeserializationError(f"unknown record kind {record.kind}")
