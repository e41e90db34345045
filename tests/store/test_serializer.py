"""Typed serialisation: value tags, varints, records, shells and fills."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeserializationError, SerializationError
from repro.store.oids import Oid
from repro.store.registry import ClassRegistry
from repro.store.serializer import (
    KIND_BYTEARRAY,
    KIND_DICT,
    KIND_INSTANCE,
    KIND_LIST,
    KIND_SET,
    KIND_WEAKREF,
    Record,
    Ref,
    Serializer,
    decode_value,
    encode_value,
    is_inline,
    read_svarint,
    read_uvarint,
    snapshot_record,
    snapshot_refs,
    unwrap_record,
    write_svarint,
    write_uvarint,
)
from repro.store.weakrefs import PersistentWeakRef

from tests.conftest import Person


def roundtrip_value(value):
    buf = bytearray()
    encode_value(buf, value, lambda obj: Oid(999))
    decoded, pos = decode_value(bytes(buf), 0)
    assert pos == len(buf)
    return decoded


class TestVarints:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2 ** 40])
    def test_uvarint_roundtrip(self, value):
        buf = bytearray()
        write_uvarint(buf, value)
        decoded, pos = read_uvarint(bytes(buf), 0)
        assert decoded == value and pos == len(buf)

    def test_uvarint_rejects_negative(self):
        with pytest.raises(SerializationError):
            write_uvarint(bytearray(), -1)

    def test_truncated_uvarint_raises(self):
        buf = bytearray()
        write_uvarint(buf, 2 ** 40)
        with pytest.raises(DeserializationError):
            read_uvarint(bytes(buf[:2]), 0)

    @pytest.mark.parametrize("value", [0, -1, 1, -128, 127, -(2 ** 70),
                                       2 ** 70])
    def test_svarint_roundtrip(self, value):
        buf = bytearray()
        write_svarint(buf, value)
        decoded, pos = read_svarint(bytes(buf), 0)
        assert decoded == value and pos == len(buf)

    @given(st.integers())
    def test_svarint_roundtrip_property(self, value):
        buf = bytearray()
        write_svarint(buf, value)
        assert read_svarint(bytes(buf), 0)[0] == value


class TestValueEncoding:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, -17, 2 ** 80, 3.5, float("inf"),
        complex(1, -2), "", "héllo ⟦⟧", b"", b"\x00\xff",
        (1, "two", (3,)), frozenset({1, 2}),
    ])
    def test_primitives_roundtrip_with_type(self, value):
        decoded = roundtrip_value(value)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_nan_roundtrips(self):
        import math
        assert math.isnan(roundtrip_value(float("nan")))

    def test_bool_is_not_int_after_roundtrip(self):
        assert roundtrip_value(True) is True
        assert type(roundtrip_value(1)) is int

    def test_storable_nodes_become_refs(self):
        decoded = roundtrip_value([1, 2])
        assert decoded == Ref(Oid(999))

    def test_refs_inside_tuples(self):
        decoded = roundtrip_value((1, [2], 3))
        assert decoded == (1, Ref(Oid(999)), 3)

    def test_equal_frozensets_encode_identically(self):
        def encode(value):
            buf = bytearray()
            encode_value(buf, value, lambda obj: Oid(1))
            return bytes(buf)
        assert encode(frozenset([1, 2, 3])) == encode(frozenset([3, 1, 2]))

    def test_unknown_tag_raises(self):
        with pytest.raises(DeserializationError):
            decode_value(b"Q", 0)

    def test_truncated_string_raises(self):
        buf = bytearray()
        encode_value(buf, "hello world", lambda obj: Oid(1))
        with pytest.raises(DeserializationError):
            decode_value(bytes(buf[:4]), 0)

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() |
        st.floats(allow_nan=False) | st.text() | st.binary(),
        lambda children: st.tuples(children, children),
        max_leaves=10,
    ))
    def test_inline_values_roundtrip_property(self, value):
        assert roundtrip_value(value) == value


class TestUnencodableValues:
    def test_lone_surrogate_is_a_serialization_error(self):
        with pytest.raises(SerializationError, match="UTF-8"):
            encode_value(bytearray(), "\udc80", lambda obj: Oid(1))

    def test_record_with_lone_surrogate_field(self):
        record = Record(Oid(1), KIND_LIST, "", "", ["ok", ("\udc80",)])
        with pytest.raises(SerializationError):
            record.to_bytes()


class TestUntrustedBytes:
    """Every decoder of stored bytes fails only with its typed error."""

    @pytest.mark.parametrize("decode", [
        Record.from_bytes,
        unwrap_record,
        lambda data: decode_value(data, 0),
    ], ids=["from_bytes", "unwrap_record", "decode_value"])
    @given(data=st.binary())
    def test_arbitrary_bytes_raise_only_deserialization_error(self, decode,
                                                              data):
        try:
            decode(data)
        except DeserializationError:
            pass

    def test_invalid_utf8_string(self):
        data = bytes.fromhex("f8fc8c523e08f7e14f375b2e00556115794780a733")
        with pytest.raises(DeserializationError):
            Record.from_bytes(data)

    def test_nesting_deeper_than_the_stack(self):
        with pytest.raises(DeserializationError):
            decode_value(b"u\x01" * 5000 + b"N", 0)

    def test_record_nesting_deeper_than_the_stack(self):
        body = b"\x01" + b"u\x01" * 5000 + b"N"
        header = bytearray()
        write_uvarint(header, 1)
        header += bytes([KIND_LIST]) + b"\x00\x00"
        write_uvarint(header, len(body))
        with pytest.raises(DeserializationError):
            Record.from_bytes(bytes(header) + body)


class TestIsInline:
    @pytest.mark.parametrize("value", [None, 1, 1.0, "s", b"b", (1,),
                                       frozenset(), True, 1j])
    def test_inline_types(self, value):
        assert is_inline(value)

    @pytest.mark.parametrize("value", [[1], {"a": 1}, {1}, bytearray(b"x"),
                                       object()])
    def test_node_types(self, value):
        assert not is_inline(value)


@pytest.fixture
def serializer():
    reg = ClassRegistry()
    reg.register(Person)
    return reg, Serializer(reg)


class TestRecords:
    def test_record_roundtrip_bytes(self, serializer):
        __, ser = serializer
        person = Person("ada")
        record = ser.encode_object(Oid(5), person, lambda obj: Oid(9))
        back = Record.from_bytes(record.to_bytes())
        assert back.oid == 5
        assert back.kind == KIND_INSTANCE
        assert back.class_name == record.class_name
        assert back.payload == {"name": "ada", "spouse": None}

    def test_list_record(self, serializer):
        __, ser = serializer
        record = ser.encode_object(Oid(1), [1, "x"], lambda obj: Oid(2))
        assert record.kind == KIND_LIST
        assert Record.from_bytes(record.to_bytes()).payload == [1, "x"]

    def test_dict_record_preserves_order(self, serializer):
        __, ser = serializer
        record = ser.encode_object(Oid(1), {"b": 1, "a": 2},
                                   lambda obj: Oid(2))
        assert record.kind == KIND_DICT
        back = Record.from_bytes(record.to_bytes())
        assert back.payload == [("b", 1), ("a", 2)]

    def test_set_record(self, serializer):
        __, ser = serializer
        record = ser.encode_object(Oid(1), {3, 1}, lambda obj: Oid(2))
        assert record.kind == KIND_SET
        assert sorted(Record.from_bytes(record.to_bytes()).payload) == [1, 3]

    def test_nested_node_encoded_as_ref(self, serializer):
        __, ser = serializer
        inner = [1]
        oids = {id(inner): Oid(7)}
        record = ser.encode_object(Oid(1), [inner],
                                   lambda obj: oids[id(obj)])
        assert record.payload == [Ref(Oid(7))]

    def test_weakref_record(self, serializer):
        __, ser = serializer
        target = Person("t")
        record = ser.encode_object(Oid(1), PersistentWeakRef(target),
                                   lambda obj: Oid(3))
        assert record.kind == KIND_WEAKREF
        assert record.payload == Ref(Oid(3))

    def test_empty_weakref_record(self, serializer):
        __, ser = serializer
        record = ser.encode_object(Oid(1), PersistentWeakRef(None),
                                   lambda obj: Oid(3))
        assert record.payload is None

    def test_unregistered_instance_raises(self, serializer):
        __, ser = serializer

        class NotRegistered:
            pass
        from repro.errors import ClassNotRegisteredError
        with pytest.raises(ClassNotRegisteredError):
            ser.encode_object(Oid(1), NotRegistered(), lambda obj: Oid(2))


class Bag:
    """An instance whose fields come from its ``__dict__``."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


def oracle_record(registry, oid, obj, ref_fn):
    """The record as built before the walk read state once: each value
    encoded into bytes and decoded back out."""
    def as_ref(value):
        buf = bytearray()
        encode_value(buf, value, ref_fn)
        return decode_value(bytes(buf), 0)[0]

    if type(obj) is list:
        return Record(oid, KIND_LIST, "", "", [as_ref(v) for v in obj])
    if type(obj) is set:
        return Record(oid, KIND_SET, "", "", [as_ref(v) for v in obj])
    if type(obj) is dict:
        pairs = [(as_ref(k), as_ref(v)) for k, v in obj.items()]
        return Record(oid, KIND_DICT, "", "", pairs)
    if type(obj) is bytearray:
        return Record(oid, KIND_BYTEARRAY, "", "", bytes(obj))
    entry = registry.entry_for_class(type(obj))
    fields = Serializer._instance_fields(obj, entry)
    payload = {name: as_ref(value) for name, value in fields.items()}
    return Record(oid, KIND_INSTANCE, entry.name, entry.fingerprint, payload)


#: Storable nodes values may reference (never mutated by the tests).
_PEOPLE = [Person(f"n{i}") for i in range(3)]
_CONTAINERS = [[1], {"k": 2}, {3}, bytearray(b"x")]

_atoms = st.one_of(
    st.none(), st.booleans(), st.integers(-1000, 1000),
    st.integers(min_value=2 ** 64), st.integers(max_value=-2 ** 64),
    st.floats(), st.sampled_from([0.0, -0.0, float("inf"), float("-inf"),
                                  float("nan")]),
    st.complex_numbers(), st.text(), st.binary(),
)
_hashables = st.recursive(
    _atoms | st.sampled_from(_PEOPLE),
    lambda children: (st.lists(children, max_size=3).map(tuple)
                      | st.frozensets(children, max_size=3)),
    max_leaves=8,
)
_values = st.recursive(
    _hashables | st.sampled_from(_CONTAINERS),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=8,
)


def _person(name, spouse):
    person = Person.__new__(Person)
    person.name, person.spouse = name, spouse
    return person


_objects = st.one_of(
    st.lists(_values, max_size=6),
    st.sets(_hashables, max_size=6),
    st.dictionaries(_hashables, _values, max_size=6),
    st.binary(max_size=8).map(bytearray),
    st.builds(_person, _values, _values),
    st.dictionaries(st.sampled_from(["a", "b", "_hidden", "z"]), _values,
                    max_size=4).map(lambda fields: Bag(**fields)),
)


class TestSnapshotRecord:
    """A record built from the walk's snapshot is byte-identical to the
    old encode-then-decode construction, and asks for OIDs in the same
    order."""

    @staticmethod
    def allocator(calls):
        oids = {}

        def ref_fn(obj):
            calls.append(obj)
            return oids.setdefault(id(obj), Oid(100 + len(oids)))
        return ref_fn

    @settings(max_examples=300, deadline=None)
    @given(_objects)
    def test_matches_encode_decode_oracle(self, obj):
        reg = ClassRegistry()
        reg.register(Person)
        reg.register(Bag)
        ser = Serializer(reg)
        new_calls, old_calls = [], []
        record = snapshot_record(Oid(7), ser.snapshot(obj),
                                 self.allocator(new_calls))
        oracle = oracle_record(reg, Oid(7), obj, self.allocator(old_calls))
        assert record.to_bytes() == oracle.to_bytes()
        assert [id(o) for o in new_calls] == [id(o) for o in old_calls]
        assert ser.encode_object(Oid(7), obj, self.allocator([])) \
            .to_bytes() == oracle.to_bytes()

    def test_snapshot_refs_follow_the_record_order(self, serializer):
        __, ser = serializer
        a, b, c = Person("a"), Person("b"), Person("c")
        obj = {(a, 1): [b], "x": frozenset({c})}
        calls = []
        snapshot_record(Oid(1), ser.snapshot(obj), self.allocator(calls))
        assert calls == snapshot_refs(ser.snapshot(obj))


class TestSnapshotRefs:
    """The walk's edges, derived from the one snapshot it takes."""

    def test_instance_references(self, serializer):
        __, ser = serializer
        a, b = Person("a"), Person("b")
        a.spouse = b
        assert snapshot_refs(ser.snapshot(a)) == [b]

    def test_weakref_has_no_references(self, serializer):
        __, ser = serializer
        # No snapshot, so the walk takes no strong edge from a weakref.
        assert ser.snapshot(PersistentWeakRef(Person("x"))) is None

    def test_tuple_contents_traversed(self, serializer):
        __, ser = serializer
        inner = [1]
        assert snapshot_refs(ser.snapshot([(1, (inner,))])) == [inner]

    def test_dict_keys_and_values_traversed(self, serializer):
        __, ser = serializer
        key, value = (Person("k"),), Person("v")
        refs = snapshot_refs(ser.snapshot({key: value}))
        assert refs == [key[0], value]


class TestShellAndFill:
    def test_instance_shell_skips_init(self, serializer):
        reg, ser = serializer
        person = Person("eve")
        record = ser.encode_object(Oid(1), person, lambda obj: Oid(2))
        shell = ser.make_shell(record)
        assert isinstance(shell, Person)
        assert not hasattr(shell, "name")  # __init__ not called

    def test_fill_restores_fields(self, serializer):
        __, ser = serializer
        person = Person("eve")
        record = ser.encode_object(Oid(1), person, lambda obj: Oid(2))
        shell = ser.make_shell(record)
        ser.fill_shell(shell, record, lambda oid: None)
        assert shell.name == "eve" and shell.spouse is None

    def test_fill_resolves_refs(self, serializer):
        __, ser = serializer
        a, b = Person("a"), Person("b")
        a.spouse = b
        record = ser.encode_object(Oid(1), a, lambda obj: Oid(2))
        shell = ser.make_shell(record)
        ser.fill_shell(shell, record, lambda oid: b)
        assert shell.spouse is b

    def test_fill_hydrates_refs_inside_tuples(self, serializer):
        __, ser = serializer
        inner = [42]
        oids = {id(inner): Oid(7)}
        record = ser.encode_object(Oid(1), [(1, inner)],
                                   lambda obj: oids[id(obj)])
        shell = ser.make_shell(record)
        ser.fill_shell(shell, record, lambda oid: inner)
        assert shell == [(1, inner)]
        assert shell[0][1] is inner

    def test_schema_mismatch_on_fill(self, serializer):
        reg, ser = serializer
        person = Person("eve")
        record = ser.encode_object(Oid(1), person, lambda obj: Oid(2))
        record.fingerprint = "f" * 16
        from repro.errors import SchemaMismatchError
        with pytest.raises(SchemaMismatchError):
            ser.make_shell(record)
