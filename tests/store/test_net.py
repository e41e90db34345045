"""The network serving subsystem: wire protocol units, server/client
integration, protocol-robustness injection (truncated frames, oversized
lengths, unknown opcodes, mid-request disconnects, server restarts) and
the ``routed:`` front-end's cross-server two-phase commit.

Most tests run an in-process :class:`StoreServer` (real sockets, no
subprocess cost); the restart tests re-bind a Unix socket path so the
client's bounded reconnect-retry is exercised against a genuinely new
server instance.  The store suite as a whole additionally runs against
a store-server *subprocess* through the ``remote`` backend param in
``tests/store/conftest.py``.
"""

from __future__ import annotations

import socket
import struct
import threading
import zlib

import pytest
from hypothesis import given, strategies as st

from repro.errors import (
    DeserializationError,
    RemoteDisconnectedError,
    UnknownOidError,
    WireProtocolError,
)
from repro.store.engine.base import WriteBatch
from repro.store.engine.factory import engine_from_url
from repro.store.net import RemoteEngine, RouterEngine, StoreServer
from repro.store.net import protocol as wire
from repro.store.objectstore import ObjectStore
from repro.store.oids import Oid

from tests.conftest import Person


@pytest.fixture
def server():
    with StoreServer("memory:") as srv:
        yield srv.start()


@pytest.fixture
def client(server):
    engine = RemoteEngine(server.endpoint, op_timeout=30)
    yield engine
    engine.close()


def raw_connection(server) -> socket.socket:
    host, _, port = server.endpoint.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=10)
    return sock


# ---------------------------------------------------------------------------
# Wire format units
# ---------------------------------------------------------------------------

class TestFraming:
    def _pair(self, max_frame=wire.MAX_FRAME_BYTES):
        left, right = socket.socketpair()
        return (wire.FrameStream(left, max_frame),
                wire.FrameStream(right, max_frame))

    def test_roundtrip(self):
        a, b = self._pair()
        a.send_message(b"\x01hello")
        assert b.recv_message() == b"\x01hello"
        b.send_message(b"\x02" + bytes(100000))
        assert a.recv_message() == b"\x02" + bytes(100000)
        a.close(), b.close()

    def test_several_frames_in_one_buffer(self):
        a, b = self._pair()
        a.send_raw(wire.frame_message(b"\x01one") +
                   wire.frame_message(b"\x02two"))
        assert b.recv_message() == b"\x01one"
        assert b.recv_message() == b"\x02two"
        a.close(), b.close()

    def test_truncated_frame_reports_disconnect(self):
        a, b = self._pair()
        frame = wire.frame_message(b"\x01payload")
        a.send_raw(frame[:len(frame) - 3])
        a.close()
        with pytest.raises(RemoteDisconnectedError):
            b.recv_message()
        b.close()

    def test_oversized_length_rejected_before_allocation(self):
        a, b = self._pair(max_frame=1024)
        a.send_raw(wire.frame_message(bytes(2048)))
        with pytest.raises(WireProtocolError, match="exceeds"):
            b.recv_message()
        a.close(), b.close()

    def test_crc_corruption_detected(self):
        a, b = self._pair()
        frame = bytearray(wire.frame_message(b"\x01payload"))
        frame[-1] ^= 0xFF
        a.send_raw(bytes(frame))
        with pytest.raises(WireProtocolError, match="CRC"):
            b.recv_message()
        a.close(), b.close()

    def test_unterminated_length_prefix_rejected(self):
        a, b = self._pair()
        a.send_raw(b"\xff" * 12)
        with pytest.raises(WireProtocolError, match="length prefix"):
            b.recv_message()
        a.close(), b.close()

    def test_empty_payload_rejected(self):
        a, b = self._pair()
        a.send_raw(b"\x00" + struct.pack("<I", zlib.crc32(b"")))
        with pytest.raises(WireProtocolError, match="empty"):
            b.recv_message()
        a.close(), b.close()

    def test_clean_eof_between_frames(self):
        a, b = self._pair()
        a.close()
        assert b.recv_message(eof_ok=True) is None
        b.close()


class TestBodyEncodings:
    def test_oids_roundtrip(self):
        oids = [Oid(0), Oid(1), Oid(300), Oid(2**40)]
        assert wire.unpack_oids(wire.pack_oids(oids))[0] == oids

    def test_records_roundtrip(self):
        records = {Oid(1): b"", Oid(2): b"x" * 5000, Oid(900): b"\x00\xff"}
        assert wire.unpack_records(wire.pack_records(records))[0] == records

    def test_records_overrun_rejected(self):
        body = bytearray(wire.pack_records({Oid(1): b"abcdef"}))
        with pytest.raises(WireProtocolError, match="overruns"):
            wire.unpack_records(bytes(body[:-3]))

    def test_roots_roundtrip(self):
        roots = {"people": Oid(4), "naïve-name": Oid(7), "": Oid(0)}
        assert wire.unpack_roots(wire.pack_roots(roots))[0] == roots

    def test_error_roundtrip(self):
        kind, message = wire.unpack_error(
            wire.pack_error(ValueError("bad thing: détails")))
        assert kind == "ValueError"
        assert message == "bad thing: détails"

    def test_stats_roundtrip(self):
        stats = {"requests": 3, "engine": "memory"}
        assert wire.unpack_stats(wire.pack_stats(stats)) == stats

    def test_malformed_stats_rejected(self):
        with pytest.raises(WireProtocolError):
            wire.unpack_stats(b"\xff{not json")

    @pytest.mark.parametrize("unpack, body", [
        (wire.unpack_roots, b"\x01\x01\xff\x00"),
        (wire.unpack_error, b"\x01\xffmessage"),
    ])
    def test_non_utf8_text_rejected(self, unpack, body):
        with pytest.raises(WireProtocolError, match="not UTF-8"):
            unpack(body)

    @given(st.binary())
    def test_body_decoders_fail_only_with_typed_errors(self, body):
        for unpack in (wire.unpack_oid, wire.unpack_oids,
                       wire.unpack_records, wire.unpack_roots,
                       wire.unpack_trace_envelope, wire.unpack_stats,
                       wire.unpack_error):
            try:
                unpack(body)
            except (WireProtocolError, DeserializationError):
                pass


# ---------------------------------------------------------------------------
# Server/client integration
# ---------------------------------------------------------------------------

class TestServerOps:
    def test_not_found_maps_to_unknown_oid(self, client):
        with pytest.raises(UnknownOidError):
            client.read(Oid(404))
        assert not client.contains(Oid(404))

    def test_server_value_error_reraises_locally(self, client):
        with pytest.raises(ValueError, match="reserve count"):
            client.reserve_oids(0)

    def test_root_get_set_ops(self, client):
        assert client.roots() == {}
        client.set_roots({"a": Oid(1), "b": Oid(2)})
        assert client.roots() == {"a": Oid(1), "b": Oid(2)}
        client.set_roots({"a": Oid(1)})
        assert client.roots() == {"a": Oid(1)}

    def test_allocator_reserve_is_contiguous_and_exclusive(self, server):
        one = RemoteEngine(server.endpoint)
        two = RemoteEngine(server.endpoint)
        try:
            first = one.reserve_oids(100)
            second = two.reserve_oids(100)
            assert second == first + 100
            assert one.next_oid == first + 200
        finally:
            one.close()
            two.close()

    def test_apply_many_applies_in_order(self, client):
        client.apply_many([
            WriteBatch().write(Oid(1), b"old"),
            WriteBatch().write(Oid(1), b"new").write(Oid(2), b"b"),
            WriteBatch().delete(Oid(2)),
        ])
        assert client.read(Oid(1)) == b"new"
        assert not client.contains(Oid(2))
        assert client.batches_applied == 3

    def test_stats_surface(self, client):
        client.apply(WriteBatch().write(Oid(1), b"x"))
        stats = client.stats()
        assert stats["engine"] == "memory"
        assert stats["object_count"] == 1
        assert stats["requests"] >= 1
        assert stats["connections"] >= 1
        assert stats["pid"] > 0

    def test_fetch_many_pipelines_across_chunks(self, server):
        client = RemoteEngine(server.endpoint, fetch_chunk=16)
        try:
            batch = WriteBatch()
            expected = {}
            for index in range(1, 101):
                raw = f"record-{index}".encode()
                batch.write(Oid(index), raw)
                expected[Oid(index)] = raw
            client.apply(batch)
            # 100 oids over chunk=16 -> 7 pipelined request frames.
            assert client.fetch_many(list(expected)) == expected
        finally:
            client.close()

    def test_concurrent_clients(self, server, client):
        client.apply(WriteBatch().write(Oid(1), b"shared"))
        errors: list[BaseException] = []

        def reader() -> None:
            engine = RemoteEngine(server.endpoint)
            try:
                for _ in range(20):
                    assert engine.read(Oid(1)) == b"shared"
            except BaseException as exc:  # noqa: BLE001 - collected
                errors.append(exc)
            finally:
                engine.close()

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_unix_socket_transport(self, tmp_path):
        path = tmp_path / "store.sock"
        with StoreServer("memory:", bind=f"unix:{path}") as srv:
            srv.start()
            engine = RemoteEngine(srv.endpoint)
            try:
                engine.apply(WriteBatch().write(Oid(5), b"via-unix"))
                assert engine.read(Oid(5)) == b"via-unix"
            finally:
                engine.close()
        assert not path.exists()  # socket file cleaned up on stop

    def test_store_stack_over_remote(self, server, registry):
        with ObjectStore.from_url(f"remote:{server.endpoint}",
                                  registry=registry) as store:
            alice, bob = Person("alice"), Person("bob")
            Person.marry(alice, bob)
            store.set_root("people", [alice, bob])
            store.stabilize()
        with ObjectStore.from_url(f"remote:{server.endpoint}",
                                  registry=registry) as store:
            people = store.get_root("people")
            assert people[0].spouse is people[1]
            assert store.verify_referential_integrity() == []


class TestProtocolRobustness:
    """The satellite injection matrix: every abuse leaves the server
    serving other (and future) connections."""

    def _assert_still_serving(self, server):
        probe = RemoteEngine(server.endpoint)
        try:
            probe.apply(WriteBatch().write(Oid(77), b"alive"))
            assert probe.read(Oid(77)) == b"alive"
        finally:
            probe.close()

    def test_unknown_opcode_gets_error_then_drop(self, server):
        sock = raw_connection(server)
        stream = wire.FrameStream(sock)
        stream.send_message(bytes([0x7F]) + b"junk")
        payload = stream.recv_message()
        assert payload[0] == wire.ST_ERROR
        kind, message = wire.unpack_error(payload[1:])
        assert kind == "WireProtocolError"
        assert "0x7F" in message
        # The connection is dropped after a protocol violation...
        with pytest.raises(RemoteDisconnectedError):
            stream.recv_message()
        stream.close()
        # ...but the server keeps serving everyone else.
        self._assert_still_serving(server)

    def test_truncated_frame_then_disconnect(self, server):
        sock = raw_connection(server)
        frame = wire.frame_message(bytes([wire.OP_STATS]))
        sock.sendall(frame[:2])  # length + part of the CRC, then vanish
        sock.close()
        self._assert_still_serving(server)

    def test_oversized_length_is_refused(self, tmp_path):
        with StoreServer("memory:", max_frame=4096) as srv:
            srv.start()
            sock = raw_connection(srv)
            stream = wire.FrameStream(sock)
            stream.send_message(bytes([wire.OP_APPLY]) + bytes(100_000))
            payload = stream.recv_message()
            assert payload[0] == wire.ST_ERROR
            assert "bound" in wire.unpack_error(payload[1:])[1]
            stream.close()
            self._assert_still_serving(srv)

    def test_corrupt_crc_is_refused(self, server):
        sock = raw_connection(server)
        frame = bytearray(wire.frame_message(bytes([wire.OP_STATS])))
        frame[-1] ^= 0xFF
        sock.sendall(bytes(frame))
        stream = wire.FrameStream(sock)
        payload = stream.recv_message()
        assert payload[0] == wire.ST_ERROR
        stream.close()
        self._assert_still_serving(server)

    def test_malformed_batch_body_reported(self, client, server):
        sock = raw_connection(server)
        stream = wire.FrameStream(sock)
        stream.send_message(bytes([wire.OP_APPLY]) + b"\xff\xff\xff")
        payload = stream.recv_message()
        assert payload[0] == wire.ST_ERROR
        assert wire.unpack_error(payload[1:])[0] == "WireProtocolError"
        stream.close()
        self._assert_still_serving(server)

    def test_hello_version_mismatch_refused(self, server):
        sock = raw_connection(server)
        stream = wire.FrameStream(sock)
        hello = bytearray([wire.OP_HELLO])
        hello.append(99)  # uvarint 99: an incompatible protocol version
        stream.send_message(bytes(hello))
        payload = stream.recv_message()
        assert payload[0] == wire.ST_ERROR
        assert "protocol" in wire.unpack_error(payload[1:])[1]
        stream.close()


class TestReconnectRetry:
    """Server restart and loss, against the bounded-retry contract."""

    def _serve(self, path, url) -> StoreServer:
        return StoreServer(url, bind=f"unix:{path}").start()

    def test_read_survives_server_restart(self, tmp_path):
        path = tmp_path / "srv.sock"
        url = f"file:{tmp_path / 'store'}"
        first = self._serve(path, url)
        engine = RemoteEngine(f"unix:{path}", read_retries=2)
        try:
            engine.apply(WriteBatch().write(Oid(1), b"durable"))
            assert engine.read(Oid(1)) == b"durable"
            first.stop()
            second = self._serve(path, url)  # same path, new process-alike
            try:
                # The held connection is dead; the idempotent read
                # reconnects transparently and sees the durable record.
                assert engine.read(Oid(1)) == b"durable"
                assert engine.fetch_many([Oid(1)]) == {Oid(1): b"durable"}
            finally:
                second.stop()
        finally:
            engine.close()

    def test_write_after_restart_is_not_retried(self, tmp_path):
        path = tmp_path / "srv.sock"
        url = f"file:{tmp_path / 'store'}"
        first = self._serve(path, url)
        engine = RemoteEngine(f"unix:{path}", read_retries=2)
        try:
            engine.apply(WriteBatch().write(Oid(1), b"one"))
            first.stop()
            second = self._serve(path, url)
            try:
                # The client cannot know whether a lost apply landed, so
                # it must surface the disconnect rather than retry.
                with pytest.raises(RemoteDisconnectedError):
                    engine.apply(WriteBatch().write(Oid(2), b"two"))
                # The next operation reconnects and proceeds normally.
                engine.apply(WriteBatch().write(Oid(3), b"three"))
                assert engine.read(Oid(3)) == b"three"
            finally:
                second.stop()
        finally:
            engine.close()

    def test_zero_retries_surface_disconnect(self, tmp_path):
        path = tmp_path / "srv.sock"
        first = self._serve(path, "memory:")
        engine = RemoteEngine(f"unix:{path}", read_retries=0)
        try:
            engine.apply(WriteBatch().write(Oid(1), b"x"))
            first.stop()
            second = self._serve(path, "memory:")
            try:
                with pytest.raises(RemoteDisconnectedError):
                    engine.contains(Oid(1))
            finally:
                second.stop()
        finally:
            engine.close()

    def test_server_gone_entirely(self, tmp_path):
        path = tmp_path / "srv.sock"
        server = self._serve(path, "memory:")
        engine = RemoteEngine(f"unix:{path}", read_retries=1)
        try:
            assert engine.roots() == {}
            server.stop()
            with pytest.raises(RemoteDisconnectedError):
                engine.roots()
        finally:
            engine.close()

    def test_connect_refused_raises_disconnect_error(self):
        engine = RemoteEngine("127.0.0.1:1", connect_timeout=0.5,
                              read_retries=0)
        try:
            with pytest.raises(RemoteDisconnectedError, match="connect"):
                engine.roots()
        finally:
            engine.close()


# ---------------------------------------------------------------------------
# The routed: front-end
# ---------------------------------------------------------------------------

class TestRouterEngine:
    @pytest.fixture
    def backends(self):
        with StoreServer("memory:") as one, StoreServer("memory:") as two:
            yield (one.start(), two.start())

    def test_routes_oids_across_backends(self, backends):
        one, two = backends
        router = RouterEngine([one.endpoint, two.endpoint])
        try:
            batch = WriteBatch()
            for index in range(1, 41):
                batch.write(Oid(index), f"rec{index}".encode())
            batch.set_roots({"root": Oid(1)})
            router.apply(batch)
            assert router.object_count == 40
            assert router.roots() == {"root": Oid(1)}
            # Each backend holds exactly its oid % 2 slice.
            probe_one = RemoteEngine(one.endpoint)
            probe_two = RemoteEngine(two.endpoint)
            try:
                assert all(int(oid) % 2 == 0 for oid in probe_one.oids()
                           if int(oid) < 2**62)
                assert all(int(oid) % 2 == 1 for oid in probe_two.oids())
            finally:
                probe_one.close()
                probe_two.close()
            got = router.fetch_many([Oid(index) for index in range(1, 41)])
            assert len(got) == 40
        finally:
            router.close()

    def test_routed_url_through_open_store(self, backends, registry):
        one, two = backends
        url = f"routed:{one.endpoint},{two.endpoint}"
        with ObjectStore.from_url(url, registry=registry) as store:
            people = [Person(f"p{i}") for i in range(10)]
            store.set_root("people", people)
            store.stabilize()
        with ObjectStore.from_url(url, registry=registry) as store:
            assert [p.name for p in store.get_root("people")] == \
                [f"p{i}" for i in range(10)]
            assert store.verify_referential_integrity() == []

    def test_topology_pinned_across_clients(self, backends):
        one, two = backends
        router = RouterEngine([one.endpoint, two.endpoint])
        router.apply(WriteBatch().write(Oid(1), b"x"))
        router.close()
        with pytest.raises(ValueError, match="2 shards"):
            RouterEngine([one.endpoint])

    def test_two_phase_recovery_across_servers(self, backends):
        """A front-end that dies between the commit marker and phase 3
        leaves its staging *on the servers*; the next front-end to open
        redoes the committed batch."""
        one, two = backends
        router = RouterEngine([one.endpoint, two.endpoint])
        batch = (WriteBatch().write(Oid(10), b"ten")
                 .write(Oid(11), b"eleven").set_roots({"r": Oid(10)}))
        subs = router.partition(batch)
        token = router.prepare(subs)
        router.write_commit_marker(token)
        # "Crash": drop the front-end without running phase 3.  Close
        # the sockets directly so no protocol action runs.
        for child in router.children:
            child.close()
        router._pool.shutdown(wait=True)
        # A new front-end recovers the committed batch from the marker.
        recovered = RouterEngine([one.endpoint, two.endpoint])
        try:
            assert recovered.read(Oid(10)) == b"ten"
            assert recovered.read(Oid(11)) == b"eleven"
            assert recovered.roots() == {"r": Oid(10)}
        finally:
            recovered.close()

    def test_prepared_but_unmarked_batch_discarded(self, backends):
        one, two = backends
        router = RouterEngine([one.endpoint, two.endpoint])
        batch = WriteBatch().write(Oid(20), b"x").write(Oid(21), b"y")
        router.prepare(router.partition(batch))
        for child in router.children:
            child.close()
        router._pool.shutdown(wait=True)
        recovered = RouterEngine([one.endpoint, two.endpoint])
        try:
            assert not recovered.contains(Oid(20))
            assert not recovered.contains(Oid(21))
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# Admin ops and thread attribution
# ---------------------------------------------------------------------------

class TestAdminOps:
    def test_reset_wipes_ephemeral_engine(self, client):
        client.apply(WriteBatch().write(Oid(1), b"x")
                     .set_roots({"r": Oid(1)}))
        client.reset()
        assert client.object_count == 0
        assert client.roots() == {}

    def test_shutdown_stops_server(self, tmp_path):
        server = StoreServer("memory:").start()
        engine = RemoteEngine(server.endpoint, read_retries=0)
        try:
            engine.shutdown_server()
            assert server._stopped.wait(timeout=10)
        finally:
            engine.close()

    def test_server_engine_url_errors_do_not_leak(self, tmp_path):
        with pytest.raises(ValueError):
            StoreServer("sharded:bogus")
        with pytest.raises(ValueError):
            StoreServer("memory:", bind="not-an-address")


class TestThreadAttribution:
    """Every pool/service thread carries the ``repro-`` prefix so stack
    dumps and py-spy traces are attributable to the subsystem."""

    def _repro_threads(self) -> set[str]:
        return {thread.name for thread in threading.enumerate()
                if thread.name.startswith("repro-")}

    def test_server_threads_named(self, server, client):
        client.stats()  # force an accept + a connection thread
        names = self._repro_threads()
        assert any(name == "repro-net-accept" for name in names)
        assert any(name.startswith("repro-net-conn-") for name in names)

    def test_shard_pool_threads_named(self, tmp_path):
        engine = engine_from_url("sharded:3:memory:")
        try:
            engine.oids()  # force the fan-out pool to spin up
            assert any(name.startswith("repro-shard")
                       for name in self._repro_threads())
        finally:
            engine.close()

    def test_commit_pipeline_thread_named(self, tmp_path):
        engine = engine_from_url(f"file:{tmp_path / 's'}?durability=group")
        try:
            assert "repro-commit-pipeline" in self._repro_threads()
        finally:
            engine.close()
