"""Tests for the stdlib RFC 6455 endpoint: codec, handshake, protocol."""

import asyncio
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import AdmissionService, StreamDriver, record_run
from repro.serve.driver import Decision
from repro.serve.events import ARRIVAL, HANDOFF, StreamEvent
from repro.serve.ws import (
    MAX_FRAME_BYTES,
    OP_BINARY,
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    READ_BYTES,
    AsyncWsClient,
    FrameDecoder,
    SyncWsClient,
    WebSocketGateway,
    _decision_frame,
    _error_frame,
    _parse_ws_url,
    _client_handshake_bytes,
    _Session,
    encode_frame,
    handshake_accept,
)
from repro.simulation.scenarios import stationary


def _config():
    return stationary(
        "AC3", offered_load=120.0, duration=3600.0, seed=13, num_cells=6
    )


class TestFrameCodec:
    def test_rfc_6455_handshake_vector(self):
        # The worked example from RFC 6455 §1.3.
        assert (
            handshake_accept("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )

    @pytest.mark.parametrize("mask", [False, True])
    @pytest.mark.parametrize("size", [0, 5, 125, 126, 200, 65536, 70000])
    def test_frame_round_trips_all_length_encodings(self, size, mask):
        payload = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
        frame = encode_frame(payload, mask=mask)
        assert list(FrameDecoder().feed(frame)) == [(OP_TEXT, payload)]

    def test_masked_frames_obscure_the_wire_bytes(self):
        payload = b"admission-control"
        frame = encode_frame(payload, mask=True)
        assert payload not in frame
        assert payload in encode_frame(payload, mask=False)

    def test_fragmented_frames_are_rejected(self):
        frame = bytearray(encode_frame(b"partial"))
        frame[0] &= 0x7F  # clear FIN
        with pytest.raises(ConnectionError, match="fragmented"):
            list(FrameDecoder().feed(bytes(frame)))

    def test_oversized_frame_is_refused_from_its_header(self):
        header = bytes([0x80 | OP_TEXT, 0x80 | 127]) + (
            MAX_FRAME_BYTES + 1
        ).to_bytes(8, "big")
        with pytest.raises(ConnectionError, match="exceeds") as caught:
            list(FrameDecoder().feed(header))
        assert caught.value.status == 1009
        # At the limit the header is accepted (and the body awaited).
        at_limit = bytes([0x80 | OP_TEXT, 127]) + MAX_FRAME_BYTES.to_bytes(8, "big")
        assert list(FrameDecoder().feed(at_limit)) == []

    @pytest.mark.parametrize(
        "first, length, status, match",
        [
            (0x80 | OP_BINARY, 4, 1003, "binary"),
            (0x80 | 0x0, 4, 1002, "opcode 0x0"),  # a lone continuation
            (0xC0 | OP_TEXT, 4, 1002, "reserved header bits"),  # RSV1
            (0x90 | OP_PING, 0, 1002, "reserved header bits"),  # RSV3
            (0x80 | 0x3, 4, 1002, "opcode 0x3"),
            (0x80 | 0x7, 4, 1002, "opcode 0x7"),
            (0x80 | 0xB, 0, 1002, "opcode 0xb"),
            (0x80 | 0xF, 0, 1002, "opcode 0xf"),
            (0x80 | OP_PING, 126, 1002, "control frame"),
            (0x80 | OP_CLOSE, 127, 1002, "control frame"),
        ],
    )
    def test_unservable_frames_are_refused_from_their_header(
        self, first, length, status, match
    ):
        decoder = FrameDecoder()
        before = encode_frame(b"answered", mask=True)
        # Two header bytes are enough: nothing waits for a body.
        frames = decoder.feed(before + bytes([first, 0x80 | length]))
        assert next(frames) == (OP_TEXT, b"answered")
        with pytest.raises(ConnectionError, match=match) as caught:
            next(frames)
        assert caught.value.status == status

    def test_control_frames_up_to_125_bytes_are_served(self):
        payload = bytes(125)
        for opcode in (OP_PING, OP_PONG, OP_CLOSE):
            frame = encode_frame(payload, opcode=opcode, mask=True)
            assert list(FrameDecoder().feed(frame)) == [(opcode, payload)]

    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.lists(
            st.one_of(
                st.tuples(
                    st.just(OP_TEXT),
                    st.one_of(
                        st.binary(max_size=300),
                        st.integers(65530, 65540).map(bytes),
                    ),
                    st.booleans(),
                ),
                st.tuples(
                    st.sampled_from([OP_PING, OP_PONG, OP_CLOSE]),
                    st.binary(max_size=125),
                    st.booleans(),
                ),
            ),
            max_size=6,
        ),
        chunk=st.one_of(st.just(1), st.integers(2, 9), st.integers(10, 70000)),
    )
    def test_any_rechunking_yields_the_same_frames(self, frames, chunk):
        wire = b"".join(
            encode_frame(payload, opcode=opcode, mask=mask)
            for opcode, payload, mask in frames
        )
        decoder = FrameDecoder()
        decoded = []
        for index in range(0, len(wire), chunk):
            decoded.extend(decoder.feed(wire[index : index + chunk]))
        assert decoded == [(opcode, payload) for opcode, payload, _ in frames]

    @settings(max_examples=200, deadline=None)
    @given(chunks=st.lists(st.binary(max_size=64), max_size=8))
    def test_arbitrary_bytes_raise_only_connection_errors(self, chunks):
        decoder = FrameDecoder()
        try:
            for chunk in chunks:
                for opcode, payload in decoder.feed(chunk):
                    assert 0 <= opcode <= 0xF
                    assert isinstance(payload, bytes)
        except ConnectionError:
            pass

    def test_url_parsing(self):
        assert _parse_ws_url("ws://127.0.0.1:8766/") == (
            "127.0.0.1", 8766, "/"
        )
        assert _parse_ws_url("ws://example.org") == ("example.org", 80, "/")
        with pytest.raises(ValueError, match="ws://"):
            _parse_ws_url("ftp://example.org/")


async def _with_gateway(body, config=None):
    service = AdmissionService(config or _config(), series_wall_interval=0.0)
    await service.start()
    gateway = WebSocketGateway(service, port=0)
    await gateway.start()
    try:
        return await body(service, gateway)
    finally:
        await gateway.stop()
        await service.stop()


class TestGatewayProtocol:
    def test_admit_event_stats_and_errors(self):
        async def body(service, gateway):
            client = await AsyncWsClient.connect(gateway.url)
            decision = await client.request(
                {"op": "admit", "cell": 3, "id": "q1"}
            )
            assert decision["op"] == "decision"
            assert decision["id"] == "q1"
            assert decision["kind"] == "arrival"
            assert decision["admitted"] is True
            conn = decision["conn"]

            moved = await client.request(
                {"op": "event", "kind": "handoff", "cell": 4, "conn": conn}
            )
            assert moved["op"] == "decision" and moved["kind"] == "handoff"

            done = await client.request(
                {"op": "event", "kind": "complete", "conn": conn}
            )
            assert done == {"op": "ok"}

            stats = await client.request({"op": "stats"})
            assert stats["op"] == "stats"
            assert stats["decisions"] == 2

            for bad in (
                {"op": "admit"},  # missing cell
                {"op": "admit", "cell": 99},  # out of range
                {"op": "event", "kind": "teleport"},
                {"op": "transmogrify"},
            ):
                reply = await client.request(bad)
                assert reply["op"] == "error", reply
                assert reply["error"]

            # Error replies still echo the correlation id.
            reply = await client.request({"op": "nope", "id": 42})
            assert reply == {
                "op": "error", "error": "unknown op 'nope'", "id": 42
            }
            await client.close()
            assert gateway.connections_served == 1

        asyncio.run(_with_gateway(body))

    def test_subscribe_replays_backlog_then_streams_live(self):
        async def body(service, gateway):
            backlog_row = json.dumps({"t": 0.5, "events": 1})
            service.broadcast.write(backlog_row + "\n")

            client = await AsyncWsClient.connect(gateway.url)
            await client.send_json({"op": "subscribe"})
            replayed = await asyncio.wait_for(client.recv_json(), timeout=5.0)
            assert replayed == {"t": 0.5, "events": 1}
            assert "op" not in replayed  # series rows are not protocol frames

            # A second subscribe is a no-op (no duplicate backlog replay):
            # the next frame must be the live row, not the backlog again.
            await client.send_json({"op": "subscribe"})
            live_row = json.dumps({"t": 1.5, "events": 2})
            service.broadcast.write(live_row + "\n")
            live = await asyncio.wait_for(client.recv_json(), timeout=5.0)
            assert live == {"t": 1.5, "events": 2}

            assert service.broadcast.subscribers == 1
            await client.close()

        asyncio.run(_with_gateway(body))

    def test_subscriber_detaches_on_disconnect(self):
        async def body(service, gateway):
            client = await AsyncWsClient.connect(gateway.url)
            await client.send_json({"op": "subscribe"})
            # Round-trip an op so the subscribe is definitely processed.
            stats = await client.request({"op": "stats"})
            assert stats["op"] == "stats"
            assert service.broadcast.subscribers == 1
            await client.close()
            for _ in range(100):
                if service.broadcast.subscribers == 0:
                    break
                await asyncio.sleep(0.01)
            assert service.broadcast.subscribers == 0

        asyncio.run(_with_gateway(body))

    def test_ping_is_answered_with_pong(self):
        async def body(service, gateway):
            host, port, _ = _parse_ws_url(gateway.url)
            client = await AsyncWsClient.connect(gateway.url)
            client._writer.write(
                encode_frame(b"are-you-there", opcode=0x9, mask=True)
            )
            await client._writer.drain()
            opcode, payload = await client.recv_frame()
            assert opcode == 0xA and payload == b"are-you-there"
            await client.close()

        asyncio.run(_with_gateway(body))

    def test_close_frame_is_echoed(self):
        async def body(service, gateway):
            client = await AsyncWsClient.connect(gateway.url)
            client._writer.write(
                encode_frame(b"", opcode=OP_CLOSE, mask=True)
            )
            await client._writer.drain()
            opcode, _payload = await client.recv_frame()
            assert opcode == OP_CLOSE

        asyncio.run(_with_gateway(body))

    def test_plain_http_request_gets_a_400(self):
        async def body(service, gateway):
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            writer.write(
                b"GET / HTTP/1.1\r\nHost: localhost\r\n\r\n"
            )
            await writer.drain()
            response = await reader.read(4096)
            assert response.startswith(b"HTTP/1.1 400")
            assert b"RFC 6455" in response
            writer.close()
            await writer.wait_closed()
            assert gateway.connections_served == 0

        asyncio.run(_with_gateway(body))

    def test_an_upgrade_request_that_never_ends_gets_a_400(self):
        async def body(service, gateway):
            reader, writer = await asyncio.open_connection(
                gateway.host, gateway.port
            )
            writer.write(b"GET / HTTP/1.1\r\nX-Padding: " + b"a" * READ_BYTES)
            response = await asyncio.wait_for(reader.read(4096), timeout=5.0)
            assert response.startswith(b"HTTP/1.1 400")
            # ... and hung up (with a reset: part of the request is unread).
            try:
                assert await asyncio.wait_for(reader.read(), timeout=5.0) == b""
            except ConnectionResetError:
                pass
            writer.close()
            assert gateway.connections_served == 0
            assert not gateway.sessions

        asyncio.run(_with_gateway(body))

    def test_upgrade_split_across_reads_and_with_frames_in_its_segment(self):
        async def body(service, gateway):
            key = "dGhlIHNhbXBsZSBub25jZQ=="
            upgrade = _client_handshake_bytes(gateway.host, gateway.port, "/", key)
            first = _text_frame({"op": "admit", "cell": 1, "id": "first"})
            for pieces in (
                [upgrade[:7], upgrade[7:-2], upgrade[-2:]],
                [upgrade + first],
                [upgrade[:-1], upgrade[-1:] + first[:5], first[5:]],
            ):
                reader, writer = await asyncio.open_connection(
                    gateway.host, gateway.port
                )
                for piece in pieces:
                    writer.write(piece)
                    await writer.drain()
                    await asyncio.sleep(0.01)  # let it arrive on its own
                response = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=5.0
                )
                assert response.startswith(b"HTTP/1.1 101")
                assert handshake_accept(key).encode("ascii") in response
                client = AsyncWsClient(reader, writer)
                if len(pieces) == 3 and pieces[0] == upgrade[:7]:
                    await client.send_json({"op": "admit", "cell": 1, "id": "first"})
                reply = await asyncio.wait_for(client.recv_json(), timeout=5.0)
                assert reply["op"] == "decision" and reply["id"] == "first"
                await client.close()
            assert gateway.connections_served == 3

        asyncio.run(_with_gateway(body))

    def test_malformed_text_frames_get_error_replies(self):
        # Regression: these used to raise before the request was bound
        # and take the connection down with an UnboundLocalError.
        async def body(service, gateway):
            client = await AsyncWsClient.connect(gateway.url)
            for payload in (b"{not json", b"\xff\xfe\x00", b"[1, 2]", b"7", b""):
                client._writer.write(encode_frame(payload, mask=True))
            await client._writer.drain()
            for _ in range(5):
                reply = await asyncio.wait_for(client.recv_json(), timeout=5.0)
                assert reply["op"] == "error" and reply["error"], reply
            assert (await client.request({"op": "admit", "cell": 1}))["admitted"]
            await client.close()

        asyncio.run(_with_gateway(body))

    def test_mistyped_fields_never_reach_the_shared_worker(self):
        async def body(service, gateway):
            client = await AsyncWsClient.connect(gateway.url)
            for fields in (
                {"t": "noon"},
                {"t": float("nan")},
                {"t": [1]},
                {"traffic": ["voice"]},
                {"traffic": None},
                {"cell": float("inf")},
                {"cell": {}},
                {"conn": "seven"},
            ):
                reply = await client.request(
                    {"op": "admit", "cell": 1, "id": "x", **fields}
                )
                assert reply["op"] == "error" and reply["id"] == "x", reply
            # The worker every connection shares is still alive.
            other = await AsyncWsClient.connect(gateway.url)
            assert (await other.request({"op": "admit", "cell": 1}))["admitted"]
            await other.close()
            await client.close()

        asyncio.run(_with_gateway(body))

    def test_oversized_frame_closes_with_1009_after_answering(self):
        async def body(service, gateway):
            client = await AsyncWsClient.connect(gateway.url)
            client._writer.write(
                encode_frame(b'{"op": "admit", "cell": 2, "id": 1}', mask=True)
                + bytes([0x80 | OP_TEXT, 0x80 | 127])
                + (1 << 40).to_bytes(8, "big")
            )
            await client._writer.drain()
            reply = await asyncio.wait_for(client.recv_json(), timeout=5.0)
            assert reply["op"] == "decision" and reply["id"] == 1
            opcode, payload = await asyncio.wait_for(
                client.recv_frame(), timeout=5.0
            )
            assert opcode == OP_CLOSE
            assert int.from_bytes(payload, "big") == 1009
            # ... and the gateway hangs up instead of waiting for a body.
            assert await asyncio.wait_for(client._reader.read(), timeout=5.0) == b""
            client._writer.close()

        asyncio.run(_with_gateway(body))

    def test_data_the_session_cannot_read_closes_after_answering(self):
        # Regression: a binary or continuation frame used to vanish —
        # no reply, no error — so a pipelining client read every later
        # reply against the wrong request.
        async def body(service, gateway):
            for refused, status in (
                (encode_frame(b'{"op": "stats"}', opcode=OP_BINARY, mask=True), 1003),
                (encode_frame(b'{"op": "stats"}', opcode=0x0, mask=True), 1002),
                (bytes([0xC0 | OP_TEXT, 0x80]) + bytes(4), 1002),
                (encode_frame(bytes(126), opcode=OP_PING, mask=True), 1002),
            ):
                client = await AsyncWsClient.connect(gateway.url)
                client._writer.write(
                    _text_frame({"op": "admit", "cell": 2, "id": "before"})
                    + refused
                    + _text_frame({"op": "admit", "cell": 2, "id": "after"})
                )
                await client._writer.drain()
                reply = await asyncio.wait_for(client.recv_json(), timeout=5.0)
                assert reply["op"] == "decision" and reply["id"] == "before"
                opcode, payload = await asyncio.wait_for(
                    client.recv_frame(), timeout=5.0
                )
                assert opcode == OP_CLOSE
                assert int.from_bytes(payload, "big") == status
                assert (
                    await asyncio.wait_for(client._reader.read(), timeout=5.0)
                    == b""
                )
                client._writer.close()

        asyncio.run(_with_gateway(body))

    def test_non_integral_ids_are_refused_not_truncated(self):
        # Regression: int() coercion admitted {"cell": 1.9} and
        # {"cell": true} into cell 1 and let {"conn": 2.7} complete
        # connection 2.
        async def body(service, gateway):
            client = await AsyncWsClient.connect(gateway.url)
            admitted = await client.request(
                {"op": "admit", "cell": 1, "conn": 2}
            )
            assert admitted["admitted"] and admitted["conn"] == 2
            used = service.driver.network.cell(1).used_bandwidth
            requests = [
                {"op": "admit", "cell": 1.9, "id": 0},
                {"op": "admit", "cell": True, "id": 1},
                {"op": "event", "kind": "complete", "conn": 2.7, "id": 2},
                {"op": "event", "kind": "handoff", "cell": 2.0, "conn": 2, "id": 3},
                {"op": "admit", "cell": 1, "conn": False, "id": 4},
                {"op": "admit", "cell": 1, "id": 5},  # valid, after them
            ]
            replies = await _burst(
                client, b"".join(map(_text_frame, requests)), len(requests)
            )
            assert [reply["id"] for reply in replies] == [0, 1, 2, 3, 4, 5]
            for reply, field in zip(replies, ("cell", "cell", "conn", "cell", "conn")):
                assert reply["op"] == "error", reply
                assert f"{field} must be an integer" in reply["error"]
            assert replies[5]["op"] == "decision" and replies[5]["admitted"]
            # Nothing but the one valid request touched the cell, and
            # connection 2 is still there to be completed.
            assert replies[5]["used"] == 2 * used
            assert service.driver.active_connections == 2
            done = await client.request(
                {"op": "event", "kind": "complete", "conn": 2}
            )
            assert done == {"op": "ok"}
            assert service.driver.active_connections == 1
            assert service.driver.ignored == 0
            await client.close()

        asyncio.run(_with_gateway(body))

    def test_a_frame_nested_past_the_recursion_limit_gets_an_error_reply(self):
        async def body(service, gateway):
            client = await AsyncWsClient.connect(gateway.url)
            client._writer.write(
                encode_frame(b"[" * 100_000, mask=True)
                + _text_frame({"op": "admit", "cell": 1, "id": "next"})
            )
            await client._writer.drain()
            reply = await asyncio.wait_for(client.recv_json(), timeout=5.0)
            assert reply["op"] == "error" and "recursion" in reply["error"]
            reply = await asyncio.wait_for(client.recv_json(), timeout=5.0)
            assert reply["op"] == "decision" and reply["id"] == "next"
            await client.close()

        asyncio.run(_with_gateway(body))

    def test_stalled_subscriber_loses_rows_not_other_clients_time(self):
        async def body(service, gateway):
            dropped = service.driver.sim.telemetry.counter(
                "serve.subscriber_dropped_rows"
            )
            stalled = await AsyncWsClient.connect(gateway.url)
            await stalled.send_json({"op": "subscribe"})
            other = await AsyncWsClient.connect(gateway.url)
            await other.request({"op": "stats"})
            assert service.broadcast.subscribers == 1

            # The subscriber never reads.  Rows pile up in the socket
            # buffers, then past the transport's high-water mark; from
            # there on they are dropped, so memory stays bounded.
            row = json.dumps({"t": 0.0, "pad": "x" * 65536})
            written = 0
            while dropped.value == 0 and written < 4096:
                service.broadcast.write(row + "\n")
                written += 1
                await asyncio.sleep(0)
            assert dropped.value > 0, "rows were buffered without bound"
            before = dropped.value
            for _ in range(50):
                service.broadcast.write(row + "\n")
            assert dropped.value == before + 50

            # Decisions on another connection are answered at once.
            loop = asyncio.get_running_loop()
            started = loop.time()
            for cell in range(20):
                reply = await asyncio.wait_for(
                    other.request({"op": "admit", "cell": cell % 6}), timeout=5.0
                )
                assert reply["op"] == "decision"
            assert loop.time() - started < 2.0
            await other.close()
            stalled._writer.close()

        asyncio.run(_with_gateway(body, replace(_config(), telemetry=True)))

    def test_sync_client_reads_frames_split_across_packets(self):
        async def body(service, gateway):
            def exchange():
                with SyncWsClient(gateway.url) as client:
                    for index in range(50):
                        client.send_json({"op": "admit", "cell": 1, "id": index})
                    replies = [client.recv_json() for _ in range(50)]
                    stats = client.request({"op": "stats"})
                return replies, stats

            replies, stats = await asyncio.get_running_loop().run_in_executor(
                None, exchange
            )
            assert [reply["id"] for reply in replies] == list(range(50))
            assert stats["decisions"] == 50

        asyncio.run(_with_gateway(body))


def _request(event) -> dict:
    """The gateway request that carries one recorded stream event."""
    if event.kind == ARRIVAL:
        return {
            "op": "admit",
            "cell": event.cell,
            "traffic": event.traffic,
            "t": event.t,
            "conn": event.conn,
        }
    return {
        "op": "event",
        "kind": event.kind,
        "cell": event.cell,
        "conn": event.conn,
        "t": event.t,
    }


def _text_frame(message: dict) -> bytes:
    return encode_frame(json.dumps(message).encode("utf-8"), mask=True)


async def _burst(client, wire: bytes, replies: int) -> list[dict]:
    """Send ``wire`` in one write, then collect ``replies`` text frames."""
    client._writer.write(wire)
    received = []
    while len(received) < replies:
        received.append(await asyncio.wait_for(client.recv_frame(), timeout=10.0))
    return [
        json.loads(payload) if opcode == OP_TEXT else {"opcode": opcode}
        for opcode, payload in received
    ]


class TestPipelinedSession:
    def test_mixed_burst_is_answered_in_request_order(self):
        async def body(service, gateway):
            client = await AsyncWsClient.connect(gateway.url)
            requests = [
                {"op": "admit", "cell": 3, "conn": 70, "id": 0},
                {"op": "admit", "id": 1},  # malformed: no cell
                {"op": "event", "kind": "handoff", "cell": 4, "conn": 70, "id": 2},
                {"op": "admit", "cell": 99, "id": 3},  # refused by the driver
                {"op": "stats", "id": 4},
                {"op": "admit", "cell": 1, "id": 5},
                None,  # a ping, here
                {"op": "transmogrify", "id": 7},
                {"op": "event", "kind": "complete", "conn": 70, "id": 8},
                {"op": "stats", "id": 9},
            ]
            wire = b"".join(
                encode_frame(b"mid-burst", opcode=OP_PING, mask=True)
                if request is None
                else _text_frame(request)
                for request in requests
            )
            replies = await _burst(client, wire, len(requests))
            assert [reply.get("id") for reply in replies] == [
                0, 1, 2, 3, 4, 5, None, 7, 8, 9
            ]
            assert [reply.get("op") for reply in replies] == [
                "decision", "error", "decision", "error", "stats",
                "decision", None, "error", "ok", "stats",
            ]
            assert replies[6] == {"opcode": OP_PONG}
            assert replies[2]["kind"] == "handoff" and replies[2]["conn"] == 70
            # Each stats reply counts exactly the decisions before it.
            assert replies[4]["decisions"] == 2
            assert replies[9]["decisions"] == 3
            await client.close()

        asyncio.run(_with_gateway(body))

    def test_a_duplicate_conn_id_gets_its_in_order_error(self):
        # Regression: the second admit used to displace the first in
        # the driver's id map, leaving a connection nothing could end.
        async def body(service, gateway):
            client = await AsyncWsClient.connect(gateway.url)
            requests = [
                {"op": "admit", "cell": 0, "conn": 7, "id": 0},
                {"op": "admit", "cell": 0, "conn": 7, "id": 1},
                {"op": "admit", "cell": 0, "conn": 8, "id": 2},
                {"op": "stats", "id": 3},
            ]
            replies = await _burst(
                client, b"".join(map(_text_frame, requests)), len(requests)
            )
            assert [reply["id"] for reply in replies] == [0, 1, 2, 3]
            assert [reply["op"] for reply in replies] == [
                "decision", "error", "decision", "stats",
            ]
            assert "connection id 7 is in use" in replies[1]["error"]
            assert replies[2]["conn"] == 8
            assert replies[2]["used"] == 2 * replies[0]["used"]
            assert replies[3]["active_connections"] == 2
            assert len(service.driver.sim.active_connections) == 2
            await client.close()

        asyncio.run(_with_gateway(body))

    def test_recorded_stream_in_one_burst_matches_replay(self):
        config = stationary(
            "AC3", offered_load=250.0, duration=120.0, seed=11, num_cells=6
        )
        events, _ = record_run(config)
        expected = iter(StreamDriver(config).replay(events))

        async def body(service, gateway):
            client = await AsyncWsClient.connect(gateway.url)
            wire = b"".join(_text_frame(_request(event)) for event in events)
            replies = await _burst(client, wire, len(events))
            await client.close()
            return replies

        replies = asyncio.run(_with_gateway(body, config))
        assert len(events) > 5 * (READ_BYTES // 80), "want several groups"
        for event, reply in zip(events, replies, strict=True):
            if event.kind in (ARRIVAL, HANDOFF):
                assert reply == {"op": "decision", **next(expected).to_json()}
                assert reply["admitted"] == event.admitted
            else:
                assert reply == {"op": "ok"}

    def test_a_long_burst_is_applied_in_bounded_groups(self):
        async def body(service, gateway):
            groups = []
            apply_many = service.apply_many

            def recording(events):
                groups.append(len(events))
                return apply_many(events)

            service.apply_many = recording
            client = await AsyncWsClient.connect(gateway.url)
            frame = _text_frame({"op": "admit", "cell": 2, "traffic": "voice"})
            replies = await _burst(client, frame * 5000, 5000)
            assert all(reply["op"] == "decision" for reply in replies)
            assert sum(groups) == 5000
            # What one read can complete: its own bytes plus the frame
            # the previous read left unfinished.
            assert max(groups) <= READ_BYTES // len(frame) + 1
            assert max(groups) > 1, "the burst was not pipelined at all"
            await client.close()

        asyncio.run(_with_gateway(body))

    def test_a_burst_on_one_connection_does_not_starve_another(self):
        # A read is a group and the loop gets a turn between groups, so
        # B's one request waits for a read of A's, not for A's backlog.
        async def body(service, gateway):
            a = await AsyncWsClient.connect(gateway.url)
            b = await AsyncWsClient.connect(gateway.url)
            frame = _text_frame({"op": "admit", "cell": 2})
            a._writer.write(frame * 5000)
            await b.send_json({"op": "admit", "cell": 3, "id": "b"})
            reply = await asyncio.wait_for(b.recv_json(), timeout=10.0)
            assert reply["op"] == "decision" and reply["id"] == "b"
            # A's replies are still coming: B did not wait for the burst.
            answered_first = service.stats()["decisions"]
            assert answered_first < 5001
            seen = 0
            while seen < 5000:
                opcode, _ = await asyncio.wait_for(a.recv_frame(), timeout=10.0)
                seen += opcode == OP_TEXT
            assert service.stats()["decisions"] == 5001
            await a.close()
            await b.close()

        asyncio.run(_with_gateway(body))

    def test_a_failed_service_closes_the_connection_with_1011(self):
        async def body(service, gateway):
            client = await AsyncWsClient.connect(gateway.url)
            assert (await client.request({"op": "admit", "cell": 1}))["admitted"]

            def explode():
                raise OSError("disk on fire")

            service.driver.flush = explode
            client._writer.write(
                _text_frame({"op": "stats", "id": "before"})
                + _text_frame({"op": "admit", "cell": 1})
                + _text_frame({"op": "stats", "id": "after"})
            )
            # What was answered before the failure still leaves ...
            reply = await asyncio.wait_for(client.recv_json(), timeout=5.0)
            assert reply["op"] == "stats" and reply["id"] == "before"
            # ... then the close, and nothing after it.
            opcode, payload = await asyncio.wait_for(client.recv_frame(), timeout=5.0)
            assert opcode == OP_CLOSE
            assert int.from_bytes(payload, "big") == 1011
            assert await asyncio.wait_for(client._reader.read(), timeout=5.0) == b""
            client._writer.close()
            # Every other connection meets the same refusal.
            other = await AsyncWsClient.connect(gateway.url)
            other._writer.write(_text_frame({"op": "admit", "cell": 2}))
            opcode, payload = await asyncio.wait_for(other.recv_frame(), timeout=5.0)
            assert opcode == OP_CLOSE
            assert int.from_bytes(payload, "big") == 1011
            other._writer.close()
            with pytest.raises(OSError, match="disk on fire"):
                await service.stop()

        asyncio.run(_with_gateway(body))


# ----------------------------------------------------------------------
# formatted decision frames
# ----------------------------------------------------------------------
_amounts = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 1e-7, 4.9e-7, 5e-7, 1e22 / 3, 5e-324, 2.2250738585072014e-308,
         0.1 + 0.2, 1e16, 123456.7890125, 1.7976931348623157e308]
    ),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=1e4),
    st.integers(0, 10**6),  # a clock that has not left its integer start
)
_json_ids = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(),
        st.sampled_from(['say "hi"', "back\\slash", "naïve ✓ \U0001f4e1", "\x00\x1f"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=8,
)
_decisions = st.builds(
    Decision,
    t=_amounts,
    kind=st.sampled_from([ARRIVAL, HANDOFF]),
    cell=st.integers(0, 10**9),
    admitted=st.booleans(),
    conn=st.one_of(st.none(), st.integers(-1, 10**12)),
    reserved=_amounts,
    used=_amounts,
)


def _serialised_frame(decision, message) -> bytes:
    """The reference: the reply as the gateway used to build it."""
    reply = {"op": "decision", **decision.to_json()}
    if "id" in message:
        reply["id"] = message["id"]
    return encode_frame(json.dumps(reply, sort_keys=True).encode("utf-8"))


class TestFormattedDecisionFrames:
    @settings(max_examples=500, deadline=None)
    @given(
        decision=_decisions,
        request=st.one_of(
            st.just({}),
            _json_ids.map(lambda value: {"id": value}),
            # Long enough to push the payload over the 125-byte header
            # boundary, short enough to stay near it.
            st.integers(0, 60).map(lambda pad: {"id": "x" * pad}),
        ),
    )
    def test_formatted_frame_equals_the_serialised_one(self, decision, request):
        assert _decision_frame(decision, request) == _serialised_frame(
            decision, request
        )

    def test_payloads_on_both_sides_of_the_one_byte_length(self):
        # Second header byte: the payload length up to 125, then the
        # marker 126 for a two-byte length.  Walk the payload across it
        # one byte at a time.
        seen = set()
        for digits in range(1, 30):
            decision = Decision(1.5, ARRIVAL, 10**digits, True, 7, 2.0, 9.0)
            for request in ({}, {"id": 0}):
                frame = _decision_frame(decision, request)
                assert frame == _serialised_frame(decision, request)
                seen.add(frame[1])
        assert {124, 125, 126} <= seen


# ----------------------------------------------------------------------
# fuzz: arbitrary bytes, split anywhere (ROADMAP item 4)
# ----------------------------------------------------------------------
class _Sink:
    """What a ``_Session`` needs of its transport, kept in memory."""

    def __init__(self) -> None:
        self.data = bytearray()
        self.closed = False
        #: What ``get_write_buffer_size`` reports: a peer that stopped
        #: reading is simulated by raising it.
        self.unsent = 0

    def write(self, data: bytes) -> None:
        assert not self.closed, "written to after close"
        self.data += data

    def close(self) -> None:
        self.closed = True

    def get_write_buffer_limits(self):
        return 16384, 65536

    def get_write_buffer_size(self) -> int:
        return self.unsent


def _open_session(service) -> tuple[_Session, _Sink]:
    """A session on an in-memory transport, upgrade done and stripped."""
    session = _Session(WebSocketGateway(service))
    sink = _Sink()
    session.connection_made(sink)
    _feed(session, _client_handshake_bytes("localhost", 80, "/", "a2V5"))
    assert sink.data.startswith(b"HTTP/1.1 101")
    sink.data.clear()
    return session, sink


def _feed(session, chunk: bytes) -> None:
    """``chunk`` as the transport delivers it: one read per bufferful,
    none after the session closed the transport."""
    while chunk and not session.transport.closed:
        buffer = session.get_buffer(-1)
        size = min(len(chunk), len(buffer))
        buffer[:size] = chunk[:size]
        session.buffer_updated(size)
        chunk = chunk[size:]


def _split(wire: bytes, cuts) -> list[bytes]:
    edges = sorted({0, len(wire), *(cut % (len(wire) + 1) for cut in cuts)})
    return [wire[low:high] for low, high in zip(edges, edges[1:])]


_valid_requests = st.sampled_from(
    [
        {"op": "admit", "cell": 2},
        {"op": "admit", "cell": 0, "traffic": "video"},
        {"op": "admit", "cell": 99},  # well-formed; the driver refuses it
        {"op": "event", "kind": "complete", "conn": 0},
        {"op": "event", "kind": "handoff", "cell": 3, "conn": 1},
        {"op": "stats"},
    ]
)
#: Whole frames that are not valid requests: each costs one reply (an
#: error, a pong) and leaves the stream aligned for what follows.
_whole_frames = st.one_of(
    st.binary(max_size=200).map(lambda payload: encode_frame(payload, mask=True)),
    st.binary(max_size=125).map(
        lambda payload: encode_frame(payload, opcode=OP_PING, mask=True)
    ),
    st.sampled_from(
        [
            b'{"op": "admit", "cell": 1.5}',
            b'{"op": "event", "kind": "exit", "conn": true}',
            b'{"op": "admit", "cell": 1, "t": 1e999}',
            b'{"op": "admit", "cell": 1, "t": 1' + b"0" * 400 + b"}",
            b"[" * 3000,
            b"\xff\xfe{}",
        ]
    ).map(lambda payload: encode_frame(payload, mask=True)),
)
#: Bytes after which nothing is promised: a refused frame, or raw bytes
#: that may be one, or may open a frame that swallows what follows.
_breaking_bytes = st.one_of(
    st.binary(max_size=40),
    st.binary(min_size=1, max_size=30).map(
        lambda payload: encode_frame(payload, opcode=OP_BINARY, mask=True)
    ),
)


class TestArbitraryBytes:
    @settings(max_examples=300, deadline=None)
    @given(wire=st.binary(max_size=400), cuts=st.lists(st.integers(0, 400), max_size=12))
    def test_decoder_survives_any_bytes_split_anywhere(self, wire, cuts):
        whole, split = FrameDecoder(), FrameDecoder()
        outcomes = []
        for decoder, chunks in ((whole, [wire]), (split, _split(wire, cuts))):
            frames = []
            try:
                for chunk in chunks:
                    frames.extend(decoder.feed(chunk))
                outcomes.append((frames, None))
            except ConnectionError as error:
                outcomes.append((frames, error.status))
        # Where the stream is cut changes nothing: same frames, same refusal.
        assert outcomes[0] == outcomes[1]
        for opcode, payload in outcomes[0][0]:
            assert opcode in (OP_TEXT, OP_CLOSE, OP_PING, OP_PONG)
            assert opcode == OP_TEXT or len(payload) <= 125

    @settings(max_examples=60, deadline=None)
    @given(
        pieces=st.lists(
            st.one_of(
                _valid_requests,
                _whole_frames,
                _breaking_bytes.map(lambda wire: (wire,)),
            ),
            max_size=14,
        ),
        cuts=st.lists(st.integers(0, 4000), max_size=10),
    )
    def test_live_session_answers_every_request_before_the_first_refusal(
        self, pieces, cuts
    ):
        wire = bytearray()
        sent = []  # ids of the valid requests, in order
        promised = []  # ... those sent before the stream first breaks
        broken = False
        for index, piece in enumerate(pieces):
            if isinstance(piece, dict):
                wire += _text_frame({**piece, "id": index})
                sent.append(index)
                if not broken:
                    promised.append(index)
            elif isinstance(piece, bytes):
                wire += piece
            else:
                wire += piece[0]
                broken = True

        service = AdmissionService(_config(), series_wall_interval=0.0)
        asyncio.run(service.start())
        session, sink = _open_session(service)
        # Never an exception out of the read callback.
        for chunk in _split(bytes(wire), cuts):
            _feed(session, chunk)
        session.connection_lost(None)
        written = bytes(sink.data)
        frames = list(FrameDecoder().feed(written))
        answered = []
        for position, (opcode, payload) in enumerate(frames):
            if opcode == OP_CLOSE:
                assert position == len(frames) - 1, "frames after the close"
            elif opcode == OP_TEXT:
                reply = json.loads(payload)
                if type(reply.get("id")) is int:
                    answered.append(reply["id"])
        # Once each and in request order ...
        assert answered == sorted(set(answered))
        assert set(answered) <= set(sent)
        # ... and none missing before the stream first went wrong.
        assert answered[: len(promised)] == promised

    def test_stalled_subscriber_loses_rows_counted_and_delays_nobody(self):
        service = AdmissionService(
            replace(_config(), telemetry=True), series_wall_interval=0.0
        )
        asyncio.run(service.start())
        dropped = service.driver.sim.telemetry.counter(
            "serve.subscriber_dropped_rows"
        )
        session, sink = _open_session(service)
        _feed(session, _text_frame({"op": "subscribe"}))
        service.broadcast.write('{"t": 1.0}\n')
        assert list(FrameDecoder().feed(bytes(sink.data))) == [
            (OP_TEXT, b'{"t": 1.0}')
        ]
        sink.data.clear()
        sink.unsent = 65537  # over the high-water mark: the peer stalled
        for _ in range(50):
            service.broadcast.write('{"t": 2.0}\n')
        assert dropped.value == 50 and not sink.data
        # Nobody waits for it: a group on another path is applied at once.
        results = service.apply_many([StreamEvent(t=None, kind=ARRIVAL, cell=1)])
        assert results[0].admitted
        sink.unsent = 0  # it reads again: rows flow again
        service.broadcast.write('{"t": 3.0}\n')
        assert list(FrameDecoder().feed(bytes(sink.data))) == [
            (OP_TEXT, b'{"t": 3.0}')
        ]
        session.connection_lost(None)
        assert service.broadcast.subscribers == 0


# ----------------------------------------------------------------------
# the request parser: the JSON scanner, and json.loads past it
# ----------------------------------------------------------------------
#: Each payload's reply is fixed by its parse alone (no stream request
#: reaches the engine), and an ``id`` in it is echoed back: a parse that
#: differs from ``json.loads`` changes a reply byte.
_PARSE_TABLE = [
    b'{"op":"nope","id":{"b":[1,2.5,-0.0,1e300,null,true,"\\u00e9"],"a":{}}}',
    b'{"op": "nope", "id": 1}',
    b' \t\r\n{"op":"nope","id":2}',
    b'{"op":"nope","id":3} \n',
    b'  {"op":"nope","id":4}  ',
    b'{"op":"stats","id":5} x',
    b'{"op":"stats","id":6}{"op":"stats"}',
    b'{"op":"nope","id":7',
    b'{"op" 1}',
    b'[1, 2]',
    b"7",
    b"",
    b"\xff\xfe{}",
    "\ufeff{}".encode("utf-8"),
    b'{"id":' + b"1" * 5000 + b"}",
    b'{"op":"nope","id":NaN}',
    b"[" * 5000,
]


def _loads_reply(payload: bytes) -> bytes:
    """The reply built from ``json.loads``' own result or exception."""
    message = None
    try:
        message = json.loads(payload.decode("utf-8"))
        if not isinstance(message, dict):
            raise ValueError("request must be a JSON object")
    except (ValueError, RecursionError) as error:
        return _error_frame(str(error), message)
    return _error_frame(f"unknown op {message.get('op')!r}", message)


class TestScannedRequests:
    def test_every_reply_is_the_one_json_loads_gives(self):
        service = AdmissionService(_config())
        asyncio.run(service.start())
        session, sink = _open_session(service)
        _feed(
            session,
            b"".join(encode_frame(payload, mask=True) for payload in _PARSE_TABLE),
        )
        assert not sink.closed
        expected = [_loads_reply(payload) for payload in _PARSE_TABLE]
        assert bytes(sink.data) == b"".join(expected)
        # The table reaches every branch: a scanned value, the fallback's
        # value, its errors, and a parse that fails before any fallback.
        replies = [
            json.loads(payload)
            for _, payload in FrameDecoder().feed(b"".join(expected))
        ]
        assert [reply.get("id") for reply in replies[:5]] == [
            json.loads(_PARSE_TABLE[0])["id"], 1, 2, 3, 4,
        ]
        assert replies[5]["error"].startswith("Extra data")
        assert "id" not in replies[5] and "id" not in replies[6]
        assert "recursion" in replies[-1]["error"]
        session.connection_lost(None)
