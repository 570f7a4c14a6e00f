"""A dependency-free RFC 6455 WebSocket endpoint for the service.

No framework: the handshake is ~20 lines of HTTP and the frame codec a
page of struct-free byte twiddling, which keeps the live service inside
the repo's no-new-dependencies rule.  The server speaks a small JSON
protocol:

* ``{"op": "admit", "cell": 3, "traffic": "voice"}`` →
  ``{"op": "decision", "admitted": true, "reserved": ..., ...}``
* ``{"op": "event", "kind": "handoff"|"complete"|"exit", ...}`` →
  a decision for hand-offs, ``{"op": "ok"}`` otherwise
* ``{"op": "subscribe"}`` → the sampler's JSONL rows stream as text
  frames (identical bytes to a ``--series-out`` file, so
  ``repro dash ws://host:port`` renders them unchanged)
* ``{"op": "stats"}`` → service counters (decisions/s, P50/P99)

A connection is one :class:`asyncio.BufferedProtocol` (:class:`_Session`)
and a read is one callback: the socket fills the session's resident
buffer, every frame the read completes is parsed in one pass, each run
of consecutive ``admit``/``event`` requests is applied as one
:meth:`AdmissionService.apply_many` group, and every reply of the read
leaves in one ``write`` — all plain calls, with no task, future or
queue between the socket and the engine.  Replies leave strictly in
request order; ``stats``, ``subscribe``, ping and close first settle
the run before them, so they observe every request sent earlier.

The request path is one parse in, one format out: a stream request is
scanned by the JSON decoder's C scanner (``json.loads`` only when the
payload is more than one bare value, so every reply and error stays
``json.loads``' own), checked into a :class:`StreamEvent` and appended
to the run, and its decision is written by formatting a template, not
by serialising dicts — to the same bytes.
Frames the protocol has no use for are refused from their header:
binary data with close status 1003, fragments, reserved bits or opcodes
and over-long control frames with 1002.

:class:`SyncWsClient` is the bundled blocking client — what
``repro dash`` uses from outside the service process;
:class:`AsyncWsClient` is its asyncio twin for in-loop callers (the
tests and ``scripts/serve_smoke.py``).
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import socket
from collections import deque
from urllib.parse import urlsplit

from repro.serve.events import (
    ARRIVAL,
    COMPLETE,
    EXIT,
    HANDOFF,
    StreamEvent,
    checked_event,
)
from repro.serve.service import ServiceFailed

__all__ = [
    "AsyncWsClient",
    "FrameDecoder",
    "FrameError",
    "SyncWsClient",
    "WebSocketGateway",
    "encode_frame",
    "handshake_accept",
]

_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

CLOSE_PROTOCOL_ERROR = 1002
CLOSE_UNSUPPORTED_DATA = 1003
CLOSE_TOO_BIG = 1009
CLOSE_INTERNAL_ERROR = 1011

#: First header byte of the one frame the request path is made of: a
#: final text frame with no reserved bit set.
_FINAL_TEXT = 0x80 | OP_TEXT

#: Largest payload a peer may declare.  A longer frame is refused from
#: its header alone (close status 1009), so nobody can make this end
#: buffer without bound.
MAX_FRAME_BYTES = 1 << 20

#: Size of a connection's resident read buffer, so the most the gateway
#: takes from it per wake-up.  The requests of one read form one
#: ``apply_many`` group, so this is also the group bound: ≈90 protocol
#: requests, about a millisecond of engine work — well inside the
#: default 5 ms decision budget (64 KiB reads put 714 events in a group
#: and half of a saturating client's decisions over it, for 6 % more
#: throughput).  What a client sends beyond it waits in the socket: TCP
#: is the back-pressure.  An HTTP upgrade request must fit in it too.
READ_BYTES = 8192


def handshake_accept(key: str) -> str:
    """``Sec-WebSocket-Accept`` for a client's ``Sec-WebSocket-Key``."""
    digest = hashlib.sha1((key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def _mask(payload, key) -> bytes:
    """``payload`` XOR the repeating 4-byte ``key`` (RFC 6455 §5.3), as
    one big-integer operation.  Masking is its own inverse."""
    size = len(payload)
    pad = (bytes(key) * (size // 4 + 1))[:size]
    return (
        int.from_bytes(payload, "big") ^ int.from_bytes(pad, "big")
    ).to_bytes(size, "big")


def encode_frame(payload: bytes, opcode: int = OP_TEXT, mask: bool = False) -> bytes:
    """One final (unfragmented) frame.  Clients must mask, servers must
    not — RFC 6455 §5.3."""
    header = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += length.to_bytes(2, "big")
    else:
        header.append(mask_bit | 127)
        header += length.to_bytes(8, "big")
    if mask:
        key = os.urandom(4)
        header += key
        payload = _mask(payload, key)
    return bytes(header) + payload


class FrameError(ConnectionError):
    """A frame this endpoint refuses; ``status`` is the close code."""

    def __init__(self, message: str, status: int) -> None:
        super().__init__(message)
        self.status = status


def _refuse_header(first: int, second: int) -> None:
    """Raise :class:`FrameError` unless the two header bytes open a
    frame this endpoint takes: final, no reserved bit, and either text
    or a control frame of at most 125 bytes (RFC 6455 §5.2, §5.5)."""
    if not first & 0x80:
        raise FrameError(
            "fragmented frames are not supported", CLOSE_PROTOCOL_ERROR
        )
    if first & 0x70:
        raise FrameError("reserved header bits are set", CLOSE_PROTOCOL_ERROR)
    opcode = first & 0x0F
    if opcode == OP_BINARY:
        raise FrameError(
            "binary frames are not supported", CLOSE_UNSUPPORTED_DATA
        )
    if opcode not in (OP_TEXT, OP_CLOSE, OP_PING, OP_PONG):
        # A continuation with nothing to continue, or a reserved opcode.
        raise FrameError(f"unexpected opcode {opcode:#x}", CLOSE_PROTOCOL_ERROR)
    if opcode != OP_TEXT and second & 0x7F > 125:
        raise FrameError(
            "control frame longer than 125 bytes", CLOSE_PROTOCOL_ERROR
        )


class FrameDecoder:
    """Incremental frame parser — the one place a header is read.

    Feed it the byte stream in chunks of any size; it yields each frame
    as soon as its last byte has arrived and keeps the unfinished rest.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes):
        """Yield ``(opcode, unmasked payload)`` for every frame ``data``
        completes.  Raises :class:`FrameError` — from the header alone —
        at a frame that is fragmented, binary, a protocol violation
        (reserved bits or opcode, an over-long control frame) or
        declares more than :data:`MAX_FRAME_BYTES`; the frames before
        it have been yielded by then."""
        buffer = self._buffer
        buffer += data
        size = len(buffer)
        offset = 0
        try:
            while size - offset >= 2:
                first = buffer[offset]
                second = buffer[offset + 1]
                if first != _FINAL_TEXT:
                    _refuse_header(first, second)
                length = second & 0x7F
                start = offset + 2
                if length >= 126:
                    start += 2 if length == 126 else 8
                    if start > size:
                        break
                    length = int.from_bytes(buffer[offset + 2 : start], "big")
                    if length > MAX_FRAME_BYTES:
                        raise FrameError(
                            f"frame of {length} bytes exceeds the"
                            f" {MAX_FRAME_BYTES}-byte limit",
                            CLOSE_TOO_BIG,
                        )
                masked = second & 0x80
                if masked:
                    start += 4
                end = start + length
                if end > size:
                    break
                if masked:
                    payload = _mask(buffer[start:end], buffer[start - 4 : start])
                else:
                    payload = bytes(buffer[start:end])
                offset = end
                yield first & 0x0F, payload
        finally:
            del buffer[:offset]


def _stream_event(message: dict) -> StreamEvent | None:
    """The stream event an ``admit``/``event`` request carries (``None``
    for any other op).  Field types are checked by
    :func:`~repro.serve.events.checked_event`, as for a journal read from
    disk."""
    op = message.get("op")
    if op == "admit":
        kind = ARRIVAL
        cell = message["cell"]
    elif op == "event":
        kind = message.get("kind")
        if kind not in (HANDOFF, COMPLETE, EXIT):
            raise ValueError(f"unknown event kind {kind!r}")
        cell = message.get("cell", -1)
    else:
        return None
    return checked_event(
        kind,
        message.get("t"),
        cell,
        message.get("conn", -1),
        message.get("traffic", "voice"),
    )


def _reply_frame(reply: dict, message) -> bytes:
    """``reply`` as a text frame, echoing the request's ``id`` if any."""
    if isinstance(message, dict) and "id" in message:
        reply["id"] = message["id"]
    return encode_frame(json.dumps(reply, sort_keys=True).encode("utf-8"))


def _error_frame(error: str, message) -> bytes:
    return _reply_frame({"op": "error", "error": error}, message)


#: A decision reply, byte for byte what ``_reply_frame({"op":
#: "decision", **decision.to_json()}, message)`` serialises: the keys in
#: ``sort_keys`` order, ``json.dumps``' separators, and the four value
#: shapes a :class:`~repro.serve.driver.Decision` holds — a bool, ints,
#: an int or ``None``, and finite floats, which ``json`` writes with
#: ``float.__repr__`` like ``%r`` does.  The fourth slot takes the
#: request's ``id`` member when it has one.
_DECISION = (
    '{"admitted": %s, "cell": %d, "conn": %s, %s"kind": "%s",'
    ' "op": "decision", "reserved": %r, "t": %r, "used": %r}'
)


def _decision_frame(decision, message: dict) -> bytes:
    """The reply frame of one decision — formatted, not serialised: no
    dict is built and no encoder constructed per reply."""
    conn = decision.conn
    return encode_frame(
        (
            _DECISION
            % (
                "true" if decision.admitted else "false",
                decision.cell,
                "null" if conn is None else conn,
                '"id": %s, ' % json.dumps(message["id"], sort_keys=True)
                if "id" in message
                else "",
                decision.kind,
                round(decision.reserved, 6),
                round(decision.t, 6),
                round(decision.used, 6),
            )
        ).encode("ascii")
    )


#: The C scanner under ``json.loads``: ``(value, end)`` of the one JSON
#: value that starts at an index.  A request that is exactly one value
#: is parsed by it alone; anything else (whitespace around the value,
#: trailing data, a byte-order mark, no value at index 0) is handed to
#: ``json.loads``, which returns the same object or raises the same
#: error.  A scan that fails inside the value raises what ``json.loads``
#: would: it scans from the same index 0.
_scan_once = json.JSONDecoder().scan_once


#: The reply to a notification that carried no ``id``: always the same.
_OK_FRAME = _reply_frame({"op": "ok"}, None)


_BAD_REQUEST = (
    b"HTTP/1.1 400 Bad Request\r\n"
    b"Content-Type: text/plain\r\n\r\n"
    b"this endpoint speaks WebSocket (RFC 6455) only\n"
)


class _Session(asyncio.BufferedProtocol):
    """One connection: the HTTP upgrade, then the pipelined request
    path, all inside the transport's read callback (see the module
    docstring)."""

    def __init__(self, gateway) -> None:
        self._gateway = gateway
        self._service = gateway.service
        self._dropped_rows = self._service.driver.sim.telemetry.counter(
            "serve.subscriber_dropped_rows"
        )
        #: Where every read of this connection lands.
        self._buffer = memoryview(bytearray(READ_BYTES))
        #: The upgrade request so far; ``None`` once it has been answered.
        self._head: bytearray | None = bytearray()
        self._decoder = FrameDecoder()
        #: Reply frames of the current read, in request order.
        self._out: list[bytes] = []
        #: The current run of stream requests: ``(event, message)``.
        self._run: list[tuple[StreamEvent, dict]] = []
        self._subscribed = False
        self.transport = None

    # -- transport callbacks -------------------------------------------
    def connection_made(self, transport) -> None:
        self.transport = transport
        self._gateway.sessions.add(self)

    def connection_lost(self, error) -> None:
        self._gateway.sessions.discard(self)
        if self._subscribed:
            self._service.broadcast.unsubscribe(self._on_row)

    def pause_writing(self) -> None:
        # The peer is not reading its replies: stop taking its requests.
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._buffer

    def buffer_updated(self, nbytes: int) -> None:
        data = self._buffer[:nbytes]
        if self._head is not None:
            data = self._handshake(data)
            if not data:
                return
        out = self._out
        close = None  # payload of the close frame that ends the session
        try:
            try:
                for opcode, payload in self._decoder.feed(data):
                    if opcode == OP_TEXT:
                        self._on_text(payload)
                    elif opcode == OP_PING:
                        self._settle()
                        out.append(encode_frame(payload, opcode=OP_PONG))
                    elif opcode == OP_CLOSE:
                        close = payload
                        break
            except FrameError as error:
                # Everything before the refused frame is still answered.
                close = error.status.to_bytes(2, "big")
            self._settle()
        except ServiceFailed:
            close = CLOSE_INTERNAL_ERROR.to_bytes(2, "big")
        if close is not None:
            out.append(encode_frame(close, opcode=OP_CLOSE))
        if out:
            self.transport.write(b"".join(out))
            out.clear()
        if close is not None:
            self.transport.close()

    # -- the upgrade ---------------------------------------------------
    def _handshake(self, data) -> bytes | None:
        """Take more of the upgrade request.  Returns the bytes that
        follow it once it is complete and accepted, else ``None``."""
        head = self._head
        head += data
        end = head.find(b"\r\n\r\n", 0, READ_BYTES)
        if end < 0:
            if len(head) >= READ_BYTES:
                self._refuse_upgrade()
            return None
        headers = {}
        for line in head[:end].decode("latin-1").split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if value:
                headers[name.strip().lower()] = value.strip()
        key = headers.get("sec-websocket-key")
        if (
            key is None
            or "websocket" not in headers.get("upgrade", "").lower()
        ):
            self._refuse_upgrade()
            return None
        self.transport.write(
            (
                "HTTP/1.1 101 Switching Protocols\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Accept: {handshake_accept(key)}\r\n\r\n"
            ).encode("ascii")
        )
        self._gateway.connections_served += 1
        self._head = None
        return bytes(head[end + 4 :])

    def _refuse_upgrade(self) -> None:
        self.transport.write(_BAD_REQUEST)
        self.transport.close()

    # -- requests ------------------------------------------------------
    def _on_text(self, payload: bytes) -> None:
        """Take one request.  A stream request joins the run and costs
        one parse and one append; anything else first settles the run,
        so it observes every request sent before it."""
        message = None
        try:
            text = payload.decode("utf-8")
            try:
                value, end = _scan_once(text, 0)
            except StopIteration:  # no JSON value starts at index 0
                end = -1
            message = value if end == len(text) else json.loads(text)
            if not isinstance(message, dict):
                raise ValueError("request must be a JSON object")
            event = _stream_event(message)
        except (
            KeyError, TypeError, ValueError, OverflowError,
            RecursionError,  # the JSON scanner, a few thousand ``[`` deep
        ) as error:
            self._settle()
            self._out.append(_error_frame(str(error), message))
            return
        if event is not None:
            self._run.append((event, message))
            return
        self._settle()
        op = message.get("op")
        if op == "stats":
            reply = {"op": "stats", **self._service.stats()}
            self._out.append(_reply_frame(reply, message))
        elif op == "subscribe":
            self._subscribe()
        else:
            self._out.append(_error_frame(f"unknown op {op!r}", message))

    def _settle(self) -> None:
        """Apply the pending run as one group and queue its replies."""
        run = self._run
        if not run:
            return
        self._run = []
        results = self._service.apply_many([event for event, _ in run])
        out = self._out
        for (_, message), result in zip(run, results):
            if result is None:
                if "id" in message:
                    out.append(_reply_frame({"op": "ok"}, message))
                else:
                    out.append(_OK_FRAME)
            elif isinstance(result, Exception):
                out.append(_error_frame(str(result), message))
            else:
                out.append(_decision_frame(result, message))

    def _subscribe(self) -> None:
        if self._subscribed:
            return
        self._subscribed = True
        broadcast = self._service.broadcast
        out = self._out
        out.extend(
            encode_frame(line.encode("utf-8")) for line in broadcast.backlog
        )
        # Hand over what is queued before the first live row can be
        # written, or that row would overtake the backlog.
        self.transport.write(b"".join(out))
        out.clear()
        broadcast.subscribe(self._on_row)

    def _on_row(self, line: str) -> None:
        # Called on the loop thread, from whichever group made the
        # sampler due: a whole frame per write cannot interleave with
        # the replies.  A subscriber that stopped reading loses rows
        # instead of growing the buffer.
        transport = self.transport
        _low, high = transport.get_write_buffer_limits()
        if transport.get_write_buffer_size() > high:
            self._dropped_rows.inc()
            return
        transport.write(encode_frame(line.encode("utf-8")))


class WebSocketGateway:
    """Serves the admission protocol + state stream over WebSocket."""

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        #: Open connections.
        self.sessions: set[_Session] = set()
        self.connections_served = 0

    async def start(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Session(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        # Every reply was handed to its transport by the read that asked
        # for it; what is still buffered belongs to a peer that stopped
        # reading, and waiting for it would never end.
        for session in list(self.sessions):
            session.transport.abort()
        while self.sessions:  # until each has had its connection_lost()
            await asyncio.sleep(0)
        await self._server.wait_closed()
        self._server = None

    @property
    def url(self) -> str:
        return f"ws://{self.host}:{self.port}/"


# ----------------------------------------------------------------------
# clients
# ----------------------------------------------------------------------
def _client_handshake_bytes(host: str, port: int, path: str, key: str) -> bytes:
    return (
        f"GET {path or '/'} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Upgrade: websocket\r\n"
        "Connection: Upgrade\r\n"
        f"Sec-WebSocket-Key: {key}\r\n"
        "Sec-WebSocket-Version: 13\r\n\r\n"
    ).encode("ascii")


def _check_handshake_response(response: bytes, key: str) -> None:
    status = response.split(b"\r\n", 1)[0].decode("latin-1")
    if "101" not in status:
        raise ConnectionError(f"handshake refused: {status}")
    if handshake_accept(key).encode("ascii") not in response:
        raise ConnectionError("bad Sec-WebSocket-Accept in handshake")


def _parse_ws_url(url: str) -> tuple[str, int, str]:
    parts = urlsplit(url)
    if parts.scheme not in ("ws", "http"):
        raise ValueError(f"expected a ws:// URL, got {url!r}")
    if parts.hostname is None:
        raise ValueError(f"URL {url!r} has no host")
    return parts.hostname, parts.port or 80, parts.path or "/"


class SyncWsClient:
    """Blocking WebSocket client (stdlib socket) — the bundled client.

    ``repro dash ws://host:port`` runs in a different process from the
    service, where blocking reads are the simplest correct thing.
    """

    def __init__(self, url: str, timeout: float | None = 10.0) -> None:
        host, port, path = _parse_ws_url(url)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._decoder = FrameDecoder()
        self._frames: deque[tuple[int, bytes]] = deque()
        self._sock.sendall(_client_handshake_bytes(host, port, path, key))
        response = b""
        while b"\r\n\r\n" not in response:
            chunk = self._sock.recv(4096)
            if not chunk:
                raise ConnectionError("connection closed during handshake")
            response += chunk
        head, _, rest = response.partition(b"\r\n\r\n")
        _check_handshake_response(head, key)
        self._frames.extend(self._decoder.feed(rest))

    def send_json(self, message: dict) -> None:
        payload = json.dumps(message, sort_keys=True).encode("utf-8")
        self._sock.sendall(encode_frame(payload, mask=True))

    def recv_frame(self) -> tuple[int, bytes]:
        """Next frame of any opcode, as ``(opcode, payload)``."""
        while not self._frames:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed mid-frame")
            self._frames.extend(self._decoder.feed(chunk))
        return self._frames.popleft()

    def recv_text(self) -> str | None:
        """Next text frame; answers pings; ``None`` on close."""
        while True:
            opcode, payload = self.recv_frame()
            if opcode == OP_CLOSE:
                return None
            if opcode == OP_PING:
                self._sock.sendall(
                    encode_frame(payload, opcode=OP_PONG, mask=True)
                )
            elif opcode == OP_TEXT:
                return payload.decode("utf-8")

    def recv_json(self) -> dict | None:
        text = self.recv_text()
        return None if text is None else json.loads(text)

    def request(self, message: dict) -> dict | None:
        self.send_json(message)
        return self.recv_json()

    def close(self) -> None:
        try:
            self._sock.sendall(encode_frame(b"", opcode=OP_CLOSE, mask=True))
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "SyncWsClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __iter__(self):
        while True:
            text = self.recv_text()
            if text is None:
                return
            yield text


class AsyncWsClient:
    """Asyncio WebSocket client — in-loop tests against the gateway."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder()
        self._frames: deque[tuple[int, bytes]] = deque()

    @classmethod
    async def connect(cls, url: str) -> "AsyncWsClient":
        host, port, path = _parse_ws_url(url)
        reader, writer = await asyncio.open_connection(host, port)
        key = base64.b64encode(os.urandom(16)).decode("ascii")
        writer.write(_client_handshake_bytes(host, port, path, key))
        await writer.drain()
        response = await reader.readuntil(b"\r\n\r\n")
        _check_handshake_response(response, key)
        return cls(reader, writer)

    async def send_json(self, message: dict) -> None:
        payload = json.dumps(message, sort_keys=True).encode("utf-8")
        self._writer.write(encode_frame(payload, mask=True))
        await self._writer.drain()

    async def recv_frame(self) -> tuple[int, bytes]:
        """Next frame of any opcode, as ``(opcode, payload)``."""
        while not self._frames:
            chunk = await self._reader.read(65536)
            if not chunk:
                raise ConnectionError("connection closed mid-frame")
            self._frames.extend(self._decoder.feed(chunk))
        return self._frames.popleft()

    async def recv_text(self) -> str | None:
        while True:
            opcode, payload = await self.recv_frame()
            if opcode == OP_CLOSE:
                return None
            if opcode == OP_PING:
                self._writer.write(
                    encode_frame(payload, opcode=OP_PONG, mask=True)
                )
                await self._writer.drain()
            elif opcode == OP_TEXT:
                return payload.decode("utf-8")

    async def recv_json(self) -> dict | None:
        text = await self.recv_text()
        return None if text is None else json.loads(text)

    async def request(self, message: dict) -> dict | None:
        await self.send_json(message)
        return await self.recv_json()

    async def close(self) -> None:
        self._writer.write(encode_frame(b"", opcode=OP_CLOSE, mask=True))
        try:
            await self._writer.drain()
        except ConnectionError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
