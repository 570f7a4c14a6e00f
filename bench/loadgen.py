"""Single-connection WebSocket replay: open-loop schedule and saturation.

One connection on purpose: the gateway answers a connection's requests
strictly in order, so reply ``i`` belongs to request ``i`` and every
reply can be compared with the decision the DES run recorded.

Everything a request needs is prepared before timing starts (frames are
pre-encoded and masked); while timing, the loop only writes bytes,
splits reply frames at their length headers and notes the clock.
Replies are decoded afterwards.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import select
import socket
import sys
from pathlib import Path
from time import perf_counter

if __package__ in (None, ""):  # run as the traced run's client process
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from repro.serve.events import ARRIVAL, COMPLETE, EXIT, HANDOFF
from repro.serve.ws import encode_frame, handshake_accept

#: Seconds without any reply before a replay is abandoned (its missing
#: replies then count as failed operations).
STALL_TIMEOUT = 20.0

#: The latency limit of the serving path, in milliseconds.
LATENCY_LIMIT_MS = 10.0


def request_payload(event) -> dict:
    """The gateway request that carries one recorded stream event."""
    if event.kind == ARRIVAL:
        return {
            "op": "admit",
            "cell": event.cell,
            "traffic": event.traffic,
            "t": event.t,
            "conn": event.conn,
        }
    payload = {"op": "event", "kind": event.kind, "conn": event.conn, "t": event.t}
    if event.kind == HANDOFF:
        payload["cell"] = event.cell
    return payload


def encode_requests(events) -> list[bytes]:
    """Masked client frames, one per event (set-up work, never timed)."""
    return [
        encode_frame(
            json.dumps(request_payload(event), sort_keys=True).encode("utf-8"),
            mask=True,
        )
        for event in events
    ]


def connect(port: int, host: str = "127.0.0.1") -> socket.socket:
    """Open one WebSocket connection and finish the RFC 6455 handshake."""
    key = base64.b64encode(os.urandom(16)).decode("ascii")
    sock = socket.create_connection((host, port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.sendall(
        (
            f"GET / HTTP/1.1\r\nHost: {host}:{port}\r\n"
            "Upgrade: websocket\r\nConnection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\nSec-WebSocket-Version: 13\r\n\r\n"
        ).encode("ascii")
    )
    response = b""
    while b"\r\n\r\n" not in response:
        chunk = sock.recv(4096)
        if not chunk:
            raise ConnectionError("gateway closed during the handshake")
        response += chunk
    head, _, rest = response.partition(b"\r\n\r\n")
    if b"101" not in head.split(b"\r\n", 1)[0]:
        raise ConnectionError(f"handshake refused: {head[:80]!r}")
    if handshake_accept(key).encode("ascii") not in head:
        raise ConnectionError("bad Sec-WebSocket-Accept in handshake")
    if rest:
        raise ConnectionError("gateway spoke before the first request")
    return sock


class _ReplyReader:
    """Splits the inbound byte stream into (unmasked) server frames."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.payloads: list[bytes] = []
        self.times: list[float] = []

    def feed(self, data: bytes, now: float) -> None:
        buffer = self._buffer
        buffer += data
        offset = 0
        size = len(buffer)
        while size - offset >= 2:
            length = buffer[offset + 1] & 0x7F
            header = 2
            if length == 126:
                if size - offset < 4:
                    break
                length = int.from_bytes(buffer[offset + 2 : offset + 4], "big")
                header = 4
            elif length == 127:
                if size - offset < 10:
                    break
                length = int.from_bytes(buffer[offset + 2 : offset + 10], "big")
                header = 10
            end = offset + header + length
            if end > size:
                break
            self.payloads.append(bytes(buffer[offset + header : end]))
            self.times.append(now)
            offset = end
        if offset:
            del buffer[:offset]


def open_loop(sock: socket.socket, frames: list[bytes], due: list[float]) -> dict:
    """Send ``frames[i]`` at ``start + due[i]`` whatever the replies do.

    Returns the raw timeline: ``due`` (absolute), ``sent`` and the
    reader with reply payloads and arrival times.  A slow service does
    not slow the schedule down; a starved sender shows as lateness
    (``sent - due``), and latency is always taken from ``due``.
    """
    total = len(frames)
    reader = _ReplyReader()
    sent_at = [0.0] * total
    # The socket stays blocking: a frame is ~100 bytes and replies are
    # drained between any two sends, so neither side's buffer can fill
    # and a receive after select() reported data returns at once.
    sock.setblocking(True)
    start = perf_counter() + 0.05
    sent = 0
    last_progress = start
    while len(reader.payloads) < total:
        now = perf_counter()
        if sent < total and start + due[sent] <= now:
            sent_at[sent] = now
            sock.sendall(frames[sent])
            sent += 1
            wait = 0.0
        elif sent < total:
            wait = start + due[sent] - now
        else:
            wait = 0.25
        readable, _, _ = select.select([sock], [], [], wait)
        if readable:
            data = sock.recv(1 << 16)
            now = perf_counter()
            if not data:
                break
            reader.feed(data, now)
            last_progress = now
        elif now - max(last_progress, start) > STALL_TIMEOUT:
            break
    return {
        "due": [start + offset for offset in due],
        "sent": sent_at,
        "reader": reader,
    }


def saturate(sock: socket.socket, frames: list[bytes]) -> dict:
    """Send every frame back-to-back; time first byte out to last reply in."""
    total = len(frames)
    blob = memoryview(b"".join(frames))
    reader = _ReplyReader()
    sock.setblocking(False)
    offset = 0
    started = perf_counter()
    last_progress = started
    try:
        while len(reader.payloads) < total:
            writers = [sock] if offset < len(blob) else []
            readable, writable, _ = select.select([sock], writers, [], 0.25)
            now = perf_counter()
            if readable:
                try:
                    data = sock.recv(1 << 16)
                except BlockingIOError:
                    data = None
                now = perf_counter()
                if data == b"":
                    break
                if data:
                    reader.feed(data, now)
                    last_progress = now
            if writable:
                try:
                    offset += sock.send(blob[offset : offset + (1 << 16)])
                    last_progress = now
                except BlockingIOError:
                    pass
            if now - last_progress > STALL_TIMEOUT:
                break
    finally:
        sock.setblocking(True)
    finished = reader.times[-1] if reader.times else perf_counter()
    return {"elapsed": finished - started, "reader": reader}


def check_replies(events, payloads: list[bytes]) -> int:
    """How many events got a missing, error or mismatching reply.

    Events carry their recorded timestamp, so the service must repeat
    the DES run's decision whatever the wall clock did.
    """
    failed = len(events) - min(len(events), len(payloads))
    for event, payload in zip(events, payloads):
        try:
            reply = json.loads(payload)
        except ValueError:
            failed += 1
            continue
        if event.kind in (COMPLETE, EXIT):
            ok = reply.get("op") == "ok"
        else:
            ok = (
                reply.get("op") == "decision"
                and reply.get("kind") == event.kind
                and reply.get("cell") == event.cell
                and reply.get("admitted") == event.admitted
            )
        if not ok:
            failed += 1
    return failed


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    if not ordered:
        return float("nan")
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def compress_schedule(events, rate: float) -> list[float]:
    """Due offsets: the recorded gaps, uniformly compressed to ``rate``.

    Uniform compression keeps the Poisson burstiness of the recording;
    only the mean rate is fixed.
    """
    first = events[0].t
    span = events[-1].t - first
    scale = (len(events) - 1) / rate / span if span > 0 else 0.0
    return [(event.t - first) * scale for event in events]


def latency_report(timeline: dict, offered_rate: float) -> dict:
    """Latency from due time, plus how well the generator kept its schedule."""
    due = timeline["due"]
    sent = timeline["sent"]
    times = timeline["reader"].times
    answered = len(times)
    latencies = sorted((times[i] - due[i]) * 1000.0 for i in range(answered))
    lateness = sorted((sent[i] - due[i]) * 1000.0 for i in range(answered))
    span = sent[answered - 1] - sent[0] if answered > 1 else 0.0
    achieved = (answered - 1) / span if span > 0 else 0.0
    return {
        "latencies_ms": latencies,
        "lateness_ms": lateness,
        "p50_ms": percentile(latencies, 0.50),
        "p90_ms": percentile(latencies, 0.90),
        "achieved_over_offered": achieved / offered_rate if offered_rate else 0.0,
    }


def replay_client() -> None:
    """Saturation client of a traced run, as a process of its own so its
    work does not land inside the server's spans.  Pickles over
    stdin/stdout: frames in, ``"ready"`` out (imports done, the parent may
    start its root span), port in, ``(payloads, elapsed)`` out."""
    source, sink = sys.stdin.buffer, sys.stdout.buffer
    frames = pickle.load(source)
    pickle.dump("ready", sink)
    sink.flush()
    sock = connect(pickle.load(source))
    try:
        outcome = saturate(sock, frames)
    finally:
        sock.close()
    pickle.dump((outcome["reader"].payloads, outcome["elapsed"]), sink)
    sink.flush()


if __name__ == "__main__":
    replay_client()
