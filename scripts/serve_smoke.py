"""CI smoke for the live admission service.

Starts an :class:`AdmissionService` with its WebSocket gateway and,
while a WebSocket subscriber listens, asserts:

* the decision API answers (an ``admit`` round-trip over the socket
  returns a decision frame carrying the reserved/used snapshot);
* a pipelined burst — 200 frames in one write, a malformed one in the
  middle and an ``admit`` re-using a live ``conn`` id after it — gets
  200 replies in request order, both bad ones an ``error`` (the
  duplicate attaching nothing), and leaves the connection open; in the
  same burst an ``admit`` padded with whitespace gets its decision and
  one followed by trailing data gets ``json.loads``' own ``Extra data``
  error (both take the parser's fallback past the bare scan);
* a fractional ``cell`` is refused with an ``error`` reply (not
  truncated into a neighbouring cell), and a binary frame closes the
  connection with status 1003 after the request before it is answered;
* the state stream produces a well-formed frame — it must parse as a
  JSON series row with the fields ``repro dash`` renders;
* while one connection's 5 000-frame burst is being worked off, a
  second connection's single ``admit`` is answered before the burst's
  last reply (a read is a group; the loop gets a turn between groups);
* the service counted exactly the decisions those requests asked for;
* shutdown is clean (connections closed, no stray tasks);
* the journal ``repro run --trace-jsonl`` writes is the wire format
  ``repro serve`` takes: replayed stamped over one WebSocket into a
  fresh wall-clock service of the same scenario, every reply repeats
  the recorded decision.

Run from the repository root:  PYTHONPATH=src python scripts/serve_smoke.py
"""

import asyncio
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.cli import _build_config, build_parser
from repro.serve import AdmissionService, WallClock
from repro.serve.events import ARRIVAL, HANDOFF, read_events
from repro.serve.ws import (
    OP_BINARY,
    OP_CLOSE,
    AsyncWsClient,
    WebSocketGateway,
    encode_frame,
)
from repro.simulation.scenarios import stationary

BURST = 200
FAIRNESS_BURST = 5000
#: The short ring whose CLI journal is replayed over the socket.
JOURNAL_RUN = [
    "run", "--scheme", "static", "--load", "150", "--duration", "300",
    "--cells", "6", "--seed", "5",
]


async def main() -> int:
    config = stationary(
        "AC3", offered_load=100.0, duration=3600.0, seed=5, num_cells=6
    )
    service = AdmissionService(config, series_wall_interval=0.05)
    await service.start()
    gateway = WebSocketGateway(service, port=0)
    await gateway.start()
    print(f"serve smoke: service up on {gateway.url}")

    subscriber = await AsyncWsClient.connect(gateway.url)
    await subscriber.send_json({"op": "subscribe"})

    client = await AsyncWsClient.connect(gateway.url)
    decision = await client.request({"op": "admit", "cell": 2, "id": 7})
    assert decision is not None and decision["op"] == "decision", decision
    assert decision["id"] == 7 and decision["kind"] == "arrival", decision
    for field in ("t", "cell", "admitted", "reserved", "used"):
        assert field in decision, f"decision frame missing {field!r}"
    print(f"serve smoke: decision round-trip ok ({decision['cell']=})")

    frames = [
        encode_frame(
            json.dumps({"op": "admit", "cell": index % 6, "id": index}).encode(),
            mask=True,
        )
        for index in range(BURST)
    ]
    frames[BURST // 2] = encode_frame(b"{not json", mask=True)
    padded, trailing = BURST // 4, BURST // 4 + 1
    frames[padded] = encode_frame(
        b' \t{"op": "admit", "cell": 1, "id": %d}\r\n' % padded, mask=True
    )
    trailing_text = '{"op": "admit", "cell": 1, "id": %d} x' % trailing
    frames[trailing] = encode_frame(trailing_text.encode(), mask=True)
    try:
        json.loads(trailing_text)
    except ValueError as error:
        extra_data = str(error)
    assert extra_data.startswith("Extra data"), extra_data
    # Two admits filed under one connection id: the second is refused.
    for index in (BURST - 2, BURST - 1):
        frames[index] = encode_frame(
            json.dumps({"op": "admit", "cell": 3, "conn": 9000, "id": index}).encode(),
            mask=True,
        )
    client._writer.write(b"".join(frames))
    replies = [
        await asyncio.wait_for(client.recv_json(), timeout=5.0)
        for _ in range(BURST)
    ]
    duplicate = replies.pop(BURST - 1)
    assert duplicate["op"] == "error" and duplicate["id"] == BURST - 1, duplicate
    assert "connection id 9000 is in use" in duplicate["error"], duplicate
    bad = replies.pop(BURST // 2)
    assert bad["op"] == "error" and "id" not in bad, bad
    extra = replies.pop(trailing)
    assert extra == {"op": "error", "error": extra_data}, extra
    assert replies[padded]["id"] == padded, replies[padded]
    assert [reply["id"] for reply in replies] == [
        index
        for index in range(BURST - 1)
        if index not in (BURST // 2, trailing)
    ], "pipelined replies out of request order"
    assert all(reply["op"] == "decision" for reply in replies)
    stats = await client.request({"op": "stats"})
    # The round trip above plus the burst's BURST - 3 well-formed frames.
    assert stats["op"] == "stats" and stats["decisions"] == BURST - 2, stats
    # The refused duplicate attached nothing: every live connection is
    # still reachable by a stream id.
    assert stats["active_connections"] == len(
        service.driver.sim.active_connections
    ), stats
    print(
        f"serve smoke: {BURST}-frame burst answered in order, 3 error frames"
        " (padded admit decided, trailing data refused as json.loads does)"
    )

    refused = await client.request({"op": "admit", "cell": 1.9, "id": "frac"})
    assert refused["op"] == "error" and refused["id"] == "frac", refused
    assert "cell must be an integer" in refused["error"], refused
    stats = await client.request({"op": "stats"})
    assert stats["decisions"] == BURST - 2, "a refused request was counted"
    print("serve smoke: fractional cell refused with an error reply")

    binary = await AsyncWsClient.connect(gateway.url)
    binary._writer.write(
        encode_frame(b'{"op": "admit", "cell": 1, "id": "pre"}', mask=True)
        + encode_frame(b'{"op": "admit", "cell": 1}', opcode=OP_BINARY, mask=True)
    )
    answered = await asyncio.wait_for(binary.recv_json(), timeout=5.0)
    assert answered["op"] == "decision" and answered["id"] == "pre", answered
    opcode, payload = await asyncio.wait_for(binary.recv_frame(), timeout=5.0)
    assert opcode == OP_CLOSE and int.from_bytes(payload, "big") == 1003, (
        opcode, payload
    )
    binary._writer.close()
    print("serve smoke: binary frame closed with 1003 after answering")

    # A series row is taken when a group is applied after the 0.05 s
    # wall cadence has passed; everything above can finish inside one
    # cadence, so wait it out and apply one more group.
    await asyncio.sleep(0.06)
    await client.request({"op": "admit", "cell": 0})
    row = await asyncio.wait_for(subscriber.recv_json(), timeout=5.0)
    assert isinstance(row, dict) and "op" not in row, row
    for field in ("t", "events", "events_per_s", "heap"):
        assert field in row, f"series frame missing {field!r}: {row}"
    print(
        f"serve smoke: series frame ok"
        f" (t={row['t']}, events={row['events']})"
    )

    other = await AsyncWsClient.connect(gateway.url)
    before = service.stats()["decisions"]
    client._writer.write(
        encode_frame(b'{"op": "admit", "cell": 4}', mask=True) * FAIRNESS_BURST
    )
    answered = await asyncio.wait_for(
        other.request({"op": "admit", "cell": 5, "id": "other"}), timeout=10.0
    )
    assert answered["op"] == "decision" and answered["id"] == "other", answered
    behind = before + FAIRNESS_BURST + 1 - service.stats()["decisions"]
    assert behind > 0, "the second connection waited for the whole burst"
    for _ in range(FAIRNESS_BURST):
        reply = await asyncio.wait_for(client.recv_json(), timeout=10.0)
        assert reply["op"] == "decision", reply
    await other.close()
    print(
        f"serve smoke: second connection answered with {behind} of the"
        f" first's {FAIRNESS_BURST}-frame burst still to apply"
    )

    stats = await client.request({"op": "stats"})
    assert stats["op"] == "stats", stats
    # The round trip, the burst's BURST - 3 well-formed admits, the one
    # answered before the binary frame, the one that takes the series
    # row, and the fairness burst with the second connection's admit.
    assert stats["decisions"] == BURST + FAIRNESS_BURST + 1, stats

    await client.close()
    await subscriber.close()
    await gateway.stop()
    await service.stop()
    assert not gateway.sessions, "connections left open at shutdown"
    pending = [
        task
        for task in asyncio.all_tasks()
        if task is not asyncio.current_task() and not task.done()
    ]
    assert not pending, f"stray tasks after shutdown: {pending}"
    print("serve smoke: clean shutdown OK")

    with tempfile.TemporaryDirectory() as tmp:
        await replay_cli_journal(Path(tmp) / "journal.jsonl")
    return 0


def _request(event) -> dict:
    """The gateway request that carries one journal event, stamped."""
    if event.kind == ARRIVAL:
        return {
            "op": "admit", "cell": event.cell, "conn": event.conn,
            "traffic": event.traffic, "t": event.t,
        }
    return {
        "op": "event", "kind": event.kind, "cell": event.cell,
        "conn": event.conn, "t": event.t,
    }


async def replay_cli_journal(journal: Path) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro", *JOURNAL_RUN,
         "--trace-jsonl", str(journal)],
        check=True, capture_output=True,
    )
    with journal.open(encoding="utf-8") as handle:
        events = read_events(handle)
    config = _build_config(build_parser().parse_args(JOURNAL_RUN))
    service = AdmissionService(config, clock=WallClock())
    await service.start()
    gateway = WebSocketGateway(service, port=0)
    await gateway.start()
    client = await AsyncWsClient.connect(gateway.url)
    client._writer.write(
        b"".join(
            encode_frame(json.dumps(_request(event)).encode(), mask=True)
            for event in events
        )
    )
    decisions = 0
    for index, event in enumerate(events):
        reply = await asyncio.wait_for(client.recv_json(), timeout=10.0)
        if event.kind in (ARRIVAL, HANDOFF):
            assert reply["op"] == "decision", (index, event, reply)
            assert reply["admitted"] == event.admitted, (index, event, reply)
            decisions += 1
        else:
            assert reply["op"] == "ok", (index, event, reply)
    await client.close()
    await gateway.stop()
    await service.stop()
    print(
        f"serve smoke: CLI journal of {len(events)} events replayed over"
        f" the socket, all {decisions} decisions as recorded"
    )


if __name__ == "__main__":
    sys.exit(asyncio.run(main()))
