"""CI smoke for the live admission service.

Starts an :class:`AdmissionService` with its WebSocket gateway, drives
500 decisions through the bundled load generator while a WebSocket
subscriber listens, then asserts:

* the decision API answers (an ``admit`` round-trip over the socket
  returns a decision frame carrying the reserved/used snapshot);
* a pipelined burst — 200 frames in one write, a malformed one in the
  middle and an ``admit`` re-using a live ``conn`` id after it — gets
  200 replies in request order, both bad ones an ``error`` (the
  duplicate attaching nothing), and leaves the connection open;
* a fractional ``cell`` is refused with an ``error`` reply (not
  truncated into a neighbouring cell), and a binary frame closes the
  connection with status 1003 after the request before it is answered;
* the state stream produces a well-formed frame — it must parse as a
  JSON series row with the fields ``repro dash`` renders;
* while one connection's 5 000-frame burst is being worked off, a
  second connection's single ``admit`` is answered before the burst's
  last reply (a read is a group; the loop gets a turn between groups);
* shutdown is clean (connections closed, no stray tasks).

Run from the repository root:  PYTHONPATH=src python scripts/serve_smoke.py
"""

import asyncio
import json
import sys

from repro.serve import AdmissionService
from repro.serve.loadgen import run_load
from repro.serve.ws import (
    OP_BINARY,
    OP_CLOSE,
    AsyncWsClient,
    WebSocketGateway,
    encode_frame,
)
from repro.simulation.scenarios import stationary

DECISIONS = 500
BURST = 200
FAIRNESS_BURST = 5000


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
    assert [reply["id"] for reply in replies] == [
        index for index in range(BURST - 1) if index != BURST // 2
    ], "pipelined replies out of request order"
    assert all(reply["op"] == "decision" for reply in replies)
    stats = await client.request({"op": "stats"})
    # The round trip above plus the burst's BURST - 2 well-formed frames.
    assert stats["op"] == "stats" and stats["decisions"] == BURST - 1, stats
    # The refused duplicate attached nothing: every live connection is
    # still reachable by a stream id.
    assert stats["active_connections"] == len(
        service.driver.sim.active_connections
    ), stats
    print(f"serve smoke: {BURST}-frame burst answered in order, 2 error frames")

    refused = await client.request({"op": "admit", "cell": 1.9, "id": "frac"})
    assert refused["op"] == "error" and refused["id"] == "frac", refused
    assert "cell must be an integer" in refused["error"], refused
    stats = await client.request({"op": "stats"})
    assert stats["decisions"] == BURST - 1, "a refused request was counted"
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

    report = await run_load(
        service, decisions=DECISIONS, concurrency=8, pipeline=16
    )
    assert report.decisions >= DECISIONS, report
    print(
        f"serve smoke: {report.decisions} decisions at"
        f" {report.decisions_per_s:,.0f}/s"
        f" (P50 {report.p50_ms:.2f} ms, P99 {report.p99_ms:.2f} ms)"
    )

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
    assert stats["decisions"] > DECISIONS + FAIRNESS_BURST, stats

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
    return 0


if __name__ == "__main__":
    sys.exit(asyncio.run(main()))
