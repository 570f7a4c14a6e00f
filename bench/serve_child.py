"""The served side of ``serve_static_ws``: a fresh process per benchmark run.

Built from the public :class:`AdmissionService` and
:class:`WebSocketGateway` with ``repro serve``'s defaults (wall clock,
5 ms budget, 1 Hz wall-cadence series).  The benchmark process drives
it over stdin/stdout, one line each way:

* ``new``  -> tear down the current service (if any), start a fresh one
  on a free port, answer ``{"port": N}``;
* anything else, or end of input -> stop and exit.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from repro.serve import AdmissionService, WallClock
from repro.serve.ws import WebSocketGateway

from bench.workloads import serve_config


async def serve(config) -> None:
    loop = asyncio.get_running_loop()
    service = None
    gateway = None

    async def teardown() -> None:
        if gateway is not None:
            await gateway.stop()
        if service is not None:
            await service.stop()

    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if line.strip() != "new":
                break
            await teardown()
            service = AdmissionService(
                config, clock=WallClock(), budget_ms=5.0, series_wall_interval=1.0
            )
            await service.start()
            gateway = WebSocketGateway(service, port=0)
            await gateway.start()
            sys.stdout.write(json.dumps({"port": gateway.port}) + "\n")
            sys.stdout.flush()
    finally:
        await teardown()


def main(argv: list[str]) -> int:
    seed, scale = int(argv[0]), argv[1]
    asyncio.run(serve(serve_config(seed, scale)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
