#!/usr/bin/env python
"""Admission-control signaling latency on a star backbone (Figure 1a).

The paper counts B_r calculations (Figure 13) as its complexity metric;
this example takes the next step and asks what that costs in *latency*
when every inter-BS exchange transits a single MSC (the star layout):
the MSC's signaling processor is modelled as an M/M/c queue, written as
plain :class:`~repro.des.Engine` callbacks (a free-server count and a
FIFO of waiting messages), and fed with the per-scheme message rates
measured by the cellular simulator.
"""

from collections import deque

from repro.des import Engine, RandomStreams
from repro.simulation import CellularSimulator, stationary

#: MSC processing time per signaling message (ms) and server count.
SERVICE_MS = 4.0
SERVERS = 2


def measure_message_rate(scheme: str) -> float:
    """Messages/second generated by a busy 10-cell system."""
    config = stationary(scheme, offered_load=250.0, duration=400.0, seed=2)
    simulator = CellularSimulator(config)
    simulator.run()
    return simulator.network.total_messages() / config.duration


def msc_queue_latency(rate_per_s: float, horizon_s: float = 400.0) -> float:
    """Mean sojourn (ms) of messages through the MSC processor."""
    engine = Engine()
    streams = RandomStreams(seed=7)
    arrivals = streams.get("arrivals")
    service = streams.get("service")
    free = SERVERS
    waiting: deque[float] = deque()
    latencies = []

    def serve(arrived: float) -> None:
        engine.call_in(
            service.expovariate(1000.0 / SERVICE_MS), depart, arrived
        )

    def depart(arrived: float) -> None:
        nonlocal free
        latencies.append((engine.now - arrived) * 1000.0)
        if waiting:
            serve(waiting.popleft())  # the server passes straight on
        else:
            free += 1

    def arrive() -> None:
        nonlocal free
        if free:
            free -= 1
            serve(engine.now)
        else:
            waiting.append(engine.now)
        if engine.now < horizon_s:
            engine.call_in(arrivals.expovariate(rate_per_s), arrive)

    engine.call_in(arrivals.expovariate(rate_per_s), arrive)
    engine.run(until=horizon_s + 1.0)
    return sum(latencies) / len(latencies) if latencies else 0.0


def main() -> None:
    print(
        f"MSC signaling processor: {SERVERS} servers, "
        f"{SERVICE_MS:g} ms/message\n"
    )
    print(f"{'scheme':<7} {'msgs/s':>8} {'MSC load':>9} {'mean latency':>13}")
    for scheme in ("AC1", "AC3", "AC2"):
        rate = measure_message_rate(scheme)
        utilization = rate * (SERVICE_MS / 1000.0) / SERVERS
        latency = msc_queue_latency(rate)
        print(
            f"{scheme:<7} {rate:>8.1f} {utilization:>8.0%} "
            f"{latency:>11.2f}ms"
        )
    print(
        "\nAC2's three B_r calculations per request triple the message"
        "\nrate; on a shared MSC that queues up as real setup latency."
        "\nAC3 stays near AC1 until cells saturate — the Figure 13 story"
        "\ntranslated into milliseconds."
    )


if __name__ == "__main__":
    main()
