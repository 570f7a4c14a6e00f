"""Unit tests for the :class:`AdmissionService` façade."""

import asyncio
import json
from collections import Counter
from dataclasses import replace

import pytest

from repro.obs.telemetry import Histogram
from repro.serve import AdmissionService, ServiceFailed, warm_start
from repro.serve.clock import VirtualClock
from repro.serve.driver import Decision
from repro.serve.events import ARRIVAL, COMPLETE, HANDOFF, StreamEvent
from repro.serve.service import LATENCY_BUCKETS_MS
from repro.simulation.scenarios import stationary
from repro.state import inspect_state


def _config(**overrides):
    defaults = dict(
        offered_load=120.0, duration=3600.0, seed=9, num_cells=6
    )
    defaults.update(overrides)
    scheme = defaults.pop("scheme", "AC3")
    return stationary(scheme, **defaults)


async def _with_service(body, config=None, **service_kwargs):
    service = AdmissionService(config or _config(), **service_kwargs)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.stop()


def test_constructor_validates_budget():
    with pytest.raises(ValueError, match="budget_ms"):
        AdmissionService(_config(), budget_ms=0.0)


def test_submit_requires_a_running_service():
    service = AdmissionService(_config())

    async def scenario():
        with pytest.raises(RuntimeError, match="not running"):
            await service.admit(cell=0)
        await service.start()
        with pytest.raises(RuntimeError, match="already started"):
            await service.start()
        await service.stop()
        await service.stop()  # idempotent

    asyncio.run(scenario())


def test_admit_round_trip_returns_a_decision():
    async def body(service):
        decision = await service.admit(cell=2, traffic="voice")
        assert isinstance(decision, Decision)
        assert decision.kind == ARRIVAL
        assert decision.cell == 2
        assert decision.admitted  # an empty cell always has room
        assert decision.conn is not None
        assert decision.used > 0
        return decision

    asyncio.run(_with_service(body))


def test_submit_rejects_malformed_events():
    async def body(service):
        with pytest.raises(ValueError, match="no such cell"):
            await service.submit(
                StreamEvent(t=None, kind=ARRIVAL, cell=99)
            )
        with pytest.raises(ValueError, match="unknown traffic class"):
            await service.admit(cell=0, traffic="hologram")

    asyncio.run(_with_service(body))


def test_submit_many_aligns_results_with_events():
    async def body(service):
        batch = (
            StreamEvent(t=None, kind=ARRIVAL, cell=0),
            StreamEvent(t=None, kind=ARRIVAL, cell=99),  # malformed
            StreamEvent(t=None, kind=COMPLETE, conn=123456),  # notification
            StreamEvent(t=None, kind=ARRIVAL, cell=1),
        )
        results = await service.submit_many(batch)
        assert len(results) == len(batch)
        assert isinstance(results[0], Decision) and results[0].cell == 0
        # The malformed slot carries the error in place; the valid rest
        # of the group was still applied.
        assert isinstance(results[1], ValueError)
        assert results[2] is None
        assert isinstance(results[3], Decision) and results[3].cell == 1
        assert service.driver.ignored == 1  # the unknown-conn complete

    asyncio.run(_with_service(body))


def test_every_worker_decides_at_least_once():
    # Nothing in a group's application suspends, so the one yield in
    # ``submit_many`` is what hands the loop to the next worker: without
    # it the first worker would make all forty decisions.
    async def body(service):
        decided = Counter()

        async def worker(cell):
            while sum(decided.values()) < 40:
                results = await service.submit_many(
                    [StreamEvent(t=None, kind=ARRIVAL, cell=cell)]
                )
                decided[cell] += sum(
                    isinstance(result, Decision) for result in results
                )

        await asyncio.gather(*(worker(cell) for cell in range(4)))
        return decided

    decided = asyncio.run(_with_service(body))
    assert len(decided) == 4
    assert min(decided.values()) >= 1


def test_stats_counts_decisions_and_percentiles():
    async def body(service):
        for cell in range(4):
            await service.admit(cell=cell)
        stats = service.stats()
        assert stats["decisions"] == 4
        assert stats["decisions_per_s"] > 0
        assert 0 <= stats["p50_ms"] <= stats["p99_ms"]
        assert stats["active_connections"] == 4
        assert stats["checkpoints"] == 0

    asyncio.run(_with_service(body))


def test_budget_misses_are_observed_not_enforced():
    async def body(service):
        decision = await service.admit(cell=0)
        assert decision.admitted  # late answers still answer

    # Any real decision overshoots a 1-nanosecond budget.
    asyncio.run(_with_service(body, budget_ms=1e-6))


@pytest.mark.parametrize("budget_ms", [1e-6, 1e6])  # every group late / none
def test_group_accounting_equals_per_decision_accounting(budget_ms):
    """One latency per ``submit_many`` group, so the service accounts
    per group; the instruments must read as if every decision had been
    counted on its own."""

    async def body(service):
        groups = [
            # 24 arrivals into 6 cells of 100 BU: voice fits, so all admit.
            [StreamEvent(t=None, kind=ARRIVAL, cell=i % 6, conn=i) for i in range(24)],
            # Decisions of both kinds and outcomes (video until cell 0 is
            # full), an exception slot, and notifications that decide nothing.
            [StreamEvent(t=None, kind=ARRIVAL, cell=0, traffic="video", conn=100 + i)
             for i in range(30)]
            + [
                StreamEvent(t=None, kind=ARRIVAL, cell=99),
                StreamEvent(t=None, kind=HANDOFF, cell=0, conn=1),  # full: dropped
                StreamEvent(t=None, kind=HANDOFF, cell=1, conn=0),
                StreamEvent(t=None, kind=COMPLETE, conn=2),
                StreamEvent(t=None, kind=COMPLETE, conn=424242),
            ],
            # Nothing decided: the instruments must not move at all.
            [StreamEvent(t=None, kind=COMPLETE, conn=3),
             StreamEvent(t=None, kind=ARRIVAL, cell=-1)],
        ]
        telemetry = service.driver.sim.telemetry
        reference = Histogram(LATENCY_BUCKETS_MS)
        labels = Counter()
        latencies = []
        for group in groups:
            before = len(service._latencies)
            results = await service.submit_many(group)
            decided = [r for r in results if isinstance(r, Decision)]
            group_latencies = list(service._latencies)[before:]
            assert len(group_latencies) == len(decided)
            assert len(set(group_latencies)) <= 1  # one latency per group
            # The per-decision reference: one observe, one inc, each.
            for decision, latency_ms in zip(decided, group_latencies):
                reference.observe(latency_ms)
                latencies.append(latency_ms)
                outcome = "accepted" if decision.admitted else "rejected"
                labels[decision.kind, outcome] += 1
        assert sum(labels.values()) == 24 + 30 + 2
        assert len(labels) == 4, labels  # both kinds, both outcomes

        hist = telemetry.histogram(
            "serve.decision_latency_ms", buckets=LATENCY_BUCKETS_MS
        )
        assert hist.count == reference.count == len(latencies)
        assert hist.counts == reference.counts
        assert hist.sum == pytest.approx(reference.sum, rel=1e-12)
        for (kind, outcome), count in labels.items():
            counter = telemetry.counter(
                "serve.decisions", kind=kind, outcome=outcome
            )
            assert counter.value == count
        late = sum(latency > budget_ms for latency in latencies)
        assert late in (0, len(latencies))
        assert telemetry.counter("serve.budget_miss").value == late
        stats = service.stats()
        ranked = sorted(latencies)
        assert stats["decisions"] == len(latencies)
        assert stats["p50_ms"] == round(ranked[int(0.50 * (len(ranked) - 1))], 4)
        assert stats["p99_ms"] == round(ranked[int(0.99 * (len(ranked) - 1))], 4)

    asyncio.run(
        _with_service(body, _config(telemetry=True), budget_ms=budget_ms)
    )


def test_periodic_checkpoints_write_and_prune(tmp_path):
    state_dir = tmp_path / "serve-state"

    async def body(service):
        for round_ in range(4):
            await service.admit(cell=round_ % 3)
            await asyncio.sleep(0.002)
        return service.checkpoints_written

    written = asyncio.run(
        _with_service(
            body,
            checkpoint_every=0.001,
            checkpoint_dir=state_dir,
            checkpoint_keep=2,
        )
    )
    assert written >= 2
    kept = sorted(state_dir.glob("serve_*"))
    assert 1 <= len(kept) <= 2
    # The newest checkpoint is the one retained.
    assert kept[-1].name == f"serve_{written - 1:06d}"
    # Each is an ordinary state directory whose whole queue is the
    # simulator's own next monitor sample.
    assert inspect_state(kept[-1], out=lambda _line: None) == 0
    runtime = json.loads((kept[-1] / "runtime.json").read_text())
    assert [record["kind"] for record in runtime["queue"]] == ["sample"]


def test_warm_start_resumes_from_a_service_checkpoint(tmp_path):
    state = tmp_path / "checkpoint"

    async def first(service):
        for cell in range(3):
            await service.admit(cell=cell)
        service.driver.save_state(state)
        # Saving parks nothing: the heap still holds exactly the next
        # monitor sample, and the monitor keeps sampling on its cadence
        # afterwards.
        engine = service.driver.engine
        assert engine.pending == 1
        metrics = service.driver.metrics
        before = metrics._samples
        interval = service.config.sample_interval
        ahead = engine.now + 3 * interval
        await service.admit(cell=0, t=ahead)
        cells = service.config.num_cells
        assert metrics._samples - before in (3 * cells, 4 * cells)

    asyncio.run(_with_service(first))
    assert inspect_state(state, out=lambda _line: None) == 0
    runtime = json.loads((state / "runtime.json").read_text())
    assert [record["kind"] for record in runtime["queue"]] == ["sample"]

    config = replace(_config(), warm_state=warm_start(state))

    async def second(service):
        decision = await service.admit(cell=1)
        assert decision.admitted

    asyncio.run(_with_service(second, config=config))


def test_broadcast_stream_fans_out_and_keeps_backlog():
    from repro.serve.service import BroadcastStream

    stream = BroadcastStream(backlog=2)
    seen = []
    stream.subscribe(seen.append)
    stream.write('{"t": 1.0}\n')
    stream.write('{"t": 2.0}\n')
    stream.write('{"t": 3.0}\n')
    stream.flush()
    assert seen == ['{"t": 1.0}', '{"t": 2.0}', '{"t": 3.0}']
    assert list(stream.backlog) == ['{"t": 2.0}', '{"t": 3.0}']
    stream.unsubscribe(seen.append)
    stream.unsubscribe(seen.append)  # tolerant of double removal
    stream.write('{"t": 4.0}\n')
    assert len(seen) == 3
    assert stream.subscribers == 0


def test_mistyped_event_fails_its_slot_not_the_worker():
    # cell="3" makes the range check raise TypeError, not ValueError:
    # that is the slot's result, not a failure of the service.
    async def body(service):
        results = await asyncio.wait_for(
            service.submit_many(
                (
                    StreamEvent(t=None, kind=ARRIVAL, cell=0),
                    StreamEvent(t=None, kind=ARRIVAL, cell="3"),
                    StreamEvent(t=None, kind=ARRIVAL, cell=1),
                )
            ),
            timeout=5.0,
        )
        assert isinstance(results[0], Decision) and results[0].cell == 0
        assert isinstance(results[1], TypeError)
        assert isinstance(results[2], Decision) and results[2].cell == 1
        with pytest.raises(TypeError):
            await asyncio.wait_for(
                service.submit(StreamEvent(t=None, kind=ARRIVAL, cell="3")),
                timeout=5.0,
            )
        decision = await asyncio.wait_for(service.admit(cell=2), timeout=5.0)
        assert decision.admitted

    asyncio.run(_with_service(body))


def test_far_future_timestamp_fails_its_slot_not_the_shared_clock():
    # One request stamped weeks ahead used to drag the service clock
    # there — 300 000 monitor samples in one flush, and every later
    # client stamped t = 3 000 000.
    async def body(service):
        engine = service.driver.engine
        results = await asyncio.wait_for(
            service.submit_many(
                (
                    StreamEvent(t=None, kind=ARRIVAL, cell=0),
                    StreamEvent(t=3e6, kind=ARRIVAL, cell=0),
                )
            ),
            timeout=5.0,
        )
        assert isinstance(results[0], Decision)
        assert isinstance(results[1], ValueError)
        assert "ahead of the stream" in str(results[1])
        before = (engine.now, engine.events_processed)
        with pytest.raises(ValueError, match="ahead of the stream"):
            await asyncio.wait_for(
                service.submit(StreamEvent(t=3e6, kind=ARRIVAL, cell=1)),
                timeout=5.0,
            )
        assert (engine.now, engine.events_processed) == before
        decision = await asyncio.wait_for(service.admit(cell=2), timeout=5.0)
        assert abs(decision.t - service.driver.clock.now()) < 1.0
        # A replay running ahead of the wall clock by less than a day
        # (what a load generator sends) is applied as stamped.
        replayed = await asyncio.wait_for(
            service.admit(cell=3, t=1800.0), timeout=5.0
        )
        assert replayed.t == 1800.0

    asyncio.run(_with_service(body, config=_config(scheme="static")))


def test_apply_many_is_a_plain_call_with_aligned_results():
    service = AdmissionService(_config(scheme="static"))
    with pytest.raises(RuntimeError, match="not running"):
        service.apply_many(())
    asyncio.run(service.start())
    # No event loop is running from here on.
    results = service.apply_many(
        (
            StreamEvent(t=None, kind=ARRIVAL, cell=0),
            StreamEvent(t=None, kind=ARRIVAL, cell="3"),
            StreamEvent(t=3e6, kind=ARRIVAL, cell=0),
            StreamEvent(t=None, kind=COMPLETE, conn=123456),
            StreamEvent(t=None, kind=ARRIVAL, cell=1),
        )
    )
    assert [type(result) for result in results] == [
        Decision, TypeError, ValueError, type(None), Decision
    ]
    assert "ahead of the stream" in str(results[2])
    assert (results[0].cell, results[4].cell) == (0, 1)
    assert service.apply_many(()) == []
    assert service.stats()["decisions"] == 2
    assert service.driver.ignored == 1
    asyncio.run(service.stop())


def test_a_nan_timestamp_fails_in_its_own_slot_on_the_virtual_clock():
    service = AdmissionService(_config(scheme="static"))
    service.driver.clock = VirtualClock(service.driver.engine)
    asyncio.run(service.start())
    results = service.apply_many(
        (
            StreamEvent(t=1.0, kind=ARRIVAL, cell=0, conn=1),
            StreamEvent(t=float("nan"), kind=ARRIVAL, cell=0, conn=2),
            StreamEvent(t=2.0, kind=ARRIVAL, cell=1, conn=3),
        )
    )
    assert [type(result) for result in results] == [
        Decision, ValueError, Decision
    ]
    assert "timestamp nan" in str(results[1])
    assert (results[0].conn, results[2].conn) == (1, 3)
    assert service.driver.engine.now == 2.0
    asyncio.run(service.stop())


@pytest.mark.parametrize("broken", ["flush", "checkpoint"])
def test_first_failure_stops_the_service_by_name(broken, tmp_path):
    async def scenario():
        service = AdmissionService(
            _config(), checkpoint_every=1e-9, checkpoint_dir=tmp_path
        )
        await service.start()

        def explode(*_args):
            raise OSError("disk on fire")

        if broken == "flush":
            service.driver.flush = explode
        else:
            service.driver.save_state = explode
        with pytest.raises(ServiceFailed, match="disk on fire") as first:
            await service.admit(cell=0)
        assert isinstance(first.value.__cause__, OSError)
        # A half-advanced engine answers nothing more: no event of a
        # later group is even submitted.
        processed = service.driver.engine.events_processed
        with pytest.raises(ServiceFailed, match="disk on fire"):
            service.apply_many((StreamEvent(t=None, kind=ARRIVAL, cell=1),))
        assert service.driver.engine.events_processed == processed
        with pytest.raises(OSError):  # stop() surfaces the cause
            await service.stop()

    asyncio.run(scenario())
