"""Tests for the closed-loop load generator."""

import asyncio
from collections import Counter

import pytest

from repro.serve import AdmissionService
from repro.serve.driver import Decision
from repro.serve.loadgen import run_load
from repro.simulation.scenarios import stationary


def _config():
    return stationary(
        "static", offered_load=120.0, duration=3600.0, seed=21, num_cells=6
    )


def _run(**kwargs):
    async def scenario():
        service = AdmissionService(_config(), series_wall_interval=0.0)
        await service.start()
        try:
            return await run_load(service, **kwargs), service
        finally:
            await service.stop()

    return asyncio.run(scenario())


def test_parameter_validation():
    async def scenario():
        service = AdmissionService(_config())
        with pytest.raises(ValueError, match="decisions"):
            await run_load(service, decisions=0)
        with pytest.raises(ValueError, match="concurrency"):
            await run_load(service, decisions=10, concurrency=0)
        with pytest.raises(ValueError, match="pipeline"):
            await run_load(service, decisions=10, pipeline=0)

    asyncio.run(scenario())


def test_report_counters_are_consistent():
    report, service = _run(decisions=300, concurrency=4, pipeline=8)
    assert report.decisions >= 300
    # Every decision is either an admission query or a hand-off query.
    assert report.admitted + report.rejected + report.handoffs == (
        report.decisions
    )
    assert 0.0 <= report.admitted_fraction <= 1.0
    assert report.decisions_per_s > 0
    assert report.elapsed_s > 0
    assert 0 <= report.p50_ms <= report.p99_ms
    # The service measured the same stream the generator drove.
    assert service.stats()["decisions"] == report.decisions


def test_to_json_is_bench_shaped():
    report, _service = _run(decisions=50, concurrency=2, pipeline=4)
    row = report.to_json()
    for field in (
        "decisions", "decisions_per_s", "elapsed_s", "admitted",
        "rejected", "admitted_fraction", "handoffs", "completes",
        "ignored", "p50_ms", "p99_ms",
    ):
        assert field in row, f"report missing {field!r}"
    assert row["decisions"] == report.decisions


def test_strict_request_response_mode():
    # pipeline=1 exercises the one-event-per-group path interactive
    # clients use.
    report, _service = _run(decisions=40, concurrency=2, pipeline=1)
    assert report.decisions >= 40


def test_every_worker_decides_at_least_once():
    # Nothing in a group's application suspends, so the one yield in
    # ``submit_many`` is what hands the loop to the next worker: without
    # it the first worker would make all forty decisions.
    async def scenario():
        service = AdmissionService(_config(), series_wall_interval=0.0)
        await service.start()
        decided = Counter()
        submit_many = service.submit_many

        async def recording(events):
            results = await submit_many(events)
            decided[asyncio.current_task()] += sum(
                isinstance(result, Decision) for result in results
            )
            return results

        service.submit_many = recording
        try:
            await run_load(service, decisions=40, concurrency=4, pipeline=1)
        finally:
            await service.stop()
        return decided

    decided = asyncio.run(scenario())
    assert len(decided) == 4
    assert min(decided.values()) >= 1
