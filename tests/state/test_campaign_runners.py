"""One campaign loop, two runners: resume, report and inspect agree."""

from dataclasses import asdict, replace

import pytest

from repro.simulation.scenarios import hex_city, stationary
from repro.state import campaign as campaign_module
from repro.state import inspect_state, run_campaign


def _sequential():
    config = stationary(
        "AC3", offered_load=100.0, voice_ratio=0.8, duration=60.0, seed=5
    )
    return replace(config, day_seconds=60.0), 0


def _spatial():
    city = hex_city(
        "AC3", rows=6, cols=6, offered_load=150.0, day_seconds=30.0, seed=11
    )
    return city, 2


@pytest.fixture(params=[_sequential, _spatial], ids=["sequential", "spatial"])
def campaign(request, monkeypatch):
    """``(run, calls)``: ``run(days, state_dir)`` runs the fixture's
    campaign, ``calls`` lists the days simulated."""
    config, shards = request.param()
    calls = []
    execute = campaign_module.execute

    def counting(spec):
        calls.append(spec.save_state.name)
        return execute(spec)

    monkeypatch.setattr(campaign_module, "execute", counting)

    def run(days, state_dir):
        return run_campaign(config, days, state_dir, shards=shards)

    return run, calls


def _tree(path):
    return {
        str(item.relative_to(path)): item.read_bytes()
        for item in sorted(path.rglob("*"))
        if item.is_file()
    }


def _measured(report):
    row = asdict(report)
    del row["wall_seconds"], row["state_path"]
    return row


def test_resume_reuses_days_and_matches_an_uninterrupted_run(
    campaign, tmp_path
):
    run, calls = campaign
    state_dir = tmp_path / "resumed"
    run(1, state_dir)
    day_zero = _tree(state_dir / "day_000")
    resumed = run(2, state_dir)
    assert calls == ["day_000", "day_001"]
    assert _tree(state_dir / "day_000") == day_zero
    report = (state_dir / "campaign.jsonl").read_text()
    assert len(report.splitlines()) == 2
    # Asking again simulates nothing and leaves the report as it is.
    assert run(2, state_dir) == resumed
    assert calls == ["day_000", "day_001"]
    assert (state_dir / "campaign.jsonl").read_text() == report
    straight = run(2, tmp_path / "straight")
    assert [_measured(day) for day in resumed] == [
        _measured(day) for day in straight
    ]


def test_a_half_published_day_is_ignored_and_rerun(campaign, tmp_path):
    run, calls = campaign
    state_dir = tmp_path / "camp"
    run(1, state_dir)
    # A kill inside publish_state_dir leaves only the temporary sibling.
    torn = state_dir / ".day_001.tmp.4242"
    (torn / "cells").mkdir(parents=True)
    (torn / "cells" / "cell_0000.bin").write_bytes(b"RQC1")
    reports = run(2, state_dir)
    assert calls == ["day_000", "day_001"]
    assert [report.day for report in reports] == [0, 1]
    assert inspect_state(state_dir / "day_001", out=lambda _line: None) == 0


def test_inspect_reports_true_totals_and_verifies_each_day(
    campaign, tmp_path
):
    run, _calls = campaign
    state_dir = tmp_path / "camp"
    reports = run(2, state_dir)
    total = sum(report.events_processed for report in reports)
    assert total > 0
    lines = []
    assert inspect_state(state_dir, out=lines.append) == 0
    assert f"  total events:     {total:,}" in lines
    for day in ("day_000", "day_001"):
        lines = []
        assert inspect_state(state_dir / day, out=lines.append) == 0
        assert lines[-1].startswith("Integrity: OK")
