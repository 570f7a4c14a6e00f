"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_list_experiments(capsys):
    code, out, _err = run_cli(capsys, "list-experiments")
    assert code == 0
    assert "fig8+9" in out
    assert "table3" in out


def test_run_prints_report(capsys):
    code, out, _err = run_cli(
        capsys,
        "run", "--scheme", "static", "--load", "120",
        "--duration", "60", "--seed", "3",
    )
    assert code == 0
    assert "P_CB" in out and "P_HD" in out
    assert "Cell" in out
    assert out.count("\n") > 12  # per-cell table present


def test_run_one_way_and_adaptive_flags(capsys):
    code, out, _err = run_cli(
        capsys,
        "run", "--scheme", "AC3", "--load", "150", "--rvo", "0.5",
        "--duration", "60", "--one-way", "--adaptive-qos",
    )
    assert code == 0
    assert "scheme=adaptive-AC3" in out


def test_sweep_prints_one_row_per_load(capsys):
    code, out, _err = run_cli(
        capsys,
        "sweep", "--scheme", "static", "--loads", "60,120",
        "--duration", "60",
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 4  # header + rule + 2 loads
    assert lines[2].startswith("60")


def test_experiment_command(capsys):
    code, out, _err = run_cli(
        capsys, "experiment", "table3", "--duration", "60"
    )
    assert code == 0
    assert "table3" in out
    assert "(AC1)" in out and "(AC3)" in out


def test_unknown_experiment_fails_cleanly(capsys):
    code, _out, err = run_cli(capsys, "experiment", "fig99")
    assert code == 2
    assert "unknown experiment" in err


def test_fig14_rejects_duration(capsys):
    code, _out, err = run_cli(
        capsys, "experiment", "fig14", "--duration", "10"
    )
    assert code == 2
    assert "--duration" in err and "fig14" in err


def test_invalid_rvo_fails_cleanly(capsys):
    code, _out, err = run_cli(
        capsys, "run", "--rvo", "1.5", "--duration", "60"
    )
    assert code == 2
    assert "error" in err


def test_run_telemetry_summary_and_exports(capsys, tmp_path):
    prom = tmp_path / "run.prom"
    snapshot = tmp_path / "run.json"
    code, out, _err = run_cli(
        capsys,
        "run", "--scheme", "AC3", "--load", "150", "--duration", "80",
        "--telemetry",
        "--prom-out", str(prom), "--telemetry-json", str(snapshot),
    )
    assert code == 0
    assert "telemetry: run_id=" in out
    assert "events fired:" in out
    assert "Eq.4 window rows:" in out
    text = prom.read_text(encoding="utf-8")
    assert "repro_des_events_fired" in text
    import json

    data = json.loads(snapshot.read_text(encoding="utf-8"))
    counters = data["counters"]
    assert counters["des.events_fired"] > 0
    resident = counters['estimation.eq4_rows{path="resident"}']
    assert 0 < counters["estimation.eq4_window_rows"] < resident


def test_run_without_telemetry_prints_no_summary(capsys):
    code, out, _err = run_cli(
        capsys, "run", "--load", "120", "--duration", "60"
    )
    assert code == 0
    assert "telemetry:" not in out


def test_run_trace_jsonl(capsys, tmp_path):
    journal = tmp_path / "trace.jsonl"
    code, _out, _err = run_cli(
        capsys,
        "run", "--load", "120", "--duration", "60",
        "--trace-jsonl", str(journal),
    )
    assert code == 0
    import json

    lines = journal.read_text(encoding="utf-8").splitlines()
    assert lines
    assert json.loads(lines[0])["kind"] == "arrival"


def test_sweep_merges_worker_telemetry(capsys, tmp_path):
    prom = tmp_path / "sweep.prom"
    code, out, _err = run_cli(
        capsys,
        "sweep", "--loads", "60,120", "--duration", "60",
        "--workers", "2", "--telemetry", "--prom-out", str(prom),
    )
    assert code == 0
    # Two worker runs merged: both run ids in the provenance line.
    summary = [
        line for line in out.splitlines()
        if line.startswith("telemetry: run_id=")
    ]
    assert summary and summary[0].count("+") == 1
    assert "repro_des_events_fired" in prom.read_text(encoding="utf-8")


def test_progress_flag_emits_heartbeat_and_keeps_metrics(capsys):
    code_quiet, out_quiet, _ = run_cli(
        capsys, "run", "--load", "120", "--duration", "80", "--seed", "2"
    )
    code_progress, out_progress, err = run_cli(
        capsys,
        "run", "--load", "120", "--duration", "80", "--seed", "2",
        "--progress", "0.0001",
    )
    assert code_quiet == code_progress == 0
    # The report (a pure function of the metrics) is unchanged by
    # progress reporting; heartbeats go to stderr.
    assert out_quiet == out_progress
    assert "events/s" in err


class TestHotspotValidation:
    """--hotspots must reject bad segments with errors naming them."""

    def test_valid_spec_parses(self):
        from repro.cli import _parse_hotspots

        assert _parse_hotspots(None) == ()
        assert _parse_hotspots("") == ()
        assert _parse_hotspots("1,2,3.0; 4,5,2.5,1.5;") == (
            (1.0, 2.0, 3.0),
            (4.0, 5.0, 2.5, 1.5),
        )

    def test_non_numeric_segment_is_named(self):
        from repro.cli import _parse_hotspots

        with pytest.raises(ValueError, match=r"'1,two,3' does not parse"):
            _parse_hotspots("0,0,2;1,two,3")

    def test_wrong_arity_is_named(self):
        from repro.cli import _parse_hotspots

        with pytest.raises(ValueError, match=r"got '1,2'"):
            _parse_hotspots("1,2")
        with pytest.raises(ValueError, match=r"got '1,2,3,4,5'"):
            _parse_hotspots("1,2,3,4,5")

    def test_gain_and_radius_must_be_positive(self):
        from repro.cli import _parse_hotspots

        with pytest.raises(ValueError, match=r"gain.*'1,2,0'"):
            _parse_hotspots("1,2,0")
        with pytest.raises(ValueError, match=r"radius.*'1,2,3,-1'"):
            _parse_hotspots("1,2,3,-1")

    def test_out_of_grid_cell_is_named_with_bounds(self):
        from repro.cli import _parse_hotspots

        with pytest.raises(
            ValueError,
            match=r"\(12,3\) in '12,3,2' is outside the 12x12 grid"
            r" \(rows 0\.\.11, cols 0\.\.11\)",
        ):
            _parse_hotspots("5,5,2;12,3,2", grid=(12, 12))
        # In-grid cells pass the same check.
        assert _parse_hotspots("11,11,2", grid=(12, 12)) == ((11.0, 11.0, 2.0),)

    def test_cli_rejects_bad_hotspots_before_running(self, capsys):
        code = main([
            "run", "--shards", "2", "--hex", "6x6", "--duration", "60",
            "--hotspots", "9,9,2",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert "'9,9,2'" in captured.err and "6x6 grid" in captured.err


@pytest.mark.parametrize("command", ["run", "campaign"])
def test_negative_shards_fail_cleanly(capsys, tmp_path, command):
    # Used to fall through to the 1-D road and ignore every spatial flag.
    argv = [command, "--shards", "-2", "--hex", "6x6", "--duration", "60"]
    if command == "campaign":
        argv[-2:] = ["--days", "1", "--state-dir", str(tmp_path / "city")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "--shards" in err and "-2" in err
    assert out == ""
    assert not (tmp_path / "city").exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--shards", "2", "--replications", "3"],
         ["--shards", "--replications"]),
        (["--shards", "2", "--checkpoint-every", "10"],
         ["--shards", "--checkpoint-every"]),
        (["--shards", "2", "--trace-jsonl", "{tmp}/j"],
         ["--shards", "--trace-jsonl"]),
        (["--shards", "2", "--one-way"], ["--shards", "--one-way"]),
        (["--shards", "2", "--low-mobility"], ["--shards", "--low-mobility"]),
        (["--shards", "2", "--overload", "1.1"], ["--shards", "--overload"]),
        (["--replications", "3", "--save-state", "{tmp}/s"],
         ["--replications", "--save-state"]),
        (["--replications", "3", "--trace-jsonl", "{tmp}/j"],
         ["--replications", "--trace-jsonl"]),
        (["--save-state", "{tmp}/s", "--trace-jsonl", "{tmp}/j"],
         ["--save-state", "--trace-jsonl"]),
        (["--hotspots", "1,1,2"], ["--hotspots", "--shards"]),
        (["--workers", "2"], ["--workers", "--replications"]),
    ],
    ids=[
        "shards-replications",
        "shards-state",
        "shards-journal",
        "shards-one-way",
        "shards-low-mobility",
        "shards-overload",
        "replications-state",
        "replications-journal",
        "state-journal",
        "hotspots-without-shards",
        "workers-without-replications",
    ],
)
def test_one_mode_check_refuses_what_a_run_would_ignore(
    capsys, tmp_path, flags, named
):
    """Every flag combination the chosen runner cannot honour exits 2,
    names both flags and runs nothing — several used to exit 0 and
    silently drop the second flag."""
    argv = [flag.format(tmp=tmp_path) for flag in flags]
    code, out, err = run_cli(
        capsys, "run", "--hex", "6x6", "--duration", "60", *argv
    )
    assert code == 2
    assert out == ""
    assert all(flag in err for flag in named)
    assert list(tmp_path.iterdir()) == []


def test_campaign_shares_the_mode_check(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "campaign", "--shards", "2", "--hex", "6x6", "--one-way",
        "--days", "1", "--state-dir", str(tmp_path / "city"),
    )
    assert code == 2
    assert "--shards" in err and "--one-way" in err
    assert not (tmp_path / "city").exists()



def test_sharded_run_saves_history_that_inspect_passes(capsys, tmp_path):
    saved = tmp_path / "city"
    code, out, _err = run_cli(
        capsys, "run", "--shards", "2", "--hex", "6x6", "--duration", "20",
        "--save-state", str(saved),
    )
    assert code == 0
    assert f"state saved: {saved}" in out
    code, out, _err = run_cli(capsys, "state", "inspect", str(saved))
    assert code == 0 and "Integrity: OK" in out
    # History is what the next day warm-starts from, not a resumable run.
    code, out, err = run_cli(
        capsys, "run", "--duration", "20", "--load-state", str(saved)
    )
    assert code == 2
    assert "runtime.json" in err


def test_sharded_campaign_days_last_day_seconds(capsys, tmp_path):
    """``--day-seconds`` sets a sharded day, and ``--duration`` is
    ignored, as in the sequential campaign."""
    import json

    def campaign(name, duration):
        state_dir = tmp_path / name
        code, _out, _err = run_cli(
            capsys, "campaign", "--shards", "2", "--hex", "6x6",
            "--days", "2", "--day-seconds", "15", "--duration", duration,
            "--state-dir", str(state_dir),
        )
        assert code == 0
        rows = [
            json.loads(line)
            for line in (state_dir / "campaign.jsonl").read_text().splitlines()
        ]
        clocks = [
            json.loads((state_dir / day / "manifest.json").read_text())["clock"]
            for day in ("day_000", "day_001")
        ]
        assert clocks == [15.0, 15.0]
        for row in rows:
            del row["wall_seconds"], row["state_path"]
        return rows

    assert campaign("short", "5") == campaign("long", "500")


@pytest.mark.parametrize(
    "command, flag",
    [
        ("campaign", "--prom-out"),
        ("campaign", "--telemetry-json"),
        ("campaign", "--trace-out"),
        ("serve", "--series-out"),
        ("serve", "--progress"),
    ],
)
def test_flags_a_command_never_honoured_are_refused(capsys, command, flag):
    with pytest.raises(SystemExit) as caught:
        build_parser().parse_args([command, flag, "x"])
    assert caught.value.code == 2
    assert flag in capsys.readouterr().err
