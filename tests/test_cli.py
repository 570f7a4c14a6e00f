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
    text = prom.read_text(encoding="utf-8")
    assert "repro_des_events_fired" in text
    import json

    data = json.loads(snapshot.read_text(encoding="utf-8"))
    assert data["counters"]["des.events_fired"] > 0


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
    assert json.loads(lines[0])["kind"] == "admitted"


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
    argv = [command, "--shards", "-2", "--inline-shards", "--duration", "60"]
    if command == "campaign":
        argv[-2:] = ["--days", "1", "--state-dir", str(tmp_path / "city")]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "--shards" in err and "-2" in err
    assert out == ""
    assert not (tmp_path / "city").exists()
