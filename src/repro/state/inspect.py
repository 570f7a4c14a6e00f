"""``repro state inspect``: manifest summary + blob CRC verification.

Prints what a checkpoint claims to contain (schema version, clock,
scenario, per-cell quadruplet counts) and verifies every file's CRC32
against the manifest.  Exit status is the contract: 0 only when every
checksum matches and the schema is readable — CI's corruption smoke
flips one blob byte and asserts a non-zero exit.
"""

from __future__ import annotations

import json
import time as wall_clock
from pathlib import Path
from typing import Callable

from repro.state.format import (
    MANIFEST_NAME,
    load_manifest,
    verify_state_dir,
)

__all__ = ["inspect_state"]


def _summarise_series(path: Path, out: Callable[[str], None]) -> None:
    """Print a one-block summary of a series.jsonl sidecar, if present."""
    from repro.obs.timeseries import read_series, series_summary

    series_path = path / "series.jsonl"
    if not series_path.exists():
        return
    summary = series_summary(read_series(series_path))
    if summary is None:
        return
    out("")
    out(f"  time series:      {summary['samples']} samples,"
        f" t={summary['t_first']:g}..{summary['t_last']:g}s")
    shards = summary["shards"]
    if shards:
        out(f"    shards:         {', '.join(str(s) for s in shards)}")
    out(f"    peak rate:      {summary['peak_events_per_s']:,.0f} events/s")
    if summary["last_p_cb"] is not None:
        out(f"    last P_CB/P_HD: {summary['last_p_cb']:.4f}"
            f" / {summary['last_p_hd']:.4f}")


def _summarise_telemetry(path: Path, out: Callable[[str], None]) -> None:
    """Print the headline counters of a telemetry.json sidecar."""
    telemetry_path = path / "telemetry.json"
    if not telemetry_path.exists():
        return
    try:
        snapshot = json.loads(telemetry_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return
    counters = snapshot.get("counters", {})
    out("")
    out(f"  telemetry:        run_id={snapshot.get('run_id', '?')}"
        f" ({len(counters)} counters,"
        f" {len(snapshot.get('gauges', {}))} gauges)")
    events = counters.get("des.events_fired")
    if events is not None:
        out(f"    events fired:   {events:,.0f}")


def _inspect_campaign(path: Path, out: Callable[[str], None]) -> int:
    """Summarise a campaign directory (per-day JSONL, no manifest)."""
    from repro.obs.timeseries import iter_series

    jsonl = path / "campaign.jsonl"
    with jsonl.open("r", encoding="utf-8") as handle:
        days = list(iter_series(handle))
    out(f"Campaign: {path}")
    out(f"  days:             {len(days)}")
    if days:
        last = days[-1]
        out(f"  last day:         day={last.get('day', '?')}"
            f"  P_CB={last.get('p_cb', 0.0):.4f}"
            f"  P_HD={last.get('p_hd', 0.0):.4f}")
        total = sum(int(day.get("events_processed", 0)) for day in days)
        out(f"  total events:     {total:,}")
    checkpoints = sorted(
        entry.name for entry in path.iterdir() if entry.is_dir()
    )
    if checkpoints:
        out(f"  checkpoints:      {len(checkpoints)}"
            f" ({checkpoints[0]} .. {checkpoints[-1]})")
    _summarise_series(path, out)
    return 0


def inspect_state(
    path: str | Path, out: Callable[[str], None] = print
) -> int:
    """Describe and verify the checkpoint at ``path``; return exit code.

    A campaign directory (``campaign.jsonl``, no manifest) gets a
    per-day summary instead of CRC verification.  For checkpoints,
    raises :class:`~repro.state.format.StateFormatError` (or its
    schema/corruption subclasses) when the manifest itself is missing,
    unparseable, or written by an incompatible schema — per-file
    corruption below the manifest is *reported* and turns the exit
    code non-zero instead.
    """
    path = Path(path)
    if (
        not (path / MANIFEST_NAME).exists()
        and (path / "campaign.jsonl").exists()
    ):
        return _inspect_campaign(path, out)
    manifest = load_manifest(path)
    created = manifest.get("created_unix")
    counts = manifest.get("counts", {})
    out(f"Checkpoint: {path}")
    out(
        f"  format:           {manifest['format']} "
        f"schema v{manifest['schema_version']}"
    )
    if created is not None:
        stamp = wall_clock.strftime(
            "%Y-%m-%d %H:%M:%S UTC", wall_clock.gmtime(created)
        )
        out(f"  created:          {stamp}")
    out(f"  label:            {manifest.get('label', '?')}")
    out(f"  seed:             {manifest.get('seed', '?')}")
    out(f"  virtual clock:    {manifest.get('clock', 0.0):.3f} s")
    out(
        f"  connections:      {counts.get('connections', '?')}"
        f"   pending events: {counts.get('pending_events', '?')}"
        f"   processed: {counts.get('events_processed', '?')}"
    )
    out(f"  quadruplets:      {counts.get('quadruplets', '?')}")
    out("")
    out(f"  {'file':<28} {'cell':>4} {'quads':>8} {'bytes':>10}  crc")
    rows = verify_state_dir(path)
    by_path = {entry["path"]: entry for entry in manifest.get("files", [])}
    failures = 0
    for row in rows:
        entry = by_path.get(row["path"], {})
        cell = entry.get("cell", "")
        quads = entry.get("quadruplets", "")
        status = "OK" if row["ok"] else "FAIL"
        if not row["ok"]:
            failures += 1
        out(
            f"  {row['path']:<28} {cell!s:>4} {quads!s:>8}"
            f" {row['bytes']:>10}  {status}"
        )
        if not row["ok"]:
            out(f"    !! {row['error']}")
    out("")
    manifest_bytes = (path / MANIFEST_NAME).stat().st_size
    out(f"  {MANIFEST_NAME:<28} {'':>4} {'':>8} {manifest_bytes:>10}  -")
    _summarise_telemetry(path, out)
    _summarise_series(path, out)
    if failures:
        out(f"Integrity: FAILED ({failures}/{len(rows)} files corrupt)")
        return 1
    out(f"Integrity: OK ({len(rows)} files verified)")
    return 0
