#!/usr/bin/env python
"""CI smoke for the durable state store.

Two gates, both cheap enough for every CI pass:

1. **Corruption detection** — save a checkpoint, flip one byte in one
   cell blob, and assert ``repro state inspect`` exits non-zero.
2. **Restore parity** — save at half the horizon (while some
   connections have only a crossing pending, their planned end on the
   connection record), restore, run to the full horizon, and assert
   ``metrics_key()`` equality with the uninterrupted run (the store's
   core bit-identity contract).

Run from the repository root::

    PYTHONPATH=src python scripts/state_smoke.py
"""

import json
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

from repro.simulation.scenarios import stationary
from repro.simulation.simulator import CellularSimulator
from repro.state import inspect_state, restore_simulator, save_checkpoint


def check_corruption_detected(config, scratch: Path) -> None:
    sim = CellularSimulator(replace(config, duration=60.0))
    sim.run()
    path = save_checkpoint(sim, scratch / "corrupt-me")
    if inspect_state(path, out=lambda _line: None) != 0:
        raise SystemExit("fresh checkpoint failed inspection")
    blob = path / "cells" / "cell_0003.bin"
    data = bytearray(blob.read_bytes())
    data[len(data) // 2] ^= 0xFF
    blob.write_bytes(bytes(data))
    if inspect_state(path, out=lambda _line: None) == 0:
        raise SystemExit("inspect accepted a corrupted blob")
    print("corruption smoke: one flipped byte detected, non-zero exit")


def check_restore_parity(config, scratch: Path) -> None:
    full = CellularSimulator(config).run()
    half = CellularSimulator(replace(config, duration=config.duration / 2))
    half.run()
    path = save_checkpoint(half, scratch / "parity")
    runtime = json.loads((path / "runtime.json").read_text())
    pending = Counter(
        record["kind"] for record in runtime["queue"] if "conn" in record
    )
    if not pending["crossing"] or not pending["lifetime"]:
        raise SystemExit(f"expected both kinds of pending event: {pending}")
    if sum(pending.values()) != len(runtime["connections"]):
        raise SystemExit("a connection has more or less than one event")
    resumed = restore_simulator(path, config).run()
    if resumed.metrics_key() != full.metrics_key():
        raise SystemExit("restored run diverged from the straight run")
    print(
        "parity smoke: save @ "
        f"{config.duration / 2:g}s -> load -> run to {config.duration:g}s"
        " is bit-identical"
        f" (P_CB={full.blocking_probability:.4f},"
        f" {full.events_processed} events;"
        f" {pending['crossing']} connections saved with only a crossing"
        f" pending, {pending['lifetime']} with only their end)"
    )


def main() -> None:
    config = stationary(
        "AC3", offered_load=150.0, voice_ratio=0.8, duration=240.0, seed=7
    )
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        check_corruption_detected(config, scratch)
        check_restore_parity(config, scratch)
    print("state smoke OK")


if __name__ == "__main__":
    sys.exit(main())
