"""Output checks: simulated statistics must not move.

A change meant only to make the simulator faster has to leave every
simulated statistic identical.  Each repeat's ``metrics_key()`` is
hashed; all repeats of a run (plain, observed, traced, inline shards,
process shards) must agree, and for the pinned seed the hash must equal
the one recorded in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

def digest(result) -> str:
    """SHA-256 of a run's simulation-determined fields."""
    text = json.dumps(result.metrics_key(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def paper_side(result) -> dict:
    """The paper's own axes, printed beside every speed number."""
    return {
        "p_cb": result.blocking_probability,
        "p_hd": result.dropping_probability,
        "n_calc": result.average_calculations,
        "avg_messages": result.average_messages,
    }


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def pinned(workload: str, seed: int, scale: str) -> dict | None:
    """The pinned record for this run, or ``None`` when nothing is pinned
    (another seed, or smoke scale)."""
    expected = load_expected()
    if scale != "full" or seed != expected["seed"]:
        return None
    return expected["workloads"].get(workload)


def wrong_digests(digests: list[str | None], pin: dict | None) -> int:
    """How many repeats broke the fingerprint contract.

    A repeat is wrong when it raised (``None``), when it differs from
    the pinned digest, or — with nothing pinned — when it differs from
    the first repeat that completed.
    """
    reference = pin["digest"] if pin else next(
        (value for value in digests if value is not None), None
    )
    return sum(1 for value in digests if value is None or value != reference)
