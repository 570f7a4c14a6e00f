"""Durable simulation state: versioned checkpoints and warm-starts.

The paper's mobility estimator (§3) aggregates hand-off quadruplets
across ``N_win`` previous days — state that is only meaningful if it
outlives a single process.  This package persists the full warm state
of a run (quadruplet caches, window controllers, RNG positions, the
pending event queue, run metrics) into an atomic, versioned,
checksummed on-disk directory, and restores it either

* **exactly** — :func:`restore_simulator` rebuilds a mid-run simulator
  that continues bit-identically (same ``metrics_key()`` as the
  uninterrupted run), or
* **warm-only** — :class:`CheckpointWarmStart` hydrates a *fresh* run's
  estimator history from any state directory, a full checkpoint or the
  history-only directory :func:`save_history` writes: what the
  multi-day :func:`run_campaign` chains between simulated days, what a
  spatial shard reads for the cells it owns, and what the replication
  runner hands every shard.
"""

from repro.state.campaign import CampaignDay, run_campaign
from repro.state.checkpoint import (
    CheckpointError,
    Checkpointer,
    CheckpointWarmStart,
    restore_simulator,
    save_checkpoint,
    save_history,
)
from repro.state.format import (
    SCHEMA_VERSION,
    StateCorruptionError,
    StateFormatError,
    StateSchemaError,
)
from repro.state.inspect import inspect_state

__all__ = [
    "CampaignDay",
    "CheckpointError",
    "CheckpointWarmStart",
    "Checkpointer",
    "SCHEMA_VERSION",
    "StateCorruptionError",
    "StateFormatError",
    "StateSchemaError",
    "inspect_state",
    "restore_simulator",
    "run_campaign",
    "save_checkpoint",
    "save_history",
]
