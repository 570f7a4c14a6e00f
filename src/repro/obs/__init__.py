"""Run-wide observability: telemetry, logging, series, streaming.

* :mod:`repro.obs.telemetry` — counters/gauges/histograms/timers in a
  per-run registry, with a no-op twin selected when telemetry is off.
* :mod:`repro.obs.logs` — JSONL structured logging with per-subsystem
  levels and ``REPRO_LOG``/``REPRO_LOG_JSON`` plumbing.
* :mod:`repro.obs.export` — Prometheus text exposition and JSON forms
  of a snapshot, plus a parser for round-trips and CI assertions.
* :mod:`repro.obs.timeseries` — in-run time-series sampling driven by
  the engine's observer hook, ring-buffered and optionally streamed to
  an append-only JSONL file as the run executes; its rows, rendered,
  are the run's progress heartbeat lines (``--progress``).
* :mod:`repro.obs.trace` — wall-clock span recording (epoch barriers,
  flush ticks, checkpoint publishes) as Perfetto-loadable Chrome
  trace-event JSON.
* :mod:`repro.obs.dash` — a stdlib ANSI terminal dashboard tailing a
  live series stream (``repro dash``).

None of it perturbs the simulation: instruments only count, samplers
and spans only read state and the wall clock, and ``metrics_key()``
equality between observed and unobserved runs is enforced by tests.
"""

from repro.obs.dash import DashState, render, run_dash
from repro.obs.export import parse_prometheus, snapshot_to_json, to_prometheus
from repro.obs.logs import (
    configure_logging,
    ensure_configured,
    get_logger,
    set_run_id,
)
from repro.obs.telemetry import (
    Counter,
    Gauge,
    Histogram,
    NullTelemetry,
    SectionTimer,
    Telemetry,
    merge_snapshots,
    new_run_id,
)
from repro.obs.timeseries import (
    TimeSeriesSampler,
    iter_series,
    merge_series,
    read_series,
    series_summary,
    write_series,
)
from repro.obs.trace import (
    NullTraceCollector,
    TraceCollector,
    merge_traces,
    span_names,
    write_trace,
)

__all__ = [
    "Counter",
    "DashState",
    "Gauge",
    "Histogram",
    "NullTelemetry",
    "NullTraceCollector",
    "SectionTimer",
    "Telemetry",
    "TimeSeriesSampler",
    "TraceCollector",
    "configure_logging",
    "ensure_configured",
    "get_logger",
    "iter_series",
    "merge_series",
    "merge_snapshots",
    "merge_traces",
    "new_run_id",
    "parse_prometheus",
    "read_series",
    "render",
    "run_dash",
    "series_summary",
    "set_run_id",
    "snapshot_to_json",
    "span_names",
    "to_prometheus",
    "write_series",
    "write_trace",
]
