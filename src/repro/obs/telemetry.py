"""Run-wide telemetry: counters, gauges, histograms and section timers.

A :class:`Telemetry` registry holds the run-time observables of one
simulation run — how many events the DES engine fired, how often the
Eq. 5 memo hit, which path (resident or snapshot walk) each Eq. 4 batch
took, when the ``T_est`` controller stepped.  Everything is designed
around two constraints:

* **Observation must not perturb the simulation.**  Instruments only
  *count*; nothing reads the clock of, or schedules events on, the
  engine.  ``metrics_key()`` equality between telemetry-on and
  telemetry-off runs of the same scenario is enforced by tests.
* **Telemetry-off must cost ~nothing.**  A disabled run holds a
  :class:`NullTelemetry`, which hands out shared no-op instruments, so
  instrumented code paths pay one attribute access and an empty method
  call at most — and the hottest paths (the engine's event loop, the
  estimator's dispatch counters) use plain integer attributes that are
  harvested into the registry once, at the end of the run.

Each run owns its registry: the simulator (or shard) builds one from
``SimulationConfig.telemetry`` (the ``--telemetry`` flag) and hands it
to what records into it.  Nothing here is process-wide, so what a run
records never depends on what ran before it in the same process.

Snapshots (:meth:`Telemetry.snapshot`) are plain JSON-able dicts; they
ride on :class:`repro.simulation.metrics.SimulationResult` across
process boundaries, and :func:`merge_snapshots` folds the per-worker
registries of a ``run_sweep(workers=N)`` back into one view.
"""

from __future__ import annotations

import uuid
from bisect import bisect_left
from time import perf_counter
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NullTelemetry",
    "SectionTimer",
    "Telemetry",
    "merge_snapshots",
    "new_run_id",
]

#: Default histogram bucket upper bounds (powers of two — sized for
#: batch-row and queue-length style distributions).
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)


def new_run_id() -> str:
    """A short, unique identifier for one simulation run."""
    return uuid.uuid4().hex[:12]


def _key(name: str, labels: Mapping[str, str]) -> str:
    """Canonical series key: ``name`` or ``name{k="v",...}`` (sorted)."""
    if not labels:
        return name
    rendered = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return f"{name}{{{rendered}}}"


# ----------------------------------------------------------------------
# live instruments
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (heap size, final ``T_est``, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram (Prometheus ``le`` semantics).

    ``edges`` are inclusive upper bounds; observations above the last
    edge land in the implicit ``+Inf`` overflow bucket.  ``counts`` has
    ``len(edges) + 1`` entries, non-cumulative (the exporter renders the
    cumulative Prometheus form).
    """

    __slots__ = ("edges", "counts", "sum", "count")

    def __init__(self, edges: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        ordered = tuple(float(edge) for edge in edges)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("bucket edges must be strictly increasing")
        self.edges = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        self.counts[bisect_left(self.edges, value)] += count
        self.sum += value * count
        self.count += count


class SectionTimer:
    """Accumulated wall time of a named code section.

    Usable as a context manager; never touches virtual time, so timing
    a section cannot perturb the simulation.
    """

    __slots__ = ("seconds", "count", "_started")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.count = 0
        self._started = 0.0

    def __enter__(self) -> "SectionTimer":
        self._started = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds += perf_counter() - self._started
        self.count += 1


# ----------------------------------------------------------------------
# no-op instruments (telemetry disabled)
# ----------------------------------------------------------------------
class _NullCounter:
    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    value = 0.0

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    edges: tuple[float, ...] = ()
    sum = 0.0
    count = 0

    def observe(self, value: float, count: int = 1) -> None:
        pass


class _NullTimer:
    __slots__ = ()
    seconds = 0.0
    count = 0

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_TIMER = _NullTimer()


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------
class Telemetry:
    """The live registry of one run's instruments."""

    enabled = True

    def __init__(self, run_id: str | None = None) -> None:
        self.run_id = run_id or new_run_id()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._timers: dict[str, SectionTimer] = {}

    # -- instrument accessors (get-or-create, stable handles) ----------
    def counter(self, name: str, **labels: str) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(buckets)
        return instrument

    def timer(self, name: str, **labels: str) -> SectionTimer:
        key = _key(name, labels)
        instrument = self._timers.get(key)
        if instrument is None:
            instrument = self._timers[key] = SectionTimer()
        return instrument

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict:
        """The registry as plain JSON-able data (picklable, mergeable)."""
        return {
            "run_id": self.run_id,
            "counters": {
                key: counter.value
                for key, counter in sorted(self._counters.items())
            },
            "gauges": {
                key: gauge.value
                for key, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                key: {
                    "buckets": list(histogram.edges),
                    "counts": list(histogram.counts),
                    "sum": histogram.sum,
                    "count": histogram.count,
                }
                for key, histogram in sorted(self._histograms.items())
            },
            "timers": {
                key: {"seconds": timer.seconds, "count": timer.count}
                for key, timer in sorted(self._timers.items())
            },
        }

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold a snapshot (e.g. from a sweep worker) into this registry.

        Counters, histograms and timers add; gauges keep the maximum
        over the *contributed* values (heap sizes and final ``T_est``
        values are peak-style reads, for which a sum across workers
        would be meaningless).  The first contribution to a gauge seeds
        it outright — comparing against a freshly created gauge's 0.0
        default would silently drop all-negative series.
        """
        for key, value in snapshot.get("counters", {}).items():
            name, labels = _split_key(key)
            self.counter(name, **labels).inc(value)
        for key, value in snapshot.get("gauges", {}).items():
            name, labels = _split_key(key)
            seen = key in self._gauges
            gauge = self.gauge(name, **labels)
            if not seen or value > gauge.value:
                gauge.set(value)
        for key, data in snapshot.get("histograms", {}).items():
            name, labels = _split_key(key)
            histogram = self.histogram(
                name, buckets=data["buckets"], **labels
            )
            if list(histogram.edges) != list(data["buckets"]):
                raise ValueError(
                    f"histogram {key!r}: bucket edges differ across"
                    " snapshots"
                )
            counts = data["counts"]
            if len(counts) != len(histogram.counts):
                raise ValueError(
                    f"histogram {key!r}: bucket count differs across"
                    " snapshots"
                )
            for index, count in enumerate(counts):
                histogram.counts[index] += count
            histogram.sum += data["sum"]
            histogram.count += data["count"]
        for key, data in snapshot.get("timers", {}).items():
            name, labels = _split_key(key)
            timer = self.timer(name, **labels)
            timer.seconds += data["seconds"]
            timer.count += data["count"]


class NullTelemetry:
    """Disabled registry: every accessor returns a shared no-op."""

    enabled = False
    run_id = ""

    def counter(self, name: str, **labels: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def timer(self, name: str, **labels: str) -> _NullTimer:
        return _NULL_TIMER

    def snapshot(self) -> None:
        return None

    def merge_snapshot(self, snapshot: Mapping) -> None:
        pass


def _split_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`_key`: series key back to ``(name, labels)``."""
    brace = key.find("{")
    if brace < 0:
        return key, {}
    name = key[:brace]
    labels: dict[str, str] = {}
    for piece in key[brace + 1 : -1].split(","):
        if not piece:
            continue
        label, _, value = piece.partition("=")
        labels[label] = value.strip('"')
    return name, labels


def merge_snapshots(snapshots: Iterable[Mapping | None]) -> dict | None:
    """Merge per-run snapshots (sweep workers) into one combined dict.

    ``None`` entries (telemetry-off runs) are skipped; returns ``None``
    when nothing contributed.  The merged ``run_id`` concatenates the
    contributors' ids so the provenance stays visible.
    """
    merged: Telemetry | None = None
    run_ids: list[str] = []
    for snapshot in snapshots:
        if not snapshot:
            continue
        if merged is None:
            merged = Telemetry(run_id="")
        merged.merge_snapshot(snapshot)
        run_id = snapshot.get("run_id")
        if run_id:
            run_ids.append(run_id)
    if merged is None:
        return None
    merged.run_id = "+".join(run_ids)
    return merged.snapshot()
