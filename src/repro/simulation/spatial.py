"""City-scale spatial sharding: one DES engine per partition shard.

The paper's scheme is strictly local — every base station talks only to
its ``A_0`` neighbours — so a :class:`~repro.cellular.topology.HexTopology`
city partitions cleanly into contiguous regions with a one-cell-deep
boundary.  :func:`partition_hex` cuts full-width row bands so each
shard carries an equal share of the *offered load* (from per-cell
arrival-rate weights).  The barrier protocol below is generic over the
ownership map — any cut, row or column, merges to bit-identical
metrics.  Each shard runs its own engine over the cells it *owns* and
exchanges three kinds of boundary traffic as message batches at epoch
barriers:

* **mirrors** — per boundary cell: its activity flag and its
  estimator's ``max_sojourn`` at the barrier instant (feeds the
  neighbour shard's dirty set and window-controller ``T_soj,max``);
* **reservation requests/replies** — Eq. 5 contributions crossing the
  cut, answered per supplier by the network's tick supply phase;
* **migrations** — hand-offs whose destination cell lives in another
  shard, shipped one barrier ahead of their crossing time.

Determinism for *any* shard count (the acceptance bar: ``metrics_key()``
bit-identical for N ∈ {1, 2, 4}) comes from an epoch-synchronous
protocol variant with identical semantics at every N, including N=1:

* Cross-cell reads happen **only at barriers**.  Mid-epoch admission is
  cell-local: a new request runs Eq. 1 against the barrier-installed
  ``B_r`` (0 calculations / 0 messages per test — the protocol work is
  accounted at the barrier), a hand-off runs the Eq. 2 overload test at
  its destination, and the window controller is fed the epoch-start
  neighbourhood-max-sojourn mirror.
* ``B_r`` refreshes at each barrier for the *dirty* set — cells whose
  own or neighbouring cells saw an attach/detach/departure/hand-off in
  the finished epoch — via one sorted request list per supplier
  (:meth:`~repro.cellular.network.CellularNetwork.supply_reservations`).
  Suppliers and requests are processed in cell-id order, and Eq. 6
  installs in target-id order, so float addition order is
  shard-independent.
* Every random draw comes from a counter-based SplitMix64 stream keyed
  by *simulation* coordinates (cell, arrival index, hop count), never
  by scheduling history, so shards draw identical values no matter who
  owns the cell.  Connection ids are likewise deterministic:
  ``birth_seq * num_cells + birth_cell``.
* The epoch length must not exceed the minimum hand-off notice
  (:attr:`HexMobilityModel.MIN_NOTICE`): a crossing landing in epoch
  ``j`` was drawn in epoch ``j-1`` or earlier, so shipping the
  outgoing heap up to ``(k + 2) * epoch`` at the end of epoch ``k``
  delivers every boundary hand-off exactly one barrier ahead of its
  crossing time.  The destination schedules it at the barrier with
  ``now = T_j < crossing time``, preserving engine-time monotonicity.

Events at exactly equal virtual times order by (priority, scheduling
sequence); the protocol never schedules two *cross-shard-visible*
events at the same instant except lifetime-vs-crossing ties, which
resolve identically at every N (DEPARTURE fires before HANDOFF).
Crossing/lifetime instants are continuous exponential draws, so
coincidences between distinct connections have measure zero.

Hot state lives in the struct-of-arrays stores of
:mod:`repro.simulation.columnar`, and the cells are
:class:`~repro.simulation.columnar.ColumnarCell` instances that attach
and detach store *rows* directly — the DES inner loop allocates no
per-connection objects, and barrier-time Eq. 5 refreshes run through
the cross-cell ``FlushBatch`` walk.
"""

from __future__ import annotations

import heapq
import math
import time as wall_clock
from dataclasses import dataclass

from repro.cellular.cell import Cell
from repro.cellular.topology import HexTopology
from repro.core.reservation import aggregate_reservation
from repro.des.engine import Engine
from repro.des.events import EventPriority
from repro.des.random import RandomStreams
from repro.mobility.models import (
    DEFAULT_HEX_POPULATION,
    HexMobilityModel,
    draw_hop,
    draw_spawn,
)
from repro.obs.telemetry import merge_snapshots, new_run_id
from repro.obs.timeseries import TimeSeriesSampler, merge_series
from repro.obs.trace import merge_traces
from repro.simulation.columnar import (
    BANDWIDTH_TABLE,
    ColumnarCell,
    ConnectionStore,
    handle_class,
)
from repro.simulation.config import SimulationConfig, cell_load_weights
from repro.simulation.metrics import (
    CellStatus,
    HourlyBucket,
    SimulationResult,
)
from repro.simulation.runner import process_context
from repro.simulation.simulator import (
    admission_policy,
    arrival_processes,
    begin_observability,
    build_network,
    cell_statuses,
    harvest_telemetry,
    metrics_collector,
    retry_policy,
    run_sampler,
)
from repro.traffic.classes import VOICE, TrafficMix

#: Schemes the epoch-synchronous protocol supports.  The adaptive
#: schemes (AC1-3) collapse to the same barrier-driven dirty-set
#: refresh; "static" skips the refresh entirely.
_SCHEMES = ("static", "ac1", "ac2", "ac3")


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """A partition of a hex city into shard-owned regions.

    ``owner[cell]`` is the shard owning each cell; ``cells[s]`` the
    ascending cell ids owned by shard ``s``; ``boundary[s][t]`` the
    ascending cells of ``s`` with at least one neighbour owned by
    ``t`` (the mirror set shipped from ``s`` to ``t`` every barrier).
    ``loads[s]`` is the offered-load weight shard ``s`` carries (cell
    count under uniform weights) — the balance observable the bench and
    dashboard report against.
    """

    shards: int
    owner: tuple[int, ...]
    cells: tuple[tuple[int, ...], ...]
    boundary: tuple[dict[int, tuple[int, ...]], ...]
    loads: tuple[float, ...] = ()


def _weighted_bands(
    weights: list[float], bands: int
) -> list[tuple[int, int]]:
    """Cut ``len(weights)`` consecutive slots into contiguous bands.

    Greedy equal-share cuts: each band ends at the slot whose cumulative
    weight lands closest to an equal split of what remains, while always
    leaving at least one slot per later band.  Deterministic, and with
    uniform weights it degenerates to near-equal slot counts.
    """
    count = len(weights)
    if bands < 1:
        raise ValueError("need at least one band")
    if bands > count:
        raise ValueError(f"cannot cut {count} slots into {bands} bands")
    if min(weights) < 0:
        raise ValueError("weights must be >= 0")
    prefix = [0.0]
    for weight in weights:
        prefix.append(prefix[-1] + weight)
    if prefix[-1] <= 0:
        prefix = list(range(count + 1))
    ranges = []
    start = 0
    for band in range(bands):
        remaining = bands - band
        if remaining == 1:
            ranges.append((start, count))
            break
        target = prefix[start] + (prefix[count] - prefix[start]) / remaining
        low = start + 1
        high = count - (remaining - 1)
        end = low
        while end < high and prefix[end] < target:
            end += 1
        if end > low and target - prefix[end - 1] <= prefix[end] - target:
            end -= 1
        ranges.append((start, end))
        start = end
    return ranges


def partition_hex(
    topology: HexTopology,
    shards: int,
    weights: list[float] | None = None,
) -> ShardPlan:
    """Partition ``topology`` into ``shards`` full-width row bands.

    The bands are cut by per-cell offered-load ``weights`` (uniform when
    ``None``) so each shard carries a near equal share of the arrival
    work.  Hex neighbours span at most one row (wrap included), so the
    cut is one cell deep.
    """
    if weights is not None and len(weights) != topology.num_cells:
        raise ValueError(
            f"need one weight per cell ({topology.num_cells}),"
            f" got {len(weights)}"
        )
    weights = (
        [1.0] * topology.num_cells
        if weights is None
        else [float(weight) for weight in weights]
    )
    row_weights = [
        sum(weights[topology.cell_id(row, col)] for col in range(topology.cols))
        for row in range(topology.rows)
    ]
    owner = [0] * topology.num_cells
    for shard, (start_row, end_row) in enumerate(
        _weighted_bands(row_weights, shards)
    ):
        for row in range(start_row, end_row):
            for col in range(topology.cols):
                owner[topology.cell_id(row, col)] = shard
    return _plan_from_owner(topology, shards, owner, weights)


def _plan_from_owner(
    topology: HexTopology, shards: int, owner: list[int], weights: list[float]
) -> ShardPlan:
    """The :class:`ShardPlan` of an ownership map: cells, boundary, loads.

    Generic over the map — the barrier protocol is too — so a plan cut
    any other way (the tests cut column bands) runs unchanged.
    """
    cells: list[tuple[int, ...]] = []
    loads: list[float] = []
    for shard in range(shards):
        owned = tuple(
            cell for cell in range(topology.num_cells) if owner[cell] == shard
        )
        if not owned:
            raise ValueError(f"shard {shard} owns no cells")
        cells.append(owned)
        loads.append(sum(weights[cell] for cell in owned))
    boundary: list[dict[int, tuple[int, ...]]] = []
    for shard in range(shards):
        per_target: dict[int, list[int]] = {}
        for cell in cells[shard]:
            for neighbor in topology.neighbors(cell):
                target = owner[neighbor]
                if target != shard:
                    bucket = per_target.setdefault(target, [])
                    if not bucket or bucket[-1] != cell:
                        bucket.append(cell)
        boundary.append(
            {target: tuple(per_target[target]) for target in sorted(per_target)}
        )
    return ShardPlan(
        shards=shards,
        owner=tuple(owner),
        cells=tuple(cells),
        boundary=tuple(boundary),
        loads=tuple(loads),
    )


_MASK64 = (1 << 64) - 1
#: Per-draw counter increment (the SplitMix64 golden gamma) and one
#: distinct odd multiplier per stream coordinate.  All five constants
#: differ, so no combination of small coordinate deltas can reproduce a
#: small multiple of the draw gamma — distinct coordinates never land
#: on overlapping counter windows.
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_TAG = 0xD1B54A32D192ED03
_GAMMA_A = 0x8CB92BA72F3D8DD7
_GAMMA_B = 0xABC98388FB8FAC03
_GAMMA_C = 0x2545F4914F6CDD1D


def _mix64(value: int) -> int:
    """SplitMix64 finaliser: bijective 64-bit avalanche mix."""
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class _CoordStream:
    """A counter-based SplitMix64 stream keyed by simulation coordinates.

    Replaces the original sha256 + ``random.Random`` construction: at
    one stream per request and per hop, hashing and Mersenne-Twister
    seeding dominated the event loop.  The counter base is a plain
    linear combination of ``(seed, tag, a, b, c)`` — no mixing at
    construction, because every draw advances the counter by the golden
    gamma and runs the SplitMix64 finaliser, which does all the
    avalanching.  Distinct coordinates give independent streams
    regardless of draw order, so shards see identical values no matter
    who owns a cell — the shard-invariance property the barrier
    protocol rests on.  Only the duck-typed subset the spatial handlers
    use (``random`` / ``expovariate`` / ``randrange`` / ``choice``) is
    implemented.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int, tag: int, a: int, b: int, c: int) -> None:
        self._state = (
            seed
            + tag * _GAMMA_TAG
            + a * _GAMMA_A
            + b * _GAMMA_B
            + c * _GAMMA_C
        ) & _MASK64

    def random(self) -> float:
        # _mix64 inlined: one Python call per draw is measurable at
        # half a million draws per simulated minute.
        self._state = value = (self._state + _GAMMA) & _MASK64
        value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((value ^ (value >> 31)) >> 11) * (1.0 / (1 << 53))

    def expovariate(self, lambd: float) -> float:
        return -math.log(1.0 - self.random()) / lambd

    def randrange(self, n: int) -> int:
        return min(n - 1, int(self.random() * n))

    def choice(self, seq):
        return seq[min(len(seq) - 1, int(self.random() * len(seq)))]


#: Stream tags: one namespace per draw site (request vs hop).
_TAG_REQUEST = 1
_TAG_HOP = 2


def _hex_dimensions(config: SimulationConfig) -> tuple[int, int, bool]:
    extra = config.extra or {}
    rows = extra.get("hex_rows")
    cols = extra.get("hex_cols")
    if rows is None or cols is None:
        raise ValueError(
            "spatial runs need a hex city: set config.extra['hex_rows'] / "
            "['hex_cols'] (see repro.simulation.scenarios.hex_city)"
        )
    return int(rows), int(cols), bool(extra.get("hex_wrap", True))


def check_spatial_config(config: SimulationConfig, epoch: float) -> None:
    """Reject configurations the epoch-synchronous protocol cannot honour."""
    rows, cols, _ = _hex_dimensions(config)
    if rows * cols != config.num_cells:
        raise ValueError(
            f"config.num_cells={config.num_cells} does not match the "
            f"{rows}x{cols} hex grid"
        )
    if config.scheme.lower() not in _SCHEMES:
        raise ValueError(f"unsupported spatial scheme {config.scheme!r}")
    if config.adaptive_qos:
        raise ValueError("adaptive QoS is not supported in spatial runs")
    if config.soft_handoff_window > 0:
        raise ValueError("soft hand-off is not supported in spatial runs")
    if not 0 < epoch <= HexMobilityModel.MIN_NOTICE:
        raise ValueError(
            f"epoch must be in (0, {HexMobilityModel.MIN_NOTICE}] so every "
            "boundary hand-off is known one barrier ahead"
        )


# ----------------------------------------------------------------------
# per-shard engine
# ----------------------------------------------------------------------
@dataclass
class ShardResult:
    """Everything one shard contributes to the merged result."""

    index: int
    cells: dict[int, object]
    statuses: list[CellStatus]
    hourly: dict[int, tuple[int, int, int, int]]
    t_est_traces: dict[int, list]
    reservation_traces: dict[int, list]
    phd_traces: dict[int, list]
    sample_sums: dict[int, tuple[float, float, int]]
    admission_tests: int
    calculations: int
    messages: int
    events: int
    telemetry: dict | None = None
    state: dict | None = None
    store_bytes: int = 0
    peak_live: int = 0
    #: Per-shard time-series samples (tagged ``shard_id``), or ``None``
    #: when sampling was off.
    series: list | None = None
    #: Per-shard Chrome trace events (``pid`` = shard index), or
    #: ``None`` when tracing was off.
    trace: list | None = None


class ShardEngine:
    """One shard's DES engine plus its side of the barrier protocol."""

    def __init__(
        self,
        config: SimulationConfig,
        plan: ShardPlan,
        index: int,
        epoch: float,
    ) -> None:
        check_spatial_config(config, epoch)
        self.config = config
        self.plan = plan
        self.index = index
        self.epoch = epoch
        self.seed = config.seed
        self.duration = config.duration
        self.adaptive = config.scheme.lower() != "static"
        # Telemetry and the span tracer (one Perfetto ``pid`` lane per
        # shard), handed to the network below.
        run_id, self.telemetry, self.tracer = begin_observability(
            config, shard=index
        )
        rows, cols, wrap = _hex_dimensions(config)
        self.topology = HexTopology(rows, cols, wrap=wrap)
        #: Struct-of-arrays store backing every connection this shard
        #: hosts — built before the network so the cell factory below
        #: can bind each cell to it.
        self.store = ConnectionStore(self.topology.num_cells)
        store = self.store
        handle_cls = handle_class(store)

        def columnar_cell(cell_id: int, cap: float, overload: float) -> Cell:
            return ColumnarCell(cell_id, cap, store, overload, handle_cls)

        self.owned = plan.cells[index]
        self._owned_set = frozenset(self.owned)
        # Every shard builds the full-topology network so cell ids,
        # neighbour sets, and Eq. 5/6 semantics are exactly the global
        # ones; unowned cells simply never see an event.  Cells are
        # columnar: the hot loop attaches/detaches store rows directly
        # instead of churning per-event handle objects.
        self.network = build_network(
            config,
            self.topology,
            self.telemetry,
            self.tracer,
            cell_factory=columnar_cell,
            hydrate_cells=self._owned_set,
        )
        if not self.adaptive:
            for cell in range(self.topology.num_cells):
                self.network.cell(cell).reserved_target = config.static_guard
        self.population = DEFAULT_HEX_POPULATION
        self.mix = TrafficMix(config.voice_ratio)
        self._arrivals = arrival_processes(config, self.mix, self.owned)
        self.retry = retry_policy(config)
        self.metrics = metrics_collector(
            config,
            self.topology.num_cells,
            tuple(
                cell for cell in config.tracked_cells if cell in self._owned_set
            ),
        )
        self.engine = Engine(owner=self, handlers=self.HANDLERS)
        self.sampler: TimeSeriesSampler | None = run_sampler(
            config,
            self.engine,
            self.metrics,
            [self.network.station(cell) for cell in self.owned],
            run_id=run_id,
            telemetry=self.telemetry,
            shard_id=index,
        )
        #: Wall time spent inside ``engine.run`` vs total shard wall
        #: time — their gap is the barrier-wait fraction the samples
        #: and the dashboard report.
        self._wall_started = wall_clock.perf_counter()
        self._run_wall = 0.0
        #: Boundary crossings awaiting shipment: (ctime, row, serial, dest)
        #: — queued crossings only, so every entry's crossing will fire.
        self._outgoing: list[tuple[float, int, int, int]] = []
        #: Per-arrival-cell renewal streams (order-independent names, so
        #: every shard count sees identical per-cell arrival processes).
        streams = RandomStreams(config.seed)
        self._arrival_rngs = {
            cell: streams.get(f"spatial-arrivals:{cell}")
            for cell in self.owned
        }
        self._arrival_index = {cell: 0 for cell in self.owned}
        self._activity = {cell: False for cell in self.owned}
        self._remote_activity: dict[int, bool] = {}
        self._remote_ms: dict[int, float] = {}
        self._nms = {cell: 0.0 for cell in self.owned}
        self._pending_install: list[int] = []
        self._local_requests: dict[int, list[tuple[int, float]]] = {}
        self._reply_values: dict[tuple[int, int], float] = {}
        self._sample_sums = {cell: [0.0, 0.0, 0] for cell in self.owned}
        #: Semantic event count: requests (retries included), hand-off
        #: arrivals, lifetime completions.  Engine bookkeeping events
        #: (departure halves, samples) are excluded so the count is the
        #: same for every shard count; the coordinator adds the global
        #: sample-tick count once.
        self.semantic_events = 0
        self.peak_live = 0
        #: Hot-loop accessor caches: the handlers below run millions of
        #: times; direct list indexing beats the network's accessor
        #: methods, and the neighbor tuples never change after build.
        self._cells = self.network.cells
        self._stations = self.network.stations
        self._neighbors = [
            self.topology.neighbors(cell)
            for cell in range(self.topology.num_cells)
        ]
        for cell in self.owned:
            first = self._arrivals[cell].next_arrival(
                0.0, self._arrival_rngs[cell]
            )
            if first is not None and first <= self.duration:
                self.engine.call_at(
                    first,
                    ShardEngine._on_arrival,
                    cell,
                    priority=EventPriority.ARRIVAL,
                )
        if config.sample_interval > 0 and self.owned:
            self.engine.call_at(
                config.sample_interval,
                ShardEngine._on_sample,
                priority=EventPriority.MONITOR,
            )

    # -- barrier protocol ------------------------------------------------
    def barrier_begin(
        self,
        k: int,
        mirrors: list[tuple[int, bool, float]],
        migrations: list[tuple],
    ) -> list[tuple[int, int, float]]:
        """Open epoch ``k``: apply boundary state, emit cross-cut requests.

        Returns ``(supplier, target, t_est)`` requests whose supplier
        lives in another shard.
        """
        with self.tracer.span("barrier.begin", epoch=k, shard=self.index):
            return self._barrier_begin(k, mirrors, migrations)

    def _barrier_begin(
        self,
        k: int,
        mirrors: list[tuple[int, bool, float]],
        migrations: list[tuple],
    ) -> list[tuple[int, int, float]]:
        barrier = k * self.epoch
        self._barrier_time = barrier
        self._remote_activity = {}
        self._remote_ms = {}
        for cell, active, max_sojourn in mirrors:
            self._remote_activity[cell] = active
            self._remote_ms[cell] = max_sojourn
        station = self.network.station
        local_ms = {
            cell: station(cell).estimator.max_sojourn(barrier)
            for cell in self.owned
        }
        neighbors = self.topology.neighbors
        for cell in self.owned:
            best = 0.0
            for neighbor in neighbors(cell):
                value = local_ms.get(neighbor)
                if value is None:
                    value = self._remote_ms.get(neighbor, 0.0)
                if value > best:
                    best = value
            self._nms[cell] = best
        for payload in migrations:
            self.engine.call_at(
                payload[0],
                ShardEngine._on_migration,
                payload,
                priority=EventPriority.HANDOFF,
            )
        requests_out: list[tuple[int, int, float]] = []
        self._pending_install = []
        self._local_requests = {}
        self._reply_values = {}
        if self.adaptive and k > 0:
            activity = self._activity
            remote_activity = self._remote_activity
            owner = self.plan.owner
            metrics = self.metrics
            for cell in self.owned:
                dirty = activity[cell]
                if not dirty:
                    for neighbor in neighbors(cell):
                        if activity.get(
                            neighbor, False
                        ) or remote_activity.get(neighbor, False):
                            dirty = True
                            break
                if not dirty:
                    continue
                cell_station = station(cell)
                t_est = cell_station.t_est
                cell_neighbors = neighbors(cell)
                # §4.1 message pattern, folded into the barrier: one
                # T_est announcement + one Eq. 5 reply per neighbour.
                metrics.total_calculations += 1
                metrics.total_messages += 2 * len(cell_neighbors)
                cell_station.messages_sent += len(cell_neighbors)
                self._pending_install.append(cell)
                for neighbor in cell_neighbors:
                    if owner[neighbor] == self.index:
                        self._local_requests.setdefault(neighbor, []).append(
                            (cell, t_est)
                        )
                    else:
                        requests_out.append((neighbor, cell, t_est))
        for cell in self.owned:
            self._activity[cell] = False
        return requests_out

    def evaluate(
        self, remote_requests: list[tuple[int, int, float]]
    ) -> list[tuple[int, int, float]]:
        """Answer Eq. 5 for every supplier this shard owns.

        Suppliers are processed in cell-id order and each supplier's
        requests in target-id order, so the batched estimator walk is
        shard-count-independent.  Returns replies whose target lives in
        another shard.
        """
        with self.tracer.span(
            "barrier.evaluate", shard=self.index, requests=len(remote_requests)
        ):
            return self._evaluate(remote_requests)

    def _evaluate(
        self, remote_requests: list[tuple[int, int, float]]
    ) -> list[tuple[int, int, float]]:
        merged = self._local_requests
        for supplier, target, t_est in remote_requests:
            merged.setdefault(supplier, []).append((target, t_est))
        owner = self.plan.owner
        station_of = self.network.station
        now = self._barrier_time
        suppliers = sorted(merged)
        by_supplier: dict[int, list[tuple[int, float]]] = {}
        for supplier in suppliers:
            requests = sorted(merged[supplier])
            by_supplier[supplier] = requests
            station_of(supplier).messages_sent += len(requests)
        supplies = self.network.supply_reservations(now, by_supplier)
        replies_out: list[tuple[int, int, float]] = []
        for supplier in suppliers:
            for (target, _), value in zip(
                by_supplier[supplier], supplies[supplier]
            ):
                if owner[target] == self.index:
                    self._reply_values[(supplier, target)] = value
                else:
                    replies_out.append((supplier, target, value))
        self._local_requests = {}
        return replies_out

    def run_epoch(
        self, k: int, replies: list[tuple[int, int, float]]
    ) -> tuple[dict[int, list], dict[int, list]]:
        """Install Eq. 6, run to the epoch end, ship boundary batches.

        Returns ``(mirrors, migrations)``: the boundary batches keyed by
        destination shard.
        """
        for supplier, target, value in replies:
            self._reply_values[(supplier, target)] = value
        station = self.network.station
        neighbors = self.topology.neighbors
        reply_values = self._reply_values
        for cell in self._pending_install:
            contributions = [
                reply_values[(neighbor, cell)] for neighbor in neighbors(cell)
            ]
            target_station = station(cell)
            target_station.cell.reserved_target = aggregate_reservation(
                contributions
            )
            target_station.reservation_calculations += 1
        if self._pending_install:
            self.network.tick_flushes += 1
            self.network.tick_targets += len(self._pending_install)
        self._pending_install = []
        self._reply_values = {}
        until = min((k + 1) * self.epoch, self.duration)
        sampler = self.sampler
        observer = sampler.maybe_sample if sampler is not None else None
        run_started = wall_clock.perf_counter()
        with self.tracer.span("epoch.run", epoch=k, shard=self.index):
            self.engine.run(until=until, observer=observer)
        self._run_wall += wall_clock.perf_counter() - run_started
        if self.store.live > self.peak_live:
            self.peak_live = self.store.live
        with self.tracer.span("barrier.ship", epoch=k, shard=self.index):
            mirrors, migrations = self._ship(k, until)
        if sampler is not None and sampler.due(until):
            # Boundary sample (on the configured cadence, not every
            # epoch): tags the epoch and the fraction of shard wall time
            # spent waiting at barriers instead of running events.
            elapsed = wall_clock.perf_counter() - self._wall_started
            frac = 1.0 - self._run_wall / elapsed if elapsed > 0 else 0.0
            sampler.sample(epoch=k, barrier_wait_frac=round(frac, 4))
        return mirrors, migrations

    def _ship(
        self, k: int, until: float
    ) -> tuple[dict[int, list], dict[int, list]]:
        """Pop due boundary crossings and snapshot boundary mirrors."""
        station = self.network.station
        # Ship every boundary crossing landing in the next epoch.  The
        # epoch <= MIN_NOTICE bound guarantees anything landing later
        # than that is still undrawn or already heaped for a later
        # barrier.
        deadline = (k + 2) * self.epoch
        outgoing = self._outgoing
        store = self.store
        columns = store.columns
        owner = self.plan.owner
        migrations: dict[int, list] = {}
        while outgoing and outgoing[0][0] <= deadline:
            ctime, row, serial, dest = heapq.heappop(outgoing)
            if store.serial_of(row) != serial:
                continue  # connection already ended; row recycled
            payload = (
                ctime,
                dest,
                int(columns["cell"][row]),
                int(columns["birth_cell"][row]),
                int(columns["birth_seq"][row]),
                int(columns["hops"][row]),
                int(columns["heading"][row]),
                int(columns["pop"][row]),
                int(columns["bw_code"][row]),
                float(columns["end_time"][row]),
            )
            migrations.setdefault(owner[dest], []).append(payload)
        # Boundary mirrors: engine.now == until and nothing runs before
        # the next barrier, so these are the barrier-time values.
        mirrors: dict[int, list] = {}
        for target, cells in self.plan.boundary[self.index].items():
            mirrors[target] = [
                (
                    cell,
                    self._activity[cell],
                    station(cell).estimator.max_sojourn(until),
                )
                for cell in cells
            ]
        return mirrors, migrations

    # -- event handlers --------------------------------------------------
    def _on_arrival(self, cell_id: int) -> None:
        now = self.engine.now
        next_time = self._arrivals[cell_id].next_arrival(
            now, self._arrival_rngs[cell_id]
        )
        if next_time is not None and next_time <= self.duration:
            self.engine.call_at(
                next_time,
                ShardEngine._on_arrival,
                cell_id,
                priority=EventPriority.ARRIVAL,
            )
        index = self._arrival_index[cell_id]
        self._arrival_index[cell_id] = index + 1
        self._handle_request(cell_id, index, 1)

    def _handle_request(self, cell_id: int, arr_index: int, attempt: int) -> None:
        now = self.engine.now
        self.semantic_events += 1
        rng = _CoordStream(self.seed, _TAG_REQUEST, cell_id, arr_index, attempt)
        traffic_class = self.mix.sample(rng)
        cell = self._cells[cell_id]
        admitted = cell.fits_new_connection(traffic_class.bandwidth)
        metrics = self.metrics
        # record_admission_test(0, 0) inlined: the local test costs no
        # Eq. 6 calculations and no messages, only the counter moves.
        metrics.total_admission_tests += 1
        metrics.record_request(cell_id, now, blocked=not admitted)
        if not admitted:
            if self.retry.should_retry(attempt, rng):
                self.engine.call_in(
                    self.retry.delay,
                    ShardEngine._handle_request,
                    cell_id,
                    arr_index,
                    attempt + 1,
                    priority=EventPriority.ARRIVAL,
                )
            return
        pop_index, heading = draw_spawn(self.population, rng)
        lifetime = rng.expovariate(1.0 / self.config.mean_lifetime)
        row = self.store.alloc(
            now,
            now + lifetime,
            cell_id,
            -1,
            cell_id,
            arr_index,
            0,
            0 if traffic_class is VOICE else 1,
            pop_index,
            heading,
        )
        cell.attach_row(row)
        self._activity[cell_id] = True
        self._schedule_next(row)

    def _schedule_next(self, row: int) -> None:
        """Queue the row's one pending event (§5.1): its next boundary
        crossing if that comes strictly before its lifetime end, else
        the end (DEPARTURE fires before HANDOFF at equal times, so the
        loser could never have fired).

        Horizon clamp: the engine never fires an event past
        ``duration``, so scheduling one only grows the heap.  A
        connection outliving the run simply stays attached to the end
        — exactly what the unclamped schedule would produce — and a
        crossing past the run end would fire neither here nor, shipped,
        on the destination.
        """
        store = self.store
        columns = store.columns
        end_time = columns["end_time"][row]
        member = self.population[columns["pop"][row]]
        if member.mean_sojourn > 0:
            # The stream is keyed by birth coordinates + hop count, so
            # it is identical no matter which shard executes the hop.
            sojourn, index = draw_hop(
                member,
                columns["heading"][row],
                _CoordStream(
                    self.seed,
                    _TAG_HOP,
                    columns["birth_cell"][row],
                    columns["birth_seq"][row],
                    columns["hops"][row],
                ),
            )
            columns["heading"][row] = index
            ctime = self.engine.now + sojourn
            if ctime < end_time:
                if ctime <= self.duration:
                    neighbors = self._neighbors[columns["cell"][row]]
                    next_cell = neighbors[index % len(neighbors)]
                    serial = store.serial_of(row)
                    self.engine.call_at(
                        ctime,
                        ShardEngine._on_crossing,
                        row,
                        serial,
                        next_cell,
                        priority=EventPriority.HANDOFF,
                    )
                    if self.plan.owner[next_cell] != self.index:
                        heapq.heappush(
                            self._outgoing, (ctime, row, serial, next_cell)
                        )
                return
        if end_time <= self.duration:
            self.engine.call_at(
                end_time,
                ShardEngine._on_lifetime_end,
                row,
                priority=EventPriority.DEPARTURE,
            )

    def _on_crossing(self, row: int, serial: int, next_cell: int) -> None:
        store = self.store
        if store.serial_of(row) != serial:
            return
        now = self.engine.now
        columns = store.columns
        old_cell = columns["cell"][row]
        prev = columns["prev"][row]
        self._stations[old_cell].record_departure(
            now,
            None if prev < 0 else prev,
            next_cell,
            columns["entry_time"][row],
        )
        # Detach while the prev/entry_time columns still hold their
        # attach-time values (detach_row locates the reservation bucket
        # through them).
        self._cells[old_cell].detach_row(row)
        self._activity[old_cell] = True
        if self.plan.owner[next_cell] != self.index:
            # Departure half only: the arrival half was shipped at the
            # previous barrier and runs on the destination's owner.
            store.free(row)
            return
        self.semantic_events += 1
        dropped = not self._cells[next_cell].fits_handoff(
            BANDWIDTH_TABLE[columns["bw_code"][row]]
        )
        self._stations[next_cell].window.on_handoff(
            dropped, self._nms[next_cell], now
        )
        self.metrics.record_handoff(next_cell, now, dropped=dropped)
        self._activity[next_cell] = True
        if dropped:
            store.free(row)
            return
        columns["prev"][row] = old_cell
        columns["entry_time"][row] = now
        columns["cell"][row] = next_cell
        columns["hops"][row] += 1
        self._cells[next_cell].attach_row(row)
        self._schedule_next(row)

    def _on_migration(self, payload: tuple) -> None:
        (
            _,
            dest,
            old_cell,
            birth_cell,
            birth_seq,
            hops,
            heading,
            pop_index,
            bw_code,
            end_time,
        ) = payload
        now = self.engine.now
        self.semantic_events += 1
        dropped = not self._cells[dest].fits_handoff(
            BANDWIDTH_TABLE[bw_code]
        )
        self._stations[dest].window.on_handoff(
            dropped, self._nms[dest], now
        )
        self.metrics.record_handoff(dest, now, dropped=dropped)
        self._activity[dest] = True
        if dropped:
            return
        row = self.store.alloc(
            now,
            end_time,
            dest,
            old_cell,
            birth_cell,
            birth_seq,
            hops + 1,
            bw_code,
            pop_index,
            heading,
        )
        self._cells[dest].attach_row(row)
        self._schedule_next(row)

    def _on_lifetime_end(self, row: int) -> None:
        now = self.engine.now
        self.semantic_events += 1
        store = self.store
        cell_id = store.columns["cell"][row]
        self._cells[cell_id].detach_row(row)
        self.metrics.record_completion(cell_id, now)
        self._activity[cell_id] = True
        store.free(row)

    def _on_sample(self) -> None:
        now = self.engine.now
        warm = now >= self.config.warmup
        station = self.network.station
        for cell_id in self.owned:
            cell_station = station(cell_id)
            reserved = cell_station.cell.reserved_target
            used = cell_station.cell.used_bandwidth
            self.metrics.sample_cell(
                cell_id, now, reserved, used, cell_station.t_est
            )
            if warm:
                sums = self._sample_sums[cell_id]
                sums[0] += reserved
                sums[1] += used
                sums[2] += 1
        next_time = now + self.config.sample_interval
        if next_time <= self.duration:
            self.engine.call_at(
                next_time, ShardEngine._on_sample, priority=EventPriority.MONITOR
            )

    #: Every handler the shard schedules: the engine binds these to the
    #: shard for each run and holds the shard itself only weakly.
    HANDLERS = (
        _on_arrival,
        _handle_request,
        _on_migration,
        _on_crossing,
        _on_lifetime_end,
        _on_sample,
    )

    # -- finalisation ----------------------------------------------------
    def _harvest_telemetry(self) -> dict | None:
        tel = self.telemetry
        if not tel.enabled:
            return None
        harvest_telemetry(
            tel, self.engine, self.metrics, self.network, self.owned
        )
        tel.counter("spatial.semantic_events").inc(self.semantic_events)
        tel.gauge("spatial.store_bytes").set(self.store.nbytes)
        tel.gauge("spatial.peak_live_connections").set(self.peak_live)
        # Balance observables: this shard's executed events and its
        # planned load share, plus the fraction of wall time spent at
        # barriers instead of running events — the dashboard and the
        # `ac3_spatial` benches read imbalance off these.
        shard = str(self.index)
        tel.gauge("spatial.shard_events", shard=shard).set(
            self.semantic_events
        )
        loads = self.plan.loads
        total_load = sum(loads) if loads else 0.0
        if total_load > 0:
            tel.gauge("spatial.load_share", shard=shard).set(
                round(loads[self.index] / total_load, 6)
            )
        elapsed = wall_clock.perf_counter() - self._wall_started
        if elapsed > 0:
            tel.gauge("spatial.barrier_wait_frac", shard=shard).set(
                round(max(0.0, 1.0 - self._run_wall / elapsed), 4)
            )
        return tel.snapshot()

    def finish(self, collect_state: bool = False) -> ShardResult:
        series = None
        if self.sampler is not None:
            self.sampler.final()
            if self.config.series_enabled:
                series = self.sampler.series()
        trace = self.tracer.events()
        metrics = self.metrics
        statuses = cell_statuses(
            metrics, [self._stations[cell_id] for cell_id in self.owned]
        )
        hourly = {
            hour: (
                bucket.new_requests,
                bucket.blocked,
                bucket.handoff_attempts,
                bucket.handoff_drops,
            )
            for hour, bucket in metrics.hourly.items()
        }
        state = None
        if collect_state:
            state = {}
            for cell_id in self.owned:
                cache = getattr(
                    self.network.station(cell_id).estimator, "cache", None
                )
                if cache is None:
                    continue
                columns = cache.export_columns()
                if columns:
                    state[cell_id] = columns
        return ShardResult(
            index=self.index,
            cells={cell: metrics.cells[cell] for cell in self.owned},
            statuses=statuses,
            hourly=hourly,
            t_est_traces=dict(metrics.t_est_traces),
            reservation_traces=dict(metrics.reservation_traces),
            phd_traces=dict(metrics.phd_traces),
            sample_sums={
                cell: tuple(sums) for cell, sums in self._sample_sums.items()
            },
            admission_tests=metrics.total_admission_tests,
            calculations=metrics.total_calculations,
            messages=metrics.total_messages,
            events=self.semantic_events,
            telemetry=self._harvest_telemetry(),
            state=state,
            store_bytes=self.store.nbytes,
            peak_live=self.peak_live,
            series=series,
            trace=trace,
        )


# ----------------------------------------------------------------------
# shard hosts
# ----------------------------------------------------------------------
#: Barrier-protocol op -> :class:`ShardEngine` method.  Looked up on the
#: engine per call, so a wrapper installed on the class after a host was
#: built (the benchmark's layer tracing) still sees every call.
_SHARD_OPS = {
    "barrier": "barrier_begin",
    "evaluate": "evaluate",
    "epoch": "run_epoch",
    "finish": "finish",
}


def _shard_call(engine: "ShardEngine", op: str, args: tuple):
    name = _SHARD_OPS.get(op)
    if name is None:
        raise ValueError(f"unknown shard op {op!r}")
    return getattr(engine, name)(*args)


class LocalShardHost:
    """In-process shard host: the sequential reference executor.

    Runs the identical barrier protocol without processes — the N=1
    path, the determinism tests, and a zero-overhead fallback when the
    host has fewer cores than shards.
    """

    def __init__(self, config, plan, index, epoch):
        self._engine = ShardEngine(config, plan, index, epoch)
        self._pending = None

    def send(self, op: str, *args) -> None:
        self._pending = _shard_call(self._engine, op, args)

    def recv(self):
        pending, self._pending = self._pending, None
        return pending

    def close(self) -> None:
        pass


def _send_error(conn, error: Exception) -> None:
    """Ship ``error`` and its traceback text; an error that does not
    survive pickling travels as a ``RuntimeError`` naming its type."""
    import pickle
    import traceback

    remote = traceback.format_exc()
    try:
        pickle.loads(pickle.dumps(error))
    except Exception:  # each pickling failure has its own type
        error = RuntimeError(f"{type(error).__name__}: {error}")
    conn.send(("error", (error, remote)))


def _shard_worker(conn, config, plan, index, epoch) -> None:
    """Persistent worker process: one ShardEngine driven over a pipe."""
    import gc

    try:
        engine = ShardEngine(config, plan, index, epoch)
    except Exception as error:
        _send_error(conn, error)
        return
    # The network, topology, and estimator caches built above live for
    # the whole worker lifetime.  Freezing them keeps every later gen-2
    # collection from rescanning tens of thousands of immortal cell and
    # estimator objects each epoch, and (under fork) stops the collector
    # from touching inherited pages, preserving copy-on-write sharing.
    # No collection first: a finished run leaves no cyclic garbage for
    # the parent to hand down, and a full pass here cost 17-31 ms per
    # worker per run on the critical path.
    gc.freeze()
    while True:
        try:
            op, args = conn.recv()
        except EOFError:
            return
        if op == "stop":
            return
        try:
            value = _shard_call(engine, op, args)
        except Exception as error:
            _send_error(conn, error)
            return
        conn.send(("ok", value))


#: What a pipe raises once the process at its other end is gone.
_WORKER_GONE = (EOFError, ConnectionResetError, BrokenPipeError)


class ProcessShardHost:
    """A shard in a persistent worker process, driven over a Pipe.

    The coordinator sends one command per barrier phase to every host
    before collecting any reply, so shards run their epochs in
    parallel.
    """

    def __init__(self, config, plan, index, epoch, ctx):
        parent_conn, child_conn = ctx.Pipe()
        self._conn = parent_conn
        self._index = index
        self._op = "build"
        self._process = ctx.Process(
            target=_shard_worker,
            args=(child_conn, config, plan, index, epoch),
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def _worker_died(self) -> RuntimeError:
        self._process.join(timeout=1)
        return RuntimeError(
            f"shard {self._index} worker died during {self._op!r}"
            f" (exit code {self._process.exitcode})"
        )

    def send(self, op: str, *args) -> None:
        self._op = op
        try:
            self._conn.send((op, args))
        except _WORKER_GONE as error:
            raise self._worker_died() from error

    def recv(self):
        try:
            status, value = self._conn.recv()
        except _WORKER_GONE as error:
            raise self._worker_died() from error
        if status != "ok":
            # The worker's own exception, as an in-process shard would
            # raise it (a corrupt warm-start blob stays a
            # StateCorruptionError), caused by the remote traceback.
            error, remote = value
            raise error from RuntimeError(
                f"in shard {self._index} worker during {self._op!r}:\n{remote}"
            )
        return value

    def close(self) -> None:
        try:
            self._conn.send(("stop", ()))
        except (BrokenPipeError, OSError):  # pragma: no cover - dying worker
            pass
        self._process.join(timeout=10)
        if self._process.is_alive():  # pragma: no cover - hung worker
            self._process.terminate()
            self._process.join(timeout=5)
        self._conn.close()


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
def _merge_results(
    config: SimulationConfig,
    plan: ShardPlan,
    results: list[ShardResult],
    wall_seconds: float,
) -> SimulationResult:
    """Merge shard results in cell-id order (shard-count-invariant)."""
    num_cells = len(plan.owner)
    by_cell_counters = {}
    for result in results:
        by_cell_counters.update(result.cells)
    cells = [by_cell_counters[cell] for cell in range(num_cells)]
    statuses = sorted(
        (status for result in results for status in result.statuses),
        key=lambda status: status.cell_id,
    )
    reservation_sum = 0.0
    used_sum = 0.0
    samples = 0
    sample_sums = {}
    for result in results:
        sample_sums.update(result.sample_sums)
    for cell in range(num_cells):
        cell_res, cell_used, cell_samples = sample_sums[cell]
        reservation_sum += cell_res
        used_sum += cell_used
        samples += cell_samples
    tests = sum(result.admission_tests for result in results)
    calculations = sum(result.calculations for result in results)
    messages = sum(result.messages for result in results)
    hourly_totals: dict[int, list[int]] = {}
    for result in results:
        for hour, values in result.hourly.items():
            bucket = hourly_totals.setdefault(hour, [0, 0, 0, 0])
            for position in range(4):
                bucket[position] += values[position]
    hourly = [
        HourlyBucket(hour, *hourly_totals[hour])
        for hour in sorted(hourly_totals)
    ]
    t_est_traces = {}
    reservation_traces = {}
    phd_traces = {}
    for result in results:
        t_est_traces.update(result.t_est_traces)
        reservation_traces.update(result.reservation_traces)
        phd_traces.update(result.phd_traces)
    by_shard = sorted(results, key=lambda result: result.index)
    shard_events = tuple(result.events for result in by_shard)
    events = sum(shard_events)
    if config.sample_interval > 0:
        events += int(config.duration / config.sample_interval + 1e-9)
    snapshots = [
        result.telemetry for result in results if result.telemetry is not None
    ]
    return SimulationResult(
        label=config.label or config.scheme,
        scheme=admission_policy(config).name,
        offered_load=config.offered_load,
        duration=config.duration,
        warmup=config.warmup,
        num_cells=num_cells,
        cells=cells,
        statuses=statuses,
        average_reservation=reservation_sum / samples if samples else 0.0,
        average_used=used_sum / samples if samples else 0.0,
        average_calculations=calculations / tests if tests else 0.0,
        average_messages=messages / tests if tests else 0.0,
        total_admission_tests=tests,
        hourly=hourly,
        t_est_traces=t_est_traces,
        reservation_traces=reservation_traces,
        phd_traces=phd_traces,
        events_processed=events,
        wall_seconds=wall_seconds,
        run_id=config.run_id or new_run_id(),
        telemetry=merge_snapshots(snapshots) if snapshots else None,
        timeseries=merge_series(result.series for result in results),
        trace_events=merge_traces(result.trace for result in results),
        shard_events=shard_events,
    )


def _resolve_plan(config: SimulationConfig, shards: int) -> ShardPlan:
    """The run's shard plan: row bands balanced by the scenario's
    per-cell weights when present."""
    rows, cols, wrap = _hex_dimensions(config)
    return partition_hex(
        HexTopology(rows, cols, wrap=wrap), shards, cell_load_weights(config)
    )


def run_spatial(
    config: SimulationConfig,
    shards: int,
    *,
    processes: bool | None = None,
    epoch: float = 1.0,
    collect_state: bool = False,
    plan_kind: str = "load",
):
    """Run a hex city across ``shards`` shard regions.

    ``processes=None`` uses worker processes whenever ``shards > 1``;
    ``False`` forces the in-process sequential hosts (tests, or
    core-starved machines); ``True`` forces one process per shard.
    ``plan_kind`` names the one partition, ``"load"``
    (:func:`partition_hex`), and refuses any other.
    Returns the merged :class:`SimulationResult` — bit-identical in
    :meth:`~SimulationResult.metrics_key` for every shard count and
    every cut — or a ``(result, state)`` pair when ``collect_state`` is
    set, where ``state`` maps every cell to its exported quadruplet
    columns.
    """
    if plan_kind != "load":
        raise ValueError(
            f"unknown shard-plan kind {plan_kind!r}; the one plan is 'load'"
        )
    check_spatial_config(config, epoch)
    plan = _resolve_plan(config, shards)
    if processes is None:
        processes = shards > 1
    started = wall_clock.perf_counter()
    hosts = []
    try:
        if processes:
            # The engine is built inside the worker from the pickled
            # plan, so the start method never affects results.
            ctx = process_context()
            hosts = [
                ProcessShardHost(config, plan, index, epoch, ctx)
                for index in range(shards)
            ]
        else:
            hosts = [
                LocalShardHost(config, plan, index, epoch)
                for index in range(shards)
            ]
        epochs = max(1, -int(-config.duration // epoch))
        pending = [({}, {}) for _ in range(shards)]
        for k in range(epochs):
            mirrors_for = [[] for _ in range(shards)]
            migrations_for = [[] for _ in range(shards)]
            for shard_mirrors, shard_migrations in pending:
                for target, items in shard_mirrors.items():
                    mirrors_for[target].extend(items)
                for target, items in shard_migrations.items():
                    migrations_for[target].extend(items)
            for items in migrations_for:
                # Deterministic scheduling order no matter which source
                # shard shipped each hand-off.
                items.sort()
            for index, host in enumerate(hosts):
                host.send("barrier", k, mirrors_for[index], migrations_for[index])
            request_batches = [host.recv() for host in hosts]
            requests_for = [[] for _ in range(shards)]
            for batch in request_batches:
                for supplier, target, t_est in batch:
                    requests_for[plan.owner[supplier]].append(
                        (supplier, target, t_est)
                    )
            for index, host in enumerate(hosts):
                host.send("evaluate", requests_for[index])
            reply_batches = [host.recv() for host in hosts]
            replies_for = [[] for _ in range(shards)]
            for batch in reply_batches:
                for supplier, target, value in batch:
                    replies_for[plan.owner[target]].append(
                        (supplier, target, value)
                    )
            for index, host in enumerate(hosts):
                host.send("epoch", k, replies_for[index])
            pending = [host.recv() for host in hosts]
        for host in hosts:
            host.send("finish", collect_state)
        results = [host.recv() for host in hosts]
    finally:
        for host in hosts:
            host.close()
    wall_seconds = wall_clock.perf_counter() - started
    merged = _merge_results(config, plan, results, wall_seconds)
    if collect_state:
        state = {}
        for result in results:
            state.update(result.state or {})
        return merged, state
    return merged
