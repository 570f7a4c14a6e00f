"""The cellular network: cells, topology, and their base stations.

The network owns the adjacency.  Every exchange that walks a cell's
neighbours — the coalesced reservation tick, the literal §4.1 Eq. 6
update it is tested against, ``T_soj,max`` for a hand-off's window
controller — is a network method taking the cell id.  References run
one way, network → stations → cells and estimators: no station points
back at the network or at another station, so a dropped network is
freed by reference counting.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro._kernel import FlushBatch
from repro.cellular.base_station import BaseStation
from repro.core.reservation import aggregate_reservation
from repro.cellular.cell import Cell
from repro.cellular.topology import Topology
from repro.core.window import EstimationWindowController, WindowControllerConfig
from repro.estimation.cache import CacheConfig
from repro.estimation.estimator import MobilityEstimator
from repro.obs.telemetry import NullTelemetry
from repro.obs.trace import NullTraceCollector


class CellularNetwork:
    """A set of cells wired together by a topology.

    Parameters
    ----------
    topology:
        Adjacency (and, for 1-D roads, geometry) of the cells.
    capacity:
        Wireless link capacity per cell in BUs (A6: 100), or a callable
        mapping cell id to capacity for heterogeneous deployments.
    cache_config:
        Estimator cache parameters shared by all stations.
    window_config:
        Window-controller parameters shared by all stations.
    estimator_factory:
        Override to plug a custom estimator (e.g. ``KnownPathEstimator``).
    cell_factory:
        Override to plug a custom :class:`Cell` subclass — called as
        ``cell_factory(cell_id, capacity, handoff_overload)``.  The
        spatial runner uses this to build
        :class:`~repro.simulation.columnar.ColumnarCell` cells whose
        attached sets live in a shared connection store.
    """

    def __init__(
        self,
        topology: Topology,
        capacity: float | Callable[[int], float] = 100.0,
        cache_config: CacheConfig | None = None,
        window_config: WindowControllerConfig | None = None,
        estimator_factory: Callable[[int], MobilityEstimator] | None = None,
        cell_factory: Callable[[int, float, float], Cell] | None = None,
        handoff_overload: float = 1.0,
    ) -> None:
        for cell_id in range(topology.num_cells):
            neighbors = topology.neighbors(cell_id)
            if cell_id in neighbors or len(set(neighbors)) != len(neighbors):
                # AC2/AC3 refresh a cell and its neighbours in one tick,
                # each target once; a repeated or self neighbour would
                # put a cell in that set twice.
                raise ValueError(
                    f"topology lists cell {cell_id}'s neighbours as"
                    f" {tuple(neighbors)}: a cell's neighbours must be"
                    f" distinct and exclude the cell itself"
                )
        self.topology = topology
        #: The run's registry and span tracer: no-ops until
        #: :meth:`instrument` hands the network a run's.
        self.telemetry = NullTelemetry()
        self.tracer = NullTraceCollector()
        #: Cells whose ``B_r`` must be refreshed at the next tick flush.
        self._reservation_dirty: list[int] = []
        #: Tick flushes performed / targets refreshed across them
        #: (telemetry: targets-per-flush is the coalescing win).
        self.tick_flushes = 0
        self.tick_targets = 0
        #: Suppliers answered by the cross-cell batch vs by the scalar
        #: walk, across all tick flushes.
        self.tick_grouped_suppliers = 0
        self.tick_fallback_suppliers = 0
        #: Row-requests the batch read inside a window
        #: (:attr:`repro._kernel.FlushBatch.window_rows`).  Observation
        #: only, like the batch-size histogram: checkpoints do not carry
        #: it, so a restored run counts from its restore.
        self.tick_window_rows = 0
        #: Running inter-BS message total (kept in sync with the
        #: per-station ``messages_sent`` counters wherever those are
        #: counted, so the per-admission message deltas need no sweep
        #: over all stations).
        self._messages_total = 0
        self.cells: list[Cell] = []
        self.stations: list[BaseStation] = []
        for cell_id in range(topology.num_cells):
            if callable(capacity):
                cell_capacity = capacity(cell_id)
            else:
                cell_capacity = float(capacity)
            if cell_factory is not None:
                cell = cell_factory(cell_id, cell_capacity, handoff_overload)
            else:
                cell = Cell(
                    cell_id, cell_capacity, handoff_overload=handoff_overload
                )
            if estimator_factory is not None:
                estimator = estimator_factory(cell_id)
            else:
                estimator = MobilityEstimator(cache_config)
            controller = EstimationWindowController(
                window_config or WindowControllerConfig()
            )
            self.cells.append(cell)
            self.stations.append(BaseStation(cell, estimator, controller))
        # Per cell, built on first use (a sharded city's network never
        # asks for most of them): its neighbour stations; its
        # ``T_soj,max`` as a function of ``now``, closed over that list
        # rather than over the network; and whether that bound may be
        # asked on demand, decided on the cell's first hand-off from the
        # estimators its neighbours have by then.
        self._neighbor_stations: list[list[BaseStation] | None] = [
            None
        ] * topology.num_cells
        self._max_sojourn: list[Callable[[float], float] | None] = [
            None
        ] * topology.num_cells
        self._bound_on_demand = [False] * topology.num_cells

    def instrument(self, telemetry, tracer) -> None:
        """Record into one run's ``telemetry`` and ``tracer``.

        The tick flush opens its spans on ``tracer``; each station's
        :class:`MobilityEstimator` observes its Eq. 5 batch sizes into
        ``telemetry``'s ``estimation.eq4_batch_rows`` histogram.
        """
        self.telemetry = telemetry
        self.tracer = tracer
        histogram = telemetry.histogram("estimation.eq4_batch_rows")
        for station in self.stations:
            if isinstance(station.estimator, MobilityEstimator):
                station.estimator.batch_rows_histogram = histogram

    @property
    def num_cells(self) -> int:
        return self.topology.num_cells

    def cell(self, cell_id: int) -> Cell:
        """Cell by id."""
        return self.cells[cell_id]

    def station(self, cell_id: int) -> BaseStation:
        """Base station by cell id."""
        return self.stations[cell_id]

    def neighbors(self, cell_id: int) -> tuple[int, ...]:
        """Adjacent cell ids."""
        return tuple(self.topology.neighbors(cell_id))

    def neighbor_stations(self, cell_id: int) -> list[BaseStation]:
        """Base stations of the cells adjacent to ``cell_id`` (``A_0``)."""
        stations = self._neighbor_stations[cell_id]
        if stations is None:
            stations = self._neighbor_stations[cell_id] = [
                self.stations[neighbor]
                for neighbor in self.topology.neighbors(cell_id)
            ]
        return stations

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    # ------------------------------------------------------------------
    # coalesced estimation tick
    # ------------------------------------------------------------------
    def mark_reservation_dirty(self, cell_id: int) -> None:
        """Queue a cell's ``B_r`` refresh for the next tick flush."""
        self._reservation_dirty.append(cell_id)

    def flush_reservation_tick(self, now: float) -> None:
        """Refresh every dirty cell's ``B_r`` in one batched pass.

        Equivalent (bit-for-bit, message-for-message) to calling
        ``update_target_reservation(now)`` on each dirty station in
        queue order: within a single admission test at a fixed ``now``
        the Eq. 5 inputs (connection sets, ``T_est``, estimator state)
        are frozen — installing one target's ``reserved_target`` cannot
        change another's contributions.  The batching win is on the
        supplier side: each supplier evaluates all of its pending
        targets at once (:meth:`supply_reservations`).
        """
        dirty = self._reservation_dirty
        if not dirty:
            return
        tracer = self.tracer
        if not tracer.enabled:
            self._flush_tick(now, dirty)
            return
        with tracer.span("kernel.flush_tick", targets=len(dirty)):
            self._flush_tick(now, dirty)

    def _flush_tick(self, now: float, dirty: list[int]) -> None:
        self._reservation_dirty = []
        # Plan phase: count the protocol messages in the exact sequential
        # order (announce then reply, per target then per neighbour) and
        # bucket the Eq. 5 requests by supplier.
        plan: list[tuple[BaseStation, list[BaseStation]]] = []
        requests: dict[int, list[tuple[int, float]]] = {}
        message_pairs = 0
        for cell_id in dirty:
            station = self.stations[cell_id]
            neighbors = self.neighbor_stations(cell_id)
            plan.append((station, neighbors))
            for neighbor in neighbors:
                station.messages_sent += 1  # announce T_est
                requests.setdefault(neighbor.cell_id, []).append(
                    (cell_id, station.t_est)
                )
                neighbor.messages_sent += 1  # neighbour returns B_{i,0}
                message_pairs += 1
        self._messages_total += 2 * message_pairs
        supplies = {
            supplier_id: iter(values)
            for supplier_id, values in self.supply_reservations(
                now, requests
            ).items()
        }
        # Install phase: re-assemble each target's contributions in the
        # neighbour order the sequential path would have used.
        for station, neighbors in plan:
            contributions = [
                next(supplies[neighbor.cell_id]) for neighbor in neighbors
            ]
            station.cell.reserved_target = aggregate_reservation(
                contributions
            )
            station.reservation_calculations += 1
        self.tick_flushes += 1
        self.tick_targets += len(plan)

    def update_target_reservation(self, cell_id: int, now: float) -> float:
        """Eq. 6: recompute and install ``cell_id``'s ``B_r``.

        The literal transcription of §4.1: the cell's BS announces
        ``T_est`` to each neighbour (one message each), every neighbour
        answers with its Eq. 5 contribution (one message each).  The
        policies go through the batched :meth:`flush_reservation_tick`
        instead; this is what that tick is tested against.
        """
        station = self.stations[cell_id]
        contributions = []
        for neighbor in self.neighbor_stations(cell_id):
            station.messages_sent += 1  # announce T_est to the neighbour
            contributions.append(
                neighbor.outgoing_reservation(now, cell_id, station.t_est)
            )
            neighbor.messages_sent += 1  # neighbour returns B_{i,0}
            self._messages_total += 2
        reservation = aggregate_reservation(contributions)
        station.cell.reserved_target = reservation
        station.reservation_calculations += 1
        return reservation

    def supply_reservations(
        self, now: float, requests: dict[int, list[tuple[int, float]]]
    ) -> dict[int, list[float]]:
        """Eq. 5 for every supplier of one tick.

        ``requests`` maps a supplier's cell id to its pending
        ``(target_cell, t_est)`` list; the result maps it to one value
        per request.  Each supplier registers its cell's ``prev``
        buckets and its cache's live sorted lists into one cross-cell
        :class:`repro._kernel.FlushBatch`, walked once, building
        nothing.  A supplier that cannot join (finite ``T_int``,
        non-unit weights, route oracle, duck-typed estimator) is
        answered by the snapshot walk
        (:meth:`~repro.cellular.base_station.BaseStation.outgoing_reservation_multi`);
        mixing the two never changes a result.
        """
        supplies: dict[int, list[float]] = {}
        batch = FlushBatch()
        deferred: list[tuple[int, list]] = []
        for supplier_id, pending in requests.items():
            supplier = self.stations[supplier_id]
            slots = supplier.grouped_contribution_eval(now, pending, batch)
            if slots is None:
                self.tick_fallback_suppliers += 1
                supplies[supplier_id] = supplier.outgoing_reservation_multi(
                    now, pending
                )
            else:
                self.tick_grouped_suppliers += 1
                deferred.append((supplier_id, slots))
        if deferred:
            totals = batch.resolve()
            self.tick_window_rows += batch.window_rows
            for supplier_id, slots in deferred:
                supplies[supplier_id] = [
                    0.0 if slot is None else totals[slot] for slot in slots
                ]
        return supplies

    # ------------------------------------------------------------------
    # hand-off bookkeeping
    # ------------------------------------------------------------------
    def neighborhood_max_sojourn(self, cell_id: int, now: float) -> float:
        """``T_soj,max``: largest sojourn in the estimators of
        ``cell_id``'s neighbours."""
        return _max_sojourn_over(self.neighbor_stations(cell_id))(now)

    def on_handoff_arrival(self, cell_id: int, dropped: bool, now: float) -> None:
        """Feed ``cell_id``'s window controller for a hand-off into it.

        ``T_soj,max`` goes in as the function that computes it, and the
        controller asks only on the Figure 6 line that reads the bound —
        provided every neighbour answers from resident columns.  A
        neighbour with a finite ``T_int`` answers from its per-``prev``
        snapshots and re-cuts the stale ones as it goes, which later
        Eq. 4 queries then see: skipping the question would move those
        runs' results, so for them it is still asked on every hand-off.
        """
        bound = self._max_sojourn[cell_id]
        if bound is None:
            neighbors = self.neighbor_stations(cell_id)
            bound = self._max_sojourn[cell_id] = _max_sojourn_over(neighbors)
            self._bound_on_demand[cell_id] = all(
                getattr(neighbor.estimator, "max_sojourn_is_resident", False)
                for neighbor in neighbors
            )
        if not self._bound_on_demand[cell_id]:
            bound = bound(now)
        self.stations[cell_id].window.on_handoff(dropped, bound, now)

    def harvest_telemetry(self, tel, cell_ids=None) -> None:
        """Fold the stations' plain-int counters into ``tel``.

        The end-of-run harvest every runner shares: ``cell_ids`` limits
        it to the cells a runner owns (a shard's network carries every
        cell of the city but drives only its own).
        """
        stations = (
            self.stations
            if cell_ids is None
            else [self.stations[cell_id] for cell_id in cell_ids]
        )
        messages = updates = 0
        steps_up = steps_down = window_handoffs = window_drops = 0
        snap_hits = snap_builds = snap_invalidations = 0
        resident_batches = walk_batches = resident_rows = walk_rows = 0
        for station in stations:
            messages += station.messages_sent
            updates += station.reservation_calculations
            controller = station.window
            window_handoffs += controller.total_handoffs
            window_drops += controller.total_drops
            for adjustment in controller.adjustments:
                if adjustment.increased:
                    steps_up += 1
                else:
                    steps_down += 1
            tel.gauge("window.t_est", cell=str(station.cell_id)).set(
                controller.t_est
            )
            # Custom estimators (estimator_factory overrides) may not
            # carry the standard counters; treat absences as zero.
            estimator = station.estimator
            snap_hits += getattr(estimator, "snapshot_hits", 0)
            snap_builds += getattr(estimator, "snapshot_builds", 0)
            snap_invalidations += getattr(
                estimator, "snapshot_invalidations", 0
            )
            resident_batches += getattr(estimator, "eq4_resident_batches", 0)
            walk_batches += getattr(estimator, "eq4_walk_batches", 0)
            resident_rows += getattr(estimator, "eq4_resident_rows", 0)
            walk_rows += getattr(estimator, "eq4_walk_rows", 0)
        tel.counter("cellular.messages_sent").inc(messages)
        tel.counter("cellular.reservation_updates").inc(updates)
        tel.counter("cellular.tick_flushes").inc(self.tick_flushes)
        tel.counter("cellular.tick_targets").inc(self.tick_targets)
        tel.counter("cellular.tick_suppliers", path="grouped").inc(
            self.tick_grouped_suppliers
        )
        tel.counter("cellular.tick_suppliers", path="fallback").inc(
            self.tick_fallback_suppliers
        )
        tel.counter("window.t_est_steps", direction="up").inc(steps_up)
        tel.counter("window.t_est_steps", direction="down").inc(steps_down)
        tel.counter("window.handoffs").inc(window_handoffs)
        tel.counter("window.drops").inc(window_drops)
        tel.counter("estimation.snapshot", outcome="hit").inc(snap_hits)
        tel.counter("estimation.snapshot", outcome="build").inc(snap_builds)
        tel.counter("estimation.snapshot_invalidations").inc(
            snap_invalidations
        )
        tel.counter("estimation.eq4_batches", path="resident").inc(
            resident_batches
        )
        tel.counter("estimation.eq4_batches", path="walk").inc(walk_batches)
        tel.counter("estimation.eq4_rows", path="resident").inc(resident_rows)
        tel.counter("estimation.eq4_rows", path="walk").inc(walk_rows)
        tel.counter("estimation.eq4_window_rows").inc(self.tick_window_rows)

    def total_used_bandwidth(self) -> float:
        """Bandwidth in use across the whole network (BUs)."""
        return sum(cell.used_bandwidth for cell in self.cells)

    def total_messages(self) -> int:
        """Inter-BS messages sent by all stations so far (O(1))."""
        return self._messages_total

    def recount_messages(self) -> int:
        """Rebuild the running message total from the per-station
        counters (used after checkpoint restore overwrites them)."""
        self._messages_total = sum(
            station.messages_sent for station in self.stations
        )
        return self._messages_total

    def total_reservation_calculations(self) -> int:
        """``B_r`` (Eq. 6) computations performed by all stations so far."""
        return sum(
            station.reservation_calculations for station in self.stations
        )


def _max_sojourn_over(stations: list[BaseStation]) -> Callable[[float], float]:
    """``T_soj,max`` over ``stations``' estimators, as a function of
    ``now``; each call reads the estimator a station has then."""

    def max_sojourn(now: float) -> float:
        maximum = 0.0
        for station in stations:
            maximum = max(maximum, station.estimator.max_sojourn(now))
        return maximum

    return max_sojourn
