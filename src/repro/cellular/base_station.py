"""Base station: the per-cell control-plane of the scheme.

Each :class:`BaseStation` owns its cell's mobility estimator (§3) and
estimation-window controller (§4.2), and implements the distributed
reservation protocol of §4.1:

* when *this* cell needs ``B_r`` updated, it informs its neighbours of
  its current ``T_est`` and each neighbour computes Eq. 5 over its own
  connections; the results are aggregated with Eq. 6;
* every hand-off arrival (success or drop) feeds the window controller;
* every departure is recorded as a quadruplet in the estimator.

Inter-BS message exchanges are counted so the star-vs-full-mesh
signaling comparison (Figure 1) and the ``N_calc`` complexity metric
(Figure 13) can be reported.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cellular.cell import Cell
from repro.core.reservation import (
    aggregate_reservation,
    expected_handoff_bandwidth,
)
from repro.core.window import EstimationWindowController
from repro.estimation.estimator import MobilityEstimator

if TYPE_CHECKING:  # pragma: no cover
    from repro.cellular.network import CellularNetwork

#: Sentinel "next cell" for mobiles driving off an open road's ends.
EXIT_CELL = -1


class BaseStation:
    """Controller of one cell.

    Parameters
    ----------
    cell:
        The radio cell this station serves.
    network:
        Owning network (used to reach neighbouring stations).
    estimator:
        This cell's mobility estimator.
    window_controller:
        This cell's adaptive ``T_est`` controller.
    """

    def __init__(
        self,
        cell: Cell,
        network: "CellularNetwork",
        estimator: MobilityEstimator,
        window_controller: EstimationWindowController,
    ) -> None:
        self.cell = cell
        self.network = network
        self.estimator = estimator
        self.window = window_controller
        #: Number of times this station computed its own ``B_r`` (Eq. 6).
        self.reservation_calculations = 0
        #: Inter-BS (or BS<->MSC) messages attributable to this station.
        self.messages_sent = 0
        #: Cached neighbour stations (the topology is immutable).
        self._neighbor_stations: list["BaseStation"] | None = None
        #: Whether ``T_soj,max`` may be asked for on demand (decided on
        #: the first hand-off, once every neighbour station exists).
        self._bound_on_demand: bool | None = None

    @property
    def cell_id(self) -> int:
        return self.cell.cell_id

    @property
    def t_est(self) -> float:
        """Current estimation window ``T_est`` of this cell (seconds)."""
        return self.window.t_est

    def neighbor_stations(self) -> list["BaseStation"]:
        """Base stations of the adjacent cells (``A_0``)."""
        stations = self._neighbor_stations
        if stations is None:
            stations = self._neighbor_stations = [
                self.network.station(neighbor)
                for neighbor in self.network.topology.neighbors(self.cell_id)
            ]
        return stations

    # ------------------------------------------------------------------
    # distributed reservation (Eqs. 5-6)
    # ------------------------------------------------------------------
    def outgoing_reservation(self, now: float, target_cell: int,
                             t_est: float) -> float:
        """Eq. 5: expected hand-off bandwidth from here toward a neighbour."""
        return expected_handoff_bandwidth(
            self.estimator,
            now,
            self.cell.connections(),
            target_cell,
            t_est,
        )

    def outgoing_reservation_multi(
        self, now: float, requests: list[tuple[int, float]]
    ) -> list[float]:
        """:meth:`outgoing_reservation` toward several targets at once.

        A reservation tick asks each supplier for all of its pending
        ``(target_cell, t_est)`` contributions together, so the
        estimator walks the connections a single time.  The returned
        values are identical to issuing the per-target calls in order
        at the same ``now`` — which is what an estimator without the
        multi-request entry point (``CalendarEstimator``, duck-typed
        ones) gets.
        """
        multi = getattr(self.estimator, "expected_bandwidth_multi", None)
        if multi is None:
            return [
                self.outgoing_reservation(now, target, t_est)
                for target, t_est in requests
            ]
        return multi(now, self.cell.connections(), requests)

    def grouped_contribution_eval(self, now, requests, batch):
        """Register this supplier's Eq. 5 work into a cross-cell flush.

        Returns one slot per ``(target_cell, t_est)`` request: an index
        into the list ``batch.resolve()`` returns, or ``None`` when the
        contribution is known to be 0.0 (no connections, or
        ``t_est <= 0``).  Returns ``None`` *instead of a list* when
        this supplier cannot join the grouped flush (duck-typed
        estimator, route oracle, finite ``T_int`` or non-unit weights);
        the caller must then use :meth:`outgoing_reservation_multi`,
        which computes bit-identical values supplier-locally.
        """
        parts = getattr(self.estimator, "grouped_flush_parts", None)
        if parts is None:
            return None
        cell = self.cell
        if not cell.connection_count:
            return [None] * len(requests)
        return parts(now, requests, cell, batch)

    def update_target_reservation(self, now: float) -> float:
        """Eq. 6: recompute and install this cell's ``B_r``.

        The literal transcription of §4.1: this BS announces ``T_est``
        to each neighbour (one message each), every neighbour answers
        with its Eq. 5 contribution (one message each).  The policies
        go through the batched
        :meth:`~repro.cellular.network.CellularNetwork.flush_reservation_tick`
        instead; this is what that tick is tested against.
        """
        contributions = []
        network = self.network
        for neighbor in self.neighbor_stations():
            self.messages_sent += 1  # announce T_est to the neighbour
            contributions.append(
                neighbor.outgoing_reservation(now, self.cell_id, self.t_est)
            )
            neighbor.messages_sent += 1  # neighbour returns B_{i,0}
            network.count_messages(2)
        reservation = aggregate_reservation(contributions)
        self.cell.reserved_target = reservation
        self.reservation_calculations += 1
        return reservation

    # ------------------------------------------------------------------
    # hand-off bookkeeping
    # ------------------------------------------------------------------
    def neighborhood_max_sojourn(self, now: float) -> float:
        """``T_soj,max``: largest sojourn in the neighbours' estimators."""
        maximum = 0.0
        for neighbor in self.neighbor_stations():
            maximum = max(maximum, neighbor.estimator.max_sojourn(now))
        return maximum

    def on_handoff_arrival(self, dropped: bool, now: float) -> None:
        """Feed the window controller for a hand-off into this cell.

        ``T_soj,max`` goes in as the method that computes it, and the
        controller asks only on the Figure 6 line that reads the bound —
        provided every neighbour answers from resident columns.  A
        neighbour with a finite ``T_int`` answers from its per-``prev``
        snapshots and re-cuts the stale ones as it goes, which later
        Eq. 4 queries then see: skipping the question would move those
        runs' results, so for them it is still asked on every hand-off.
        """
        bound = self.neighborhood_max_sojourn
        on_demand = self._bound_on_demand
        if on_demand is None:
            on_demand = self._bound_on_demand = all(
                getattr(neighbor.estimator, "max_sojourn_is_resident", False)
                for neighbor in self.neighbor_stations()
            )
        if not on_demand:
            bound = bound(now)
        self.window.on_handoff(dropped, bound, now)

    def record_departure(
        self,
        now: float,
        prev: int | None,
        next_cell: int,
        entry_time: float,
    ) -> None:
        """Cache the quadruplet of a mobile that just left this cell."""
        self.estimator.record_departure(
            now, prev, next_cell, now - entry_time
        )
