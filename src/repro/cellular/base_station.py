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
        reservation_cache: bool = True,
    ) -> None:
        self.cell = cell
        self.network = network
        self.estimator = estimator
        self.window = window_controller
        #: Number of times this station computed its own ``B_r`` (Eq. 6).
        self.reservation_calculations = 0
        #: Inter-BS (or BS<->MSC) messages attributable to this station.
        self.messages_sent = 0
        #: Whether Eq. 5 runs over the cell's columnar structures (the
        #: table under the grouped flush, its ``prev``-buckets on the
        #: batched reference paths).  Disabling falls back to the naive
        #: rescan-everything path — useful to verify equivalence.
        self.reservation_cache_enabled = reservation_cache
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
        """Eq. 5: expected hand-off bandwidth from here toward a neighbour.

        The cell's columnar ``prev``-buckets
        (:meth:`repro.cellular.cell.Cell.reservation_groups`) are handed
        to the estimator, which evaluates each bucket against one F_HOE
        snapshot in a single batched pass — vectorized under the numpy
        kernel, a resumable binary-search walk otherwise.  With the
        batched path disabled (or a duck-typed estimator that predates
        it), Eq. 5 rescans every connection individually; both paths are
        bit-identical.
        """
        if (
            not self.reservation_cache_enabled
            or getattr(self.estimator, "version", None) is None
        ):
            return expected_handoff_bandwidth(
                self.estimator,
                now,
                self.cell.connections(),
                target_cell,
                t_est,
            )
        return expected_handoff_bandwidth(
            self.estimator,
            now,
            self.cell.connections(),
            target_cell,
            t_est,
            groups=self.cell.reservation_groups(),
        )

    def outgoing_reservation_multi(
        self, now: float, requests: list[tuple[int, float]]
    ) -> list[float]:
        """Batched :meth:`outgoing_reservation` over several targets.

        The coalesced estimation tick asks each supplier for all of its
        pending ``(target_cell, t_est)`` contributions at once, so the
        estimator can walk every ``prev``-bucket a single time and feed
        the Eq. 4 kernel one large batch instead of one batch per
        target.  The returned values are identical to issuing the
        per-target calls in order at the same ``now``.
        """
        estimator = self.estimator
        multi = getattr(estimator, "expected_bandwidth_multi", None)
        if (
            not self.reservation_cache_enabled
            or getattr(estimator, "version", None) is None
            or multi is None
        ):
            # Batched path disabled or a duck-typed / calendar estimator
            # without a batched entry point: per-target calls are the
            # batched path, by definition of equivalence.
            return [
                self.outgoing_reservation(now, target, t_est)
                for target, t_est in requests
            ]
        return multi(
            now,
            self.cell.connections(),
            requests,
            groups=self.cell.reservation_groups(),
        )

    def grouped_contribution_eval(self, np, now, requests, batch):
        """Register this supplier's Eq. 5 work into a cross-cell flush.

        Returns one slot per ``(target_cell, t_est)`` request: an index
        into the list ``batch.resolve()`` returns, or ``None`` when the
        contribution is known to be 0.0 (no connections, or
        ``t_est <= 0``).  Returns ``None`` *instead of a list* when
        this supplier cannot join the grouped flush (batched path
        disabled, duck-typed estimator, route oracle, finite ``T_int``
        or non-unit weights); the caller must then use
        :meth:`outgoing_reservation_multi`, which computes bit-identical
        values supplier-locally.
        """
        if not self.reservation_cache_enabled:
            return None
        estimator = self.estimator
        parts = getattr(estimator, "grouped_flush_parts", None)
        if parts is None or getattr(estimator, "version", None) is None:
            return None
        cell = self.cell
        if not cell.connection_count:
            return [None] * len(requests)
        return parts(np, now, requests, cell.reservation_table(np), batch)

    def update_target_reservation(self, now: float) -> float:
        """Eq. 6: recompute and install this cell's ``B_r``.

        Models the protocol of §4.1: this BS announces ``T_est`` to each
        neighbour (one message each), every neighbour answers with its
        Eq. 5 contribution (one message each).
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
