"""Base station: the per-cell control-plane of the scheme.

Each :class:`BaseStation` owns its cell's mobility estimator (§3) and
estimation-window controller (§4.2), answers its neighbours' Eq. 5
questions over its own connections, and records every departure as a
quadruplet in the estimator.

A station knows only its own cell.  The §4.1 exchanges that walk a
cell's neighbours — the Eq. 6 update, ``T_soj,max`` for the window
controller — live on the :class:`~repro.cellular.network.CellularNetwork`,
which owns the adjacency: a station holds no reference to the network
or to another station, so the network's stations point into a run and
never back out of it.

Inter-BS message exchanges are counted per station so the
star-vs-full-mesh signaling comparison (Figure 1) and the ``N_calc``
complexity metric (Figure 13) can be reported.
"""

from __future__ import annotations

from repro.cellular.cell import Cell
from repro.core.reservation import expected_handoff_bandwidth
from repro.core.window import EstimationWindowController
from repro.estimation.estimator import MobilityEstimator

#: Sentinel "next cell" for mobiles driving off an open road's ends.
EXIT_CELL = -1


class BaseStation:
    """Controller of one cell.

    Parameters
    ----------
    cell:
        The radio cell this station serves.
    estimator:
        This cell's mobility estimator.
    window_controller:
        This cell's adaptive ``T_est`` controller.
    """

    def __init__(
        self,
        cell: Cell,
        estimator: MobilityEstimator,
        window_controller: EstimationWindowController,
    ) -> None:
        self.cell = cell
        self.estimator = estimator
        self.window = window_controller
        #: Number of times this station computed its own ``B_r`` (Eq. 6).
        self.reservation_calculations = 0
        #: Inter-BS (or BS<->MSC) messages attributable to this station.
        self.messages_sent = 0

    @property
    def cell_id(self) -> int:
        return self.cell.cell_id

    @property
    def t_est(self) -> float:
        """Current estimation window ``T_est`` of this cell (seconds)."""
        return self.window.t_est

    # ------------------------------------------------------------------
    # Eq. 5: this cell's answers to its neighbours
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

    # ------------------------------------------------------------------
    # hand-off bookkeeping
    # ------------------------------------------------------------------
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
