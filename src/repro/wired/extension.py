"""The wired backbone plugged into admission.

Passed as ``CellularSimulator(config, backbone=...)``, it makes every
connection also occupy its BS-to-gateway route; admission and hand-offs
can fail on wired links, and (when predictive) the wireless per-cell
``B_r`` targets are pushed onto the wired links before each admission
test — the paper's §2/§7 wired-reservation extension, end to end.
"""

from __future__ import annotations

from repro.wired.reservation import WiredReservationManager


class WiredBackboneExtension:
    """Adapts :class:`WiredReservationManager` to the simulator hooks."""

    def __init__(self, manager: WiredReservationManager) -> None:
        self.manager = manager
        self._network = None

    # ------------------------------------------------------------------
    # the simulator's backbone hooks
    # ------------------------------------------------------------------
    def install(self, network) -> None:
        self._network = network
        missing = [
            cell.cell_id
            for cell in network.cells
            if self.manager.route_for_cell(cell.cell_id) is None
        ]
        if missing:
            raise ValueError(
                f"backbone has no gateway route for cells {missing}"
            )

    def _refresh_targets(self) -> None:
        if self._network is None or not self.manager.predictive:
            return
        self.manager.refresh_link_targets(
            {
                cell.cell_id: cell.reserved_target
                for cell in self._network.cells
            }
        )

    def admit_new(self, connection, cell_id: int, now: float) -> bool:
        self._refresh_targets()
        return self.manager.admit_new(
            connection.connection_id, cell_id, connection.bandwidth
        )

    def admit_handoff(
        self, connection, old_cell: int, new_cell: int, now: float
    ) -> bool:
        return self.manager.reroute(
            connection.connection_id, new_cell, connection.bandwidth
        )

    def on_connection_end(self, connection, now: float) -> None:
        self.manager.release(connection.connection_id)
