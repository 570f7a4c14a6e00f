"""Wired-path setup, hand-off re-routing and predictive link reservation.

Paper §2: a connection runs over wireless *and* wired links, and the
reservation idea extends to the wired side "by considering the routing
and re-routing inside the wired network".  Concretely:

* at admission, the connection's bandwidth is reserved on every link of
  the route from its BS to the gateway (its wired correspondent);
* on hand-off, the route is re-computed from the new BS; links shared
  between old and new routes keep their allocation, the difference is
  released/acquired (make-before-break on the shared suffix);
* each wired link maintains a *target reservation* — the expected
  bandwidth of hand-off re-routes about to land on it — computed from
  the cells' wireless ``B_r`` values: cell ``j``'s expected hand-off
  traffic will use the links of ``route(bs_j -> gateway)`` that its
  current routes do not already hold.

New connections must fit under ``capacity - reserved_target`` on every
link of their route; re-routes may use the reserved band — the same
asymmetry as the wireless Eq. 1.
"""

from __future__ import annotations

from repro.wired.graph import GATEWAY, BackboneGraph, bs_node
from repro.wired.link import WiredLink


class WiredReservationManager:
    """Owns routes and link reservations for all active connections.

    Parameters
    ----------
    graph:
        The backbone.
    predictive:
        If true, refresh each link's ``reserved_target`` from the
        wireless per-cell ``B_r`` values before admission tests (the
        §2 extension); if false, wired admission is plain best-effort
        capacity checking.
    """

    def __init__(self, graph: BackboneGraph, predictive: bool = True) -> None:
        self.graph = graph
        self.predictive = predictive
        self._routes: dict[int, list[str]] = {}
        self.setups = 0
        self.reroutes = 0
        self.wired_blocks = 0
        self.wired_drops = 0

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------
    def route_for_cell(self, cell_id: int) -> list[str] | None:
        """Route a connection in ``cell_id`` would use (BS -> gateway)."""
        node = bs_node(cell_id)
        if not (self.graph.has_node(node) and self.graph.has_node(GATEWAY)):
            return None
        return self.graph.shortest_path(node, GATEWAY)

    def route_of(self, connection_id: int) -> list[str] | None:
        """The route currently held by a connection."""
        return self._routes.get(connection_id)

    # ------------------------------------------------------------------
    # admission / teardown
    # ------------------------------------------------------------------
    def admit_new(self, connection_id: int, cell_id: int,
                  bandwidth: float) -> bool:
        """Reserve the path for a new connection; False if any link full."""
        path = self.route_for_cell(cell_id)
        if path is None:
            self.wired_blocks += 1
            return False
        links = self.graph.path_links(path)
        if not all(link.fits_new(bandwidth) for link in links):
            self.wired_blocks += 1
            return False
        for link in links:
            link.allocate(connection_id, bandwidth)
        self._routes[connection_id] = path
        self.setups += 1
        return True

    def reroute(self, connection_id: int, new_cell: int,
                bandwidth: float) -> bool:
        """Re-route a hand-off; shared links keep their allocation.

        On failure the *old* route is left intact — the caller decides
        whether to drop the connection (releasing everything) or keep
        trying (e.g. during a soft hand-off window).
        """
        old_path = self._routes.get(connection_id)
        if old_path is None:
            raise KeyError(f"connection {connection_id} has no route")
        new_path = self.route_for_cell(new_cell)
        if new_path is None:
            self.wired_drops += 1
            return False
        old_links = {
            link.key: link for link in self.graph.path_links(old_path)
        }
        new_links = self.graph.path_links(new_path)
        additions = [
            link for link in new_links if link.key not in old_links
        ]
        if not all(link.fits_reroute(bandwidth) for link in additions):
            self.wired_drops += 1
            return False
        for link in additions:
            link.allocate(connection_id, bandwidth)
        new_keys = {link.key for link in new_links}
        for key, link in old_links.items():
            if key not in new_keys:
                link.release(connection_id)
        self._routes[connection_id] = new_path
        self.reroutes += 1
        return True

    def release(self, connection_id: int) -> None:
        """Tear down a connection's route (completion or drop)."""
        if connection_id in self._routes:
            self._teardown(connection_id)

    def _teardown(self, connection_id: int) -> None:
        path = self._routes.pop(connection_id)
        for link in self.graph.path_links(path):
            if link.holds(connection_id):
                link.release(connection_id)

    # ------------------------------------------------------------------
    # predictive link reservation (the wired Eq. 6)
    # ------------------------------------------------------------------
    def refresh_link_targets(self, cell_reservations: dict[int, float]) -> None:
        """Install per-link reservation targets from wireless ``B_r``.

        ``cell_reservations`` maps cell id to that cell's current
        wireless target ``B_r`` — the expected hand-off bandwidth about
        to *arrive* there.  That traffic will need the links of the
        cell's gateway route, so each such link accumulates the cell's
        ``B_r`` into its own target.
        """
        if not self.predictive:
            return
        for link in self.graph.links():
            link.reserved_target = 0.0
        for cell_id, reservation in cell_reservations.items():
            if reservation <= 0.0:
                continue
            path = self.route_for_cell(cell_id)
            if path is None:
                continue
            for link in self.graph.path_links(path):
                link.reserved_target += reservation

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def max_utilization(self) -> float:
        utilizations = [link.utilization() for link in self.graph.links()]
        return max(utilizations, default=0.0)

    def active_routes(self) -> int:
        return len(self._routes)
