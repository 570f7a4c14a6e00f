"""Admission control schemes: Static, AC1, AC2 and AC3 (paper §4.3).

All schemes share the same *hand-off* rule — a hand-off is admitted
whenever the new cell has any spare capacity, reserved band included —
and differ in how a *new* connection request is tested:

* :class:`StaticReservationPolicy` — the Hong–Rappaport guard-channel
  baseline: a constant ``G`` BUs is permanently set aside; Eq. 1 with
  ``B_r = G`` and no prediction at all.
* :class:`AC1` — recompute ``B_r`` in the requesting cell only, then
  Eq. 1 there.
* :class:`AC2` — additionally every adjacent cell recomputes its own
  ``B_r`` and must be able to actually reserve it
  (``sum b <= C - B_r``).
* :class:`AC3` — the hybrid: only *suspect* neighbours participate —
  those whose previously computed target no longer fits
  (``sum b + B_r^prev > C``).

Every policy reports ``N_calc`` (number of Eq. 6 evaluations triggered
by the test — the Figure 13 complexity metric) and the logical message
count in its :class:`AdmissionDecision`.
"""

from __future__ import annotations

import abc

from repro.cellular.network import CellularNetwork
from repro.record import Record


class AdmissionDecision(Record):
    """Outcome of a new-connection admission test.

    ``calculations`` counts the ``B_r`` (Eq. 6) computations performed
    for this test, ``messages`` the logical inter-BS messages exchanged
    for it.
    """

    __slots__ = ("admitted", "calculations", "messages")

    def __init__(self, admitted: bool, calculations: int, messages: int) -> None:
        self.admitted = admitted
        self.calculations = calculations
        self.messages = messages


class AdmissionPolicy(abc.ABC):
    """Interface shared by the static baseline and AC1/AC2/AC3."""

    #: Human-readable scheme name used in reports.
    name: str = "base"

    @abc.abstractmethod
    def admit_new(
        self,
        network: CellularNetwork,
        cell_id: int,
        bandwidth: float,
        now: float,
    ) -> AdmissionDecision:
        """Decide a new connection request of ``bandwidth`` BUs."""

    def admit_handoff(
        self, network: CellularNetwork, cell_id: int, bandwidth: float
    ) -> bool:
        """Hand-offs may use reserved bandwidth: only capacity matters."""
        return network.cell(cell_id).fits_handoff(bandwidth)

    def handoff_allocation(
        self, network: CellularNetwork, cell_id: int, connection
    ) -> float | None:
        """Bandwidth to grant an incoming hand-off, or ``None`` to drop.

        The base behaviour is all-or-nothing at the connection's current
        rate; :class:`repro.core.qos.AdaptiveQoSPolicy` overrides this to
        degrade instead of dropping.
        """
        if self.admit_handoff(network, cell_id, connection.bandwidth):
            return connection.bandwidth
        return None

    def on_release(
        self, network: CellularNetwork, cell_id: int, now: float
    ) -> None:
        """Hook: bandwidth was freed in ``cell_id`` (QoS upgrades etc.)."""

    def install(self, network: CellularNetwork) -> None:
        """Hook: one-time setup when attached to a network."""


class StaticReservationPolicy(AdmissionPolicy):
    """Permanently reserve ``G`` BUs per cell for hand-offs (mid-80s way).

    Parameters
    ----------
    guard_bandwidth:
        ``G`` — BUs permanently excluded from new-connection admission
        (the paper's reference configuration uses 10).
    """

    name = "static"

    def __init__(self, guard_bandwidth: float = 10.0) -> None:
        if guard_bandwidth < 0:
            raise ValueError("guard bandwidth cannot be negative")
        self.guard_bandwidth = float(guard_bandwidth)

    def install(self, network: CellularNetwork) -> None:
        for cell in network.cells:
            cell.reserved_target = self.guard_bandwidth

    def admit_new(
        self,
        network: CellularNetwork,
        cell_id: int,
        bandwidth: float,
        now: float,
    ) -> AdmissionDecision:
        cell = network.cell(cell_id)
        cell.reserved_target = self.guard_bandwidth
        return AdmissionDecision(
            admitted=cell.fits_new_connection(bandwidth),
            calculations=0,
            messages=0,
        )


class AC1(AdmissionPolicy):
    """Predictive reservation checked in the requesting cell only."""

    name = "AC1"

    def admit_new(
        self,
        network: CellularNetwork,
        cell_id: int,
        bandwidth: float,
        now: float,
    ) -> AdmissionDecision:
        station = network.station(cell_id)
        messages_before = network.total_messages()
        network.mark_reservation_dirty(cell_id)
        network.flush_reservation_tick(now)
        return AdmissionDecision(
            admitted=station.cell.fits_new_connection(bandwidth),
            calculations=1,
            messages=network.total_messages() - messages_before,
        )


class AC2(AdmissionPolicy):
    """Predictive reservation checked in the cell *and* every neighbour."""

    name = "AC2"

    def admit_new(
        self,
        network: CellularNetwork,
        cell_id: int,
        bandwidth: float,
        now: float,
    ) -> AdmissionDecision:
        station = network.station(cell_id)
        messages_before = network.total_messages()
        neighbors = network.neighbor_stations(cell_id)
        for neighbor in neighbors:
            network.mark_reservation_dirty(neighbor.cell_id)
        network.mark_reservation_dirty(cell_id)
        network.flush_reservation_tick(now)
        admitted = station.cell.fits_new_connection(bandwidth)
        for neighbor in neighbors:
            if not neighbor.cell.can_reserve_target():
                admitted = False
        return AdmissionDecision(
            admitted=admitted,
            calculations=len(neighbors) + 1,
            messages=network.total_messages() - messages_before,
        )


class AC3(AdmissionPolicy):
    """Hybrid: only suspect neighbours re-check their reservations.

    A neighbour is *suspect* when its previously computed target is not
    fully reservable any more (``sum b + B_r^prev > C``, §4.3).
    """

    name = "AC3"

    def admit_new(
        self,
        network: CellularNetwork,
        cell_id: int,
        bandwidth: float,
        now: float,
    ) -> AdmissionDecision:
        station = network.station(cell_id)
        messages_before = network.total_messages()
        # Suspectness is read up front: a neighbour's suspect bit
        # depends only on its own state, which the other updates of
        # this test never touch.
        suspects = [
            neighbor
            for neighbor in network.neighbor_stations(cell_id)
            if neighbor.cell.is_suspect
        ]
        for suspect in suspects:
            network.mark_reservation_dirty(suspect.cell_id)
        network.mark_reservation_dirty(cell_id)
        network.flush_reservation_tick(now)
        admitted = station.cell.fits_new_connection(bandwidth)
        for suspect in suspects:
            if suspect.cell.is_suspect:
                admitted = False
        return AdmissionDecision(
            admitted=admitted,
            calculations=len(suspects) + 1,
            messages=network.total_messages() - messages_before,
        )


def make_policy(name: str, **kwargs: float) -> AdmissionPolicy:
    """Factory by scheme name: ``static``, ``AC1``, ``AC2`` or ``AC3``."""
    table: dict[str, type[AdmissionPolicy]] = {
        "static": StaticReservationPolicy,
        "ac1": AC1,
        "ac2": AC2,
        "ac3": AC3,
    }
    try:
        policy_class = table[name.lower()]
    except KeyError:
        raise ValueError(f"unknown admission scheme {name!r}") from None
    return policy_class(**kwargs)  # type: ignore[arg-type]
