"""Shared fixtures: isolated global id counters, a file corrupter, and
the literal AC1-AC3."""

import pytest

from repro.core.admission import AdmissionDecision, AdmissionPolicy
from repro.mobility.mobile import reset_mobile_ids
from repro.traffic.connection import reset_connection_ids


@pytest.fixture(autouse=True)
def _fresh_id_counters():
    reset_connection_ids()
    reset_mobile_ids()
    yield


@pytest.fixture
def flip_a_byte():
    """Corrupt a file in place: invert the byte in its middle."""

    def flip(path):
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))

    return flip


# ----------------------------------------------------------------------
# §4.3 transcribed literally: the reference the production policies
# (one batched reservation tick per test) are compared against.
# ----------------------------------------------------------------------
class _LiteralAC1(AdmissionPolicy):
    name = "AC1"

    def admit_new(self, network, cell_id, bandwidth, now):
        station = network.station(cell_id)
        messages_before = network.total_messages()
        station.update_target_reservation(now)
        return AdmissionDecision(
            admitted=station.cell.fits_new_connection(bandwidth),
            calculations=1,
            messages=network.total_messages() - messages_before,
        )


class _LiteralAC2(AdmissionPolicy):
    name = "AC2"

    def admit_new(self, network, cell_id, bandwidth, now):
        station = network.station(cell_id)
        messages_before = network.total_messages()
        calculations = 0
        admitted = True
        for neighbor in station.neighbor_stations():
            neighbor.update_target_reservation(now)
            calculations += 1
            if not neighbor.cell.can_reserve_target():
                admitted = False
        station.update_target_reservation(now)
        calculations += 1
        if not station.cell.fits_new_connection(bandwidth):
            admitted = False
        return AdmissionDecision(
            admitted=admitted,
            calculations=calculations,
            messages=network.total_messages() - messages_before,
        )


class _LiteralAC3(AdmissionPolicy):
    name = "AC3"

    def admit_new(self, network, cell_id, bandwidth, now):
        station = network.station(cell_id)
        messages_before = network.total_messages()
        calculations = 0
        admitted = True
        for neighbor in station.neighbor_stations():
            if neighbor.cell.can_reserve_target():
                continue  # target fits; stays out of the test
            neighbor.update_target_reservation(now)
            calculations += 1
            if not neighbor.cell.can_reserve_target():
                admitted = False
        station.update_target_reservation(now)
        calculations += 1
        if not station.cell.fits_new_connection(bandwidth):
            admitted = False
        return AdmissionDecision(
            admitted=admitted,
            calculations=calculations,
            messages=network.total_messages() - messages_before,
        )


@pytest.fixture
def literal_policy():
    """``scheme name -> policy``: AC1-AC3 written as §4.3 reads, one
    ``update_target_reservation`` (the §4.1 exchange over the scalar
    Eq. 5 walk) per participating cell, in the paper's order."""
    table = {"AC1": _LiteralAC1, "AC2": _LiteralAC2, "AC3": _LiteralAC3}
    return lambda scheme: table[scheme]()
