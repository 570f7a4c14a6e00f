"""Unit tests for per-cell bandwidth accounting."""

from itertools import count

import pytest

from repro.cellular.cell import CapacityError, Cell
from repro.traffic.classes import VIDEO, VOICE
from repro.traffic.connection import Connection

#: Connection ids, unique across this module's tests.
_ids = count()


def connection(traffic_class=VOICE, cell_id=0):
    return Connection(
        traffic_class,
        start_time=0.0,
        cell_id=cell_id,
        connection_id=next(_ids),
    )


def test_initial_state():
    cell = Cell(3, 100.0)
    assert cell.cell_id == 3
    assert cell.capacity == 100.0
    assert cell.used_bandwidth == 0.0
    assert cell.free_bandwidth == 100.0
    assert cell.connection_count == 0


def test_nonpositive_capacity_rejected():
    with pytest.raises(ValueError):
        Cell(0, 0.0)
    with pytest.raises(ValueError):
        Cell(0, -5.0)


def test_attach_accounts_bandwidth():
    cell = Cell(0, 100.0)
    cell.attach(connection(VIDEO))
    assert cell.used_bandwidth == 4.0
    assert cell.connection_count == 1


def test_detach_releases_bandwidth():
    cell = Cell(0, 100.0)
    first = connection(VIDEO)
    cell.attach(first)
    cell.detach(first)
    assert cell.used_bandwidth == 0.0
    assert cell.connection_count == 0


def test_double_attach_rejected():
    cell = Cell(0, 100.0)
    first = connection()
    cell.attach(first)
    with pytest.raises(CapacityError):
        cell.attach(first)


def test_detach_unknown_rejected():
    cell = Cell(0, 100.0)
    with pytest.raises(CapacityError):
        cell.detach(connection())


def test_attach_beyond_capacity_rejected():
    cell = Cell(0, 4.0)
    cell.attach(connection(VIDEO))
    with pytest.raises(CapacityError):
        cell.attach(connection(VOICE))


def test_fits_new_connection_respects_reservation():
    cell = Cell(0, 100.0)
    cell.reserved_target = 10.0
    for _ in range(90):
        cell.attach(connection())
    assert not cell.fits_new_connection(1.0)
    cell.reserved_target = 0.0
    assert cell.fits_new_connection(1.0)


def test_fits_new_connection_boundary_exact():
    cell = Cell(0, 100.0)
    cell.reserved_target = 10.0
    for _ in range(89):
        cell.attach(connection())
    assert cell.fits_new_connection(1.0)  # 89 + 1 == 90 == C - B_r
    assert not cell.fits_new_connection(2.0)


def test_fits_handoff_ignores_reservation():
    cell = Cell(0, 100.0)
    cell.reserved_target = 50.0
    for _ in range(24):
        cell.attach(connection(VIDEO))  # 96 BUs
    assert cell.fits_handoff(4.0)
    assert not cell.fits_handoff(5.0)


def test_can_reserve_target():
    cell = Cell(0, 100.0)
    cell.reserved_target = 30.0
    for _ in range(70):
        cell.attach(connection())
    assert cell.can_reserve_target()
    cell.attach(connection())
    assert not cell.can_reserve_target()


def test_connections_iterates_attached():
    cell = Cell(0, 100.0)
    attached = [connection() for _ in range(3)]
    for item in attached:
        cell.attach(item)
    assert sorted(c.connection_id for c in cell.connections()) == sorted(
        c.connection_id for c in attached
    )


def test_fractional_bandwidth_accounting_is_stable():
    cell = Cell(0, 10.0)

    class Fractional:
        def __init__(self, connection_id):
            self.connection_id = connection_id
            self.bandwidth = 0.1

    items = [Fractional(index) for index in range(100)]
    for item in items:
        cell.attach(item)
    for item in items:
        cell.detach(item)
    assert cell.used_bandwidth == 0.0
