"""The Cell's attach-order rows: the resident input of the tick's Eq. 5
walk.

Only the reservation tick reads the rows, so only it can build them.
"""

from repro.cellular.cell import Cell
from repro.traffic.classes import VIDEO, VOICE
from repro.traffic.connection import Connection


def _attach(cell, entry_time, prev=None, traffic_class=VOICE):
    connection = Connection(
        traffic_class, 0.0, cell.cell_id,
        prev_cell=prev, cell_entry_time=entry_time,
    )
    cell.attach(connection)
    return connection


def _read_cell(capacity=100.0):
    """A cell whose rows have had their first reader (kept from then on)."""
    cell = Cell(0, capacity=capacity)
    cell.reservation_rows()
    return cell


def test_no_table_until_the_first_read_then_built_in_attach_order():
    cell = Cell(0, capacity=100.0)
    first = _attach(cell, 5.0)
    gone = _attach(cell, 6.0, prev=1)
    _attach(cell, 3.0, prev=2)
    cell.detach(gone)
    assert cell._rows is None
    # Built from the connections: attach order, no row for the detach.
    assert list(cell.reservation_rows()) == [(None, 5.0, 1.0), (2, 3.0, 1.0)]
    assert list(cell._rows) == [c.connection_id for c in cell.connections()]
    # From here on attach and detach maintain it.
    _attach(cell, 7.0)
    cell.detach(first)
    assert list(cell.reservation_rows()) == [(2, 3.0, 1.0), (None, 7.0, 1.0)]


def test_table_rows_encode_prev_and_entry_time_in_attach_order():
    cell = _read_cell()
    _attach(cell, 5.0, prev=None)
    _attach(cell, 3.0, prev=2)  # out-of-order entry time: still appended
    _attach(cell, 5.0, prev=None)  # duplicate entry time
    _attach(cell, 1.0, prev=4, traffic_class=VIDEO)
    assert list(cell.reservation_rows()) == [
        (None, 5.0, 1.0),
        (2, 3.0, 1.0),
        (None, 5.0, 1.0),
        (4, 1.0, VIDEO.bandwidth),
    ]


def test_detach_drops_exactly_its_row():
    cell = _read_cell()
    first = _attach(cell, 5.0)
    twin = _attach(cell, 5.0)  # same prev, same entry time
    last = _attach(cell, 9.0)
    cell.detach(twin)
    assert list(cell._rows) == [first.connection_id, last.connection_id]
    # Re-attached, the same id gets a fresh row at the end.
    cell.attach(twin)
    assert list(cell._rows) == [
        first.connection_id, last.connection_id, twin.connection_id
    ]
    assert [c.connection_id for c in cell.connections()] == list(cell._rows)
