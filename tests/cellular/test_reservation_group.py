"""The Cell's reservation rows, bucketed by ``prev``: the resident input
of the tick's Eq. 5 walk.

Only the reservation tick reads the buckets, so only it can build them.
"""

from itertools import count

from repro.cellular.cell import Cell
from repro.traffic.classes import VIDEO, VOICE
from repro.traffic.connection import Connection

#: Connection ids, unique across this module's tests.
_serials = count()


def _attach(cell, entry_time, prev=None, traffic_class=VOICE):
    connection = Connection(
        traffic_class, 0.0, cell.cell_id,
        prev_cell=prev, cell_entry_time=entry_time,
        connection_id=next(_serials),
    )
    cell.attach(connection)
    return connection


def _read_cell(capacity=100.0):
    """A cell whose buckets have had their first reader (kept from then
    on)."""
    cell = Cell(0, capacity=capacity)
    cell.reservation_buckets()
    return cell


def _attach_order(cell):
    """Every row as ``(prev, entry_time, basis, id)``, by attach ``seq``."""
    return [
        (prev, entry_time, basis, key)
        for _seq, prev, entry_time, basis, key in sorted(
            (seq, prev, entry_time, basis, key)
            for prev, bucket in cell.reservation_buckets().items()
            for entry_time, seq, basis, key in bucket
        )
    ]


def _ids(connections):
    return [connection.connection_id for connection in connections]


def test_no_table_until_the_first_read_then_built_in_attach_order():
    cell = Cell(0, capacity=100.0)
    first = _attach(cell, 5.0)
    gone = _attach(cell, 6.0, prev=1)
    third = _attach(cell, 3.0, prev=2)
    cell.detach(gone)
    assert cell._buckets is None
    # Built from the connections: one bucket per prev, no row for the
    # detach, seq numbering the connections in their order.
    assert cell.reservation_buckets() == {
        None: [(5.0, 0, 1.0, first.connection_id)],
        2: [(3.0, 1, 1.0, third.connection_id)],
    }
    # From here on attach and detach maintain them.
    last = _attach(cell, 7.0)
    cell.detach(first)
    assert cell.reservation_buckets() == {
        None: [(7.0, 2, 1.0, last.connection_id)],
        2: [(3.0, 1, 1.0, third.connection_id)],
    }
    assert [row[3] for row in _attach_order(cell)] == _ids(
        cell.connections()
    )


def test_table_rows_encode_prev_and_entry_time_in_attach_order():
    cell = _read_cell()
    a = _attach(cell, 5.0, prev=None)
    b = _attach(cell, 3.0, prev=2)
    c = _attach(cell, 5.0, prev=None)  # duplicate entry time
    d = _attach(cell, 1.0, prev=4, traffic_class=VIDEO)
    e = _attach(cell, 2.0, prev=None)  # out-of-order entry time
    buckets = cell.reservation_buckets()
    # Sorted by entry time within a bucket, ties by attach seq ...
    assert buckets[None] == [
        (2.0, 4, 1.0, e.connection_id),
        (5.0, 0, 1.0, a.connection_id),
        (5.0, 2, 1.0, c.connection_id),
    ]
    assert buckets[2] == [(3.0, 1, 1.0, b.connection_id)]
    assert buckets[4] == [(1.0, 3, VIDEO.bandwidth, d.connection_id)]
    # ... and seq across the buckets is the attach order.
    assert _attach_order(cell) == [
        (None, 5.0, 1.0, a.connection_id),
        (2, 3.0, 1.0, b.connection_id),
        (None, 5.0, 1.0, c.connection_id),
        (4, 1.0, VIDEO.bandwidth, d.connection_id),
        (None, 2.0, 1.0, e.connection_id),
    ]


def test_detach_drops_exactly_its_row():
    cell = _read_cell()
    first = _attach(cell, 5.0)
    twin = _attach(cell, 5.0)  # same prev, same entry time
    last = _attach(cell, 9.0)
    lone = _attach(cell, 4.0, prev=3)
    cell.detach(twin)
    assert [row[3] for row in _attach_order(cell)] == _ids(
        [first, last, lone]
    )
    # The last row of a bucket takes its bucket along.
    cell.detach(lone)
    assert list(cell.reservation_buckets()) == [None]
    # Re-attached, the same id gets a fresh seq: last in attach order,
    # and after its entry-time twin in the bucket.
    cell.attach(twin)
    assert cell.reservation_buckets()[None] == [
        (5.0, 0, 1.0, first.connection_id),
        (5.0, 4, 1.0, twin.connection_id),
        (9.0, 2, 1.0, last.connection_id),
    ]
    assert [row[3] for row in _attach_order(cell)] == _ids(
        cell.connections()
    )
