"""The Cell's attach-order table: the resident input of the Eq. 5 kernel.

Only the numpy kernel reads the table, so only it can build one.
"""

import pytest

from repro._kernel import KEY_STRIDE
from repro.cellular.cell import Cell
from repro.traffic.classes import VOICE
from repro.traffic.connection import Connection

np = pytest.importorskip("numpy")


def _attach(cell, entry_time, prev=None):
    connection = Connection(
        VOICE, 0.0, cell.cell_id, prev_cell=prev, cell_entry_time=entry_time
    )
    cell.attach(connection)
    return connection


def _read_cell(capacity=100.0):
    """A cell whose table has had its first reader (it is kept from then on)."""
    cell = Cell(0, capacity=capacity)
    cell.reservation_table(np)
    return cell


def test_no_table_until_the_first_read_then_built_in_attach_order():
    cell = Cell(0, capacity=100.0)
    first = _attach(cell, 5.0)
    gone = _attach(cell, 6.0, prev=1)
    _attach(cell, 3.0, prev=2)
    cell.detach(gone)
    assert cell._rows is None and cell._keys == [] and cell._bases == []
    cell.reservation_table(np)
    # Built from the connections: attach order, no row for the detach.
    assert list(cell._rows) == [c.connection_id for c in cell.connections()]
    assert cell._keys == [complex(0.0, -5.0), complex(3 * KEY_STRIDE, -3.0)]
    assert cell._bases == [1.0, 1.0]
    # From here on attach and detach maintain it.
    _attach(cell, 7.0)
    cell.detach(first)
    assert cell._bases == [0.0, 1.0, 1.0]


def test_table_rows_encode_prev_and_entry_time_in_attach_order():
    cell = _read_cell()
    _attach(cell, 5.0, prev=None)
    _attach(cell, 3.0, prev=2)  # out-of-order entry time: still appended
    _attach(cell, 5.0, prev=None)  # duplicate entry time
    assert cell._keys == [
        complex(0.0, -5.0),
        complex(3 * KEY_STRIDE, -3.0),
        complex(0.0, -5.0),
    ]
    assert cell._bases == [1.0, 1.0, 1.0]
    assert list(cell._rows.values()) == [0, 1, 2]


def test_detach_tombstones_exactly_its_row():
    cell = _read_cell()
    first = _attach(cell, 5.0)
    twin = _attach(cell, 5.0)  # same prev, same entry time
    _attach(cell, 9.0)
    cell.detach(twin)
    assert cell._bases == [1.0, 0.0, 1.0]
    assert len(cell._keys) == 3  # the row stays until compaction
    assert list(cell.connections())[0] is first
    assert list(cell._rows.values()) == [0, 2]


def test_compaction_when_more_than_half_the_rows_are_dead():
    cell = _read_cell()
    connections = [_attach(cell, float(index)) for index in range(8)]
    for connection in connections[:4]:
        cell.detach(connection)
    assert len(cell._keys) == 8  # exactly half dead: not yet
    cell.detach(connections[4])
    assert len(cell._keys) == 3
    assert cell._bases == [1.0, 1.0, 1.0]
    assert [key.imag for key in cell._keys] == [-5.0, -6.0, -7.0]
    assert list(cell._rows.values()) == [0, 1, 2]
    assert [c.connection_id for c in cell.connections()] == list(cell._rows)


def test_mirror_copies_only_what_changed():
    cell = Cell(0, capacity=1_000.0)
    connections = [_attach(cell, float(index)) for index in range(40)]
    keys, bases = cell.reservation_table(np)
    assert (cell.group_rebuilds, cell.rows_mirrored) == (1, 40)
    assert keys.tolist() == cell._keys and bases.tolist() == cell._bases
    cell.reservation_table(np)  # nothing changed: nothing copied
    assert (cell.group_rebuilds, cell.rows_mirrored) == (1, 40)
    cell.detach(connections[3])
    _attach(cell, 50.0, prev=1)
    _attach(cell, 51.0)
    keys, bases = cell.reservation_table(np)
    assert (cell.group_rebuilds, cell.rows_mirrored) == (1, 43)
    assert keys.tolist() == cell._keys and bases.tolist() == cell._bases
    assert bases[3] == 0.0
    # Outgrowing the mirror re-materialises it, and so does compaction.
    for index in range(40):  # 82 rows > the 80 the mirror was built for
        _attach(cell, 60.0 + index)
    cell.reservation_table(np)
    assert cell.group_rebuilds == 2
    for connection in list(cell.connections())[:-10]:
        cell.detach(connection)
    keys, bases = cell.reservation_table(np)
    assert cell.group_rebuilds == 3
    assert len(keys) == len(cell._keys) < 82
    assert keys.tolist() == cell._keys and bases.tolist() == cell._bases


def test_row_attached_and_detached_between_two_syncs_is_mirrored_dead():
    cell = Cell(0, capacity=100.0)
    _attach(cell, 1.0)
    _attach(cell, 2.0)
    cell.reservation_table(np)
    cell.detach(_attach(cell, 3.0))
    _keys, bases = cell.reservation_table(np)
    assert bases.tolist() == [1.0, 1.0, 0.0]
