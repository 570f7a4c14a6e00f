"""Columnar connection store: allocation, recycling, handles."""

import pytest

from repro.simulation.columnar import (
    BANDWIDTH_TABLE,
    ConnectionStore,
    handle_class,
)


class TestAllocFree:
    def test_alloc_returns_distinct_rows(self):
        store = ConnectionStore(num_cells=10, capacity=4)
        rows = [store.alloc() for _ in range(4)]
        assert sorted(rows) == [0, 1, 2, 3]
        assert store.live == 4

    def test_free_recycles_rows(self):
        store = ConnectionStore(num_cells=10, capacity=4)
        first = store.alloc()
        store.alloc()
        store.free(first)
        assert store.live == 1
        assert store.alloc() == first

    def test_growth_preserves_contents(self):
        store = ConnectionStore(num_cells=10, capacity=2)
        rows = [store.alloc() for _ in range(2)]
        store.columns["cell"][rows[0]] = 7
        store.columns["entry_time"][rows[1]] = 3.5
        for _ in range(10):
            store.alloc()
        assert store.capacity >= 12
        assert int(store.columns["cell"][rows[0]]) == 7
        assert float(store.columns["entry_time"][rows[1]]) == 3.5
        assert store.live == 12

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            ConnectionStore(num_cells=10, capacity=0)
        with pytest.raises(ValueError):
            ConnectionStore(num_cells=0)


class TestSerialGuard:
    def test_serials_are_unique_and_monotone(self):
        store = ConnectionStore(num_cells=10)
        row_a, row_b = store.alloc(), store.alloc()
        assert 0 < store.serial_of(row_a) < store.serial_of(row_b)

    def test_recycled_row_gets_fresh_serial(self):
        """A stale reference (row, old_serial) must be detectable after
        the row is freed and recycled — the migration ghost guard."""
        store = ConnectionStore(num_cells=10)
        row = store.alloc()
        stale = store.serial_of(row)
        store.free(row)
        assert store.serial_of(row) == 0
        assert store.alloc() == row
        assert store.serial_of(row) != stale


class TestConnectionSemantics:
    def test_connection_id_is_birth_coordinates(self):
        store = ConnectionStore(num_cells=36)
        row = store.alloc()
        store.columns["birth_cell"][row] = 11
        store.columns["birth_seq"][row] = 4
        assert store.connection_id(row) == 4 * 36 + 11

    def test_bandwidth_table(self):
        store = ConnectionStore(num_cells=10)
        row = store.alloc()
        store.columns["bw_code"][row] = 0
        assert BANDWIDTH_TABLE[store.columns["bw_code"][row]] == 1.0
        store.columns["bw_code"][row] = 1
        assert BANDWIDTH_TABLE[store.columns["bw_code"][row]] == 4.0


class TestHandle:
    def _store_with_row(self):
        store = ConnectionStore(num_cells=36)
        row = store.alloc()
        store.columns["entry_time"][row] = 12.5
        store.columns["cell"][row] = 3
        store.columns["prev"][row] = -1
        store.columns["birth_cell"][row] = 3
        store.columns["birth_seq"][row] = 2
        store.columns["bw_code"][row] = 1
        return store, row

    def test_handle_exposes_admission_attributes(self):
        store, row = self._store_with_row()
        handle = handle_class(store)(row)
        assert handle.connection_id == 2 * 36 + 3
        assert handle.bandwidth == 4.0
        assert handle.full_bandwidth == 4.0
        assert handle.min_bandwidth == 4.0
        assert handle.reservation_basis == 4.0
        assert handle.prev_cell is None
        assert handle.cell_entry_time == 12.5

    def test_prev_cell_maps_negative_to_none(self):
        store, row = self._store_with_row()
        handle = handle_class(store)(row)
        store.columns["prev"][row] = 17
        assert handle.prev_cell == 17
        store.columns["prev"][row] = -1
        assert handle.prev_cell is None

    def test_handle_is_one_slot(self):
        store, row = self._store_with_row()
        handle = handle_class(store)(row)
        assert not hasattr(handle, "__dict__")
        with pytest.raises(AttributeError):
            handle.other = 1

    def test_handles_share_the_class_level_store(self):
        store, row = self._store_with_row()
        cls = handle_class(store)
        assert cls.store is store
        assert cls(row).store is cls(row).store

    def test_nbytes_counts_all_columns(self):
        store = ConnectionStore(num_cells=10, capacity=64)
        # 2 f8 + 5 i4 + 3 i1 data columns plus the i8 serial column.
        assert store.nbytes == 64 * (2 * 8 + 5 * 4 + 3 * 1 + 8)


class TestScalarHotBacking:
    def test_connection_store_uses_stdlib_arrays(self):
        """The DES hot loop is scalar row-at-a-time access, where
        ``array.array`` indexing avoids numpy's per-element boxing; the
        store must keep that backing even with numpy installed."""
        import array

        store = ConnectionStore(num_cells=4, capacity=8)
        for column in store.columns.values():
            assert isinstance(column, array.array)
        assert isinstance(store.serial, array.array)

    def test_growth_preserves_backing_and_contents(self):
        import array

        store = ConnectionStore(num_cells=4, capacity=2)
        rows = [store.alloc() for _ in range(5)]
        for index, row in enumerate(rows):
            store.columns["birth_seq"][row] = index
        assert store.capacity >= 5
        for column in store.columns.values():
            assert isinstance(column, array.array)
        for index, row in enumerate(rows):
            assert store.columns["birth_seq"][row] == index

    def test_scalar_reads_return_native_types(self):
        store = ConnectionStore(num_cells=4, capacity=4)
        row = store.alloc()
        store.columns["entry_time"][row] = 1.5
        store.columns["cell"][row] = 3
        assert type(store.columns["entry_time"][row]) is float
        assert type(store.columns["cell"][row]) is int


def _columnar_cell(capacity=10.0, num_cells=6):
    from repro.simulation.columnar import ColumnarCell

    store = ConnectionStore(num_cells=num_cells, capacity=8)
    cell = ColumnarCell(0, capacity, store)
    return store, cell


def _fill_row(store, row, *, cell=0, prev=-1, birth_cell=0, birth_seq=0,
              entry_time=0.0, bw_code=0):
    columns = store.columns
    columns["entry_time"][row] = entry_time
    columns["end_time"][row] = entry_time + 100.0
    columns["cell"][row] = cell
    columns["prev"][row] = prev
    columns["birth_cell"][row] = birth_cell
    columns["birth_seq"][row] = birth_seq
    columns["hops"][row] = 0
    columns["bw_code"][row] = bw_code
    columns["pop"][row] = 0
    columns["heading"][row] = 0
    return row


class TestColumnarCell:
    def test_attach_detach_round_trip_accounting(self):
        store, cell = _columnar_cell()
        row = _fill_row(store, store.alloc(), bw_code=1)
        cell.attach_row(row)
        assert cell.used_bandwidth == BANDWIDTH_TABLE[1]
        assert cell.connection_count == 1
        cell.detach_row(row)
        assert cell.used_bandwidth == 0.0
        assert cell.connection_count == 0

    def test_table_rows_encode_prev_cell(self):
        store, cell = _columnar_cell()
        born_here = _fill_row(store, store.alloc(), prev=-1, birth_seq=0)
        handed_off = _fill_row(
            store, store.alloc(), prev=3, birth_seq=1, entry_time=5.0
        )
        twin = _fill_row(store, store.alloc(), prev=-1, birth_seq=2)
        ids = {
            row: store.connection_id(row)
            for row in (born_here, handed_off, twin)
        }
        voice = BANDWIDTH_TABLE[0]
        # One row built from the handles at the first read, the others
        # bucketed by attach_row after it: the same rows either way
        # (``prev = -1`` is ``None``, born here).
        cell.attach_row(born_here)
        assert cell.reservation_buckets() == {
            None: [(0.0, 0, voice, ids[born_here])]
        }
        cell.attach_row(handed_off)
        cell.attach_row(twin)
        assert cell.reservation_buckets() == {
            None: [
                (0.0, 0, voice, ids[born_here]),
                (0.0, 2, voice, ids[twin]),
            ],
            3: [(5.0, 1, voice, ids[handed_off])],
        }
        cell.detach_row(born_here)
        cell.attach_row(born_here)  # re-attached: a fresh seq, last
        assert cell.reservation_buckets() == {
            None: [
                (0.0, 2, voice, ids[twin]),
                (0.0, 3, voice, ids[born_here]),
            ],
            3: [(5.0, 1, voice, ids[handed_off])],
        }
        cell.detach_row(handed_off)
        assert list(cell.reservation_buckets()) == [None]

    def test_double_attach_raises(self):
        from repro.cellular.cell import CapacityError

        store, cell = _columnar_cell()
        row = _fill_row(store, store.alloc())
        cell.attach_row(row)
        with pytest.raises(CapacityError):
            cell.attach_row(row)

    def test_detach_of_unknown_row_raises(self):
        from repro.cellular.cell import CapacityError

        store, cell = _columnar_cell()
        row = _fill_row(store, store.alloc())
        with pytest.raises(CapacityError):
            cell.detach_row(row)

    def test_attach_past_handoff_capacity_raises(self):
        from repro.cellular.cell import CapacityError

        store, cell = _columnar_cell(capacity=1.0)
        first = _fill_row(store, store.alloc(), birth_seq=0)
        second = _fill_row(store, store.alloc(), birth_seq=1, bw_code=1)
        cell.attach_row(first)
        with pytest.raises(CapacityError):
            cell.attach_row(second)

    def test_object_attach_api_is_rejected(self):
        store, cell = _columnar_cell()
        with pytest.raises(TypeError):
            cell.attach(object())
        with pytest.raises(TypeError):
            cell.detach(object())

    def test_connections_materialises_handles_in_attach_order(self):
        store, cell = _columnar_cell()
        rows = [
            _fill_row(store, store.alloc(), birth_seq=index)
            for index in range(3)
        ]
        for row in rows:
            cell.attach_row(row)
        handles = cell.connections()
        assert [handle.row for handle in handles] == rows
        assert [handle.connection_id for handle in handles] == [
            store.connection_id(row) for row in rows
        ]
