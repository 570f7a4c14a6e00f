"""Struct-of-arrays stores for connection/mobile hot state.

A city-scale run keeps ~10^5..10^6 concurrent connections alive.  The
object representation costs three allocations per connection (a
:class:`~repro.traffic.connection.Connection`, a
:class:`~repro.mobility.models.Mobile`, and the model's class-map dict
entry) and scatters the hot fields (cell, entry time, lifetime end)
across the heap.  The columnar store below keeps the same state as
parallel typed columns (stdlib ``array`` buffers) indexed by a small
integer row id, with free-list recycling so long runs reuse rows
instead of growing.  Measured with ``tracemalloc`` (CPython 3.11) for
20 000 connections in one cell: 175 B per connection as store rows
(the columns with their doubling slack, 77 B, plus the cell's
membership entry) against 358 B as ``Connection`` + ``Mobile`` objects
held in a list; 307 B against 466 B once the cell keeps its ``prev``
buckets.

The spatial simulator works on row ids directly: its cells are
:class:`ColumnarCell` instances, :class:`~repro.cellular.cell.Cell`'s
own accounting with store rows as members, whose
:meth:`~ColumnarCell.attach_row` / :meth:`~ColumnarCell.detach_row`
read the key and bandwidth out of the columns in place (and the row's
``prev`` and entry time only while the cell keeps buckets), so the DES
hot loop allocates no per-event objects beyond a bucketed row.  The
only remaining per-object shim is :func:`handle_class`, a two-word
handle exposing the attribute set the Eq. 5 snapshot walk reads
(``connection_id``, ``bandwidth``, ``reservation_basis``,
``prev_cell``, ``cell_entry_time``, ...); :meth:`ColumnarCell.connections`
materialises them for that walk only.  The store itself is bound at
the *class* level so each live handle carries nothing but its row.

Rows are guarded by a monotone ``serial`` column: every allocation
stamps the row with a fresh serial, so stale references (e.g. a
shipped hand-off record whose connection has since ended) can detect
recycling with one integer compare.
"""

from __future__ import annotations

import array as _array

from repro.cellular.cell import Cell

#: column code -> stdlib ``array`` typecode
_CODES = {"f8": "d", "i4": "i", "i8": "q", "i1": "b"}

#: Bandwidth demand table indexed by ``bw_code`` (bandwidth units).
#: Matches :data:`repro.traffic.classes.VOICE` / ``VIDEO``.
BANDWIDTH_TABLE = (1.0, 4.0)


def _new_column(code: str, capacity: int) -> _array.array:
    typecode = _CODES[code]
    return _array.array(typecode, bytes(_array.array(typecode).itemsize * capacity))


def _grow_column(column: _array.array, code: str, capacity: int) -> _array.array:
    grown = _new_column(code, capacity)
    grown[: len(column)] = column
    return grown


class ConnectionStore:
    """Hot state of one connection + its mobile, one row per connection.

    Named typed columns with free-list row recycling; every row also
    carries an ``i8`` ``serial`` written on :meth:`alloc`.  The columns
    are stdlib ``array`` buffers: every consumer is row-at-a-time
    (admission, crossings, hand-off migration) and nothing slices them,
    where ``array.array`` indexing is ~1.4-1.6x faster than numpy's
    scalar boxing.

    Columns (47 bytes/row including the serial guard; a row in a cell
    costs more in all, see the module docstring):

    ``entry_time`` (f8)
        Time the connection entered its current cell.
    ``end_time`` (f8)
        Absolute lifetime expiry (scheduled as a DEPARTURE event).
    ``cell`` (i4) / ``prev`` (i4)
        Current cell and hand-off predecessor (−1 = born here).
    ``birth_cell`` (i4) / ``birth_seq`` (i4)
        Birth coordinates: the arrival cell and that cell's arrival
        index.  Together they give the deterministic, shard-independent
        ``connection_id = birth_seq * num_cells + birth_cell`` and key
        the per-transition random streams.
    ``hops`` (i4)
        Hand-offs completed so far (keys the next transition draw).
    ``bw_code`` (i1)
        Index into :data:`BANDWIDTH_TABLE` (0 = voice, 1 = video).
    ``pop`` (i1) / ``heading`` (i1)
        Mobility population-class index and current hex heading.
    """

    COLUMNS = (
        ("entry_time", "f8"),
        ("end_time", "f8"),
        ("cell", "i4"),
        ("prev", "i4"),
        ("birth_cell", "i4"),
        ("birth_seq", "i4"),
        ("hops", "i4"),
        ("bw_code", "i1"),
        ("pop", "i1"),
        ("heading", "i1"),
    )

    __slots__ = ("columns", "serial", "capacity", "_free", "_next_row",
                 "_next_serial", "live", "num_cells")

    def __init__(self, num_cells: int, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if num_cells < 1:
            raise ValueError("num_cells must be >= 1")
        self.num_cells = num_cells
        self.capacity = capacity
        self.columns: dict[str, _array.array] = {
            name: _new_column(code, capacity) for name, code in self.COLUMNS
        }
        self.serial = _new_column("i8", capacity)
        self._free: list[int] = []
        self._next_row = 0
        self._next_serial = 1
        self.live = 0

    def _grow(self, minimum: int) -> None:
        capacity = self.capacity
        while capacity < minimum:
            capacity *= 2
        for name, code in self.COLUMNS:
            self.columns[name] = _grow_column(self.columns[name], code, capacity)
        self.serial = _grow_column(self.serial, "i8", capacity)
        self.capacity = capacity

    def alloc(self, *values: float) -> int:
        """Return a fresh row id (recycled when possible) with a new serial.

        ``values``, when given, fill the row's columns in
        :attr:`COLUMNS` order.
        """
        free = self._free
        if free:
            row = free.pop()
        else:
            row = self._next_row
            if row >= self.capacity:
                self._grow(row + 1)
            self._next_row = row + 1
        self.serial[row] = self._next_serial
        self._next_serial += 1
        self.live += 1
        for column, value in zip(self.columns.values(), values):
            column[row] = value
        return row

    def free(self, row: int) -> None:
        """Release ``row`` back to the free list (serial stays burned)."""
        self.serial[row] = 0
        self._free.append(row)
        self.live -= 1

    def serial_of(self, row: int) -> int:
        """Current serial of ``row`` (0 while the row sits on the free list)."""
        return int(self.serial[row])

    @property
    def nbytes(self) -> int:
        """Bytes held by the column buffers (excludes Python object shells)."""
        total = self.serial.itemsize * len(self.serial)
        for column in self.columns.values():
            total += column.itemsize * len(column)
        return total

    def connection_id(self, row: int) -> int:
        """Deterministic global id: ``birth_seq * num_cells + birth_cell``."""
        return (
            int(self.columns["birth_seq"][row]) * self.num_cells
            + int(self.columns["birth_cell"][row])
        )


class _ConnectionHandle:
    """Two-word view of one :class:`ConnectionStore` row.

    Exposes the duck-typed connection attributes the Eq. 5 snapshot
    walk reads (:meth:`ColumnarCell.connections`).
    The store is a *class* attribute — see :func:`handle_class` — so a
    handle costs one slot beyond the object header.
    """

    store: ConnectionStore  # bound by handle_class()

    __slots__ = ("row",)

    def __init__(self, row: int) -> None:
        self.row = row

    @property
    def connection_id(self) -> int:
        return self.store.connection_id(self.row)

    @property
    def bandwidth(self) -> float:
        return BANDWIDTH_TABLE[self.store.columns["bw_code"][self.row]]

    #: Adaptive QoS is gated out of spatial runs, so the allocated,
    #: full, and minimum demands coincide — as do reservation bases.
    full_bandwidth = bandwidth
    min_bandwidth = bandwidth
    reservation_basis = bandwidth

    @property
    def prev_cell(self) -> int | None:
        prev = int(self.store.columns["prev"][self.row])
        return None if prev < 0 else prev

    @property
    def cell_entry_time(self) -> float:
        return float(self.store.columns["entry_time"][self.row])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConnectionHandle row={self.row} id={self.connection_id}>"


def handle_class(store: ConnectionStore) -> type:
    """Build a handle class bound to ``store`` at the class level."""
    return type("ConnectionHandle", (_ConnectionHandle,), {
        "__slots__": (),
        "store": store,
    })


class ColumnarCell(Cell):
    """A :class:`~repro.cellular.cell.Cell` whose members are store rows.

    The accounting is :class:`Cell`'s own — the membership dict, the
    capacity checks, ``used_bandwidth`` and the ``prev`` buckets the
    tick's Eq. 5 walk reads — keyed by connection id with the row as the
    member.  The adapters below read the key and bandwidth straight out
    of the :class:`ConnectionStore` columns, so admission, reservation
    flush and hand-off migration touch no per-connection Python
    objects.  :meth:`connections` materialises ephemeral handles for the
    Eq. 5 snapshot walk only.
    """

    def __init__(
        self,
        cell_id: int,
        capacity: float,
        store: ConnectionStore,
        handoff_overload: float = 1.0,
        handle_cls: type | None = None,
    ) -> None:
        super().__init__(cell_id, capacity, handoff_overload)
        self.store = store
        self._handle_cls = handle_cls

    def connections(self):
        """Ephemeral handle views, in attach order."""
        cls = self._handle_cls
        if cls is None:
            cls = self._handle_cls = handle_class(self.store)
        return [cls(row) for row in self._members.values()]

    def _member_row(self, row: int) -> tuple[int | None, float, float]:
        # ``prev`` is -1 for "born here": ``prev=None``.
        columns = self.store.columns
        prev = columns["prev"][row]
        return (
            None if prev < 0 else prev,
            columns["entry_time"][row],
            BANDWIDTH_TABLE[columns["bw_code"][row]],
        )

    def attach_row(self, row: int) -> None:
        """Account a store row into this cell (admission already decided)."""
        store = self.store
        columns = store.columns
        # ``array.array`` columns hand back native ints/floats, so no
        # per-field conversions are needed on this path; the reservation
        # fields are :meth:`_member_row`'s, read inline and only while
        # the cell has buckets.
        bandwidth = BANDWIDTH_TABLE[columns["bw_code"][row]]
        if self._buckets is None:
            fields = None
        else:
            prev = columns["prev"][row]
            fields = (
                None if prev < 0 else prev,
                columns["entry_time"][row],
                bandwidth,
            )
        self._enter(
            columns["birth_seq"][row] * store.num_cells
            + columns["birth_cell"][row],
            row,
            bandwidth,
            fields,
        )

    def detach_row(self, row: int) -> None:
        """Release a store row's bandwidth.  The caller detaches before
        it moves the row's prev and entry time on."""
        store = self.store
        columns = store.columns
        bandwidth = BANDWIDTH_TABLE[columns["bw_code"][row]]
        if self._buckets is None:
            fields = None
        else:
            prev = columns["prev"][row]
            fields = (
                None if prev < 0 else prev,
                columns["entry_time"][row],
                bandwidth,
            )
        self._leave(
            columns["birth_seq"][row] * store.num_cells
            + columns["birth_cell"][row],
            bandwidth,
            fields,
        )

    def attach(self, connection) -> None:  # pragma: no cover - misuse guard
        raise TypeError(
            "ColumnarCell tracks store rows; use attach_row(row)"
        )

    def detach(self, connection) -> None:  # pragma: no cover - misuse guard
        raise TypeError(
            "ColumnarCell tracks store rows; use detach_row(row)"
        )
