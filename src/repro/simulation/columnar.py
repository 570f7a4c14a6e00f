"""Struct-of-arrays stores for connection/mobile hot state.

A city-scale run keeps ~10^5..10^6 concurrent connections alive.  The
object representation costs three allocations per connection (a
:class:`~repro.traffic.connection.Connection`, a
:class:`~repro.mobility.models.Mobile`, and the model's class-map dict
entry) — several hundred bytes each — and scatters the hot fields
(cell, entry time, lifetime end) across the heap.  The columnar store
below keeps the same state as parallel typed columns (stdlib ``array``
buffers) indexed by a small integer row id, with free-list recycling
so long runs reuse rows instead of growing.

The spatial simulator works on row ids directly: its cells are
:class:`ColumnarCell` instances whose :meth:`~ColumnarCell.attach_row`
/ :meth:`~ColumnarCell.detach_row` read the store columns in place —
also to keep the cell's ``prev`` buckets, the rows the tick's Eq. 5
walk reads, once a tick has read them — so the DES hot loop allocates
no per-event objects beyond a bucketed row.  The only
remaining per-object shim is :func:`handle_class`, a two-word handle
exposing the attribute set :meth:`repro.cellular.cell.Cell.attach`
duck-types against (``connection_id``, ``bandwidth``,
``reservation_basis``, ``prev_cell``, ``cell_entry_time``, ...); it is
materialised ephemerally on the rare fallback paths that still iterate
connection objects (the Eq. 5 snapshot walk, disabled reservation
caches).  The store itself is bound at the *class* level so each live
handle carries nothing but its row.

Rows are guarded by a monotone ``serial`` column: every allocation
stamps the row with a fresh serial, so stale references (e.g. a
shipped hand-off record whose connection has since ended) can detect
recycling with one integer compare.
"""

from __future__ import annotations

import array as _array

from repro.cellular.cell import CapacityError, Cell

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

    Columns (≈49 bytes/row including the serial guard, versus several
    hundred bytes for the ``Connection``/``Mobile`` object pair):

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

    def alloc(self) -> int:
        """Return a fresh row id (recycled when possible) with a new serial."""
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

    def bandwidth(self, row: int) -> float:
        return BANDWIDTH_TABLE[self.columns["bw_code"][row]]


class _ConnectionHandle:
    """Two-word view of one :class:`ConnectionStore` row.

    Exposes exactly the duck-typed attribute set the admission layer
    reads (:meth:`Cell.attach` / :meth:`Cell.detach` / the policies).
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
    """A :class:`~repro.cellular.cell.Cell` backed by store rows.

    The classic attach path costs one handle object per connection plus
    a property call per field read; at city scale that object churn is
    a leading hot-loop term.  A columnar cell keeps the same accounting
    (``used_bandwidth``, the ``prev`` buckets the tick's Eq. 5 walk
    reads) but reads every field straight out of the
    :class:`ConnectionStore` columns, so admission, reservation flush,
    and hand-off migration touch no per-connection Python objects.
    :meth:`connections` materialises ephemeral handles for the Eq. 5
    snapshot walk and the buckets' first build only.
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
        #: ``connection_id -> store row`` in attach order (dict
        #: preserves it).
        self._store_rows: dict[int, int] = {}
        self._handle_cls = handle_cls

    @property
    def connection_count(self) -> int:
        return len(self._store_rows)

    def connections(self):
        """Ephemeral handle views, in attach order."""
        cls = self._handle_cls
        if cls is None:
            cls = self._handle_cls = handle_class(self.store)
        return [cls(row) for row in self._store_rows.values()]

    def attach_row(self, row: int) -> None:
        """Account a store row into this cell (admission already decided)."""
        store = self.store
        columns = store.columns
        # ``array.array`` columns hand back native ints/floats, so no
        # per-field conversions are needed on this path.
        key = (
            columns["birth_seq"][row] * store.num_cells
            + columns["birth_cell"][row]
        )
        store_rows = self._store_rows
        if key in store_rows:
            raise CapacityError(
                f"connection {key} already in cell {self.cell_id}"
            )
        bandwidth = BANDWIDTH_TABLE[columns["bw_code"][row]]
        if self.used_bandwidth + bandwidth > self.handoff_capacity + 1e-9:
            raise CapacityError(
                f"cell {self.cell_id}: attaching {bandwidth} BU"
                f" exceeds capacity ({self.used_bandwidth}/"
                f"{self.handoff_capacity})"
            )
        store_rows[key] = row
        self.used_bandwidth += bandwidth
        if self._buckets is not None:
            # ``prev`` is -1 for "born here": ``prev=None``, as the
            # handles the first read builds the buckets from say.
            prev = columns["prev"][row]
            self._add_row(
                None if prev < 0 else prev,
                columns["entry_time"][row],
                bandwidth,
                key,
            )

    def detach_row(self, row: int) -> None:
        """Release a store row's bandwidth."""
        store = self.store
        columns = store.columns
        key = (
            columns["birth_seq"][row] * store.num_cells
            + columns["birth_cell"][row]
        )
        if self._store_rows.pop(key, None) is None:
            raise CapacityError(
                f"connection {key} not in cell {self.cell_id}"
            )
        if self._buckets is not None:
            # The caller detaches before it moves the row's prev and
            # entry time on: they locate the row's bucket.
            prev = columns["prev"][row]
            self._drop_row(
                None if prev < 0 else prev, columns["entry_time"][row], key
            )
        self.used_bandwidth -= BANDWIDTH_TABLE[columns["bw_code"][row]]
        if self.used_bandwidth < -1e-9:
            raise CapacityError(
                f"cell {self.cell_id}: used bandwidth went negative"
            )
        if self.used_bandwidth < 0:
            self.used_bandwidth = 0.0

    def attach(self, connection) -> None:  # pragma: no cover - misuse guard
        raise TypeError(
            "ColumnarCell tracks store rows; use attach_row(row)"
        )

    def detach(self, connection) -> None:  # pragma: no cover - misuse guard
        raise TypeError(
            "ColumnarCell tracks store rows; use detach_row(row)"
        )
