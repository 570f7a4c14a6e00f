"""A cell: the radio coverage area of one base station.

The cell tracks its fixed link capacity (FCA, in bandwidth units — one
BU is the bandwidth of a voice connection, paper §2) and the set of
admitted connections.  Two admission paths exist, mirroring the paper:

* **new connections** must fit under ``capacity - reserved_target``
  (Eq. 1) — the reserved band is off-limits to them;
* **hand-offs** may use the whole capacity, including the reserved band.

The cell itself only does bandwidth accounting; *which* reservation
target applies is decided by the admission policy.  From the first
reservation tick that reads them, the cell also keeps its connections'
reservation rows bucketed by ``prev`` (:meth:`Cell.reservation_buckets`),
the resident input of the tick's Eq. 5 walk.  A cell whose rows nobody
reads (static guard channels, or Eq. 5 answered from snapshots) keeps
none.

One private pair, ``_enter``/``_leave``, does all of it for both cell
classes; :class:`~repro.simulation.columnar.ColumnarCell` keeps store
rows as members and differs only in where a member's ``(prev,
entry_time, basis)`` is read from: the store columns, through
:meth:`Cell._member_row` when the buckets are first built and inline in
its attach and detach adapters after that.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.traffic.connection import Connection


#: One bucketed reservation row: ``(entry_time, seq, basis, connection id)``.
Row = tuple[float, int, float, int]


class CapacityError(ValueError):
    """Raised when bandwidth accounting would go out of [0, C]."""


class Cell:
    """One cell with fixed link capacity.

    Parameters
    ----------
    cell_id:
        Index of the cell in its network (0-based).
    capacity:
        Wireless link capacity ``C(i)`` in BUs (paper assumption A6 uses
        100 BUs for every cell).
    """

    def __init__(
        self,
        cell_id: int,
        capacity: float,
        handoff_overload: float = 1.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if handoff_overload < 1.0:
            raise ValueError(
                f"hand-off overload factor must be >= 1, got"
                f" {handoff_overload}"
            )
        self.cell_id = cell_id
        self.capacity = float(capacity)
        #: CDMA-style *soft capacity* (paper §7): hand-offs may push the
        #: cell up to ``capacity * handoff_overload`` by accepting a
        #: higher interference level; new connections never may.
        self.handoff_capacity = float(capacity) * float(handoff_overload)
        self.used_bandwidth = 0.0
        #: Target reservation bandwidth ``B_r`` most recently computed for
        #: this cell (``B_r^{prev}`` in the AC3 description, §4.3).  For the
        #: static scheme this is the constant guard band ``G``.
        self.reserved_target = 0.0
        #: ``key -> member`` in attach order: the :class:`Connection`
        #: keyed by its id here, a store row in a columnar cell.
        self._members: dict[int, object] = {}
        # The rows of :meth:`reservation_buckets`: ``None`` until its
        # first call builds them, and only from then on do attach and
        # detach maintain them; ``_next_seq`` numbers the attaches.
        self._buckets: dict[int | None, list[Row]] | None = None
        self._next_seq = 0

    # ------------------------------------------------------------------
    # capacity queries
    # ------------------------------------------------------------------
    @property
    def free_bandwidth(self) -> float:
        """Bandwidth not used by any existing connection."""
        return self.capacity - self.used_bandwidth

    @property
    def connection_count(self) -> int:
        """Number of connections currently carried by this cell."""
        return len(self._members)

    def connections(self) -> Iterator["Connection"]:
        """Iterate over the connections currently in this cell."""
        return iter(self._members.values())

    def _member_row(self, connection) -> tuple[int | None, float, float]:
        """A member's reservation fields: ``(prev, entry_time, basis)``."""
        # Duck-typed minimal connections (bandwidth only) still account;
        # they just count as prev=None at entry time 0.
        return (
            getattr(connection, "prev_cell", None),
            getattr(connection, "cell_entry_time", 0.0),
            getattr(connection, "reservation_basis", connection.bandwidth),
        )

    def reservation_buckets(self) -> dict[int | None, list[Row]]:
        """The reservation rows, bucketed by ``prev``.

        Each bucket lists ``(entry_time, seq, basis, connection id)``
        in ascending ``(entry_time, seq)``; ``seq`` numbers the
        attaches, so ascending ``seq`` over all buckets is the order of
        :meth:`connections`.  A ``prev`` without connections has no
        bucket.  Built from the members (through :meth:`_member_row`)
        on first use and maintained by every attach and detach from
        then on; the buckets are live and change with the next attach
        or detach.
        """
        buckets = self._buckets
        if buckets is None:
            buckets = self._buckets = {}
            member_row = self._member_row
            for seq, (key, member) in enumerate(self._members.items()):
                prev, entry_time, basis = member_row(member)
                row = (entry_time, seq, basis, key)
                bucket = buckets.get(prev)
                if bucket is None:
                    buckets[prev] = [row]
                else:
                    bucket.append(row)
            for bucket in buckets.values():
                bucket.sort()
            self._next_seq = self.connection_count
        return buckets

    def fits_new_connection(self, bandwidth: float) -> bool:
        """Admission test of Eq. (1): new traffic must respect ``B_r``."""
        return (
            self.used_bandwidth + bandwidth
            <= self.capacity - self.reserved_target + 1e-9
        )

    def fits_handoff(self, bandwidth: float) -> bool:
        """Hand-offs may consume reserved bandwidth and (in soft-capacity
        deployments) the interference margin above the nominal capacity."""
        return self.used_bandwidth + bandwidth <= self.handoff_capacity + 1e-9

    def can_reserve_target(self) -> bool:
        """Whether the current ``B_r`` target is actually reservable.

        ``False`` means the cell is *suspect* in AC3 terms: its existing
        connections already overlap the reserved band
        (``sum b_j + B_r^{prev} > C``).
        """
        return (
            self.used_bandwidth + self.reserved_target <= self.capacity + 1e-9
        )

    @property
    def is_suspect(self) -> bool:
        """AC3's *suspect* predicate: the ``B_r`` target is not met.

        A suspect cell's existing connections already overlap its
        reserved band (``sum b_j + B_r^{prev} > C``); AC3 re-estimates
        only these cells before admitting (§4.3).
        """
        return not self.can_reserve_target()

    # ------------------------------------------------------------------
    # bandwidth accounting
    # ------------------------------------------------------------------
    def _enter(
        self,
        key: int,
        member,
        bandwidth: float,
        fields: tuple[int | None, float, float] | None,
    ) -> None:
        """Account ``member`` into this cell under ``key``.

        ``fields`` is the member's ``(prev, entry_time, basis)``.  The
        caller reads it only while the cell has buckets and passes
        ``None`` otherwise, so a cell without buckets reads no more than
        the key and the bandwidth, and ``fields`` alone says whether
        there are buckets to keep.
        """
        members = self._members
        if key in members:
            raise CapacityError(
                f"connection {key} already in cell {self.cell_id}"
            )
        if self.used_bandwidth + bandwidth > self.handoff_capacity + 1e-9:
            raise CapacityError(
                f"cell {self.cell_id}: attaching {bandwidth} BU"
                f" exceeds capacity ({self.used_bandwidth}/"
                f"{self.handoff_capacity})"
            )
        members[key] = member
        self.used_bandwidth += bandwidth
        if fields is not None:
            prev, entry_time, basis = fields
            row = (entry_time, self._next_seq, basis, key)
            self._next_seq += 1
            buckets = self._buckets
            bucket = buckets.get(prev)
            if bucket is None:
                buckets[prev] = [row]
            elif bucket[-1][0] <= entry_time:
                # The newest ``seq``: no earlier entry time, so last.
                bucket.append(row)
            else:
                insort(bucket, row)

    def _leave(
        self,
        key: int,
        bandwidth: float,
        fields: tuple[int | None, float, float] | None,
    ) -> None:
        """Release the member under ``key`` and its ``bandwidth``.

        ``fields`` is read as in :meth:`_enter`, before the member's
        prev and entry time move on: they locate its bucket row.
        """
        if self._members.pop(key, None) is None:
            raise CapacityError(f"connection {key} not in cell {self.cell_id}")
        if fields is not None:
            prev, entry_time, _basis = fields
            buckets = self._buckets
            bucket = buckets[prev]
            index = bisect_left(bucket, (entry_time,))
            while bucket[index][3] != key:  # rows sharing the entry time
                index += 1
            del bucket[index]
            if not bucket:
                del buckets[prev]
        self.used_bandwidth -= bandwidth
        if self.used_bandwidth < -1e-9:
            raise CapacityError(
                f"cell {self.cell_id}: used bandwidth went negative"
            )
        if self.used_bandwidth < 0:
            self.used_bandwidth = 0.0

    def attach(self, connection: "Connection") -> None:
        """Account a connection into this cell (admission already decided)."""
        self._enter(
            connection.connection_id,
            connection,
            connection.bandwidth,
            None if self._buckets is None else self._member_row(connection),
        )

    def detach(self, connection: "Connection") -> None:
        """Release a connection's bandwidth (hand-off out or completion)."""
        self._leave(
            connection.connection_id,
            connection.bandwidth,
            None if self._buckets is None else self._member_row(connection),
        )

    def adjust_bandwidth(
        self, connection: "Connection", new_bandwidth: float
    ) -> None:
        """Re-size an attached connection's allocation (QoS adaptation).

        Keeps the cell's accounting consistent while a degraded
        connection is squeezed further or upgraded back toward its full
        rate.  The new allocation must respect both the class's floor
        and the cell capacity.
        """
        if connection.connection_id not in self._members:
            raise CapacityError(
                f"connection {connection.connection_id} not in cell"
                f" {self.cell_id}"
            )
        if new_bandwidth < connection.min_bandwidth - 1e-9:
            raise ValueError(
                f"allocation {new_bandwidth} below the class floor"
                f" {connection.min_bandwidth}"
            )
        if new_bandwidth > connection.full_bandwidth + 1e-9:
            raise ValueError(
                f"allocation {new_bandwidth} above the class rate"
                f" {connection.full_bandwidth}"
            )
        delta = new_bandwidth - connection.bandwidth
        if self.used_bandwidth + delta > self.capacity + 1e-9:
            raise CapacityError(
                f"cell {self.cell_id}: adjustment exceeds capacity"
            )
        self.used_bandwidth += delta
        connection.allocated_bandwidth = new_bandwidth
        # The reservation basis (minimum rate) is unaffected: the
        # connection's row stays as it is.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cell({self.cell_id}, used={self.used_bandwidth:.1f}/"
            f"{self.capacity:.0f}, B_r={self.reserved_target:.2f})"
        )

