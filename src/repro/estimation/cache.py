"""Quadruplet cache with periodic day-windows and the priority rule.

A base station caches one quadruplet ``(T_event, prev, next, T_soj)``
for every mobile that leaves its cell (paper §3.1).  The cache keeps
them as columns, per ``(prev, next)`` pair: the event times and the
sojourn times in record order.  :meth:`QuadrupletCache.record` takes
the four values and builds no object.  The cache answers: *which
quadruplets, with which weights, participate in the hand-off
estimation function at time t0?* (paper Eqs. 2–3 and Figure 3), as
``(sojourn, weight)`` pairs: Eq. 4 reads nothing else.

A quadruplet observed at ``T_event`` participates if, for some integer
``n >= 0``::

    t0 - T_int - n * T_day  <=  T_event  <  t0 + T_int - n * T_day

and gets weight ``w_n`` (non-increasing, zero beyond ``N_win-days``).
At most ``N_quad`` quadruplets per ``(prev, next)`` pair are used; ties
are broken by the paper's priority rule — smaller ``n`` first, then
smaller recency-adjusted distance ``|T_event + n*T_day - t0|``.

``T_int = None`` models the paper's stationary runs (``T_int = inf``):
every cached quadruplet is in-window with weight ``w_0`` and the
``N_quad`` most recent per pair are used.

Selection is *incremental*: the columns are time-ordered and hold only
live entries, so each rebuild finds every periodic window with two
binary searches on the time column instead of scanning (and sorting)
the whole pair store, and only computes recency distances when a
window actually overflows ``N_quad``.

**Sorted columns (infinite interval).**  With ``T_int = None`` the
live entries of a pair *are* its active set, so the cache additionally
maintains, per pair and per ``prev`` (the Eq. 4 denominator union), a
sojourn-sorted column of the live sojourn times.  F_HOE snapshots are
then built by copying those columns (no comparison sort, no
``(sojourn, weight)`` pairs) — see
:meth:`QuadrupletCache.active_columns` — and the largest active
sojourn is the last element of a column
(:meth:`QuadrupletCache.max_active_sojourn`).

The reservation tick counts Eq. 4 masses in the same live lists, in
place, with ``bisect`` and no snapshot: a resident index ``target ->
[(prev, union, pair)]`` (:meth:`QuadrupletCache.lists_by_target`) gains
an entry when a ``(prev, target)`` list first becomes nonempty, and
:class:`repro._kernel.FlushBatch` walks the lists it names.  With
``T_int = inf`` an ``N_quad`` eviction never empties a list, so no
entry ever leaves.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterator, Sequence

#: Seconds in a day (``T_day`` in the paper).
DAY_SECONDS = 86_400.0


@dataclass
class CacheConfig:
    """Tunables of the quadruplet cache (paper §3.1 design parameters)."""

    #: Estimation interval ``T_int`` (seconds); ``None`` = infinite.
    interval: float | None = None
    #: ``N_quad`` — max quadruplets per ``(prev, next)`` used by F_HOE.
    max_per_pair: int = 100
    #: Day-age weights ``w_0, w_1, ...``; entries beyond the list are 0.
    #: Must be non-increasing with ``w_0 = 1`` dominance (Eq. 3 requires
    #: ``1 >= w_n >= w_{n+1} >= 0``).
    weights: tuple[float, ...] = (1.0, 1.0)
    #: Cycle length (``T_day`` by default; use 7 days for weekend sets).
    period: float = DAY_SECONDS

    def __post_init__(self) -> None:
        if self.interval is not None and self.interval <= 0:
            raise ValueError("interval must be positive or None")
        if self.max_per_pair < 1:
            raise ValueError("max_per_pair must be >= 1")
        if not self.weights or self.weights[0] > 1.0:
            raise ValueError("weights must start at w_0 <= 1")
        if self.weights[-1] < 0.0:
            raise ValueError("weights cannot be negative")
        for earlier, later in zip(self.weights, self.weights[1:]):
            if later > earlier:
                raise ValueError("weights must be non-increasing")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def window_days(self) -> int:
        """``N_win-days``: number of past periods still contributing."""
        return len(self.weights) - 1


class ColumnarActive:
    """The active set of one ``prev`` as sojourn-sorted columns.

    ``per_next`` maps each next cell to a *sorted* sequence of active
    sojourn times; ``union`` is the sorted concatenation over all next
    cells (the Eq. 4 denominator support); every entry carries the same
    ``uniform_weight`` (infinite-interval selection assigns ``w_0`` to
    everything).  The sequences are snapshots owned by the caller.
    """

    __slots__ = ("per_next", "union", "uniform_weight")

    def __init__(
        self,
        per_next: dict[int, Sequence[float]],
        union: Sequence[float],
        uniform_weight: float,
    ) -> None:
        self.per_next = per_next
        self.union = union
        self.uniform_weight = uniform_weight


@dataclass(slots=True)
class _PairStore:
    """Per-(prev, next) columns of the live entries, oldest first.

    ``times`` and ``sojourns`` hold the event and sojourn times in
    record order, in lists so that selection windows are located by
    binary search.  An eviction deletes the oldest entries from both at
    once: a pair holds at most ``N_quad`` entries per contributing day,
    so the shift is short, and no dead prefix outlives it.

    ``sorted_sojourns`` is kept for infinite intervals only: the live
    sojourn times in ascending order, kept consistent by ``insort`` on
    record and ``bisect`` removal on evict.
    """

    times: list[float] = field(default_factory=list)
    sojourns: list[float] = field(default_factory=list)
    sorted_sojourns: list[float] = field(default_factory=list)


class QuadrupletCache:
    """Stores hand-off quadruplets for one cell and selects the active set."""

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()
        self._pairs: dict[tuple[int | None, int], _PairStore] = {}
        self._prev_keys: set[int | None] = set()
        #: ``prev -> sorted union of live sojourn times`` (kept under
        #: an infinite interval only): the Eq. 4 denominator column,
        #: maintained incrementally alongside the per-pair columns.
        self._union_sojourns: dict[int | None, list[float]] = {}
        #: ``next -> [(prev, union, sorted pair sojourns), ...]`` over
        #: the nonempty pair columns (infinite interval only).
        self._by_target: dict[int, list[tuple]] = {}
        self.total_recorded = 0

    # ------------------------------------------------------------------
    # recording / eviction
    # ------------------------------------------------------------------
    def record(
        self,
        event_time: float,
        prev: int | None,
        next_cell: int,
        sojourn: float,
    ) -> None:
        """Cache the quadruplet ``(T_event, prev, next, T_soj)`` of one
        departure (must arrive in time order per pair).

        ``event_time`` is negative for history imported from a prior
        warm-up run, rebased before this run's t=0; ``prev`` is
        ``None`` when the connection started in this cell.
        """
        if sojourn < 0:
            raise ValueError(f"negative sojourn time {sojourn}")
        store = self._pairs.get((prev, next_cell))
        if store is None:
            store = self._pairs[(prev, next_cell)] = _PairStore()
            self._prev_keys.add(prev)
            self._union_sojourns.setdefault(prev, [])
        times = store.times
        if times and event_time < times[-1]:
            raise ValueError("quadruplets must be recorded in time order")
        sojourns = store.sojourns
        times.append(event_time)
        sojourns.append(sojourn)
        self.total_recorded += 1
        if self.config.interval is not None:
            self._evict_windowed(store, event_time)
            return
        sorted_sojourns = store.sorted_sojourns
        insort(sorted_sojourns, sojourn)
        union = self._union_sojourns[prev]
        insort(union, sojourn)
        if len(sorted_sojourns) == 1:
            self._index(prev, next_cell, sorted_sojourns)
        # Every record adds one entry and a pair never holds more than
        # N_quad after one, so an eviction drops exactly the oldest.
        if len(times) > self.config.max_per_pair:
            oldest = sojourns[0]
            del times[0], sojourns[0]
            del sorted_sojourns[bisect_left(sorted_sojourns, oldest)]
            del union[bisect_left(union, oldest)]

    # ------------------------------------------------------------------
    # the live lists the reservation tick counts in
    # ------------------------------------------------------------------
    def _index(
        self, prev: int | None, next_cell: int, pair: list[float]
    ) -> None:
        """Enter a pair column that just became nonempty."""
        self._by_target.setdefault(next_cell, []).append(
            (prev, self._union_sojourns[prev], pair)
        )

    def lists_by_target(self) -> dict[int, list[tuple]] | None:
        """The live sorted sojourn lists, indexed by target cell.

        Maps each ``next`` to ``(prev, union, pair)`` for every
        ``(prev, next)`` whose sorted list ``pair`` is nonempty, with
        ``union`` the sorted union of all of ``prev``'s live sojourns.
        The index and its lists are the cache's own and stay current
        across :meth:`record` and :meth:`preload`; treat them as
        read-only.

        ``None`` unless ``T_int`` is infinite and ``w_0 = 1``: only
        then is an Eq. 4 mass the plain count of a list's sojourns.
        """
        config = self.config
        if config.interval is not None or config.weights[0] != 1.0:
            return None
        return self._by_target

    def export_columns(
        self,
    ) -> dict[tuple[int | None, int], tuple[list[float], list[float]]]:
        """Live per-pair history as plain picklable record-order columns.

        Returns ``{(prev, next): (times, sojourns)}`` at the recorded
        event times.  A consumer that replays this history before its
        own clock starts shifts it back by the exporting run's length
        (:class:`~repro.state.CheckpointWarmStart`'s ``rebase_seconds``),
        so the cache's record-in-time-order invariant holds for every
        later :meth:`record` at ``t >= 0``.
        """
        exported: dict[
            tuple[int | None, int], tuple[list[float], list[float]]
        ] = {}
        for key, store in self._pairs.items():
            if store.times:
                exported[key] = (store.times[:], store.sojourns[:])
        return exported

    def preload(self, pairs) -> None:
        """Bulk-load exported history columns into an empty cache.

        ``pairs`` maps ``(prev, next)`` to parallel ``(times, sojourns)``
        sequences in record order (see :meth:`export_columns`).
        Equivalent to recording each quadruplet in turn, but copies the
        columns and builds the sorted ones with one sort per column
        instead of per-entry ``insort``.  Only valid before any
        :meth:`record`.
        """
        if self._pairs:
            raise ValueError("preload requires an empty cache")
        infinite = self.config.interval is None
        for (prev, next_cell), (times, sojourns) in pairs.items():
            if sojourns and min(sojourns) < 0:
                raise ValueError(f"negative sojourn time {min(sojourns)}")
            if infinite and len(times) > self.config.max_per_pair:
                # Respect N_quad even if the exporter was configured
                # looser; newest entries win, as record() would keep.
                times = times[-self.config.max_per_pair:]
                sojourns = sojourns[-self.config.max_per_pair:]
            store = _PairStore(list(times), list(sojourns))
            if infinite:
                store.sorted_sojourns = sorted(sojourns)
                self._union_sojourns.setdefault(prev, []).extend(sojourns)
            self._pairs[(prev, next_cell)] = store
            self._prev_keys.add(prev)
            self.total_recorded += len(store.times)
        for union in self._union_sojourns.values():
            union.sort()
        for (prev, next_cell), store in self._pairs.items():
            if store.sorted_sojourns:
                self._index(prev, next_cell, store.sorted_sojourns)

    def _evict_windowed(self, store: _PairStore, now: float) -> None:
        """Drop entries that can never participate again (paper §3.1).

        A quadruplet older than ``N_win-days * period + T_int`` is
        out-of-date for every future estimation instant.
        """
        config = self.config
        horizon = config.window_days * config.period + config.interval
        times = store.times
        # Entries are time-ordered: the out-of-date prefix ends at the
        # first event time still within the horizon.  Memory bound: one
        # full window of N_quad per contributing day.
        keep_from = max(
            bisect_left(times, now - horizon),
            len(times) - config.max_per_pair * (config.window_days + 1),
        )
        if keep_from > 0:
            del times[:keep_from]
            del store.sojourns[:keep_from]

    # ------------------------------------------------------------------
    # selection (Eqs. 2-3 + priority rule)
    # ------------------------------------------------------------------
    def active(
        self, now: float, prev: int | None
    ) -> dict[int, list[tuple[float, float]]]:
        """Active quadruplets at time ``now`` for one ``prev``.

        Returns a mapping ``next -> [(sojourn, weight), ...]``.
        """
        result: dict[int, list[tuple[float, float]]] = {}
        for (stored_prev, next_cell), store in self._pairs.items():
            if stored_prev != prev:
                continue
            selected = self._select_pair(store, now)
            if selected:
                result[next_cell] = selected
        return result

    def active_columns(
        self, now: float, prev: int | None
    ) -> ColumnarActive | None:
        """Columnar active set for one ``prev``, or ``None``.

        Only the infinite-interval configuration has an incrementally
        maintained columnar form (the live store *is* the active set);
        finite ``T_int`` callers must fall back to :meth:`active`.  The
        returned columns are copies — snapshots stay immutable while
        the live store keeps evolving.
        """
        if self.config.interval is not None:
            return None
        per_next: dict[int, Sequence[float]] = {}
        for (stored_prev, next_cell), store in self._pairs.items():
            if stored_prev != prev or not store.sorted_sojourns:
                continue
            per_next[next_cell] = store.sorted_sojourns[:]
        union = self._union_sojourns.get(prev)
        return ColumnarActive(
            per_next,
            union[:] if union else [],
            self.config.weights[0],
        )

    def max_active_sojourn(self) -> float | None:
        """Largest active sojourn over all ``prev``; ``None`` if unknown.

        O(number of pairs) for infinite intervals (last element of each
        union column).  Finite ``T_int`` selection is window-dependent,
        so the caller must derive the maximum from snapshots instead —
        signalled by ``None``.
        """
        if self.config.interval is not None:
            return None
        maximum = 0.0
        for union in self._union_sojourns.values():
            if union and union[-1] > maximum:
                maximum = union[-1]
        return maximum

    def pairs(self) -> Iterator[tuple[int | None, int]]:
        """Iterate over all ``(prev, next)`` pairs with any cached entries."""
        return iter(self._pairs)

    def prev_keys(self) -> set[int | None]:
        """Every ``prev`` that ever contributed a quadruplet.

        Maintained incrementally so hot callers (``max_sojourn`` on each
        hand-off arrival) need not rebuild the set from :meth:`pairs`.
        The returned set is live — treat it as read-only.
        """
        return self._prev_keys

    def size(self) -> int:
        """Total quadruplets currently cached (all pairs)."""
        return sum(len(store.times) for store in self._pairs.values())

    def _select_pair(
        self, store: _PairStore, now: float
    ) -> list[tuple[float, float]]:
        config = self.config
        if config.interval is None:
            weight = config.weights[0]
            return [(sojourn, weight) for sojourn in store.sojourns]
        return self._select_pair_windowed(store, now)

    def _select_pair_windowed(
        self, store: _PairStore, now: float
    ) -> list[tuple[float, float]]:
        """Finite ``T_int``: pick per periodic window via binary search.

        Equivalent to scoring every entry with the priority rule and
        sorting by ``(n, distance)``, but each window ``n`` is located
        with two bisects and recency distances are only computed when a
        window overflows the remaining ``N_quad`` budget.
        """
        config = self.config
        interval = config.interval
        assert interval is not None
        times = store.times
        sojourns = store.sojourns
        # Consecutive windows can overlap (entries then belong to the
        # *smallest* n — Eq. 2); only track claims when geometry allows it.
        overlapping = 2.0 * interval > config.period
        claimed: set[int] = set()
        budget = config.max_per_pair
        selected: list[tuple[float, float]] = []
        for day_age, weight in enumerate(config.weights):
            if budget <= 0:
                break
            if weight <= 0.0:
                continue
            center = now - day_age * config.period
            lo = bisect_left(times, center - interval)
            hi = bisect_left(times, center + interval, lo)
            if lo == hi:
                continue
            if overlapping and claimed:
                indices = [i for i in range(lo, hi) if i not in claimed]
            else:
                indices = range(lo, hi)
            if len(indices) <= budget:
                chosen = indices
            else:
                # Window overflow: the paper's priority rule keeps the
                # entries closest to the (periodically shifted) instant.
                chosen = heapq.nsmallest(
                    budget,
                    indices,
                    key=lambda i: (abs(times[i] - center), i),
                )
            for index in chosen:
                selected.append((sojourns[index], weight))
            if overlapping:
                claimed.update(chosen)
            budget -= len(chosen)
        return selected
