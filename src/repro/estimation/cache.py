"""Quadruplet cache with periodic day-windows and the priority rule.

The cache stores :class:`HandoffQuadruplet` observations per
``(prev, next)`` pair and answers: *which quadruplets, with which
weights, participate in the hand-off estimation function at time t0?*
(paper Eqs. 2–3 and Figure 3).

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

Selection is *incremental*: entries are kept time-ordered in an
offset-compacted array with a mirrored event-time array, so each
rebuild finds every periodic window with two binary searches instead of
scanning (and sorting) the whole pair store, and only computes recency
distances when a window actually overflows ``N_quad``.

**Columnar fast path (infinite interval).**  With ``T_int = None`` the
live store of a pair *is* its active set, so the cache additionally
maintains, per pair and per ``prev`` (the Eq. 4 denominator union), a
sojourn-sorted column of the live sojourn times.  F_HOE snapshots are
then built by copying those columns (no comparison sort, no per-entry
wrapper objects) — see :meth:`QuadrupletCache.active_columns` — and the
largest active sojourn is the last element of a column
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
from itertools import islice
from typing import Iterator, Sequence

from repro.estimation.quadruplet import HandoffQuadruplet

#: Seconds in a day (``T_day`` in the paper).
DAY_SECONDS = 86_400.0

#: Dead-prefix length beyond which a pair store is compacted.
_COMPACT_THRESHOLD = 512


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


class WeightedQuadruplet:
    """A cache hit: the quadruplet plus its day-age weight ``w_n``.

    Created in bulk on every (fallback-path) F_HOE rebuild, so this is
    a bare ``__slots__`` pair rather than a dataclass.
    """

    __slots__ = ("quadruplet", "weight")

    def __init__(self, quadruplet: HandoffQuadruplet, weight: float) -> None:
        self.quadruplet = quadruplet
        self.weight = weight

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedQuadruplet):
            return NotImplemented
        return (
            self.quadruplet == other.quadruplet
            and self.weight == other.weight
        )

    def __hash__(self) -> int:
        return hash((self.quadruplet, self.weight))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedQuadruplet({self.quadruplet!r}, {self.weight!r})"


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
    """Per-(prev, next) storage; newest entries at the right end.

    Live entries are ``quads[start:]``; eviction advances ``start`` and
    the dead prefix is deleted once it grows past a threshold (amortised
    O(1) per eviction).  ``times`` mirrors ``quads`` with the event
    times so selection windows are located by binary search with O(1)
    random access — a deque would make every ``bisect`` probe O(n).

    ``sorted_sojourns`` is the columnar mirror maintained for infinite
    intervals only: the live sojourn times in ascending order, kept
    consistent by ``insort`` on record and ``bisect`` removal on evict.
    """

    quads: list[HandoffQuadruplet] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    start: int = 0
    sorted_sojourns: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.quads) - self.start

    def append(self, quadruplet: HandoffQuadruplet) -> None:
        self.quads.append(quadruplet)
        self.times.append(quadruplet.event_time)

    def newest_time(self) -> float:
        return self.times[-1]

    def drop_left(self, count: int) -> None:
        """Evict the ``count`` oldest live entries."""
        self.start += count
        if (
            self.start > _COMPACT_THRESHOLD
            and self.start * 2 >= len(self.quads)
        ):
            del self.quads[: self.start]
            del self.times[: self.start]
            self.start = 0


class QuadrupletCache:
    """Stores hand-off quadruplets for one cell and selects the active set."""

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()
        self._pairs: dict[tuple[int | None, int], _PairStore] = {}
        self._prev_keys: set[int | None] = set()
        #: ``prev -> sorted union of live sojourn times`` (infinite
        #: interval only): the Eq. 4 denominator column, maintained
        #: incrementally alongside the per-pair columns.
        self._union_sojourns: dict[int | None, list[float]] = {}
        #: ``next -> [(prev, union, sorted pair sojourns), ...]`` over
        #: the nonempty pair columns (infinite interval only).
        self._by_target: dict[int, list[tuple]] = {}
        self.total_recorded = 0

    # ------------------------------------------------------------------
    # recording / eviction
    # ------------------------------------------------------------------
    def record(self, quadruplet: HandoffQuadruplet) -> None:
        """Cache a new observation (must arrive in time order per pair)."""
        key = (quadruplet.prev, quadruplet.next)
        store = self._pairs.get(key)
        if store is None:
            store = _PairStore()
            self._pairs[key] = store
            self._prev_keys.add(quadruplet.prev)
        if len(store) and quadruplet.event_time < store.newest_time():
            raise ValueError("quadruplets must be recorded in time order")
        store.append(quadruplet)
        self.total_recorded += 1
        if self.config.interval is None:
            sorted_sojourns = store.sorted_sojourns
            insort(sorted_sojourns, quadruplet.sojourn)
            union = self._union_sojourns.get(quadruplet.prev)
            if union is None:
                union = self._union_sojourns[quadruplet.prev] = []
            insort(union, quadruplet.sojourn)
            if len(sorted_sojourns) == 1:
                self._index(quadruplet.prev, quadruplet.next, sorted_sojourns)
            excess = len(store) - self.config.max_per_pair
            if excess > 0:
                self._drop_oldest_columnar(store, quadruplet.prev, excess)
        else:
            self._evict_windowed(store, quadruplet.event_time)

    def _drop_oldest_columnar(
        self, store: _PairStore, prev: int | None, count: int
    ) -> None:
        """Infinite interval: evict beyond ``N_quad``, keeping columns."""
        union = self._union_sojourns[prev]
        sorted_sojourns = store.sorted_sojourns
        for quad in store.quads[store.start : store.start + count]:
            sojourn = quad.sojourn
            del sorted_sojourns[bisect_left(sorted_sojourns, sojourn)]
            del union[bisect_left(union, sojourn)]
        store.drop_left(count)

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
            quads = store.quads[store.start:]
            if not quads:
                continue
            exported[key] = (
                [quad.event_time for quad in quads],
                [quad.sojourn for quad in quads],
            )
        return exported

    def preload(self, pairs) -> None:
        """Bulk-load exported history columns into an empty cache.

        ``pairs`` maps ``(prev, next)`` to parallel ``(times, sojourns)``
        sequences in record order (see :meth:`export_columns`).
        Equivalent to recording each quadruplet in turn, but builds the
        sorted columns with one sort per column instead of per-entry
        ``insort``.  Only valid before any :meth:`record`.
        """
        if self._pairs:
            raise ValueError("preload requires an empty cache")
        infinite = self.config.interval is None
        for (prev, next_cell), (times, sojourns) in pairs.items():
            if infinite and len(times) > self.config.max_per_pair:
                # Respect N_quad even if the exporter was configured
                # looser; newest entries win, as record() would keep.
                times = times[-self.config.max_per_pair:]
                sojourns = sojourns[-self.config.max_per_pair:]
            store = _PairStore()
            store.quads = [
                HandoffQuadruplet(time, prev, next_cell, sojourn)
                for time, sojourn in zip(times, sojourns)
            ]
            store.times = list(times)
            if infinite:
                store.sorted_sojourns = sorted(sojourns)
                union = self._union_sojourns.get(prev)
                if union is None:
                    union = self._union_sojourns[prev] = []
                union.extend(sojourns)
            self._pairs[(prev, next_cell)] = store
            self._prev_keys.add(prev)
            self.total_recorded += len(store.quads)
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
        # Entries are time-ordered: the out-of-date prefix ends at the
        # first event time still within the horizon.
        keep_from = bisect_left(
            store.times, now - horizon, store.start, len(store.times)
        )
        if keep_from > store.start:
            store.drop_left(keep_from - store.start)
        # Memory bound: one full window of N_quad per contributing day.
        limit = config.max_per_pair * (config.window_days + 1)
        excess = len(store) - limit
        if excess > 0:
            store.drop_left(excess)

    # ------------------------------------------------------------------
    # selection (Eqs. 2-3 + priority rule)
    # ------------------------------------------------------------------
    def active(
        self, now: float, prev: int | None
    ) -> dict[int, list[WeightedQuadruplet]]:
        """Active weighted quadruplets at time ``now`` for one ``prev``.

        Returns a mapping ``next -> [WeightedQuadruplet, ...]``.
        """
        result: dict[int, list[WeightedQuadruplet]] = {}
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
            if stored_prev != prev or not len(store):
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
        return sum(len(store) for store in self._pairs.values())

    def _select_pair(
        self, store: _PairStore, now: float
    ) -> list[WeightedQuadruplet]:
        config = self.config
        quads = store.quads
        end = len(quads)
        if end == store.start:
            return []
        if config.interval is None:
            weight = config.weights[0]
            begin = max(store.start, end - config.max_per_pair)
            return [
                WeightedQuadruplet(quad, weight)
                for quad in islice(quads, begin, end)
            ]
        return self._select_pair_windowed(store, now)

    def _select_pair_windowed(
        self, store: _PairStore, now: float
    ) -> list[WeightedQuadruplet]:
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
        quads = store.quads
        start, end = store.start, len(quads)
        # Consecutive windows can overlap (entries then belong to the
        # *smallest* n — Eq. 2); only track claims when geometry allows it.
        overlapping = 2.0 * interval > config.period
        claimed: set[int] = set()
        budget = config.max_per_pair
        selected: list[WeightedQuadruplet] = []
        for day_age, weight in enumerate(config.weights):
            if budget <= 0:
                break
            if weight <= 0.0:
                continue
            center = now - day_age * config.period
            lo = bisect_left(times, center - interval, start, end)
            hi = bisect_left(times, center + interval, lo, end)
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
                selected.append(WeightedQuadruplet(quads[index], weight))
            if overlapping:
                claimed.update(chosen)
            budget -= len(chosen)
        return selected
