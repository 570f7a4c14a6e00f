"""The hand-off estimation function ``F_HOE`` (paper §3.1, Figures 4–5).

A :class:`HandoffEstimationFunction` is an immutable snapshot, for one
``prev`` cell, of the quadruplets active at a build instant: Eq. 4
reads only their sojourn times and day-age weights.
It answers the mass queries needed by Bayes' rule (Eq. 4) in
``O(log N_quad)`` per query using sorted sojourn arrays with prefix
weight sums.

The storage is *columnar*: one sorted sojourn array plus one prefix
weight-sum array per next cell (and one pair for the union over next
cells, which makes the Eq. 4 denominator a single binary search).
Snapshots are built either from the ``(sojourn, weight)`` pairs of the
cache's window selection or, far cheaper, straight from its
incrementally sorted columns (:meth:`from_columns`).
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, repeat
from typing import Mapping, Sequence

from repro.estimation.cache import ColumnarActive


class _Mass:
    """Sorted sojourn times and cumulative weights for one next cell."""

    __slots__ = ("sojourns", "cumulative")

    def __init__(
        self, sojourns: list[float], cumulative: list[float]
    ) -> None:
        self.sojourns = sojourns
        self.cumulative = cumulative

    @classmethod
    def from_weighted(
        cls, weighted: Sequence[tuple[float, float]]
    ) -> "_Mass":
        """Build from ``(sojourn, weight)`` pairs in any order."""
        ordered = sorted(weighted)
        return cls(
            [sojourn for sojourn, _weight in ordered],
            list(accumulate(weight for _sojourn, weight in ordered)),
        )

    @classmethod
    def from_column(
        cls, sorted_sojourns: Sequence[float], uniform_weight: float
    ) -> "_Mass":
        """Build from an already-sorted column of equal-weight entries.

        The cumulative array is produced by the same left-to-right
        running addition as :meth:`from_weighted`, so masses are
        bit-identical to the pairs path for any ``w_0``.
        """
        sojourns = list(sorted_sojourns)
        return cls(
            sojourns,
            list(accumulate(repeat(uniform_weight, len(sojourns)))),
        )

    @property
    def total(self) -> float:
        return self.cumulative[-1] if self.cumulative else 0.0

    def mass_at_most(self, sojourn: float) -> float:
        """Total weight of entries with ``T_soj <= sojourn``."""
        index = bisect_right(self.sojourns, sojourn)
        return self.cumulative[index - 1] if index else 0.0

    def mass_above(self, sojourn: float) -> float:
        """Total weight of entries with ``T_soj > sojourn``."""
        return self.total - self.mass_at_most(sojourn)

    def mass_between(self, low: float, high: float) -> float:
        """Total weight of entries with ``low < T_soj <= high``."""
        if high <= low:
            return 0.0
        return self.mass_at_most(high) - self.mass_at_most(low)

    def count_above(self, sojourn: float) -> int:
        """Number of entries (unweighted) with ``T_soj > sojourn``."""
        return len(self.sojourns) - bisect_right(self.sojourns, sojourn)

    def max_sojourn(self) -> float:
        return self.sojourns[-1] if self.sojourns else 0.0


class HandoffEstimationFunction:
    """``F_HOE(t0, prev, ., .)`` for a fixed ``prev`` at a fixed instant.

    Parameters
    ----------
    weighted_by_next:
        Mapping ``next cell id -> [(sojourn, weight), ...]``, as
        produced by :meth:`repro.estimation.cache.QuadrupletCache.active`.
        Snapshots over the cache's columnar fast path are built with
        :meth:`from_columns` instead.
    """

    __slots__ = ("_per_next", "_union")

    def __init__(
        self,
        weighted_by_next: Mapping[int, Sequence[tuple[float, float]]],
    ) -> None:
        self._per_next = {
            next_cell: _Mass.from_weighted(items)
            for next_cell, items in weighted_by_next.items()
            if items
        }
        # Union over all next cells: makes the Eq. 4 denominator a
        # single binary search instead of a sum over neighbours.
        all_items = [
            item for items in weighted_by_next.values() for item in items
        ]
        self._union = _Mass.from_weighted(all_items)

    @classmethod
    def from_columns(cls, columns: ColumnarActive) -> "HandoffEstimationFunction":
        """Build straight from the cache's sorted columns (no sorting).

        ``columns`` ownership transfers to the snapshot — the cache
        hands over fresh copies, so live stores may keep evolving.
        """
        function = cls.__new__(cls)
        weight = columns.uniform_weight
        function._per_next = {
            next_cell: _Mass.from_column(sojourns, weight)
            for next_cell, sojourns in columns.per_next.items()
            if sojourns
        }
        function._union = _Mass.from_column(columns.union, weight)
        return function

    # ------------------------------------------------------------------
    # mass queries (building blocks of Eq. 4)
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self._per_next

    def next_cells(self) -> tuple[int, ...]:
        """Next cells with any observed mass."""
        return tuple(self._per_next)

    def mass_between(self, next_cell: int, low: float, high: float) -> float:
        """Numerator mass: weight of ``low < T_soj <= high`` toward a cell."""
        per_next = self._per_next.get(next_cell)
        return per_next.mass_between(low, high) if per_next else 0.0

    def mass_above(self, next_cell: int, sojourn: float) -> float:
        """Weight of ``T_soj > sojourn`` toward one next cell."""
        per_next = self._per_next.get(next_cell)
        return per_next.mass_above(sojourn) if per_next else 0.0

    def total_mass_above(self, sojourn: float) -> float:
        """Denominator mass of Eq. 4: all next cells, ``T_soj > sojourn``."""
        return self._union.mass_above(sojourn)

    def total_mass_between(self, low: float, high: float) -> float:
        """All next cells, ``low < T_soj <= high`` (known-path variant)."""
        return self._union.mass_between(low, high)

    def max_sojourn(self) -> float:
        """Largest sojourn time with non-zero mass (0 when empty)."""
        return self._union.max_sojourn()

    def sample_count_above(self, sojourn: float) -> int:
        """Unweighted number of active quadruplets beyond ``sojourn``."""
        return self._union.count_above(sojourn)

    def footprint(self) -> dict[int, list[tuple[float, float]]]:
        """``next -> [(sojourn, cumulative weight), ...]`` (Figure 4 aid)."""
        return {
            next_cell: list(zip(mass.sojourns, mass.cumulative))
            for next_cell, mass in self._per_next.items()
        }
