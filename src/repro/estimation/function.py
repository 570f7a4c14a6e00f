"""The hand-off estimation function ``F_HOE`` (paper §3.1, Figures 4–5).

A :class:`HandoffEstimationFunction` is an immutable snapshot, for one
``prev`` cell, of the weighted quadruplets active at a build instant.
It answers the mass queries needed by Bayes' rule (Eq. 4) in
``O(log N_quad)`` per query using sorted sojourn arrays with prefix
weight sums.

The storage is *columnar*: one sorted sojourn array plus one prefix
weight-sum array per next cell (and one pair for the union over next
cells, which makes the Eq. 4 denominator a single binary search).
Snapshots are built either from the legacy ``WeightedQuadruplet``
listing or, far cheaper, straight from the cache's incrementally
sorted columns (:meth:`from_columns`).  Batch queries — *many* extant
sojourns against one snapshot — run through ``numpy.searchsorted``
over those arrays when the numpy kernel is active
(:mod:`repro._kernel`) and through resumable ``bisect`` walks
otherwise; both produce bit-identical masses to the scalar queries.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, repeat
from typing import Mapping, Sequence

from repro._kernel import numpy_or_none
from repro.estimation.cache import ColumnarActive, WeightedQuadruplet


class _Mass:
    """Sorted sojourn times and cumulative weights for one next cell."""

    __slots__ = ("sojourns", "cumulative", "_ndarrays")

    def __init__(
        self, sojourns: list[float], cumulative: list[float]
    ) -> None:
        self.sojourns = sojourns
        self.cumulative = cumulative
        #: Lazily built ``(sojourns, zero-prefixed cumulative)`` numpy
        #: pair, cached per snapshot for the batch kernels.
        self._ndarrays = None

    @classmethod
    def from_weighted(
        cls, weighted: Sequence[WeightedQuadruplet]
    ) -> "_Mass":
        ordered = sorted(
            (item.quadruplet.sojourn, item.weight) for item in weighted
        )
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
        bit-identical to the legacy path for any ``w_0``.
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

    def arrays(self, np):
        """``(sojourns, cum0)`` ndarrays; ``cum0[i]`` = mass of the
        first ``i`` entries (zero-prefixed so gather needs no branch)."""
        cached = self._ndarrays
        if cached is None:
            sojourns = np.asarray(self.sojourns, dtype=np.float64)
            cum0 = np.empty(len(self.cumulative) + 1, dtype=np.float64)
            cum0[0] = 0.0
            cum0[1:] = self.cumulative
            cached = self._ndarrays = (sojourns, cum0)
        return cached


class HandoffEstimationFunction:
    """``F_HOE(t0, prev, ., .)`` for a fixed ``prev`` at a fixed instant.

    Parameters
    ----------
    weighted_by_next:
        Mapping ``next cell id -> active weighted quadruplets``, as
        produced by :meth:`repro.estimation.cache.QuadrupletCache.active`.
        Snapshots over the cache's columnar fast path are built with
        :meth:`from_columns` instead.
    """

    __slots__ = ("_per_next", "_union")

    def __init__(
        self,
        weighted_by_next: Mapping[int, Sequence[WeightedQuadruplet]],
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

    # ------------------------------------------------------------------
    # batch kernels (many extant sojourns against one snapshot)
    # ------------------------------------------------------------------
    def batch_probabilities(
        self,
        next_cell: int,
        extant_sojourns: Sequence[float],
        t_est: float,
    ) -> list[float]:
        """Eq. 4 for a whole batch of extant sojourn times at once.

        Returns one ``p_h(-> next_cell)`` per query, in order; zeros
        for estimated-stationary queries.  The numpy kernel evaluates
        the batch with three ``searchsorted`` gathers; the python
        kernel falls back to per-query binary searches.  Either way
        each probability equals the scalar Eq. 4 arithmetic exactly.
        """
        if t_est <= 0 or not extant_sojourns:
            return [0.0] * len(extant_sojourns)
        per_next = self._per_next.get(next_cell)
        if per_next is None:
            return [0.0] * len(extant_sojourns)
        np = numpy_or_none()
        if np is not None:
            union_s, union_c0 = self._union.arrays(np)
            target_s, target_c0 = per_next.arrays(np)
            extants = np.asarray(extant_sojourns, dtype=np.float64)
            denominator = self._union.total - union_c0[
                np.searchsorted(union_s, extants, side="right")
            ]
            low = target_c0[np.searchsorted(target_s, extants, side="right")]
            high = target_c0[
                np.searchsorted(target_s, extants + t_est, side="right")
            ]
            numerator = high - low
            valid = denominator > 0.0
            out = np.zeros(len(extants), dtype=np.float64)
            ratio = numerator[valid] / denominator[valid]
            np.clip(ratio, 0.0, 1.0, out=ratio)
            out[valid] = ratio
            return out.tolist()
        union = self._union
        result = []
        for extant in extant_sojourns:
            denominator = union.mass_above(extant)
            if denominator <= 0.0:
                result.append(0.0)
                continue
            numerator = per_next.mass_between(extant, extant + t_est)
            probability = numerator / denominator
            result.append(min(max(probability, 0.0), 1.0))
        return result

    def batch_contributions(
        self,
        target_cell: int,
        rows: Sequence[tuple[int, float, float]],
        t_est: float,
    ) -> dict[int, float]:
        """Eq. 5 contributions for many connections sharing one ``prev``.

        ``rows`` is ``(key, extant_sojourn, basis)`` tuples sorted by
        *non-decreasing* extant sojourn; the result maps ``key`` to
        ``basis * p_h`` for every row with a positive contribution.
        Because the query sojourns are sorted, every binary search
        resumes from the previous hit instead of restarting, and the
        walk stops at the first estimated-stationary row (the Eq. 4
        denominator is non-increasing in the extant sojourn).  Each
        contribution is computed with exactly the per-connection
        arithmetic of Eq. 4, so results are bit-identical to querying
        one connection at a time.
        """
        per_next = self._per_next.get(target_cell)
        if per_next is None or t_est <= 0:
            return {}
        union_sojourns = self._union.sojourns
        union_cumulative = self._union.cumulative
        total = self._union.total
        target_sojourns = per_next.sojourns
        target_cumulative = per_next.cumulative
        contributions: dict[int, float] = {}
        union_lo = 0
        low_lo = 0
        high_lo = 0
        for key, extant, basis in rows:
            union_lo = bisect_right(union_sojourns, extant, union_lo)
            below = union_cumulative[union_lo - 1] if union_lo else 0.0
            denominator = total - below
            if denominator <= 0.0:
                break  # estimated stationary — and so is every later row
            low_lo = bisect_right(target_sojourns, extant, low_lo)
            low_mass = target_cumulative[low_lo - 1] if low_lo else 0.0
            high_lo = bisect_right(target_sojourns, extant + t_est, high_lo)
            high_mass = target_cumulative[high_lo - 1] if high_lo else 0.0
            numerator = high_mass - low_mass
            if numerator > 0.0:
                contributions[key] = basis * min(
                    numerator / denominator, 1.0
                )
        return contributions

    def batch_contributions_arrays(
        self,
        np,
        target_cell: int,
        keys: Sequence[int],
        extants,
        bases,
        t_est: float,
        out: dict[int, float],
    ) -> None:
        """Numpy-kernel Eq. 5: vectorized ``basis * p_h`` per connection.

        ``extants`` and ``bases`` are parallel float arrays; positive
        contributions are written into ``out`` keyed by ``keys``.  The
        per-row arithmetic mirrors :meth:`batch_contributions` op for
        op (gather, subtract, divide, ``min``), so the contributions
        are bit-identical to the scalar walk.
        """
        per_next = self._per_next.get(target_cell)
        if per_next is None or t_est <= 0:
            return
        union_s, union_c0 = self._union.arrays(np)
        target_s, target_c0 = per_next.arrays(np)
        denominator = self._union.total - union_c0[
            np.searchsorted(union_s, extants, side="right")
        ]
        low = target_c0[np.searchsorted(target_s, extants, side="right")]
        high = target_c0[
            np.searchsorted(target_s, extants + t_est, side="right")
        ]
        numerator = high - low
        valid = (denominator > 0.0) & (numerator > 0.0)
        if not valid.any():
            return
        ratio = numerator[valid] / denominator[valid]
        np.minimum(ratio, 1.0, out=ratio)
        contributions = bases[valid] * ratio
        for key, value in zip(
            (keys[index] for index in np.flatnonzero(valid)),
            contributions.tolist(),
        ):
            out[key] = value

    def batch_contributions_multi_arrays(
        self,
        np,
        requests: Sequence[tuple[int, float]],
        keys: Sequence[int],
        extants,
        bases,
        outs: Sequence[dict[int, float]],
    ) -> None:
        """Numpy-kernel Eq. 5 toward *several* targets in one pass.

        ``requests`` is ``(target_cell, t_est)`` pairs; ``outs`` the
        parallel per-request output dicts.  The Eq. 4 denominator
        depends only on the extant sojourns, so the coalesced
        reservation tick computes its ``searchsorted`` gather once here
        and shares it across every requested target, instead of
        re-gathering per target as :meth:`batch_contributions_arrays`
        does.  Per-request arithmetic is that method's op for op
        (gather, subtract, divide, ``min``), so each contribution stays
        bit-identical to the per-target path.
        """
        union_s, union_c0 = self._union.arrays(np)
        denominator = self._union.total - union_c0[
            np.searchsorted(union_s, extants, side="right")
        ]
        den_positive = denominator > 0.0
        if not den_positive.any():
            return
        for (target_cell, t_est), out in zip(requests, outs):
            per_next = self._per_next.get(target_cell)
            if per_next is None or t_est <= 0:
                continue
            target_s, target_c0 = per_next.arrays(np)
            low = target_c0[
                np.searchsorted(target_s, extants, side="right")
            ]
            high = target_c0[
                np.searchsorted(target_s, extants + t_est, side="right")
            ]
            numerator = high - low
            valid = den_positive & (numerator > 0.0)
            if not valid.any():
                continue
            ratio = numerator[valid] / denominator[valid]
            np.minimum(ratio, 1.0, out=ratio)
            contributions = bases[valid] * ratio
            for key, value in zip(
                (keys[index] for index in np.flatnonzero(valid)),
                contributions.tolist(),
            ):
                out[key] = value

    def footprint(self) -> dict[int, list[tuple[float, float]]]:
        """``next -> [(sojourn, cumulative weight), ...]`` (Figure 4 aid)."""
        return {
            next_cell: list(zip(mass.sojourns, mass.cumulative))
            for next_cell, mass in self._per_next.items()
        }
