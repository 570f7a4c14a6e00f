"""Per-cell mobility estimator: Bayes hand-off probabilities (Eq. 4).

Each base station owns one :class:`MobilityEstimator`.  It records the
quadruplet ``(T_event, prev, next, T_soj)`` of every mobile departing
the cell — four values into the cache's columns — and answers: *with what
probability will an active connection, which entered from cell ``prev``
and has been here for ``T_ext-soj`` seconds, hand off into cell ``next``
within the next ``T_est`` seconds?* — exactly Eq. 4::

                sum of F_HOE mass, T_ext-soj < T_soj <= T_ext-soj + T_est, toward `next`
    p_h = -------------------------------------------------------------------------
                sum of F_HOE mass, T_soj > T_ext-soj, toward every next cell

A zero denominator means no observed mobile from ``prev`` ever stayed
longer than this one has: the mobile is *estimated stationary* and all
hand-off probabilities are zero (paper §4.1).

Function snapshots are cached per ``prev`` and rebuilt lazily when new
quadruplets arrive or (for finite ``T_int``) when the snapshot is older
than ``rebuild_interval`` — a documented approximation of the paper's
continuously sliding periodic windows.  Infinite-interval snapshots are
assembled from the cache's sorted sojourn columns; finite-interval ones
from the ``(sojourn, weight)`` pairs its window selection yields.

Eq. 5 is evaluated two ways.
:meth:`MobilityEstimator.expected_bandwidth_multi` is the scalar walk
over those snapshots: it serves every configuration and is the
reference the tests compare against.  The reservation tick of the
infinite-interval, unit-weight configuration needs no snapshots at
all: :meth:`MobilityEstimator.grouped_flush_parts` hands the cache's
live sorted lists toward each requested target, and the cell's
``prev`` buckets, to a :class:`repro._kernel.FlushBatch`, which counts
in them with ``bisect`` over only the rows that can contribute — under
either kernel, with or without numpy.
"""

from __future__ import annotations

from typing import Sequence

from repro.estimation.cache import CacheConfig, QuadrupletCache
from repro.estimation.function import HandoffEstimationFunction
from repro.obs.telemetry import NullTelemetry


class MobilityEstimator:
    """History-based mobility estimation for one cell.

    Parameters
    ----------
    config:
        Quadruplet-cache tunables (``T_int``, ``N_quad``, weights, period).
    rebuild_interval:
        For finite ``T_int``, maximum snapshot age (seconds) before the
        active set is recomputed even without new observations.
    """

    def __init__(
        self,
        config: CacheConfig | None = None,
        rebuild_interval: float = 60.0,
    ) -> None:
        self.cache = QuadrupletCache(config)
        self.rebuild_interval = float(rebuild_interval)
        self._snapshots: dict[
            int | None, tuple[float, HandoffEstimationFunction]
        ] = {}
        self._dirty: set[int | None] = set()
        # Observability counters (plain ints, harvested at end of run).
        #: Snapshot cache: reuses vs (re)builds vs dirty invalidations.
        #: A tick served from the resident lists counts as a reuse.
        self.snapshot_hits = 0
        self.snapshot_builds = 0
        self.snapshot_invalidations = 0
        #: Eq. 5 evaluations by path: resident-list registrations vs
        #: snapshot walks, in calls and rows x requests.
        self.eq4_resident_batches = 0
        self.eq4_walk_batches = 0
        self.eq4_resident_rows = 0
        self.eq4_walk_rows = 0
        #: Batch-size distribution: a no-op until the owning network
        #: hands over its run's histogram
        #: (:meth:`~repro.cellular.network.CellularNetwork.instrument`).
        self.batch_rows_histogram = NullTelemetry().histogram(
            "estimation.eq4_batch_rows"
        )

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_departure(
        self,
        event_time: float,
        prev: int | None,
        next_cell: int,
        sojourn: float,
    ) -> None:
        """Cache the quadruplet of a mobile that just left the cell."""
        self.cache.record(event_time, prev, next_cell, sojourn)
        if prev not in self._dirty and prev in self._snapshots:
            self.snapshot_invalidations += 1
        self._dirty.add(prev)

    def preload(self, pairs) -> None:
        """Warm-start from exported history columns (bulk, pre-run).

        ``pairs`` maps ``(prev, next)`` to parallel ``(times, sojourns)``
        sequences, as produced by
        :meth:`repro.estimation.cache.QuadrupletCache.export_columns`.
        Equivalent to replaying :meth:`record_departure` per entry, but
        loads whole columns at once; snapshots are dropped so every
        query rebuilds from the new history.
        """
        self.cache.preload(pairs)
        self._snapshots.clear()
        self._dirty.clear()

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def function_for(
        self, now: float, prev: int | None
    ) -> HandoffEstimationFunction:
        """The F_HOE snapshot for ``prev`` at time ``now`` (lazily built)."""
        cached = self._snapshots.get(prev)
        if cached is not None and prev not in self._dirty:
            built_at, snapshot = cached
            if (
                self.cache.config.interval is None
                or now - built_at < self.rebuild_interval
            ):
                self.snapshot_hits += 1
                return snapshot
        columns = self.cache.active_columns(now, prev)
        if columns is not None:
            snapshot = HandoffEstimationFunction.from_columns(columns)
        else:
            snapshot = HandoffEstimationFunction(self.cache.active(now, prev))
        self._snapshots[prev] = (now, snapshot)
        self._dirty.discard(prev)
        self.snapshot_builds += 1
        return snapshot

    def _count_dispatch(self, resident: bool, rows: int) -> None:
        """Record one Eq. 5 evaluation (which path, rows x requests)."""
        if resident:
            self.eq4_resident_batches += 1
            self.eq4_resident_rows += rows
        else:
            self.eq4_walk_batches += 1
            self.eq4_walk_rows += rows
        self.batch_rows_histogram.observe(rows)

    # ------------------------------------------------------------------
    # Eq. 4 and derived queries
    # ------------------------------------------------------------------
    def handoff_probability(
        self,
        now: float,
        prev: int | None,
        extant_sojourn: float,
        next_cell: int,
        t_est: float,
    ) -> float:
        """``p_h(connection -> next_cell)`` within ``t_est`` seconds."""
        if t_est <= 0:
            return 0.0
        snapshot = self.function_for(now, prev)
        denominator = snapshot.total_mass_above(extant_sojourn)
        if denominator <= 0.0:
            return 0.0  # estimated stationary
        numerator = snapshot.mass_between(
            next_cell, extant_sojourn, extant_sojourn + t_est
        )
        probability = numerator / denominator
        # Guard against floating point drift; Eq. 4 is a probability.
        return min(max(probability, 0.0), 1.0)

    def handoff_probabilities(
        self,
        now: float,
        prev: int | None,
        extant_sojourn: float,
        t_est: float,
    ) -> dict[int, float]:
        """``p_h`` toward every observed next cell (single denominator)."""
        snapshot = self.function_for(now, prev)
        denominator = snapshot.total_mass_above(extant_sojourn)
        if denominator <= 0.0 or t_est <= 0:
            return {}
        result: dict[int, float] = {}
        for next_cell in snapshot.next_cells():
            numerator = snapshot.mass_between(
                next_cell, extant_sojourn, extant_sojourn + t_est
            )
            if numerator > 0.0:
                result[next_cell] = min(numerator / denominator, 1.0)
        return result

    def expected_bandwidth(
        self,
        now: float,
        connections,
        target_cell: int,
        t_est: float,
    ) -> float:
        """Eq. 5: expected hand-off bandwidth toward one cell.

        The one-request form of :meth:`expected_bandwidth_multi`.
        """
        return self.expected_bandwidth_multi(
            now, connections, [(target_cell, t_est)]
        )[0]

    def expected_bandwidth_multi(
        self,
        now: float,
        connections,
        requests: Sequence[tuple[int, float]],
    ) -> list[float]:
        """Eq. 5 toward several ``(target_cell, t_est)`` requests at once.

        The scalar walk: one pass over ``connections`` in iteration
        order, one F_HOE snapshot per ``prev``, Eq. 4's denominator
        computed once per connection and shared by every request.  Each
        request's total is ``sum(basis * p_h)`` accumulated in
        connection order, so element ``i`` equals the walk run for
        ``requests[i]`` alone bit for bit.  A reservation tick asks one
        supplying station for its contributions toward every pending
        neighbour in a single call; this is the path for every
        configuration the resident lists (:meth:`grouped_flush_parts`)
        cannot answer, and the reference they are tested against.
        """
        totals = [0.0] * len(requests)
        live = [
            (index, target_cell, t_est)
            for index, (target_cell, t_est) in enumerate(requests)
            if t_est > 0
        ]
        if not live:
            return totals
        connections = list(connections)
        self._count_dispatch(False, len(connections) * len(live))
        function_for = self.function_for
        snapshots: dict[int | None, HandoffEstimationFunction] = {}
        for connection in connections:
            prev = connection.prev_cell
            snapshot = snapshots.get(prev)
            if snapshot is None:
                snapshot = snapshots[prev] = function_for(now, prev)
            extant = now - connection.cell_entry_time
            denominator = snapshot.total_mass_above(extant)
            if denominator <= 0.0:
                continue  # estimated stationary
            basis = None
            for index, target_cell, t_est in live:
                numerator = snapshot.mass_between(
                    target_cell, extant, extant + t_est
                )
                if numerator > 0.0:
                    if basis is None:
                        # Adaptive-QoS connections reserve their minimum
                        # rate (paper §1); rigid ones expose it as the
                        # full rate.
                        basis = getattr(
                            connection,
                            "reservation_basis",
                            connection.bandwidth,
                        )
                    totals[index] += basis * min(
                        numerator / denominator, 1.0
                    )
        return totals

    def grouped_flush_parts(
        self,
        now: float,
        requests: Sequence[tuple[int, float]],
        cell,
        batch,
    ):
        """Register this station's Eq. 5 work into a cross-cell flush.

        ``cell`` is the supplier cell: its ``prev`` buckets
        (:meth:`repro.cellular.cell.Cell.reservation_buckets`) go into
        ``batch`` (:class:`repro._kernel.FlushBatch`) together with,
        per live request, the cache's nonempty sorted lists toward its
        target (:meth:`~repro.estimation.cache.QuadrupletCache.lists_by_target`),
        and ``batch.resolve()`` walks them.

        Returns one slot per request — its index in the list
        ``batch.resolve()`` returns, or ``None`` when the total is
        known to be 0.0: ``t_est <= 0``, or no ``prev`` with a
        nonempty list toward the target — each total bit-identical to
        the matching :meth:`expected_bandwidth_multi` element.  Nothing
        is registered when every slot is ``None``.  Returns ``None``
        when the cache's masses are not plain counts (finite ``T_int``
        / non-unit day weights) — the caller then answers with the
        walk.
        """
        index = self.cache.lists_by_target()
        if index is None:
            return None
        self.snapshot_hits += 1
        live = sum(1 for _target_cell, t_est in requests if t_est > 0)
        if not live:
            return [None] * len(requests)
        self._count_dispatch(True, cell.connection_count * live)
        slot = batch.outputs
        slots: list[int | None] = []
        walks = []
        for target_cell, t_est in requests:
            lists = index.get(target_cell) if t_est > 0 else None
            if lists:
                slots.append(slot + len(walks))
                walks.append((t_est, lists))
            else:
                slots.append(None)
        if walks:
            batch.add_part(now, cell.reservation_buckets(), walks)
        return slots

    def is_stationary(
        self, now: float, prev: int | None, extant_sojourn: float
    ) -> bool:
        """True when no observed sojourn (for ``prev``) exceeds this one."""
        snapshot = self.function_for(now, prev)
        return snapshot.total_mass_above(extant_sojourn) <= 0.0

    @property
    def max_sojourn_is_resident(self) -> bool:
        """Whether :meth:`max_sojourn` only reads the cache's resident
        columns, so that asking later — or never — changes no answer.
        True for an infinite interval; a finite ``T_int`` cuts (and
        keeps) per-``prev`` snapshots on the way."""
        return self.cache.config.interval is None

    def max_sojourn(self, now: float) -> float:
        """Largest active sojourn over all ``prev`` (bounds ``T_est``).

        Infinite-interval caches answer from their incrementally sorted
        union columns in O(number of pairs) and are asked only when a
        window controller reads the bound; the windowed configuration
        walks the per-``prev`` snapshots, rebuilding the stale ones, on
        every hand-off arrival (see
        :meth:`~repro.cellular.network.CellularNetwork.on_handoff_arrival`).
        """
        fast = self.cache.max_active_sojourn()
        if fast is not None:
            return fast
        maximum = 0.0
        for prev in self.cache.prev_keys():
            maximum = max(maximum, self.function_for(now, prev).max_sojourn())
        return maximum


class KnownPathEstimator(MobilityEstimator):
    """Estimator for mobiles whose route is known (paper §7 extension).

    With ITS/GPS route guidance the *next cell* is known a priori; the
    history is then used only to estimate the sojourn time.  The hand-off
    probability mass therefore concentrates on the known next cell and
    uses the sojourn distribution marginalised over all historical next
    cells.

    Parameters
    ----------
    config:
        Cache tunables, as for :class:`MobilityEstimator`.
    route_oracle:
        Optional callable mapping a connection to its known next cell
        (``None`` when the route is unknown — the estimator then falls
        back to the history-only Eq. 4).  With it set, the batch Eq. 5
        path (:meth:`expected_bandwidth`) becomes route-aware, which is
        how the simulator uses this class.
    """

    def __init__(
        self,
        config: CacheConfig | None = None,
        rebuild_interval: float = 60.0,
        route_oracle=None,
    ) -> None:
        super().__init__(config, rebuild_interval)
        self.route_oracle = route_oracle

    def expected_bandwidth(
        self,
        now: float,
        connections,
        target_cell: int,
        t_est: float,
    ) -> float:
        """Eq. 5 with routes: mass concentrates on each known next cell."""
        if self.route_oracle is None:
            return super().expected_bandwidth(
                now, connections, target_cell, t_est
            )
        if t_est <= 0:
            return 0.0
        total = 0.0
        for connection in connections:
            known_next = self.route_oracle(connection)
            if known_next is None:
                # Unknown route: history-only estimate for this one.
                extant = now - connection.cell_entry_time
                probability = self.handoff_probability(
                    now, connection.prev_cell, extant, target_cell, t_est
                )
            elif known_next != target_cell:
                continue
            else:
                extant = now - connection.cell_entry_time
                snapshot = self.function_for(now, connection.prev_cell)
                denominator = snapshot.total_mass_above(extant)
                if denominator <= 0.0:
                    continue
                numerator = snapshot.total_mass_between(
                    extant, extant + t_est
                )
                probability = min(numerator / denominator, 1.0)
            if probability > 0.0:
                basis = getattr(
                    connection, "reservation_basis", connection.bandwidth
                )
                total += basis * probability
        return total

    def expected_bandwidth_multi(
        self,
        now: float,
        connections,
        requests: Sequence[tuple[int, float]],
    ) -> list[float]:
        """Route-aware Eq. 5, one :meth:`expected_bandwidth` per request."""
        if self.route_oracle is None:
            return super().expected_bandwidth_multi(
                now, connections, requests
            )
        connections = list(connections)
        return [
            self.expected_bandwidth(now, connections, target_cell, t_est)
            for target_cell, t_est in requests
        ]

    def grouped_flush_parts(
        self,
        now: float,
        requests: Sequence[tuple[int, float]],
        cell,
        batch,
    ):
        """Route-aware Eq. 5 consults the oracle per connection, so the
        cross-cell flush does not apply; ``None`` sends the caller to
        :meth:`expected_bandwidth_multi` (which routes correctly)."""
        if self.route_oracle is not None:
            return None
        return super().grouped_flush_parts(now, requests, cell, batch)

    def handoff_probability_known_next(
        self,
        now: float,
        prev: int | None,
        extant_sojourn: float,
        known_next: int,
        t_est: float,
        actual_next: int,
    ) -> float:
        """``p_h`` toward ``actual_next`` given the route says ``known_next``."""
        if actual_next != known_next or t_est <= 0:
            return 0.0
        snapshot = self.function_for(now, prev)
        denominator = snapshot.total_mass_above(extant_sojourn)
        if denominator <= 0.0:
            return 0.0
        numerator = snapshot.total_mass_between(
            extant_sojourn, extant_sojourn + t_est
        )
        return min(max(numerator / denominator, 0.0), 1.0)
