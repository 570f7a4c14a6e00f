"""The reservation tick: equality with the literal §4.1 sequence.

The contract under test: the coalesced estimation tick — answered by
the cross-cell resident walk where the cache's masses are plain counts,
by the multi-request snapshot walk otherwise — is a pure optimisation.  Whatever
the history of attaches, detaches, window changes and new quadruplets,
a tick installs bit-identical reservations to one
``update_target_reservation`` per target (the per-connection,
per-target walk) — and the message / N_calc accounting is identical
too.
"""

import random
from itertools import count

import pytest

from repro._kernel import HAS_NUMPY, kernel_name, set_kernel
from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.estimation.cache import CacheConfig
from repro.estimation.calendar import CalendarEstimator
from repro.estimation.estimator import KnownPathEstimator, MobilityEstimator
from repro.simulation.columnar import ColumnarCell, ConnectionStore
from repro.traffic.classes import VIDEO, VOICE
from repro.traffic.connection import Connection

#: Connection ids, unique across this module's tests.
_ids = count()


def build_network(seed=1, interval=None):
    network = CellularNetwork(
        LinearTopology(10),
        cache_config=CacheConfig(interval=interval),
    )
    rng = random.Random(seed)
    for neighbor in (1, 9):
        station = network.station(neighbor)
        for index in range(60):
            station.estimator.record_departure(
                float(index), None, 0, rng.uniform(10.0, 60.0)
            )
        for _ in range(40):
            network.cell(neighbor).attach(
                Connection(
                    VOICE, 0.0, neighbor,
                    cell_entry_time=rng.uniform(0.0, 90.0),
                    connection_id=next(_ids),
                )
            )
    network.station(0).window.t_est = 10.0
    return network


def tick(network, now, targets):
    for cell_id in targets:
        network.mark_reservation_dirty(cell_id)
    network.flush_reservation_tick(now)


class TestBatchedEquivalence:
    def test_batched_matches_naive(self):
        batched = build_network()
        naive = build_network()
        tick(batched, 100.0, [0])
        assert (
            batched.cell(0).reserved_target
            == naive.update_target_reservation(0, 100.0)
        )

    def test_messages_and_calculations_counted_identically(self):
        batched = build_network()
        naive = build_network()
        tick(batched, 100.0, [0])
        tick(batched, 100.0, [0])
        naive.update_target_reservation(0, 100.0)
        naive.update_target_reservation(0, 100.0)
        assert batched.total_messages() == naive.total_messages()
        assert (
            batched.total_reservation_calculations()
            == naive.total_reservation_calculations()
        )

    def test_message_total_matches_station_sweep(self):
        # total_messages() is maintained O(1) as messages are counted;
        # it must always equal the sum of per-station counters.
        network = build_network()
        network.update_target_reservation(0, 100.0)
        network.update_target_reservation(5, 101.0)
        assert network.total_messages() == sum(
            station.messages_sent for station in network.stations
        )
        before = network.total_messages()
        network.recount_messages()
        assert network.total_messages() == before


class TestGroupedFlush:
    def test_grouped_tick_matches_sequential_updates(self):
        grouped = build_network()
        sequential = build_network()
        tick(grouped, 100.0, (0, 2, 8))
        for cell_id in (0, 2, 8):
            sequential.update_target_reservation(cell_id, 100.0)
        for cell_id in (0, 2, 8):
            assert (
                grouped.cell(cell_id).reserved_target
                == sequential.cell(cell_id).reserved_target
            )
        assert grouped.total_messages() == sequential.total_messages()

    def test_grouped_path_actually_used_under_array_kernel(self):
        """Under the array kernel and the python one alike, every
        supplier with plain-count masses joins the grouped flush."""
        before = kernel_name()
        try:
            for kernel in ("python", "numpy") if HAS_NUMPY else ("python",):
                set_kernel(kernel)
                network = build_network()
                tick(network, 100.0, [0])
                assert network.tick_grouped_suppliers > 0
                assert network.tick_fallback_suppliers == 0
        finally:
            set_kernel(before)

    def test_table_rows_follow_connection_order(self):
        network = build_network()
        cell = network.cell(1)
        cell.reservation_buckets()
        # Detach a few so the buckets are maintained past removals.
        for connection in list(cell.connections())[5:25:4]:
            cell.detach(connection)
        # Ascending seq over all buckets must visit the connections in
        # exactly the order ``cell.connections()`` yields them: that
        # order is the Eq. 5 addition sequence.
        rows = sorted(
            (seq, prev, entry, key)
            for prev, bucket in cell.reservation_buckets().items()
            for entry, seq, _basis, key in bucket
        )
        assert [(prev, entry, key) for _seq, prev, entry, key in rows] == [
            (c.prev_cell, c.cell_entry_time, c.connection_id)
            for c in cell.connections()
        ]
        for bucket in cell.reservation_buckets().values():
            assert bucket == sorted(bucket)

    def test_steady_state_tick_rebuilds_nothing(self):
        """A tick after attaches, detaches and departures builds no
        snapshot and no buckets: it reads what was maintained."""
        network = build_network()
        targets = (0, 2, 8)

        def state():
            return (
                [cell._buckets for cell in network.cells],
                sum(s.estimator.snapshot_builds for s in network.stations),
            )

        # The first tick builds the suppliers' buckets, and nothing else.
        tick(network, 100.0, targets)
        rows, builds = state()
        assert builds == 0
        built = [cell_id for cell_id, table in enumerate(rows) if table]
        assert built == [1, 9]  # suppliers 1 and 9 carry load
        tick(network, 101.0, targets)
        for supplier in (1, 9):
            cell = network.cell(supplier)
            for connection in list(cell.connections())[:3]:
                cell.detach(connection)
                network.station(supplier).record_departure(
                    102.0, None, 0, connection.cell_entry_time
                )
            for offset in range(2):
                cell.attach(
                    Connection(
                        VOICE, 0.0, supplier,
                        cell_entry_time=102.0 + offset,
                        connection_id=next(_ids),
                    )
                )
        tick(network, 103.0, targets)
        after_rows, after_builds = state()
        assert after_builds == builds
        assert all(a is b for a, b in zip(after_rows, rows))
        assert [
            sum(map(len, network.cell(s)._buckets.values())) for s in (1, 9)
        ] == [39, 39]


@pytest.mark.parametrize("interval", [None, 500.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomized_history_matches_naive(seed, interval):
    """Bit-identical reservations across a random mutation history."""
    batched = build_network(seed=seed, interval=interval)
    naive = build_network(seed=seed, interval=interval)
    rng = random.Random(100 + seed)
    now = 100.0
    for step in range(60):
        action = rng.random()
        if action < 0.3:
            # Attach an identical connection to both networks.
            entry = now - rng.uniform(0.0, 60.0)
            prev = rng.choice([None, 0, 2])
            for network in (batched, naive):
                network.cell(1).attach(
                    Connection(
                        VOICE, entry, 1,
                        prev_cell=prev, cell_entry_time=entry,
                        connection_id=next(_ids),
                    )
                )
        elif action < 0.5:
            live = list(batched.cell(1).connections())
            if live:
                victim_index = rng.randrange(len(live))
                batched.cell(1).detach(live[victim_index])
                naive.cell(1).detach(
                    list(naive.cell(1).connections())[victim_index]
                )
        elif action < 0.65:
            sojourn = rng.uniform(5.0, 80.0)
            prev = rng.choice([None, 0, 2])
            for network in (batched, naive):
                network.station(1).estimator.record_departure(
                    now, prev, 0, sojourn
                )
        elif action < 0.8:
            t_est = rng.uniform(1.0, 30.0)
            batched.station(0).window.t_est = t_est
            naive.station(0).window.t_est = t_est
        else:
            now += rng.uniform(0.0, 20.0)
        tick(batched, now, [0])
        assert (
            batched.cell(0).reserved_target
            == naive.update_target_reservation(0, now)
        )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomized_history_grouped_tick_matches_sequential(seed):
    """Grouped tick flushes equal per-station updates under churn."""
    grouped = build_network(seed=seed)
    sequential = build_network(seed=seed)
    rng = random.Random(200 + seed)
    now = 100.0
    for step in range(40):
        action = rng.random()
        if action < 0.4:
            entry = now - rng.uniform(0.0, 60.0)
            prev = rng.choice([None, 0, 2])
            for network in (grouped, sequential):
                network.cell(1).attach(
                    Connection(
                        VOICE, entry, 1,
                        prev_cell=prev, cell_entry_time=entry,
                        connection_id=next(_ids),
                    )
                )
        elif action < 0.6:
            live = list(grouped.cell(1).connections())
            if live:
                victim_index = rng.randrange(len(live))
                grouped.cell(1).detach(live[victim_index])
                sequential.cell(1).detach(
                    list(sequential.cell(1).connections())[victim_index]
                )
        else:
            now += rng.uniform(0.0, 20.0)
        targets = rng.sample(range(10), rng.randrange(1, 4))
        tick(grouped, now, targets)
        for cell_id in targets:
            sequential.update_target_reservation(cell_id, now)
        for cell_id in targets:
            assert (
                grouped.cell(cell_id).reserved_target
                == sequential.cell(cell_id).reserved_target
            )
    assert grouped.total_messages() == sequential.total_messages()


# ----------------------------------------------------------------------
# one tick, every kind of supplier
# ----------------------------------------------------------------------
def _known_next(connection):
    """A route oracle both cell kinds can answer: by entry second."""
    return 4 if int(connection.cell_entry_time) % 2 else None


#: Per cell of a ring of 6: two suppliers the resident walk answers
#: (infinite ``T_int``, unit weights), four it cannot.
_ESTIMATORS = (
    lambda: MobilityEstimator(CacheConfig(interval=None)),
    lambda: MobilityEstimator(CacheConfig(interval=60.0)),
    lambda: MobilityEstimator(CacheConfig(interval=None, weights=(0.5, 0.5))),
    lambda: KnownPathEstimator(
        CacheConfig(interval=None), route_oracle=_known_next
    ),
    lambda: CalendarEstimator(),
    lambda: MobilityEstimator(CacheConfig(interval=None)),
)


def build_mixed_network(columnar, seed):
    store = ConnectionStore(num_cells=6) if columnar else None
    network = CellularNetwork(
        LinearTopology(6),
        capacity=1_000.0,
        estimator_factory=lambda cell_id: _ESTIMATORS[cell_id](),
        cell_factory=(
            (lambda cell_id, cap, overload: ColumnarCell(cell_id, cap, store))
            if columnar
            else None
        ),
    )
    rng = random.Random(seed)
    for cell_id in range(6):
        around = (None, (cell_id - 1) % 6, (cell_id + 1) % 6)
        station = network.station(cell_id)
        for index in range(40):
            station.record_departure(
                50.0 + index,
                rng.choice(around),
                rng.choice(around[1:]),
                50.0 + index - rng.uniform(5.0, 60.0),
            )
        for sequence in range(rng.randrange(5, 30)):
            prev = rng.choice(around)
            entry = rng.uniform(20.0, 99.0)
            video = rng.random() < 0.3
            if not columnar:
                network.cell(cell_id).attach(
                    Connection(
                        VIDEO if video else VOICE, 0.0, cell_id,
                        prev_cell=prev, cell_entry_time=entry,
                        connection_id=next(_ids),
                    )
                )
                continue
            row = store.alloc()
            columns = store.columns
            columns["entry_time"][row] = entry
            columns["prev"][row] = -1 if prev is None else prev
            columns["birth_cell"][row] = cell_id
            columns["birth_seq"][row] = sequence
            columns["bw_code"][row] = int(video)
            network.cell(cell_id).attach_row(row)
        station.window.t_est = rng.uniform(1.0, 40.0)
    return network


@pytest.mark.parametrize(
    "columnar", [False, True], ids=["Cell", "ColumnarCell"]
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mixed_supplier_tick_matches_sequential_updates(seed, columnar):
    """Suppliers the resident walk answers and suppliers it cannot, in
    one tick."""
    ticked = build_mixed_network(columnar, seed)
    sequential = build_mixed_network(columnar, seed)
    targets = [0, 2, 3, 4, 5, 1]
    tick(ticked, 100.0, targets)
    for cell_id in targets:
        sequential.update_target_reservation(cell_id, 100.0)

    def installed(network):
        return [
            (
                station.cell.reserved_target,
                station.messages_sent,
                station.reservation_calculations,
            )
            for station in network.stations
        ]

    assert installed(ticked) == installed(sequential)
    assert all(cell.reserved_target > 0.0 for cell in ticked.cells)
    assert ticked.total_messages() == sequential.total_messages()
    assert ticked.tick_grouped_suppliers == 2
    assert ticked.tick_fallback_suppliers == 4
