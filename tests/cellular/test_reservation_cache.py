"""The base station's batched Eq. 5 paths: equality with the naive scan.

The contract under test: the columnar batched evaluation, the coalesced
estimation tick, and the cross-cell grouped flush are pure
optimisations.  Whatever the history of attaches, detaches, window
changes and new quadruplets, a batched station returns bit-identical
reservations to a naive one — and the message / N_calc accounting is
identical too.  (The per-``(version, now, target, t_est)`` contribution
memo that used to live here was retired: under the coalesced tick every
admission evaluates at a distinct ``now``, so its hit rate was
structurally zero — see DESIGN.md §4.)
"""

import random

import pytest

from repro._kernel import flush_batch_or_none, numpy_or_none
from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.estimation.cache import CacheConfig
from repro.traffic.classes import VOICE
from repro.traffic.connection import Connection


def build_network(
    reservation_cache=True, seed=1, interval=None, grouped_flush=True
):
    network = CellularNetwork(
        LinearTopology(10),
        cache_config=CacheConfig(interval=interval),
        reservation_cache=reservation_cache,
        grouped_flush=grouped_flush,
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
                )
            )
    network.station(0).window.t_est = 10.0
    return network


class TestBatchedEquivalence:
    def test_batched_matches_naive(self):
        batched = build_network(reservation_cache=True)
        naive = build_network(reservation_cache=False)
        assert (
            batched.station(0).update_target_reservation(100.0)
            == naive.station(0).update_target_reservation(100.0)
        )

    def test_messages_and_calculations_counted_identically(self):
        batched = build_network(reservation_cache=True)
        naive = build_network(reservation_cache=False)
        for network in (batched, naive):
            network.station(0).update_target_reservation(100.0)
            network.station(0).update_target_reservation(100.0)
        assert batched.total_messages() == naive.total_messages()
        assert (
            batched.total_reservation_calculations()
            == naive.total_reservation_calculations()
        )

    def test_message_total_matches_station_sweep(self):
        # total_messages() is maintained O(1) via count_messages();
        # it must always equal the sum of per-station counters.
        network = build_network()
        network.station(0).update_target_reservation(100.0)
        network.station(5).update_target_reservation(101.0)
        assert network.total_messages() == sum(
            station.messages_sent for station in network.stations
        )
        before = network.total_messages()
        network.recount_messages()
        assert network.total_messages() == before


class TestGroupedFlush:
    def test_grouped_tick_matches_sequential_updates(self):
        grouped = build_network(grouped_flush=True)
        sequential = build_network(grouped_flush=False)
        for cell_id in (0, 2, 8):
            grouped.mark_reservation_dirty(cell_id)
        grouped.flush_reservation_tick(100.0)
        for cell_id in (0, 2, 8):
            sequential.station(cell_id).update_target_reservation(100.0)
        for cell_id in (0, 2, 8):
            assert (
                grouped.cell(cell_id).reserved_target
                == sequential.cell(cell_id).reserved_target
            )
        assert grouped.total_messages() == sequential.total_messages()

    def test_grouped_path_actually_used_under_array_kernel(self):
        if flush_batch_or_none() is None:
            pytest.skip("pure-python kernel: no grouped flush")
        network = build_network(grouped_flush=True)
        network.mark_reservation_dirty(0)
        network.flush_reservation_tick(100.0)
        assert network.tick_grouped_suppliers > 0

    def test_table_rows_follow_connection_order(self):
        np = numpy_or_none()
        if np is None:
            pytest.skip("pure-python kernel: no table mirror")
        network = build_network()
        cell = network.cell(1)
        # Detach a few so the table carries tombstones between live rows.
        for connection in list(cell.connections())[5:25:4]:
            cell.detach(connection)
        keys, bases = cell.reservation_table(np)
        # Walking the live rows top to bottom must visit the connections
        # in exactly the order ``cell.connections()`` yields them: that
        # order is the Eq. 5 addition sequence.
        live_entries = [
            -key.imag for key, basis in zip(keys.tolist(), bases.tolist())
            if basis
        ]
        assert live_entries == [
            connection.cell_entry_time for connection in cell.connections()
        ]

    def test_steady_state_tick_rebuilds_nothing(self):
        """A tick after k attaches, detaches and departures
        re-materialises no table and no key column, and copies O(k)."""
        if flush_batch_or_none() is None:
            pytest.skip("pure-python kernel: no grouped flush")
        network = build_network()
        targets = (0, 2, 8)

        def tick(now):
            for cell_id in targets:
                network.mark_reservation_dirty(cell_id)
            network.flush_reservation_tick(now)

        def counters():
            return (
                sum(cell.group_rebuilds for cell in network.cells),
                sum(cell.rows_mirrored for cell in network.cells),
                sum(s.estimator.snapshot_builds for s in network.stations),
            )

        tick(100.0)  # first use builds the mirrors and the key columns
        rebuilds, mirrored, builds = counters()
        assert rebuilds == 2 and builds == 2  # suppliers 1 and 9 carry load
        tick(101.0)
        assert counters() == (rebuilds, mirrored, builds)
        changes = 0
        for supplier in (1, 9):
            cell = network.cell(supplier)
            for connection in list(cell.connections())[:3]:
                cell.detach(connection)
                network.station(supplier).record_departure(
                    102.0, None, 0, connection.cell_entry_time
                )
                changes += 1
            for offset in range(2):
                cell.attach(
                    Connection(
                        VOICE, 0.0, supplier,
                        cell_entry_time=102.0 + offset,
                    )
                )
                changes += 1
        tick(103.0)
        after = counters()
        assert (after[0], after[2]) == (rebuilds, builds)
        assert after[1] - mirrored == changes


@pytest.mark.parametrize("interval", [None, 500.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomized_history_matches_naive(seed, interval):
    """Bit-identical reservations across a random mutation history."""
    batched = build_network(True, seed=seed, interval=interval)
    naive = build_network(False, seed=seed, interval=interval)
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
        assert (
            batched.station(0).update_target_reservation(now)
            == naive.station(0).update_target_reservation(now)
        )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_randomized_history_grouped_tick_matches_sequential(seed):
    """Grouped tick flushes equal per-station updates under churn."""
    grouped = build_network(True, seed=seed, grouped_flush=True)
    sequential = build_network(True, seed=seed, grouped_flush=False)
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
        for cell_id in targets:
            grouped.mark_reservation_dirty(cell_id)
        grouped.flush_reservation_tick(now)
        for cell_id in targets:
            sequential.station(cell_id).update_target_reservation(now)
        for cell_id in targets:
            assert (
                grouped.cell(cell_id).reserved_target
                == sequential.cell(cell_id).reserved_target
            )
    assert grouped.total_messages() == sequential.total_messages()
