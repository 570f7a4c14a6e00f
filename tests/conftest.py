"""Shared fixtures: column-band shard plans, a file corrupter, the
literal AC1-AC3, and the snapshot-walk-only reference."""

from contextlib import contextmanager

import pytest

from repro.core.admission import AdmissionDecision, AdmissionPolicy


def _column_bands(topology, shards, weights=None):
    """A non-row cut: ``shards`` contiguous full-height column bands,
    built through the same owner-map tail as ``partition_hex``."""
    from repro.simulation.spatial import _plan_from_owner

    owner = [
        topology.coordinates(cell)[1] * shards // topology.cols
        for cell in range(topology.num_cells)
    ]
    weights = weights or [1.0] * topology.num_cells
    return _plan_from_owner(topology, shards, owner, weights)


@pytest.fixture
def column_bands():
    """``(topology, shards, weights=None) -> ShardPlan`` of column bands."""
    return _column_bands


@pytest.fixture
def column_cut(monkeypatch):
    """Call to make every later ``run_spatial`` in the test cut column
    bands instead of row bands: the barrier protocol is generic over the
    ownership map, so vertical and wrap-seam cuts must merge to the same
    ``metrics_key()``."""
    from repro.cellular.topology import HexTopology
    from repro.simulation import spatial
    from repro.simulation.config import cell_load_weights

    def resolve(config, shards):
        rows, cols, wrap = spatial._hex_dimensions(config)
        return _column_bands(
            HexTopology(rows, cols, wrap=wrap),
            shards,
            cell_load_weights(config),
        )

    return lambda: monkeypatch.setattr(spatial, "_resolve_plan", resolve)


@pytest.fixture
def snapshot_walk(monkeypatch):
    """Call as a context manager: every network built inside it answers
    each reservation tick with the snapshot walk — its estimators never
    join the resident walk.  The reference of the whole-run parity
    tests of the resident walk."""
    from repro.estimation.estimator import MobilityEstimator

    class SnapshotWalkEstimator(MobilityEstimator):
        def grouped_flush_parts(self, now, requests, cell, batch):
            return None

    @contextmanager
    def forced():
        with monkeypatch.context() as patch:
            patch.setattr(
                "repro.cellular.network.MobilityEstimator",
                SnapshotWalkEstimator,
            )
            yield

    return forced


@pytest.fixture
def flip_a_byte():
    """Corrupt a file in place: invert the byte in its middle."""

    def flip(path):
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))

    return flip


# ----------------------------------------------------------------------
# §4.3 transcribed literally: the reference the production policies
# (one batched reservation tick per test) are compared against.
# ----------------------------------------------------------------------
class _LiteralAC1(AdmissionPolicy):
    name = "AC1"

    def admit_new(self, network, cell_id, bandwidth, now):
        station = network.station(cell_id)
        messages_before = network.total_messages()
        network.update_target_reservation(cell_id, now)
        return AdmissionDecision(
            admitted=station.cell.fits_new_connection(bandwidth),
            calculations=1,
            messages=network.total_messages() - messages_before,
        )


class _LiteralAC2(AdmissionPolicy):
    name = "AC2"

    def admit_new(self, network, cell_id, bandwidth, now):
        station = network.station(cell_id)
        messages_before = network.total_messages()
        calculations = 0
        admitted = True
        for neighbor in network.neighbor_stations(cell_id):
            network.update_target_reservation(neighbor.cell_id, now)
            calculations += 1
            if not neighbor.cell.can_reserve_target():
                admitted = False
        network.update_target_reservation(cell_id, now)
        calculations += 1
        if not station.cell.fits_new_connection(bandwidth):
            admitted = False
        return AdmissionDecision(
            admitted=admitted,
            calculations=calculations,
            messages=network.total_messages() - messages_before,
        )


class _LiteralAC3(AdmissionPolicy):
    name = "AC3"

    def admit_new(self, network, cell_id, bandwidth, now):
        station = network.station(cell_id)
        messages_before = network.total_messages()
        calculations = 0
        admitted = True
        for neighbor in network.neighbor_stations(cell_id):
            if neighbor.cell.can_reserve_target():
                continue  # target fits; stays out of the test
            network.update_target_reservation(neighbor.cell_id, now)
            calculations += 1
            if not neighbor.cell.can_reserve_target():
                admitted = False
        network.update_target_reservation(cell_id, now)
        calculations += 1
        if not station.cell.fits_new_connection(bandwidth):
            admitted = False
        return AdmissionDecision(
            admitted=admitted,
            calculations=calculations,
            messages=network.total_messages() - messages_before,
        )


@pytest.fixture
def literal_policy():
    """``scheme name -> policy``: AC1-AC3 written as §4.3 reads, one
    ``update_target_reservation`` (the §4.1 exchange over the scalar
    Eq. 5 walk) per participating cell, in the paper's order."""
    table = {"AC1": _LiteralAC1, "AC2": _LiteralAC2, "AC3": _LiteralAC3}
    return lambda scheme: table[scheme]()
