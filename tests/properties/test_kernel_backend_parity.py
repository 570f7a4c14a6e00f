"""Kernel and Eq. 5 path equivalence: python == numpy, resident ==
snapshot walk.

The kernel contract (:mod:`repro._kernel`): ``python`` and ``numpy``
produce *bit-identical* results, for the literal §4.1 update, the tick,
and whole runs.  So do the two Eq. 5 paths of a tick: the resident walk
over a cell's attach-order rows and the cache's sorted lists, and the
snapshot walk over F_HOE snapshots.  Hypothesis drives randomized
quadruplet histories and connection populations through all available
backends and requires exact float equality everywhere; whole runs are
held to a reference run whose estimators never join the resident walk.
The numpy legs are skipped on numpy-free installs.
"""

import random
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._kernel import HAS_NUMPY, kernel_name, set_kernel
from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.estimation.cache import CacheConfig
from repro.simulation.scenarios import hex_city, stationary
from repro.simulation.simulator import CellularSimulator
from repro.simulation.spatial import run_spatial
from repro.traffic.classes import VOICE
from repro.traffic.connection import Connection

#: Connection ids, unique across this module's tests.
_ids = count()


def available_kernels() -> list[str]:
    kernels = ["python"]
    if HAS_NUMPY:
        kernels.append("numpy")
    return kernels


@pytest.fixture(autouse=True)
def _restore_kernel():
    before = kernel_name()
    yield
    set_kernel(before)


sojourns = st.floats(
    min_value=0.1, max_value=1_000.0, allow_nan=False, allow_infinity=False
)
prev_cells = st.sampled_from([None, 0, 2])
history = st.lists(st.tuples(sojourns, prev_cells), min_size=0, max_size=40)
entry_offsets = st.lists(
    st.floats(min_value=0.0, max_value=90.0,
              allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=25,
)


def build_network(items, offsets):
    network = CellularNetwork(
        LinearTopology(5),
        cache_config=CacheConfig(interval=None),
    )
    station = network.station(1)
    for index, (sojourn, prev) in enumerate(items):
        station.estimator.record_departure(float(index), prev, 0, sojourn)
    rng = random.Random(42)
    for offset in offsets:
        network.cell(1).attach(
            Connection(
                VOICE, 0.0, 1,
                prev_cell=rng.choice([None, 0, 2]),
                cell_entry_time=100.0 - offset,
                connection_id=next(_ids),
            )
        )
    network.station(0).window.t_est = 10.0
    return network


@settings(max_examples=25, deadline=None)
@given(history, entry_offsets)
def test_reservation_identical_across_kernels(items, offsets):
    """The literal §4.1 update is bit-identical per backend."""
    results = {}
    for kernel in available_kernels():
        set_kernel(kernel)
        network = build_network(items, offsets)
        results[kernel] = network.update_target_reservation(0, 100.0)
    values = set(results.values())
    assert len(values) == 1, results


@settings(max_examples=25, deadline=None)
@given(history, entry_offsets)
def test_grouped_tick_identical_across_kernels(items, offsets):
    """The reservation tick is bit-identical per backend."""
    results = {}
    for kernel in available_kernels():
        set_kernel(kernel)
        network = build_network(items, offsets)
        for cell_id in (0, 2):
            network.mark_reservation_dirty(cell_id)
        network.flush_reservation_tick(100.0)
        results[kernel] = (
            network.cell(0).reserved_target,
            network.cell(2).reserved_target,
        )
    values = set(results.values())
    assert len(values) == 1, results


def test_whole_run_metrics_key_parity_across_kernels(snapshot_walk):
    """A full run lands on one metrics_key whatever the kernel, and the
    resident walk (infinite ``T_int``, unit weights) lands where the
    snapshot walk does, under AC1, AC2 and AC3."""
    for scheme in ("AC1", "AC2", "AC3"):

        def run(kernel):
            simulator = CellularSimulator(
                stationary(
                    scheme, offered_load=250.0, duration=80.0, seed=5,
                    kernel=kernel,
                )
            )
            result = simulator.run()
            return result.metrics_key(), [
                station.estimator.eq4_resident_batches
                for station in simulator.network.stations
            ]

        with snapshot_walk():
            reference, resident = run("python")
        assert not any(resident)
        for kernel in available_kernels():
            key, resident = run(kernel)
            assert all(resident), (kernel, scheme)
            assert key == reference, (kernel, scheme)


def test_sharded_hex_run_metrics_key_parity_across_kernels(snapshot_walk):
    """Barrier-time Eq. 5 over columnar cells: the resident walk over
    store rows vs the snapshot walk over handles, under each kernel."""

    def run(kernel):
        return run_spatial(
            hex_city(
                "AC3", rows=6, cols=6, offered_load=700.0,
                duration=30.0, seed=5, kernel=kernel,
            ),
            shards=2,
            processes=False,
        ).metrics_key()

    with snapshot_walk():
        reference = run("python")
    for kernel in available_kernels():
        assert run(kernel) == reference, kernel
