"""Property-based kernel equivalence: python == numpy.

The kernel contract (:mod:`repro._kernel`): both backends — the pure
bisect fallback and the searchsorted-batched numpy path — produce
*bit-identical* results, for scalar queries, batched per-supplier
evaluation, and the cross-cell grouped flush.  Hypothesis drives
randomized quadruplet histories and connection populations through
all available backends and requires exact float equality everywhere.
The numpy legs are skipped on numpy-free installs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._kernel import HAS_NUMPY, kernel_name, set_kernel
from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.estimation.cache import CacheConfig
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import CellularSimulator
from repro.traffic.classes import VOICE
from repro.traffic.connection import Connection


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


def build_network(items, offsets, grouped_flush=True):
    network = CellularNetwork(
        LinearTopology(5),
        cache_config=CacheConfig(interval=None),
        grouped_flush=grouped_flush,
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
            )
        )
    network.station(0).window.t_est = 10.0
    return network


@settings(max_examples=25, deadline=None)
@given(history, entry_offsets)
def test_reservation_identical_across_kernels(items, offsets):
    """Eq. 6 per-supplier evaluation is bit-identical per backend."""
    results = {}
    for kernel in available_kernels():
        set_kernel(kernel)
        network = build_network(items, offsets)
        results[kernel] = network.station(0).update_target_reservation(
            100.0
        )
    values = set(results.values())
    assert len(values) == 1, results


@settings(max_examples=25, deadline=None)
@given(history, entry_offsets)
def test_grouped_tick_identical_across_kernels(items, offsets):
    """The cross-cell grouped flush is bit-identical per backend."""
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


def _run_metrics(kernel: str, grouped_flush: bool = True):
    config = SimulationConfig(
        scheme="AC3",
        offered_load=120.0,
        duration=120.0,
        seed=5,
        kernel=kernel,
        grouped_flush=grouped_flush,
    )
    return CellularSimulator(config).run().metrics_key()


def test_whole_run_metrics_key_parity_across_kernels():
    """A full AC3 run lands on one metrics_key whatever the backend."""
    keys = {
        kernel: _run_metrics(kernel) for kernel in available_kernels()
    }
    reference = keys["python"]
    for kernel, key in keys.items():
        assert key == reference, kernel


def test_whole_run_metrics_key_parity_grouped_flush_toggle():
    """grouped_flush on/off cannot change a run's metrics_key."""
    assert _run_metrics("auto", grouped_flush=True) == _run_metrics(
        "auto", grouped_flush=False
    )

