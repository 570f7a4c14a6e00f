"""Property-based tests across the admission-control schemes.

The three schemes differ only in which cells participate in the test,
so on *identical* network states their decisions are ordered:
AC2 admits ⇒ AC3 admits ⇒ AC1 admits (each drops constraints).  And
each — one batched reservation tick per test — decides, counts and
installs exactly what §4.3 transcribed literally does.
"""

from itertools import count

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.core.admission import AC1, AC2, AC3
from repro.estimation.cache import CacheConfig
from repro.traffic.classes import VIDEO, VOICE
from repro.traffic.connection import Connection

#: Connection ids, unique across this module's tests.
_ids = count()

cell_loads = st.lists(
    st.integers(min_value=0, max_value=24),  # video connections: 0..96 BUs
    min_size=4,
    max_size=4,
)
histories = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # observing cell
        st.integers(min_value=0, max_value=3),  # next cell
        st.floats(min_value=1.0, max_value=120.0),  # sojourn
    ),
    max_size=25,
)
entry_ages = st.floats(min_value=0.0, max_value=100.0)


def build_network(loads, history, t_est_values, now=1000.0):
    network = CellularNetwork(
        LinearTopology(4),
        capacity=100.0,
        cache_config=CacheConfig(interval=None),
    )
    for index, (observer, next_cell, sojourn) in enumerate(history):
        if next_cell == observer:
            next_cell = (observer + 1) % 4
        network.station(observer).estimator.record_departure(
            float(index), None, next_cell, sojourn
        )
    for cell_id, videos in enumerate(loads):
        for offset in range(videos):
            connection = Connection(
                VIDEO,
                start_time=0.0,
                cell_id=cell_id,
                prev_cell=None,
                cell_entry_time=now - 10.0 - offset,
                connection_id=next(_ids),
            )
            network.cell(cell_id).attach(connection)
    for cell_id, t_est in enumerate(t_est_values):
        network.station(cell_id).window.t_est = t_est
    return network


@settings(max_examples=60, deadline=None)
@given(
    cell_loads,
    histories,
    st.lists(
        st.floats(min_value=1.0, max_value=60.0), min_size=4, max_size=4
    ),
)
def test_admission_strictness_ordering(loads, history, t_est_values):
    now = 1000.0
    decisions = {}
    for name, policy in (("AC1", AC1()), ("AC2", AC2()), ("AC3", AC3())):
        network = build_network(loads, history, t_est_values, now)
        decisions[name] = policy.admit_new(network, 0, VOICE.bandwidth, now)
    if decisions["AC2"].admitted:
        assert decisions["AC3"].admitted
    if decisions["AC3"].admitted:
        assert decisions["AC1"].admitted
    # Complexity ordering always holds.
    assert decisions["AC1"].calculations == 1
    assert decisions["AC2"].calculations == 3
    assert 1 <= decisions["AC3"].calculations <= 3


@settings(
    max_examples=60,
    deadline=None,
    # The fixture is a stateless factory; sharing it between examples
    # shares nothing.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    # Cells at or near capacity and enough history for a few BUs of
    # B_r, so neighbours are suspect before the test and some still are
    # after it.
    st.lists(st.sampled_from([0, 12, 23, 24, 25]), min_size=4, max_size=4),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.floats(min_value=10.0, max_value=80.0),
        ),
        min_size=10,
        max_size=40,
    ),
    st.lists(
        st.floats(min_value=1.0, max_value=60.0), min_size=4, max_size=4
    ),
    # B_r left behind by earlier tests: what makes a neighbour suspect.
    st.lists(
        st.floats(min_value=0.0, max_value=40.0), min_size=4, max_size=4
    ),
    st.integers(min_value=0, max_value=3),
)
def test_policies_match_the_literal_transcription(
    literal_policy, loads, history, t_est_values, prior_targets, cell_id
):
    now = 1000.0
    for policy in (AC1(), AC2(), AC3()):
        outcomes = []
        for candidate in (policy, literal_policy(policy.name)):
            network = build_network(loads, history, t_est_values, now)
            for cell, prior in zip(network.cells, prior_targets):
                cell.reserved_target = prior
            decision = candidate.admit_new(
                network, cell_id, VOICE.bandwidth, now
            )
            outcomes.append(
                (
                    decision,
                    [cell.reserved_target for cell in network.cells],
                    [
                        (
                            station.messages_sent,
                            station.reservation_calculations,
                        )
                        for station in network.stations
                    ],
                    network.total_messages(),
                )
            )
        assert outcomes[0] == outcomes[1], policy.name


@settings(max_examples=40, deadline=None)
@given(cell_loads, histories)
def test_reservation_nonnegative_and_bounded(loads, history):
    network = build_network(loads, history, [30.0] * 4)
    for station in network.stations:
        reservation = network.update_target_reservation(
            station.cell_id, 1000.0
        )
        assert reservation >= 0.0
        # Eq. 6 cannot exceed the total bandwidth of the neighbours'
        # connections (every p_h <= 1).
        bound = sum(
            neighbor.cell.used_bandwidth
            for neighbor in network.neighbor_stations(station.cell_id)
        )
        assert reservation <= bound + 1e-9


@settings(max_examples=40, deadline=None)
@given(cell_loads, histories)
def test_reservation_monotone_in_t_est(loads, history):
    """B_r is non-decreasing in the estimation window (paper §4.1)."""
    previous = -1.0
    for t_est in (1.0, 10.0, 40.0, 200.0):
        network = build_network(loads, history, [t_est] * 4)
        reservation = network.update_target_reservation(0, 1000.0)
        assert reservation >= previous - 1e-9
        previous = reservation
