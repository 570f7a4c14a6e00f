"""Property-based tests for DES, topology and profile substrates."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular.topology import HexTopology, LinearTopology
from repro.des import Engine
from repro.des.engine import OBSERVER_EVENTS
from repro.traffic.profiles import DayProfile


@settings(max_examples=60)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=60))
def test_engine_fires_in_nondecreasing_time_order(times):
    engine = Engine()
    fired = []
    for time in times:
        engine.call_at(time, lambda t=time: fired.append(t))
    engine.run()
    assert fired == sorted(times)
    assert len(fired) == len(times)


_TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])
_PRIORITIES = st.sampled_from([0, 2, 5])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            _TIMES,
            _PRIORITIES,
            # (delay, priority) of events the callback itself schedules;
            # delay 0 joins the same-timestamp run being drained.
            st.lists(st.tuples(_TIMES, _PRIORITIES), max_size=3),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_each_fired_event_is_the_least_pending_one(plan):
    # With every event queued up front this is sorted((time, priority,
    # sequence)) order; an event a callback adds at the current time
    # cannot overtake what has already fired, so the contract is stated
    # per fire, against what is pending at that moment.
    engine = Engine()
    waiting, fired, observed = set(), [], []

    def schedule(time, priority, children):
        key = (time, priority, engine.sequence)
        waiting.add(key)
        engine.call_at(time, fire, key, children, priority=priority)

    def fire(key, children):
        assert key == min(waiting)
        waiting.remove(key)
        fired.append(key)
        for delay, priority in children:
            schedule(engine.now + delay, priority, ())

    def observe():
        # Nothing leaves the heap except by firing.
        observed.append(
            engine.sequence == engine.events_processed + engine.pending
        )

    # The plan repeated until the observer is sure to be called.
    for _ in range(-(-OBSERVER_EVENTS // len(plan))):
        for time, priority, children in plan:
            schedule(time, priority, children)
    engine.run(observer=observe)
    assert not waiting and len(fired) == engine.sequence
    if not any(children for _, _, children in plan):
        assert fired == sorted(fired)
    assert observed and all(observed)


@given(st.integers(min_value=2, max_value=50), st.booleans())
def test_linear_adjacency_symmetric_and_irreflexive(num_cells, ring):
    topology = LinearTopology(num_cells, ring=ring)
    for cell_id in range(num_cells):
        neighbors = topology.neighbors(cell_id)
        assert cell_id not in neighbors
        assert len(set(neighbors)) == len(neighbors)
        for neighbor in neighbors:
            assert cell_id in topology.neighbors(neighbor)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=8),
    st.booleans(),
)
def test_hex_adjacency_symmetric_and_bounded(half_rows, cols, wrap):
    # Wrapped hex grids require an even row count (enforced by the
    # constructor), so generate even rows and test both layouts.
    rows = 2 * half_rows
    topology = HexTopology(rows, cols, wrap=wrap)
    for cell_id in range(topology.num_cells):
        neighbors = topology.neighbors(cell_id)
        assert cell_id not in neighbors
        assert len(set(neighbors)) == len(neighbors)
        assert len(neighbors) <= 6
        for neighbor in neighbors:
            assert cell_id in topology.neighbors(neighbor)


@given(
    st.integers(min_value=2, max_value=40),
    st.floats(min_value=0.0, max_value=200.0),
)
def test_position_maps_into_valid_cell(num_cells, position):
    topology = LinearTopology(num_cells)  # ring wraps any position
    cell = topology.cell_of_position(position)
    assert 0 <= cell < num_cells
    low, high = topology.cell_span_km(cell)
    wrapped = topology.wrap_position(position)
    assert low <= wrapped < high or (wrapped == high == topology.road_length_km)


profile_points = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=23.99),
        st.floats(min_value=0.0, max_value=1e4),
    ),
    min_size=1,
    max_size=12,
    unique_by=lambda point: round(point[0], 3),
)


@given(profile_points, st.floats(min_value=0.0, max_value=72.0))
def test_profile_interpolation_stays_within_value_range(points, hour):
    profile = DayProfile(points)
    values = [value for _hour, value in points]
    result = profile.value_at_hour(hour)
    assert min(values) - 1e-6 <= result <= max(values) + 1e-6


@given(profile_points)
def test_profile_hits_breakpoints_exactly(points):
    profile = DayProfile(points)
    for hour, value in points:
        assert abs(profile.value_at_hour(hour) - value) < 1e-9
