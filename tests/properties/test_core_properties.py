"""Property-based tests for the window controller and cell accounting."""

from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellular.cell import CapacityError, Cell
from repro.core.window import (
    EstimationWindowController,
    StepPolicy,
    WindowControllerConfig,
)

#: Connection ids, unique across this module's tests.
_ids = count()

handoff_sequences = st.lists(st.booleans(), min_size=0, max_size=400)
targets = st.sampled_from([0.01, 0.02, 0.05, 0.2])
max_sojourns = st.floats(min_value=0.0, max_value=500.0)


@given(handoff_sequences, targets, max_sojourns)
def test_t_est_always_within_bounds(drops, target, max_sojourn):
    controller = EstimationWindowController(
        WindowControllerConfig(target_drop_probability=target)
    )
    for dropped in drops:
        controller.on_handoff(dropped, max_sojourn)
        assert controller.t_est >= controller.config.min_window
        assert controller.t_est <= max(
            max_sojourn, controller.config.initial_window,
            controller.config.min_window,
        )


@given(handoff_sequences, targets)
def test_counters_are_consistent(drops, target):
    controller = EstimationWindowController(
        WindowControllerConfig(target_drop_probability=target)
    )
    for dropped in drops:
        controller.on_handoff(dropped, 100.0)
    assert controller.total_handoffs == len(drops)
    assert controller.total_drops == sum(drops)
    assert controller.drops <= controller.total_drops
    assert controller.handoffs <= controller.total_handoffs
    assert controller.observation_window % controller.reference == 0


@given(handoff_sequences)
def test_every_increase_coincides_with_a_drop(drops):
    controller = EstimationWindowController(WindowControllerConfig())
    increases = 0
    for dropped in drops:
        before = controller.t_est
        controller.on_handoff(dropped, 1_000.0)
        if controller.t_est > before:
            increases += 1
            assert dropped
    assert increases == sum(
        1 for adjustment in controller.adjustments if adjustment.increased
    )


@settings(max_examples=50)
@given(
    handoff_sequences,
    st.sampled_from(list(StepPolicy)),
)
def test_step_policies_respect_bounds_too(drops, policy):
    controller = EstimationWindowController(
        WindowControllerConfig(step_policy=policy)
    )
    for dropped in drops:
        controller.on_handoff(dropped, 50.0)
        assert 1.0 <= controller.t_est <= 50.0


@given(
    st.lists(
        st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=40.0)),
        max_size=600,
    ),
    st.sampled_from([0.02, 0.05, 0.2]),
    st.sampled_from(list(StepPolicy)),
    st.booleans(),
)
def test_bound_on_demand_equals_bound_in_hand(calls, target, policy, inclusive):
    """``T_soj,max`` as a callable gives the state the value gives, and
    is asked only where Figure 6 reads it: on a drop past the quota."""

    def make():
        return EstimationWindowController(
            WindowControllerConfig(
                target_drop_probability=target,
                step_policy=policy,
                inclusive_decrement=inclusive,
            )
        )

    eager, lazy = make(), make()
    asked = []
    expected_asks = []
    for index, (dropped, bound) in enumerate(calls):
        now = float(index)

        def on_demand(at, index=index, bound=bound):
            assert at == float(index)
            asked.append(index)
            return bound

        window_before = eager.observation_window
        eager.on_handoff(dropped, bound, now)
        lazy.on_handoff(dropped, on_demand, now)
        if eager.observation_window > window_before:  # quota exceeded
            expected_asks.append(index)
        assert lazy.t_est == eager.t_est
    assert asked == expected_asks
    assert lazy.adjustments == eager.adjustments  # time, window, direction, n_H, n_HD
    for name in (
        "observation_window", "handoffs", "drops", "total_handoffs", "total_drops"
    ):
        assert getattr(lazy, name) == getattr(eager, name)
    # A counted hand-off and a decrement never ask.
    decrements = [a for a in eager.adjustments if not a.increased]
    assert all(calls[i][0] for i in asked)
    assert len(asked) <= sum(dropped for dropped, _ in calls)
    assert all(not calls[int(a.time)][0] for a in decrements)


bandwidths = st.sampled_from([1.0, 4.0])


@settings(max_examples=50)
@given(st.lists(st.tuples(bandwidths, st.booleans()), max_size=120))
def test_cell_accounting_invariant(operations):
    """Random attach/detach interleavings keep 0 <= used <= C."""
    from repro.traffic.classes import VIDEO, VOICE
    from repro.traffic.connection import Connection

    cell = Cell(0, 100.0)
    attached = []
    for bandwidth, is_attach in operations:
        if is_attach:
            connection = Connection(
                VOICE if bandwidth == 1.0 else VIDEO, 0.0, 0,
                connection_id=next(_ids),
            )
            try:
                cell.attach(connection)
                attached.append(connection)
            except CapacityError:
                assert cell.used_bandwidth + bandwidth > cell.capacity
        elif attached:
            cell.detach(attached.pop())
        assert 0.0 <= cell.used_bandwidth <= cell.capacity + 1e-9
        assert cell.used_bandwidth == sum(c.bandwidth for c in attached)
