"""Unit tests for mobility models."""

import random

import pytest

from repro.cellular.base_station import EXIT_CELL
from repro.cellular.topology import HexTopology, LinearTopology
from repro.mobility.mobile import Mobile
from repro.mobility.models import (
    HexMobilityModel,
    LinearMobilityModel,
    PopulationClass,
    TravelDirections,
)
from repro.mobility.speed import ConstantSpeedSampler, UniformSpeedSampler


def make_model(ring=True, speed=36.0, directions=TravelDirections.TWO_WAY,
               num_cells=10):
    topology = LinearTopology(num_cells, ring=ring)
    return LinearMobilityModel(
        topology, ConstantSpeedSampler(speed), directions=directions
    )


class TestSpawn:
    def test_position_inside_cell(self):
        model = make_model()
        rng = random.Random(0)
        for cell_id in range(10):
            mobile = model.spawn(cell_id, 0.0, rng)
            low, high = model.topology.cell_span_km(cell_id)
            assert low <= mobile.position_km < high
            assert mobile.cell_id == cell_id

    def test_two_way_directions_balanced(self):
        model = make_model()
        rng = random.Random(1)
        directions = [model.spawn(0, 0.0, rng).direction for _ in range(2000)]
        forward = sum(1 for d in directions if d == 1)
        assert 900 < forward < 1100

    def test_one_way_always_forward(self):
        model = make_model(directions=TravelDirections.ONE_WAY)
        rng = random.Random(2)
        assert all(
            model.spawn(3, 0.0, rng).direction == 1 for _ in range(50)
        )

    def test_stationary_fraction(self):
        topology = LinearTopology(10)
        model = LinearMobilityModel(
            topology,
            ConstantSpeedSampler(36.0),
            stationary_fraction=1.0,
        )
        mobile = model.spawn(0, 0.0, random.Random(0))
        assert not mobile.is_moving
        assert model.next_transition(mobile, 0.0) is None

    def test_invalid_stationary_fraction(self):
        with pytest.raises(ValueError):
            LinearMobilityModel(
                LinearTopology(10),
                ConstantSpeedSampler(36.0),
                stationary_fraction=1.5,
            )


class TestCrossing:
    def test_crossing_time_from_distance(self):
        model = make_model(speed=36.0)  # 0.01 km/s
        mobile = Mobile(0.5, 36.0, 1, 0, mobile_id=0)
        transition = model.next_transition(mobile, now=100.0)
        assert transition.time == pytest.approx(100.0 + 50.0)
        assert transition.next_cell == 1

    def test_backward_crossing(self):
        model = make_model(speed=36.0)
        mobile = Mobile(2.25, 36.0, -1, 2, mobile_id=0)
        transition = model.next_transition(mobile, now=0.0)
        assert transition.time == pytest.approx(25.0)
        assert transition.next_cell == 1

    def test_ring_wrap_forward(self):
        model = make_model(speed=36.0)
        mobile = Mobile(9.5, 36.0, 1, 9, mobile_id=0)
        transition = model.next_transition(mobile, now=0.0)
        assert transition.next_cell == 0

    def test_ring_wrap_backward(self):
        model = make_model(speed=36.0)
        mobile = Mobile(0.5, 36.0, -1, 0, mobile_id=0)
        transition = model.next_transition(mobile, now=0.0)
        assert transition.next_cell == 9

    def test_open_road_exit(self):
        model = make_model(ring=False, speed=36.0)
        mobile = Mobile(9.5, 36.0, 1, 9, mobile_id=0)
        transition = model.next_transition(mobile, now=0.0)
        assert transition.next_cell == EXIT_CELL

    def test_boundary_pinned_mobile_traverses_full_cell(self):
        model = make_model(speed=36.0)
        # Placed exactly on cell 1's left edge moving right.
        mobile = Mobile(1.0, 36.0, 1, 1, mobile_id=0)
        transition = model.next_transition(mobile, now=0.0)
        assert transition.time == pytest.approx(100.0)
        assert transition.next_cell == 2

    def test_crossing_position_forward_and_backward(self):
        model = make_model()
        east = Mobile(2.3, 36.0, 1, 2, mobile_id=0)
        west = Mobile(2.3, 36.0, -1, 2, mobile_id=1)
        assert model.crossing_position(east) == 3.0
        assert model.crossing_position(west) == 2.0

    def test_crossing_position_wraps(self):
        model = make_model()
        mobile = Mobile(9.5, 36.0, 1, 9, mobile_id=0)
        assert model.crossing_position(mobile) == 0.0

    def test_sequence_of_crossings_is_periodic(self):
        """After the first partial cell, crossings are one diameter apart."""
        model = make_model(speed=36.0)
        mobile = Mobile(0.25, 36.0, 1, 0, mobile_id=0)
        now = 0.0
        times = []
        for _ in range(4):
            transition = model.next_transition(mobile, now)
            times.append(transition.time)
            mobile.place(
                model.crossing_position(mobile), transition.next_cell,
                transition.time,
            )
            now = transition.time
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert times[0] == pytest.approx(75.0)
        assert all(gap == pytest.approx(100.0) for gap in gaps)


class TestHexModel:
    def make(self):
        topology = HexTopology(4, 4, wrap=True)
        population = (
            PopulationClass("vehicular", 0.5, 60.0),
            PopulationClass("stationary", 0.5, 0.0),
        )
        return HexMobilityModel(topology, population)

    def test_population_fractions_validated(self):
        with pytest.raises(ValueError):
            HexMobilityModel(
                HexTopology(3, 3),
                (PopulationClass("a", 0.5, 60.0),),
            )

    def test_spawn_assigns_class(self):
        model = self.make()
        rng = random.Random(0)
        mobiles = [model.spawn(0, 0.0, rng) for _ in range(200)]
        moving = sum(1 for mobile in mobiles if mobile.is_moving)
        assert 60 < moving < 140

    def test_transition_targets_are_neighbors(self):
        model = self.make()
        rng = random.Random(1)
        for _ in range(100):
            mobile = model.spawn(5, 0.0, rng)
            transition = model.next_transition(mobile, 0.0, rng)
            if transition is None:
                continue
            assert transition.next_cell in model.topology.neighbors(5)
            assert transition.time > 0.0

    def test_stationary_never_transitions(self):
        model = HexMobilityModel(
            HexTopology(4, 3, wrap=True),
            (PopulationClass("stationary", 1.0, 0.0),),
        )
        rng = random.Random(2)
        mobile = model.spawn(0, 0.0, rng)
        assert model.next_transition(mobile, 0.0, rng) is None

    def test_forget_releases_state(self):
        model = self.make()
        rng = random.Random(3)
        mobile = model.spawn(0, 0.0, rng)
        model.forget(mobile)
        assert model.next_transition(mobile, 0.0, rng) is None


class TestSpeedSamplers:
    def test_uniform_range(self):
        sampler = UniformSpeedSampler(80.0, 120.0)
        rng = random.Random(0)
        draws = [sampler.sample(0.0, rng) for _ in range(1000)]
        assert all(80.0 <= draw <= 120.0 for draw in draws)
        assert sampler.mean == 100.0

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformSpeedSampler(100.0, 50.0)
        with pytest.raises(ValueError):
            UniformSpeedSampler(-10.0, 50.0)

    def test_constant_sampler(self):
        sampler = ConstantSpeedSampler(55.0)
        assert sampler.sample(0.0, random.Random(0)) == 55.0
