"""Unit tests for the profile-driven speed sampler and Mobile basics."""

import random

import pytest

from repro.cellular.topology import LinearTopology
from repro.mobility.mobile import Mobile
from repro.mobility.models import LinearMobilityModel
from repro.mobility.speed import ConstantSpeedSampler, ProfileSpeedSampler
from repro.traffic.profiles import DayProfile


def test_profile_sampler_centers_on_profile():
    profile = DayProfile([(0.0, 100.0), (9.0, 40.0), (12.0, 100.0)])
    sampler = ProfileSpeedSampler(profile, half_width=20.0)
    rng = random.Random(0)
    rush = [sampler.sample(9 * 3600.0, rng) for _ in range(500)]
    night = [sampler.sample(0.0, rng) for _ in range(500)]
    assert all(20.0 <= value <= 60.0 for value in rush)
    assert all(80.0 <= value <= 120.0 for value in night)


def test_profile_sampler_clamps_at_zero():
    profile = DayProfile([(0.0, 5.0)])
    sampler = ProfileSpeedSampler(profile, half_width=20.0)
    rng = random.Random(1)
    draws = [sampler.sample(0.0, rng) for _ in range(200)]
    assert all(draw >= 0.0 for draw in draws)


def test_negative_half_width_rejected():
    with pytest.raises(ValueError):
        ProfileSpeedSampler(DayProfile([(0.0, 10.0)]), half_width=-1.0)


class TestMobile:
    def test_speed_conversion(self):
        mobile = Mobile(0.0, 36.0, 1, 0, mobile_id=0)
        assert mobile.speed_km_per_s == pytest.approx(0.01)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            Mobile(0.0, -1.0, 1, 0, mobile_id=0)

    def test_is_moving(self):
        assert Mobile(0.0, 10.0, 1, 0, mobile_id=0).is_moving
        assert not Mobile(0.0, 0.0, 0, 0, mobile_id=0).is_moving

    def test_place_updates_state(self):
        mobile = Mobile(0.0, 36.0, 1, 0, mobile_id=0)
        mobile.place(3.0, 3, now=50.0)
        assert mobile.position_km == 3.0
        assert mobile.cell_id == 3
        assert mobile.position_time == 50.0

    def test_ids_unique(self):
        # The mobility model that spawns a mobile numbers it, from 0.
        for _ in range(2):
            model = LinearMobilityModel(
                LinearTopology(3), ConstantSpeedSampler(36.0)
            )
            rng = random.Random(0)
            first = model.spawn(0, 0.0, rng)
            second = model.spawn(1, 0.0, rng)
            assert (first.mobile_id, second.mobile_id) == (0, 1)
