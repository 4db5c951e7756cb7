"""Mobility models: determinism, confinement, closed-form paths."""

import random

import pytest

from repro.simnet.geometry import Point, Rect
from repro.simnet.mobility import (
    PathFollower,
    RandomWaypoint,
    Stationary,
)

AREA = Rect(0.0, 0.0, 100.0, 100.0)


class TestStationary:
    def test_never_moves(self):
        model = Stationary(Point(5, 5))
        assert model.position_at(0.0) == Point(5, 5)
        assert model.position_at(1e6) == Point(5, 5)


class TestRandomWaypoint:
    def test_stays_inside_area(self):
        model = RandomWaypoint(AREA, random.Random(3), pause=1.0)
        for t in range(0, 1000, 7):
            assert AREA.contains(model.position_at(float(t)))

    def test_deterministic_under_seed(self):
        a = RandomWaypoint(AREA, random.Random(9))
        b = RandomWaypoint(AREA, random.Random(9))
        for t in (0.0, 10.0, 50.0, 123.0):
            assert a.position_at(t) == b.position_at(t)

    def test_moves_over_time(self):
        model = RandomWaypoint(
            AREA, random.Random(1), speed_min=1.0, speed_max=1.0, pause=0.0
        )
        start = model.position_at(0.0)
        later = model.position_at(200.0)
        assert start.distance_to(later) > 0.0

    def test_speed_bound_respected(self):
        model = RandomWaypoint(
            AREA, random.Random(2), speed_min=1.0, speed_max=2.0, pause=0.0
        )
        previous = model.position_at(0.0)
        for t in range(1, 100):
            current = model.position_at(float(t))
            # One second at max speed 2 covers at most 2 metres.
            assert previous.distance_to(current) <= 2.0 + 1e-9
            previous = current

    def test_queries_in_past_return_current(self):
        model = RandomWaypoint(AREA, random.Random(4))
        at_50 = model.position_at(50.0)
        assert model.position_at(10.0) == at_50

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RandomWaypoint(AREA, random.Random(0), speed_min=0.0)
        with pytest.raises(ValueError):
            RandomWaypoint(AREA, random.Random(0), speed_min=2.0, speed_max=1.0)
        with pytest.raises(ValueError):
            RandomWaypoint(AREA, random.Random(0), pause=-1.0)


class TestPathFollower:
    def test_follows_straight_segment(self):
        model = PathFollower([Point(0, 0), Point(10, 0)], speed=2.0)
        assert model.position_at(0.0) == Point(0, 0)
        assert model.position_at(2.5) == Point(5, 0)
        assert model.position_at(5.0) == Point(10, 0)

    def test_holds_at_end(self):
        model = PathFollower([Point(0, 0), Point(10, 0)], speed=2.0)
        assert model.position_at(100.0) == Point(10, 0)

    def test_multi_segment(self):
        model = PathFollower(
            [Point(0, 0), Point(10, 0), Point(10, 10)], speed=1.0
        )
        assert model.position_at(15.0) == Point(10, 5)

    def test_loop_wraps(self):
        model = PathFollower(
            [Point(0, 0), Point(10, 0)], speed=1.0, loop=True
        )
        # Path length 10; at t=12 the follower is 2 in on a second lap.
        assert model.position_at(12.0) == Point(2, 0)

    def test_closed_form_allows_arbitrary_time_order(self):
        model = PathFollower([Point(0, 0), Point(10, 0)], speed=1.0)
        late = model.position_at(8.0)
        early = model.position_at(2.0)
        assert early == Point(2, 0)
        assert late == Point(8, 0)

    def test_single_waypoint(self):
        model = PathFollower([Point(4, 4)], speed=1.0)
        assert model.position_at(99.0) == Point(4, 4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PathFollower([], speed=1.0)
        with pytest.raises(ValueError):
            PathFollower([Point(0, 0)], speed=0.0)
