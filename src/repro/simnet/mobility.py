"""Mobility models for sensor nodes.

Section 4.2: "Sensors are expected to occasionally roam outside the
reception zone, which may cause data messages to be lost." Mobility is
therefore a first-class input to every experiment: it produces losses, it
makes location inference non-trivial, and it forces the Message Replicator
to target broadcast areas rather than fixed addresses.

Models are pull-based: callers ask for ``position_at(now)`` and the model
advances its internal state lazily. All randomness comes from an RNG
injected at construction so simulations stay deterministic.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.simnet.geometry import Point, Rect


class MobilityModel(ABC):
    """Base class: a trajectory through the sensor field."""

    @abstractmethod
    def position_at(self, time: float) -> Point:
        """The node's position at virtual time ``time`` (seconds).

        ``time`` must be non-decreasing across calls; models may advance
        internal state and are not required to answer queries in the past.
        """


class Stationary(MobilityModel):
    """A fixed node — the degenerate model used by most unit tests."""

    def __init__(self, position: Point) -> None:
        self._position = position

    def position_at(self, time: float) -> Point:
        return self._position


class RandomWaypoint(MobilityModel):
    """Classic random-waypoint mobility inside a rectangle.

    The node picks a uniform destination, travels there at a speed drawn
    from ``[speed_min, speed_max]``, pauses for ``pause`` seconds, and
    repeats. This reproduces sensors drifting in and out of receiver
    coverage at realistic time scales.
    """

    def __init__(
        self,
        area: Rect,
        rng: random.Random,
        speed_min: float = 0.5,
        speed_max: float = 2.0,
        pause: float = 5.0,
        start: Point | None = None,
    ) -> None:
        if speed_min <= 0 or speed_max < speed_min:
            raise ValueError(
                f"invalid speed range [{speed_min}, {speed_max}]"
            )
        if pause < 0:
            raise ValueError(f"pause must be non-negative, got {pause}")
        self._area = area
        self._rng = rng
        self._speed_min = speed_min
        self._speed_max = speed_max
        self._pause = pause
        self._position = start if start is not None else self._random_point()
        self._time = 0.0
        self._target = self._random_point()
        self._speed = rng.uniform(speed_min, speed_max)
        self._pause_until = 0.0

    def _random_point(self) -> Point:
        return Point(
            self._rng.uniform(self._area.x_min, self._area.x_max),
            self._rng.uniform(self._area.y_min, self._area.y_max),
        )

    def position_at(self, time: float) -> Point:
        if time < self._time:
            return self._position
        # Advance in closed form leg by leg; legs are short relative to
        # typical query spacing so the loop runs a handful of iterations.
        remaining = time - self._time
        self._time = time
        while remaining > 0:
            if self._pause_until > 0:
                wait = min(remaining, self._pause_until)
                self._pause_until -= wait
                remaining -= wait
                continue
            gap = self._position.distance_to(self._target)
            travel_time = gap / self._speed if self._speed > 0 else 0.0
            if travel_time > remaining:
                self._position = self._position.toward(
                    self._target, self._speed * remaining
                )
                remaining = 0.0
            else:
                self._position = self._target
                remaining -= travel_time
                self._target = self._random_point()
                self._speed = self._rng.uniform(
                    self._speed_min, self._speed_max
                )
                self._pause_until = self._pause
        return self._position


class PathFollower(MobilityModel):
    """Follows a fixed polyline at constant speed, then holds at the end.

    Used by the watercourse workload for drifting sensor platforms carried
    downstream, and by the tracking workload for targets crossing the
    surveilled area. Set ``loop=True`` for patrol routes.
    """

    def __init__(
        self,
        waypoints: Sequence[Point],
        speed: float,
        loop: bool = False,
    ) -> None:
        if len(waypoints) < 1:
            raise ValueError("at least one waypoint required")
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        self._waypoints = list(waypoints)
        self._speed = speed
        self._loop = loop
        # Cumulative distance along the path, per waypoint.
        self._cumulative = [0.0]
        for previous, current in zip(self._waypoints, self._waypoints[1:]):
            self._cumulative.append(
                self._cumulative[-1] + previous.distance_to(current)
            )
        self._length = self._cumulative[-1]

    def position_at(self, time: float) -> Point:
        if self._length == 0.0 or time <= 0.0:
            return self._waypoints[0]
        travelled = self._speed * time
        if self._loop:
            travelled %= self._length
        elif travelled >= self._length:
            return self._waypoints[-1]
        # Binary search would be overkill for the short paths we use.
        for i in range(1, len(self._cumulative)):
            if travelled <= self._cumulative[i]:
                segment_start = self._waypoints[i - 1]
                segment_end = self._waypoints[i]
                into_segment = travelled - self._cumulative[i - 1]
                return segment_start.toward(segment_end, into_segment)
        return self._waypoints[-1]
