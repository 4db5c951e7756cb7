"""Closed-loop adaptive sampling: a consumer that tunes its sensor.

The paper's opening argument for the return path (Section 1): "Garnet
permits mutually unaware consumers to undertake dynamic control of the
sensors and influence the data delivery process, which is desirable
since application-level knowledge can be used to improve the overall
operation of the network."

:class:`AdaptiveRateController` is that argument as a working consumer.
It watches one stream, estimates the signal's current *activity* (mean
absolute slope over a sliding window, normalised by a configured scale),
maps activity onto a sampling rate between a floor and a ceiling, and —
when the desired rate differs enough from what it last asked for —
issues a ``SET_RATE`` through the normal mediated control path. A quiet
signal is sampled slowly (saving the sensor's battery, experiment E14);
an active one is sampled quickly (bounding reconstruction error,
experiment E15). The Resource Manager still mediates: other consumers'
demands and the sensor type's constraints bound what the controller can
actually get.
"""

from __future__ import annotations

from collections import deque

from repro.core.consumer import Consumer
from repro.core.control import StreamUpdateCommand
from repro.core.envelopes import StreamArrival
from repro.core.streamid import StreamId
from repro.errors import CodecError
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import RegistryBackedStats
from repro.sensors.sampling import SampleCodec


class RateRequestGate:
    """Decides whether a new ``SET_RATE`` demand is worth issuing.

    The request-suppression plumbing shared by
    :class:`AdaptiveRateController` and the
    :class:`~repro.qos.degradation.DegradationController`: a desired
    rate within ``hysteresis`` (relative) of the last approved request
    is not worth the control traffic, and re-asking the exact value the
    Resource Manager last denied just spams it.
    """

    __slots__ = ("hysteresis", "requested_rate", "last_denied")

    def __init__(self, hysteresis: float = 0.0) -> None:
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        self.hysteresis = hysteresis
        self.requested_rate: float | None = None
        self.last_denied: float | None = None

    def within_hysteresis(self, desired: float) -> bool:
        """True when ``desired`` is too close to the last approved rate."""
        reference = self.requested_rate
        if reference is None or reference <= 0:
            return False
        return abs(desired - reference) / reference < self.hysteresis

    def is_denied(self, rate: float) -> bool:
        """True when ``rate`` (rounded) was the last value denied."""
        return round(rate, 3) == self.last_denied

    def record(self, rate: float, approved: bool) -> None:
        rounded = round(rate, 3)
        if approved:
            self.requested_rate = rounded
            self.last_denied = None
        else:
            self.last_denied = rounded


class ControllerStats(RegistryBackedStats):
    evaluations: int = 0
    rate_requests: int = 0
    denied_requests: int = 0

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        prefix: str | None = None,
    ) -> None:
        super().__init__(metrics, prefix)
        self.rate_trace: list = []
        """(time, requested_rate) for each actuated change."""


class AdaptiveRateController(Consumer):
    """Drives one stream's sampling rate from its observed activity.

    Parameters
    ----------
    stream_id:
        The (physical) stream to watch and control.
    codec:
        Payload codec shared with the sensor.
    min_rate, max_rate:
        The rate band the controller moves within (further clipped by
        the sensor type's constraints at admission time).
    activity_scale:
        Mean |d value / d t| that should map to the top of the band, in
        value-units per second. Below ~0 activity the controller sits at
        ``min_rate``.
    window:
        Samples per activity estimate.
    hysteresis:
        Minimum relative change versus the last requested rate before a
        new request is issued (keeps control traffic quiet near a
        steady state).
    priority:
        Demand priority used at the Resource Manager.
    """

    def __init__(
        self,
        name: str,
        stream_id: StreamId,
        codec: SampleCodec,
        min_rate: float = 0.2,
        max_rate: float = 5.0,
        activity_scale: float = 1.0,
        window: int = 6,
        hysteresis: float = 0.25,
        priority: int = 0,
    ) -> None:
        super().__init__(name)
        if not 0 < min_rate <= max_rate:
            raise ValueError(
                f"invalid rate band [{min_rate}, {max_rate}]"
            )
        if activity_scale <= 0:
            raise ValueError("activity_scale must be positive")
        if window < 3:
            raise ValueError("window must be at least 3")
        if hysteresis < 0:
            raise ValueError("hysteresis must be non-negative")
        self._stream_id = stream_id
        self._codec = codec
        self._min_rate = min_rate
        self._max_rate = max_rate
        self._activity_scale = activity_scale
        self._window = window
        self._priority = priority
        self._samples: deque[tuple[float, float]] = deque(maxlen=window)
        self._gate = RateRequestGate(hysteresis)
        self.decode_failures = 0
        self.controller_stats = ControllerStats(
            prefix=f"adaptive.{name}"
        )

    def _attach(self, session) -> None:
        super()._attach(session)
        self.controller_stats.bind(session.metrics)

    # ------------------------------------------------------------------
    @property
    def requested_rate(self) -> float | None:
        """The rate last asked of the Resource Manager (None = never)."""
        return self._gate.requested_rate

    def on_start(self) -> None:
        self.subscribe(stream_id=self._stream_id)

    def on_data(self, arrival: StreamArrival) -> None:
        if not arrival.message.payload:
            return
        try:
            sample = self._codec.decode(arrival.message.payload)
        except CodecError:
            self.decode_failures += 1
            return
        self._samples.append((sample.time_seconds, sample.value))
        if len(self._samples) == self._window:
            self._evaluate()

    # ------------------------------------------------------------------
    def _evaluate(self) -> None:
        self.controller_stats.evaluations += 1
        desired = self._desired_rate(self._activity())
        if self._gate.within_hysteresis(desired):
            return
        self._request(desired)

    def _activity(self) -> float:
        """Mean |slope| over the window, in value-units per second."""
        pairs = list(self._samples)
        slopes = []
        for (t0, v0), (t1, v1) in zip(pairs, pairs[1:]):
            dt = t1 - t0
            if dt > 0:
                slopes.append(abs(v1 - v0) / dt)
        if not slopes:
            return 0.0
        return sum(slopes) / len(slopes)

    def _desired_rate(self, activity: float) -> float:
        fraction = min(1.0, activity / self._activity_scale)
        return self._min_rate + fraction * (
            self._max_rate - self._min_rate
        )

    def _request(self, rate: float) -> None:
        rounded = round(rate, 3)
        if self._gate.is_denied(rounded):
            return  # re-asking the exact denied value just spams the RM
        decision = self.request_update(
            self._stream_id,
            StreamUpdateCommand.SET_RATE,
            rounded,
            priority=self._priority,
        )
        self.controller_stats.rate_requests += 1
        self._gate.record(rounded, decision.approved)
        if decision.approved:
            self.controller_stats.rate_trace.append(
                (self.now, self._gate.requested_rate)
            )
        else:
            self.controller_stats.denied_requests += 1
