"""The complex-water-course scenario of Section 6.1.

"We are actively developing suitable models which could be applied to the
management of a complex water course. In such a scenario, the ability of
the super coordinator to anticipate changes to water bodies and preempt
actuation requests is expected to be significant."

The build:

- a river crosses the deployment area; its stage is a
  :class:`~repro.workloads.fields.RiverStageField` with flood waves
  injected on a regular schedule, so the hydrology is periodic — the
  structure the coordinator's Markov model learns;
- **stage gauges** (sophisticated, actuatable sensors) sit at even
  chainages along the course, sampling at a low base rate;
- **drifters** (simple, transmit-only sensors) float downstream along
  the course — mobile sources whose positions must be inferred (and can
  be hinted, since any consumer knowing river geometry can place them);
- one **flood watcher** consumer per gauge classifies its stage into
  ``normal`` / ``rising`` / ``flood`` with hysteresis and reports
  transitions to the Super Coordinator;
- coordinator state actions raise a gauge's sampling rate on (observed
  or predicted) ``rising`` and drop it again on ``normal``.

Experiment E6 builds this scenario twice — reactive and predictive — and
compares, per flood wave per gauge, the interval between the watcher
entering ``rising`` and the higher rate being acknowledged by the gauge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import GarnetConfig
from repro.core.consumer import Consumer
from repro.core.control import StreamUpdateCommand
from repro.core.envelopes import StreamArrival
from repro.core.resource import StreamConfig
from repro.core.security import Permission
from repro.core.streamid import StreamId
from repro.errors import CodecError
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import SampleCodec
from repro.simnet.geometry import Point, Rect
from repro.simnet.mobility import PathFollower
from repro.workloads.fields import FieldSampler, RiverStageField
from repro.workloads.scenario import ScenarioBase

STAGE_RANGE = (0.0, 8.0)
BASE_RATE = 0.2
ALERT_RATE = 2.0
RISING_THRESHOLD = 1.8
FLOOD_THRESHOLD = 2.8
HYSTERESIS = 0.2


class FloodWatcher(Consumer):
    """Classifies one gauge's stage; reports transitions upstream.

    States: ``normal`` → ``rising`` → ``flood`` → ``rising`` → ``normal``
    with hysteresis so noise does not chatter at a threshold.
    """

    def __init__(
        self, name: str, stream_id: StreamId, codec: SampleCodec
    ) -> None:
        super().__init__(name)
        self._stream_id = stream_id
        self._codec = codec
        self.state = "normal"
        self.transitions: list[tuple[float, str]] = []
        self.decode_failures = 0

    def on_start(self) -> None:
        self.subscribe(stream_id=self._stream_id)
        self.report_state(self.state)

    def on_data(self, arrival: StreamArrival) -> None:
        if not arrival.message.payload:
            return  # ack-flush messages carry no sample
        try:
            sample = self._codec.decode(arrival.message.payload)
        except CodecError:
            self.decode_failures += 1
            return
        new_state = self._classify(sample.value)
        if new_state != self.state:
            self.state = new_state
            self.transitions.append((self.now, new_state))
            self.report_state(new_state, {"stage": sample.value})

    def _classify(self, stage: float) -> str:
        if self.state == "normal":
            if stage >= FLOOD_THRESHOLD:
                return "flood"
            if stage >= RISING_THRESHOLD:
                return "rising"
            return "normal"
        if self.state == "rising":
            if stage >= FLOOD_THRESHOLD:
                return "flood"
            if stage < RISING_THRESHOLD - HYSTERESIS:
                return "normal"
            return "rising"
        # flood
        if stage < FLOOD_THRESHOLD - HYSTERESIS:
            return "rising" if stage >= RISING_THRESHOLD else "normal"
        return "flood"


@dataclass(slots=True)
class ActuationRecord:
    time: float
    stream_id: StreamId
    parameter: str | None
    value: object
    success: bool


@dataclass(slots=True)
class WatercourseReport:
    """Per-run results consumed by experiment E6."""

    mode: str
    rising_entries: list[tuple[float, str]] = field(default_factory=list)
    rate_raises: list[ActuationRecord] = field(default_factory=list)
    spurious_high_rate_time: float = 0.0
    predictive_actions: int = 0
    correct_predictions: int = 0
    wrong_predictions: int = 0

    def detection_to_actuation_latencies(
        self, lead_window: float = 120.0, lag_window: float = 60.0
    ) -> list[float]:
        """Per fresh flood detection, the delay until the high-rate ack.

        Detections are ``normal -> rising`` transitions only (recede
        transitions keep the already-raised rate). Each is matched with
        the nearest successful rate raise on its gauge within
        ``[-lead_window, +lag_window]`` seconds; negative latencies mean
        the predictive coordinator had the rate raised before the state
        was even reported.
        """
        latencies: list[float] = []
        raises = sorted(self.rate_raises, key=lambda r: r.time)
        for entered_at, watcher in self.rising_entries:
            gauge_stream = _gauge_stream_of(watcher)
            candidates = [
                r
                for r in raises
                if r.stream_id == gauge_stream
                and r.success
                and entered_at - lead_window
                <= r.time
                <= entered_at + lag_window
            ]
            if candidates:
                best = min(candidates, key=lambda r: abs(r.time - entered_at))
                latencies.append(best.time - entered_at)
                raises.remove(best)
        return latencies


def _watcher_name(gauge_index: int, stream_id: StreamId) -> str:
    return f"watcher-{gauge_index}@{stream_id.sensor_id}.{stream_id.stream_index}"


def _gauge_stream_of(watcher_name: str) -> StreamId:
    _, _, address = watcher_name.partition("@")
    sensor, _, index = address.partition(".")
    return StreamId(int(sensor), int(index))


class WatercourseScenario(ScenarioBase):
    """Builds the full water-course deployment.

    Parameters
    ----------
    gauges:
        Stage gauges along the course.
    drifters:
        Floating transmit-only sensors carried downstream.
    predictive:
        Run the Super Coordinator in its anticipatory mode.
    wave_period / wave_count:
        Flood schedule; regular by design so prediction has structure
        to learn.
    """

    def __init__(
        self,
        gauges: int = 4,
        drifters: int = 2,
        predictive: bool = False,
        wave_period: float = 300.0,
        wave_count: int = 6,
        first_wave_at: float = 60.0,
        seed: int = 0,
    ) -> None:
        area = Rect(0.0, 0.0, 2000.0, 2000.0)
        config = GarnetConfig(
            area=area,
            receiver_rows=4,
            receiver_cols=4,
            transmitter_rows=2,
            transmitter_cols=2,
            predictive_coordinator=predictive,
            prediction_lead_fraction=0.8,
        )
        super().__init__(config=config, seed=seed)
        self.mode = "predictive" if predictive else "reactive"
        self.codec = SampleCodec(*STAGE_RANGE)
        self.report = WatercourseReport(mode=self.mode)

        # The river: a gentle diagonal with a bend.
        self.river = RiverStageField(
            course=[
                Point(100.0, 300.0),
                Point(800.0, 700.0),
                Point(1300.0, 1200.0),
                Point(1900.0, 1600.0),
            ],
            base_stage=1.0,
            celerity=2.0,
        )
        self.wave_times = [
            first_wave_at + i * wave_period for i in range(wave_count)
        ]
        # Sigma is chosen well under the inter-wave spacing (celerity x
        # period) so the stage genuinely recedes to normal between waves.
        for t in self.wave_times:
            self.river.add_flood_wave(t, amplitude=2.5, sigma=100.0)

        deployment = self.deployment
        deployment.define_sensor_type(
            "stage_gauge",
            {
                "rate_limits": "rate >= 0.05 and rate <= 10",
                "precision": "precision >= 8 and precision <= 24",
            },
            default_config=StreamConfig(rate=BASE_RATE),
        )
        deployment.define_sensor_type(
            "drifter",
            {"rate_limits": "rate >= 0.05 and rate <= 2"},
            default_config=StreamConfig(rate=0.5),
            actuatable=False,
        )

        # Gauges at even chainage along the course.
        self.gauge_nodes = []
        self.gauge_streams: list[StreamId] = []
        course_points = self._even_course_points(gauges)
        for position in course_points:
            node = deployment.add_sensor(
                "stage_gauge",
                [
                    SensorStreamSpec(
                        0,
                        FieldSampler(self.river),
                        self.codec,
                        config=StreamConfig(rate=BASE_RATE),
                        kind="water.stage",
                    )
                ],
                mobility=position,
            )
            self.gauge_nodes.append(node)
            self.gauge_streams.append(node.stream_ids()[0])

        # Drifters floating the course.
        self.drifter_nodes = []
        for i in range(drifters):
            mobility = PathFollower(
                self.river._course, speed=1.5 + 0.3 * i, loop=True
            )
            node = deployment.add_sensor(
                "drifter",
                [
                    SensorStreamSpec(
                        0,
                        FieldSampler(self.river),
                        self.codec,
                        config=StreamConfig(rate=0.5),
                        kind="water.drifter",
                    )
                ],
                mobility=mobility,
                receive_capable=False,
            )
            self.drifter_nodes.append(node)

        # One watcher per gauge.
        self.watchers: list[FloodWatcher] = []
        for index, stream_id in enumerate(self.gauge_streams):
            watcher = FloodWatcher(
                _watcher_name(index, stream_id), stream_id, self.codec
            )
            deployment.add_consumer(
                watcher, permissions=Permission.trusted_consumer()
            )
            self.watchers.append(watcher)

        self._wire_coordinator()
        deployment.control.add_actuation_observer(self._on_actuation)

    # ------------------------------------------------------------------
    def _even_course_points(self, count: int) -> list[Point]:
        follower = PathFollower(self.river._course, speed=1.0)
        length = self.river.length
        return [
            follower.position_at(length * (i + 0.5) / count)
            for i in range(count)
        ]

    def _wire_coordinator(self) -> None:
        deployment = self.deployment
        coordinator = deployment.coordinator
        system_token = deployment.issue_token(
            "coordinator", Permission.trusted_consumer()
        )

        def set_rate(consumer: str, rate: float) -> None:
            stream_id = _gauge_stream_of(consumer)
            deployment.control.request_update(
                consumer="coordinator",
                stream_id=stream_id,
                command=StreamUpdateCommand.SET_RATE,
                value=rate,
                priority=10,
                token=system_token,
            )

        coordinator.register_state_action(
            "rising", lambda consumer: set_rate(consumer, ALERT_RATE)
        )
        coordinator.register_state_action(
            "flood", lambda consumer: set_rate(consumer, ALERT_RATE)
        )
        coordinator.register_state_action(
            "normal", lambda consumer: set_rate(consumer, BASE_RATE)
        )

    def _on_actuation(self, stream_id, parameter, value, success) -> None:
        record = ActuationRecord(
            time=self.sim.now,
            stream_id=stream_id,
            parameter=parameter,
            value=value,
            success=success,
        )
        if parameter == "rate" and value == ALERT_RATE:
            self.report.rate_raises.append(record)

    # ------------------------------------------------------------------
    def run(self, duration: float) -> WatercourseReport:  # type: ignore[override]
        self.deployment.run(duration)
        self._collect()
        return self.report

    def _collect(self) -> None:
        for watcher in self.watchers:
            previous = "normal"
            for time, state in watcher.transitions:
                if state == "rising" and previous == "normal":
                    self.report.rising_entries.append((time, watcher.name))
                previous = state
        coordinator_stats = self.deployment.coordinator.stats
        self.report.predictive_actions = coordinator_stats.predictive_actions
        self.report.correct_predictions = (
            coordinator_stats.correct_predictions
        )
        self.report.wrong_predictions = coordinator_stats.wrong_predictions
        self.report.rising_entries.sort()
