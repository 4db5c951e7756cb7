"""The sensor node: mobile source (and sink) of Garnet data streams.

One :class:`SensorNode` owns up to 256 internal streams (Figure 2's 8-bit
stream index), each with its own sampler, payload codec and configuration.
Two capability grades coexist, as Section 5 requires:

- **simple** (``receive_capable=False``): samples and transmits, nothing
  else — it never hears the actuation path, and the Resource Manager
  refuses update requests against it;
- **sophisticated** (``receive_capable=True``): additionally listens on
  the shared medium, applies stream update requests through its
  :class:`~repro.sensors.firmware.SensorFirmware`, and acknowledges them
  in outgoing data messages.

A node sends only its own streams; it never relays. Garnet still reads
relayed frames from the field (Section 8's header tagging: the RELAYED hop
count and HOP_TRACE), and the Filtering Service drops their duplicates, so
it "transparently supports such node level activity" (Section 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.control import (
    FrameKind,
    StreamUpdateCommand,
    StreamUpdateRequest,
    decode_mode_params,
    decode_precision_params,
    decode_rate_params,
    peek_frame_kind,
)
from repro.core.flags import ExtensionType
from repro.core.message import (
    DataMessage,
    MessageCodec,
    make_request_status_extension,
)
from repro.core.resource import StreamConfig
from repro.core.security import PayloadCipher
from repro.core.streamid import MAX_STREAM_INDEX, StreamId
from repro.errors import CodecError, ConfigurationError
from repro.sensors.energy import Battery, RadioEnergyModel
from repro.sensors.firmware import (
    APPLY_BAD_PARAMS,
    APPLY_OK,
    APPLY_UNSUPPORTED,
    SensorFirmware,
)
from repro.sensors.sampling import SampleCodec, Sampler
from repro.simnet.geometry import Point
from repro.simnet.kernel import PeriodicTask, Simulator
from repro.simnet.mobility import MobilityModel, Stationary
from repro.simnet.wireless import RadioFrame, WirelessMedium
from repro.util.ids import WrappingCounter

MAX_ACKS_PER_MESSAGE = 4
_ACK_FLUSH_DELAY = 0.25
#: The medium tag of a node's data frames (a str: its hash is cached), and
#: what a node that does not pay to receive ignores, since it acts only on
#: control frames.
_DATA_TAG = FrameKind.DATA.value
_DATA_ONLY = frozenset({_DATA_TAG})


@dataclass(slots=True)
class SensorStreamSpec:
    """Static description of one internal stream of a node."""

    stream_index: int
    sampler: Sampler
    codec: SampleCodec
    config: StreamConfig = field(default_factory=StreamConfig)
    kind: str = ""
    initial_sequence: int = 0
    """Where the 16-bit sequence counter starts — a rebooted sensor
    resuming mid-space, or a test exercising wrap-around cheaply."""

    def __post_init__(self) -> None:
        if not 0 <= self.stream_index <= MAX_STREAM_INDEX:
            raise ConfigurationError(
                f"stream index {self.stream_index} outside "
                f"[0, {MAX_STREAM_INDEX}]"
            )
        if not 0 <= self.initial_sequence < (1 << 16):
            raise ConfigurationError(
                f"initial_sequence {self.initial_sequence} outside "
                "the 16-bit sequence space"
            )


@dataclass(slots=True)
class SensorStats:
    samples: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0
    control_frames: int = 0
    updates_applied: int = 0
    died_at: float | None = None


class _StreamRuntime:
    __slots__ = ("spec", "sequence", "task")

    def __init__(self, spec: SensorStreamSpec) -> None:
        self.spec = spec
        self.sequence = WrappingCounter(16, start=spec.initial_sequence)
        self.task: PeriodicTask | None = None


class SensorNode:
    """A mobile wireless sensor with 1..256 internal data streams."""

    def __init__(
        self,
        sensor_id: int,
        sim: Simulator,
        medium: WirelessMedium,
        mobility: MobilityModel,
        streams: list[SensorStreamSpec],
        message_codec: MessageCodec,
        tx_range: float = 150.0,
        rx_range: float = float("inf"),
        receive_capable: bool = True,
        energy_model: RadioEnergyModel | None = None,
        battery: Battery | None = None,
        cipher: PayloadCipher | None = None,
    ) -> None:
        if not streams:
            raise ConfigurationError("a sensor needs at least one stream")
        indexes = [spec.stream_index for spec in streams]
        if len(set(indexes)) != len(indexes):
            raise ConfigurationError(f"duplicate stream indexes: {indexes}")
        self.sensor_id = sensor_id
        self._sim = sim
        self._medium = medium
        self._mobility = mobility
        self._codec = message_codec
        self.tx_range = tx_range
        self.receive_capable = receive_capable
        self._energy = energy_model
        self._battery = battery
        self._cipher = cipher
        self._streams: dict[int, _StreamRuntime] = {
            spec.stream_index: _StreamRuntime(spec) for spec in streams
        }
        self._firmware = (
            SensorFirmware(sensor_id, self._apply_update)
            if receive_capable
            else None
        )
        self._started = False
        self.stats = SensorStats()
        if receive_capable:
            # A node's receive sensitivity is independent of its transmit
            # power: high-power fixed transmitters are audible from well
            # beyond the node's own (battery-limited) transmit range, so
            # sensitivity is unbounded by default and links are limited by
            # the *emitter's* range. A stationary node's antenna never
            # moves, so it qualifies for the medium's broadcast-pruning
            # index; roaming nodes must stay on the exhaustive scan.
            ignores = frozenset() if battery is not None else _DATA_ONLY
            medium.attach(
                self, rx_range, static=isinstance(mobility, Stationary), ignores=ignores
            )

    # ------------------------------------------------------------------
    @property
    def position(self) -> Point:
        return self._mobility.position_at(self._sim.now)

    @property
    def alive(self) -> bool:
        return self._battery is None or not self._battery.depleted

    @property
    def firmware(self) -> SensorFirmware | None:
        return self._firmware

    def stream_ids(self) -> list[StreamId]:
        return [
            StreamId(self.sensor_id, index)
            for index in sorted(self._streams)
        ]

    def current_config(self, stream_index: int) -> StreamConfig:
        return self._runtime(stream_index).spec.config

    def _runtime(self, stream_index: int) -> _StreamRuntime:
        try:
            return self._streams[stream_index]
        except KeyError as exc:
            raise ConfigurationError(
                f"sensor {self.sensor_id} has no stream {stream_index}"
            ) from exc

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin sampling every enabled stream."""
        if self._started:
            return
        self._started = True
        for runtime in self._streams.values():
            if runtime.spec.config.enabled and runtime.spec.config.rate > 0:
                self._start_task(runtime)

    def stop(self) -> None:
        for runtime in self._streams.values():
            if runtime.task is not None:
                runtime.task.stop()
                runtime.task = None
        self._started = False

    def _start_task(self, runtime: _StreamRuntime) -> None:
        period = 1.0 / runtime.spec.config.rate
        # Random phase so a field of identical sensors does not transmit
        # in lockstep.
        phase = self._sim.rng.uniform(0.0, period)
        runtime.task = PeriodicTask(
            self._sim,
            period,
            lambda index=runtime.spec.stream_index: self._emit(index),
            start_delay=phase,
        )

    # ------------------------------------------------------------------
    # Data path: sample -> message -> broadcast
    # ------------------------------------------------------------------
    def _emit(self, stream_index: int) -> None:
        if not self.alive:
            self._die()
            return
        runtime = self._runtime(stream_index)
        spec = runtime.spec
        now = self._sim.now
        value = spec.sampler.sample(now, self.position)
        self.stats.samples += 1
        payload = spec.codec.encode(
            int(now * 1_000_000), value, spec.config.precision
        )
        encrypted = False
        if self._cipher is not None:
            payload = self._cipher.encrypt(payload)
            encrypted = True
        message = DataMessage(
            stream_id=StreamId(self.sensor_id, stream_index),
            sequence=runtime.sequence.next(),
            payload=payload,
            encrypted=encrypted,
        )
        message = self._attach_acks(message)
        self._broadcast_message(message)

    def _attach_acks(self, message: DataMessage) -> DataMessage:
        if self._firmware is None or self._firmware.pending_acks() == 0:
            return message
        acks = self._firmware.drain_acks(MAX_ACKS_PER_MESSAGE)
        first_id, first_status = acks[0]
        message = message.with_ack(first_id)
        if first_status != APPLY_OK:
            message = message.with_extension(
                ExtensionType.REQUEST_STATUS,
                make_request_status_extension(first_id, first_status),
            )
        for request_id, status in acks[1:]:
            message = message.with_extension(
                ExtensionType.REQUEST_STATUS,
                make_request_status_extension(request_id, status),
            )
        return message

    def _broadcast_message(self, message: DataMessage) -> None:
        frame = self._codec.encode(message)
        if not self._drain_tx(len(frame)):
            return
        self._medium.broadcast(
            self.position, frame, self.tx_range, exclude=self, tag=_DATA_TAG
        )
        self.stats.messages_sent += 1
        self.stats.bytes_sent += len(frame)

    def _drain_tx(self, frame_bytes: int) -> bool:
        if self._battery is None or self._energy is None:
            return True
        cost = self._energy.tx_cost(frame_bytes * 8, self.tx_range)
        if not self._battery.drain(cost):
            self._die()
            return False
        return True

    def _die(self) -> None:
        if self.stats.died_at is None:
            self.stats.died_at = self._sim.now
        self.stop()

    # ------------------------------------------------------------------
    # Control path: radio -> firmware -> configuration
    # ------------------------------------------------------------------
    def on_radio_receive(self, frame: RadioFrame) -> None:
        if not self.alive:
            return
        if self._battery is not None and self._energy is not None:
            if not self._battery.drain(
                self._energy.rx_cost(len(frame.payload) * 8)
            ):
                self._die()
                return
        if peek_frame_kind(frame.payload) is FrameKind.CONTROL:
            self.stats.control_frames += 1
            assert self._firmware is not None  # only listeners get frames
            handled = self._firmware.handle_frame(frame.payload)
            if handled is not None:
                self._schedule_ack_flush()

    def _schedule_ack_flush(self) -> None:
        # If no data message goes out soon, push an empty-payload message
        # purely to carry the acknowledgement; without this a sensor whose
        # streams were all disabled could never complete the ack loop.
        self._sim.schedule(_ACK_FLUSH_DELAY, self._flush_acks)

    def _flush_acks(self) -> None:
        if (
            not self.alive
            or self._firmware is None
            or self._firmware.pending_acks() == 0
        ):
            return
        runtime = next(iter(self._streams.values()))
        message = DataMessage(
            stream_id=StreamId(self.sensor_id, runtime.spec.stream_index),
            sequence=runtime.sequence.next(),
            payload=b"",
        )
        message = self._attach_acks(message)
        self._broadcast_message(message)

    def _apply_update(self, request: StreamUpdateRequest) -> int:
        self.stats.updates_applied += 1
        try:
            runtime = self._streams.get(request.target.stream_index)
            if runtime is None:
                return APPLY_UNSUPPORTED
            command = request.command
            if command is StreamUpdateCommand.PING:
                return APPLY_OK
            if command is StreamUpdateCommand.SET_RATE:
                rate = decode_rate_params(request.params)
                if rate <= 0:
                    return APPLY_BAD_PARAMS
                runtime.spec.config = runtime.spec.config.with_parameter(
                    "rate", rate
                )
                if runtime.task is not None:
                    runtime.task.period = 1.0 / rate
                return APPLY_OK
            if command is StreamUpdateCommand.SET_MODE:
                mode = decode_mode_params(request.params)
                runtime.spec.config = runtime.spec.config.with_parameter(
                    "mode", mode
                )
                return APPLY_OK
            if command is StreamUpdateCommand.SET_PRECISION:
                precision = decode_precision_params(request.params)
                runtime.spec.config = runtime.spec.config.with_parameter(
                    "precision", precision
                )
                return APPLY_OK
            if command is StreamUpdateCommand.ENABLE_STREAM:
                runtime.spec.config = runtime.spec.config.with_parameter(
                    "enabled", True
                )
                if runtime.task is None and self._started:
                    self._start_task(runtime)
                return APPLY_OK
            if command is StreamUpdateCommand.DISABLE_STREAM:
                runtime.spec.config = runtime.spec.config.with_parameter(
                    "enabled", False
                )
                if runtime.task is not None:
                    runtime.task.stop()
                    runtime.task = None
                return APPLY_OK
            return APPLY_UNSUPPORTED
        except CodecError:
            return APPLY_BAD_PARAMS
