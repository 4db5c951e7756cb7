"""Sensor substrate: energy, sampling codec, firmware, node behaviour."""

import pytest

from repro.core.control import (
    ControlCodec,
    StreamUpdateCommand,
    StreamUpdateRequest,
)
from repro.core.message import MessageCodec
from repro.core.resource import StreamConfig
from repro.core.streamid import StreamId
from repro.errors import CodecError, ConfigurationError
from repro.sensors.energy import Battery, RadioEnergyModel
from repro.sensors.firmware import (
    APPLY_OK,
    APPLY_UNSUPPORTED,
    SensorFirmware,
)
from repro.sensors.node import SensorNode, SensorStreamSpec
from repro.sensors.sampling import (
    CallbackSampler,
    ConstantSampler,
    GaussianNoiseSampler,
    SampleCodec,
    SineSampler,
)
from repro.simnet.geometry import Point
from repro.simnet.kernel import Simulator
from repro.simnet.mobility import Stationary
from repro.simnet.wireless import WirelessMedium


class TestEnergy:
    def test_tx_cost_grows_with_bits_and_distance(self):
        model = RadioEnergyModel()
        assert model.tx_cost(200, 10) > model.tx_cost(100, 10)
        assert model.tx_cost(100, 100) > model.tx_cost(100, 10)

    def test_rx_cost_linear_in_bits(self):
        model = RadioEnergyModel()
        assert model.rx_cost(200) == 2 * model.rx_cost(100)

    def test_negative_inputs_rejected(self):
        model = RadioEnergyModel()
        with pytest.raises(ValueError):
            model.tx_cost(-1, 10)
        with pytest.raises(ValueError):
            model.tx_cost(1, -10)
        with pytest.raises(ValueError):
            model.rx_cost(-1)

    def test_battery_lifecycle(self):
        battery = Battery(1.0)
        assert battery.drain(0.4)
        assert battery.remaining == pytest.approx(0.6)
        assert not battery.drain(0.7)  # crosses zero
        assert battery.depleted
        assert not battery.drain(0.1)  # dead stays dead
        assert battery.remaining == 0.0

    def test_battery_validation(self):
        with pytest.raises(ValueError):
            Battery(0.0)
        with pytest.raises(ValueError):
            Battery(1.0).drain(-0.1)


class TestSampleCodec:
    def test_roundtrip_at_full_precision(self):
        codec = SampleCodec(0.0, 100.0)
        payload = codec.encode(1_500_000, 42.5, 16)
        sample = codec.decode(payload)
        assert sample.time_us == 1_500_000
        assert sample.time_seconds == 1.5
        assert sample.precision == 16
        assert abs(sample.value - 42.5) <= codec.quantisation_error(16)

    def test_payload_size_shrinks_with_precision(self):
        codec = SampleCodec(0.0, 100.0)
        assert codec.payload_size(8) < codec.payload_size(16) < codec.payload_size(32)
        assert len(codec.encode(0, 1.0, 8)) == codec.payload_size(8)

    def test_quantisation_error_shrinks_with_precision(self):
        codec = SampleCodec(0.0, 100.0)
        assert codec.quantisation_error(4) > codec.quantisation_error(12)

    def test_clamping_at_range_edges(self):
        codec = SampleCodec(0.0, 10.0)
        assert codec.decode(codec.encode(0, 99.0, 16)).value == 10.0
        assert codec.decode(codec.encode(0, -5.0, 16)).value == 0.0

    def test_one_bit_precision(self):
        codec = SampleCodec(0.0, 10.0)
        assert codec.decode(codec.encode(0, 9.0, 1)).value == 10.0
        assert codec.decode(codec.encode(0, 1.0, 1)).value == 0.0

    def test_malformed_payloads_rejected(self):
        codec = SampleCodec(0.0, 1.0)
        with pytest.raises(CodecError):
            codec.decode(b"short")
        with pytest.raises(CodecError):
            codec.decode(codec.encode(0, 0.5, 16) + b"x")
        with pytest.raises(CodecError):
            codec.encode(0, 0.5, 0)
        with pytest.raises(CodecError):
            codec.encode(-1, 0.5, 16)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            SampleCodec(5.0, 5.0)


class TestSamplers:
    def test_constant(self):
        assert ConstantSampler(3.0).sample(0.0, Point(0, 0)) == 3.0

    def test_sine_period(self):
        sampler = SineSampler(mean=10.0, amplitude=2.0, period=4.0)
        assert sampler.sample(0.0, Point(0, 0)) == pytest.approx(10.0)
        assert sampler.sample(1.0, Point(0, 0)) == pytest.approx(12.0)
        assert sampler.sample(3.0, Point(0, 0)) == pytest.approx(8.0)

    def test_gaussian_noise_is_centred(self):
        import random

        sampler = GaussianNoiseSampler(
            ConstantSampler(5.0), 1.0, random.Random(1)
        )
        values = [sampler.sample(0.0, Point(0, 0)) for _ in range(500)]
        assert abs(sum(values) / len(values) - 5.0) < 0.2

    def test_callback(self):
        sampler = CallbackSampler(lambda t, p: t + p.x)
        assert sampler.sample(2.0, Point(3, 0)) == 5.0

    def test_sampler_validation(self):
        with pytest.raises(ValueError):
            SineSampler(0, 1, 0.0)
        with pytest.raises(ValueError):
            import random

            GaussianNoiseSampler(ConstantSampler(0), -1.0, random.Random(0))


class TestFirmware:
    def make_firmware(self, statuses=None):
        applied = []

        def apply(request):
            applied.append(request)
            return statuses.pop(0) if statuses else APPLY_OK

        return SensorFirmware(7, apply), applied

    def frame(self, request_id=1, sensor_id=7, command=StreamUpdateCommand.PING):
        return ControlCodec().encode(
            StreamUpdateRequest(
                request_id=request_id,
                target=StreamId(sensor_id, 0),
                command=command,
            )
        )

    def test_applies_addressed_request_and_queues_ack(self):
        firmware, applied = self.make_firmware()
        assert firmware.handle_frame(self.frame()) is not None
        assert len(applied) == 1
        assert firmware.drain_acks(10) == [(1, APPLY_OK)]

    def test_ignores_other_sensors_requests(self):
        firmware, applied = self.make_firmware()
        assert firmware.handle_frame(self.frame(sensor_id=8)) is None
        assert applied == []
        assert firmware.stats.not_addressed == 1

    def test_ignores_data_frames(self):
        firmware, applied = self.make_firmware()
        from repro.core.message import DataMessage

        data = MessageCodec().encode(
            DataMessage(stream_id=StreamId(7, 0), sequence=0)
        )
        assert firmware.handle_frame(data) is None
        assert firmware.stats.frames == 0

    def test_duplicate_request_reacked_not_reapplied(self):
        firmware, applied = self.make_firmware()
        firmware.handle_frame(self.frame(request_id=5))
        firmware.drain_acks(10)
        firmware.handle_frame(self.frame(request_id=5))
        assert len(applied) == 1
        assert firmware.stats.duplicates == 1
        assert firmware.drain_acks(10) == [(5, APPLY_OK)]

    def test_corrupt_frame_counted(self):
        firmware, _ = self.make_firmware()
        frame = bytearray(self.frame())
        frame[3] ^= 0xFF
        assert firmware.handle_frame(bytes(frame)) is None
        assert firmware.stats.corrupt == 1

    def test_failure_status_propagated_in_ack(self):
        firmware, _ = self.make_firmware(statuses=[APPLY_UNSUPPORTED])
        firmware.handle_frame(self.frame())
        assert firmware.drain_acks(10) == [(1, APPLY_UNSUPPORTED)]
        assert firmware.stats.rejected == 1

    def test_ack_queue_drain_limit(self):
        firmware, _ = self.make_firmware()
        for rid in range(5):
            firmware.handle_frame(self.frame(request_id=rid))
        assert len(firmware.drain_acks(2)) == 2
        assert firmware.pending_acks() == 3


class TestSensorNode:
    def build(self, sim=None, loss=None, **kwargs):
        sim = sim or Simulator(seed=3)
        medium = WirelessMedium(sim, loss_model=loss)
        received = []

        class Sink:
            position = Point(0.0, 0.0)

            def on_radio_receive(self, frame):
                received.append(frame)

        medium.attach(Sink(), 10_000.0)
        defaults = dict(
            sensor_id=7,
            sim=sim,
            medium=medium,
            mobility=Stationary(Point(10.0, 0.0)),
            streams=[
                SensorStreamSpec(
                    0,
                    ConstantSampler(5.0),
                    SampleCodec(0.0, 10.0),
                    config=StreamConfig(rate=1.0),
                )
            ],
            message_codec=MessageCodec(),
            tx_range=100.0,
        )
        defaults.update(kwargs)
        node = SensorNode(**defaults)
        return sim, medium, node, received

    def test_samples_at_configured_rate(self):
        sim, _, node, received = self.build()
        node.start()
        sim.run(until=10.0)
        assert 9 <= len(received) <= 11
        assert node.stats.messages_sent == len(received)

    def test_sequences_increment(self):
        sim, _, node, received = self.build()
        node.start()
        sim.run(until=5.0)
        codec = MessageCodec()
        sequences = [codec.decode(f.payload).sequence for f in received]
        assert sequences == list(range(len(sequences)))

    def test_stop_halts_sampling(self):
        sim, _, node, received = self.build()
        node.start()
        sim.run(until=3.0)
        node.stop()
        count = len(received)
        sim.run(until=10.0)
        assert len(received) == count

    def test_disabled_stream_does_not_transmit(self):
        sim, _, node, received = self.build(
            streams=[
                SensorStreamSpec(
                    0,
                    ConstantSampler(5.0),
                    SampleCodec(0.0, 10.0),
                    config=StreamConfig(rate=1.0, enabled=False),
                )
            ]
        )
        node.start()
        sim.run(until=5.0)
        assert received == []

    def test_battery_depletion_kills_node(self):
        # Each ~24-byte frame at 100 m costs ~2e-4 J under the default
        # model, so 1e-3 J buys a handful of messages.
        battery = Battery(1e-3)
        sim, _, node, received = self.build(
            battery=battery, energy_model=RadioEnergyModel()
        )
        node.start()
        sim.run(until=60.0)
        assert node.stats.died_at is not None
        assert not node.alive
        # It sent a few messages then went silent.
        assert 0 < len(received) < 50

    def test_transmit_only_node_is_not_a_listener(self):
        sim = Simulator(seed=1)
        medium = WirelessMedium(sim, loss_model=None)
        node = SensorNode(
            sensor_id=1,
            sim=sim,
            medium=medium,
            mobility=Stationary(Point(0, 0)),
            streams=[
                SensorStreamSpec(
                    0, ConstantSampler(1.0), SampleCodec(0.0, 10.0)
                )
            ],
            message_codec=MessageCodec(),
            receive_capable=False,
        )
        assert medium.listener_count == 0
        assert node.firmware is None

    def test_validation(self):
        sim = Simulator()
        medium = WirelessMedium(sim)
        spec = SensorStreamSpec(
            0, ConstantSampler(1.0), SampleCodec(0.0, 1.0)
        )
        with pytest.raises(ConfigurationError):
            SensorNode(
                1, sim, medium, Stationary(Point(0, 0)), [],
                MessageCodec(),
            )
        with pytest.raises(ConfigurationError):
            SensorNode(
                1, sim, medium, Stationary(Point(0, 0)), [spec, spec],
                MessageCodec(),
            )
        with pytest.raises(ConfigurationError):
            SensorStreamSpec(
                300, ConstantSampler(1.0), SampleCodec(0.0, 1.0)
            )

    def test_stream_ids(self):
        _, _, node, _ = self.build(
            streams=[
                SensorStreamSpec(
                    3, ConstantSampler(1.0), SampleCodec(0.0, 1.0)
                ),
                SensorStreamSpec(
                    1, ConstantSampler(1.0), SampleCodec(0.0, 1.0)
                ),
            ]
        )
        assert node.stream_ids() == [StreamId(7, 1), StreamId(7, 3)]


class TestWhoHearsData:
    """A receive-capable node takes a copy of a data transmission only if
    it pays to receive it: it carries a battery."""

    @staticmethod
    def field(**listener):
        sim = Simulator(seed=5)
        medium = WirelessMedium(sim, loss_model=None)

        def node(sensor_id, x, **options):
            return SensorNode(
                sensor_id=sensor_id,
                sim=sim,
                medium=medium,
                mobility=Stationary(Point(x, 0.0)),
                streams=[
                    SensorStreamSpec(
                        0,
                        ConstantSampler(5.0),
                        SampleCodec(0.0, 10.0),
                        config=StreamConfig(rate=1.0),
                    )
                ],
                message_codec=MessageCodec(),
                tx_range=100.0,
                **options,
            )

        talker = node(1, 0.0)
        hearer = node(2, 50.0, **listener)
        handed = []
        deliver = hearer.on_radio_receive
        hearer.on_radio_receive = lambda frame: (
            handed.append(frame), deliver(frame)
        )
        talker.start()
        return sim, medium, talker, hearer, handed

    def test_battery_node_pays_rx_cost_for_every_data_copy(self):
        model, battery = RadioEnergyModel(), Battery(10.0)
        sim, _, talker, _, handed = self.field(
            battery=battery, energy_model=model
        )
        sim.run(until=10.0)
        assert talker.stats.messages_sent >= 9
        assert len(handed) == talker.stats.messages_sent
        assert battery.consumed == pytest.approx(
            model.rx_cost(8) * talker.stats.bytes_sent
        )

    def test_plain_node_is_handed_control_but_not_data(self):
        sim, medium, talker, hearer, handed = self.field()
        sim.run(until=5.0)
        assert talker.stats.messages_sent > 0 and handed == []
        # The data copies it heard still count as deliveries.
        assert medium.stats.deliveries == talker.stats.messages_sent
        request = StreamUpdateRequest(
            request_id=1,
            target=StreamId(2, 0),
            command=StreamUpdateCommand.PING,
        )
        medium.broadcast(
            Point(0.0, 0.0), ControlCodec().encode(request), 100.0
        )
        sim.run(until=6.0)
        assert len(handed) == 1 and hearer.stats.control_frames == 1
