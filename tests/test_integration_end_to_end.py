"""Integration tests: the full Figure 1 pipeline under realistic conditions."""

from dataclasses import replace

import pytest

from repro.core.config import GarnetConfig
from repro.core.control import FrameKind, StreamUpdateCommand
from repro.core.dispatching import SubscriptionPattern
from repro.core.flags import ExtensionType
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.security import PayloadCipher, Permission
from repro.core.resource import StreamConfig
from repro.errors import AuthenticationError
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Point, Rect
from repro.simnet.mobility import RandomWaypoint
from repro.simnet.wireless import LossModel

CODEC = SampleCodec(0.0, 100.0)


def spec(index=0, kind="itest", rate=2.0):
    return SensorStreamSpec(
        index, ConstantSampler(50.0), CODEC,
        config=StreamConfig(rate=rate), kind=kind,
    )


class TestLossyPipeline:
    def test_filtering_reconstructs_under_loss_and_duplication(self):
        config = GarnetConfig(
            area=Rect(0, 0, 600, 600),
            receiver_rows=3,
            receiver_cols=3,
            receiver_overlap=2.0,
            loss_model=LossModel(base=0.1, edge=0.7),
        )
        deployment = Garnet(config=config, seed=13)
        deployment.define_sensor_type("g", {})
        deployment.add_sensor("g", [spec()], mobility=Point(300.0, 300.0))
        sink = CollectingConsumer("sink", SubscriptionPattern(kind="itest"), CODEC)
        deployment.add_consumer(sink)
        deployment.run(60.0)
        summary = deployment.summary()
        # Heavy duplication upstream of filtering...
        assert summary["filtering.received"] > summary["filtering.delivered"]
        # ...but consumers see each message at most once.
        sequences = [a.message.sequence for a in sink.arrivals]
        assert len(sequences) == len(set(sequences))
        # And the delivery ratio survives the lossy medium.
        assert len(sequences) > 0.7 * summary["radio.transmissions"]

    def test_roaming_sensor_fades_and_returns(self):
        area = Rect(0, 0, 1000, 1000)
        config = GarnetConfig(
            area=area,
            receiver_rows=2,
            receiver_cols=2,
            receiver_overlap=1.0,
            loss_model=LossModel(base=0.0, edge=0.9),
        )
        deployment = Garnet(config=config, seed=17)
        deployment.define_sensor_type("g", {})
        mobility = RandomWaypoint(
            area.expanded(300.0),  # roams beyond coverage
            deployment.sim.fork_rng(),
            speed_min=20.0,
            speed_max=40.0,
            pause=0.0,
        )
        node = deployment.add_sensor(
            "g", [spec(rate=1.0)], mobility=mobility, tx_range=250.0
        )
        sink = CollectingConsumer("sink", SubscriptionPattern(kind="itest"), CODEC)
        deployment.add_consumer(sink)
        deployment.run(600.0)
        # Messages were lost while outside the reception zones (the
        # Section 4.2 expectation), but the stream kept flowing overall.
        assert 0 < len(sink.arrivals) < node.stats.messages_sent

    def test_actuation_retries_overcome_loss(self):
        config = GarnetConfig(
            area=Rect(0, 0, 400, 400),
            receiver_rows=2,
            receiver_cols=2,
            transmitter_rows=1,
            transmitter_cols=1,
            loss_model=LossModel(base=0.4, edge=0.4, good_fraction=0.0),
            ack_timeout=1.0,
            ack_max_attempts=8,
        )
        deployment = Garnet(config=config, seed=23)
        deployment.define_sensor_type("g", {})
        node = deployment.add_sensor(
            "g", [spec(rate=2.0)], mobility=Point(200.0, 200.0)
        )
        consumer = CollectingConsumer("ctl", SubscriptionPattern(kind="itest"))
        deployment.add_consumer(
            consumer, permissions=Permission.trusted_consumer()
        )
        deployment.run(5.0)
        consumer.request_update(
            node.stream_ids()[0], StreamUpdateCommand.SET_RATE, 6.0
        )
        deployment.run(30.0)
        assert node.current_config(0).rate == 6.0
        assert deployment.actuation.stats.acknowledged == 1


class TestMultiHopRelay:
    def test_relayed_messages_reach_fixed_network_tagged(self):
        # Section 8's "initial support" for multi-hop data is the header
        # tag, which Garnet must carry. Beside each transmission of an
        # in-field sensor, a relay one hop away broadcasts a RELAYED copy
        # with its id in the hop trace: first for odd sequences, after the
        # direct copy for even ones. The Filtering Service keeps one copy
        # per sequence, and a relayed copy that gets in first keeps its
        # hop count and trace all the way to the consumer.
        config = GarnetConfig(
            area=Rect(0, 0, 400, 400),
            receiver_rows=1,
            receiver_cols=1,
            receiver_overlap=1.0,
            loss_model=None,
        )
        deployment = Garnet(config=config, seed=31)
        deployment.define_sensor_type("g", {})
        node = deployment.add_sensor(
            "g", [spec(kind="field")], mobility=Point(300.0, 200.0),
            tx_range=300.0,
        )
        relay_at, relay_id = Point(250.0, 200.0), 0x2A
        sent = []
        direct = node._broadcast_message

        def with_relayed_copy(message):
            sent.append(message.sequence)
            frame = deployment.codec.encode(
                replace(message, hop_count=1).with_extension(
                    ExtensionType.HOP_TRACE, bytes([relay_id])
                )
            )
            copies = [
                lambda: direct(message),
                lambda: deployment.medium.broadcast(
                    relay_at, frame, 300.0, tag=FrameKind.DATA.value
                ),
            ]
            if message.sequence % 2:
                copies.reverse()
            first, second = copies
            first()
            deployment.sim.schedule(0.05, second)

        node._broadcast_message = with_relayed_copy
        sink = CollectingConsumer("sink", SubscriptionPattern(kind="field"), CODEC)
        deployment.add_consumer(sink)
        deployment.run(20.0)
        node.stop()
        deployment.run(1.0)
        assert len(sent) > 10
        assert sorted(a.message.sequence for a in sink.arrivals) == sorted(sent)
        relayed = [a.message for a in sink.arrivals if a.message.is_relayed]
        assert [m.sequence for m in relayed] == [s for s in sent if s % 2]
        for message in relayed:
            assert message.hop_count == 1
            assert message.find_extension(ExtensionType.HOP_TRACE) == bytes(
                [relay_id]
            )
        assert not any(
            a.message.find_extension(ExtensionType.HOP_TRACE)
            for a in sink.arrivals
            if not a.message.is_relayed
        )


class TestEncryptedPipeline:
    def test_middleware_forwards_ciphertext_untouched(self):
        deployment = Garnet(
            config=GarnetConfig(
                area=Rect(0, 0, 400, 400),
                receiver_rows=2,
                receiver_cols=2,
                loss_model=None,
            ),
            seed=37,
        )
        deployment.define_sensor_type("g", {})
        key = b"pipeline-test-key"
        deployment.add_sensor(
            "g",
            [spec(kind="secret")],
            cipher=PayloadCipher(key),
            mobility=Point(200.0, 200.0),
        )
        sink = CollectingConsumer("sink", SubscriptionPattern(kind="secret"))
        deployment.add_consumer(sink)
        deployment.run(10.0)
        assert len(sink.arrivals) > 5
        reader = PayloadCipher(key)
        for arrival in sink.arrivals:
            assert arrival.message.encrypted
            plaintext = reader.decrypt(arrival.message.payload)
            assert CODEC.decode(plaintext).value == pytest.approx(
                50.0, abs=CODEC.quantisation_error(16)
            )

    def test_wrong_key_cannot_read(self):
        deployment = Garnet(
            config=GarnetConfig(
                area=Rect(0, 0, 400, 400), loss_model=None
            ),
            seed=37,
        )
        deployment.define_sensor_type("g", {})
        deployment.add_sensor(
            "g",
            [spec(kind="secret")],
            cipher=PayloadCipher(b"the-right-key-123"),
            mobility=Point(200.0, 200.0),
        )
        sink = CollectingConsumer("sink", SubscriptionPattern(kind="secret"))
        deployment.add_consumer(sink)
        deployment.run(5.0)
        wrong = PayloadCipher(b"the-wrong-key-456")
        with pytest.raises(AuthenticationError):
            wrong.decrypt(sink.arrivals[0].message.payload)


class TestMutuallyUnawareConsumers:
    def test_many_consumers_one_stream_one_transmission(self):
        deployment = Garnet(
            config=GarnetConfig(
                area=Rect(0, 0, 400, 400), loss_model=None
            ),
            seed=41,
        )
        deployment.define_sensor_type("g", {})
        node = deployment.add_sensor(
            "g", [spec()], mobility=Point(200.0, 200.0)
        )
        sinks = [
            CollectingConsumer(f"sink{i}", SubscriptionPattern(kind="itest"))
            for i in range(10)
        ]
        for sink in sinks:
            deployment.add_consumer(sink)
        deployment.run(10.0)
        # The sensor transmitted once per sample regardless of fan-out —
        # sharing is structural, as in Fjords (Section 7).
        assert node.stats.messages_sent == pytest.approx(20, abs=2)
        counts = [len(sink.arrivals) for sink in sinks]
        assert all(count == counts[0] for count in counts)
        assert counts[0] >= 18
