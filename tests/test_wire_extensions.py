"""Header extension semantics exercised end-to-end: hop traces and
fusion counts over a live deployment."""

from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.flags import ExtensionType
from repro.core.message import DataMessage
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer, WindowAggregator
from repro.core.resource import StreamConfig
from repro.core.streamid import StreamId
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Point, Rect

CODEC = SampleCodec(0.0, 100.0)


def spec(kind, rate=2.0):
    return SensorStreamSpec(
        0, ConstantSampler(50.0), CODEC,
        config=StreamConfig(rate=rate), kind=kind,
    )


class TestWithReplacedExtension:
    def test_adds_when_absent(self):
        message = DataMessage(stream_id=StreamId(1, 0), sequence=0)
        updated = message.with_replaced_extension(3, b"\x07")
        assert updated.find_extension(3) == b"\x07"

    def test_replaces_existing_entry(self):
        message = (
            DataMessage(stream_id=StreamId(1, 0), sequence=0)
            .with_extension(3, b"\x01")
            .with_extension(4, b"\x02")
        )
        updated = message.with_replaced_extension(3, b"\x01\x09")
        assert updated.find_extension(3) == b"\x01\x09"
        assert updated.find_extension(4) == b"\x02"
        assert len(updated.extensions) == 2


class TestHopTrace:
    def test_relay_appends_its_id_to_the_trace(self):
        config = GarnetConfig(
            area=Rect(0, 0, 400, 400),
            receiver_rows=1,
            receiver_cols=1,
            receiver_overlap=1.0,
            loss_model=None,
        )
        deployment = Garnet(config=config, seed=31)
        deployment.define_sensor_type("g", {})
        # Remote sensor out of receiver reach; relay bridges it in.
        deployment.add_sensor(
            "g", [spec("remote")],
            mobility=Point(760.0, 200.0), tx_range=300.0,
        )
        relay = deployment.add_sensor(
            "g", [spec("bridge")],
            mobility=Point(470.0, 200.0), tx_range=300.0, relay=True,
        )
        sink = CollectingConsumer(
            "sink", SubscriptionPattern(kind="remote"), CODEC
        )
        deployment.add_consumer(sink)
        deployment.run(20.0)
        assert len(sink.arrivals) > 5
        for arrival in sink.arrivals:
            trace = arrival.message.find_extension(ExtensionType.HOP_TRACE)
            assert trace == bytes([relay.sensor_id & 0xFF])
            assert arrival.message.hop_count == 1


class TestFusionCount:
    def test_window_aggregates_carry_fusion_count(self, deployment):
        deployment.add_sensor("generic", [spec("raw", rate=2.0)])
        deployment.add_consumer(
            WindowAggregator(
                "agg",
                SubscriptionPattern(kind="raw"),
                window=4,
                aggregate="mean",
                input_codec=CODEC,
                output_codec=CODEC,
                output_kind="agg.out",
            )
        )
        sink = CollectingConsumer(
            "sink", SubscriptionPattern(kind="agg.out"), CODEC
        )
        deployment.add_consumer(sink)
        deployment.run(10.0)
        assert len(sink.arrivals) >= 3
        for arrival in sink.arrivals:
            assert arrival.message.fused
            count_blob = arrival.message.find_extension(
                ExtensionType.FUSION_COUNT
            )
            assert count_blob is not None
            assert int.from_bytes(count_blob, "big") == 4

    def test_fusion_count_survives_the_wire(self, deployment):
        """Extensions roundtrip through the actual codec, not just the
        in-process object graph."""
        message = DataMessage(
            stream_id=StreamId(5, 0), sequence=1, fused=True
        ).with_extension(
            ExtensionType.FUSION_COUNT, (12).to_bytes(2, "big")
        )
        decoded = deployment.codec.decode(deployment.codec.encode(message))
        assert decoded.find_extension(ExtensionType.FUSION_COUNT) == (
            12
        ).to_bytes(2, "big")


class TestSourceTimestamps:
    def test_disabled_by_default(self, deployment):
        deployment.add_sensor("generic", [spec("plain")])
        from repro.core.operators import CollectingConsumer

        sink = CollectingConsumer(
            "sink2", SubscriptionPattern(kind="plain"), CODEC
        )
        deployment.add_consumer(sink)
        deployment.run(3.0)
        for arrival in sink.arrivals:
            assert arrival.message.find_extension(
                ExtensionType.SOURCE_TIMESTAMP
            ) is None
