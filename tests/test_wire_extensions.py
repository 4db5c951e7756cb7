"""Header extension semantics exercised end-to-end: fusion counts and
source timestamps over a live deployment. Hop traces on relayed frames
are in ``test_integration_end_to_end.py::TestMultiHopRelay``."""

from repro.core.dispatching import SubscriptionPattern
from repro.core.flags import ExtensionType
from repro.core.message import DataMessage
from repro.core.operators import CollectingConsumer, WindowAggregator
from repro.core.resource import StreamConfig
from repro.core.streamid import StreamId
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec

CODEC = SampleCodec(0.0, 100.0)


def spec(kind, rate=2.0):
    return SensorStreamSpec(
        0, ConstantSampler(50.0), CODEC,
        config=StreamConfig(rate=rate), kind=kind,
    )


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
