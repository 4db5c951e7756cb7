"""E10 — multi-level consumers and the derived-stream hierarchy.

Paper artefacts reproduced (Sections 4.2 and 6): "by supporting
multi-level data consumption where each layer offers increasingly
enhanced services to successive levels, an arbitrarily rich application
infrastructure can be assembled", forming "an essentially arbitrary
graph of consumer processes and data streams over the Garnet
middleware ... expected to form a hierarchy".

The sweep builds operator chains of depth 1..5 over one physical stream
and measures end-to-end latency (sensor sample → deepest consumer) and
message amplification on the fixed network. Expected shape: latency and
fixed-network traffic grow linearly with depth (each level is one more
dispatch hop); correctness is preserved at every depth.
"""

import functools

from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer, MapOperator
from repro.core.resource import StreamConfig
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Point, Rect

from claims import Table, documents

CODEC = SampleCodec(0.0, 2000.0)
DEPTHS = [1, 2, 3, 5]
DURATION = 60.0


def run_chain(depth: int) -> dict:
    deployment = Garnet(
        config=GarnetConfig(
            area=Rect(0, 0, 400, 400),
            receiver_rows=2,
            receiver_cols=2,
            loss_model=None,
        ),
        seed=depth,
    )
    deployment.define_sensor_type("g", {})
    deployment.add_sensor(
        "g",
        [
            SensorStreamSpec(
                0,
                ConstantSampler(10.0),
                CODEC,
                config=StreamConfig(rate=2.0),
                kind="level0",
            )
        ],
        mobility=Point(200.0, 200.0),
    )
    for level in range(1, depth + 1):
        deployment.add_consumer(
            MapOperator(
                f"op{level}",
                SubscriptionPattern(kind=f"level{level - 1}"),
                lambda v: v + 1.0,
                input_codec=CODEC,
                output_codec=CODEC,
                output_kind=f"level{level}",
            )
        )
    sink = CollectingConsumer(
        "sink", SubscriptionPattern(kind=f"level{depth}"), CODEC
    )
    deployment.add_consumer(sink)
    deployment.run(DURATION)

    # End-to-end latency: sample timestamp travels inside the payload.
    latencies = []
    for arrival, value in zip(sink.arrivals, sink.values):
        sample = CODEC.decode(arrival.message.payload)
        latencies.append(arrival.delivered_at - sample.time_seconds)
    assert sink.values, "chain delivered nothing"
    expected_value = 10.0 + depth
    value_error = max(abs(v - expected_value) for v in sink.values)
    return {
        "depth": depth,
        "delivered": len(sink.values),
        "mean_latency_ms": 1000.0 * sum(latencies) / len(latencies),
        "fixednet_messages": deployment.network.stats.messages,
        "value_error": value_error,
    }


@functools.cache
def depth_sweep() -> list[dict]:
    return [run_chain(depth) for depth in DEPTHS]


@documents("E10")
def depth_table() -> Table:
    return Table(
        "E10: derived-stream chain depth (Section 6 hierarchy)",
        [
            "depth",
            "delivered",
            "e2e latency (ms)",
            "fixed-net msgs",
            "max value err",
        ],
        [
            [
                r["depth"],
                r["delivered"],
                r["mean_latency_ms"],
                r["fixednet_messages"],
                r["value_error"],
            ]
            for r in depth_sweep()
        ],
    )


def test_chain_depth_sweep():
    depth_table().show()
    rows = depth_sweep()
    # Shape 1: every level transformed correctly (value error bounded by
    # quantisation).
    for r in rows:
        assert r["value_error"] < 2 * CODEC.quantisation_error(16) * len(DEPTHS)
    # Shape 2: latency grows with depth (one dispatch hop per level)...
    latencies = [r["mean_latency_ms"] for r in rows]
    assert latencies == sorted(latencies)
    # ...and so does fixed-network traffic, roughly linearly.
    messages = [r["fixednet_messages"] for r in rows]
    assert messages == sorted(messages)
    assert messages[-1] < messages[0] * (DEPTHS[-1] + 2)


def test_fan_in_fusion_graph():
    """A non-chain topology: two physical streams fused into one derived
    stream consumed by a third level (the 'arbitrary graph')."""
    from repro.core.operators import FusionOperator

    deployment = Garnet(
        config=GarnetConfig(
            area=Rect(0, 0, 400, 400), loss_model=None
        ),
        seed=11,
    )
    deployment.define_sensor_type("g", {})
    for value in (10.0, 30.0):
        deployment.add_sensor(
            "g",
            [
                SensorStreamSpec(
                    0,
                    ConstantSampler(value),
                    CODEC,
                    config=StreamConfig(rate=2.0),
                    kind="raw",
                )
            ],
            mobility=Point(200.0, 200.0),
        )
    deployment.add_consumer(
        FusionOperator(
            "fuse",
            [SubscriptionPattern(kind="raw")],
            fuse=lambda xs: sum(xs) / len(xs),
            input_codec=CODEC,
            output_codec=CODEC,
            output_kind="fused",
        )
    )
    sink = CollectingConsumer(
        "sink", SubscriptionPattern(kind="fused"), CODEC
    )
    deployment.add_consumer(sink)
    deployment.run(30.0)
    values = list(sink.values)
    assert len(values) > 20
    # Once both inputs are live the fused mean settles at 20.
    settled = values[5:]
    assert all(abs(v - 20.0) < 0.5 for v in settled)
