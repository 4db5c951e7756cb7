"""Deployment-configuration cross-products the defaults never exercise."""

import pytest

from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.security import PayloadCipher
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler
from repro.simnet.wireless import LossModel

from tests.conftest import CODEC, lossless_config, make_stream_spec


@pytest.mark.parametrize("encrypted", [True, False])
def test_encrypted_and_plain_streams_move_end_to_end(encrypted):
    """Payload encryption is orthogonal to the CRC-sealed frame: either
    way the stream moves end to end."""
    deployment = Garnet(config=lossless_config(), seed=7)
    deployment.define_sensor_type("g", {})
    cipher = PayloadCipher(b"cross-product-key") if encrypted else None
    deployment.add_sensor(
        "g", [make_stream_spec(kind="cp")], cipher=cipher
    )
    sink = CollectingConsumer("sink", SubscriptionPattern(kind="cp"))
    deployment.add_consumer(sink)
    deployment.run(10.0)
    assert len(sink.arrivals) >= 8
    message = sink.arrivals[0].message
    assert message.encrypted is encrypted
    if encrypted:
        plaintext = PayloadCipher(b"cross-product-key").decrypt(
            message.payload
        )
        assert CODEC.decode(plaintext).value == pytest.approx(42.0, abs=0.01)
    else:
        assert CODEC.decode(message.payload).value == pytest.approx(
            42.0, abs=0.01
        )


def test_per_stream_actuation_on_multi_stream_sensor():
    """Disabling one internal stream leaves its siblings running — the
    8-bit stream index is a real actuation granularity."""
    from repro.core.control import StreamUpdateCommand
    from repro.core.resource import StreamConfig
    from repro.core.security import Permission

    deployment = Garnet(config=lossless_config(), seed=11)
    deployment.define_sensor_type("station", {})
    node = deployment.add_sensor(
        "station",
        [
            SensorStreamSpec(
                0, ConstantSampler(1.0), CODEC,
                config=StreamConfig(rate=2.0), kind="multi.a",
            ),
            SensorStreamSpec(
                1, ConstantSampler(2.0), CODEC,
                config=StreamConfig(rate=2.0), kind="multi.b",
            ),
        ],
    )
    sink_a = CollectingConsumer("a", SubscriptionPattern(kind="multi.a"))
    sink_b = CollectingConsumer("b", SubscriptionPattern(kind="multi.b"))
    deployment.add_consumer(sink_a, permissions=Permission.trusted_consumer())
    deployment.add_consumer(sink_b)
    deployment.run(5.0)
    sink_a.request_update(
        node.stream_ids()[0], StreamUpdateCommand.DISABLE_STREAM
    )
    deployment.run(10.0)
    a_after = len(sink_a.arrivals)
    b_after = len(sink_b.arrivals)
    deployment.run(10.0)
    # Stream 0 is silent (allow the ack-flush message), stream 1 flows.
    assert len(sink_a.arrivals) - a_after <= 1
    assert len(sink_b.arrivals) - b_after >= 18
    assert node.current_config(0).enabled is False
    assert node.current_config(1).enabled is True


def test_lossy_medium_delivers_each_sequence_once():
    """Over a lossy medium that never corrupts, some of the stream
    arrives and no sequence arrives twice."""
    deployment = Garnet(
        config=lossless_config(
            loss_model=LossModel(base=0.2, edge=0.2, good_fraction=0.0),
        ),
        seed=13,
    )
    deployment.define_sensor_type("g", {})
    node = deployment.add_sensor("g", [make_stream_spec(kind="lossy")])
    sink = CollectingConsumer("sink", SubscriptionPattern(kind="lossy"))
    deployment.add_consumer(sink)
    deployment.run(40.0)
    assert 0 < len(sink.arrivals) <= node.stats.messages_sent
    sequences = [a.message.sequence for a in sink.arrivals]
    assert len(sequences) == len(set(sequences))


def test_sensor_with_all_256_streams_live():
    """The Section 1 claim '256 internal-streams/sensor' exercised as a
    running system, not just a codec boundary."""
    from repro.core.resource import StreamConfig

    deployment = Garnet(config=lossless_config(), seed=17)
    deployment.define_sensor_type("octopus", {})
    specs = [
        SensorStreamSpec(
            index,
            ConstantSampler(float(index % 100)),
            CODEC,
            config=StreamConfig(rate=0.2),
            kind=f"many.{index}",
        )
        for index in range(256)
    ]
    node = deployment.add_sensor("octopus", specs)
    sink = CollectingConsumer(
        "sink", SubscriptionPattern(sensor_id=node.sensor_id)
    )
    deployment.add_consumer(sink)
    deployment.run(12.0)
    seen_indexes = {
        a.message.stream_id.stream_index for a in sink.arrivals
    }
    assert len(seen_indexes) == 256
    assert len(deployment.resource_manager.overview()) >= 256


def test_batched_acknowledgements_complete_every_request():
    """Several requests issued between two emissions ride back in one
    data message (ACK header field + REQUEST_STATUS extensions) and all
    complete at the Actuation Service."""
    from repro.core.control import StreamUpdateCommand
    from repro.core.security import Permission

    deployment = Garnet(config=lossless_config(), seed=19)
    deployment.define_sensor_type("g", {"rate_limits": "rate <= 10"})
    node = deployment.add_sensor(
        "g", [make_stream_spec(kind="batch", rate=0.5)]
    )
    token = deployment.issue_token("ops", Permission.trusted_consumer())
    deployment.run(0.5)
    for _ in range(3):
        deployment.control.request_update(
            consumer="ops",
            stream_id=node.stream_ids()[0],
            command=StreamUpdateCommand.PING,
            token=token,
        )
    deployment.run(10.0)
    stats = deployment.actuation.stats
    assert stats.issued == 3
    assert stats.acknowledged == 3
    assert stats.failed == 0
