"""Coverage for smaller behaviours not exercised elsewhere."""

import pytest

from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.security import PayloadCipher
from repro.simnet.geometry import Rect
from repro.simnet.kernel import PeriodicTask, Simulator

from tests.conftest import CODEC, lossless_config, make_stream_spec


class TestRunUntilIdle:
    def test_drains_pending_events(self):
        deployment = Garnet(config=lossless_config(), seed=1)
        deployment.define_sensor_type("g", {})
        node = deployment.add_sensor("g", [make_stream_spec()])
        deployment.run(3.0)
        node.stop()
        deployment.location_publisher.stop()
        deployment.run_until_idle(max_events=100_000)
        assert deployment.sim.pending_events == 0


class TestEncryptedDerivedStreams:
    def test_consumer_publishes_encrypted_derived_stream(self, deployment):
        key = b"derived-stream-key"
        publisher = CollectingConsumer("publisher")
        subscriber = CollectingConsumer(
            "subscriber", SubscriptionPattern(kind="sec.derived")
        )
        deployment.add_consumer(publisher)
        deployment.add_consumer(subscriber)
        cipher = PayloadCipher(key)
        publisher.publish(
            0,
            cipher.encrypt(b"derived secret"),
            kind="sec.derived",
            encrypted=True,
        )
        deployment.run(1.0)
        assert len(subscriber.arrivals) == 1
        message = subscriber.arrivals[0].message
        assert message.encrypted
        assert PayloadCipher(key).decrypt(message.payload) == b"derived secret"
        descriptor = deployment.registry.get(message.stream_id)
        assert descriptor.encrypted


class TestKernelJitter:
    def test_jittered_periodic_task_is_seed_deterministic(self):
        def firing_times(seed):
            sim = Simulator(seed=seed)
            times = []
            PeriodicTask(
                sim, 1.0, lambda: times.append(sim.now), jitter=0.2
            )
            sim.run(until=10.0)
            return times

        assert firing_times(3) == firing_times(3)
        assert firing_times(3) != firing_times(4)

    def test_jitter_stays_near_period(self):
        sim = Simulator(seed=9)
        times = []
        PeriodicTask(sim, 1.0, lambda: times.append(sim.now), jitter=0.2)
        sim.run(until=50.0)
        intervals = [b - a for a, b in zip(times, times[1:])]
        assert all(0.6 <= gap <= 1.4 for gap in intervals)
        # Mean stays near the nominal period.
        assert abs(sum(intervals) / len(intervals) - 1.0) < 0.1


class TestConfigValidation:
    def test_degenerate_area_rejected(self):
        from repro.errors import ConfigurationError

        # Rect itself rejects inverted bounds, so build a zero-width one.
        config = GarnetConfig(area=Rect(5.0, 0.0, 5.0, 10.0))
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_transmitter_grid_validated(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            GarnetConfig(transmitter_rows=0).validate()


class TestFixedNetworkStats:
    def test_rpc_calls_counted(self, deployment):
        before = deployment.network.stats.rpc_calls
        deployment.network.call_sync("garnet.location", "estimate", 1)
        assert deployment.network.stats.rpc_calls == before + 1
