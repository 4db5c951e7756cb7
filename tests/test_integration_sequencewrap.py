"""End-to-end 16-bit sequence wrap-around and orphan claiming."""

import pytest

from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.errors import ConfigurationError
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler

from tests.conftest import CODEC, lossless_config, make_stream_spec


class TestSequenceWraparound:
    def test_full_pipeline_survives_the_wrap(self):
        """A sensor started near the top of the sequence space wraps to
        0 mid-run; filtering and dispatch deliver every message exactly
        once across the boundary."""
        deployment = Garnet(config=lossless_config(), seed=3)
        deployment.define_sensor_type("g", {})
        from repro.core.resource import StreamConfig

        deployment.add_sensor(
            "g",
            [
                SensorStreamSpec(
                    0,
                    ConstantSampler(1.0),
                    CODEC,
                    config=StreamConfig(rate=2.0),
                    kind="wrap",
                    initial_sequence=65530,
                )
            ],
        )
        sink = CollectingConsumer("sink", SubscriptionPattern(kind="wrap"))
        deployment.add_consumer(sink)
        deployment.run(30.0)  # ~60 messages: 6 pre-wrap, rest post-wrap
        sequences = [a.message.sequence for a in sink.arrivals]
        assert len(sequences) == len(set(sequences))
        assert 65535 in sequences and 0 in sequences and 1 in sequences
        # Order preserved across the boundary (lossless medium).
        wrap_index = sequences.index(65535)
        assert sequences[wrap_index + 1] == 0
        assert deployment.filtering.stats.delivered == len(sequences)

    def test_initial_sequence_validation(self):
        with pytest.raises(ConfigurationError):
            SensorStreamSpec(
                0, ConstantSampler(1.0), CODEC, initial_sequence=1 << 16
            )
        with pytest.raises(ConfigurationError):
            SensorStreamSpec(
                0, ConstantSampler(1.0), CODEC, initial_sequence=-1
            )


class TestClaimOrphans:
    def _orphaned_deployment(self):
        deployment = Garnet(config=lossless_config(), seed=5)
        deployment.define_sensor_type("generic", {})
        deployment.add_sensor("generic", [make_stream_spec(kind="a.one")])
        deployment.add_sensor("generic", [make_stream_spec(kind="b.two")])
        deployment.run(20.0)  # nobody subscribed: everything orphaned
        assert deployment.orphanage.total_received >= 38
        return deployment

    def test_claim_by_kind_replays_and_discards(self):
        deployment = self._orphaned_deployment()
        late = CollectingConsumer("late", codec=CODEC)
        deployment.add_consumer(late)
        session = deployment.session("late")
        session.subscribe(kind="a.one", replay="orphans")
        replayed = session.stats.orphans_replayed
        deployment.run(10.0)
        assert replayed >= 18
        # Backlog plus live messages; stream b.two untouched.
        assert len(late.values) >= replayed + 8
        remaining = deployment.orphanage.orphan_streams()
        kinds = {
            deployment.registry.find(s).kind for s in remaining
        }
        assert "a.one" not in kinds
        assert "b.two" in kinds

    def test_claim_with_wildcard(self):
        deployment = self._orphaned_deployment()
        greedy = CollectingConsumer("greedy")
        deployment.add_consumer(greedy)
        session = deployment.session("greedy")
        session.subscribe(SubscriptionPattern.match_all(), replay="orphans")
        replayed = session.stats.orphans_replayed
        deployment.run(0.1)
        assert replayed >= 38
        # The location stream's orphan state is claimed too (match-all).
        assert len(greedy.arrivals) >= replayed
