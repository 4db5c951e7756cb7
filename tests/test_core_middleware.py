"""The Garnet facade: construction, deployment operations, control path."""

import pytest

from repro.core.config import GarnetConfig
from repro.core.control import StreamUpdateCommand
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.dispatching import SubscriptionPattern
from repro.core.security import Permission
from repro.errors import (
    AuthorizationError,
    ConfigurationError,
    RegistrationError,
)
from repro.simnet.geometry import Point, Rect

from tests.conftest import CODEC, lossless_config, make_stream_spec


class TestConstruction:
    def test_default_config_builds(self):
        deployment = Garnet(seed=1)
        assert deployment.sim.now == 0.0
        assert len(deployment.receivers) == 16
        assert len(deployment.transmitters) == 4

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            Garnet(config=GarnetConfig(receiver_rows=0))

    def test_deterministic_under_seed(self):
        def run_once():
            deployment = Garnet(config=lossless_config(), seed=11)
            deployment.define_sensor_type("g", {})
            deployment.add_sensor("g", [make_stream_spec()])
            deployment.run(10.0)
            return deployment.summary()

        assert run_once() == run_once()

    def test_different_seeds_differ(self):
        def transmissions(seed):
            config = lossless_config()
            deployment = Garnet(config=config, seed=seed)
            deployment.define_sensor_type("g", {})
            deployment.add_sensor("g", [make_stream_spec(rate=3.0)])
            deployment.run(10.0)
            # Phase jitter differs with seed, so exact event times differ;
            # compare the RNG streams directly.
            return deployment.sim.rng.random()

        assert transmissions(1) != transmissions(2)

    def test_deployment_secret_scopes_tokens(self):
        from repro.errors import AuthenticationError

        home = Garnet(
            config=GarnetConfig(deployment_secret=b"home-deployment-secret")
        )
        foreign = Garnet(seed=1)  # the default secret
        token = foreign.issue_token("alice")
        with pytest.raises(AuthenticationError):
            home.connect(token=token)
        assert home.connect(token=home.issue_token("bob")).name == "bob"


class TestSensorDeployment:
    def test_add_sensor_registers_everywhere(self, deployment):
        node = deployment.add_sensor(
            "generic", [make_stream_spec(kind="k")]
        )
        stream_id = node.stream_ids()[0]
        assert deployment.sensor(node.sensor_id) is node
        assert deployment.registry.get(stream_id).kind == "k"
        assert deployment.resource_manager.believed_config(stream_id)

    def test_sensor_ids_allocated_uniquely(self, deployment):
        a = deployment.add_sensor("generic", [make_stream_spec()])
        b = deployment.add_sensor("generic", [make_stream_spec()])
        assert a.sensor_id != b.sensor_id

    def test_explicit_sensor_id_reserved(self, deployment):
        node = deployment.add_sensor(
            "generic", [make_stream_spec()], sensor_id=500
        )
        assert node.sensor_id == 500
        with pytest.raises(Exception):
            deployment.add_sensor(
                "generic", [make_stream_spec()], sensor_id=500
            )

    def test_point_mobility_shorthand(self, deployment):
        node = deployment.add_sensor(
            "generic", [make_stream_spec()], mobility=Point(10.0, 20.0)
        )
        assert node.position == Point(10.0, 20.0)

    def test_unknown_sensor_lookup(self, deployment):
        with pytest.raises(RegistrationError):
            deployment.sensor(999999)

    def test_sensors_listed_in_order(self, deployment):
        deployment.add_sensor("generic", [make_stream_spec()], sensor_id=5)
        deployment.add_sensor("generic", [make_stream_spec()], sensor_id=2)
        assert [n.sensor_id for n in deployment.sensors()] == [2, 5]


class TestControlPath:
    @pytest.fixture
    def wired(self, deployment):
        node = deployment.add_sensor(
            "generic", [make_stream_spec(kind="k")]
        )
        consumer = CollectingConsumer(
            "ctl", SubscriptionPattern(kind="k"), CODEC
        )
        deployment.add_consumer(
            consumer, permissions=Permission.trusted_consumer()
        )
        return deployment, node, consumer

    def test_full_rate_change_loop(self, wired):
        deployment, node, consumer = wired
        deployment.run(2.0)
        stream_id = node.stream_ids()[0]
        decision = consumer.request_update(
            stream_id, StreamUpdateCommand.SET_RATE, 4.0
        )
        assert decision.approved
        deployment.run(10.0)
        assert node.current_config(0).rate == 4.0
        assert (
            deployment.resource_manager.believed_config(stream_id).rate == 4.0
        )
        assert deployment.actuation.stats.acknowledged == 1

    def test_disable_enable_loop(self, wired):
        deployment, node, consumer = wired
        stream_id = node.stream_ids()[0]
        consumer.request_update(stream_id, StreamUpdateCommand.DISABLE_STREAM)
        deployment.run(8.0)
        assert node.current_config(0).enabled is False
        sent_when_disabled = node.stats.messages_sent
        consumer.request_update(stream_id, StreamUpdateCommand.ENABLE_STREAM)
        deployment.run(8.0)
        assert node.current_config(0).enabled is True
        assert node.stats.messages_sent > sent_when_disabled

    def test_ping_round_trip(self, wired):
        deployment, node, consumer = wired
        decision = consumer.request_update(
            node.stream_ids()[0], StreamUpdateCommand.PING
        )
        assert decision.approved
        deployment.run(5.0)
        assert deployment.actuation.stats.acknowledged == 1

    def test_actuation_observer_fires(self, wired):
        deployment, node, consumer = wired
        events = []
        deployment.control.add_actuation_observer(
            lambda sid, parameter, value, ok: events.append(
                (sid, parameter, value, ok)
            )
        )
        consumer.request_update(
            node.stream_ids()[0], StreamUpdateCommand.SET_RATE, 2.0
        )
        deployment.run(8.0)
        assert events == [(node.stream_ids()[0], "rate", 2.0, True)]

    def test_release_demands_relaxes_sensor(self, wired):
        deployment, node, consumer = wired
        from repro.core.conflicts import MaxDemand

        deployment.resource_manager.set_policy(MaxDemand(), parameter="rate")
        stream_id = node.stream_ids()[0]
        other = CollectingConsumer("other")
        deployment.add_consumer(
            other, permissions=Permission.trusted_consumer()
        )
        consumer.request_update(stream_id, StreamUpdateCommand.SET_RATE, 8.0)
        other.request_update(stream_id, StreamUpdateCommand.SET_RATE, 2.0)
        deployment.run(8.0)
        assert node.current_config(0).rate == 8.0
        consumer.release_demands()
        deployment.run(8.0)
        assert node.current_config(0).rate == 2.0

    def test_standard_consumer_cannot_actuate(self, deployment):
        node = deployment.add_sensor("generic", [make_stream_spec()])
        consumer = CollectingConsumer("weak")
        deployment.add_consumer(consumer)  # standard permissions
        with pytest.raises(AuthorizationError):
            consumer.request_update(
                node.stream_ids()[0], StreamUpdateCommand.SET_RATE, 2.0
            )


class TestRemoveConsumer:
    def test_remove_cleans_up(self, deployment):
        node = deployment.add_sensor(
            "generic", [make_stream_spec(kind="k")]
        )
        consumer = CollectingConsumer(
            "temp", SubscriptionPattern(kind="k"), CODEC
        )
        deployment.add_consumer(consumer)
        deployment.run(3.0)
        received = len(consumer.arrivals)
        assert received > 0
        deployment.remove_consumer(consumer)
        deployment.run(3.0)
        assert len(consumer.arrivals) == received
        # Unclaimed data now flows to the orphanage.
        assert deployment.orphanage.total_received > 0


class TestSummary:
    def test_summary_keys_present(self, deployment):
        deployment.add_sensor("generic", [make_stream_spec()])
        deployment.run(3.0)
        summary = deployment.summary()
        for key in (
            "time",
            "radio.transmissions",
            "filtering.duplicates",
            "dispatch.orphaned",
            "actuation.issued",
        ):
            assert key in summary
        assert summary["time"] == 3.0

    def test_run_duration_validation(self, deployment):
        with pytest.raises(ConfigurationError):
            deployment.run(-1.0)


class TestObserverIsolation:
    @pytest.fixture
    def wired(self, deployment):
        node = deployment.add_sensor(
            "generic", [make_stream_spec(kind="k")]
        )
        consumer = CollectingConsumer(
            "ctl", SubscriptionPattern(kind="k"), CODEC
        )
        deployment.add_consumer(
            consumer, permissions=Permission.trusted_consumer()
        )
        return deployment, node, consumer

    def test_raising_observer_does_not_break_later_ones(self, wired):
        deployment, node, consumer = wired
        events = []

        def broken(sid, parameter, value, ok):
            raise RuntimeError("observer bug")

        deployment.control.add_actuation_observer(broken)
        deployment.control.add_actuation_observer(
            lambda *notification: events.append(notification)
        )
        consumer.request_update(
            node.stream_ids()[0], StreamUpdateCommand.SET_RATE, 2.0
        )
        deployment.run(8.0)
        # The healthy observer saw the completion despite the broken one,
        # and the control loop itself finished (ack recorded).
        assert events == [(node.stream_ids()[0], "rate", 2.0, True)]
        assert deployment.actuation.stats.acknowledged == 1
        assert deployment.control.observer_errors == 1
        assert (
            deployment.metrics().value("control.observer_errors") == 1.0
        )

    def test_non_callable_observer_rejected(self, deployment):
        with pytest.raises(ConfigurationError):
            deployment.control.add_actuation_observer("not callable")


class TestObservability:
    def test_service_stats_and_registry_agree(self, deployment):
        deployment.add_sensor("generic", [make_stream_spec()])
        deployment.run(5.0)
        registry = deployment.metrics()
        assert deployment.filtering.stats.received > 0
        assert (
            registry.value("filtering.received")
            == deployment.filtering.stats.received
        )
        assert (
            registry.value("dispatch.deliveries")
            == deployment.dispatcher.stats.deliveries
        )
        assert (
            registry.value("fixednet.messages")
            == deployment.network.stats.messages
        )

    def test_snapshot_carries_virtual_time(self, deployment):
        deployment.add_sensor("generic", [make_stream_spec()])
        deployment.run(2.0)
        snapshot = deployment.metrics_snapshot()
        assert snapshot["time"] == 2.0
        assert snapshot["counters"]["filtering.received"] > 0

    def test_fixednet_spans_traced(self, deployment):
        deployment.add_sensor("generic", [make_stream_spec()])
        deployment.run(5.0)
        spans = deployment.tracer.finished_spans("fixednet.deliver")
        assert spans
        assert all(span.finished for span in spans)
        config = deployment.config
        assert all(
            span.duration == pytest.approx(config.message_latency)
            for span in spans
            if not span.attributes.get("rpc")
        )

    def test_kernel_probe_counts_events(self, deployment):
        deployment.add_sensor("generic", [make_stream_spec()])
        deployment.run(5.0)
        registry = deployment.metrics()
        assert registry.value("kernel.events_executed") > 0
        assert (
            registry.value("kernel.events_scheduled")
            >= registry.value("kernel.events_executed")
        )
