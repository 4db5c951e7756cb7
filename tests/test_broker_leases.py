"""Broker leases, heartbeats, crash/restart, and session recovery."""

import pytest

from repro.core.middleware import Garnet
from repro.core.resource import StreamConfig
from repro.errors import ServiceDownError

from tests.conftest import lossless_config, make_stream_spec


def leased_deployment(
    seed=7, lease_ttl=5.0, heartbeat_period=1.0, **overrides
) -> Garnet:
    garnet = Garnet(
        config=lossless_config(
            broker_lease_ttl=lease_ttl,
            session_heartbeat_period=heartbeat_period,
            **overrides,
        ),
        seed=seed,
    )
    garnet.define_sensor_type(
        "generic",
        {"rate_limits": "rate >= 0.1 and rate <= 50"},
        default_config=StreamConfig(rate=1.0),
    )
    return garnet


class TestLeases:
    def test_heartbeat_renews_lease(self):
        deployment = leased_deployment()
        session = deployment.connect("hb", heartbeat_period=1.0)
        first_expiry = deployment.broker.lease_expiry(session.endpoint)
        deployment.run(3.0)
        later_expiry = deployment.broker.lease_expiry(session.endpoint)
        assert later_expiry > first_expiry
        assert session.stats.heartbeats >= 2
        assert deployment.broker.stats.leases_expired == 0

    def test_silent_endpoint_is_reaped(self):
        deployment = leased_deployment()
        # Heartbeats disabled for this session: its lease must lapse.
        session = deployment.connect("quiet", heartbeat_period=None)
        session.subscribe(kind="test.*")
        deployment.run(6.0)
        # Reaping is lazy; any broker operation past the TTL triggers it.
        assert deployment.broker.reap_expired_leases() == 1
        assert deployment.broker.stats.leases_expired == 1
        assert not deployment.broker.heartbeat(
            session.token, session.endpoint
        )

    def test_expired_endpoint_subscriptions_dropped(self):
        deployment = leased_deployment()
        session = deployment.connect("quiet", heartbeat_period=None)
        session.subscribe(kind="test.*")
        assert deployment.dispatcher.subscription_count() == 1
        deployment.run(6.0)
        deployment.broker.reap_expired_leases()
        assert deployment.dispatcher.subscription_count() == 0

    def test_heartbeating_session_survives_ttl(self):
        deployment = leased_deployment()
        session = deployment.connect("alive", heartbeat_period=1.0)
        session.subscribe(kind="test.*")
        deployment.run(12.0)
        assert deployment.broker.reap_expired_leases() == 0
        assert deployment.dispatcher.subscription_count() == 1
        assert session.stats.recoveries == 0


class TestCrashRestart:
    def test_operations_raise_while_down(self):
        deployment = leased_deployment()
        session = deployment.connect("app")
        deployment.broker.crash()
        assert not deployment.broker.up
        with pytest.raises(ServiceDownError):
            deployment.broker.discover(session.token)
        deployment.broker.restart()
        assert deployment.broker.up
        deployment.broker.register_consumer(session.token, session.endpoint)
        assert deployment.broker.discover(session.token) is not None

    def test_crash_wipes_registrations(self):
        deployment = leased_deployment()
        session = deployment.connect("app")
        session.subscribe(kind="test.*")
        deployment.broker.crash()
        deployment.broker.restart()
        assert not deployment.broker.heartbeat(
            session.token, session.endpoint
        )
        assert deployment.dispatcher.subscription_count() == 0

    def test_crash_is_idempotent(self):
        deployment = leased_deployment()
        deployment.broker.crash()
        deployment.broker.crash()
        deployment.broker.restart()
        deployment.broker.restart()
        assert deployment.broker.up

    def test_session_recovers_after_restart(self):
        deployment = leased_deployment()
        node = deployment.add_sensor("generic", [make_stream_spec()])
        received = []
        session = deployment.connect("app", heartbeat_period=1.0)
        session.on_data(received.append)
        session.subscribe(stream_id=node.stream_ids()[0])
        deployment.run(4.0)
        before = len(received)
        assert before > 0

        deployment.broker.crash()
        deployment.run(3.0)
        deployment.broker.restart()
        deployment.run(8.0)

        assert session.stats.recoveries == 1
        assert session.stats.resubscriptions == 1
        # Data kept flowing after recovery...
        assert len(received) > before
        # ...and what fell into the Orphanage while routes were gone was
        # replayed on recovery.
        assert session.stats.orphans_replayed > 0
        counters = deployment.metrics().snapshot()["counters"]
        assert counters["resilience.session_recoveries"] == 1.0
        assert counters["resilience.orphans_replayed"] > 0

    def test_subscription_ids_survive_recovery(self):
        deployment = leased_deployment()
        session = deployment.connect("app", heartbeat_period=1.0)
        kept = session.subscribe(kind="test.*")
        dropped = session.subscribe(kind="other.*")
        deployment.broker.crash()
        deployment.run(2.0)
        deployment.broker.restart()
        deployment.run(3.0)
        assert session.stats.recoveries == 1
        session.unsubscribe(dropped)  # the id subscribe() returned
        assert session.subscription_ids == (kept,)
        assert deployment.dispatcher.subscription_count() == 1
        session.unsubscribe(kept)
        assert deployment.dispatcher.subscription_count() == 0
        assert session.subscription_ids == ()

    def test_consumer_over_session_recovers(self):
        from repro.core.operators import CollectingConsumer
        from repro.core.dispatching import SubscriptionPattern
        from tests.conftest import CODEC

        deployment = leased_deployment()
        deployment.add_sensor("generic", [make_stream_spec()])
        sink = CollectingConsumer(
            "sink", SubscriptionPattern(kind="test.*"), CODEC
        )
        deployment.add_consumer(sink)
        deployment.run(3.0)
        deployment.broker.crash()
        deployment.run(2.0)
        deployment.broker.restart()
        deployment.run(6.0)
        session = deployment.session("sink")
        assert session.stats.recoveries == 1
        assert sink.stats.received > 0
