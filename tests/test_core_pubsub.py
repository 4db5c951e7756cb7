"""The broker: registration, authentication, advertising, discovery."""

import pytest

from repro.core.dispatching import (
    DispatchingService,
    ORPHANAGE_INBOX,
    SubscriptionPattern,
)
from repro.core.envelopes import StreamArrival
from repro.core.message import DataMessage
from repro.core.pubsub import Broker
from repro.core.security import AuthService, Permission, Token
from repro.core.streamid import StreamId
from repro.core.streams import StreamRegistry
from repro.errors import (
    AuthenticationError,
    AuthorizationError,
    RegistrationError,
    SubscriptionError,
)


@pytest.fixture
def harness(sim, network):
    registry = StreamRegistry()
    dispatcher = DispatchingService(network, registry)
    network.register_inbox(ORPHANAGE_INBOX, lambda m: None)
    auth = AuthService(b"test-secret-key")
    broker = Broker(network, registry, dispatcher, auth)
    inboxes = {}

    def endpoint(name):
        inboxes[name] = []
        network.register_inbox(name, inboxes[name].append)
        return name

    return sim, network, broker, registry, dispatcher, auth, inboxes, endpoint


def subscriber_token(auth, name="alice"):
    return auth.issue(name, Permission.standard_consumer())


class TestRegistration:
    def test_register_returns_principal(self, harness):
        _, _, broker, _, _, auth, _, endpoint = harness
        token = subscriber_token(auth)
        assert broker.register_consumer(token, endpoint("e")) == "alice"

    def test_register_requires_valid_token(self, harness):
        _, _, broker, _, _, auth, _, endpoint = harness
        forged = Token("alice", Permission.standard_consumer(), b"bad-sig")
        with pytest.raises(AuthenticationError):
            broker.register_consumer(forged, endpoint("e"))

    def test_register_requires_existing_inbox(self, harness):
        _, _, broker, _, _, auth, _, _ = harness
        with pytest.raises(RegistrationError):
            broker.register_consumer(subscriber_token(auth), "no-inbox")

    def test_endpoint_cannot_be_stolen(self, harness):
        _, _, broker, _, _, auth, _, endpoint = harness
        name = endpoint("shared")
        broker.register_consumer(subscriber_token(auth, "alice"), name)
        with pytest.raises(RegistrationError):
            broker.register_consumer(subscriber_token(auth, "mallory"), name)

    def test_deregister_drops_subscriptions(self, harness):
        _, _, broker, _, dispatcher, auth, _, endpoint = harness
        token = subscriber_token(auth)
        name = endpoint("e")
        broker.register_consumer(token, name)
        broker.subscribe(token, name, SubscriptionPattern(sensor_id=1))
        assert broker.deregister_consumer(token, name) == 1
        assert dispatcher.subscription_count() == 0


class TestSubscribe:
    def test_subscribe_and_receive(self, harness):
        sim, _, broker, _, dispatcher, auth, inboxes, endpoint = harness
        token = subscriber_token(auth)
        name = endpoint("e")
        broker.register_consumer(token, name)
        broker.subscribe(
            token, name, SubscriptionPattern(stream_id=StreamId(4, 0))
        )
        dispatcher.on_arrival(
            StreamArrival(
                message=DataMessage(stream_id=StreamId(4, 0), sequence=0),
                received_at=0.0,
                receiver_id=0,
            )
        )
        sim.run()
        assert len(inboxes["e"]) == 1

    def test_subscribe_requires_registration(self, harness):
        _, _, broker, _, _, auth, _, endpoint = harness
        token = subscriber_token(auth)
        with pytest.raises(RegistrationError):
            broker.subscribe(
                token, endpoint("e"), SubscriptionPattern(sensor_id=1)
            )

    def test_subscribe_with_foreign_endpoint_rejected(self, harness):
        _, _, broker, _, _, auth, _, endpoint = harness
        alice, bob = subscriber_token(auth, "alice"), subscriber_token(auth, "bob")
        name = endpoint("alices")
        broker.register_consumer(alice, name)
        with pytest.raises(RegistrationError):
            broker.subscribe(bob, name, SubscriptionPattern(sensor_id=1))

    def test_bad_pattern_type_rejected(self, harness):
        _, _, broker, _, _, auth, _, endpoint = harness
        token = subscriber_token(auth)
        name = endpoint("e")
        broker.register_consumer(token, name)
        with pytest.raises(SubscriptionError):
            broker.subscribe(token, name, "water.*")

    def test_unsubscribe(self, harness):
        _, _, broker, _, dispatcher, auth, _, endpoint = harness
        token = subscriber_token(auth)
        name = endpoint("e")
        broker.register_consumer(token, name)
        sid = broker.subscribe(token, name, SubscriptionPattern(sensor_id=1))
        broker.unsubscribe(token, sid)
        assert dispatcher.subscription_count() == 0

    def test_unsubscribe_of_a_foreign_subscription_rejected(self, harness):
        _, _, broker, _, dispatcher, auth, _, endpoint = harness
        alice, bob = subscriber_token(auth, "alice"), subscriber_token(auth, "bob")
        name = endpoint("alices")
        broker.register_consumer(alice, name)
        broker.register_consumer(bob, endpoint("bobs"))
        sid = broker.subscribe(alice, name, SubscriptionPattern(sensor_id=1))
        with pytest.raises(RegistrationError, match="belongs to 'alice'"):
            broker.unsubscribe(bob, sid)
        with pytest.raises(SubscriptionError, match="unknown subscription"):
            broker.unsubscribe(bob, sid + 1)
        assert dispatcher.subscription_count() == 1


class TestAdvertiseDiscover:
    def test_advertise_requires_publish_permission(self, harness):
        _, _, broker, _, _, auth, _, _ = harness
        read_only = auth.issue("reader", Permission.SUBSCRIBE)
        with pytest.raises(AuthorizationError):
            broker.advertise(read_only, StreamId(1, 0), kind="x")

    def test_advertise_then_discover(self, harness):
        _, _, broker, _, _, auth, _, _ = harness
        token = subscriber_token(auth)
        broker.advertise(token, StreamId(1, 0), kind="water.level")
        broker.advertise(token, StreamId(2, 0), kind="air.temp")
        results = broker.discover(token, kind="water.*")
        assert [d.stream_id for d in results] == [StreamId(1, 0)]

    def test_advertise_records_publisher(self, harness):
        _, _, broker, registry, _, auth, _, _ = harness
        broker.advertise(
            subscriber_token(auth, "pub"), StreamId(1, 0), kind="x"
        )
        assert registry.get(StreamId(1, 0)).publisher == "pub"

    def test_watchers_notified_of_advertisements(self, harness):
        _, _, broker, _, _, auth, _, _ = harness
        token = subscriber_token(auth)
        notices = []
        broker.watch_advertisements(token, notices.append)
        broker.advertise(token, StreamId(3, 0), kind="new.stream")
        assert len(notices) == 1
        assert notices[0].kind == "new.stream"

    def test_auto_advertisement_from_dispatcher(self, harness):
        sim, _, broker, _, dispatcher, auth, _, _ = harness
        token = subscriber_token(auth)
        notices = []
        broker.watch_advertisements(token, notices.append)
        dispatcher.on_arrival(
            StreamArrival(
                message=DataMessage(stream_id=StreamId(8, 0), sequence=0),
                received_at=0.0,
                receiver_id=0,
            )
        )
        sim.run()
        assert len(notices) == 1
        assert notices[0].stream_id == StreamId(8, 0)


class TestRestrictedStreams:
    def test_route_guard_enforces_required_permission(self, harness):
        sim, _, broker, registry, dispatcher, auth, inboxes, endpoint = harness
        registry.advertise(
            StreamId(1, 0),
            kind="garnet.location",
            attributes={"required_permission": Permission.LOCATION},
        )
        plain = subscriber_token(auth, "plain")
        trusted = auth.issue("trusted", Permission.trusted_consumer())
        plain_ep, trusted_ep = endpoint("plain"), endpoint("trusted")
        broker.register_consumer(plain, plain_ep)
        broker.register_consumer(trusted, trusted_ep)
        broker.subscribe(
            plain, plain_ep, SubscriptionPattern(stream_id=StreamId(1, 0))
        )
        broker.subscribe(
            trusted, trusted_ep, SubscriptionPattern(stream_id=StreamId(1, 0))
        )
        dispatcher.on_arrival(
            StreamArrival(
                message=DataMessage(stream_id=StreamId(1, 0), sequence=0),
                received_at=0.0,
                receiver_id=0,
            )
        )
        sim.run()
        assert inboxes["plain"] == []
        assert len(inboxes["trusted"]) == 1
