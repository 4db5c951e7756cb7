"""GarnetSession: the consolidated consumer API and deprecation shims."""

import pytest

from repro.core.dispatching import SubscriptionPattern
from repro.core.control import StreamUpdateCommand
from repro.core.security import Permission
from repro.errors import (
    AuthorizationError,
    RegistrationError,
    SessionError,
    SubscriptionError,
)

from tests.conftest import make_stream_spec


class TestConnect:
    def test_connect_by_name(self, deployment):
        session = deployment.connect("app")
        assert session.name == "app"
        assert session.endpoint == "consumer.app"
        assert not session.closed
        assert deployment.session("app") is session

    def test_connect_by_token(self, deployment):
        token = deployment.issue_token("tokenized")
        session = deployment.connect(token=token)
        assert session.name == "tokenized"
        assert session.token is token

    def test_connect_needs_name_or_token(self, deployment):
        with pytest.raises(RegistrationError):
            deployment.connect()

    def test_duplicate_name_rejected(self, deployment):
        deployment.connect("app")
        with pytest.raises(RegistrationError):
            deployment.connect("app")

    def test_close_releases_name_and_inbox(self, deployment):
        session = deployment.connect("app")
        session.close()
        assert session.closed
        assert not deployment.network.has_inbox("consumer.app")
        # The name is reusable after close, and close is idempotent.
        session.close()
        deployment.connect("app")

    def test_rejected_token_leaves_no_inbox_behind(self, deployment):
        before = sorted(deployment.network.inbox_names())
        with pytest.raises(AuthorizationError):
            # No SUBSCRIBE: the broker refuses the registration after
            # the session has already opened its inbox.
            deployment.connect("app", permissions=Permission.PUBLISH)
        assert sorted(deployment.network.inbox_names()) == before
        deployment.connect("app")  # the name is not burnt

    def test_closed_session_operations_raise(self, deployment):
        session = deployment.connect("app")
        session.close()
        with pytest.raises(SessionError):
            session.discover()
        with pytest.raises(SessionError):
            session.subscribe(kind="x.*")
        with pytest.raises(SessionError):
            session.publish(0, b"p")


class TestSubscribeAndDeliver:
    def test_subscribe_by_kind_receives_data(self, deployment):
        node = deployment.add_sensor("generic", [make_stream_spec()])
        received = []
        session = deployment.connect("app")
        session.on_data(received.append)
        session.subscribe(kind="test.*")
        deployment.run(5.0)
        assert len(received) >= 4
        assert session.stats.deliveries == len(received)
        assert received[0].message.stream_id == node.stream_ids()[0]

    def test_subscribe_by_pattern_object(self, deployment):
        deployment.add_sensor("generic", [make_stream_spec()])
        received = []
        session = deployment.connect("app")
        session.on_data(received.append)
        session.subscribe(SubscriptionPattern(kind="test.*"))
        deployment.run(3.0)
        assert received

    def test_pattern_and_fields_are_exclusive(self, deployment):
        session = deployment.connect("app")
        with pytest.raises(SubscriptionError):
            session.subscribe(
                SubscriptionPattern(kind="a.*"), sensor_id=1
            )

    def test_unsubscribe_stops_delivery(self, deployment):
        deployment.add_sensor("generic", [make_stream_spec()])
        received = []
        session = deployment.connect("app")
        session.on_data(received.append)
        subscription = session.subscribe(kind="test.*")
        deployment.run(3.0)
        session.unsubscribe(subscription)
        seen = len(received)
        deployment.run(3.0)
        assert len(received) == seen
        assert session.subscription_ids == ()

    def test_a_session_cannot_remove_another_sessions_subscription(
        self, deployment
    ):
        deployment.add_sensor("generic", [make_stream_spec()])
        a, b = deployment.connect("a"), deployment.connect("b")
        received = []
        a.on_data(received.append)
        a_id = a.subscribe(kind="test.*")
        with pytest.raises(SubscriptionError, match="unknown subscription"):
            b.unsubscribe(a_id)
        # Nor through the broker with the dispatcher's id for it.
        with pytest.raises(RegistrationError, match="belongs to 'a'"):
            deployment.broker.unsubscribe(b.token, a.ledger.registered(a_id))
        assert deployment.dispatcher.subscription_count() == 1
        deployment.run(3.0)
        assert received  # a's route is still installed
        a.unsubscribe(a_id)
        assert deployment.dispatcher.subscription_count() == 0

    def test_subscription_ids_are_per_session(self, deployment):
        a, b = deployment.connect("a"), deployment.connect("b")
        assert [a.subscribe(kind="x"), a.subscribe(kind="y")] == [1, 2]
        assert b.subscribe(kind="x") == 1
        a.unsubscribe(1)
        assert a.subscribe(kind="z") == 3  # never reused
        assert a.subscription_ids == (2, 3)
        assert b.subscription_ids == (1,)

    def test_discover(self, deployment):
        deployment.add_sensor(
            "generic", [make_stream_spec(kind="water.level")]
        )
        session = deployment.connect("app")
        found = session.discover(kind="water.level")
        assert len(found) == 1


class TestControlAndPublish:
    def test_request_update_through_session(self, deployment):
        from repro.core.security import Permission

        node = deployment.add_sensor("generic", [make_stream_spec()])
        session = deployment.connect(
            "app", permissions=Permission.trusted_consumer()
        )
        decision = session.request_update(
            node.stream_ids()[0], StreamUpdateCommand.SET_RATE, 4.0
        )
        assert decision.approved
        deployment.run(5.0)
        assert deployment.actuation.stats.acknowledged >= 1

    def test_publish_creates_derived_stream(self, deployment):
        session = deployment.connect("producer")
        received = []
        other = deployment.connect("watcher")
        other.on_data(received.append)
        other.subscribe(kind="derived.*")
        stream_id = session.publish(0, b"\x01", kind="derived.avg")
        assert stream_id.is_derived
        assert session.publisher_id is not None
        deployment.run(1.0)
        assert len(received) == 1
        assert session.stats.published == 1

    def test_session_pattern_is_keyword_only(self):
        with pytest.raises(TypeError):
            SubscriptionPattern(None, 3)  # positional construction removed


class TestDeprecationShims:
    def test_subscribe_stream_shims_are_gone(self, deployment):
        """The deprecated ``subscribe_stream`` shims were removed; the
        session/pattern API is the one way to subscribe."""
        from repro.core.consumer import Consumer
        from repro.core.pubsub import Broker

        assert not hasattr(Broker, "subscribe_stream")
        assert not hasattr(Consumer, "subscribe_stream")

    def test_exact_stream_subscription_via_session(self, deployment):
        from tests.test_core_consumer import Recorder

        node = deployment.add_sensor("generic", [make_stream_spec()])
        consumer = Recorder()
        deployment.add_consumer(consumer)
        consumer.subscribe(stream_id=node.stream_ids()[0])
        deployment.run(3.0)
        assert consumer.seen

    def test_consumer_attached_runtime_is_session(self, deployment):
        from repro.core.session import GarnetSession
        from tests.test_core_consumer import Recorder

        consumer = Recorder()
        deployment.add_consumer(consumer)
        assert isinstance(consumer._session, GarnetSession)
        # remove_consumer closes the backing session.
        deployment.remove_consumer(consumer)
        assert consumer._session.closed
