"""The consumer framework: attachment, subscription, derived publishing."""

import pytest

from repro.core.consumer import Consumer
from repro.core.dispatching import SubscriptionPattern
from repro.core.operators import CollectingConsumer
from repro.core.streamid import VIRTUAL_SENSOR_FLOOR
from repro.errors import GarnetError, RegistrationError, SessionError

from tests.conftest import CODEC, make_stream_spec


class Recorder(Consumer):
    def __init__(self, name="rec"):
        super().__init__(name)
        self.started = False
        self.seen = []

    def on_start(self):
        self.started = True

    def on_data(self, arrival):
        self.seen.append(arrival)


class TestLifecycle:
    def test_name_required(self):
        with pytest.raises(RegistrationError):
            Consumer("")

    def test_operations_before_attach_raise(self):
        consumer = Recorder()
        with pytest.raises(GarnetError):
            consumer.subscribe(SubscriptionPattern(sensor_id=1))
        with pytest.raises(GarnetError):
            consumer.publish(0, b"x")
        with pytest.raises(GarnetError):
            consumer.report_state("s")

    def test_add_consumer_attaches_and_starts(self, deployment):
        consumer = Recorder()
        deployment.add_consumer(consumer)
        assert consumer.attached
        assert consumer.started
        assert consumer.endpoint == "consumer.rec"

    def test_double_add_rejected(self, deployment):
        consumer = Recorder()
        deployment.add_consumer(consumer)
        with pytest.raises(RegistrationError):
            deployment.add_consumer(Recorder())  # same name

    def test_double_attach_rejected(self, deployment):
        consumer = Recorder()
        deployment.add_consumer(consumer)
        with pytest.raises(RegistrationError):
            consumer._attach(object())

    def test_remove_consumer(self, deployment):
        consumer = Recorder()
        deployment.add_consumer(consumer)
        deployment.remove_consumer(consumer)
        with pytest.raises(RegistrationError):
            deployment.remove_consumer(consumer)


class TestDataDelivery:
    def test_subscription_receives_sensor_data(self, deployment):
        node = deployment.add_sensor("generic", [make_stream_spec()])
        consumer = Recorder()
        deployment.add_consumer(consumer)
        consumer.subscribe(stream_id=node.stream_ids()[0])
        deployment.run(5.0)
        assert len(consumer.seen) >= 4
        assert consumer.stats.received == len(consumer.seen)

    def test_unsubscribe_stops_delivery(self, deployment):
        node = deployment.add_sensor("generic", [make_stream_spec()])
        consumer = Recorder()
        deployment.add_consumer(consumer)
        sub = consumer.subscribe(stream_id=node.stream_ids()[0])
        deployment.run(3.0)
        consumer.unsubscribe(sub)
        seen_before = len(consumer.seen)
        deployment.run(3.0)
        assert len(consumer.seen) == seen_before

    def test_discover(self, deployment):
        deployment.add_sensor("generic", [make_stream_spec(kind="a.b")])
        consumer = Recorder()
        deployment.add_consumer(consumer)
        found = consumer.discover(kind="a.*")
        assert len(found) == 1


class TestDerivedPublishing:
    def test_publish_allocates_virtual_sensor_id(self, deployment):
        consumer = Recorder()
        deployment.add_consumer(consumer)
        assert consumer.publisher_id is None
        stream_id = consumer.publish(0, b"payload", kind="derived.k")
        assert consumer.publisher_id is not None
        assert consumer.publisher_id >= VIRTUAL_SENSOR_FLOOR
        assert stream_id.is_derived

    def test_publishers_get_distinct_ids(self, deployment):
        a, b = Recorder("a"), Recorder("b")
        deployment.add_consumer(a)
        deployment.add_consumer(b)
        assert a.publish(0, b"x").sensor_id != b.publish(0, b"x").sensor_id

    def test_published_stream_reaches_subscribers(self, deployment):
        publisher = Recorder("pub")
        sink = CollectingConsumer(
            "sink", SubscriptionPattern(kind="derived.k")
        )
        deployment.add_consumer(publisher)
        deployment.add_consumer(sink)
        for i in range(3):
            publisher.publish(0, bytes([i]), kind="derived.k")
        deployment.run(1.0)
        assert len(sink.arrivals) == 3
        sequences = [a.message.sequence for a in sink.arrivals]
        assert sequences == [0, 1, 2]

    def test_publish_advertises_kind_once(self, deployment):
        publisher = Recorder("pub")
        deployment.add_consumer(publisher)
        publisher.publish(0, b"x", kind="derived.k")
        publisher.publish(0, b"y", kind="derived.k")
        descriptor = deployment.registry.match(kind="derived.k")[0]
        assert descriptor.publisher == "pub"

    def test_multiple_derived_streams_per_consumer(self, deployment):
        publisher = Recorder("pub")
        deployment.add_consumer(publisher)
        first = publisher.publish(0, b"x", kind="k0")
        second = publisher.publish(1, b"y", kind="k1")
        assert first.sensor_id == second.sensor_id
        assert first.stream_index != second.stream_index

    def test_consumer_and_session_share_one_publisher_identity(
        self, deployment
    ):
        publisher = Recorder("pub")
        sink = CollectingConsumer(
            "sink", SubscriptionPattern(kind="derived.k")
        )
        deployment.add_consumer(publisher)
        deployment.add_consumer(sink)
        session = deployment.session("pub")
        first = publisher.publish(0, b"a", kind="derived.k")
        second = session.publish(0, b"b")
        third = publisher.publish(0, b"c")
        other_index = session.publish(1, b"d", kind="derived.k")
        deployment.run(1.0)
        # One publisher id, one per-index sequence, whoever publishes.
        assert first == second == third
        assert other_index.sensor_id == first.sensor_id
        assert publisher.publisher_id == session.publisher_id
        by_stream = {}
        for arrival in sink.arrivals:
            by_stream.setdefault(arrival.message.stream_id, []).append(
                (arrival.message.sequence, arrival.message.payload)
            )
        assert by_stream[first] == [(0, b"a"), (1, b"b"), (2, b"c")]
        assert by_stream[other_index] == [(0, b"d")]
        assert session.stats.published == 4
        assert publisher.stats.published == 2

    def test_publish_after_remove_consumer_raises(self, deployment):
        publisher = Recorder("pub")
        deployment.add_consumer(publisher)
        publisher.publish(0, b"x", kind="derived.k")
        deployment.remove_consumer(publisher)
        with pytest.raises(SessionError):
            publisher.publish(0, b"y")

    def test_multi_level_chain(self, deployment):
        """Level-2 consumer sees only what level-1 republished."""

        class Doubler(Consumer):
            def __init__(self):
                super().__init__("doubler")

            def on_start(self):
                self.subscribe(SubscriptionPattern(kind="test.stream"))

            def on_data(self, arrival):
                self.publish(
                    0, arrival.message.payload * 2, kind="doubled"
                )

        deployment.add_sensor("generic", [make_stream_spec()])
        doubler = Doubler()
        sink = CollectingConsumer("sink", SubscriptionPattern(kind="doubled"))
        deployment.add_consumer(doubler)
        deployment.add_consumer(sink)
        deployment.run(4.0)
        assert len(sink.arrivals) >= 3
        original = doubler.stats.received
        assert doubler.stats.published == original
        first = sink.arrivals[0].message
        assert len(first.payload) == 2 * CODEC.payload_size(16)


class TestStateAndHints:
    def test_report_state_reaches_coordinator(self, deployment):
        consumer = Recorder()
        deployment.add_consumer(consumer)
        consumer.report_state("busy", {"load": 0.9})
        deployment.run(0.1)
        assert deployment.coordinator.consumer_state("rec") == "busy"

    def test_supply_hint_reaches_location_service(self, deployment):
        consumer = Recorder()
        deployment.add_consumer(consumer)
        consumer.supply_hint(3, 10.0, 20.0, 5.0)
        deployment.run(0.1)
        assert deployment.location.hints_received == 1
        estimate = deployment.location.try_estimate(3)
        assert estimate is not None
        assert estimate.position.x == 10.0
