"""The Dispatching Service: routing, orphaning, guards, cache hygiene."""

import pytest

from repro.core.dispatching import (
    DispatchingService,
    ORPHANAGE_INBOX,
    SubscriptionPattern,
)
from repro.core.envelopes import StreamArrival
from repro.core.message import DataMessage
from repro.core.streamid import StreamId, VIRTUAL_SENSOR_FLOOR
from repro.core.streams import StreamRegistry
from repro.errors import SubscriptionError


@pytest.fixture
def harness(sim, network):
    registry = StreamRegistry()
    service = DispatchingService(network, registry)
    orphaned = []
    network.register_inbox(ORPHANAGE_INBOX, orphaned.append)
    inboxes = {}

    def endpoint(name):
        inboxes[name] = []
        network.register_inbox(name, inboxes[name].append)
        return name

    return sim, network, service, registry, orphaned, inboxes, endpoint


def arrival(stream: StreamId, sequence: int = 0) -> StreamArrival:
    return StreamArrival(
        message=DataMessage(stream_id=stream, sequence=sequence),
        received_at=1.0,
        receiver_id=0,
    )


class TestExactSubscriptions:
    def test_delivery_to_exact_subscriber(self, harness):
        sim, _, service, _, _, inboxes, endpoint = harness
        service.add_subscription(
            endpoint("a"), SubscriptionPattern(stream_id=StreamId(1, 0))
        )
        service.on_arrival(arrival(StreamId(1, 0)))
        sim.run()
        assert len(inboxes["a"]) == 1

    def test_fan_out_to_multiple_subscribers(self, harness):
        sim, _, service, _, _, inboxes, endpoint = harness
        for name in ("a", "b", "c"):
            service.add_subscription(
                endpoint(name),
                SubscriptionPattern(stream_id=StreamId(1, 0)),
            )
        service.on_arrival(arrival(StreamId(1, 0)))
        sim.run()
        assert all(len(inboxes[n]) == 1 for n in ("a", "b", "c"))
        assert service.stats.deliveries == 3

    def test_non_matching_stream_not_delivered(self, harness):
        sim, _, service, _, orphaned, inboxes, endpoint = harness
        service.add_subscription(
            endpoint("a"), SubscriptionPattern(stream_id=StreamId(1, 0))
        )
        service.on_arrival(arrival(StreamId(2, 0)))
        sim.run()
        assert inboxes["a"] == []
        assert len(orphaned) == 1

    def test_endpoint_must_have_inbox(self, harness):
        _, _, service, _, _, _, _ = harness
        with pytest.raises(SubscriptionError):
            service.add_subscription(
                "ghost", SubscriptionPattern(stream_id=StreamId(1, 0))
            )

    def test_delivered_at_is_stamped(self, harness):
        sim, _, service, _, _, inboxes, endpoint = harness
        service.add_subscription(
            endpoint("a"), SubscriptionPattern(stream_id=StreamId(1, 0))
        )
        service.on_arrival(arrival(StreamId(1, 0)))
        sim.run()
        assert inboxes["a"][0].delivered_at >= inboxes["a"][0].received_at - 1.0


class TestPatternSubscriptions:
    def test_sensor_wildcard(self, harness):
        sim, _, service, _, _, inboxes, endpoint = harness
        service.add_subscription(
            endpoint("a"), SubscriptionPattern(sensor_id=5)
        )
        service.on_arrival(arrival(StreamId(5, 0)))
        service.on_arrival(arrival(StreamId(5, 3)))
        service.on_arrival(arrival(StreamId(6, 0)))
        sim.run()
        assert len(inboxes["a"]) == 2

    def test_kind_pattern_with_wildcard(self, harness):
        sim, _, service, registry, _, inboxes, endpoint = harness
        registry.advertise(StreamId(1, 0), kind="water.level")
        registry.advertise(StreamId(2, 0), kind="air.temp")
        service.add_subscription(
            endpoint("a"), SubscriptionPattern(kind="water.*")
        )
        service.on_arrival(arrival(StreamId(1, 0)))
        service.on_arrival(arrival(StreamId(2, 0)))
        sim.run()
        assert len(inboxes["a"]) == 1

    def test_derived_filter(self, harness):
        sim, _, service, _, _, inboxes, endpoint = harness
        service.add_subscription(
            endpoint("a"), SubscriptionPattern(derived=True)
        )
        service.on_arrival(arrival(StreamId(VIRTUAL_SENSOR_FLOOR, 0)))
        service.on_arrival(arrival(StreamId(1, 0)))
        sim.run()
        assert len(inboxes["a"]) == 1

    def test_match_all(self, harness):
        sim, _, service, _, _, inboxes, endpoint = harness
        service.add_subscription(
            endpoint("a"), SubscriptionPattern.match_all()
        )
        service.on_arrival(arrival(StreamId(1, 0)))
        service.on_arrival(arrival(StreamId(VIRTUAL_SENSOR_FLOOR, 9)))
        sim.run()
        assert len(inboxes["a"]) == 2

    def test_empty_pattern_rejected(self):
        with pytest.raises(SubscriptionError):
            SubscriptionPattern()

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": 5},
            {"kind": ["temp"]},
            {"derived": 1},
            {"sensor_id": "7"},
            {"sensor_id": True},
            {"sensor_id": [1]},
            {"stream_index": 1.0},
            {"stream_id": 5},
            {"stream_id": (1,)},
            {"stream_id": ("1", 0)},
        ],
    )
    def test_mistyped_pattern_rejected(self, fields):
        # The dispatcher keys tables on these fields and calls str
        # methods on kind: a pattern it could not bucket must not exist.
        with pytest.raises(SubscriptionError):
            SubscriptionPattern(**fields)

    def test_unbucketable_pattern_installs_nothing(self, harness):
        # The bucket is chosen before anything is recorded, so even a
        # pattern smuggled past __post_init__ is all-or-nothing.
        _, _, service, _, _, _, endpoint = harness
        name = endpoint("a")
        service.add_subscription(name, SubscriptionPattern(kind="temp.*"))
        smuggled = object.__new__(SubscriptionPattern)
        for field in ("stream_id", "sensor_id", "stream_index", "derived"):
            object.__setattr__(smuggled, field, None)
        object.__setattr__(smuggled, "kind", 5)
        with pytest.raises(AttributeError):
            service.add_subscription(name, smuggled)
        assert service.subscription_count() == 1
        assert service.remove_endpoint(name) == 1
        assert service.subscription_count() == 0
        assert service._by_endpoint == {} and service._by_kind == {}

    def test_removal_leaves_no_empty_bucket(self, harness):
        _, _, service, _, _, _, endpoint = harness
        name = endpoint("a")
        ids = [
            service.add_subscription(name, pattern)
            for pattern in (
                SubscriptionPattern(stream_id=StreamId(1, 0)),
                SubscriptionPattern(sensor_id=2),
                SubscriptionPattern(kind="temp"),
                SubscriptionPattern(kind="temp.*"),
                SubscriptionPattern.match_all(),
            )
        ]
        for subscription_id in ids:
            service.remove_subscription(subscription_id)
        assert service._exact == {}
        assert service._by_sensor == {} and service._by_kind == {}

    def test_pattern_added_after_stream_seen_invalidates_cache(self, harness):
        sim, _, service, _, _, inboxes, endpoint = harness
        service.on_arrival(arrival(StreamId(3, 0)))  # route cached: orphan
        sim.run()
        service.add_subscription(
            endpoint("late"), SubscriptionPattern(sensor_id=3)
        )
        service.on_arrival(arrival(StreamId(3, 0), sequence=1))
        sim.run()
        assert len(inboxes["late"]) == 1

    def test_metadata_change_requires_invalidate(self, harness):
        sim, _, service, registry, _, inboxes, endpoint = harness
        service.add_subscription(
            endpoint("a"), SubscriptionPattern(kind="water.*")
        )
        service.on_arrival(arrival(StreamId(1, 0)))  # kind unknown: orphan
        sim.run()
        registry.advertise(StreamId(1, 0), kind="water.level")
        service.invalidate_routes(StreamId(1, 0))
        service.on_arrival(arrival(StreamId(1, 0), sequence=1))
        sim.run()
        assert len(inboxes["a"]) == 1


class TestOrphaning:
    def test_unclaimed_goes_to_orphanage(self, harness):
        sim, _, service, _, orphaned, _, _ = harness
        service.on_arrival(arrival(StreamId(9, 9)))
        sim.run()
        assert len(orphaned) == 1
        assert service.stats.orphaned == 1

    def test_unsubscribe_reroutes_to_orphanage(self, harness):
        sim, _, service, _, orphaned, inboxes, endpoint = harness
        sid = service.add_subscription(
            endpoint("a"), SubscriptionPattern(stream_id=StreamId(1, 0))
        )
        service.on_arrival(arrival(StreamId(1, 0)))
        service.remove_subscription(sid)
        service.on_arrival(arrival(StreamId(1, 0), sequence=1))
        sim.run()
        assert len(inboxes["a"]) == 1
        assert len(orphaned) == 1

    def test_remove_unknown_subscription(self, harness):
        _, _, service, _, _, _, _ = harness
        with pytest.raises(SubscriptionError):
            service.remove_subscription(404)

    def test_remove_endpoint_drops_all(self, harness):
        sim, _, service, _, _, _, endpoint = harness
        name = endpoint("multi")
        service.add_subscription(
            name, SubscriptionPattern(stream_id=StreamId(1, 0))
        )
        service.add_subscription(name, SubscriptionPattern(sensor_id=2))
        assert service.remove_endpoint(name) == 2
        assert service.subscription_count() == 0


class TestRouteGuard:
    def test_guard_blocks_unpermitted_endpoint(self, harness):
        sim, _, service, registry, orphaned, inboxes, endpoint = harness
        registry.advertise(
            StreamId(1, 0), attributes={"required_permission": "secret"}
        )
        service.add_subscription(
            endpoint("a"), SubscriptionPattern(stream_id=StreamId(1, 0))
        )
        service.install(
            route_guard=lambda ep, desc: (
                "required_permission" not in desc.attributes
            )
        )
        service.on_arrival(arrival(StreamId(1, 0)))
        sim.run()
        assert inboxes["a"] == []
        assert len(orphaned) == 1

    def test_guard_change_clears_cache(self, harness):
        sim, _, service, _, _, inboxes, endpoint = harness
        service.add_subscription(
            endpoint("a"), SubscriptionPattern(stream_id=StreamId(1, 0))
        )
        service.install(route_guard=lambda ep, desc: False)
        service.on_arrival(arrival(StreamId(1, 0)))
        service.install(route_guard=lambda ep, desc: True)
        service.on_arrival(arrival(StreamId(1, 0), sequence=1))
        sim.run()
        assert len(inboxes["a"]) == 1
