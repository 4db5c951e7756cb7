"""The location data stream: estimates as a restricted derived stream."""

import pytest

from repro.core.dispatching import SubscriptionPattern
from repro.core.location import (
    LOCATION_STREAM_KIND,
    LocationEstimate,
    LocationPublisher,
)
from repro.core.operators import CollectingConsumer
from repro.core.security import Permission

from tests.conftest import lossless_config, make_stream_spec
from repro.core.middleware import Garnet


@pytest.fixture
def deployment():
    # The publisher's default period: one estimate every 10 s.
    garnet = Garnet(config=lossless_config(), seed=7)
    garnet.define_sensor_type("generic", {})
    return garnet


class TestLocationPublisher:
    def test_publisher_created_by_default(self, deployment):
        assert deployment.location_publisher is not None
        descriptor = deployment.registry.get(
            deployment.location_publisher.stream_id
        )
        assert descriptor.kind == LOCATION_STREAM_KIND
        assert descriptor.attributes["required_permission"] == (
            Permission.LOCATION
        )

    def test_can_be_disabled(self):
        garnet = Garnet(
            config=lossless_config(publish_location_stream=False), seed=1
        )
        assert garnet.location_publisher is None

    def test_estimates_published_for_heard_sensors(self, deployment):
        deployment.add_sensor("generic", [make_stream_spec()])
        sink = CollectingConsumer(
            "locwatch", SubscriptionPattern(kind=LOCATION_STREAM_KIND)
        )
        deployment.add_consumer(
            sink, permissions=Permission.trusted_consumer()
        )
        deployment.run(60.0)
        assert deployment.location_publisher.published >= 5
        assert len(sink.arrivals) >= 5
        estimate = LocationEstimate.unpack(sink.arrivals[0].message.payload)
        assert estimate.sensor_id == deployment.sensors()[0].sensor_id
        # The estimate sits within the deployment area.
        area = deployment.config.area
        assert area.expanded(1.0).contains(estimate.position)

    def test_unprivileged_consumer_never_routed_location_data(
        self, deployment
    ):
        deployment.add_sensor("generic", [make_stream_spec()])
        snoop = CollectingConsumer(
            "snoop", SubscriptionPattern(kind=LOCATION_STREAM_KIND)
        )
        deployment.add_consumer(snoop)  # standard: no LOCATION permission
        deployment.run(30.0)
        assert len(snoop.arrivals) == 0
        assert deployment.location_publisher.published > 0

    def test_stop_halts_publication(self, deployment):
        deployment.add_sensor("generic", [make_stream_spec()])
        deployment.run(12.0)
        published = deployment.location_publisher.published
        assert published > 0
        deployment.location_publisher.stop()
        deployment.run(20.0)
        assert deployment.location_publisher.published == published

    def test_no_estimates_before_any_reception(self, deployment):
        deployment.run(20.0)  # no sensors at all
        assert deployment.location_publisher.published == 0

    def test_period_validation(self, deployment):
        with pytest.raises(ValueError):
            LocationPublisher(
                deployment.network,
                deployment.location,
                deployment.location_publisher.stream_id,
                period=0.0,
            )
