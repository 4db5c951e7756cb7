"""Multiprocess cluster execution (`repro.cluster.mp`).

The contract under test is the one `run_multiprocess` documents:
identical *delivery sets* — every consumer receives exactly the same
messages, from the same receivers, with the same arrival timestamps —
as single-process ``deployment.run()`` on the same seed. The event
interleaving (and hence kernel sequence numbers) may differ, so the
comparison is over sorted delivery records, not a digest of the run.

The builder raises ``message_latency`` well above the default: the bus
latency is the conservative lookahead between processes, and the epoch
count scales with ``duration / (latency / 2)``.
"""

from __future__ import annotations

import pytest

from repro.cluster.mp import run_multiprocess
from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.operators import CollectingConsumer
from repro.core.resource import StreamConfig
from repro.errors import ConfigurationError
from repro.sensors.node import SensorStreamSpec
from repro.sensors.sampling import ConstantSampler, SampleCodec
from repro.simnet.geometry import Point, Rect
from repro.simnet.wireless import LossModel

SEED = 77
DURATION = 6.0
SENSORS = 12
CONSUMERS = 2
LATENCY = 0.05
CODEC = SampleCodec(0.0, 100.0)


def build_cluster_deployment(
    seed: int = SEED,
    *,
    brokers: int = 4,
    cluster: bool = True,
    store: bool = False,
    latency: float = LATENCY,
) -> tuple[Garnet, list[CollectingConsumer]]:
    area = Rect(0.0, 0.0, 900.0, 900.0)
    config = GarnetConfig(
        area=area,
        receiver_rows=3,
        receiver_cols=3,
        receiver_overlap=1.5,
        loss_model=LossModel(),
        publish_location_stream=False,
        message_latency=latency,
        cluster_enabled=cluster,
        cluster_brokers=brokers,
        store_enabled=store,
    )
    deployment = Garnet(config=config, seed=seed)
    deployment.define_sensor_type("g", {})
    rng = deployment.sim.fork_rng()
    for _ in range(SENSORS):
        spec = SensorStreamSpec(
            0,
            ConstantSampler(42.0),
            CODEC,
            config=StreamConfig(rate=2.0),
            kind="scale",
        )
        position = Point(
            rng.uniform(0.0, area.x_max), rng.uniform(0.0, area.y_max)
        )
        deployment.add_sensor("g", [spec], mobility=position)
    consumers = []
    for index in range(CONSUMERS):
        consumer = CollectingConsumer(
            f"c{index}", SubscriptionPattern(kind="scale")
        )
        deployment.add_consumer(consumer)
        consumers.append(consumer)
    return deployment, consumers


def delivery_records(
    consumers: list[CollectingConsumer],
) -> list[tuple]:
    records = []
    for consumer in consumers:
        for arrival in consumer.arrivals:
            message = arrival.message
            records.append(
                (
                    consumer.name,
                    message.stream_id.pack(),
                    message.sequence,
                    message.payload,
                    arrival.receiver_id,
                    arrival.received_at,
                )
            )
    records.sort()
    return records


def single_process_records() -> list[tuple]:
    deployment, consumers = build_cluster_deployment()
    deployment.run(DURATION)
    return delivery_records(consumers)


class TestDeliveryEquivalence:
    def test_one_worker_matches_single_process(self):
        baseline = single_process_records()
        deployment, consumers = build_cluster_deployment()
        report = run_multiprocess(deployment, DURATION, workers=1)
        assert delivery_records(consumers) == baseline
        assert baseline  # the scenario actually delivers data
        assert report["workers"] == 1
        assert report["frames_to_workers"] > 0

    def test_three_workers_match_single_process(self):
        baseline = single_process_records()
        deployment, consumers = build_cluster_deployment()
        report = run_multiprocess(deployment, DURATION, workers=3)
        assert delivery_records(consumers) == baseline
        assert report["workers"] == 3
        # Round-robin partition: every movable node is owned exactly once.
        owned = [
            name
            for names in report["assignment"].values()
            for name in names
        ]
        assert sorted(owned) == sorted(list(deployment.cluster.nodes)[1:])

    def test_multiprocess_runs_are_deterministic(self):
        first = None
        for _ in range(2):
            deployment, consumers = build_cluster_deployment()
            run_multiprocess(deployment, DURATION, workers=2)
            records = delivery_records(consumers)
            if first is None:
                first = records
            else:
                assert records == first

    def test_clock_lands_on_end_time(self):
        deployment, _ = build_cluster_deployment()
        run_multiprocess(deployment, DURATION, workers=1)
        assert deployment.sim.now == pytest.approx(DURATION)

    def test_worker_reports_account_for_remote_events(self):
        deployment, _ = build_cluster_deployment()
        report = run_multiprocess(deployment, DURATION, workers=2)
        assert len(report["worker_reports"]) == 2
        for worker in report["worker_reports"]:
            assert worker["events_processed"] > 0


class TestValidation:
    def test_requires_cluster(self):
        deployment, _ = build_cluster_deployment(cluster=False)
        with pytest.raises(ConfigurationError, match="cluster_enabled"):
            run_multiprocess(deployment, 1.0, workers=1)

    def test_requires_positive_latency(self):
        deployment, _ = build_cluster_deployment(latency=0.0)
        with pytest.raises(ConfigurationError, match="lookahead"):
            run_multiprocess(deployment, 1.0, workers=1)

    def test_rejects_store(self):
        deployment, _ = build_cluster_deployment(store=True)
        with pytest.raises(ConfigurationError, match="store_enabled"):
            run_multiprocess(deployment, 1.0, workers=1)

    def test_rejects_too_many_workers(self):
        deployment, _ = build_cluster_deployment(brokers=3)
        with pytest.raises(ConfigurationError, match="exceeds movable"):
            run_multiprocess(deployment, 1.0, workers=5)

    def test_rejects_zero_workers(self):
        deployment, _ = build_cluster_deployment()
        with pytest.raises(ConfigurationError, match="at least 1"):
            run_multiprocess(deployment, 1.0, workers=0)

    def test_rejects_negative_duration(self):
        deployment, _ = build_cluster_deployment()
        with pytest.raises(ConfigurationError, match="non-negative"):
            run_multiprocess(deployment, -1.0, workers=1)
