"""Slow-consumer quarantine, replay on recovery, and lease interplay."""

import pytest

from repro.core.envelopes import StreamArrival
from repro.core.message import DataMessage
from repro.core.middleware import Garnet
from repro.core.streamid import StreamId
from repro.errors import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.qos import DeliveryManager, quarantine
from repro.simnet.fixednet import FixedNetwork
from repro.simnet.kernel import Simulator

from tests.conftest import lossless_config


def arrival(sequence: int, at: float = 0.0):
    return StreamArrival(
        message=DataMessage(stream_id=StreamId(1, 0), sequence=sequence),
        received_at=at,
        receiver_id=-1,
    )


def sequences(arrivals):
    return [a.message.sequence for a in arrivals]


class TestDeliveryManager:
    def make(self, capacity=3, window=2.0):
        sim = Simulator(seed=1)
        network = FixedNetwork(sim, message_latency=0.0)
        manager = DeliveryManager(
            network,
            queue_capacity=capacity,
            quarantine_after=window,
            metrics=MetricsRegistry(clock=lambda: sim.now),
        )
        return sim, network, manager

    def test_healthy_endpoint_is_forwarded_directly(self):
        sim, network, manager = self.make()
        received = []
        network.register_inbox("consumer.fast", received.append)
        manager.deliver("consumer.fast", arrival(0))
        sim.run()
        assert sequences(received) == [0]
        assert manager.stats.forwarded == 1
        assert manager.backlog_size("consumer.fast") == 0

    def test_stalled_endpoint_queues_instead_of_sending(self):
        sim, network, manager = self.make()
        received = []
        network.register_inbox("consumer.slow", received.append)
        manager.stall("consumer.slow")
        manager.deliver("consumer.slow", arrival(0))
        sim.run()
        assert received == []
        assert manager.is_stalled("consumer.slow")
        assert manager.backlog_size("consumer.slow") == 1

    def test_saturated_window_quarantines(self):
        sim, network, manager = self.make(capacity=2, window=2.0)
        manager.stall("consumer.slow")
        manager.deliver("consumer.slow", arrival(0))
        manager.deliver("consumer.slow", arrival(1))  # saturated now
        assert not manager.is_quarantined("consumer.slow")
        sim.run(3.0)
        assert manager.is_quarantined("consumer.slow")
        assert manager.quarantined_endpoints() == ["consumer.slow"]
        assert manager.stats.quarantines == 1
        registry = manager.stats.registry
        assert registry.value("qos.delivery.quarantined_active") == 1.0

    def test_quarantined_deliveries_park_in_order(self):
        sim, network, manager = self.make(capacity=2, window=1.0)
        manager.stall("consumer.slow")
        manager.deliver("consumer.slow", arrival(0))
        manager.deliver("consumer.slow", arrival(1))
        sim.run(2.0)
        manager.deliver("consumer.slow", arrival(2))
        assert manager.stats.parked >= 1
        assert manager.backlog_size("consumer.slow") == 3

    def test_resume_replays_backlog_in_arrival_order(self):
        sim, network, manager = self.make(capacity=2, window=1.0)
        received = []
        network.register_inbox("consumer.slow", received.append)
        manager.stall("consumer.slow")
        for seq in range(2):
            manager.deliver("consumer.slow", arrival(seq))
        sim.run(2.0)  # quarantined
        manager.deliver("consumer.slow", arrival(2))
        count = manager.resume("consumer.slow")
        sim.run()
        assert count == 3
        assert sequences(received) == [0, 1, 2]
        assert manager.stats.replayed == 3
        assert not manager.is_quarantined("consumer.slow")
        assert manager.stats.registry.value(
            "qos.delivery.quarantined_active"
        ) == 0.0
        # Post-resume deliveries are direct again.
        manager.deliver("consumer.slow", arrival(3))
        sim.run()
        assert sequences(received) == [0, 1, 2, 3]

    def test_parked_backlog_is_bounded(self, monkeypatch):
        monkeypatch.setattr(quarantine, "PARKED_CAPACITY", 2)
        sim, network, manager = self.make(capacity=1, window=0.5)
        manager.stall("consumer.slow")
        manager.deliver("consumer.slow", arrival(0))
        sim.run(1.0)
        for seq in range(1, 5):
            manager.deliver("consumer.slow", arrival(seq))
        assert manager.backlog_size("consumer.slow") == 2
        assert manager.stats.parked_evicted >= 1

    def test_release_drops_everything(self):
        sim, network, manager = self.make(capacity=2, window=1.0)
        manager.stall("consumer.slow")
        for seq in range(2):
            manager.deliver("consumer.slow", arrival(seq))
        sim.run(2.0)
        dropped = manager.release("consumer.slow")
        assert dropped == 2
        assert manager.stats.released == 2
        assert not manager.is_quarantined("consumer.slow")
        assert manager.backlog_size("consumer.slow") == 0

    def test_resume_without_state_is_noop(self):
        _, _, manager = self.make()
        assert manager.resume("consumer.unknown") == 0
        assert manager.release("consumer.unknown") == 0

    def test_validation(self):
        sim = Simulator(seed=1)
        network = FixedNetwork(sim, message_latency=0.0)
        with pytest.raises(ConfigurationError):
            DeliveryManager(network, queue_capacity=0, quarantine_after=1.0)
        with pytest.raises(ConfigurationError):
            DeliveryManager(network, queue_capacity=1, quarantine_after=0.0)


def qos_deployment(seed=7, **overrides) -> Garnet:
    return Garnet(
        config=lossless_config(
            qos_consumer_queue=3,
            qos_quarantine_after=2.0,
            broker_lease_ttl=8.0,
            session_heartbeat_period=2.0,
            **overrides,
        ),
        seed=seed,
    )


def pump(deployment, publisher, count, kind="qos.data", start_seq=0):
    """Publish ``count`` messages spaced 0.1 sim-seconds apart."""
    for offset in range(count):
        deployment.sim.schedule(
            0.1 * (offset + 1),
            publisher.publish,
            0,
            bytes([start_seq + offset & 0xFF]),
            kind,
        )


class TestQuarantineWithLeases:
    def test_heartbeating_quarantined_session_is_never_reaped(self):
        deployment = qos_deployment()
        publisher = deployment.connect("source")
        slow = deployment.connect("slow", heartbeat_period=2.0)
        slow.subscribe(kind="qos.*")
        delivery = deployment.qos.delivery
        delivery.stall(slow.endpoint)
        pump(deployment, publisher, 6)
        deployment.run(10.0)
        # Saturated past the window: quarantined...
        assert slow.quarantined
        assert delivery.is_quarantined(slow.endpoint)
        # ...but the session heartbeats, so the lease stays alive: the
        # broker never reaps it and its subscriptions survive.
        deployment.run(20.0)
        assert deployment.broker.reap_expired_leases() == 0
        assert slow.stats.recoveries == 0
        assert slow.quarantined
        assert deployment.broker.heartbeat(slow.token, slow.endpoint)

    def test_recovered_session_gets_orphan_style_replay(self):
        deployment = qos_deployment()
        publisher = deployment.connect("source")
        slow = deployment.connect("slow", heartbeat_period=2.0)
        received = []
        slow.on_data(received.append)
        slow.subscribe(kind="qos.*")
        delivery = deployment.qos.delivery
        delivery.stall(slow.endpoint)
        # Three messages saturate the queue (capacity 3); once the
        # quarantine window lapses, two more arrive and are parked.
        pump(deployment, publisher, 3)
        deployment.run(4.0)
        assert slow.quarantined
        pump(deployment, publisher, 2, start_seq=3)
        deployment.run(4.0)
        assert received == []
        parked = delivery.backlog_size(slow.endpoint)
        assert parked == 5
        replayed = delivery.resume(slow.endpoint)
        deployment.run(1.0)
        assert replayed == 5
        assert len(received) == 5
        # Replay preserved publication order.
        payloads = [a.message.payload[0] for a in received]
        assert payloads == sorted(payloads)
        assert not slow.quarantined

    def test_reaped_session_parked_backlog_is_released(self):
        deployment = qos_deployment()
        publisher = deployment.connect("source")
        # No heartbeats: this consumer will lose its lease.
        dead = deployment.connect("dead", heartbeat_period=None)
        dead.subscribe(kind="qos.*")
        delivery = deployment.qos.delivery
        delivery.stall(dead.endpoint)
        pump(deployment, publisher, 3)
        deployment.run(4.0)
        pump(deployment, publisher, 2, start_seq=3)
        deployment.run(2.0)
        assert delivery.backlog_size(dead.endpoint) == 5
        # Lease (TTL 8.0) lapses; the reap (triggered lazily by the
        # publisher's own heartbeats) funnels through
        # dispatcher.remove_endpoint which releases the parked state.
        deployment.run(4.0)
        deployment.broker.reap_expired_leases()
        assert deployment.broker.stats.leases_expired >= 1
        assert delivery.backlog_size(dead.endpoint) == 0
        assert delivery.stats.released == 5
        assert not delivery.is_quarantined(dead.endpoint)

    def test_closing_session_releases_backlog(self):
        deployment = qos_deployment()
        publisher = deployment.connect("source")
        slow = deployment.connect("slow")
        slow.subscribe(kind="qos.*")
        delivery = deployment.qos.delivery
        delivery.stall(slow.endpoint)
        pump(deployment, publisher, 3)
        deployment.run(5.0)
        assert delivery.backlog_size(slow.endpoint) == 3
        slow.close()
        assert delivery.backlog_size(slow.endpoint) == 0
        assert delivery.stats.released == 3

    def test_quarantined_property_false_without_qos(self):
        deployment = Garnet(config=lossless_config(), seed=7)
        session = deployment.connect("plain")
        assert not session.quarantined
