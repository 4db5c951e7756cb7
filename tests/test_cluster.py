"""Tests for repro.cluster: shard map, links, routing, handoff.

Covers the federation's core guarantees:

- deterministic, pin-overridable stream ownership (StreamShardMap);
- cross-broker forwarding: publish via any broker, subscribers anywhere;
- once-per-link interest aggregation (one RemoteDelivery per message per
  peer broker, however many remote consumers subscribe);
- ownership handoff with buffered replay: an owner crash mid-stream is
  invisible to consumers (no gap, no duplicate);
- the kill switch: ``cluster_enabled=False`` keeps every cluster API
  inert (the byte-identical half lives in test_perf_determinism.py).
"""

from __future__ import annotations

import pytest

from repro.cluster import StreamShardMap
from repro.core.config import GarnetConfig
from repro.core.middleware import Garnet
from repro.core.streamid import StreamId
from repro.errors import ConfigurationError
from repro.faults import (
    BrokerCrash,
    FaultPlan,
    TransmitterOutage,
    inject,
)
from repro.util.ids import SequenceWindow, Verdict


def clustered(
    brokers: int = 3, seed: int = 11, **overrides
) -> Garnet:
    config = GarnetConfig(
        cluster_enabled=True,
        cluster_brokers=brokers,
        cluster_failover_check_period=0.5,
        publish_location_stream=False,
        **overrides,
    )
    return Garnet(config=config, seed=seed)


# ----------------------------------------------------------------------
# StreamShardMap
# ----------------------------------------------------------------------
class TestStreamShardMap:
    def test_ownership_is_deterministic_across_instances(self):
        streams = [StreamId(i, i % 4) for i in range(200)]
        first = StreamShardMap(["a", "b", "c"])
        second = StreamShardMap(["a", "b", "c"])
        assert [first.owner(s) for s in streams] == [
            second.owner(s) for s in streams
        ]

    def test_every_broker_owns_a_share(self):
        shards = StreamShardMap(["a", "b", "c", "d"])
        streams = [StreamId(i, 0) for i in range(400)]
        counts = shards.assignments(streams)
        assert set(counts) == {"a", "b", "c", "d"}
        assert all(count > 0 for count in counts.values())

    def test_member_loss_moves_only_the_dead_brokers_streams(self):
        shards = StreamShardMap(["a", "b", "c"])
        streams = [StreamId(i, 0) for i in range(300)]
        full = {s: shards.owner(s) for s in streams}
        live = frozenset({"a", "c"})
        for stream, owner in full.items():
            moved_to = shards.owner(stream, live)
            if owner != "b":
                # Survivors keep exactly what they had.
                assert moved_to == owner
            else:
                assert moved_to in live

    def test_pin_overrides_ring_until_pinned_broker_dies(self):
        shards = StreamShardMap(["a", "b"])
        stream = StreamId(7, 0)
        shards.pin(stream, "b")
        assert shards.owner(stream) == "b"
        assert shards.owner(stream, frozenset({"a"})) == "a"
        shards.unpin(stream)
        assert shards.pinned(stream) is None

    def test_pin_to_unknown_broker_rejected(self):
        shards = StreamShardMap(["a"])
        with pytest.raises(ConfigurationError):
            shards.pin(StreamId(1, 0), "nope")

    def test_empty_or_duplicate_membership_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamShardMap([])
        with pytest.raises(ConfigurationError):
            StreamShardMap(["a", "a"])


class TestSequenceWindow:
    def test_duplicates_detected_within_window(self):
        window = SequenceWindow(4)
        assert window.add(1)
        assert not window.add(1)
        assert window.add(2)

    def test_positions_past_the_window_are_stale(self):
        window = SequenceWindow(2)
        window.add(1)
        window.add(2)
        window.add(3)  # 1 is now two positions behind: out of the window
        assert window.add(1) is Verdict.STALE
        assert window.add(3) is Verdict.DUPLICATE
        window = SequenceWindow(4)
        for sequence in range(10):
            window.add(sequence)
        assert not window.add(2)

    def test_repeat_inside_the_last_positions_is_rejected(self):
        # Regression: the window once bounded entries, not positions, so
        # the straggler 7 pushed 10 out although 10 is 3 behind 13.
        window = SequenceWindow(4)
        for sequence in (10, 7, 11, 12, 13):
            assert window.add(sequence)
        assert window.add(10) is Verdict.DUPLICATE

    def test_post_wrap_reuse_is_not_a_false_drop(self):
        # Sensors emit 16-bit wrapping sequences: after 65536 publishes
        # the raw values legitimately repeat. Even the largest window
        # reads a reuse as the next epoch, not as a repeat.
        window = SequenceWindow((1 << 15) - 1)
        total = (1 << 16) + 50
        accepted = sum(
            bool(window.add(raw % (1 << 16))) for raw in range(total)
        )
        assert accepted == total

    def test_duplicates_still_detected_across_the_wrap_boundary(self):
        window = SequenceWindow(8)
        for sequence in (65534, 65535, 0, 1):
            assert window.add(sequence)
        # A repeat from the current epoch and a late copy from the
        # previous one both land on already-seen unwrapped points.
        assert not window.add(0)
        assert not window.add(65535)
        # Fresh traffic keeps flowing.
        assert window.add(2)


# ----------------------------------------------------------------------
# Cross-broker routing
# ----------------------------------------------------------------------
class TestClusterRouting:
    def test_publish_via_any_broker_reaches_any_subscriber(self):
        deployment = clustered()
        publisher = deployment.connect("pub", broker="b0")
        subscriber = deployment.connect("sub", broker="b2")
        got: list[int] = []
        subscriber.on_data(lambda a: got.append(a.message.sequence))
        subscriber.subscribe(kind="temp*")
        deployment.run(0.5)
        for index in range(5):
            publisher.publish(0, bytes([index]), kind="temp")
            deployment.run(0.3)
        assert got == [0, 1, 2, 3, 4]

    def test_once_per_link_regardless_of_remote_fan_out(self):
        deployment = clustered()
        publisher = deployment.connect("pub", broker="b0")
        sinks = []
        for index in range(3):
            session = deployment.connect(f"s{index}", broker="b2")
            seen: list[int] = []
            session.on_data(lambda a, seen=seen: seen.append(a.message.sequence))
            session.subscribe(kind="temp*")
            sinks.append(seen)
        deployment.run(0.5)
        stream = publisher.publish(0, b"w", kind="temp")
        deployment.run(0.5)
        # Pin ownership away from both endpoints' home brokers so every
        # message provably transits the b1 -> b2 link.
        deployment.cluster.shards.pin(stream, "b1")
        before = deployment.cluster.stats.forwards
        for index in range(1, 9):
            publisher.publish(0, bytes([index]), kind="temp")
            deployment.run(0.3)
        crossed = deployment.cluster.stats.forwards - before
        # 8 messages, 3 subscribers behind one link: 8 frames, not 24.
        assert crossed == 8
        for seen in sinks:
            assert seen == list(range(9))

    def test_no_remote_interest_means_no_link_traffic(self):
        deployment = clustered()
        publisher = deployment.connect("pub", broker="b0")
        deployment.run(0.2)
        stream = publisher.publish(0, b"x", kind="quiet")
        deployment.cluster.shards.pin(stream, "b0")
        for index in range(1, 5):
            publisher.publish(0, bytes([index]), kind="quiet")
        deployment.run(1.0)
        assert deployment.cluster.stats.forwards == 0

    def test_unsubscribe_withdraws_remote_interest(self):
        deployment = clustered()
        publisher = deployment.connect("pub", broker="b0")
        subscriber = deployment.connect("sub", broker="b2")
        subscription = subscriber.subscribe(kind="temp*")
        deployment.run(0.2)
        stream = publisher.publish(0, b"x", kind="temp")
        deployment.cluster.shards.pin(stream, "b1")
        publisher.publish(0, b"y", kind="temp")
        deployment.run(0.5)
        flowing = deployment.cluster.stats.forwards
        assert flowing >= 1
        subscriber.unsubscribe(subscription)
        deployment.run(0.5)
        publisher.publish(0, b"z", kind="temp")
        deployment.run(0.5)
        assert deployment.cluster.stats.forwards == flowing

    def test_unrouted_stream_orphans_at_owner_only(self):
        deployment = clustered()
        publisher = deployment.connect("pub", broker="b0")
        deployment.run(0.2)
        stream = publisher.publish(0, b"x", kind="lost")
        deployment.run(0.5)
        owner = deployment.cluster.owner(stream)
        holders = [
            node.name
            for node in deployment.cluster.nodes.values()
            if stream in node.orphanage.orphan_streams()
        ]
        assert holders == [owner]

    def test_claim_orphans_replays_every_retained_sequence_once(self):
        # A handoff can leave copies of one stream's backlog in several
        # nodes' Orphanages. subscribe(replay="orphans") merges them:
        # every retained sequence once, oldest first, and every copy
        # released. The stale copy of seq 0 is a duplicate.
        from repro.core.envelopes import StreamArrival
        from repro.core.message import DataMessage
        from repro.core.operators import CollectingConsumer

        deployment = clustered()
        publisher = deployment.connect("pub", broker="b0")
        deployment.run(0.2)
        for index in range(5):
            stream = publisher.publish(0, bytes([index]), kind="lost")
        deployment.run(0.5)
        owner = deployment.cluster.owner(stream)
        other = next(
            node
            for node in deployment.cluster.nodes.values()
            if node.name != owner
        )
        # A shallower, stale copy of the same stream on a second node.
        deployment.network.send(
            other.orphanage.inbox,
            StreamArrival(
                message=DataMessage(
                    stream_id=stream, sequence=0, payload=b"\x00"
                ),
                received_at=deployment.sim.now,
                receiver_id=-1,
            ),
        )
        deployment.run(0.1)
        late = CollectingConsumer("late")
        deployment.add_consumer(late)
        session = deployment.session("late")
        session.subscribe(kind="lost", replay="orphans")
        assert session.stats.orphans_replayed == 5
        deployment.run(0.1)
        assert [a.message.sequence for a in late.arrivals] == [0, 1, 2, 3, 4]
        assert all(
            stream not in orphanage.orphan_streams()
            for orphanage in deployment.orphanages()
        )

    def test_claim_orphans_keeps_sequences_only_a_handoff_copy_holds(self):
        # The owner b1 orphans 0-99 and crashes; its handoff buffer is
        # replayed to the new owner, whose Orphanage then also takes
        # 100-104. Each backlog holds sequences the other lacks.
        from repro.core.operators import CollectingConsumer

        deployment = clustered(seed=7)
        publisher = deployment.connect("pub", broker="b0")
        deployment.run(0.2)
        stream = StreamId(publisher.ensure_publisher_id(), 0)
        deployment.cluster.shards.pin(stream, "b1")
        for index in range(100):
            publisher.publish(0, bytes([index]), kind="lost")
        deployment.run(0.5)
        deployment.cluster.node("b1").crash()
        deployment.run(1.0)
        for index in range(100, 105):
            publisher.publish(0, bytes([index]), kind="lost")
        deployment.run(0.5)
        holders = [
            orphanage
            for orphanage in deployment.orphanages()
            if stream in orphanage.orphan_streams()
        ]
        assert len(holders) == 2
        late = CollectingConsumer("late")
        deployment.add_consumer(late)
        session = deployment.session("late")
        session.subscribe(kind="lost", replay="orphans")
        assert session.stats.orphans_replayed == 105
        deployment.run(0.1)
        assert [a.message.sequence for a in late.arrivals] == list(range(105))
        assert all(
            stream not in orphanage.orphan_streams()
            for orphanage in deployment.orphanages()
        )

    def test_session_home_broker_recorded(self):
        deployment = clustered()
        session = deployment.connect("pub", broker="b1")
        assert session.home_broker == "b1"
        assert session.broker is deployment.cluster.node("b1").broker

    def test_connect_broker_requires_cluster(self):
        deployment = Garnet(seed=3)
        with pytest.raises(ConfigurationError):
            deployment.connect("x", broker="b1")

    def test_unknown_broker_rejected(self):
        deployment = clustered()
        with pytest.raises(ConfigurationError):
            deployment.connect("x", broker="b9")

    def test_disabled_cluster_placeholder(self):
        deployment = Garnet(seed=3)
        assert not deployment.cluster.enabled
        with pytest.raises(ConfigurationError):
            deployment.cluster.node("b0")
        assert deployment.orphanages() == [deployment.orphanage]


# ----------------------------------------------------------------------
# Ownership handoff
# ----------------------------------------------------------------------
class TestHandoff:
    def _stream_through_crash(self, restart: bool) -> tuple[Garnet, list[int]]:
        deployment = clustered(seed=7)
        publisher = deployment.connect("pub", broker="b0")
        subscriber = deployment.connect("sub", broker="b2")
        got: list[int] = []
        subscriber.on_data(lambda a: got.append(a.message.sequence))
        subscriber.subscribe(kind="temp*")
        deployment.run(0.5)
        stream = publisher.publish(0, b"\x00", kind="temp")
        deployment.cluster.shards.pin(stream, "b1")
        for index in range(1, 5):
            publisher.publish(0, bytes([index]), kind="temp")
            deployment.run(0.3)
        deployment.cluster.node("b1").crash()
        for index in range(5, 10):
            publisher.publish(0, bytes([index]), kind="temp")
            deployment.run(0.7)
        if restart:
            deployment.cluster.node("b1").restart()
            deployment.run(1.5)
            for index in range(10, 13):
                publisher.publish(0, bytes([index]), kind="temp")
                deployment.run(0.7)
        return deployment, got

    def test_owner_crash_is_gap_free_and_duplicate_free(self):
        deployment, got = self._stream_through_crash(restart=False)
        assert got == list(range(10))
        stats = deployment.cluster.stats
        assert stats.handoffs >= 1
        assert stats.streams_reassigned >= 1
        assert stats.replayed >= 1
        # Replay overlapped live deliveries; dedupe absorbed the overlap.
        assert stats.dedupe_hits >= 1
        assert stats.reroutes >= 1

    def test_ownership_returns_after_restart(self):
        deployment, got = self._stream_through_crash(restart=True)
        assert got == list(range(13))
        # Restart is a membership change too: a second handoff round.
        assert deployment.cluster.stats.handoffs >= 2

    def test_backlog_evictions_are_counted(self):
        deployment = clustered()
        publisher = deployment.connect("pub", broker="b0")
        stream = publisher.publish(0, b"\x00", kind="temp")
        for index in range(1, 70):
            publisher.publish(0, bytes([index]), kind="temp")
        deployment.run(0.5)
        buffer = deployment.cluster.buffer
        assert buffer.retained(stream) == 64
        # Teed at home and again at the owner, yet each arrival counts
        # once: 70 arrivals through a 64-deep backlog push out 6.
        assert deployment.metrics().value("cluster.handoff_evicted") == 6
        assert "cluster.handoff_evicted" not in deployment.summary()

    def test_brokercrash_event_targets_named_node(self):
        deployment = clustered(seed=5)
        plan = FaultPlan(
            events=(BrokerCrash(at=1.0, duration=2.0, broker="b1"),)
        )
        inject(deployment, plan)
        deployment.run(1.5)
        assert not deployment.cluster.node("b1").up
        assert deployment.cluster.node("b0").up
        deployment.run(2.0)
        assert deployment.cluster.node("b1").up

    def test_brokercrash_named_broker_needs_cluster(self):
        deployment = Garnet(seed=5)
        plan = FaultPlan(
            events=(BrokerCrash(at=1.0, duration=2.0, broker="b1"),)
        )
        with pytest.raises(ConfigurationError):
            inject(deployment, plan)


# ----------------------------------------------------------------------
# Redundant fault actions (satellite: TransmitterOutage no-ops)
# ----------------------------------------------------------------------
class TestRedundantFaultActions:
    def test_overlapping_transmitter_outages_are_counted_noops(self):
        deployment = Garnet(seed=2)
        plan = FaultPlan(
            events=(
                TransmitterOutage(
                    at=1.0, duration=5.0, transmitter_ids=(0,)
                ),
                TransmitterOutage(
                    at=2.0, duration=5.0, transmitter_ids=(0,)
                ),
            )
        )
        inject(deployment, plan)
        deployment.run(10.0)
        snapshot = deployment.metrics_snapshot()
        # Second begin found it already dark; second end found it
        # already restored. Both are no-ops, neither is an error.
        assert snapshot["counters"]["faults.redundant"] == 2
        assert deployment.transmitters.transmitter(0).online

    def test_outage_on_detached_transmitter_is_counted_noop(self):
        deployment = Garnet(seed=2)
        plan = FaultPlan(
            events=(
                TransmitterOutage(
                    at=1.0, duration=2.0, transmitter_ids=(9999,)
                ),
            )
        )
        inject(deployment, plan)
        deployment.run(5.0)
        snapshot = deployment.metrics_snapshot()
        assert snapshot["counters"]["faults.redundant"] == 2


# ----------------------------------------------------------------------
# Unknown link frames (satellite: no silent drops on the link inbox)
# ----------------------------------------------------------------------
class TestUnknownLinkFrames:
    def test_unknown_frame_is_counted_not_silently_eaten(self):
        deployment = clustered()
        link = deployment.cluster.nodes["b1"].link
        assert "cluster.link.unknown_frames" not in deployment.summary()
        # Through the real inbox path, as a skewed peer would send it.
        deployment.network.send(link.inbox, {"type": "mystery"})
        deployment.network.send(link.inbox, object())
        deployment.run(0.5)
        assert link.unknown_frame_count == 2
        snapshot = deployment.metrics_snapshot()
        assert snapshot["counters"]["cluster.link.unknown_frames"] == 2
        assert deployment.summary()["cluster.link.unknown_frames"] == 2.0

    def test_known_frames_do_not_touch_the_counter(self):
        deployment = clustered()
        publisher = deployment.connect("pub", broker="b0")
        subscriber = deployment.connect("sub", broker="b2")
        subscriber.subscribe(kind="temp*")
        deployment.run(0.2)
        publisher.publish(0, b"x", kind="temp")
        deployment.run(0.5)
        assert deployment.cluster.unknown_frames.value == 0.0
        assert "cluster.link.unknown_frames" not in deployment.summary()

    def test_direct_construction_without_counter_still_counts(self):
        class NullNetwork:
            def register_inbox(self, inbox, handler):
                pass

        from repro.cluster.link import InterBrokerLink

        link = InterBrokerLink("solo", NullNetwork(), router=None)
        link.on_frame("not a frame")
        assert link.unknown_frame_count == 1


# ----------------------------------------------------------------------
# Sequence wraparound over the cluster path (satellite regression)
# ----------------------------------------------------------------------
class TestSequenceWrapOverCluster:
    def test_wrap_through_link_path_loses_nothing_to_dedupe(self):
        """A stream that crosses the 16-bit wrap mid-flight: every
        post-wrap message survives the peer-side sequence window.

        Regression: the window used to dedupe on raw sequence values, so
        a window reaching back past the wrap falsely dropped the first
        post-wrap reuse of each sequence as a duplicate.
        """
        from repro.cluster.link import RemoteDelivery
        from repro.core.envelopes import StreamArrival
        from repro.core.message import DataMessage

        deployment = clustered(brokers=2)
        publisher = deployment.connect("pub", broker="b0")
        subscriber = deployment.connect("sub", broker="b1")
        received: list[int] = []
        subscriber.on_data(lambda a: received.append(a.message.sequence))
        subscriber.subscribe(kind="wrap*")
        deployment.run(0.2)
        stream = publisher.publish(0, b"seed", kind="wrap")
        deployment.cluster.shards.pin(stream, "b0")
        deployment.run(0.3)
        assert received == [0]

        # Drive the b0 -> b1 link with one full epoch plus a tail, the
        # way the owner fans out: one RemoteDelivery per message. Frames
        # enter through the real link endpoint (on_frame), exercising
        # the peer-side SequenceWindow and local fan-out.
        link = deployment.cluster.nodes["b1"].link
        total = (1 << 16) + 64
        now = deployment.sim.now
        for raw in range(1, total):
            arrival = StreamArrival(
                message=DataMessage(
                    stream_id=stream, sequence=raw % (1 << 16)
                ),
                received_at=now,
                receiver_id=-1,
            )
            link.on_frame(RemoteDelivery(origin="b0", arrival=arrival))
            if raw % 8192 == 0:
                # Flush the scheduled consumer deliveries in batches so
                # the event heap stays small (coordinator timers keep
                # the clustered kernel from ever going fully idle).
                deployment.run(0.05)
        deployment.run(0.5)

        assert deployment.cluster.stats.dedupe_hits == 0
        assert len(received) == total
        # The tail of the stream — the post-wrap reuses of sequences
        # 0..63 — arrived intact and in order.
        assert received[-64:] == list(range(64))
