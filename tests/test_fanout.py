"""repro.fanout: hierarchical fan-out trees and batched delivery.

Covers the subsystem's core guarantees:

- the ``fanout_enabled`` kill switch, and tree shapes checked by the
  tree itself;
- deterministic tree growth (branching/levels), interest aggregation to
  **one** dispatcher subscription per distinct pattern, refcounted
  teardown on detach;
- delivery correctness: every member sees every matching message exactly
  once and in order, however many relays sit between it and the root;
- zero-copy sharing: one message object, one re-stamped arrival per
  leaf, shared by all of the leaf's members;
- quarantine isolation inside a batch (a slow member parks only its own
  copy; resume replays in order);
- membership under any attach/detach sequence: per-relay interest
  counts, root subscriptions and cached routes always equal a recount;
- on a clustered deployment, remote legs keep the link's dedupe
  windows.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import GarnetConfig
from repro.core.dispatching import SubscriptionPattern
from repro.core.middleware import Garnet
from repro.core.streamid import StreamId
from repro.errors import ConfigurationError, SubscriptionError
from repro.fanout.frames import DeliveryBatch


def fanout_deployment(seed: int = 7, **overrides) -> Garnet:
    config = GarnetConfig(
        publish_location_stream=False, fanout_enabled=True, **overrides
    )
    return Garnet(config=config, seed=seed)


def collector():
    received: list = []
    return received, received.append


def sequences(arrivals) -> list[int]:
    return [a.message.sequence for a in arrivals]


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestConfig:
    def test_fanout_defaults_off(self):
        config = GarnetConfig()
        assert config.fanout_enabled is False
        deployment = Garnet(config=config)
        assert deployment.fanout is None
        assert "fanout.sessions" not in deployment.summary()

    @pytest.mark.parametrize(
        "overrides",
        [{"branching": 1}, {"levels": 0}, {"levels": 9}],
    )
    def test_enabled_validates_knobs(self, overrides):
        # The tree owns its shape and its range checks; the deployment
        # config carries only the on/off switch.
        deployment = fanout_deployment()
        with pytest.raises(SubscriptionError):
            deployment.fanout.new_tree("bad", **overrides)

    def test_enabled_deployment_reports_fanout(self):
        deployment = fanout_deployment()
        assert deployment.fanout is not None
        summary = deployment.summary()
        assert summary["fanout.sessions"] == 0
        assert summary["fanout.relays"] == deployment.fanout.relay_count()


# ----------------------------------------------------------------------
# Tree structure
# ----------------------------------------------------------------------
class TestTreeShape:
    def test_growth_fills_leaves_then_parents(self):
        deployment = fanout_deployment()
        tree = deployment.fanout.new_tree("shape", branching=2, levels=3)
        on_data = lambda arrival: None  # noqa: E731
        pattern = SubscriptionPattern(kind="temp")
        # First member: root + one level-1 relay + one leaf.
        tree.attach("m0", pattern, on_data)
        assert tree.relay_count() == 3
        # Second fills the open leaf; third opens a sibling leaf.
        tree.attach("m1", pattern, on_data)
        assert tree.relay_count() == 3
        tree.attach("m2", pattern, on_data)
        assert tree.relay_count() == 4
        # Fifth member exhausts the first level-1 subtree (2 leaves x 2
        # members) and opens a fresh level-1 relay under the root.
        tree.attach("m3", pattern, on_data)
        tree.attach("m4", pattern, on_data)
        assert tree.relay_count() == 6
        shape = tree.describe()
        assert shape["sessions"] == 5
        assert shape["level_2"] == 1  # the root
        assert shape["level_1"] == 2
        assert shape["level_0"] == 3

    def test_single_level_tree_root_is_leaf(self):
        deployment = fanout_deployment()
        tree = deployment.fanout.new_tree("flat", branching=2, levels=1)
        received, on_data = collector()
        tree.attach("m0", SubscriptionPattern(kind="temp"), on_data)
        assert tree.relay_count() == 1
        publisher = deployment.connect("pub")
        publisher.publish(0, b"\x01", kind="temp")
        deployment.run_until_idle()
        assert sequences(received) == [0]

    def test_bad_shapes_rejected(self):
        deployment = fanout_deployment()
        with pytest.raises(ConfigurationError):
            deployment.fanout.new_tree("t0")  # the default tree's name
        with pytest.raises(SubscriptionError):
            deployment.fanout.attach("m", (), lambda a: None)

    def test_shared_pattern_holds_one_root_subscription(self):
        deployment = fanout_deployment()
        tree = deployment.fanout.tree
        dispatcher = deployment.dispatcher
        baseline = dispatcher.subscription_count()
        pattern = SubscriptionPattern(kind="temp")
        sessions = [
            tree.attach(f"m{i}", pattern, lambda a: None) for i in range(50)
        ]
        assert tree.session_count() == 50
        assert tree.root_subscription_count() == 1
        assert dispatcher.subscription_count() == baseline + 1
        # Refcounted teardown: the subscription survives until the last
        # interested member detaches.
        for session in sessions[:-1]:
            session.detach()
        assert tree.root_subscription_count() == 1
        sessions[-1].detach()
        assert tree.root_subscription_count() == 0
        assert dispatcher.subscription_count() == baseline
        assert tree.session_count() == 0

    def test_gauges_track_membership(self):
        deployment = fanout_deployment()
        registry = deployment.metrics()
        session = deployment.fanout.attach(
            "m0", SubscriptionPattern(kind="temp"), lambda a: None
        )
        assert registry.value("fanout.sessions_active") == 1.0
        assert registry.value("fanout.relays") >= 1.0
        session.detach()
        assert registry.value("fanout.sessions_active") == 0.0


# ----------------------------------------------------------------------
# Delivery
# ----------------------------------------------------------------------
class TestDelivery:
    def test_every_member_gets_every_message_once_in_order(self):
        deployment = fanout_deployment()
        tree = deployment.fanout.new_tree("small", branching=2, levels=3)
        boxes = []
        for index in range(10):
            received, on_data = collector()
            boxes.append(received)
            tree.attach(f"m{index}", SubscriptionPattern(kind="temp"), on_data)
        publisher = deployment.connect("pub")
        for sequence in range(5):
            publisher.publish(0, bytes([sequence]), kind="temp")
        deployment.run_until_idle()
        for received in boxes:
            assert sequences(received) == [0, 1, 2, 3, 4]
        stats = deployment.fanout.stats
        assert stats.root_batches == 5
        assert stats.leaf_deliveries == 50

    def test_one_dispatcher_delivery_per_message_per_tree(self):
        deployment = fanout_deployment()
        for index in range(20):
            deployment.fanout.attach(
                f"m{index}", SubscriptionPattern(kind="temp"), lambda a: None
            )
        publisher = deployment.connect("pub")
        before = deployment.dispatcher.stats.deliveries
        publisher.publish(0, b"\x01", kind="temp")
        deployment.run_until_idle()
        # 20 members, one root leg: the dispatcher walked ONE delivery.
        assert deployment.dispatcher.stats.deliveries == before + 1

    def test_zero_copy_sharing_across_members(self):
        deployment = fanout_deployment()
        tree = deployment.fanout.new_tree("small", branching=8, levels=2)
        boxes = []
        for index in range(6):
            received, on_data = collector()
            boxes.append(received)
            tree.attach(f"m{index}", SubscriptionPattern(kind="temp"), on_data)
        publisher = deployment.connect("pub")
        publisher.publish(0, b"\x2a", kind="temp")
        deployment.run_until_idle()
        arrivals = [received[0] for received in boxes]
        # One DataMessage object across every member of the tree, and
        # one StreamArrival per leaf shared by all its members (all six
        # fit in a single leaf at branching=8).
        assert len({id(a.message) for a in arrivals}) == 1
        assert len({id(a) for a in arrivals}) == 1
        assert arrivals[0].delivered_at == deployment.sim.now

    def test_multi_pattern_member_delivered_once(self):
        deployment = fanout_deployment()
        received, on_data = collector()
        publisher = deployment.connect("pub")
        stream_id = publisher.publish(0, b"\x00", kind="temp")
        deployment.run_until_idle()
        # Two root subscriptions (kind + exact stream) both match: the
        # dispatcher dedupes the root leg, so one delivery per message.
        deployment.fanout.attach(
            "m0",
            (
                SubscriptionPattern(kind="temp"),
                SubscriptionPattern(stream_id=stream_id),
            ),
            on_data,
        )
        assert deployment.fanout.tree.root_subscription_count() == 2
        publisher.publish(0, b"\x01", kind="temp")
        deployment.run_until_idle()
        assert sequences(received) == [1]

    def test_fanout_and_flat_subscribers_coexist(self):
        deployment = fanout_deployment()
        tree_received, tree_on_data = collector()
        deployment.fanout.attach(
            "member", SubscriptionPattern(kind="temp"), tree_on_data
        )
        flat = deployment.connect("flat")
        flat_received = []
        flat.on_data(flat_received.append)
        flat.subscribe(kind="temp")
        publisher = deployment.connect("pub")
        publisher.publish(0, b"\x07", kind="temp")
        deployment.run_until_idle()
        assert sequences(tree_received) == [0]
        assert sequences(flat_received) == [0]

    def test_detach_stops_delivery(self):
        deployment = fanout_deployment()
        received, on_data = collector()
        session = deployment.fanout.attach(
            "m0", SubscriptionPattern(kind="temp"), on_data
        )
        publisher = deployment.connect("pub")
        publisher.publish(0, b"\x00", kind="temp")
        deployment.run_until_idle()
        session.detach()
        session.detach()  # idempotent
        publisher.publish(0, b"\x01", kind="temp")
        deployment.run_until_idle()
        assert sequences(received) == [0]
        assert len(received) == 1

    def test_batch_reaches_each_child_once_with_its_own_arrivals(self):
        deployment = fanout_deployment()
        tree = deployment.fanout.new_tree("small", branching=2, levels=3)
        boxes = []
        for index, kind in enumerate(("k", "k", "k", "k", "j", "j")):
            received, on_data = collector()
            boxes.append(received)
            tree.attach(f"m{index}", SubscriptionPattern(kind=kind), on_data)
        publisher = deployment.connect("pub")
        publisher.publish(0, b"\x00", kind="k")
        publisher.publish(0, b"\x01", kind="k")
        publisher.publish(1, b"\x02", kind="j")
        deployment.run_until_idle()
        k_arrivals, j_arrivals = tuple(boxes[0]), tuple(boxes[4])
        for received in boxes:
            received.clear()
        # Two arrivals for the four k members (one level-1 subtree) and
        # one for the two j members (another): every relay hop sends each
        # interested child one batch holding only the arrivals it wants.
        deployment.network.send(
            tree.root_inbox,
            DeliveryBatch(origin="test", arrivals=(*k_arrivals, *j_arrivals)),
        )
        deployment.run_until_idle()
        delivered = [sequences(received) for received in boxes]
        assert delivered == [[0, 1]] * 4 + [[0]] * 2

    def test_late_member_sees_only_later_messages(self):
        # Route caches are memoised per stream; a mid-stream attach must
        # invalidate them so the new member joins the fan-out.
        deployment = fanout_deployment()
        first, first_on_data = collector()
        deployment.fanout.attach(
            "early", SubscriptionPattern(kind="temp"), first_on_data
        )
        publisher = deployment.connect("pub")
        publisher.publish(0, b"\x00", kind="temp")
        deployment.run_until_idle()
        second, second_on_data = collector()
        deployment.fanout.attach(
            "late", SubscriptionPattern(kind="temp"), second_on_data
        )
        publisher.publish(0, b"\x01", kind="temp")
        deployment.run_until_idle()
        assert sequences(first) == [0, 1]
        assert sequences(second) == [1]


# ----------------------------------------------------------------------
# A member whose callback raises
# ----------------------------------------------------------------------
class Boom(Exception):
    pass


class TestRaisingMember:
    def wired(self):
        # Branching 4: m0..m3 share the first leaf, m4..m7 the second,
        # both under one level-1 relay (one coalesced hop reaches both).
        deployment = fanout_deployment()
        tree = deployment.fanout.new_tree("small", branching=4, levels=3)
        boxes = []
        for index in range(8):
            received, on_data = collector()
            boxes.append(received)
            if index == 1:

                def on_data(arrival, received=received):
                    received.append(arrival)
                    raise Boom(arrival.message.sequence)

            tree.attach(f"m{index}", SubscriptionPattern(kind="temp"), on_data)
        return deployment, boxes, deployment.connect("pub")

    def test_with_a_hook_only_the_raising_delivery_is_lost(self):
        deployment, boxes, publisher = self.wired()
        errors = []
        deployment.dispatcher.install(delivery_errors=errors.append)
        publisher.publish(0, b"\x00", kind="temp")
        deployment.run_until_idle()
        assert [sequences(received) for received in boxes] == [[0]] * 8
        assert [error.args for error in errors] == [(0,)]
        assert deployment.fanout.stats.leaf_deliveries == 8

    def test_without_a_hook_it_propagates_and_later_leaves_still_deliver(self):
        deployment, boxes, publisher = self.wired()
        publisher.publish(0, b"\x00", kind="temp")
        with pytest.raises(Boom):
            deployment.run_until_idle()
        # Nothing hears the error, so it leaves the leaf as any in-sim
        # callback's does; the hop's other leaves stay queued.
        assert [sequences(received) for received in boxes[:4]] == [
            [0], [0], [], []
        ]
        assert all(received == [] for received in boxes[4:])
        deployment.run_until_idle()
        assert all(sequences(received) == [0] for received in boxes[4:])


# ----------------------------------------------------------------------
# Kernel events per publish
# ----------------------------------------------------------------------
class TestEventCount:
    def test_one_kernel_event_per_forwarding_relay(self):
        # The default tree: 64 children per relay, three levels.
        deployment = fanout_deployment()
        tree = deployment.fanout.tree
        members = 10_000
        hits = [0]

        def on_data(arrival):
            hits[0] += 1

        for index in range(members):
            tree.attach(f"m{index}", SubscriptionPattern(kind="temp"), on_data)
        publisher = deployment.connect("pub")
        publisher.publish(0, b"\x00", kind="temp")
        deployment.run_until_idle()
        before = deployment.sim.events_processed
        publisher.publish(0, b"\x01", kind="temp")
        deployment.run_until_idle()
        shape = tree.describe()
        assert (shape["level_2"], shape["level_1"], shape["level_0"]) == (1, 3, 157)
        # The dispatcher's event, then one coalesced hop from the root
        # and one from each level-1 relay: 5, where a send per child
        # took one event per relay (161).
        events = deployment.sim.events_processed - before
        assert events == 1 + shape["level_2"] + shape["level_1"] == 5
        assert hits[0] == 2 * members

    def test_member_keeps_no_per_delivery_counter(self):
        from repro.fanout.tree import FanoutMember

        assert "delivered" not in FanoutMember.__slots__


# ----------------------------------------------------------------------
# Quarantine isolation inside a batch
# ----------------------------------------------------------------------
class TestQuarantineInBatch:
    def wired(self):
        deployment = fanout_deployment(
            qos_consumer_queue=2, qos_quarantine_after=1.0
        )
        boxes = {}
        members = {}
        for name in ("a", "b", "c"):
            received, on_data = collector()
            boxes[name] = received
            members[name] = deployment.fanout.attach(
                name, SubscriptionPattern(kind="temp"), on_data
            )
        publisher = deployment.connect("pub")
        return deployment, boxes, members, publisher

    def test_slow_member_parks_only_its_own_copy(self):
        deployment, boxes, members, publisher = self.wired()
        delivery = deployment.qos.delivery
        slow_inbox = members["b"].inbox
        delivery.stall(slow_inbox)
        for sequence in range(2):
            publisher.publish(0, bytes([sequence]), kind="temp")
        deployment.run_until_idle()
        deployment.run(2.0)  # saturated past the window: quarantined
        assert delivery.is_quarantined(slow_inbox)
        publisher.publish(0, b"\x02", kind="temp")
        publisher.publish(0, b"\x03", kind="temp")
        deployment.run_until_idle()
        # Healthy members in the same batch kept delivering the whole
        # time; the quarantined member parked its copies and got nothing.
        assert sequences(boxes["a"]) == [0, 1, 2, 3]
        assert sequences(boxes["c"]) == [0, 1, 2, 3]
        assert boxes["b"] == []
        assert delivery.backlog_size(slow_inbox) == 4
        assert deployment.fanout.stats.quarantine_diverted >= 1

    def test_resume_replays_in_order_then_flows_directly(self):
        deployment, boxes, members, publisher = self.wired()
        delivery = deployment.qos.delivery
        slow_inbox = members["b"].inbox
        delivery.stall(slow_inbox)
        for sequence in range(2):
            publisher.publish(0, bytes([sequence]), kind="temp")
        deployment.run_until_idle()
        deployment.run(2.0)
        assert delivery.is_quarantined(slow_inbox)
        publisher.publish(0, b"\x02", kind="temp")  # parks
        deployment.run_until_idle()
        replayed = delivery.resume(slow_inbox)
        deployment.run_until_idle()
        assert replayed == 3
        publisher.publish(0, b"\x03", kind="temp")
        deployment.run_until_idle()
        # The backlog replays in arrival order and fresh batched traffic
        # lands strictly after it.
        assert sequences(boxes["b"]) == [0, 1, 2, 3]
        assert sequences(boxes["a"]) == [0, 1, 2, 3]

    def test_detach_releases_quarantine_state(self):
        deployment, boxes, members, publisher = self.wired()
        delivery = deployment.qos.delivery
        slow_inbox = members["b"].inbox
        delivery.stall(slow_inbox)
        publisher.publish(0, b"\x00", kind="temp")
        deployment.run_until_idle()
        assert delivery.backlog_size(slow_inbox) == 1
        members["b"].detach()
        assert delivery.backlog_size(slow_inbox) == 0
        assert not delivery.intercepts(slow_inbox)


# ----------------------------------------------------------------------
# Fan-out on a clustered deployment
# ----------------------------------------------------------------------
class TestClusteredFanout:
    def clustered(self, **overrides):
        config = GarnetConfig(
            cluster_enabled=True,
            cluster_brokers=3,
            publish_location_stream=False,
            fanout_enabled=True,
            **overrides,
        )
        return Garnet(config=config, seed=11)

    def test_remote_legs_keep_dedupe_windows(self):
        deployment = self.clustered()
        publisher = deployment.connect("pub", broker="b0")
        received = []
        subscriber = deployment.connect("sub", broker="b2")
        subscriber.on_data(received.append)
        subscriber.subscribe(kind="temp")
        publisher.publish(0, b"\x00", kind="temp")
        deployment.run(0.5)
        # Replay the identical remote leg straight at b2's link inbox:
        # the per-stream SequenceWindow drops every duplicate arrival.
        from repro.cluster.link import LINK_INBOX_PREFIX, RemoteDelivery
        from repro.core.envelopes import StreamArrival

        duplicate = StreamArrival(
            message=received[0].message,
            received_at=received[0].received_at,
            receiver_id=received[0].receiver_id,
        )
        for _ in range(2):
            deployment.network.send(
                LINK_INBOX_PREFIX + "b2",
                RemoteDelivery(origin="b0", arrival=duplicate),
            )
        deployment.run(0.5)
        assert sequences(received) == [0]


# ----------------------------------------------------------------------
# Membership under any attach/detach sequence
# ----------------------------------------------------------------------
#: (pattern, the stream index a publish for it goes to); the publisher's
#: streams 0, 1 and 2 carry kinds ka, kb and kc.
_POOL = (
    (SubscriptionPattern(kind="ka"), 0),
    (SubscriptionPattern(kind="kb"), 1),
    (SubscriptionPattern(kind="k*"), 2),
    (SubscriptionPattern(stream_index=1), 1),
    (SubscriptionPattern(kind="kc"), 2),
)
_KINDS = ("ka", "kb", "kc")
#: A list attaches a member holding those pool patterns; an int detaches
#: the member attached that many attaches ago (again, if already gone).
_OPERATION = st.one_of(
    st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=3, unique=True),
    st.integers(0, 15),
)


def _wants(patterns, descriptor) -> bool:
    return any(pattern.matches(descriptor) for pattern in patterns)


def _recount(relay) -> Counter:
    """A relay's interest table, counted from scratch."""
    if relay.level == 0:
        return Counter(p for member in relay.members for p in member.patterns)
    return Counter(p for child in relay.children for p in _recount(child))


def _subtree_wants(relay, descriptor) -> bool:
    if relay.level == 0:
        return any(_wants(m.patterns, descriptor) for m in relay.members)
    return any(_subtree_wants(child, descriptor) for child in relay.children)


def _fresh_route(relay, descriptor) -> tuple:
    if relay.level == 0:
        # A leaf caches its matching members' callbacks.
        return tuple(
            m.on_data for m in relay.members if _wants(m.patterns, descriptor)
        )
    return tuple(c for c in relay.children if _subtree_wants(c, descriptor))


class TestMembershipProperty:
    """Any attach/detach sequence on any small tree shape."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(1, 3),
        st.lists(_OPERATION, min_size=1, max_size=12),
    )
    def test_counts_subscriptions_and_routes_match_a_recount(
        self, branching, levels, operations
    ):
        deployment = fanout_deployment()
        tree = deployment.fanout.new_tree("p", branching=branching, levels=levels)
        dispatcher, registry = deployment.dispatcher, deployment.registry
        publisher = deployment.connect("pub")
        streams = [
            publisher.publish(index, b"", kind=kind)
            for index, kind in enumerate(_KINDS)
        ]
        deployment.run_until_idle()
        log: list = []
        attached: list = []
        for operation in operations:
            if isinstance(operation, list):
                patterns = tuple(_POOL[index][0] for index in operation)
                member = tree.attach(
                    f"m{len(attached)}",
                    patterns,
                    lambda arrival, n=len(attached): log.append(
                        (n, arrival.message.stream_id)
                    ),
                )
                attached.append(member)
            elif attached:
                attached[-1 - operation % len(attached)].detach()
            live = [n for n, member in enumerate(attached) if member.leaf]
            assert tree.session_count() == len(live)
            relays = tree._relays
            for relay in relays:
                assert relay.interest == _recount(relay)
            held = sorted(
                repr(sub.pattern)
                for sub in dispatcher._subscriptions.values()
                if sub.endpoint == tree.root_inbox
            )
            wanted = {p for n in live for p in attached[n].patterns}
            assert held == sorted(map(repr, wanted))
            for relay in relays:
                for stream_id, route in relay.route_cache.items():
                    assert route == _fresh_route(
                        relay, registry.detect(stream_id)
                    )
            for pattern, index in _POOL:
                if pattern not in wanted:
                    continue
                descriptor = registry.detect(streams[index])
                log.clear()
                publisher.publish(index, b"", kind=_KINDS[index])
                deployment.run_until_idle()
                assert log == [
                    (n, streams[index])
                    for n in live
                    if _wants(attached[n].patterns, descriptor)
                ]
