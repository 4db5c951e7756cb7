"""Hierarchical fan-out trees: one dispatch delivery serves a subtree.

The flat delivery path walks one fan-out leg per subscription per
message — per-consumer state in the dispatcher, per-consumer sends on
the fixed network. A :class:`FanoutTree` restructures that into the
hierarchy the E10 experiments and the cluster link already use in
miniature: consumers attach as *members* of leaf relays, and the
Dispatching Service holds **one subscription per distinct pattern** —
the tree root's — no matter how many members share it.

Interest is counted per relay, one level at a time: a leaf's table
counts the members holding each pattern, an inner relay's table counts
the children whose own table holds it. An attach or detach moves a
count upward only when it crosses 0↔1, so the 10,000th member of a
shared pattern touches one table, and only a relay whose target set
changed loses its route cache. A route is computed once per stream:
each distinct pattern in the relay's table is tested once, and the
children (or members) holding a matching pattern are selected by set
intersection, in attach order.

Delivery then flows root → inner relays → leaves as
:class:`~repro.fanout.frames.DeliveryBatch` frames: each interested
child gets one frame carrying the arrivals routed to it (the *same*
frozen frame object when it wants them all), and a relay sends all of
its children's frames in **one** fixed-network event
(:meth:`~repro.simnet.fixednet.FixedNetwork.send_each`), so a publish
costs one kernel event per inner relay, not one per relay. Each leaf
builds a **single** re-stamped :class:`StreamArrival` shared by all of
its members (zero-copy fan-out). Without the QoS
:class:`~repro.qos.quarantine.DeliveryManager`, a leaf's cached route
is the tuple of its matching members' callbacks, which it calls in
turn — zero events and no member object per delivery, which is what the
100k-session benchmark measures. A callback that raises is reported to
:meth:`DispatchingService.delivery_failed`: with a hook installed it
costs only its own delivery, without one it propagates. With a
DeliveryManager, member legs ride it (per-endpoint queues,
network-ordered), so one slow
consumer inside a batch parks only its own copy while the others
deliver.

:meth:`FanoutTree.attach` returns the :class:`FanoutMember` itself: it
is the handle (``detach()``), and it keeps its leaf. A member gets a
fixed-network inbox only when a DeliveryManager may need to replay to
it.

Tree shape: ``levels`` relay tiers (root at the top, leaves at the
bottom), every relay but the root capped at ``branching`` children.
Members fill the current leaf left-to-right; the root's degree grows
unbounded (≈ N / branching^(levels-1) children at N members). Detached
member slots are not back-filled — attachment order stays the growth
order, which keeps the structure deterministic under churn.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Iterable

from repro.core.dispatching import DispatchingService, SubscriptionPattern
from repro.core.envelopes import StreamArrival
from repro.core.streamid import StreamId
from repro.core.streams import StreamRegistry
from repro.errors import SubscriptionError
from repro.fanout.frames import DeliveryBatch
from repro.simnet.fixednet import FixedNetwork

#: Relay inboxes are ``garnet.fanout.<tree>.r<id>``; member inboxes
#: (registered only when a DeliveryManager may need to replay to them)
#: are ``garnet.fanout.<tree>.m<id>``.
RELAY_INBOX_PREFIX = "garnet.fanout."


class FanoutMember:
    """One attached consumer, and the handle :meth:`FanoutTree.attach`
    returns: its patterns, its callback, its leaf (None once detached)."""

    __slots__ = ("name", "patterns", "on_data", "inbox", "leaf")

    def __init__(
        self,
        name: str,
        patterns: tuple[SubscriptionPattern, ...],
        on_data: Callable[[StreamArrival], None],
        inbox: str | None,
        leaf: "_Relay",
    ) -> None:
        self.name = name
        self.patterns = patterns
        self.on_data = on_data
        self.inbox = inbox
        self.leaf: _Relay | None = leaf

    def detach(self) -> None:
        """Leave the tree; detaching twice is a no-op."""
        if self.leaf is not None:
            self.leaf.tree._detach(self)


class _Relay:
    __slots__ = (
        "tree",
        "inbox",
        "level",
        "parent",
        "children",
        "members",
        "interest",
        "route_cache",
    )

    def __init__(self, tree: "FanoutTree", inbox: str, level: int, parent) -> None:
        self.tree = tree
        self.inbox = inbox
        self.level = level
        self.parent: _Relay | None = parent
        self.children: list[_Relay] = []
        # A leaf's members in attach order, each mapped to its leg: the
        # inbox a DeliveryManager delivers to, else the member's callback.
        self.members: dict[FanoutMember, Any] = {}
        # pattern -> how many members (leaf) or children (inner) hold it.
        self.interest: dict[SubscriptionPattern, int] = {}
        # stream -> interested children (inner) or members' legs (leaf).
        self.route_cache: dict[StreamId, tuple] = {}


class FanoutTree:
    """A relay hierarchy multiplexing many consumers onto one route leg."""

    def __init__(
        self,
        name: str,
        *,
        network: FixedNetwork,
        dispatcher: DispatchingService,
        registry: StreamRegistry,
        branching: int = 64,
        levels: int = 3,
        delivery: Any | None = None,
        stats: Any | None = None,
        relays_gauge: Any | None = None,
        sessions_gauge: Any | None = None,
    ) -> None:
        if branching < 2:
            raise SubscriptionError("fanout branching must be at least 2")
        if levels < 1:
            raise SubscriptionError("fanout trees need at least one level")
        self.name = name
        self._network = network
        self._dispatcher = dispatcher
        self._registry = registry
        self._branching = branching
        self._levels = levels
        self._delivery = delivery
        self._stats = stats
        self._relays_gauge = relays_gauge
        self._sessions_gauge = sessions_gauge
        self._relays: list[_Relay] = []
        self._next_member = 0
        self._sessions = 0
        # Rightmost open relay per inner level, and the open leaf.
        self._open_parent: dict[int, _Relay] = {}
        self._open_leaf: _Relay | None = None
        # root-held dispatcher subscriptions, one per distinct pattern.
        self._root_subs: dict[SubscriptionPattern, int] = {}
        self._root = self._new_relay(levels - 1, parent=None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def root_inbox(self) -> str:
        return self._root.inbox

    def session_count(self) -> int:
        return self._sessions

    def relay_count(self) -> int:
        return len(self._relays)

    def root_subscription_count(self) -> int:
        return len(self._root_subs)

    def describe(self) -> dict[str, int]:
        per_level: dict[str, int] = {}
        for relay in self._relays:
            key = f"level_{relay.level}"
            per_level[key] = per_level.get(key, 0) + 1
        return {
            "sessions": self._sessions,
            "relays": len(self._relays),
            "levels": self._levels,
            "branching": self._branching,
            "root_subscriptions": len(self._root_subs),
            **per_level,
        }

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def _new_relay(self, level: int, parent: _Relay | None) -> _Relay:
        inbox = f"{RELAY_INBOX_PREFIX}{self.name}.r{len(self._relays)}"
        relay = _Relay(self, inbox, level, parent)
        self._relays.append(relay)
        if self._relays_gauge is not None:
            self._relays_gauge.inc()
        if parent is None:
            # The root inbox backs the dispatcher subscriptions (the
            # dispatcher intercepts them before any network hop, but a
            # deployment without the hook must still deliver, and
            # add_subscription requires the inbox to exist).
            self._network.register_inbox(inbox, self._on_root_inbox)
        else:
            self._network.register_inbox(inbox, partial(self._on_batch, relay))
        return relay

    def _leaf_for_attach(self) -> _Relay:
        if self._levels == 1:
            return self._root  # a degenerate tree: the root is the leaf
        leaf = self._open_leaf
        if leaf is None or len(leaf.members) >= self._branching:
            leaf = self._grow(0)
            self._open_leaf = leaf
        return leaf

    def _grow(self, level: int) -> _Relay:
        """A fresh relay at ``level``, hung under an open parent."""
        parent_level = level + 1
        if parent_level == self._levels - 1:
            parent = self._root
        else:
            parent = self._open_parent.get(parent_level)
            if parent is None or len(parent.children) >= self._branching:
                parent = self._grow(parent_level)
                self._open_parent[parent_level] = parent
        relay = self._new_relay(level, parent)
        parent.children.append(relay)
        return relay

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def attach(
        self,
        name: str,
        patterns: SubscriptionPattern | Iterable[SubscriptionPattern],
        on_data: Callable[[StreamArrival], None],
    ) -> FanoutMember:
        """Join the tree; returns the member, which is its own handle."""
        if isinstance(patterns, SubscriptionPattern):
            wanted: tuple[SubscriptionPattern, ...] = (patterns,)
        else:
            wanted = tuple(dict.fromkeys(patterns))
        if not wanted:
            raise SubscriptionError("a fan-out member needs at least one pattern")
        inbox = None
        if self._delivery is not None:
            # Quarantine replay reaches members over the fixed network,
            # so tracked deployments give each member a real inbox.
            inbox = f"{RELAY_INBOX_PREFIX}{self.name}.m{self._next_member}"
            self._next_member += 1
            self._network.register_inbox(inbox, on_data)
        leaf = self._leaf_for_attach()
        member = FanoutMember(name, wanted, on_data, inbox, leaf)
        leaf.members[member] = on_data if inbox is None else inbox
        leaf.route_cache.clear()
        for pattern in wanted:
            self._count(leaf, pattern, 1)
        self._sessions += 1
        if self._sessions_gauge is not None:
            self._sessions_gauge.inc()
        if self._stats is not None:
            # counter().inc(): a third of the stats property round trip.
            self._stats.counter("attached").inc()
        return member

    def _detach(self, member: FanoutMember) -> None:
        leaf = member.leaf
        member.leaf = None
        del leaf.members[member]
        leaf.route_cache.clear()
        for pattern in member.patterns:
            self._count(leaf, pattern, -1)
        self._sessions -= 1
        if self._delivery is not None:
            self._delivery.release(member.inbox)
            if self._network.has_inbox(member.inbox):
                self._network.unregister_inbox(member.inbox)
        if self._sessions_gauge is not None:
            self._sessions_gauge.dec()
        if self._stats is not None:
            self._stats.counter("detached").inc()

    def _count(self, relay: _Relay, pattern: SubscriptionPattern, step: int) -> None:
        """Count one holder of ``pattern`` more (+1) or fewer (-1) at
        ``relay``; only a 0↔1 transition moves to the parent, whose
        route cache is the only one whose target set changed."""
        while True:
            count = relay.interest.get(pattern, 0) + step
            if count:
                relay.interest[pattern] = count
            else:
                del relay.interest[pattern]
            if count != (step > 0):
                return  # no 0↔1 crossing: the parent's view is unchanged
            parent = relay.parent
            if parent is None:
                if count:
                    self._root_subs[pattern] = self._dispatcher.add_subscription(
                        relay.inbox, pattern
                    )
                else:
                    self._dispatcher.remove_subscription(self._root_subs.pop(pattern))
                return
            parent.route_cache.clear()
            relay = parent

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def deliver_root(self, arrival: StreamArrival) -> int:
        """One dispatch leg enters the tree; returns member deliveries."""
        if self._stats is not None:
            self._stats.root_batches += 1
        batch = DeliveryBatch(origin=self.name, arrivals=(arrival,))
        return self._forward(self._root, batch)

    def _on_root_inbox(self, frame: Any) -> None:
        # Fallback path: a dispatcher without the fanout hook (or a
        # direct network send) delivered a bare arrival to the root.
        if isinstance(frame, DeliveryBatch):
            self._forward(self._root, frame)
        else:
            self.deliver_root(frame)

    def _on_batch(self, relay: _Relay, batch: DeliveryBatch) -> None:
        self._forward(relay, batch)

    def _forward(self, relay: _Relay, batch: DeliveryBatch) -> int:
        if relay.level == 0:
            return self._deliver_members(relay, batch)
        arrivals = batch.arrivals
        routed: dict[_Relay, list[StreamArrival]] = {}
        for arrival in arrivals:
            for child in self._targets(relay, arrival.message.stream_id):
                routed.setdefault(child, []).append(arrival)
        sends = []
        for child, wanted in routed.items():
            # One frame per interested child, carrying only its arrivals;
            # a child that wants them all shares the frame object.
            frame = batch
            if len(wanted) < len(arrivals):
                frame = DeliveryBatch(origin=batch.origin, arrivals=tuple(wanted))
            sends.append((child.inbox, frame))
        # The whole hop is one kernel event.
        self._network.send_each(sends)
        if self._stats is not None:
            self._stats.relay_forwards += len(sends)
        return len(sends)

    def _targets(self, relay: _Relay, stream_id: StreamId) -> tuple:
        """The children (inner relay) or members' legs (leaf) that want a
        stream."""
        cached = relay.route_cache.get(stream_id)
        if cached is None:
            descriptor = self._registry.detect(stream_id)
            # Each distinct pattern is tested once, not once per holder.
            matched = {p for p in relay.interest if p.matches(descriptor)}
            if not matched:
                cached = ()
            elif relay.level:
                cached = tuple(
                    c for c in relay.children if not matched.isdisjoint(c.interest)
                )
            elif len(matched) == len(relay.interest):
                # Every member holds a match.
                cached = tuple(relay.members.values())
            else:
                cached = tuple(
                    leg
                    for m, leg in relay.members.items()
                    if not matched.isdisjoint(m.patterns)
                )
            relay.route_cache[stream_id] = cached
        return cached

    def _deliver_members(self, leaf: _Relay, batch: DeliveryBatch) -> int:
        now = self._network.sim.now
        delivery = self._delivery
        stats = self._stats
        delivered = 0
        for arrival in batch.arrivals:
            legs = self._targets(leaf, arrival.message.stream_id)
            if not legs:
                continue
            # One re-stamped arrival per leaf per message, shared by all
            # of its members — the single-encode/zero-copy edge.
            edge = StreamArrival(
                message=arrival.message,
                received_at=arrival.received_at,
                receiver_id=arrival.receiver_id,
                delivered_at=now,
            )
            delivered += len(legs)
            if delivery is not None:
                for inbox in legs:
                    # Every member leg rides the DeliveryManager so a
                    # stalled/quarantined member parks only its own copy
                    # while healthy members keep the flat path's
                    # network-ordered delivery (a direct call here could
                    # overtake an in-flight resume replay).
                    if stats is not None and delivery.intercepts(inbox):
                        stats.quarantine_diverted += 1
                    delivery.deliver(inbox, edge)
                continue
            calls = iter(legs)
            while True:
                try:
                    for on_data in calls:
                        on_data(edge)
                    break
                except Exception as error:
                    # Only the raising member's delivery is lost; the
                    # iterator resumes with the member after it.
                    self._dispatcher.delivery_failed(error)
        if stats is not None:
            stats.leaf_deliveries += delivered
        return delivered

    def invalidate(self, stream_id: StreamId | None = None) -> None:
        """Flush memoised relay routes (stream metadata changed)."""
        if stream_id is None:
            for relay in self._relays:
                relay.route_cache.clear()
        else:
            for relay in self._relays:
                relay.route_cache.pop(stream_id, None)
