"""The Dispatching Service: delivery of filtered streams to consumers.

Section 4.2: filtered data is "forwarded to the Dispatching Service for
delivery to subscribed consumer processes", while data no subscriber has
claimed goes to the Orphanage, "a default consumer process which receives
un-configured data".

Delivery is *address-free* (Section 6, "Delayed delivery and distribution
decisions"): messages carry only their source StreamID; the set of
destinations is computed here, in the fixed network, from the current
subscription table — never encoded by the sensor.

Subscriptions are either exact (one StreamId) or pattern-based
(:class:`SubscriptionPattern`: by sensor, stream index, advertised kind,
derived/physical). Pattern matching is memoised per stream and
invalidated whenever the subscription table or stream metadata changes,
so steady-state dispatch is one dictionary lookup plus fan-out.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Protocol

from repro.core.envelopes import FrameRun, StreamAdvertisement, StreamArrival
from repro.core.envelopes import new_arrival
from repro.core.streamid import StreamId
from repro.core.streams import StreamDescriptor, StreamRegistry
from repro.errors import SubscriptionError
from repro.obs.registry import MetricsRegistry
from repro.obs.stats import RegistryBackedStats
from repro.simnet.fixednet import FixedNetwork

INBOX = "garnet.dispatching"
ORPHANAGE_INBOX = "garnet.orphanage"
BROKER_INBOX = "garnet.broker.advertisements"


@dataclass(frozen=True, slots=True, kw_only=True)
class SubscriptionPattern:
    """A declarative description of the streams a consumer wants.

    All specified fields must match (conjunction); unspecified fields
    match anything. ``kind`` supports a trailing ``*`` wildcard against
    the stream's advertised kind tag.

    Construction is keyword-only: a bare ``SubscriptionPattern(x)`` is
    ambiguous (is ``x`` a stream, a sensor, a kind?), and the field most
    callers want — ``kind`` — is nowhere near first position.
    """

    stream_id: StreamId | None = None
    sensor_id: int | None = None
    stream_index: int | None = None
    kind: str | None = None
    derived: bool | None = None

    def __post_init__(self) -> None:
        if (
            self.stream_id is None
            and self.sensor_id is None
            and self.stream_index is None
            and self.kind is None
            and self.derived is None
        ):
            # A fully-wild pattern is legal (the Orphanage effectively has
            # one) but must be asked for explicitly via match_all().
            raise SubscriptionError(
                "empty pattern; use SubscriptionPattern.match_all() for a "
                "catch-all subscription"
            )
        # Types are checked here, once: the dispatcher keys its tables on
        # these fields and calls str methods on kind, so a pattern it
        # cannot bucket or match must not exist, whoever built it.
        stream_id = self.stream_id
        if stream_id is not None and not (
            isinstance(stream_id, tuple) and len(stream_id) == 2
        ):
            raise SubscriptionError(
                f"pattern stream_id must be a (sensor, index) pair: {self!r}"
            )
        ids = (self.sensor_id, self.stream_index, *(stream_id or ()))
        if not (
            all(
                i is None or (isinstance(i, int) and not isinstance(i, bool))
                for i in ids
            )
            and isinstance(self.kind, str | None)
            and isinstance(self.derived, bool | None)
        ):
            raise SubscriptionError(
                f"pattern ids must be int, kind str and derived bool: {self!r}"
            )

    def matches(self, descriptor: StreamDescriptor) -> bool:
        stream_id = descriptor.stream_id
        if self.stream_id is not None and stream_id != self.stream_id:
            return False
        if self.sensor_id is not None and stream_id.sensor_id != self.sensor_id:
            return False
        if (
            self.stream_index is not None
            and stream_id.stream_index != self.stream_index
        ):
            return False
        if self.derived is not None and stream_id.is_derived != self.derived:
            return False
        if self.kind is not None:
            if self.kind.endswith("*"):
                if not descriptor.kind.startswith(self.kind[:-1]):
                    return False
            elif descriptor.kind != self.kind:
                return False
        return True


# A catch-all pattern must bypass __post_init__'s emptiness guard (the
# guard exists to catch *accidentally* empty patterns); build the single
# shared instance directly and expose it as a classmethod.
def _build_match_all() -> SubscriptionPattern:
    pattern = object.__new__(SubscriptionPattern)
    object.__setattr__(pattern, "stream_id", None)
    object.__setattr__(pattern, "sensor_id", None)
    object.__setattr__(pattern, "stream_index", None)
    object.__setattr__(pattern, "kind", None)
    object.__setattr__(pattern, "derived", None)
    return pattern


_MATCH_ALL = _build_match_all()


def _match_all(cls: type[SubscriptionPattern]) -> SubscriptionPattern:
    """A catch-all pattern (matches every stream)."""
    return _MATCH_ALL


SubscriptionPattern.match_all = classmethod(_match_all)  # type: ignore[attr-defined]


DirectLeg = Callable[[Sequence[StreamArrival]], None]
"""``leg(run)``: a run of deliveries as one call, as routed (a live
drain's :class:`FrameRun`, or a sequence of arrivals): ``delivered_at``
is the leg's to stamp (see :meth:`DispatchingService.bind_direct`)."""


@dataclass(slots=True)
class Subscription:
    """One consumer's registered interest."""

    subscription_id: int
    endpoint: str
    pattern: SubscriptionPattern
    delivered: int = 0
    #: Set by :meth:`DispatchingService.bind_direct`: the leg is a call.
    direct: DirectLeg | None = None


class DispatchStats(RegistryBackedStats):
    PREFIX = "dispatch"

    arrivals: int = 0
    deliveries: int = 0
    orphaned: int = 0
    advertisements: int = 0


RouteGuard = Callable[[str, StreamDescriptor], bool]
"""``guard(endpoint, descriptor)``: may this delivery proceed? Checked on
every route, not only at subscription time; the broker's keeps restricted
streams (e.g. location data, Section 2) from consumers without the right."""


class Admission(Protocol):
    """Admission control (repro.qos): ``offer`` processes the arrival now,
    queues it for a later drain (which re-enters via
    :meth:`DispatchingService.process_admitted`), or sheds it."""

    def offer(self, arrival: StreamArrival) -> bool: ...


class DeliveryQueues(Protocol):
    """Per-consumer delivery queues (repro.qos): ``deliver`` replaces the
    direct ``network.send`` of a fan-out leg; ``release`` drops what is
    parked for an endpoint whose subscriptions are gone."""

    def deliver(self, endpoint: str, arrival: StreamArrival) -> None: ...

    def release(self, endpoint: str) -> int: ...


class ClusterRouting(Protocol):
    """One broker node's view of the federation (repro.cluster):
    ``on_fresh`` is True when this broker owns the arrival's stream (a
    non-owner forwards it); ``remote_targets`` names the link inboxes
    with aggregated remote interest, ``send_remote`` puts a leg on one;
    ``filter_local`` suppresses local deliveries a link or handoff replay
    already made; ``interest_*`` propagate subscriptions to the peers."""

    def on_fresh(self, arrival: StreamArrival) -> bool: ...

    def remote_targets(self, stream_id: StreamId) -> tuple[str, ...]: ...

    def send_remote(self, link_inbox: str, arrival: StreamArrival) -> None: ...

    def filter_local(
        self, stream_id: StreamId, sequence: int, *, record: bool = False
    ) -> bool: ...

    def interest_added(self, pattern: SubscriptionPattern) -> None: ...

    def interest_removed(self, pattern: SubscriptionPattern) -> None: ...

    def invalidate(self, stream_id: StreamId | None = None) -> None: ...


class ArrivalTap(Protocol):
    """The stream store's write-through tap (repro.store): ``record``
    appends each run of arrivals this node processes as the stream's
    owner — fresh traffic past the admission and cluster gates, plus
    handoff replay. Link fan-out never appends: the owning node already
    did."""

    def record(self, arrival: StreamArrival, *more: StreamArrival) -> bool: ...

    def record_frames(
        self, stream_id: StreamId, received_at: float, receiver_id: int,
        frames: Sequence[bytes], sequences: Sequence[int],
    ) -> bool: ...


class FanoutRoots(Protocol):
    """Hierarchical fan-out trees (repro.fanout): ``is_root`` marks
    subscriptions held by a tree root; ``deliver_root`` hands the leg to
    the tree (one delivery per subtree) and returns the member
    deliveries; ``invalidate`` mirrors route-cache flushes into the
    per-relay route caches."""

    def is_root(self, endpoint: str) -> bool: ...

    def deliver_root(self, endpoint: str, arrival: StreamArrival) -> int: ...

    def invalidate(self, stream_id: StreamId | None = None) -> None: ...


class DispatchingService:
    """Routes stream arrivals to subscribers; unclaimed data to the Orphanage.

    The optional stages are typed collaborators, None when their config
    switch is off (the default data path stays byte-identical).
    ``delivery`` and ``store`` exist before the service and come through
    the constructor; the rest are built around it and come through
    :meth:`install`.
    """

    def __init__(
        self,
        network: FixedNetwork,
        registry: StreamRegistry,
        orphanage_inbox: str = ORPHANAGE_INBOX,
        metrics: MetricsRegistry | None = None,
        inbox: str = INBOX,
        broker_inbox: str = BROKER_INBOX,
        *,
        delivery: DeliveryQueues | None = None,
        store: ArrivalTap | None = None,
    ) -> None:
        self._network = network
        self._registry = registry
        self._orphanage_inbox = orphanage_inbox
        self.inbox = inbox
        self._broker_inbox = broker_inbox
        self._subscriptions: dict[int, Subscription] = {}
        self._exact: dict[StreamId, set[int]] = {}
        # Patterned subscriptions are bucketed by their most selective
        # pinned field so _compute_route only examines plausible
        # candidates: patterns pinning a sensor_id live in _by_sensor,
        # remaining patterns pinning an exact (non-wildcard) kind live
        # in _by_kind, everything else is scanned unconditionally from
        # _by_kind[None] (no advertised kind is None). Bucketing is a
        # pure pruning step — a pattern outside the probed buckets
        # provably cannot match — and matches() is still consulted per
        # candidate.
        self._by_sensor: dict[int, dict[int, Subscription]] = {}
        self._by_kind: dict[str | None, dict[int, Subscription]] = {}
        # Per-endpoint subscription ids so remove_endpoint (every lease
        # reap under churn) needn't scan the whole table.
        self._by_endpoint: dict[str, set[int]] = {}
        self._direct: dict[str, DirectLeg] = {}
        self._next_subscription_id = 1
        self._route_cache: dict[StreamId, tuple[int, ...]] = {}
        self._advertised: set[StreamId] = set()
        self._delivery = delivery
        self._store = store
        self._admission: Admission | None = None
        self._cluster: ClusterRouting | None = None
        self._fanout: FanoutRoots | None = None
        self._route_guard: RouteGuard | None = None
        self._delivery_errors: Callable[[Exception], None] | None = None
        self.stats = DispatchStats(metrics)
        # Hot path: bound counters, not the stats property round-trip.
        self._arrivals = self.stats.counter("arrivals")
        self._deliveries = self.stats.counter("deliveries")
        network.register_inbox(inbox, self.on_arrival)

    def install(
        self,
        *,
        admission: Admission | None = None,
        cluster: ClusterRouting | None = None,
        fanout: FanoutRoots | None = None,
        route_guard: RouteGuard | None = None,
        delivery_errors: Callable[[Exception], None] | None = None,
    ) -> None:
        """Attach collaborators that cannot exist before this service.

        The admission controller drains into :meth:`process_admitted`,
        the cluster router and fan-out runtime subscribe through this
        service, the broker guards its routes, a live broker hears what
        its consumers raise (:meth:`delivery_failed`): whoever builds one
        installs it here. An argument left None keeps what is installed.
        """
        if admission is not None:
            self._admission = admission
        if cluster is not None:
            self._cluster = cluster
        if fanout is not None:
            self._fanout = fanout
        if route_guard is not None:
            self._route_guard = route_guard
            self._route_cache.clear()
        if delivery_errors is not None:
            self._delivery_errors = delivery_errors

    # ------------------------------------------------------------------
    # Subscription management (driven by the broker)
    # ------------------------------------------------------------------
    def add_subscription(
        self, endpoint: str, pattern: SubscriptionPattern
    ) -> int:
        """Register interest; returns the subscription id."""
        if not self._network.has_inbox(endpoint):
            raise SubscriptionError(
                f"endpoint {endpoint!r} has no inbox on the fixed network"
            )
        # Chosen before anything is recorded: a pattern that cannot be
        # bucketed must leave no half-installed subscription behind.
        exact = pattern.stream_id
        if exact is None:
            table, key = self._pattern_bucket(pattern)
        subscription_id = self._next_subscription_id
        self._next_subscription_id += 1
        subscription = Subscription(
            subscription_id, endpoint, pattern, direct=self._direct.get(endpoint)
        )
        self._subscriptions[subscription_id] = subscription
        self._by_endpoint.setdefault(endpoint, set()).add(subscription_id)
        if exact is not None:
            self._exact.setdefault(exact, set()).add(subscription_id)
            self._route_cache.pop(exact, None)
        else:
            table.setdefault(key, {})[subscription_id] = subscription
            self._route_cache.clear()
        if self._cluster is not None:
            self._cluster.interest_added(pattern)
        return subscription_id

    def _pattern_bucket(
        self, pattern: SubscriptionPattern
    ) -> tuple[dict, int | str | None]:
        """``(table, key)`` of the bucket a (non-exact) pattern lives in."""
        if pattern.sensor_id is not None:
            return self._by_sensor, pattern.sensor_id
        kind = pattern.kind
        if kind is not None and not kind.endswith("*"):
            return self._by_kind, kind
        return self._by_kind, None

    def subscription_endpoint(self, subscription_id: int) -> str:
        """The endpoint a subscription routes to."""
        if subscription_id not in self._subscriptions:
            raise SubscriptionError(f"unknown subscription {subscription_id}")
        return self._subscriptions[subscription_id].endpoint

    def remove_subscription(self, subscription_id: int) -> None:
        endpoint = self.subscription_endpoint(subscription_id)
        subscription = self._subscriptions.pop(subscription_id)
        endpoints = self._by_endpoint.get(endpoint)
        if endpoints is not None:
            endpoints.discard(subscription_id)
            if not endpoints:
                del self._by_endpoint[endpoint]
        pattern = subscription.pattern
        if pattern.stream_id is not None:
            targets = self._exact.get(pattern.stream_id)
            if targets is not None:
                targets.discard(subscription_id)
                if not targets:
                    del self._exact[pattern.stream_id]
            self._route_cache.pop(pattern.stream_id, None)
        else:
            table, key = self._pattern_bucket(pattern)
            bucket = table.get(key)
            if bucket is not None:
                bucket.pop(subscription_id, None)
                if not bucket:
                    del table[key]
            self._route_cache.clear()
        if self._cluster is not None:
            self._cluster.interest_removed(pattern)

    def remove_endpoint(self, endpoint: str) -> int:
        """Drop every subscription held by ``endpoint``; returns the count."""
        # Ascending id order matches the old full-table scan (ids are
        # allocated monotonically, so table order was ascending too).
        doomed = sorted(self._by_endpoint.get(endpoint, ()))
        for sid in doomed:
            self.remove_subscription(sid)
        if self._delivery is not None:
            # A quarantined consumer's parked backlog must not outlive
            # its subscriptions (lease reaping funnels through here).
            self._delivery.release(endpoint)
        return len(doomed)

    def bind_direct(self, endpoint: str, handler: DirectLeg | None) -> None:
        """Deliver ``endpoint``'s fan-out legs by calling ``handler``.

        One call per run: ``handler(run)``, oldest first, the arrivals
        as routed — not restamped, so a handler whose consumers read
        ``delivered_at`` stamps it. No bus latency, retry, partition
        or breaker applies to them; QoS delivery queues still come first.
        None unbinds.
        """
        if handler is None:
            self._direct.pop(endpoint, None)
        else:
            self._direct[endpoint] = handler
        for subscription_id in self._by_endpoint.get(endpoint, ()):
            self._subscriptions[subscription_id].direct = handler

    def delivery_failed(self, error: Exception) -> None:
        """A consumer raised while taking one delivery.

        Reported to what :meth:`install` was given (a live broker counts
        and logs it), so the other deliveries of the run, and the other
        consumers, still get theirs. With nothing installed it
        propagates, as an in-simulation callback's error always has.
        """
        if self._delivery_errors is None:
            raise error
        self._delivery_errors(error)

    def subscription_count(self) -> int:
        return len(self._subscriptions)

    def invalidate_routes(self, stream_id: StreamId | None = None) -> None:
        """Flush memoised routing (called when stream metadata changes)."""
        if stream_id is None:
            self._route_cache.clear()
        else:
            self._route_cache.pop(stream_id, None)
        if self._cluster is not None:
            self._cluster.invalidate(stream_id)
        if self._fanout is not None:
            self._fanout.invalidate(stream_id)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def on_arrival(self, arrival: StreamArrival, *more: StreamArrival) -> None:
        """Take a run: one arrival, or consecutive arrivals of its stream
        that share its ``received_at`` and ``receiver_id``, or a live
        drain's :class:`FrameRun`. It is observed, stored and routed once."""
        run = arrival if arrival.__class__ is FrameRun else (arrival, *more)
        self._arrivals.inc(len(run))
        if self._admission is not None:
            for each in run:
                self._admission.offer(each)
            return
        self.process_admitted(arrival, *more)

    def process_admitted(
        self, arrival: StreamArrival, *more: StreamArrival
    ) -> None:
        """Route a run that has passed (or bypassed) admission."""
        run = arrival if arrival.__class__ is FrameRun else (arrival, *more)
        cluster = self._cluster
        if cluster is not None:
            # Another broker may own this stream; the router buffers each
            # arrival for handoff replay and forwards it to the owner's
            # dispatch inbox. Stream stats are observed there.
            run = [each for each in run if cluster.on_fresh(each)]
            if not run:
                return
        observed = None
        if run.__class__ is FrameRun:
            # A live drain's publishes: observed and stored off the frames.
            stream_id, stamp = run.stream_id, run.received_at
            observed = (stamp, run.payload, run.sequences[-1], len(run.frames))
            if self._store is not None:
                self._store.record_frames(
                    stream_id, stamp, -1, run.frames, run.sequences
                )
        else:
            arrival = run[0]
            stream_id = arrival.message.stream_id
            if arrival.receiver_id < 0:
                # Published directly on the fixed network (derived
                # streams); the Filtering Service never saw it, so record
                # stats here, once for the run: it shares one received_at.
                payloads = [each.message.payload for each in run]
                observed = (
                    arrival.received_at,
                    sum(map(len, payloads)),
                    run[-1].message.sequence,
                    len(payloads),
                )
            if self._store is not None:
                self._store.record(*run)
        if observed is not None:
            self._registry.detect(stream_id).stats.observe(*observed)
        self._advertise_if_new(stream_id)
        self._route_and_deliver(run, stream_id, cluster)

    def process_replayed(self, arrival: StreamArrival) -> None:
        """Owner-path processing for a handoff-replayed arrival.

        Replay re-enters below admission and below the fresh-arrival
        cluster gate: the stream was already observed and buffered when
        it first entered the cluster, so only routing and fan-out run.
        Local deliveries are recorded in the dedupe window so a consumer
        that already received a copy (over a link, before the handoff)
        does not see it twice.
        """
        stream_id = arrival.message.stream_id
        if self._store is not None:
            # The old owner may have appended this before crashing; the
            # tap's sequence window keeps the log duplicate-free.
            self._store.record(arrival)
        self._advertise_if_new(stream_id)
        self._route_and_deliver(
            (arrival,), stream_id, self._cluster, record_local=True
        )

    def process_remote_delivery(self, arrival: StreamArrival) -> int:
        """Local-only fan-out for an arrival received over a link.

        The owning broker already routed this message; here it may only
        reach this node's own subscribers — never the Orphanage, never
        another link (that would defeat once-per-link aggregation).
        Returns the number of local deliveries.
        """
        stream_id = arrival.message.stream_id
        self._advertise_if_new(stream_id)
        return self._route_and_deliver(
            (arrival,), stream_id, None, orphan_unclaimed=False
        )

    def _route_and_deliver(
        self,
        run: Sequence[StreamArrival],
        stream_id: StreamId,
        cluster: ClusterRouting | None,
        *,
        orphan_unclaimed: bool = True,
        record_local: bool = False,
    ) -> int:
        """Deliver a run of one stream's arrivals along its (memoised)
        route: one lookup, then each leg takes the whole run in order.

        Every matching local subscription gets the run re-stamped with
        the hand-off time. With ``cluster`` (the owner-side path of a
        clustered node) each arrival additionally takes one leg per peer
        link with aggregated interest, and local fan-out is gated by the
        node's dedupe window (``record_local`` forces a window into
        existence). Arrivals nobody — local or remote — wants go to the
        Orphanage unless ``orphan_unclaimed`` is off. Returns the local
        deliveries.
        """
        route = self._route_cache.get(stream_id)
        if route is None:
            route = self._compute_route(stream_id)
            self._route_cache[stream_id] = route
        remote = cluster.remote_targets(stream_id) if cluster is not None else ()
        if not route and not remote:
            if orphan_unclaimed:
                self.stats.orphaned += len(run)
                for arrival in run:
                    self._network.send(self._orphanage_inbox, arrival)
            return 0
        local = run if route else ()
        if cluster is not None and local:
            # A sequence every local subscriber already holds (it came
            # over a link before a handoff) is owed to the links only.
            local = [
                arrival
                for arrival in run
                if cluster.filter_local(
                    stream_id, arrival.message.sequence, record=record_local
                )
            ]
        # Restamped with the hand-off time for the first leg that hands
        # arrivals on; a direct leg takes the run as routed.
        outbound: list[StreamArrival] | None = None
        count = len(local)
        delivered = 0
        fanout = self._fanout
        seen_roots: set[str] | None = None if fanout is None else set()
        for subscription_id in route if count else ():
            subscription = self._subscriptions.get(subscription_id)
            if subscription is None:
                continue
            endpoint = subscription.endpoint
            to_root = fanout is not None and fanout.is_root(endpoint)
            if to_root:
                # One batch per tree per message: a root holding several
                # matching patterns still receives a single delivery
                # (the leaves fan to members by their own patterns).
                if endpoint in seen_roots:
                    continue
                seen_roots.add(endpoint)
            subscription.delivered += count
            self._deliveries.inc(count)
            direct = subscription.direct
            if direct is not None and self._delivery is None and not to_root:
                direct(local)
                delivered += count
                continue
            if outbound is None:
                delivered_at = self._network.sim.now
                outbound = [
                    new_arrival(
                        StreamArrival,
                        (message, received_at, receiver_id, delivered_at),
                    )
                    for message, received_at, receiver_id, _ in local
                ]
            if to_root:
                for arrival in outbound:
                    delivered += fanout.deliver_root(endpoint, arrival)
                continue
            if self._delivery is not None:
                for arrival in outbound:
                    self._delivery.deliver(endpoint, arrival)
            else:
                for arrival in outbound:
                    self._network.send(endpoint, arrival)
            delivered += count
        for link_inbox in remote:
            for arrival in run:
                cluster.send_remote(link_inbox, arrival)
        return delivered

    def _compute_route(self, stream_id: StreamId) -> tuple[int, ...]:
        descriptor = self._registry.detect(stream_id)
        targets = set(self._exact.get(stream_id, ()))
        sensor_bucket = self._by_sensor.get(stream_id.sensor_id)
        kind_bucket = self._by_kind.get(descriptor.kind)
        for bucket in (sensor_bucket, kind_bucket, self._by_kind.get(None)):
            if not bucket:
                continue
            for subscription_id, subscription in bucket.items():
                if subscription.pattern.matches(descriptor):
                    targets.add(subscription_id)
        if self._route_guard is not None:
            targets = {
                sid
                for sid in targets
                if self._route_guard(
                    self._subscriptions[sid].endpoint, descriptor
                )
            }
        return tuple(sorted(targets))

    def _advertise_if_new(self, stream_id: StreamId) -> None:
        if stream_id in self._advertised:
            return
        self._advertised.add(stream_id)
        descriptor = self._registry.detect(stream_id)
        self.stats.advertisements += 1
        if self._network.has_inbox(self._broker_inbox):
            self._network.send(
                self._broker_inbox,
                StreamAdvertisement(
                    stream_id=stream_id,
                    kind=descriptor.kind,
                    encrypted=descriptor.encrypted,
                    advertised_at=self._network.sim.now,
                ),
            )
