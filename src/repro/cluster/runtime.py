"""The cluster runtime: shard-routed federation over the fixed network.

``ClusterRuntime`` owns everything brokers share — the
:class:`~repro.cluster.shards.StreamShardMap`, the live-member set, the
:class:`~repro.cluster.coordinator.HandoffBuffer`, the ``cluster.*``
metrics — and one :class:`ClusterRouter` per node, installed into that
node's Dispatching Service via ``install(cluster=...)``.

Data-path shape (all hops are ordinary FixedNetwork sends):

- Radio arrivals leave the Filtering Service through the cluster
  ingress inbox, which tees them into the handoff buffer and routes
  them to the owning broker's dispatch inbox (full path: arrival
  counters, per-node admission, then routing).
- A session publish enters its *home* broker's dispatch inbox; the home
  router either keeps it (home owns the stream) or tees + forwards the
  raw arrival to the owner's dispatch inbox.
- The owner routes: local fan-out to its own subscribers, plus exactly
  one :class:`~repro.cluster.link.RemoteDelivery` frame per peer broker
  with aggregated interest — the once-per-link guarantee.
- Peers fan a received frame out locally only; per-stream
  :class:`~repro.util.ids.SequenceWindow` dedupe makes link and
  handoff-replay paths no-duplicate.

When ``cluster_enabled`` is off the deployment carries a
:class:`DisabledCluster` and no router is installed anywhere: the data
path, RNG draws, and metrics are byte-identical to the pre-cluster
single-broker build (pinned by the golden digest).
"""

from __future__ import annotations

from typing import Any

from repro.cluster.coordinator import ClusterCoordinator, HandoffBuffer
from repro.cluster.link import (
    InterBrokerLink,
    InterestUpdate,
    RemoteDelivery,
)
from repro.cluster.node import BrokerNode
from repro.cluster.shards import StreamShardMap
from repro.core.dispatching import DispatchingService, SubscriptionPattern
from repro.core.envelopes import StreamArrival
from repro.core.streamid import StreamId
from repro.errors import ConfigurationError
from repro.obs.stats import RegistryBackedStats
from repro.util.ids import SEQUENCE_WINDOW, SequenceWindow

INGRESS_INBOX = "garnet.cluster.ingress"


class ClusterStats(RegistryBackedStats):
    PREFIX = "cluster"

    ingress_routed: int = 0
    """Radio arrivals routed to their owning broker by the ingress."""
    publish_forwards: int = 0
    """Fresh arrivals a non-owner broker forwarded to the owner."""
    forwards: int = 0
    """RemoteDelivery frames sent (one per message per interested link)."""
    dedupe_hits: int = 0
    """Duplicate copies suppressed by per-node sequence windows."""
    handoff_evicted: int = 0
    """Arrivals pushed out of a full handoff backlog (never replayable)."""
    interest_updates: int = 0
    """InterestUpdate frames applied (remote subscription add/remove)."""
    handoffs: int = 0
    """Membership changes that triggered an ownership rebalance."""
    streams_reassigned: int = 0
    replayed: int = 0
    """Buffered messages replayed to new owners during handoffs."""
    reroutes: int = 0
    """Messages routed to a failover owner while their home is down."""
    stale_deliveries: int = 0
    """RemoteDelivery frames that matched no local route on arrival."""
    control_reroutes: int = 0
    """Control-path requests for streams owned by a non-home broker."""


class DisabledCluster:
    """The ``deployment.cluster`` placeholder when clustering is off."""

    enabled = False

    def node(self, name: str) -> BrokerNode:
        raise ConfigurationError(
            f"no cluster broker {name!r}: clustering is disabled; set "
            "cluster_enabled=True"
        )

    def note_control_request(self, stream_id: StreamId, home: str) -> None:
        """One broker owns every stream: nothing is ever rerouted."""


class ClusterRouter:
    """One node's view of the federation, installed into its dispatcher."""

    def __init__(
        self,
        name: str,
        runtime: "ClusterRuntime",
        dispatcher: DispatchingService,
    ) -> None:
        self._name = name
        self._runtime = runtime
        self._dispatcher = dispatcher
        self._network = runtime.network
        self._registry = runtime.registry
        self._seen: dict[StreamId, SequenceWindow] = {}
        # origin broker -> {pattern: refcount}; fed by InterestUpdate.
        self._remote_interest: dict[str, dict[SubscriptionPattern, int]] = {}
        self._remote_cache: dict[StreamId, tuple[str, ...]] = {}

    # -- fresh arrivals (dispatcher.process_admitted) -------------------
    def on_fresh(self, arrival: StreamArrival) -> bool:
        """Tee into the handoff buffer; True when this node owns it."""
        runtime = self._runtime
        stream_id = arrival.message.stream_id
        runtime.buffer.add(stream_id, arrival)
        owner = runtime.owner(stream_id)
        if runtime.degraded and owner != runtime.shards.owner(stream_id):
            runtime.stats.reroutes += 1
        if owner == self._name:
            return True
        runtime.stats.publish_forwards += 1
        self._network.send(runtime.nodes[owner].dispatch_inbox, arrival)
        return False

    # -- owner-side helpers ---------------------------------------------
    def remote_targets(self, stream_id: StreamId) -> tuple[str, ...]:
        """Link inboxes of peers with aggregated interest in the stream."""
        cached = self._remote_cache.get(stream_id)
        if cached is not None:
            return cached
        descriptor = self._registry.detect(stream_id)
        targets: list[str] = []
        for origin, table in self._remote_interest.items():
            if origin == self._name or not table:
                continue
            for pattern in table:
                if pattern.matches(descriptor):
                    targets.append(self._runtime.nodes[origin].link_inbox)
                    break
        result = tuple(sorted(targets))
        self._remote_cache[stream_id] = result
        return result

    def send_remote(self, link_inbox: str, arrival: StreamArrival) -> None:
        self._runtime.stats.forwards += 1
        self._network.send(
            link_inbox, RemoteDelivery(origin=self._name, arrival=arrival)
        )

    def filter_local(
        self, stream_id: StreamId, sequence: int, *, record: bool = False
    ) -> bool:
        """Should the owner fan this message out to local subscribers?

        Streams with link/replay history keep a sequence window here;
        a sequence already delivered locally (e.g. over a link before a
        handoff made this node the owner) is suppressed. Pure-local
        streams never grow a window unless ``record`` forces one
        (handoff replay does, so post-handoff fresh traffic dedupes
        against what the replay already delivered).
        """
        entry = self._seen.get(stream_id)
        if entry is None:
            if not record:
                return True
            entry = SequenceWindow(SEQUENCE_WINDOW)
            self._seen[stream_id] = entry
        if not entry.add(sequence):
            self._runtime.stats.dedupe_hits += 1
            return False
        return True

    # -- link frames ----------------------------------------------------
    def deliver_remote(self, frame: RemoteDelivery) -> None:
        arrival = frame.arrival
        stream_id = arrival.message.stream_id
        entry = self._seen.get(stream_id)
        if entry is None:
            entry = SequenceWindow(SEQUENCE_WINDOW)
            self._seen[stream_id] = entry
        if not entry.add(arrival.message.sequence):
            self._runtime.stats.dedupe_hits += 1
            return
        if self._dispatcher.process_remote_delivery(arrival) == 0:
            self._runtime.stats.stale_deliveries += 1

    def deliver_replayed(self, arrival: StreamArrival) -> None:
        self._dispatcher.process_replayed(arrival)

    def apply_interest(self, frame: InterestUpdate) -> None:
        table = self._remote_interest.setdefault(frame.origin, {})
        if frame.added:
            table[frame.pattern] = table.get(frame.pattern, 0) + 1
        else:
            count = table.get(frame.pattern, 0)
            if count <= 1:
                table.pop(frame.pattern, None)
            else:
                table[frame.pattern] = count - 1
        self._remote_cache.clear()
        self._runtime.stats.interest_updates += 1

    # -- local subscription changes (dispatcher hooks) ------------------
    def interest_added(self, pattern: SubscriptionPattern) -> None:
        self._runtime.broadcast_interest(self._name, pattern, True)

    def interest_removed(self, pattern: SubscriptionPattern) -> None:
        self._runtime.broadcast_interest(self._name, pattern, False)

    def invalidate(self, stream_id: StreamId | None = None) -> None:
        if stream_id is None:
            self._remote_cache.clear()
        else:
            self._remote_cache.pop(stream_id, None)


class ClusterRuntime:
    """Everything the brokers of one federation share."""

    enabled = True

    def __init__(self, deployment: Any) -> None:
        cfg = deployment.config
        self.network = deployment.network
        self.registry = deployment.registry
        metrics = deployment.metrics()
        self.stats = ClusterStats(metrics)
        names = [f"b{index}" for index in range(cfg.cluster_brokers)]
        self.shards = StreamShardMap(names)
        self.buffer = HandoffBuffer()
        self.buffer.evicted = self.stats.counter("handoff_evicted")
        self.live: frozenset[str] = frozenset(names)
        self._members = frozenset(names)

        # b0 is the deployment's primary node, already built under the
        # historical single-broker inbox names.
        primary = deployment.nodes[0]
        self.nodes: dict[str, BrokerNode] = {primary.name: primary}
        for name in names[1:]:
            self.nodes[name] = BrokerNode(deployment, name)

        # Dots are not representable as RegistryBackedStats fields, so
        # this counter is registered explicitly rather than declared on
        # ClusterStats.
        self.unknown_frames = metrics.counter(
            "cluster.link.unknown_frames",
            help="link frames of unknown type dropped (version skew)",
        )
        self.routers: dict[str, ClusterRouter] = {}
        for name, node in self.nodes.items():
            router = ClusterRouter(name, self, node.dispatcher)
            self.routers[name] = router
            node.dispatcher.install(cluster=router)
            node.link = InterBrokerLink(
                name, self.network, router, self.unknown_frames
            )

        self.network.register_inbox(INGRESS_INBOX, self.on_ingress)
        self._brokers_up = metrics.gauge(
            "cluster.brokers_up", help="broker nodes currently live"
        )
        self._balance_gauges = {
            name: metrics.gauge(
                f"cluster.owned_streams.{name}",
                help="streams currently owned by this broker",
            )
            for name in names
        }
        self._brokers_up.set(float(len(names)))
        self.coordinator = ClusterCoordinator(
            self,
            deployment.sim,
            self.network,
            cfg.cluster_failover_check_period,
        )

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while at least one member broker is considered down."""
        return self.live != self._members

    def node(self, name: str) -> BrokerNode:
        try:
            return self.nodes[name]
        except KeyError as exc:
            raise ConfigurationError(
                f"unknown cluster broker {name!r}; members: "
                f"{', '.join(self.nodes)}"
            ) from exc

    def owner(self, stream_id: StreamId) -> str:
        return self.shards.owner(stream_id, self.live)

    # ------------------------------------------------------------------
    def on_ingress(self, arrival: StreamArrival) -> None:
        """Route one filtered radio arrival to its owning broker."""
        stream_id = arrival.message.stream_id
        self.buffer.add(stream_id, arrival)
        self.stats.ingress_routed += 1
        owner = self.owner(stream_id)
        if self.degraded and owner != self.shards.owner(stream_id):
            self.stats.reroutes += 1
        self.network.send(self.nodes[owner].dispatch_inbox, arrival)

    def broadcast_interest(
        self, origin: str, pattern: SubscriptionPattern, added: bool
    ) -> None:
        frame = InterestUpdate(origin=origin, pattern=pattern, added=added)
        for name, node in self.nodes.items():
            if name == origin:
                continue
            self.network.send(node.link_inbox, frame)

    def note_control_request(self, stream_id: StreamId, home: str) -> None:
        """Count control-path requests routed to a non-home owner."""
        if self.owner(stream_id) != home:
            self.stats.control_reroutes += 1

    def update_balance_gauges(self, live: frozenset[str]) -> None:
        self._brokers_up.set(float(len(live)))
        streams = [
            descriptor.stream_id for descriptor in self.registry.match()
        ]
        counts = self.shards.assignments(streams, live)
        for name, gauge in self._balance_gauges.items():
            gauge.set(float(counts.get(name, 0)))
